"""Tests of the certify benchmark itself, on its tiny smoke sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


def smoke(workload, trace, seed=3, cwd=ROOT, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    result = result_of(smoke(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_across_runs(workload):
    def counts(hash_seed):
        layers = result_of(smoke(workload, 1, hash_seed=hash_seed))["metrics"]
        end_to_end = result_of(smoke(workload, 0, hash_seed=hash_seed))["metrics"]
        out = {k: m["value"] for k, m in layers.items() if m["unit"] == "count"}
        out["proof_bytes"] = end_to_end["proof_bytes"]["value"]
        return out

    first = counts("1")
    assert first["proof.steps"] > 0
    assert counts("2") == first


def test_wrong_verdict_is_counted_and_saved(monkeypatch, tmp_path):
    import aspcert

    real_solve = aspcert.solve
    calls = []

    def flaky_solve(program, **kwargs):
        calls.append(program)
        result = real_solve(program, **kwargs)
        if len(calls) == 1:
            return aspcert.SolveResult(aspcert.CONSISTENT, answer_set=frozenset())
        return result

    monkeypatch.setattr(aspcert, "solve", flaky_solve)
    monkeypatch.setattr(bench, "OUT", tmp_path)
    result = bench.run("php", 3, 1.0, trace=False, smoke=True)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == len(calls) > 1
    saved = list(tmp_path.glob("failed-php-3-*.lp"))
    assert len(saved) == 1
    assert "reference INCONSISTENT" in saved[0].read_text()


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = smoke("php", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_percentile_interpolates_between_ranks():
    assert bench.percentile([3.0], 0.99) == 3.0
    assert bench.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
    assert bench.percentile([0.0, 10.0], 0.25) == 2.5
