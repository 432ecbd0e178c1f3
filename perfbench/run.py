"""Certify benchmark: program text to a certified verdict, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload php --seed 1 --seconds 25 --trace 0

Each instance goes through the public API: parse_program, solve with the
proof streamed to an in-memory sink, then parse_proof and check for an
INCONSISTENT verdict or is_answer_set for a CONSISTENT witness. The run
repeats rounds over the seed's instance set for about --seconds.
Every verdict is compared with a reference that is not the solver (see
workloads.py), and every round's proof text must repeat the first round's
byte for byte; an instance that fails either test, or raises, is counted in
`failed` and its program is saved, and the run goes on.

Times are reported at a nominal machine speed. The speed of a shared
machine drifts by tens of percent within seconds, and it moves two fixed
calibration loops (see Calibration) and the certify pipeline alike. So the
run times those loops between every ~0.2 s of work and scales each
instance's wall time by NOMINAL_CALIBRATION_S over the mean of the two
calibrations around it; the set-up time is scaled the same way. The
certify, solve and check times are medians over rounds of each round's
total; the latency percentiles are taken over each instance's median. The
raw wall time is printed on a summary line.

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 untraced and traced rounds alternate; the traced ones record spans
around every call into an aspcert module (see tracing.py) and the last line
carries the per-layer metrics, including the tracing overhead. The spans of
the last traced round and the programs of failed instances are written
under perfbench/out/.

--smoke runs one round (two with --trace 1) over tiny instances; the
benchmark's own tests use it.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CALIBRATION_ITERATIONS = 100_000
CALIBRATION_SETS = 20_000
# About what the calibration takes on the 2-core machine the workload sizes
# were chosen on (Python 3.11), so that reported times stay close to seconds.
NOMINAL_CALIBRATION_S = 0.008
SEGMENT_S = 0.2
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
MIN_ROUNDS = 3
# Start no round after this long, so that a run on a slow machine still ends
# inside its time limit.
HARD_LIMIT_S = 120
STEP_KINDS = "abcdelsu"
# Per-layer times that are nonzero on every workload. The others (the oracle,
# and checker steps of kinds l, d, e and u) are zero by construction on some
# workloads, so they are printed on the span summary line instead, and the
# oracle's self time falls in self_s.residual.
SELF_LAYERS = ("program_io", "completion", "loops", "solver", "proof", "checker", "propagation", "core")
TIMED_KINDS = "abcs"
# The public functions the certify path calls, with the layer each belongs to.
API_LAYERS = {
    "parse_program": "program_io",
    "solve": "solver",
    "parse_proof": "proof",
    "check": "checker",
    "is_answer_set": "oracle",
}


class Calibration:
    """Two fixed loops whose time tracks the machine's current speed.

    One loop is pure interpreter arithmetic; the other probes a set from a
    few megabytes of small frozensets, like the solver and checker do, so
    that it also slows when a neighbour contends for the caches. measure()
    returns the geometric mean of the two loop times.
    """

    def __init__(self) -> None:
        rng = random.Random(CALIBRATION_SETS)
        self.sets = [frozenset(rng.sample(range(CALIBRATION_SETS), 4)) for _ in range(CALIBRATION_SETS)]
        self.probe = set(range(0, CALIBRATION_SETS, 3))

    def measure(self) -> float:
        start = perf_counter()
        total = 0
        for i in range(CALIBRATION_ITERATIONS):
            total += i * i % 7
        middle = perf_counter()
        hits = 0
        for members in self.sets:
            for x in members:
                if x in self.probe:
                    hits += 1
        end = perf_counter()
        return math.sqrt((middle - start) * (end - middle))

    def scale(self, before: float, after: float) -> float:
        """Factor that takes times measured between the two calibrations to nominal speed."""
        return NOMINAL_CALIBRATION_S * 2 / (before + after)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1]); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def measure_setup(calibration: Calibration) -> tuple[list[float], list[float]]:
    """Scaled and raw seconds from spawning an interpreter until `import aspcert` returns.

    The child reads the same system-wide monotonic clock right after the
    import, so neither interpreter teardown nor the parent's wait counts.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = "import time, aspcert; print(time.monotonic()); print(aspcert.__file__)"
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = calibration.measure()
        start = monotonic()
        stdout = subprocess.run(
            [sys.executable, "-c", probe], env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=True,
        ).stdout
        imported, origin = stdout.splitlines()
        if Path(origin).resolve().parent != SRC / "aspcert":
            raise RuntimeError(f"fresh interpreter imported aspcert from {origin}, not {SRC}")
        after = calibration.measure()
        raw.append(float(imported) - start)
        scaled.append(raw[-1] * calibration.scale(before, after))
    return scaled, raw


def step_counts(proof_text: str) -> dict[str, int]:
    """Steps per kind, non-empty `a` steps and their literals in one proof text."""
    counts = dict.fromkeys(STEP_KINDS, 0)
    conflicts = learned_lits = 0
    for line in proof_text.splitlines():
        tokens = line.split()
        counts[tokens[0]] += 1
        if tokens[0] == "a" and len(tokens) > 2:
            conflicts += 1
            learned_lits += len(tokens) - 2
    return {**counts, "conflicts": conflicts, "learned_lits": learned_lits}


def certify(api: dict, text: str) -> tuple[tuple[float, float, float], str, bool, str]:
    """((certify_s, solve_s, check_s), status, certified, proof text) for one program."""
    start = perf_counter()
    program = api["parse_program"](text)
    sink = io.StringIO()
    solve_start = perf_counter()
    result = api["solve"](program, proof_sink=sink)
    check_start = perf_counter()
    proof_text = sink.getvalue()
    if result.status == api["INCONSISTENT"]:
        certified = bool(api["check"](program, api["parse_proof"](proof_text)))
    elif result.status == api["CONSISTENT"]:
        certified = api["is_answer_set"](program, result.answer_set)
    else:
        certified = False
    end = perf_counter()
    return (end - start, check_start - solve_start, end - check_start), result.status, certified, proof_text


class Run:
    """Rounds over one instance set, with verdict checks and the samples they yield."""

    def __init__(self, api: dict, instances, calibration: Calibration) -> None:
        self.api = api
        self.instances = instances
        self.calibration = calibration
        self.latencies: list[list[float]] = [[] for _ in instances]
        self.totals: dict[bool, list[list[float]]] = {False: [], True: []}
        self.raw_certify: list[float] = []
        self.first_proof: list[str | None] = [None] * len(instances)
        self.failures: dict[int, str] = {}
        self.attempted = self.failed = 0

    def round(self, api: dict, tracer=None) -> list[float]:
        """One pass over the instances; returns each instance's scale factor.

        The calibration runs before the first instance and after each segment
        of at least SEGMENT_S; an instance's times are scaled by the two
        calibrations around its segment.
        """
        traced = tracer is not None
        run_one = tracer.wrap(tracer.ROOT, certify) if traced else certify
        scales = [0.0] * len(self.instances)
        totals = [0.0, 0.0, 0.0]
        raw_certify = 0.0
        segment: list[tuple[int, tuple[float, float, float] | None]] = []
        before = self.calibration.measure()
        segment_start = perf_counter()
        for index in range(len(self.instances)):
            if traced:
                tracer.instance = index
            segment.append((index, self.attempt(index, run_one, api)))
            if index < len(self.instances) - 1 and perf_counter() - segment_start < SEGMENT_S:
                continue
            after = self.calibration.measure()
            scale = self.calibration.scale(before, after)
            for done, times in segment:
                scales[done] = scale
                if times is None:
                    continue
                scaled = [t * scale for t in times]
                totals = [a + b for a, b in zip(totals, scaled)]
                if not traced:
                    self.latencies[done].append(scaled[0])
                    raw_certify += times[0]
            segment = []
            before = after
            segment_start = perf_counter()
        self.totals[traced].append(totals)
        if not traced:
            self.raw_certify.append(raw_certify)
        return scales

    def attempt(self, index: int, run_one, api: dict) -> tuple[float, float, float] | None:
        """Times of one certify call, or None once the failure is recorded."""
        self.attempted += 1
        try:
            times, status, certified, proof_text = run_one(api, self.instances[index].text)
        except Exception as exc:  # a crash fails the instance, not the run
            problem = f"exception {type(exc).__name__}: {exc}"
        else:
            problem = self.verify(index, status, certified, proof_text)
        if problem:
            self.failed += 1
            self.failures.setdefault(index, problem)
            return None
        return times

    def verify(self, index: int, status: str, certified: bool, proof_text: str) -> str:
        """Why this outcome is wrong, or "" when it is right."""
        inst = self.instances[index]
        if status != inst.expected:
            return f"verdict {status}, reference {inst.expected}"
        if not certified:
            if status == self.api["INCONSISTENT"]:
                return "proof rejected by the checker"
            return "witness is not an answer set"
        if self.first_proof[index] is None:
            self.first_proof[index] = proof_text
        elif proof_text != self.first_proof[index]:
            return "proof text differs from the first round's"
        return ""

    def total(self, traced: bool, k: int = 0) -> float:
        """Median over rounds of the scaled certify (k=0), solve (1) or check (2) total."""
        return statistics.median(t[k] for t in self.totals[traced])

    def latencies_ms(self) -> list[float]:
        """Each instance's median scaled certify time over the untraced rounds."""
        return [statistics.median(per) * 1000 for per in self.latencies if per]

    def save_failures(self, workload: str, seed: int) -> None:
        if not self.failures:
            return
        OUT.mkdir(parents=True, exist_ok=True)
        for index, problem in sorted(self.failures.items()):
            inst = self.instances[index]
            path = OUT / f"failed-{workload}-{seed}-{index}.lp"
            path.write_text(f"% {inst.name}: {problem}\n{inst.text}")
            print(f"FAILED {inst.name}: {problem} (program saved to {path})", file=sys.stderr)


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import aspcert
    import tracing
    import workloads

    calibration = Calibration()
    tracer = tracing.Tracer() if trace else None
    setup_scaled, setup_raw = ([], []) if trace else measure_setup(calibration)
    oracle = aspcert.enumerate_answer_sets
    if tracer:
        oracle = tracer.wrap("oracle.enumerate_answer_sets", oracle)
    instances = workloads.WORKLOADS[workload](seed, workloads.SMOKE if smoke else workloads.FULL, oracle)
    reference = tracing.summarize(tracer.spans, [1.0]) if tracer else {}

    api = {name: getattr(aspcert, name) for name in (*API_LAYERS, "CONSISTENT", "INCONSISTENT")}
    bench = Run(api, instances, calibration)
    traced_api = dict(api)
    if tracer:
        for name, layer in API_LAYERS.items():
            traced_api[name] = tracer.wrap(f"{layer}.{name}", traced_api[name])
    round_summaries: list[dict[str, float]] = []
    store_peak = 0

    start = perf_counter()
    rounds = 0
    while True:
        if tracer and rounds % 2 == 1:
            tracer.spans.clear()  # only the last traced round's spans are kept and written
            tracer.install()
            try:
                scales = bench.round(traced_api, tracer)
            finally:
                tracer.uninstall()
            round_summaries.append(tracing.summarize(tracer.spans, scales))
            store_peak = max([store_peak, *(len(state.store) for state in tracer.states)])
            tracer.states.clear()
        else:
            bench.round(api)
        rounds += 1
        elapsed = perf_counter() - start
        if rounds < (2 if trace else 1):
            continue
        # Stop when one more round would end nearer to `seconds` past than short of it.
        if smoke or (rounds >= MIN_ROUNDS and elapsed * (rounds + 0.5) / rounds >= seconds):
            break
        if elapsed >= HARD_LIMIT_S:
            break
    bench.save_failures(workload, seed)

    proofs = [p or "" for p in bench.first_proof]
    checked = [p for p, inst in zip(proofs, instances) if inst.expected == aspcert.INCONSISTENT]
    print(
        f"{workload} seed={seed}: {len(instances)} instances x {rounds} rounds, "
        f"attempted={bench.attempted} failed={bench.failed} "
        f"failed_frac={bench.failed / bench.attempted:.4f}"
    )
    if trace:
        metrics = layer_metrics(
            aspcert, instances, proofs, checked, round_summaries, store_peak,
            traced_certify=bench.total(True), untraced_certify=bench.total(False),
        )
        names = sorted({key for summary in round_summaries for key in summary if key.startswith("inclusive:")})
        print("inclusive s per span name: " + ", ".join(
            f"{key.split(':', 1)[1]}={median_over(round_summaries, key):.5f}" for key in names
        ))
        enumerate_s = reference.get("inclusive:oracle.enumerate_answer_sets", 0.0)
        print(f"reference verdicts: oracle.enumerate_answer_sets={enumerate_s:.5f} s")
        tracer.write(OUT / f"trace-{workload}-{seed}.jsonl")
    else:
        latencies = bench.latencies_ms()
        metrics = {
            "certify_s": (bench.total(False, 0), "s"),
            "solve_s": (bench.total(False, 1), "s"),
            "check_s": (bench.total(False, 2), "s"),
            "certify_p50_ms": (percentile(latencies, 0.50), "ms"),
            "certify_p99_ms": (percentile(latencies, 0.99), "ms"),
            "proof_bytes": (float(sum(len(p) for p in checked)), "bytes"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup_scaled), "s"),
        }
        raw = statistics.median(bench.raw_certify)
        print(
            f"raw wall: certify {raw:.4f} s, setup {statistics.median(setup_raw):.4f} s; "
            f"derived check/solve = {metrics['check_s'][0] / max(metrics['solve_s'][0], 1e-9):.3f}"
        )
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def median_over(round_summaries: list[dict[str, float]], key: str) -> float:
    return statistics.median(summary.get(key, 0.0) for summary in round_summaries)


def layer_metrics(aspcert, instances, proofs, checked, round_summaries, store_peak,
                  *, traced_certify, untraced_certify) -> dict[str, tuple[float, str]]:
    def med(key: str) -> float:
        return median_over(round_summaries, key)

    def inclusive(*names: str) -> float:
        return sum(med(f"inclusive:{name}") for name in names)

    def total(counts: list[dict[str, int]], *keys: str) -> float:
        return float(sum(c[k] for c in counts for k in keys))

    programs = [aspcert.parse_program(inst.text) for inst in instances]
    solver_counts = [step_counts(p) for p in proofs]
    proof_counts = [step_counts(p) for p in checked]
    families = sorted({
        key.split(":", 1)[1]
        for summary in round_summaries for key in summary
        if key.startswith("inclusive:completion.") and key != "inclusive:completion.body_catalog"
    })
    cyclic = sum(len(aspcert.cyclic_atoms(aspcert.dependency_graph(p))) for p in programs)
    self_times = {f"self_s.{layer}": (med(f"self:{layer}"), "s") for layer in SELF_LAYERS}
    return {
        "program_io.parse_s": (inclusive("program_io.parse_program"), "s"),
        "program_io.atoms": (float(sum(p.atom_count for p in programs)), "count"),
        "program_io.rules": (float(sum(len(p.rules) for p in programs)), "count"),
        "completion.catalog_s": (inclusive("completion.body_catalog"), "s"),
        "completion.families_s": (inclusive(*families), "s"),
        "completion.bodies": (total(solver_counts, "b"), "count"),
        "loops.graph_s": (inclusive("loops.dependency_graph", "loops.cyclic_atoms"), "s"),
        "loops.cyclic_atoms": (float(cyclic), "count"),
        "solver.solve_s": (inclusive("solver.solve"), "s"),
        "solver.conflicts": (total(solver_counts, "conflicts"), "count"),
        "solver.loop_nogoods": (total(solver_counts, "l"), "count"),
        "solver.deletions": (total(solver_counts, "d"), "count"),
        "solver.completion_fired": (total(solver_counts, "c", "s"), "count"),
        "solver.learned_lits": (total(solver_counts, "learned_lits"), "count"),
        "proof.serialize_s": (inclusive("proof.serialize_step"), "s"),
        "proof.parse_s": (inclusive("proof.parse_proof"), "s"),
        "proof.steps": (total(proof_counts, *STEP_KINDS), "count"),
        **{f"proof.steps.{k}": (total(proof_counts, k), "count") for k in STEP_KINDS},
        "checker.init_s": (inclusive("checker.init"), "s"),
        **{f"checker.step_s.{k}": (inclusive(f"checker.step.{k}"), "s") for k in TIMED_KINDS},
        "checker.store_peak": (float(store_peak), "count"),
        "propagation.rup_s": (inclusive("propagation.rup_run"), "s"),
        "propagation.rup_calls": (med("calls:propagation.rup_run"), "count"),
        **self_times,
        "self_s.residual": (traced_certify - sum(value for value, _ in self_times.values()), "s"),
        "trace.certify_s": (traced_certify, "s"),
        "trace.overhead_s": (traced_certify - untraced_certify, "s"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("php", "chain", "hampath", "random"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round over tiny instances")
    args = parser.parse_args(argv)
    if not (SRC / "aspcert" / "__init__.py").is_file():
        print(f"error: no aspcert sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
