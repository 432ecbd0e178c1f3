"""Spans around the calls into each aspcert module, recorded from outside.

The program itself is not changed. While a Tracer is installed it replaces
the names the orchestrating modules (solver, checker) import from the other
modules with wrappers that record a span per call, and wraps the checker's
state constructor and step method. The benchmark opens the remaining spans
around its own calls into the public API. A span is (name, start, end,
parent index, instance index); its layer is the module named by the first
component of its name ("bench" for the benchmark's own per-instance root
span). Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path
from time import perf_counter
from typing import Callable

import aspcert.checker as checker_mod
import aspcert.solver as solver_mod
from aspcert.checker import CheckerState


class Tracer:
    """In-memory span recorder; install() and uninstall() bracket a traced round."""

    # Name of the span the benchmark opens around each instance's certify call.
    ROOT = "bench.certify"

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.states: list[CheckerState] = []
        self.instance = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str | Callable[..., str], fn: Callable) -> Callable:
        """fn with a span per call; name may be computed from the arguments."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # type: ignore[arg-type]
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                label = name if isinstance(name, str) else name(*args, **kwargs)
                spans[index] = (label, start, end, parent, self.instance)

        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every cross-module function the solver and checker call."""
        for module in (solver_mod, checker_mod):
            for attr, fn in sorted(vars(module).items()):
                origin = getattr(fn, "__module__", "") or ""
                if (
                    inspect.isfunction(fn)
                    and origin.startswith("aspcert.")
                    and origin != module.__name__
                ):
                    layer = origin.rsplit(".", 1)[1]
                    self._patch(module, attr, self.wrap(f"{layer}.{attr}", fn))
        init = CheckerState.__init__

        def init_and_keep(state: CheckerState, *args, **kwargs) -> None:
            init(state, *args, **kwargs)
            self.states.append(state)

        self._patch(CheckerState, "__init__", self.wrap("checker.init", init_and_keep))
        self._patch(
            CheckerState,
            "step",
            self.wrap(lambda state, step: f"checker.step.{step.kind}", CheckerState.step),
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        """One JSON object per span; parent is the index of the parent span or -1."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, (name, start, end, parent, instance) in enumerate(self.spans):
                record = {"index": index, "name": name, "start": start, "end": end,
                          "parent": parent, "instance": instance}
                out.write(json.dumps(record) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[tuple[str, float, float, int, int]], scales: list[float]) -> dict[str, float]:
    """Inclusive time and calls per span name, and self time per layer.

    Durations are multiplied by scales[instance] (scales[-1] for spans outside
    any instance). Self time is a span's duration minus that of its direct
    children.
    """
    inclusive: dict[str, float] = {}
    calls: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for name, begin, finish, parent, instance in spans:
        duration = (finish - begin) * scales[instance]
        inclusive[name] = inclusive.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        layer = layer_of(name)
        self_time[layer] = self_time.get(layer, 0.0) + duration
        if parent >= 0:
            parent_layer = layer_of(spans[parent][0])
            self_time[parent_layer] = self_time.get(parent_layer, 0.0) - duration
    return {
        **{f"inclusive:{k}": v for k, v in inclusive.items()},
        **{f"calls:{k}": v for k, v in calls.items()},
        **{f"self:{k}": v for k, v in self_time.items()},
    }
