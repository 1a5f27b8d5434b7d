"""Per-layer spans around the public functions of every dubinsim layer.

Wrappers are installed from outside the package, on the binding each caller
resolves: ``harness`` does ``from .model import measure``, so the span for
``model.measure`` wraps ``dubinsim.harness.measure``.  A binding that no
longer exists raises at install time, and one that exists but is no longer
called reads 0 calls, which the span-coverage test catches.

Per-sample spans are kept only as aggregated (name, parent) totals, since one
record per call would cost more than the work being measured.  Per-run and
per-event spans are also kept one by one, tagged with the operation that
caused them.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

SWEEPS = ("sweep-heol", "sweep-mfpc")
CLI = ("cli-run",)
ALL = SWEEPS + CLI


@dataclass(frozen=True)
class Span:
    name: str            # <layer module>.<public name>
    bindings: tuple      # (module, attribute path) pairs the callers resolve
    active_on: tuple     # workloads predicted to call it; 0 calls on the others
    per_sample: bool     # called every control sample: aggregated only


SPANS = (
    Span("estimation.FWindow.estimate",
         (("dubinsim.estimation", "FWindow.estimate"),), ALL, True),
    Span("estimation.FWindow.push",
         (("dubinsim.estimation", "FWindow.push"),), ALL, True),
    Span("heol.HeolController.step",
         (("dubinsim.heol", "HeolController.step"),), ("sweep-heol",) + CLI, True),
    Span("mfpc.MfpcController.step",
         (("dubinsim.mfpc", "MfpcController.step"),), ("sweep-mfpc",), True),
    Span("mfpc.solve_two_point",
         (("dubinsim.mfpc", "solve_two_point"),), ("sweep-mfpc",), True),
    Span("model.measure", (("dubinsim.harness", "measure"),), ALL, True),
    Span("model.step_plant", (("dubinsim.harness", "step_plant"),), ALL, True),
    Span("reference.ReferenceTrajectory.lookup",
         (("dubinsim.reference", "ReferenceTrajectory.lookup"),), ALL, True),
    Span("avoidance.discover", (("dubinsim.avoidance", "discover"),), ALL, True),
    Span("harness.run_scenario",
         (("dubinsim.harness", "run_scenario"), ("dubinsim.cli", "run_scenario")),
         ALL, False),
    Span("reference.build_reference",
         (("dubinsim.harness", "build_reference"),), ALL, False),
    Span("harness.place_crossing_obstacle",
         (("dubinsim.harness", "place_crossing_obstacle"),), SWEEPS, False),
    Span("scenario.compute_metrics",
         (("dubinsim.harness", "compute_metrics"),), ALL, False),
    Span("avoidance.path_crosses_zone",
         (("dubinsim.avoidance", "path_crosses_zone"),), ALL, False),
    Span("avoidance.plan_both_sides",
         (("dubinsim.avoidance", "plan_both_sides"),), ALL, False),
    Span("avoidance.splice", (("dubinsim.avoidance", "splice"),), ALL, False),
    Span("reference.sync_offset", (("dubinsim.harness", "sync_offset"),), ALL, False),
    Span("reference.apply_sync", (("dubinsim.harness", "apply_sync"),), ALL, False),
    Span("harness.run_sweep", (("dubinsim.harness", "run_sweep"),), SWEEPS, False),
    Span("harness.emit_sweep", (("dubinsim.harness", "emit_sweep"),), SWEEPS, False),
    Span("harness.emit_csv", (("dubinsim.harness", "emit_csv"),), CLI, False),
    Span("harness.emit_summary", (("dubinsim.harness", "emit_summary"),), CLI, False),
    Span("scenario.ScenarioConfig.from_file",
         (("dubinsim.scenario", "ScenarioConfig.from_file"),), CLI, False),
    Span("cli.main", (("dubinsim.cli", "main"),), CLI, False),
)

ROOT_PARENT = ""  # parent name of a span the benchmark itself called


class Tracer:
    """Context manager that wraps every span's bindings while it is open.

    ``totals`` maps (name, parent) to [calls, total_s, self_s, returned],
    where ``returned`` counts calls whose result was not None.  ``spans``
    holds (op, name, parent, start_s, duration_s) for non-per-sample spans.
    Set ``op`` before each operation.
    """

    def __init__(self, spans=SPANS):
        self.span_table = spans
        self.totals: dict[tuple[str, str], list] = {}
        self.spans: list[tuple] = []
        self.op = 0
        self._stack = [[ROOT_PARENT, 0.0]]
        self._patches: list[tuple] = []

    def __enter__(self):
        try:
            for span in self.span_table:
                for module_name, path in span.bindings:
                    owner = importlib.import_module(module_name)
                    *outer, attr = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    original = vars(owner)[attr]  # KeyError: the binding moved
                    setattr(owner, attr, self._wrap(span, original))
                    self._patches.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self._restore()

    def _restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, span: Span, fn):
        if isinstance(fn, classmethod):
            return classmethod(self._wrap(span, fn.__func__))
        name = span.name
        keep = not span.per_sample
        stack, totals, spans = self._stack, self.totals, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent[1] += duration
                key = (name, parent[0])
                rec = totals.get(key)
                if rec is None:
                    rec = totals[key] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[1]
                if keep:
                    spans.append((self.op, name, parent[0], start, duration))
            if result is not None:
                rec[3] += 1
            return result

        return traced

    def by_name(self) -> dict[str, list]:
        """[calls, total_s, self_s, returned] per span name, over all parents."""
        out = {span.name: [0, 0.0, 0.0, 0] for span in self.span_table}
        for (name, _parent), rec in self.totals.items():
            acc = out[name]
            for i, v in enumerate(rec):
                acc[i] += v
        return out
