"""Benchmark workloads: seeded inputs, the timed operation, and its checks.

Each workload owns a pool of inputs whose outcomes were recorded in
``golden.json`` from the unmodified program.  ``--seed`` picks which part of
the pool a run cycles through, so every input repeats several times in one
run and each repeat must reproduce the first one's output files byte for
byte.  Inputs are never filtered by outcome: a pool entry whose run aborts
stays in the pool and counts in ``failed_frac``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import dubinsim  # noqa: E402
from dubinsim import cli, harness  # noqa: E402
from dubinsim.presets import robustness_scenario  # noqa: E402

if Path(dubinsim.__file__).resolve().parent != ROOT / "src" / "dubinsim":
    raise ImportError(f"dubinsim was imported from {dubinsim.__file__}, "
                      f"not from {ROOT / 'src'}")

GOLDEN_PATH = Path(__file__).with_name("golden.json")

NAMES = ("sweep-heol", "sweep-mfpc", "cli-run")
RUNS_PER_SWEEP = 3
RANDOMIZE = ("obstacles", "noise", "perturbation")
POOL_SIZE = 64        # inputs per workload with recorded golden outcomes
INPUTS_PER_RUN = 16   # inputs one benchmark run cycles through
RTOL = 1e-9           # parity tolerance for rms_tracking and min_clearance


@dataclass
class Input:
    key: str          # golden.json key of this pool entry
    payload: object   # ScenarioConfig (sweeps) or config file path (cli-run)


@dataclass
class Outcome:
    """One operation's output, reduced to what the checks compare."""

    runs: list        # per run: aborted, sides, rms_tracking, min_clearance
    safety_violations: int
    samples: int      # control samples completed over all runs
    digest: str       # hash of the files the operation wrote


@dataclass
class OpResult:
    key: str
    seconds: float
    runs: int
    samples: int = 0
    failed_runs: int = 0
    problems: list = field(default_factory=list)


def pick(name: str, seed: int) -> list[int]:
    """Pool indices one run of workload ``name`` cycles through."""
    return random.Random(f"{name}:{seed}").sample(range(POOL_SIZE), INPUTS_PER_RUN)


def _finite(v):
    return v if v is not None and math.isfinite(v) else None


def _run_record(aborted, events, metrics) -> dict:
    return {"aborted": bool(aborted),
            "sides": [e["side"] for e in events if e["kind"] == "bypass_start"],
            "rms_tracking": _finite(metrics["rms_tracking"]),
            "min_clearance": [_finite(c) for c in metrics["min_clearance"]]}


class SweepWorkload:
    """``robustness_scenario`` swept with obstacles, noise and perturbation
    all randomized, then written with ``emit_sweep``."""

    runs_per_op = RUNS_PER_SWEEP

    def __init__(self, controller: str, indices, workdir: Path):
        self.workdir = workdir
        self.inputs = [Input(str(b), robustness_scenario(controller, RUNS_PER_SWEEP * b))
                       for b in indices]

    def run(self, inp: Input):
        report, results = harness.run_sweep(inp.payload, RUNS_PER_SWEEP,
                                            randomize=RANDOMIZE, keep_results=True)
        return report, results, harness.emit_sweep(report, self.workdir,
                                                   name=f"sweep-{inp.key}")

    def outcome(self, inp: Input, out) -> Outcome:
        report, results, path = out
        runs = [_run_record(r.aborted, r.events, r.metrics) for r in results]
        if report.n_runs != len(results):
            raise AssertionError(f"report counts {report.n_runs} runs, got {len(results)}")
        return Outcome(runs=runs, safety_violations=report.safety_violations,
                       samples=sum(int(np.isfinite(r.t).sum()) for r in results),
                       digest=hashlib.sha256(Path(path).read_bytes()).hexdigest())


def cli_scenario(index: int) -> dict:
    """HEOL scenario on a filleted polyline, with noise, perturbation, a
    start ahead of the reference and obstacles appearing at staggered times:
    three near the path on legs 2-4 and one decoy a few metres off it."""
    rng = random.Random(index)
    waypoints = [(0.0, 0.0)]
    legs = []
    heading = 0.0
    while sum(legs) < 24.0:
        heading = min(1.0, max(-1.0, heading + rng.uniform(-0.8, 0.8)))
        leg = rng.uniform(4.5, 7.0)
        x, y = waypoints[-1]
        waypoints.append((x + leg * math.cos(heading), y + leg * math.sin(heading)))
        legs.append(leg)

    def near_leg(j, frac, lateral):
        (ax, ay), (bx, by) = waypoints[j], waypoints[j + 1]
        ux, uy = (bx - ax) / legs[j], (by - ay) / legs[j]
        return (ax + frac * legs[j] * ux - lateral * uy,
                ay + frac * legs[j] * uy + lateral * ux,
                sum(legs[:j]) + frac * legs[j])

    obstacles = []
    for j in (1, 2, 3):
        cx, cy, s = near_leg(j, rng.uniform(0.35, 0.65), rng.uniform(-0.3, 0.3))
        obstacles.append({"cx": cx, "cy": cy, "r": rng.uniform(0.4, 0.8),
                          "t_appear": round(max(0.0, s - rng.uniform(3.5, 6.0)), 2)})
    cx, cy, _ = near_leg(rng.randrange(len(legs)), rng.uniform(0.2, 0.8),
                         rng.choice((-1.0, 1.0)) * rng.uniform(2.5, 3.5))
    obstacles.append({"cx": cx, "cy": cy, "r": rng.uniform(0.4, 0.8),
                      "t_appear": round(rng.uniform(0.0, 10.0), 2)})
    sx, sy, _ = near_leg(0, rng.uniform(0.8, 1.5) / legs[0], rng.uniform(-0.3, 0.3))
    return {
        "version": 1, "name": f"cli-{index:03d}", "seed": index, "controller": "heol",
        "path": {"kind": "polyline", "waypoints": [list(p) for p in waypoints],
                 "speed": 1.0, "fillet_radius": rng.uniform(0.5, 1.0)},
        "start": [sx, sy],
        "obstacles": obstacles,
        "noise": {"enabled": True, "sigma": 0.1},
        "perturbation": {"enabled": True, "switch_interval": 2.0, "low": -0.5, "high": 0.5},
    }


class CliRunWorkload:
    """``dubinsim run`` called in-process on generated HEOL scenarios."""

    runs_per_op = 1

    def __init__(self, indices, workdir: Path):
        self.workdir = workdir
        self.out_dir = workdir / "out"
        self.radii = {}
        self.inputs = []
        for i in indices:
            scenario = cli_scenario(i)
            path = workdir / f"cli-{i:03d}.json"
            path.write_text(json.dumps(scenario), encoding="utf-8")
            self.radii[str(i)] = [ob["r"] for ob in scenario["obstacles"]]
            self.inputs.append(Input(str(i), path))

    def run(self, inp: Input) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(["run", "--config", str(inp.payload),
                             "--out", str(self.out_dir), "--name", f"cli-{inp.key}"])

    def outcome(self, inp: Input, exit_code: int) -> Outcome:
        csv = (self.out_dir / f"cli-{inp.key}.csv").read_bytes()
        raw = (self.out_dir / f"cli-{inp.key}_summary.json").read_bytes()
        summary = json.loads(raw)
        if exit_code != (1 if summary["aborted"] else 0):
            raise AssertionError(f"exit code {exit_code} with aborted={summary['aborted']}")
        run = _run_record(summary["aborted"], summary["events"], summary["metrics"])
        unsafe = any(c is not None and c < r
                     for c, r in zip(run["min_clearance"], self.radii[inp.key]))
        rows = csv.split(b"\n")[1:]
        return Outcome(runs=[run], safety_violations=int(unsafe),
                       samples=sum(1 for row in rows if row and not row.startswith(b"nan,")),
                       digest=hashlib.sha256(csv + raw).hexdigest())


def make(name: str, seed: int, workdir: Path, indices=None):
    """Workload ``name`` with the inputs ``seed`` selects (or pool ``indices``)."""
    if indices is None:
        indices = pick(name, seed)
    if name == "cli-run":
        return CliRunWorkload(indices, workdir)
    if name in ("sweep-heol", "sweep-mfpc"):
        return SweepWorkload(name.split("-")[1], indices, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def load_golden(name: str) -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as f:
        return json.load(f)[name]


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= RTOL * abs(want)


def compare(outcome: Outcome, expected_runs: list) -> list[str]:
    """Differences between an outcome and its recorded golden runs."""
    if len(outcome.runs) != len(expected_runs):
        return [f"{len(outcome.runs)} runs attempted, expected {len(expected_runs)}"]
    problems = []
    if outcome.safety_violations:
        problems.append(f"{outcome.safety_violations} safety violations")
    for i, (got, want) in enumerate(zip(outcome.runs, expected_runs)):
        for key in ("aborted", "sides"):
            if got[key] != want[key]:
                problems.append(f"run {i}: {key} {got[key]!r}, expected {want[key]!r}")
        if not _close(got["rms_tracking"], want["rms_tracking"]):
            problems.append(f"run {i}: rms_tracking {got['rms_tracking']!r}, "
                            f"expected {want['rms_tracking']!r}")
        clear_got, clear_want = got["min_clearance"], want["min_clearance"]
        if len(clear_got) != len(clear_want) or not all(map(_close, clear_got, clear_want)):
            problems.append(f"run {i}: min_clearance {clear_got!r}, expected {clear_want!r}")
    return problems


def execute(workload, inp: Input, golden: dict, digests: dict) -> OpResult:
    """Time one operation, then check it (untimed).

    A run fails if it aborts, if the operation raises, or if the operation's
    outcome differs from golden or from the first repeat of the same input.
    """
    start = time.perf_counter()
    try:
        out = workload.run(inp)
        seconds = time.perf_counter() - start
        outcome = workload.outcome(inp, out)
    except Exception:  # an operation that raises is counted, not fatal
        return OpResult(key=inp.key, seconds=time.perf_counter() - start,
                        runs=workload.runs_per_op,
                        failed_runs=workload.runs_per_op,
                        problems=[f"input {inp.key} raised:\n{traceback.format_exc()}"])
    problems = [f"input {inp.key}: {p}" for p in compare(outcome, golden[inp.key])]
    if digests.setdefault(inp.key, outcome.digest) != outcome.digest:
        problems.append(f"input {inp.key}: output differs from its first repeat")
    aborted = sum(run["aborted"] for run in outcome.runs)
    return OpResult(key=inp.key, seconds=seconds, runs=len(outcome.runs),
                    samples=outcome.samples,
                    failed_runs=len(outcome.runs) if problems else aborted,
                    problems=problems)
