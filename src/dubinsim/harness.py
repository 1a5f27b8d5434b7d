"""Closed-loop scenario execution, batch sweeps and file emission.

One run is strictly sequential and fully determined by its config (all
randomness flows from named sub-streams of the seeds), so identical configs
give byte-identical outputs and sweeps can fan runs out safely.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import avoidance
from ._csvfmt import format_block
from .avoidance import Obstacle
from .errors import (ConfigError, ControllerFault, InfeasibleBypassError,
                     ReplanLimitError, StateIntegrityError)
from .heol import HeolController
from .mfpc import MfpcController, check_reference
from .model import (STREAM_PLACEMENT, measure, measurement_noise, perturbation_levels,
                    step_plant, stream_rng)
from .reference import ReferenceTrajectory, apply_sync, build_reference, sync_offset
from .scenario import (SERIES, ScenarioConfig, ScenarioResult, check_name, compute_metrics,
                       write_json)

CSV_COLUMNS = tuple(name.replace("fhat", "Fhat") for name in SERIES[:SERIES.index("dx_ref")])
# The CSV columns that MFPC, which has no auxiliary controls, leaves empty.
_MFPC_EMPTY = np.isin(CSV_COLUMNS, ("nu1", "nu2"))
_REFERENCE_COLUMNS = [SERIES.index(name) for name in ("x_ref", "y_ref", "dx_ref", "dy_ref")]
# The columns t to p of a record row, as float64, which one sample writes.
_SAMPLE_ROW = struct.Struct(f"={SERIES.index('p') + 1}d")

# Cap on replans within a single sample; more than this means the planner is
# thrashing and the run is flagged instead of looping.
MAX_REPLANS_PER_STEP = 8

# The faults that end a run, each with the prefix of its abort_reason; the
# reason then names the sample time, " at t=<k*dt>".
ABORT_PREFIXES = {
    InfeasibleBypassError: "infeasible bypass: ",
    ControllerFault: "controller fault: ",
    StateIntegrityError: "state integrity: ",
    ReplanLimitError: "",   # the message names the limit itself
}

# Rows per formatting block in emit_csv.
CSV_BLOCK_ROWS = 256


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Execute one scenario: measure, discover, replan, control, step.

    Controller faults, plant divergence, infeasible bypasses and the replan
    limit abort the run with a flagged partial result; they never raise
    across this boundary.
    """
    dt = cfg.dt
    n = cfg.n_steps
    traj = build_reference(cfg.path, dt=dt, duration=cfg.duration)
    if cfg.controller == "mfpc":
        check_reference(traj)
    noise = measurement_noise(cfg.noise,
                              cfg.seed if cfg.noise_seed is None else cfg.noise_seed)
    levels = perturbation_levels(
        cfg.perturbation, cfg.duration, n, dt,
        cfg.seed if cfg.perturbation_seed is None else cfg.perturbation_seed)
    controller = (HeolController(cfg.heol, dt) if cfg.controller == "heol"
                  else MfpcController(cfg.mfpc, dt))
    ahead = controller.ahead

    x0, y0 = traj.row(0)[:2]
    start = cfg.start if cfg.start is not None else (x0, y0)
    x, y = float(start[0]), float(start[1])   # the plant's true position

    # one log in time order: the controller appends its clamps to it as it steps
    events = controller.events
    reach = cfg.sync.tau_max / dt   # the widest sync shift, in samples
    if cfg.sync.enabled and math.hypot(x - x0, y - y0) > cfg.sync.startup_threshold:
        shift = sync_offset(x, y, traj, 0, reach)
        traj = apply_sync(traj, shift, 0)
        events.append({"kind": "sync", "t": 0.0, "tau": shift * dt, "reason": "startup"})

    # Each sample packs the columns t to p of its own row of the NaN-filled
    # ``rows`` in place, no numpy call per sample.  Its x_ref and y_ref stay
    # NaN: MFPC reads the row ``ahead`` samples on, so the reference columns
    # are filled from the final reference after the loop.
    rows = np.full((n + 1, len(SERIES)), np.nan)
    into = memoryview(rows)   # struct packs into it faster than into the array
    pack, stride, nan = _SAMPLE_ROW.pack_into, rows.strides[0], math.nan
    at = 0   # byte offset of the next sample's row

    zones = {}          # obstacle index -> DangerZone, once discovered
    pending_ends = []   # last sample of each spliced bypass not yet completed
    next_end = n + 1    # min(pending_ends), or past the run
    # ``discover`` runs again at sample ``next_look``, just before the next
    # unknown obstacle appears, or once the vehicle is sqrt(reach2) or more
    # from (lx, ly), where it last looked: half the gap to the nearest sensing
    # circle, which by the triangle inequality no obstacle reaches sooner
    sensing = cfg.avoidance.sensing_radius
    next_look, reach2, lx, ly = 0, 0.0, x, y
    aborted = False
    abort_reason = ""

    try:
        for k in range(n + 1):
            t = k * dt
            xm, ym = measure(x, y, noise)

            scan = ()   # zones to scan for a crossing in this sample
            ex, ey = x - lx, y - ly
            if k >= next_look or not ex * ex + ey * ey < reach2:   # NaN looks
                scan, t_next, near = avoidance.discover(cfg.obstacles, (t, x, y), sensing,
                                                        known=zones.keys())
                for i in scan:
                    zones[i] = cfg.obstacles[i].danger_zone(cfg.avoidance.margin)
                    events.append({"kind": "discovery", "t": t, "obstacle": i})
                # a sample early is harmless; the half gap leaves room for the
                # rounding of both distances
                steps = (t_next - 1e-12) / dt
                next_look = math.ceil(steps) - 1 if steps <= n else n + 1
                half = max(near * (1.0 - 1e-9) - sensing, 0.0) / 2.0
                reach2, lx, ly = half * half, x, y

            if k >= next_end:
                events.extend({"kind": "bypass_end", "t": t} for e in pending_ends if k >= e)
                pending_ends = [e for e in pending_ends if k < e]
                next_end = min(pending_ends, default=n + 1)
                if cfg.sync.enabled:
                    shift = sync_offset(xm, ym, traj, k, reach)
                    if shift != 0:
                        traj = apply_sync(traj, shift, k)
                        events.append({"kind": "sync", "t": t, "tau": shift * dt,
                                       "reason": "post_bypass"})
                        scan = zones

            if scan:
                traj = _replan(cfg, traj, zones, scan, k, events, pending_ends)
                next_end = min(pending_ends, default=n + 1)

            u1, u2, nu1, nu2, fx, fy = controller.step(xm, ym, t, traj.row(k + ahead))
            p = levels[k]
            pack(into, at, t, x, y, xm, ym, nan, nan, u1, u2, nu1, nu2, fx, fy, p)
            at += stride
            if k < n:
                x, y = step_plant(x, y, u1, u2, p, dt)
    except tuple(ABORT_PREFIXES) as exc:
        aborted, abort_reason = True, f"{ABORT_PREFIXES[type(exc)]}{exc} at t={t}"
    filled = at // stride
    # A revision at sample k (a sync or a splice) rewrites only rows >= k, so
    # the final ``traj`` holds the row each recorded sample read as its own;
    # rows from ``traj.n`` on are parked as ``traj.row`` parks them.
    m = min(filled, traj.n)
    rows[:m, _REFERENCE_COLUMNS] = traj.table[:m]
    rows[m:filled, _REFERENCE_COLUMNS] = (traj.x[-1], traj.y[-1], 0.0, 0.0)

    metrics = compute_metrics(cfg, rows, events)
    return ScenarioResult(config=cfg, record=rows, events=events, metrics=metrics,
                          aborted=aborted, abort_reason=abort_reason)


def _replan(cfg: ScenarioConfig, traj: ReferenceTrajectory, zones: dict, scan, k: int,
            events: list, pending_ends: list) -> ReferenceTrajectory:
    """Bypass, earliest crossing first, each zone in ``scan`` that the
    reference crosses from sample k on; returns the revised reference.

    Every bypass is logged to ``events`` and its last sample to
    ``pending_ends``.  After a splice every zone is scanned again from k
    against the new samples, except the zone just bypassed: its own wrap is
    skipped, since the tail may cross it again.
    """
    dt = cfg.dt
    planned = []    # obstacles bypassed in this sample, in planning order
    bypassed, i_resume = None, k
    while True:
        best = None
        for i in sorted(scan):
            crossing = avoidance.path_crosses_zone(traj, zones[i],
                                                   i_resume if i == bypassed else k)
            if crossing is not None and (best is None or crossing[0] < best[1][0]):
                best = (i, crossing)
        if best is None:
            return traj
        if len(planned) >= MAX_REPLANS_PER_STEP:
            raise ReplanLimitError("replanning loop exceeded limit "
                                   f"(obstacles {sorted(set(planned))})")
        i, crossing = best
        left, right = avoidance.plan_both_sides(traj, zones[i], crossing,
                                                lead=cfg.avoidance.lead, i_min=k)
        plan = avoidance.select_side(left, right, cfg.controller)
        traj = avoidance.splice(traj, plan)
        pending_ends.append(plan.i_end)
        events.append({
            "kind": "bypass_start", "t": k * dt, "obstacle": i, "side": plan.side,
            "detour": plan.detour_length, "t_start": plan.i_start * dt,
            "t_end": plan.i_end * dt, "tau_tail": (plan.i_exit - plan.i_end) * dt,
            "detour_left": left.detour_length, "detour_right": right.detour_length,
        })
        scan, bypassed, i_resume = zones, i, plan.i_end
        planned.append(i)


# ---------------------------------------------------------------------------
# Sweeps

# A placed obstacle's radius range, the largest lateral offset of its center
# from the reference, and the window of the horizon (as fractions) in which
# its reference point lies.
CROSSING_RADIUS_RANGE = (0.5, 1.0)
CROSSING_LATERAL_MAX = 0.3
CROSSING_WINDOW = (0.3, 0.6)


def place_crossing_obstacle(traj: ReferenceTrajectory, seed: int) -> Obstacle:
    """Draw one obstacle centered near the reference ``traj`` so its zone is
    crossed.

    The center sits within CROSSING_LATERAL_MAX of a reference point drawn in
    the CROSSING_WINDOW of the horizon; since that offset is below every
    radius in CROSSING_RADIUS_RANGE the reference always enters the danger
    disk.
    """
    rng = stream_rng(seed, STREAM_PLACEMENT)
    t_c = float(rng.uniform(*CROSSING_WINDOW)) * traj.tf
    px, py, dxr, dyr = traj.lookup(t_c)
    speed = math.hypot(dxr, dyr)
    nx, ny = (-dyr / speed, dxr / speed) if speed > 1e-9 else (0.0, 1.0)
    off = float(rng.uniform(-CROSSING_LATERAL_MAX, CROSSING_LATERAL_MAX))
    r = float(rng.uniform(*CROSSING_RADIUS_RANGE))
    return Obstacle(cx=px + off * nx, cy=py + off * ny, r=r, t_appear=0.0)


@dataclass
class SweepReport:
    base_name: str
    n_runs: int
    seeds: list
    aborted_runs: list
    safety_violations: int
    metrics_summary: dict   # metric -> {"min":, "median":, "max":}
    per_run: list           # one metrics dict per run, in run order


_RANDOMIZE_ASPECTS = ("obstacles", "noise", "perturbation")
_SWEEP_METRICS = ("rms_tracking", "max_tracking", "total_path_length",
                  "reverse_distance", "control_energy", "detour_total")


def _median(vals: list) -> float:
    """``np.median(vals)`` bit for bit, without the NaN check that imports all
    of ``numpy.ma``; the values are finite."""
    vals = sorted(vals)
    half = len(vals) // 2
    return float(vals[half] if len(vals) % 2 else (vals[half - 1] + vals[half]) / 2)


def run_sweep(cfg: ScenarioConfig, n_runs: int, seed: int | None = None,
              randomize=_RANDOMIZE_ASPECTS, keep_results: bool = False):
    """Run seeded variants of a base scenario and aggregate their metrics.

    ``randomize`` picks which aspects get per-run seeds; anything not listed
    stays pinned to the base config.  A safety violation is a run whose
    minimum obstacle clearance drops below the physical radius.
    """
    if n_runs < 1:
        raise ConfigError("n_runs must be >= 1")
    bad = [s for s in randomize if s not in _RANDOMIZE_ASPECTS]
    if bad:
        raise ConfigError(f"unknown randomize aspects: {bad}")
    check_name(f"{cfg.name}-r{n_runs - 1:03d}")   # the longest run name
    base_seed = cfg.seed if seed is None else int(seed)
    # the base reference, built once; crossing obstacles are placed on it
    traj = build_reference(cfg.path, dt=cfg.dt, duration=cfg.duration)
    reports = []
    results = []
    seeds = []
    aborted = []
    violations = 0
    for i in range(n_runs):
        run_seed = base_seed + i
        overrides = {"name": f"{cfg.name}-r{i:03d}", "seed": run_seed}
        if "obstacles" in randomize:
            overrides["obstacles"] = (place_crossing_obstacle(traj, run_seed),)
        overrides["noise_seed"] = run_seed if "noise" in randomize else base_seed
        overrides["perturbation_seed"] = (run_seed if "perturbation" in randomize
                                          else base_seed)
        run_cfg = replace(cfg, **overrides)
        result = run_scenario(run_cfg)
        seeds.append(run_seed)
        if result.aborted:
            aborted.append({"run": i, "seed": run_seed, "reason": result.abort_reason})
        clearances = result.metrics["min_clearance"]
        for ob, c in zip(run_cfg.obstacles, clearances):
            if math.isfinite(c) and c < ob.r:
                violations += 1
                break
        row = {m: result.metrics[m] for m in _SWEEP_METRICS}
        # None when no obstacle or no finite sample, as in a first-sample abort
        row["min_clearance"] = min((c for c in clearances if math.isfinite(c)), default=None)
        row["aborted"] = result.aborted
        reports.append(row)
        if keep_results:
            results.append(result)

    summary = {}
    for m in _SWEEP_METRICS + ("min_clearance",):
        vals = [r[m] for r in reports if r[m] is not None and math.isfinite(r[m])]
        summary[m] = ({"min": min(vals), "median": _median(vals),
                       "max": max(vals)} if vals else None)
    report = SweepReport(base_name=cfg.name, n_runs=n_runs, seeds=seeds,
                         aborted_runs=aborted, safety_violations=violations,
                         metrics_summary=summary, per_run=reports)
    return (report, results) if keep_results else report


# ---------------------------------------------------------------------------
# Emission


def emit_csv(result: ScenarioResult, path) -> None:
    """Write the run's time series; one row per sample, each value as
    ``"%.9g"`` writes it.

    The auxiliary-control columns, NaN in an MFPC record, are left empty for
    MFPC.
    """
    empty = _MFPC_EMPTY & (result.config.controller == "mfpc")
    record = result.record
    with open(path, "wb") as f:
        f.write((",".join(CSV_COLUMNS) + "\n").encode())
        # A block, not the whole table, keeps the formatting buffers of a
        # 2000-sample run out of peak memory.
        for lo in range(0, len(record), CSV_BLOCK_ROWS):
            f.write(format_block(record[lo:lo + CSV_BLOCK_ROWS, :len(CSV_COLUMNS)], empty))


def emit_summary(result: ScenarioResult, path) -> None:
    """Sidecar JSON with the run's metrics and events."""
    doc = {
        "name": result.config.name,
        "controller": result.config.controller,
        "seed": result.config.seed,
        "aborted": result.aborted,
        "abort_reason": result.abort_reason,
        "metrics": result.metrics,
        "events": result.events,
    }
    write_json(path, doc)


def emit(result: ScenarioResult, out_dir, name: str | None = None) -> tuple[str, str]:
    """CSV plus summary sidecar under out_dir; returns the two paths."""
    os.makedirs(out_dir, exist_ok=True)
    stem = name or result.config.name
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    summary_path = os.path.join(out_dir, f"{stem}_summary.json")
    emit_csv(result, csv_path)
    emit_summary(result, summary_path)
    return csv_path, summary_path


def emit_sweep(report: SweepReport, out_dir, name: str | None = None) -> str:
    os.makedirs(out_dir, exist_ok=True)
    stem = name or f"{report.base_name}_sweep"
    path = os.path.join(out_dir, f"{stem}.json")
    write_json(path, asdict(report))
    return path
