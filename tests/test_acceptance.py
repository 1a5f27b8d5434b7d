"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The heavyweight batches (criteria 5 and 6) are shared
module-scoped fixtures so the suite stays within its runtime budget.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from dubinsim.estimation import FWindow
from dubinsim.harness import emit_csv, run_scenario, run_sweep
from dubinsim.mfpc import solve_two_point
from dubinsim.presets import (TRACKING_PATHS, nominal_tracking,
                              robustness_scenario, safety_scenario,
                              startup_offset_scenario)
from dubinsim.scenario import ScenarioConfig

DT = 0.01
N_BATCH = 100
SAFETY_SEED = 100
ROBUST_SEED = 300
U2_LIMIT = math.pi / 2 - 0.01

CONTROLLERS = ("heol", "mfpc")


def batch(cfg_builder, controller, seed, randomize):
    cfg = cfg_builder(controller, seed=seed)
    report, results = run_sweep(cfg, N_BATCH, randomize=randomize, keep_results=True)
    return report, results


@pytest.fixture(scope="module")
def nominal_results():
    return {(ctrl, path): run_scenario(nominal_tracking(ctrl, path))
            for ctrl in CONTROLLERS for path in TRACKING_PATHS}


@pytest.fixture(scope="module")
def safety_batches():
    return {ctrl: batch(safety_scenario, ctrl, SAFETY_SEED, ("obstacles", "noise"))
            for ctrl in CONTROLLERS}


@pytest.fixture(scope="module")
def robustness_batches():
    return {ctrl: batch(robustness_scenario, ctrl, ROBUST_SEED,
                        ("obstacles", "noise", "perturbation"))
            for ctrl in CONTROLLERS}


def test_criterion_1_parameter_fidelity():
    cfg = ScenarioConfig()
    assert cfg.dt == 0.01
    assert cfg.duration == 20.0
    assert cfg.noise.sigma == 0.1
    assert cfg.perturbation.low == -0.5 and cfg.perturbation.high == 0.5
    assert cfg.perturbation.switch_interval > 0  # piecewise constant levels
    assert cfg.n_steps == 2000
    print("PASS criterion 1: defaults dt=0.01 s, duration=20 s, sigma=0.1, "
          "perturbation uniform [-0.5, +0.5] piecewise constant")


def test_criterion_2_estimator_exactness():
    t_window = 0.3
    n = 31
    worst = 0.0
    for f in (1.0, -2.0, 0.25, 50.0):
        for u0 in (0.0, 0.8, -1.3):
            w = FWindow(t_window, DT)
            for k in range(n):
                w.push((f + u0) * k * DT, u0)
            worst = max(worst, abs(w.estimate() - f) / max(abs(f), 1e-12))
            for alpha in (0.7, 1.5):
                wu = FWindow(t_window, DT, input_gain=alpha)
                for k in range(n):
                    wu.push((f + alpha * u0) * k * DT, u0)
                worst = max(worst, abs(wu.estimate() - f) / max(abs(f), 1e-12))
    assert worst <= 1e-4
    print(f"PASS criterion 2: both estimators recover ramp F within rel "
          f"{worst:.2e} (<= 1e-4)")


def test_criterion_3_euler_lagrange_certificate():
    rng = np.random.default_rng(2024)
    eps = 1e-4
    worst_bc, worst_ode = 0.0, 0.0
    for _ in range(50):
        y_i = float(rng.uniform(-5, 5))
        y_sp = float(rng.uniform(-5, 5))
        t_i = float(rng.uniform(0, 10))
        t_f = t_i + float(rng.uniform(0.2, 5.0))
        alpha = float(rng.uniform(0.2, 3.0))
        sol = solve_two_point(y_i, y_sp, t_i, t_f, alpha)
        worst_bc = max(worst_bc, abs(sol.value(t_i) - y_i), abs(sol.value(t_f) - y_sp))
        for t in np.linspace(t_i + eps, t_f - eps, 100):
            ydd = (sol.value(t + eps) - 2 * sol.value(t) + sol.value(t - eps)) / eps ** 2
            worst_ode = max(worst_ode, abs(ydd - alpha ** 2 * (sol.value(t) - y_sp)))
    assert worst_bc <= 1e-6
    assert worst_ode <= 1e-4
    print(f"PASS criterion 3: 50 random solves, boundary error {worst_bc:.2e} "
          f"(<= 1e-6), ODE residual {worst_ode:.2e} (<= 1e-4)")


def test_criterion_4_nominal_tracking(nominal_results):
    lines = []
    for path in TRACKING_PATHS:
        h = nominal_results[("heol", path)]
        assert not h.aborted
        assert h.metrics["rms_tracking"] <= 1e-3, (path, h.metrics["rms_tracking"])
        m = nominal_results[("mfpc", path)]
        assert not m.aborted
        warm = m.t >= 1.0
        rms = float(np.sqrt(((m.x[warm] - m.x_ref[warm]) ** 2
                             + (m.y[warm] - m.y_ref[warm]) ** 2).mean()))
        assert rms <= 0.05, (path, rms)
        lines.append(f"{path}: heol {h.metrics['rms_tracking']:.2e}, mfpc {rms:.3f}")
    print("PASS criterion 4: nominal rms (heol <= 1e-3, mfpc <= 0.05 after 1 s): "
          + "; ".join(lines))


def test_criterion_5_safety_suite(safety_batches):
    for ctrl in CONTROLLERS:
        report, results = safety_batches[ctrl]
        assert not report.aborted_runs
        within = 0
        for res in results:
            ob = res.config.obstacles[0]
            clearance = res.metrics["min_clearance"][0]
            assert clearance >= ob.r, (ctrl, res.config.seed, clearance, ob.r)
            if clearance >= ob.r + 0.5 - 0.1:
                within += 1
        assert within >= 95, (ctrl, within)
        print(f"PASS criterion 5 [{ctrl}]: {N_BATCH} crossing-obstacle runs, "
              f"0 below physical radius, {within}/{N_BATCH} within the "
              f"0.1 m allowance of the danger radius")


def test_criterion_6_robustness(safety_batches, robustness_batches):
    for ctrl in CONTROLLERS:
        baseline = safety_batches[ctrl][0].metrics_summary["rms_tracking"]["median"]
        report, results = robustness_batches[ctrl]
        assert not report.aborted_runs
        assert report.safety_violations == 0
        worst_ratio = 0.0
        for res in results:
            assert np.all(np.isfinite(res.x)) and np.all(np.isfinite(res.y))
            worst_ratio = max(worst_ratio, res.metrics["rms_tracking"] / baseline)
        assert worst_ratio <= 5.0, (ctrl, worst_ratio)
        print(f"PASS criterion 6 [{ctrl}]: {N_BATCH} perturbed runs all finite, "
              f"worst rms ratio {worst_ratio:.2f}x nominal-noise baseline (<= 5x), "
              f"0 safety violations")


def test_criterion_7_mfpc_constraints(nominal_results, safety_batches,
                                      robustness_batches):
    mfpc_results = [nominal_results[("mfpc", p)] for p in TRACKING_PATHS]
    mfpc_results += safety_batches["mfpc"][1]
    mfpc_results += robustness_batches["mfpc"][1]
    n_bypasses = 0
    for res in mfpc_results:
        u2 = res.u2[np.isfinite(res.u2)]
        assert np.all(u2 >= -U2_LIMIT - 1e-12)
        assert np.all(u2 <= U2_LIMIT + 1e-12)
        for e in res.events:
            if e["kind"] == "bypass_start":
                n_bypasses += 1
                assert e["side"] == "right"
    assert n_bypasses >= N_BATCH  # the batches really exercised bypasses
    print(f"PASS criterion 7: every applied u2 within +-(pi/2 - 0.01) across "
          f"{len(mfpc_results)} MFPC runs; all {n_bypasses} bypasses on the right")


def test_criterion_8_sync_benefit():
    on = run_scenario(startup_offset_scenario(True))
    off = run_scenario(startup_offset_scenario(False))
    assert not on.aborted and not off.aborted
    rev_on = on.metrics["reverse_distance"]
    rev_off = off.metrics["reverse_distance"]
    assert rev_on <= 0.5 * rev_off, (rev_on, rev_off)
    print(f"PASS criterion 8: reverse distance {rev_off:.3f} m without sync -> "
          f"{rev_on:.4f} m with sync ({100 * (1 - rev_on / max(rev_off, 1e-12)):.1f}% "
          f"reduction, >= 50% required)")


def test_criterion_9_determinism(tmp_path):
    from dubinsim.harness import place_crossing_obstacle
    from dubinsim.reference import build_reference
    cfg = robustness_scenario("mfpc", seed=9090)
    traj = build_reference(cfg.path, cfg.dt, cfg.duration)
    cfg = replace(cfg, obstacles=(place_crossing_obstacle(traj, 9090),))
    paths = []
    for i in range(2):
        res = run_scenario(cfg)
        p = tmp_path / f"run{i}.csv"
        emit_csv(res, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    print("PASS criterion 9: identical seeds give byte-identical CSV output")
