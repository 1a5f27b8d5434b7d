import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dot_window import DotWindow, assert_matches
from dubinsim.errors import ConfigError, ControllerFault, HorizonTooLongError
from dubinsim.mfpc import (MAX_EXP_ARG, MfpcConfig, MfpcController, check_reference,
                           solve_two_point)
from dubinsim.presets import (TRACKING_PATHS, nominal_tracking, robustness_scenario,
                              safety_scenario)
from dubinsim.reference import (CirclePath, PolylinePath, ReferenceTrajectory, SinePath,
                               build_reference)
from dubinsim.scenario import ScenarioConfig

DT = 0.01


def stationary_traj(n=2001):
    return ReferenceTrajectory(dt=DT, table=np.zeros((n, 4)))


# -- two-point boundary solution ---------------------------------------------


def test_solve_trivial_when_already_at_setpoint():
    sol = solve_two_point(2.0, 2.0, 0.0, 1.0, 1.5)
    assert sol.c1 == 0.0
    assert sol.c2 == 0.0
    assert sol.value(0.5) == 2.0


def test_solve_matches_closed_form_example():
    # alpha=1, [0, 1], y_i=1 -> 0: c1 = e^-1/(e^-1 - e), c2 = -e/(e^-1 - e)
    sol = solve_two_point(1.0, 0.0, 0.0, 1.0, 1.0)
    den = math.exp(-1.0) - math.e
    assert sol.c1 == pytest.approx(math.exp(-1.0) / den, abs=1e-12)
    assert sol.c2 == pytest.approx(-math.e / den, abs=1e-12)
    assert sol.c1 == pytest.approx(-0.156518, abs=1e-6)
    assert sol.c2 == pytest.approx(1.156518, abs=1e-6)
    assert sol.c1 + sol.c2 == pytest.approx(1.0, abs=1e-12)
    assert sol.velocity(0.0) == pytest.approx(-1.313035, abs=1e-6)


def random_problems(n, seed=13):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield (float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)),
               float(rng.uniform(0, 15)), float(rng.uniform(0.2, 5.0)),
               float(rng.uniform(0.2, 3.0)))


@pytest.mark.parametrize("y_i,y_sp,t_i,h,alpha", list(random_problems(50)))
def test_boundary_conditions_and_ode_certificate(y_i, y_sp, t_i, h, alpha):
    sol = solve_two_point(y_i, y_sp, t_i, t_i + h, alpha)
    assert sol.value(sol.t_i) == pytest.approx(y_i, abs=1e-6)
    assert sol.value(sol.t_f) == pytest.approx(y_sp, abs=1e-6)
    # Euler-Lagrange ODE y'' = alpha^2 (y - y_sp) by central differences
    eps = 1e-4
    for t in np.linspace(sol.t_i + eps, sol.t_f - eps, 100):
        ydd = (sol.value(t + eps) - 2 * sol.value(t) + sol.value(t - eps)) / eps ** 2
        assert ydd - alpha ** 2 * (sol.value(t) - y_sp) == pytest.approx(0.0, abs=1e-4)


def test_solution_sign_symmetric_in_alpha():
    a = solve_two_point(1.0, 0.0, 0.0, 1.0, 1.5)
    b = solve_two_point(1.0, 0.0, 0.0, 1.0, -1.5)
    assert (a.c1, a.c2) == (b.c1, b.c2)


def test_solve_at_a_late_start_is_the_early_solution_shifted():
    late = solve_two_point(1.0, 0.0, 400.0, 400.3, 2.0)
    early = solve_two_point(1.0, 0.0, 0.0, late.t_f - late.t_i, 2.0)
    for s in np.linspace(0.0, late.t_f - late.t_i, 7):
        assert late.value(400.0 + s) == pytest.approx(early.value(s), rel=1e-12, abs=1e-12)
        assert late.velocity(400.0 + s) == pytest.approx(early.velocity(s), rel=1e-12)


def test_solve_guards():
    with pytest.raises(ValueError):
        solve_two_point(1.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        solve_two_point(1.0, 0.0, 0.0, 1.0, 0.0)
    with pytest.raises(HorizonTooLongError):
        solve_two_point(1.0, 0.0, 0.0, 50.0, 1.0)


# -- per-axis receding-horizon step ------------------------------------------
#
# MfpcController.step applies one law per axis: the x axis drives u1 in
# [0, u1_max], the y axis drives u2 in +-(pi/2 - u2_margin).

ZERO_ROW = (0.0, 0.0, 0.0, 0.0)


def test_axis_step_zero_at_setpoint_without_drift():
    ctl = MfpcController(MfpcConfig(alpha1=1.0, alpha2=1.0, horizon=1.0, t_window=0.3), DT)
    u1, u2, _, _, _, _ = ctl.step(0.0, 0.0, 0.0, ZERO_ROW)
    assert (u1, u2) == (0.0, 0.0)
    assert ctl.events == []   # no input was clamped


def test_axis_step_cancels_pure_drift():
    # window filled with (y=0, u=-f/alpha) makes F_est = f; at the setpoint the
    # optimal velocity is zero so u = -f/alpha
    alpha, f = 2.0, 0.6
    ctl = MfpcController(MfpcConfig(alpha2=alpha, horizon=1.0, t_window=0.3), DT)
    win_y = ctl.windows[1]
    for _ in range(31):
        win_y.push(0.0, -f / alpha)
    _, u2, _, _, _, fhat_y = ctl.step(0.0, 0.0, 0.0, ZERO_ROW)
    assert fhat_y == pytest.approx(f, abs=1e-9)
    assert u2 == pytest.approx(-f / alpha, abs=1e-9)


def test_axis_step_matches_boundary_velocity():
    ctl = MfpcController(MfpcConfig(alpha1=1.0, alpha2=1.0, horizon=1.0, t_window=0.3), DT)
    _, u2, _, _, _, _ = ctl.step(0.0, 1.0, 0.0, ZERO_ROW)
    assert u2 == pytest.approx(-1.313035, abs=1e-6)  # velocity of the closed form at t_i


def test_controller_shrinks_long_horizons():
    ctl = MfpcController(MfpcConfig(alpha1=1.0, alpha2=1.0, horizon=100.0), DT)
    assert ctl.ahead * DT <= 40.0 / 1.0   # 100 s would overflow unshrunk
    u1, u2, _, _, _, _ = ctl.step(1.0, 0.0, 0.0, stationary_traj().row(ctl.ahead))
    assert math.isfinite(u1) and math.isfinite(u2)
    assert math.isfinite(ctl.gains[0])


def test_one_horizon_for_both_axes_and_the_lookahead():
    # 40 / 200 = 0.2 s: the y axis's guard shortens the x axis's horizon too
    cfg = MfpcConfig(alpha2=200.0, horizon=0.3)
    ctl = MfpcController(cfg, DT)
    T = cfg.effective_horizon(DT)
    assert ctl.ahead == round(T / DT) == 20
    for gain, alpha in zip(ctl.gains, (cfg.alpha1, cfg.alpha2)):
        assert gain == solve_two_point(1.0, 0.0, 0.0, T, alpha).velocity(0.0)
    assert T == pytest.approx(0.2, rel=1e-15)
    assert 200.0 * T <= MAX_EXP_ARG


MFPC_CONFIGS = ([nominal_tracking("mfpc", path) for path in TRACKING_PATHS]
                + [safety_scenario("mfpc", 0), robustness_scenario("mfpc", 0),
                   ScenarioConfig(controller="mfpc")])


@pytest.mark.parametrize("cfg", MFPC_CONFIGS, ids=lambda cfg: cfg.name)
def test_setpoint_row_is_the_sample_one_horizon_ahead(cfg):
    # the run loop reads row k + ahead, ahead = round(T/dt); the time
    # k*dt + T rounds to the same sample unless T/dt sits on a .5 tie
    horizon = cfg.mfpc.effective_horizon(cfg.dt)
    steps = horizon / cfg.dt
    assert abs(abs(steps - math.floor(steps)) - 0.5) > 1e-6
    ahead = MfpcController(cfg.mfpc, cfg.dt).ahead
    assert ahead == round(steps)
    traj = build_reference(cfg.path_spec(), cfg.dt, cfg.duration)
    for k in range(cfg.n_steps + 1):
        assert traj.row(k + ahead)[:2] == traj.lookup(k * cfg.dt + horizon)[:2]


def test_axis_step_pushes_applied_input():
    ctl = MfpcController(MfpcConfig(alpha1=1.0, alpha2=1.0, horizon=1.0, t_window=0.3,
                                    u1_max=0.5), DT)
    win_x = ctl.windows[0]
    oracle = DotWindow(0.3, DT, input_gain=1.0)
    for k in range(win_x.capacity):    # a full window: ramp out, constant in
        win_x.push(0.01 * k, 0.2)
        oracle.push(0.01 * k, 0.2)
    u1, _, _, _, _, _ = ctl.step(-3.0, 0.0, 0.0, ZERO_ROW)
    assert u1 == 0.5
    [clamp] = ctl.events
    assert clamp["input"] == "u1" and clamp["raw"] > 0.5
    oracle.push(-3.0, 0.5)  # clamped value, not the raw demand
    assert_matches(win_x, oracle)


def test_solution_independent_of_drift_estimate():
    # same measurement and setpoint, different window contents -> identical gain
    config = MfpcConfig(alpha2=1.5, horizon=1.0, t_window=0.3)
    a, b = MfpcController(config, DT), MfpcController(config, DT)
    for _ in range(31):
        a.windows[1].push(0.0, 0.9)
        b.windows[1].push(0.0, -0.4)
    _, ua, _, _, _, fa = a.step(0.0, 2.0, 0.0, (0.0, 1.0, 0.0, 0.0))
    _, ub, _, _, _, fb = b.step(0.0, 2.0, 0.0, (0.0, 1.0, 0.0, 0.0))
    assert fa != fb
    assert a.gains[1] == b.gains[1]
    assert ua != ub  # drift correction differs


def test_receding_horizon_consistency_on_exact_model():
    # synthetic plant follows dx/dt = F + alpha*u1 exactly: successive optimal
    # curves stay within O(dt) of each other; u1 never reaches its clamps
    alpha, F, x_sp = 1.0, -0.4, 2.0
    ctl = MfpcController(MfpcConfig(alpha1=alpha, alpha2=alpha, horizon=1.0, t_window=0.3,
                                    u1_max=100.0), DT)
    x = 0.0
    sols = []
    for k in range(200):
        t = k * DT
        sols.append(solve_two_point(x, x_sp, t, t + 1.0, alpha))
        u, _, _, _, _, _ = ctl.step(x, 0.0, t, (x_sp, 0.0, 0.0, 0.0))
        x += DT * (F + alpha * u)
    assert ctl.events == []
    for k in range(80, 150):
        a, b = sols[k], sols[k + 1]
        ts = np.linspace(b.t_i, min(a.t_f, b.t_f), 40)
        gap = max(abs(a.value(t) - b.value(t)) for t in ts)
        vmax = max(abs(a.velocity(t)) for t in ts)
        assert gap <= 1.5 * DT * vmax + 1e-9


# Positions on a 1 um grid: an error of 1e-246 m would leave the oracle's
# exp(-r*t_f)*(y - y_sp) in subnormal range, where it has no 1e-12 precision.
POSITIONS = st.integers(-5_000_000, 5_000_000).map(lambda i: i * 1e-6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(alpha=st.floats(0.1, 2.0), negative=st.booleans(), horizon=st.floats(0.05, 60.0),
       t=st.floats(0.0, 300.0), y=POSITIONS, y_sp=POSITIONS)
def test_gain_is_the_arc_velocity_at_any_absolute_time(alpha, negative, horizon, t, y, y_sp):
    alpha = -alpha if negative else alpha
    T = MfpcConfig(alpha1=alpha, alpha2=alpha, horizon=horizon).effective_horizon(DT)
    gain = MfpcController(MfpcConfig(alpha1=alpha, alpha2=alpha, horizon=horizon,
                                     t_window=0.3), DT).gains[0]
    assert T <= horizon and abs(alpha) * T <= MAX_EXP_ARG
    assert T == pytest.approx(min(horizon, MAX_EXP_ARG / abs(alpha)), rel=1e-15)
    t_f = t + T
    while abs(alpha) * (t_f - t) > MAX_EXP_ARG:   # t + T can round past the guard
        t_f = math.nextafter(t_f, t)
    want = solve_two_point(y, y_sp, t, t_f, alpha).velocity(t)
    assert gain * (y - y_sp) == pytest.approx(want, rel=1e-12, abs=0.0)


# -- MIMO step ----------------------------------------------------------------


def test_mimo_step_stationary_at_rest():
    params = MfpcConfig(t_window=0.3)
    ctl = MfpcController(params, DT)
    traj = stationary_traj()
    u1, u2, nu1, nu2, _, _ = ctl.step(0.0, 0.0, 0.0, traj.row(ctl.ahead))
    assert u1 == 0.0
    assert u2 == 0.0
    assert math.isnan(nu1) and math.isnan(nu2)


def test_mimo_step_clamps_heading_and_logs_episode():
    ctl = MfpcController(MfpcConfig(t_window=0.3), DT)
    traj = stationary_traj()
    # huge lateral error -> raw u2 >> pi/2
    _, u2, _, _, _, _ = ctl.step(0.0, -3.0, 0.0, traj.row(ctl.ahead))
    assert u2 == pytest.approx(math.pi / 2 - 0.01)
    clamps = [e for e in ctl.events if e["kind"] == "clamp" and e["input"] == "u2"]
    assert len(clamps) == 1
    assert clamps[0]["raw"] > math.pi / 2
    # same episode, no duplicate event
    ctl.step(0.0, -3.0, DT, traj.row(1 + ctl.ahead))
    assert len([e for e in ctl.events if e["input"] == "u2"]) == 1


def test_mimo_step_faults_on_non_finite():
    ctl = MfpcController(MfpcConfig(t_window=0.3), DT)
    traj = stationary_traj()
    with pytest.raises(ControllerFault):
        ctl.step(float("inf"), 0.0, 0.0, traj.row(ctl.ahead))


def test_check_reference_refuses_headings_outside_half_plane():
    check_reference(build_reference(SinePath(), DT, 5.0))
    # a full circle, and a leg straight up (dx == 0, dy != 0)
    for spec in (CirclePath(), PolylinePath(((0.0, 0.0), (5.0, 0.0), (5.0, 3.0)),
                                            fillet_radius=0.0)):
        with pytest.raises(ConfigError):
            check_reference(build_reference(spec, DT, 20.0))


def test_u1_never_negative():
    # vehicle ahead of a stationary target: the speed demand clamps at zero
    ctl = MfpcController(MfpcConfig(t_window=0.3), DT)
    traj = stationary_traj()
    u1, _, _, _, _, _ = ctl.step(5.0, 0.0, 0.0, traj.row(ctl.ahead))
    assert u1 == 0.0


def test_line_tracking_settles_near_unit_speed():
    from dubinsim.model import step_plant
    traj = build_reference(PolylinePath(waypoints=((0.0, 0.0), (25.0, 0.0)), speed=1.0),
                           DT, 20.0)
    ctl = MfpcController(MfpcConfig(t_window=0.3), DT)
    ahead = ctl.ahead
    x, y = 0.0, 0.0
    u1s, u2s = [], []
    for k in range(2001):
        t = k * DT
        u1, u2, _, _, _, _ = ctl.step(x, y, t, traj.row(k + ahead))
        u1s.append(u1)
        u2s.append(u2)
        if k < 2000:
            x, y = step_plant(x, y, u1, u2, 0.0, DT)
    u1s = np.array(u1s)
    settled = u1s[int(1.0 / DT):]
    assert np.all(np.abs(settled - 1.0) <= 0.1)
    lim = math.pi / 2 - 0.01
    assert np.all(np.abs(u2s) <= lim + 1e-12)
