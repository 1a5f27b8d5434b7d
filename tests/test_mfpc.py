import math

import numpy as np
import pytest

from dubinsim.errors import ControllerFault, HorizonTooLongError
from dubinsim.mfpc import (MfpcConfig, MfpcController, UltraLocalAxis,
                           mfpc_axis_step, solve_two_point)
from dubinsim.reference import PolylinePath, ReferenceTrajectory, build_reference

DT = 0.01


def stationary_traj(n=2001):
    z = np.zeros(n)
    return ReferenceTrajectory(dt=DT, x=z, y=z, dx=z, dy=z)


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


def test_solve_guards():
    with pytest.raises(ValueError):
        solve_two_point(1.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        solve_two_point(1.0, 0.0, 0.0, 1.0, 0.0)
    with pytest.raises(HorizonTooLongError):
        solve_two_point(1.0, 0.0, 0.0, 50.0, 1.0)


# -- per-axis receding-horizon step ------------------------------------------


def test_axis_step_zero_at_setpoint_without_drift():
    axis = UltraLocalAxis(1.0, 0.3, DT)
    assert mfpc_axis_step(axis, 0.0, 0.0, 0.0, 1.0) == 0.0


def test_axis_step_cancels_pure_drift():
    # window filled with (y=0, u=-f/alpha) makes F_est = f; at the setpoint the
    # optimal velocity is zero so u = -f/alpha
    alpha, f = 2.0, 0.6
    axis = UltraLocalAxis(alpha, 0.3, DT)
    for _ in range(31):
        axis.window.push(0.0, -f / alpha)
    u = mfpc_axis_step(axis, 0.0, 0.0, 1.0, 2.0)
    assert axis.f_est == pytest.approx(f, abs=1e-9)
    assert u == pytest.approx(-f / alpha, abs=1e-9)


def test_axis_step_matches_boundary_velocity():
    axis = UltraLocalAxis(1.0, 0.3, DT)
    u = mfpc_axis_step(axis, 1.0, 0.0, 0.0, 1.0)
    assert u == pytest.approx(-1.313035, abs=1e-6)  # velocity of the closed form at t_i


def test_axis_step_shrinks_long_horizons():
    axis = UltraLocalAxis(1.0, 0.3, DT)
    u = mfpc_axis_step(axis, 1.0, 0.0, 0.0, 100.0)  # would overflow unshrunk
    assert math.isfinite(u)
    assert axis.last_solution.t_f - axis.last_solution.t_i <= 40.0 + 1e-9


def test_axis_step_pushes_applied_input():
    axis = UltraLocalAxis(1.0, 0.3, DT, u_min=-0.5, u_max=0.5)
    u = mfpc_axis_step(axis, 3.0, 0.0, 0.0, 1.0)
    assert u == -0.5
    assert axis.last_clamped
    outs, ins = axis.window.chronological()
    assert ins[-1] == -0.5  # clamped value, not the raw demand
    assert outs[-1] == 3.0


def test_solution_independent_of_drift_estimate():
    # same measurement and setpoint, different window contents -> identical c1, c2
    a = UltraLocalAxis(1.5, 0.3, DT)
    b = UltraLocalAxis(1.5, 0.3, DT)
    for _ in range(31):
        a.window.push(0.0, 0.9)
        b.window.push(0.0, -0.4)
    ua = mfpc_axis_step(a, 2.0, 1.0, 0.5, 1.5)
    ub = mfpc_axis_step(b, 2.0, 1.0, 0.5, 1.5)
    assert a.f_est != b.f_est
    assert a.last_solution.c1 == b.last_solution.c1
    assert a.last_solution.c2 == b.last_solution.c2
    assert ua != ub  # drift correction differs


def test_receding_horizon_consistency_on_exact_model():
    # synthetic plant follows dy/dt = F + alpha*u exactly: successive optimal
    # curves stay within O(dt) of each other
    alpha, F, y_sp = 1.0, 0.4, 2.0
    axis = UltraLocalAxis(alpha, 0.3, DT)
    y = 0.0
    sols = []
    for k in range(200):
        t = k * DT
        u = mfpc_axis_step(axis, y, y_sp, t, t + 1.0)
        sols.append(axis.last_solution)
        y += DT * (F + alpha * u)
    for k in range(80, 150):
        a, b = sols[k], sols[k + 1]
        ts = np.linspace(b.t_i, min(a.t_f, b.t_f), 40)
        gap = max(abs(a.value(t) - b.value(t)) for t in ts)
        vmax = max(abs(a.velocity(t)) for t in ts)
        assert gap <= 1.5 * DT * vmax + 1e-9


# -- MIMO step ----------------------------------------------------------------


def test_mimo_step_stationary_at_rest():
    params = MfpcConfig(t_window=0.3)
    ctl = MfpcController(params, DT)
    c = ctl.step(0.0, 0.0, stationary_traj(), 0.0)
    assert c.u1 == 0.0
    assert c.u2 == 0.0
    assert c.nu1 is None and c.nu2 is None


def test_mimo_step_clamps_heading_and_logs_episode():
    ctl = MfpcController(MfpcConfig(t_window=0.3), DT)
    traj = stationary_traj()
    c = ctl.step(0.0, -3.0, traj, 0.0)  # huge lateral error -> raw u2 >> pi/2
    assert ctl.axis_y.last_raw_u > math.pi / 2
    assert c.u2 == pytest.approx(math.pi / 2 - 0.01)
    clamps = [e for e in ctl.events if e["kind"] == "clamp" and e["input"] == "u2"]
    assert len(clamps) == 1
    ctl.step(0.0, -3.0, traj, DT)  # same episode, no duplicate event
    assert len([e for e in ctl.events if e["input"] == "u2"]) == 1


def test_mimo_step_faults_on_non_finite():
    ctl = MfpcController(MfpcConfig(t_window=0.3), DT)
    with pytest.raises(ControllerFault):
        ctl.step(float("inf"), 0.0, stationary_traj(), 0.0)


def test_u1_never_negative():
    # vehicle ahead of a stationary target: the speed demand clamps at zero
    ctl = MfpcController(MfpcConfig(t_window=0.3), DT)
    c = ctl.step(5.0, 0.0, stationary_traj(), 0.0)
    assert c.u1 == 0.0


def test_line_tracking_settles_near_unit_speed():
    from dubinsim.model import VehicleState, step_plant
    traj = build_reference(PolylinePath(waypoints=((0.0, 0.0), (25.0, 0.0)), speed=1.0),
                           DT, 20.0)
    ctl = MfpcController(MfpcConfig(t_window=0.3), DT)
    s = VehicleState(0.0, 0.0, 0.0)
    u1s, u2s = [], []
    for k in range(2001):
        t = k * DT
        c = ctl.step(s.x, s.y, traj, t)
        u1s.append(c.u1)
        u2s.append(c.u2)
        if k < 2000:
            s = step_plant(s, c, 0.0, DT)
    u1s = np.array(u1s)
    settled = u1s[int(1.0 / DT):]
    assert np.all(np.abs(settled - 1.0) <= 0.1)
    lim = math.pi / 2 - 0.01
    assert np.all(np.abs(u2s) <= lim + 1e-12)
