import math
from dataclasses import replace

import numpy as np
import pytest

from dot_window import DotWindow, assert_matches
from dubinsim.errors import ControllerFault
from dubinsim.harness import run_scenario
from dubinsim.heol import HeolConfig, HeolController
from dubinsim.model import aux_to_true
from dubinsim.presets import nominal_tracking
from dubinsim.reference import (CirclePath, PolylinePath, ReferenceTrajectory,
                                build_reference)

DT = 0.01


def stationary_traj(n=401):
    return ReferenceTrajectory(dt=DT, table=np.zeros((n, 4)))


def fresh_controller(gains=HeolConfig()):
    return HeolController(gains, DT)


def test_gains_must_be_positive():
    with pytest.raises(ValueError):
        HeolConfig(kx=0.0)
    with pytest.raises(ValueError):
        HeolConfig(ky=-1.0)


def test_on_reference_reduces_to_feedforward():
    traj = build_reference(CirclePath(radius=5.0, omega=0.2), DT, 20.0)
    t = 3.0
    x_ref, y_ref, _, _ = traj.lookup(t)
    u1, u2, nu1, _, _, _ = fresh_controller().step(x_ref, y_ref, t, traj.lookup(t))
    # the flat feedforward: nu = (dx, dy) of the reference row
    ff_nu1, ff_nu2 = traj.row(round(t / DT))[2:]
    ff_u1, ff_u2 = aux_to_true(ff_nu1, ff_nu2)
    assert u1 == pytest.approx(ff_u1, abs=1e-12)
    assert u2 == pytest.approx(ff_u2, abs=1e-12)
    assert nu1 == pytest.approx(ff_nu1, abs=1e-12)


def test_ip_law_arithmetic():
    # dx_err = 0.1, F_hat = 0 (warm-up), Kx = 2 -> dnu1 = -0.2
    traj = stationary_traj()
    ctl = fresh_controller(HeolConfig(kx=2.0, ky=2.0))
    _, _, nu1, nu2, _, _ = ctl.step(0.1, 0.0, 0.0, traj.lookup(0.0))
    assert nu1 == pytest.approx(-0.2, abs=1e-12)
    assert nu2 == pytest.approx(0.0, abs=1e-12)


def test_non_finite_measurement_faults():
    with pytest.raises(ControllerFault):
        fresh_controller().step(float("nan"), 0.0, 0.0, stationary_traj().lookup(0.0))


def test_step_pushes_samples_after_output():
    gains = HeolConfig(kx=2.0, ky=2.0)
    ctl = fresh_controller(gains)
    traj = stationary_traj()
    # full windows, and the same samples in dot-product oracles
    oracles = (DotWindow(gains.t_window, DT), DotWindow(gains.t_window, DT))
    rng = np.random.default_rng(4)
    for win, oracle in zip(ctl.windows, oracles):
        for o, i in rng.normal(scale=0.1, size=(win.capacity, 2)).tolist():
            win.push(o, i)
            oracle.push(o, i)
    fx, fy = (oracle.estimate() for oracle in oracles)
    held = tuple(win.estimate() for win in ctl.windows)
    _, _, nu1, nu2, fhat_x, fhat_y = ctl.step(0.5, -0.25, 0.0, traj.lookup(0.0))
    # the output is formed from the windows before this step's samples, and
    # the step returns the estimates it used
    assert (fhat_x, fhat_y) == held
    assert nu1 == pytest.approx(-(fx + 2.0 * 0.5), abs=1e-12)
    assert nu2 == pytest.approx(-(fy + 2.0 * -0.25), abs=1e-12)
    # then (error, auxiliary-control error) is pushed on each axis
    oracles[0].push(0.5, nu1)
    oracles[1].push(-0.25, nu2)
    for win, oracle in zip(ctl.windows, oracles):
        assert_matches(win, oracle)


def test_constant_disturbance_absorbed_by_estimate():
    # plant dy/dt = nu2 + 0.3 around a stationary reference; the closed loop
    # must drive F_hat to the disturbance and the error into a small band
    # (band reached a fraction of a second after the 3-window mark).
    traj = stationary_traj()
    gains = HeolConfig(kx=2.0, ky=2.0, t_window=0.3)
    ctl = fresh_controller(gains)
    F = 0.3
    y = 0.0
    ts, ys, fhats = [], [], []
    for k in range(301):
        t = k * DT
        _, _, _, nu2, _, fhat_y = ctl.step(0.0, y, t, traj.lookup(t))
        ts.append(t)
        ys.append(y)
        fhats.append(fhat_y)
        y += DT * (nu2 + F)
    ts, ys, fhats = map(np.array, (ts, ys, fhats))
    settled = ts >= 4 * gains.t_window
    assert np.abs(ys[settled]).max() <= F / gains.ky * 0.1
    assert np.abs(fhats[ts >= 3 * gains.t_window] - F).max() <= 0.05 * F
    assert fhats[-1] == pytest.approx(F, rel=0.001)


class _ConstEstimate:
    """Stub window returning a fixed drift estimate."""

    def __init__(self, value):
        self.value = value

    def estimate(self):
        return self.value

    def push(self, *_):
        pass


@pytest.mark.parametrize("k", [1.0, 2.0, 5.0])
def test_contraction_with_exact_estimates(k):
    # with F_hat = F the discrete loop contracts the error by (1 - K dt)
    traj = stationary_traj()
    gains = HeolConfig(kx=k, ky=k)
    F = 0.7
    ctl = fresh_controller(gains)
    ctl.windows = (_ConstEstimate(F), _ConstEstimate(F))
    x = 1.0
    for _ in range(50):
        _, _, nu1, _, _, _ = ctl.step(x, 0.0, 0.0, traj.lookup(0.0))
        x_next = x + DT * (nu1 + F)
        assert x_next / x == pytest.approx(1.0 - k * DT, abs=1e-9)
        x = x_next


def closed_loop(spec, gains=HeolConfig(), duration=20.0):
    traj = build_reference(spec, DT, duration)
    ctl = HeolController(gains, DT)
    from dubinsim.model import step_plant
    x, y = traj.row(0)[:2]
    errs, ctrls = [], []
    for k in range(int(round(duration / DT)) + 1):
        t = k * DT
        u1, u2, nu1, nu2, _, _ = ctl.step(x, y, t, traj.row(k))
        xr, yr = traj.row(k)[:2]
        errs.append(math.hypot(x - xr, y - yr))
        ctrls.append((nu1, nu2))
        if t < duration:
            x, y = step_plant(x, y, u1, u2, 0.0, DT)
    return np.array(errs), np.array(ctrls)


@pytest.mark.parametrize("spec", [
    PolylinePath(waypoints=((0.0, 0.0), (25.0, 0.0)), speed=1.0),
    CirclePath(radius=5.0, omega=0.2),
])
def test_nominal_tracking_stays_below_millimeter(spec):
    errs, _ = closed_loop(spec)
    assert errs.max() <= 1e-3


def test_output_continuity_on_nominal_run():
    _, ctrls = closed_loop(CirclePath(radius=5.0, omega=0.2))
    step = np.hypot(np.diff(ctrls[:, 0]), np.diff(ctrls[:, 1]))
    assert step.max() <= 1.0 * DT  # L = 1 is already generous here


def test_controller_wrapper_tracks_heading_and_estimates():
    traj = build_reference(CirclePath(radius=5.0, omega=0.2), DT, 20.0)
    ctl = HeolController(HeolConfig(), DT)
    _, u2, _, _, fhat_x, fhat_y = ctl.step(*traj.row(0)[:2], 0.0, traj.row(0))
    assert ctl.prev_u2 == u2
    assert (fhat_x, fhat_y) == (0.0, 0.0)  # warm-up


# Explicit Euler is first order: halving dt, with the window kept at 0.3 s,
# about halves the nominal tracking error.  The line is left out: its error
# is rounding (about 4e-15) at every dt.
@pytest.mark.parametrize("path_name", ["sinusoid", "arc"])
def test_halving_the_step_halves_the_tracking_error(path_name):
    base = nominal_tracking("heol", path_name)
    assert base.heol.t_window == 0.3
    rms = [run_scenario(replace(base, dt=dt)).metrics["rms_tracking"]
           for dt in (0.01, 0.005, 0.0025)]
    ratios = [fine / coarse for coarse, fine in zip(rms, rms[1:])]
    assert all(0.4 <= ratio <= 0.6 for ratio in ratios), ratios
