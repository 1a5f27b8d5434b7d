"""Sliding-window drift estimator: analytic-integral oracles.

For the kernel identities used here (with T the window length):
    int_0^T (T - 2s) ds        = 0
    int_0^T (T - 2s) s ds      = -T^3/6
    int_0^T s (T - s) ds       =  T^3/6
so a pure ramp out(s) = F*s returns F exactly and a constant input u0 with
gain g contributes exactly -g*u0, cancelling the g*u0 slope it induces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dubinsim.estimation import FWindow, product_weights, window_capacity
from dubinsim.mfpc import UltraLocalAxis

DT = 0.01
T = 0.3


def fill(window, outs, ins):
    for o, i in zip(outs, ins):
        window.push(o, i)
    return window


def ramp(n, slope, offset=0.0):
    return offset + slope * DT * np.arange(n)


def test_window_capacity_validation():
    assert window_capacity(0.3, 0.01) == 31
    with pytest.raises(ValueError):
        window_capacity(0.305, 0.01)  # not a multiple of dt
    with pytest.raises(ValueError):
        window_capacity(0.03, 0.01)   # fewer than 5 samples


def test_product_weights_integrate_constant_kernel():
    # with kernel 1 the weights reduce to plain trapezoid
    w = product_weights(lambda s: 1.0, 31, DT)
    expect = np.full(31, DT)
    expect[0] = expect[-1] = DT / 2
    assert np.allclose(w, expect, atol=1e-15)


def test_warmup_returns_zero():
    w = FWindow(T, DT)
    assert w.estimate() == 0.0
    fill(w, ramp(30, 5.0), np.zeros(30))  # one short of full
    assert not w.full
    assert w.estimate() == 0.0
    w.push(ramp(31, 5.0)[-1], 0.0)
    assert w.full
    assert w.estimate() != 0.0


def test_zero_window_estimates_zero():
    w = fill(FWindow(T, DT), np.zeros(31), np.zeros(31))
    assert w.estimate() == 0.0


def test_constant_output_estimates_zero():
    # int (T - 2s) ds = 0, so any constant cancels
    w = fill(FWindow(T, DT), np.full(31, 3.7), np.zeros(31))
    assert abs(w.estimate()) < 1e-12


@pytest.mark.parametrize("slope", [1.0, -2.5, 0.3, 100.0])
def test_ramp_recovers_slope(slope):
    w = fill(FWindow(T, DT), ramp(31, slope, offset=2.0), np.zeros(31))
    assert w.estimate() == pytest.approx(slope, rel=1e-6)


@pytest.mark.parametrize("f,u0", [(1.7, 0.8), (-0.4, -1.2), (0.0, 2.0)])
def test_heol_window_input_kernel_cancels_known_input(f, u0):
    # homeostat data: d(out)/dt = F + in, so out is a ramp of slope F + u0
    w = fill(FWindow(T, DT), ramp(31, f + u0), np.full(31, u0))
    assert w.estimate() == pytest.approx(f, abs=1e-9)


@pytest.mark.parametrize("f,u0,alpha", [(1.7, 0.8, 2.5), (-0.6, 1.1, 1.5), (0.9, -0.7, 0.3)])
def test_ultra_local_window_scales_input_by_alpha(f, u0, alpha):
    w = fill(FWindow(T, DT, input_gain=alpha), ramp(31, f + alpha * u0), np.full(31, u0))
    assert w.estimate() == pytest.approx(f, abs=1e-9)


def test_ultra_local_axis_window_uses_its_alpha():
    axis = UltraLocalAxis(alpha=2.0, t_window=T, dt=DT, horizon=0.3)
    fill(axis.window, ramp(31, 1.0 + 2.0 * 0.5), np.full(31, 0.5))
    assert axis.window.estimate() == pytest.approx(1.0, abs=1e-9)


def test_estimate_is_linear_in_the_samples():
    rng = np.random.default_rng(21)
    o1, i1 = rng.normal(size=31), rng.normal(size=31)
    o2, i2 = rng.normal(size=31), rng.normal(size=31)
    a, b = 1.7, -0.9
    e1 = fill(FWindow(T, DT), o1, i1).estimate()
    e2 = fill(FWindow(T, DT), o2, i2).estimate()
    e12 = fill(FWindow(T, DT), a * o1 + b * o2, a * i1 + b * i2).estimate()
    assert e12 == pytest.approx(a * e1 + b * e2, abs=1e-9)


def test_ring_keeps_most_recent_samples():
    w = FWindow(T, DT)
    fill(w, np.zeros(10), np.zeros(10))       # garbage that must age out
    fill(w, ramp(31, 2.0), np.zeros(31))
    assert w.estimate() == pytest.approx(2.0, rel=1e-6)


def test_closed_loop_identity_under_euler_data():
    # discrete homeostat data d(out)/dt = F + in with arbitrary input wiggle:
    # the estimate must still land on F up to O(dt) discretization
    rng = np.random.default_rng(5)
    F = 0.42
    ins = rng.uniform(-1, 1, size=31)
    outs = np.zeros(31)
    for k in range(30):
        outs[k + 1] = outs[k] + DT * (F + ins[k])
    w = fill(FWindow(T, DT), outs, ins)
    assert w.estimate() == pytest.approx(F, abs=0.05)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(t_window=st.sampled_from([0.3, 0.7]),
       gain=st.floats(-5.0, 5.0, allow_nan=False).filter(lambda g: g != 0.0),
       seed=st.integers(0, 2**32 - 1), n=st.integers(0, 160),
       scale=st.floats(1e-3, 1e3))
def test_estimate_equals_dot_products_of_the_last_window(t_window, gain, seed, n, scale):
    samples = (scale * np.random.default_rng(seed).normal(size=(n, 2))).tolist()
    # oracle: the samples kept in a plain list, newest last, behind the
    # zeros an empty window starts from
    w = FWindow(t_window, DT, input_gain=gain)
    seen = [(0.0, 0.0)] * w.capacity
    for pushed, (o, i) in enumerate(samples, start=1):
        w.push(o, i)
        seen.append((o, i))
        outs, ins = (np.array(col) for col in zip(*seen[-w.capacity:]))
        got_outs, got_ins = w.chronological()
        assert np.array_equal(got_outs, outs) and np.array_equal(got_ins, ins)
        if pushed < w.capacity:
            assert w.estimate() == 0.0
        else:
            assert w.estimate() == float(w._w_out @ outs + w._w_in @ ins)
