"""Sliding-window drift estimator: analytic-integral oracles.

For the kernel identities used here (with T the window length):
    int_0^T (T - 2s) ds        = 0
    int_0^T (T - 2s) s ds      = -T^3/6
    int_0^T s (T - s) ds       =  T^3/6
so a pure ramp out(s) = F*s returns F exactly and a constant input u0 with
gain g contributes exactly -g*u0, cancelling the g*u0 slope it induces.
"""

import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dot_window import DotWindow, assert_matches, product_weights
from dubinsim.estimation import RESUM_LAPS, FWindow, moment_weights, window_capacity
from dubinsim.reference import MAX_SAMPLES
from dubinsim.mfpc import MfpcConfig, MfpcController

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
    assert window_capacity((MAX_SAMPLES - 1) * 0.01, 0.01) == MAX_SAMPLES
    with pytest.raises(ValueError, match="MAX_SAMPLES"):
        window_capacity(MAX_SAMPLES * 0.01, 0.01)
    with pytest.raises(ValueError, match="MAX_SAMPLES"):
        window_capacity(1e300, 1e-10)   # inf steps
    for t_window in (4e200, 5e-301, 5e-106):   # 5 samples each
        with pytest.raises(ValueError, match="scale"):   # T^3 overflows, is 0, is subnormal
            FWindow(t_window, t_window / 4)


def test_product_weights_integrate_constant_kernel():
    # with kernel 1 the weights reduce to plain trapezoid
    w = product_weights(lambda s: 1.0, 31, DT)
    expect = np.full(31, DT)
    expect[0] = expect[-1] = DT / 2
    assert np.allclose(w, expect, atol=1e-15)


def test_warmup_returns_zero():
    w, oracle = FWindow(T, DT), DotWindow(T, DT)
    assert w.estimate() == oracle.estimate() == 0.0
    fill(w, ramp(30, 5.0), np.zeros(30))  # one short of full
    fill(oracle, ramp(30, 5.0), np.zeros(30))
    assert w.estimate() == oracle.estimate() == 0.0
    w.push(ramp(31, 5.0)[-1], 0.0)
    oracle.push(ramp(31, 5.0)[-1], 0.0)
    assert w.estimate() != 0.0
    assert_matches(w, oracle)


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
    window = MfpcController(MfpcConfig(alpha1=2.0, t_window=T, horizon=0.3), DT).windows[0]
    fill(window, ramp(31, 1.0 + 2.0 * 0.5), np.full(31, 0.5))
    assert window.estimate() == pytest.approx(1.0, abs=1e-9)


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


@pytest.mark.parametrize("n", [5, 6, 31, 32, 71])
@pytest.mark.parametrize("kernel", [(0.7, -2.0, 0.0), (0.0, 0.7, -1.0), (1.3, -0.4, 2.5)])
def test_moment_weights_rebuild_the_product_weights(n, kernel):
    a0, a1, a2 = kernel
    q0, q1, q2, e_old, e_new = moment_weights(a0, a1, a2, n, DT)
    m = np.arange(n) - (n - 1) / 2
    w = q0 + q1 * m + q2 * m * m
    w[0] += e_old
    w[-1] += e_new
    want = product_weights(lambda s: a0 + a1 * s + a2 * s * s, n, DT)
    assert np.abs(w - want).max() <= 1e-14 * np.abs(want).max()


def test_moment_weights_end_corrections_are_the_oracle_ends_bit_for_bit():
    # the end weights come from one interval each, in product_weights' own
    # expressions; checked on both FWindow kernels and the three above
    for dt, n in itertools.product((DT, 0.05), range(5, 401)):
        T = (n - 1) * dt
        for a0, a1, a2 in ((T, -2.0, 0.0), (0.0, T, -1.0), (0.7, -2.0, 0.0),
                           (0.0, 0.7, -1.0), (1.3, -0.4, 2.5)):
            q0, q1, q2, e_old, e_new = moment_weights(a0, a1, a2, n, dt)
            w = product_weights(lambda s: a0 + (a1 + a2 * s) * s, n, dt)
            c = 0.5 * (n - 1)
            want_old = w.item(0) - (q0 - q1 * c + q2 * c * c)
            want_new = w.item(-1) - (q0 + q1 * c + q2 * c * c)
            assert e_old.hex() == want_old.hex(), (dt, n, a0, a1, a2)
            assert e_new.hex() == want_new.hex(), (dt, n, a0, a1, a2)


# Windows of 6, 31, 32 and 71 samples: both controllers' capacities, odd and
# even n.  The moment form sums in another order than the dot products, so
# they agree to rounding, measured against |w_out|.|outs| + |w_in|.|ins|
# (the re-sum on every RESUM_LAPS-th lap keeps the worst case below 5e-14
# over 30 000 pushes).
@settings(max_examples=40, deadline=None, derandomize=True)
@given(t_window=st.sampled_from([0.05, 0.3, 0.31, 0.7]),
       gain=st.floats(-5.0, 5.0, allow_nan=False).filter(lambda g: g != 0.0),
       seed=st.integers(0, 2**32 - 1),
       laps=st.integers(20, 24), extra=st.integers(0, 70),
       scale=st.floats(1e-3, 1e3), offset=st.floats(-25.0, 25.0),
       walk=st.booleans())
def test_estimate_equals_dot_products_of_the_last_window(t_window, gain, seed, laps, extra,
                                                         scale, offset, walk):
    w = FWindow(t_window, DT, input_gain=gain)
    oracle = DotWindow(t_window, DT, input_gain=gain)
    n_push = laps * w.capacity + extra % w.capacity
    samples = scale * np.random.default_rng(seed).normal(size=(n_push, 2))
    if walk:    # positions that wander, as a vehicle's do
        samples[:, 0] = np.cumsum(samples[:, 0]) * DT
    samples[:, 0] += offset
    for pushed, (o, i) in enumerate(samples.tolist(), start=1):
        w.push(o, i)
        oracle.push(o, i)
        if pushed < w.capacity:
            assert w.estimate() == 0.0
        else:
            assert_matches(w, oracle)


@pytest.mark.parametrize("t_window, gain", [(0.05, 2.0), (0.3, 1.0)])
def test_long_runs_stay_on_the_dot_products(t_window, gain):
    # 30 000 pushes (5 minutes of samples) of a position wandering 25 m from
    # zero: without the periodic re-sum the running moments drift past
    # 1e-11 of the scale here
    w = FWindow(t_window, DT, input_gain=gain)
    oracle = DotWindow(t_window, DT, input_gain=gain)
    samples = np.random.default_rng(0).normal(size=(30_000, 2))
    samples[:, 0] = 25.0 + np.cumsum(samples[:, 0]) * DT
    for pushed, (o, i) in enumerate(samples.tolist(), start=1):
        w.push(o, i)
        oracle.push(o, i)
        if pushed >= w.capacity and pushed % 7 == 0:
            assert_matches(w, oracle)


def moments(w):
    return (w._so0, w._so1, w._si0, w._si1, w._si2)


@pytest.mark.parametrize("t_window", [0.05, 0.3, 0.7])   # 6, 31 and 71 samples
def test_moments_are_summed_afresh_on_every_resum_laps_th_wrap(t_window):
    w = FWindow(t_window, DT, input_gain=1.5)
    n = w.capacity
    samples = np.random.default_rng(3).normal(size=(2 * RESUM_LAPS * n, 2))
    samples[:, 0] = 25.0 + np.cumsum(samples[:, 0]) * DT
    for lap in range(1, 2 * RESUM_LAPS + 1):
        *pushes, last = samples[(lap - 1) * n:lap * n].tolist()
        for o, i in pushes:
            w.push(o, i)
        running = copy.deepcopy(w)
        running._resum = lambda: None   # the sliding update alone
        w.push(*last)
        running.push(*last)
        assert w._head == 0
        if lap % RESUM_LAPS:
            assert moments(w) == moments(running), lap
        else:
            # fsum of the ring, oldest to newest, products formed as _resum forms them
            m = [j - 0.5 * (n - 1) for j in range(n)]
            m_ins = [a * b for a, b in zip(m, w._ins)]
            fresh = (math.fsum(w._outs), math.fsum(a * b for a, b in zip(m, w._outs)),
                     math.fsum(w._ins), math.fsum(m_ins),
                     math.fsum(a * b for a, b in zip(m, m_ins)))
            assert [v.hex() for v in moments(w)] == [v.hex() for v in fresh], lap
