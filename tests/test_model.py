import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dubinsim.errors import StateIntegrityError
from dubinsim.errors import ConfigError
from dubinsim.model import (STREAM_NOISE_X, STREAM_NOISE_Y, STREAM_PERTURBATION,
                            NoiseConfig, PerturbationConfig, aux_to_true, measure,
                            measurement_noise, perturbation_levels, step_plant, stream_rng)


def test_step_plant_pure_x_motion():
    x, y = step_plant(0, 0, u1=1, u2=0, p=0, dt=0.01)
    assert x == pytest.approx(0.01, abs=1e-15)
    assert y == pytest.approx(0.0, abs=1e-15)


def test_step_plant_pure_y_motion():
    x, y = step_plant(0, 0, u1=1, u2=math.pi / 2, p=0, dt=0.01)
    assert x == pytest.approx(0.0, abs=1e-12)
    assert y == pytest.approx(0.01, abs=1e-15)


def test_step_plant_perturbed_closed_form():
    # hand-checked arithmetic: x' = 1 + 0.01*2*cos(pi/4), y' = 1 + 0.01*2*1.5*sin(pi/4)
    x, y = step_plant(1, 1, u1=2, u2=math.pi / 4, p=0.5, dt=0.01)
    assert x == pytest.approx(1 + 0.02 * math.cos(math.pi / 4), abs=1e-15)
    assert y == pytest.approx(1 + 0.03 * math.sin(math.pi / 4), abs=1e-15)


def test_step_plant_zero_p_matches_nominal():
    rng = np.random.default_rng(3)
    for _ in range(50):
        st = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        c = (rng.uniform(0, 3), rng.uniform(-math.pi, math.pi))
        a = step_plant(*st, *c, p=0.0, dt=0.01)
        b = step_plant(*st, *c, dt=0.01)
        assert a == b


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_step_plant_rejects_non_finite(bad):
    with pytest.raises(StateIntegrityError):
        step_plant(0, 0, u1=bad, u2=0, dt=0.01)
    with pytest.raises(StateIntegrityError):
        step_plant(bad, 0, u1=1, u2=0, dt=0.01)


def test_step_plant_rejects_bad_dt():
    with pytest.raises(ValueError):
        step_plant(0, 0, u1=1, u2=0, dt=0.0)


def test_euler_first_order_convergence():
    # rotating heading u2 = w*t; exact solution of the continuous plant is known
    w = 1.0
    T = 2.0

    def final_error(dt):
        x, y = 0, 0
        for k in range(int(round(T / dt))):
            x, y = step_plant(x, y, 1.0, w * k * dt, 0.0, dt)
        return math.hypot(x - math.sin(w * T) / w, y - (1 - math.cos(w * T)) / w)

    e1, e2 = final_error(0.01), final_error(0.005)
    assert e1 / e2 == pytest.approx(2.0, rel=0.2)


def test_aux_to_true_examples():
    assert aux_to_true(1, 0) == pytest.approx((1, 0))
    assert aux_to_true(0, 1) == pytest.approx((1, math.pi / 2))
    u1, u2 = aux_to_true(-1, -1)
    assert u1 == pytest.approx(math.sqrt(2))
    assert u2 == pytest.approx(-3 * math.pi / 4)


def test_aux_to_true_freezes_heading_at_rest():
    u1, u2 = aux_to_true(0.0, 0.0, prev_u2=0.7)
    assert u1 == 0.0
    assert u2 == 0.7


def test_true_to_aux_examples():
    # the nominal plant's rates are the auxiliary controls u1*(cos u2, sin u2)
    def rates(u1, u2):
        return step_plant(0.0, 0.0, u1, u2, 0.0, 1.0)

    assert rates(1, 0) == pytest.approx((1, 0))
    nu1, nu2 = rates(1, math.pi / 2)
    assert nu1 == pytest.approx(0, abs=1e-12)
    assert nu2 == pytest.approx(1)
    nu1, nu2 = rates(2, math.pi / 6)
    assert nu1 == pytest.approx(math.sqrt(3))
    assert nu2 == pytest.approx(1)


def test_aux_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(500):
        u1 = rng.uniform(1e-6, 10)
        u2 = rng.uniform(-math.pi, math.pi)
        r1, r2 = aux_to_true(u1 * math.cos(u2), u1 * math.sin(u2))
        assert r1 == pytest.approx(u1, abs=1e-9)
        assert r2 == pytest.approx(u2, abs=1e-9)


def test_control_input_representation_consistency():
    rng = np.random.default_rng(12)
    for _ in range(200):
        nu1, nu2 = rng.uniform(-4, 4, size=2)
        u1, u2 = aux_to_true(nu1, nu2)
        assert u1 >= 0.0
        assert u1 == pytest.approx(math.hypot(nu1, nu2), abs=1e-9)
        if u1 > 1e-6:
            assert u2 == pytest.approx(math.atan2(nu2, nu1), abs=1e-9)


def test_measure_disabled_is_identity():
    noise = measurement_noise(NoiseConfig(enabled=False, sigma=0.1), 5)
    assert measure(2.5, -3.5, noise) == (2.5, -3.5)


def test_measure_seeded_statistics():
    # Monte-Carlo oracle on the seeded generator
    noise = measurement_noise(NoiseConfig(enabled=True, sigma=0.1), 42)
    draws = np.array([measure(0, 0, noise) for _ in range(100_000)])
    for axis in (0, 1):
        assert abs(draws[:, axis].mean()) < 0.002
        assert abs(draws[:, axis].std() - 0.1) < 0.005


def test_measure_determinism():
    st = (1, 2)
    a = [measure(*st, measurement_noise(NoiseConfig(sigma=0.1), 7)) for _ in range(0, 1)]
    na = measurement_noise(NoiseConfig(sigma=0.1), 7)
    nb = measurement_noise(NoiseConfig(sigma=0.1), 7)
    seq_a = [measure(*st, na) for _ in range(100)]
    seq_b = [measure(*st, nb) for _ in range(100)]
    assert seq_a == seq_b
    nc = measurement_noise(NoiseConfig(sigma=0.1), 8)
    assert [measure(*st, nc) for _ in range(100)] != seq_a


def drawn_levels(duration, config, seed):
    """The levels perturbation_levels draws: one per switch interval."""
    count = math.floor(duration / config.switch_interval + 1e-9) + 1
    return stream_rng(seed, STREAM_PERTURBATION).uniform(config.low, config.high,
                                                         size=count).tolist()


def test_perturbation_schedule_values_in_range_and_piecewise():
    config = PerturbationConfig(enabled=True, switch_interval=2.0)
    values = drawn_levels(20.0, config, 9)
    assert all(-0.5 <= v <= 0.5 for v in values)
    assert len(values) == 11
    levels = perturbation_levels(config, 20.0, 100_000, 0.01, 9)
    for k, t in enumerate(np.arange(0.0, 20.0, 0.01)):
        assert levels[k] == values[int(t / 2.0)]
    # constant within each interval, clamped at the end
    assert levels[2000] == values[10]
    assert levels[100_000] == values[-1]


def test_perturbation_schedule_seed_determinism():
    config = PerturbationConfig(enabled=True)
    a = perturbation_levels(config, 20.0, 2000, 0.01, 123)
    b = perturbation_levels(config, 20.0, 2000, 0.01, 123)
    c = perturbation_levels(config, 20.0, 2000, 0.01, 124)
    assert a == b
    assert a != c


def test_perturbation_zero_schedule():
    assert perturbation_levels(PerturbationConfig(enabled=False), 20.0, 2000, 0.01, 7) \
        == [0.0] * 2001


def test_perturbation_rejects_bad_range():
    with pytest.raises(ValueError):
        PerturbationConfig(enabled=True, low=-0.6, high=0.5)
    with pytest.raises(ConfigError):
        PerturbationConfig(switch_interval=0.0)


def test_noise_rejects_negative_sigma():
    with pytest.raises(ConfigError, match="sigma"):
        NoiseConfig(sigma=-0.1)


def test_measure_blocks_equal_scalar_draws():
    # 1200 samples cross two NOISE_BLOCK boundaries
    noise = measurement_noise(NoiseConfig(sigma=0.1), 31)
    rx, ry = stream_rng(31, STREAM_NOISE_X), stream_rng(31, STREAM_NOISE_Y)
    x, y = 1.5, -2.0
    for _ in range(1200):
        assert measure(x, y, noise) == (x + 0.1 * float(rx.standard_normal()),
                                        y + 0.1 * float(ry.standard_normal()))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(zero=st.booleans(), duration=st.floats(0.5, 60.0), switch=st.floats(0.05, 5.0),
       seed=st.integers(0, 2**32), dt=st.sampled_from([0.005, 0.01, 0.02, 0.1]),
       extra=st.integers(0, 300))
def test_levels_equal_at_on_the_sample_grid(zero, duration, switch, seed, dt, extra):
    config = PerturbationConfig(enabled=not zero, switch_interval=switch)
    n = int(round(duration / dt)) + extra   # runs past the last level too
    levels = perturbation_levels(config, duration, n, dt, seed)
    assert len(levels) == n + 1
    values = [0.0] if zero else drawn_levels(duration, config, seed)
    first = {}   # level index -> the first sample that reads it
    for k, level in enumerate(levels):
        i = 0 if zero else int(k * dt / switch)
        i = min(i, len(values) - 1)
        assert level == values[i]
        # samples of one level share its float object, not copies
        assert level is levels[first.setdefault(i, k)]
