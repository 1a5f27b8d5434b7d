"""Kinematic vehicle model and its supporting noise/perturbation machinery.

The plant is the classic two-input planar car

    x' = u1 * cos(u2)
    y' = u1 * (1 + p) * sin(u2)

with u1 the linear speed, u2 the heading angle and p a piecewise-constant
output perturbation (p = 0 for the nominal plant).  The auxiliary controls
nu1 = u1*cos(u2), nu2 = u1*sin(u2) turn the plant into two parallel
integrators, which is what the flatness-based controller works with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterator

import numpy as np

from .errors import WORLD, ConfigError, StateIntegrityError, check_types

# Below this speed atan2(nu2, nu1) is ill-conditioned; the heading is frozen
# at its previous value instead.
EPS_SPEED = 1e-6

# |x| or |y| past it ends a run: room beyond a polyline (within WORLD) or a circle (2 * WORLD)
STATE_BOUND = 3 * WORLD

# Sub-stream indices for the counter-based seed construction.  Every consumer
# derives its generator from (master_seed, stream_index), so adding a consumer
# never shifts the draws seen by an existing one.
STREAM_NOISE_X = 0
STREAM_NOISE_Y = 1
STREAM_PERTURBATION = 2
STREAM_PLACEMENT = 3

# Normals drawn per stream at a time; a block equals that many single draws.
NOISE_BLOCK = 512


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Generator for one named sub-stream of a master seed."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), int(stream)]))


def aux_to_true(nu1: float, nu2: float, prev_u2: float = 0.0) -> tuple[float, float]:
    """Map auxiliary controls to (u1, u2).

    u1 = sqrt(nu1^2 + nu2^2), u2 = atan2(nu2, nu1).  Below EPS_SPEED the
    heading is held at ``prev_u2``.
    """
    u1 = math.hypot(nu1, nu2)
    if u1 < EPS_SPEED:
        return u1, prev_u2
    return u1, math.atan2(nu2, nu1)


def step_plant(x: float, y: float, u1: float, u2: float, p: float = 0.0,
               dt: float = 0.01) -> tuple[float, float]:
    """One explicit-Euler step of the (possibly perturbed) plant from the
    position (x, y) under the controls (u1, u2); returns the next position.

    The perturbation p scales the y-rate by (1 + p); p = 0 recovers the
    nominal dynamics exactly.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not (math.isfinite(x) and math.isfinite(y)
            and math.isfinite(u1) and math.isfinite(u2)
            and math.isfinite(p)):
        raise StateIntegrityError(
            f"non-finite plant input: state=({x}, {y}), "
            f"control=({u1}, {u2}), p={p}")
    x = x + dt * u1 * math.cos(u2)
    y = y + dt * u1 * (1.0 + p) * math.sin(u2)
    if not (abs(x) <= STATE_BOUND and abs(y) <= STATE_BOUND):   # NaN fails too
        raise StateIntegrityError(f"plant state ({x}, {y}) left the world")
    return x, y


@dataclass(frozen=True)
class NoiseConfig:
    enabled: bool = True
    sigma: float = 0.1

    def __post_init__(self):
        check_types(self, "noise")


@dataclass(frozen=True)
class PerturbationConfig:
    enabled: bool = False
    switch_interval: float = 2.0
    low: float = -0.5
    high: float = 0.5

    def __post_init__(self):
        check_types(self, "perturbation")
        if not -0.5 <= self.low <= self.high <= 0.5:
            raise ConfigError("perturbation range must satisfy -0.5 <= low <= high <= 0.5")


def measurement_noise(config: NoiseConfig, seed: int) -> Iterator[tuple[float, float]] | None:
    """The (dx, dy) offsets, sigma times standard normals, that ``measure``
    adds to each sample; None when the noise is disabled.

    Each axis draws from its own seeded stream so that measurement order
    never couples the axes.  Normals are drawn NOISE_BLOCK at a time, which
    gives the same sequence as drawing them one by one, and handed out by a
    chain over zips of the blocks, so each ``next`` runs in C.
    """
    if not config.enabled:
        return None
    sigma = config.sigma
    rng_x, rng_y = stream_rng(seed, STREAM_NOISE_X), stream_rng(seed, STREAM_NOISE_Y)
    return chain.from_iterable(zip((sigma * rng_x.standard_normal(NOISE_BLOCK)).tolist(),
                                   (sigma * rng_y.standard_normal(NOISE_BLOCK)).tolist())
                               for _ in count())


def measure(x: float, y: float, noise) -> tuple[float, float]:
    """Measured (x, y): true position plus the next offset of the
    ``measurement_noise`` stream, or the true position when it is None."""
    if noise is None:
        return x, y
    dx, dy = next(noise)
    return x + dx, y + dy


def perturbation_levels(config: PerturbationConfig, duration: float, n: int, dt: float,
                        seed: int) -> list:
    """p at each sample time k * dt, k in 0..n: level floor(t / switch_interval),
    clamped to the last, of levels drawn uniformly on [low, high] to cover
    [0, duration]; one interval's samples share its float.  0.0 when disabled."""
    if not config.enabled:
        return [0.0] * (n + 1)
    count = max(1, math.floor(duration / config.switch_interval + 1e-9) + 1)
    values = stream_rng(seed, STREAM_PERTURBATION).uniform(config.low, config.high,
                                                           size=count).tolist()
    idx = np.minimum(np.arange(n + 1) * dt / config.switch_interval,
                     count - 1).astype(int)
    return list(map(values.__getitem__, idx.tolist()))
