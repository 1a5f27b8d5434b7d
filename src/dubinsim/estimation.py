"""Sliding-window algebraic drift estimation.

Both control stacks estimate the lumped drift F of a first-order relation
d(out)/dt = F + gain*in from the last T seconds of data via

    F_hat = -(6 / T^3) * integral_0^T [ (T - 2s) * out(t - T + s)
                                        + gain * s * (T - s) * in(t - T + s) ] ds

The integral is evaluated as exact product integration of the polynomial
kernels against the piecewise-linear interpolant of the stored samples
(per-interval Simpson, which is exact for the cubic products involved).
Plain point-sampled trapezoid would bias ramp inputs by O(dt^2/T^2), which
is far above the accuracy this estimator is relied on for.
"""

from __future__ import annotations

import numpy as np


def window_capacity(t_window: float, dt: float) -> int:
    """Number of samples spanning t_window at spacing dt (endpoints included)."""
    steps = t_window / dt
    n_steps = round(steps)
    if abs(steps - n_steps) > 1e-9 * max(1.0, abs(steps)):
        raise ValueError(f"t_window={t_window} is not an integer multiple of dt={dt}")
    if n_steps < 4:
        raise ValueError(f"window needs at least 5 samples, got {n_steps + 1}")
    return n_steps + 1


def product_weights(kernel, n: int, dt: float) -> np.ndarray:
    """Weights w with w @ f = integral of kernel(s) * lininterp(f)(s) over [0, (n-1)*dt].

    Exact whenever kernel is polynomial of degree <= 2 (per-interval Simpson
    on a cubic integrand).
    """
    w = np.zeros(n)
    for j in range(n - 1):
        a = j * dt
        m = a + 0.5 * dt
        b = a + dt
        w[j] += dt / 6.0 * (kernel(a) + 2.0 * kernel(m))
        w[j + 1] += dt / 6.0 * (kernel(b) + 2.0 * kernel(m))
    return w


class FWindow:
    """Ring buffer of (output, input) samples with the drift estimate above.

    Each of the two sample buffers is doubled: ``push`` writes a sample at
    slot ``i`` and again at ``i + capacity``, so the window oldest to newest
    is always the contiguous slice ``[_next, _next + capacity)`` and the
    estimate is two plain dot products, with no gather.

    Until the ring has filled once the estimate is defined to be 0 (warm-up);
    early partial-window estimates are badly biased and the feedforward
    dominates at startup anyway.
    """

    def __init__(self, t_window: float, dt: float, input_gain: float = 1.0):
        self.t_window = float(t_window)
        self.dt = float(dt)
        self.input_gain = float(input_gain)
        self.capacity = window_capacity(t_window, dt)
        scale = -6.0 / self.t_window ** 3
        T = self.t_window
        self._w_out = scale * product_weights(lambda s: T - 2.0 * s, self.capacity, dt)
        self._w_in = scale * self.input_gain * product_weights(
            lambda s: s * (T - s), self.capacity, dt)
        self._out = np.zeros(2 * self.capacity)
        self._in = np.zeros(2 * self.capacity)
        self._next = 0
        self._count = 0
        self.last_estimate = 0.0

    @property
    def full(self) -> bool:
        return self._count >= self.capacity

    def push(self, out_sample: float, in_sample: float) -> None:
        i = self._next
        j = i + self.capacity
        self._out[i] = self._out[j] = out_sample
        self._in[i] = self._in[j] = in_sample
        self._next = i + 1 if i + 1 < self.capacity else 0
        self._count += 1

    def chronological(self) -> tuple[np.ndarray, np.ndarray]:
        """Stored samples ordered oldest to newest (copies)."""
        i = self._next
        j = i + self.capacity
        return self._out[i:j].copy(), self._in[i:j].copy()

    def estimate(self) -> float:
        if self._count < self.capacity:
            self.last_estimate = 0.0
            return 0.0
        i = self._next
        j = i + self.capacity
        # two dot products summed in this order: one interleaved dot product
        # rounds differently in the last bits
        value = float(self._w_out.dot(self._out[i:j]) + self._w_in.dot(self._in[i:j]))
        self.last_estimate = value
        return value
