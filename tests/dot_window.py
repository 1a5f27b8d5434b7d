"""The dot-product drift window, kept as the reference for FWindow.

``DotWindow`` has FWindow's surface (``push``, ``estimate``, ``capacity``)
and computes the estimate the direct way: the samples of the last window,
oldest first, dotted with the product weights, ``w_out @ outs + w_in @ ins``.
Its floats are those of the ring that FWindow replaced, so a run with it
swapped in reproduces that engine's output bytes.  ``product_weights``
builds those weights interval by interval, as the module docstring of
``dubinsim.estimation`` sets out.
"""

from collections import deque

import numpy as np

from dubinsim.estimation import window_capacity


def product_weights(kernel, n, dt):
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


class DotWindow:
    def __init__(self, t_window, dt, input_gain=1.0):
        T = float(t_window)
        self.capacity = window_capacity(t_window, dt)
        scale = -6.0 / T ** 3
        self.w_out = scale * product_weights(lambda s: T - 2.0 * s, self.capacity, dt)
        self.w_in = scale * float(input_gain) * product_weights(
            lambda s: s * (T - s), self.capacity, dt)
        # an empty window holds zeros, as the old ring did
        self.samples = deque([(0.0, 0.0)] * self.capacity, maxlen=self.capacity)
        self.pushed = 0

    def push(self, out_sample, in_sample):
        self.samples.append((out_sample, in_sample))
        self.pushed += 1

    def columns(self):
        """(outs, ins) of the last window, oldest first."""
        outs, ins = np.array(self.samples).T.copy()
        return outs, ins

    def estimate(self):
        if self.pushed < self.capacity:
            return 0.0
        outs, ins = self.columns()
        return float(self.w_out.dot(outs) + self.w_in.dot(ins))

    def scale(self):
        """|w_out|.|outs| + |w_in|.|ins|: the size the estimate's rounding
        error is measured against."""
        outs, ins = self.columns()
        return float(np.abs(self.w_out).dot(np.abs(outs)) + np.abs(self.w_in).dot(np.abs(ins)))


def assert_matches(window, oracle, rel=1e-12):
    """window's estimate equals the oracle's within rel * oracle.scale()."""
    got, want = window.estimate(), oracle.estimate()
    assert abs(got - want) <= rel * oracle.scale(), (got, want)
