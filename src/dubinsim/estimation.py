"""Sliding-window algebraic drift estimation.

Both control stacks estimate the lumped drift F of a first-order relation
d(out)/dt = F + gain*in from the last T seconds of data via

    F_hat = -(6 / T^3) * integral_0^T [ (T - 2s) * out(t - T + s)
                                        + gain * s * (T - s) * in(t - T + s) ] ds

The integral is evaluated as exact product integration of the polynomial
kernels against the piecewise-linear interpolant of the stored samples
(per-interval Simpson, which is exact for the cubic products involved): with
weights w_out, w_in over the n samples of the window, oldest first,
F_hat = w_out . outs + w_in . ins.  Interval [a, a + dt] adds
dt/6*(k(a) + 2k(a + dt/2)) to the weight of its left sample and
dt/6*(k(a + dt) + 2k(a + dt/2)) to its right one.  Plain
point-sampled trapezoid would bias ramp inputs by O(dt^2/T^2), which is far
above the accuracy this estimator is relied on for.

Moment form.  For a kernel k(s) = a0 + a1*s + a2*s^2 an interior weight is

    w[j] = dt/3 * (k(j*dt) + k((j + 1/2)*dt) + k((j - 1/2)*dt))
         = dt * (k(j*dt) + a2*dt^2/6),

a quadratic q(m) = q0 + q1*m + q2*m^2 in the centred index m = j - c,
c = (n - 1)/2, with q2 = a2*dt^3.  Only the two end weights leave it, by
e_old = w[0] - q(-c) and e_new = w[n-1] - q(c), so each buffer's term is

    w . f = q0*S0 + q1*S1 + q2*S2 + e_old*f_oldest + e_new*f_newest,
    S_k = sum_j m^k * f[j].

The output kernel T - 2s is linear, a2 = 0, so its q2 is exactly 0 and the
output buffer needs only S0 and S1; the input kernel s*(T - s) needs all
three.  That is five running sums per window.  Sliding the window by one
sample updates them in O(1), so a push and an estimate cost the same
whatever the window length.  The running sums lose a few ulps per update
(S2 grows as n^2*|f|, and positions can sit tens of metres from zero), so
they are summed afresh from the samples, with ``math.fsum``, on every
RESUM_LAPS-th wrap of the ring head to 0, when the ring is already oldest
to newest.  (A re-sum costs nearly as much as a lap of pushes.)
The estimate then stays within 5e-14 * (|w_out|.|outs| + |w_in|.|ins|) of
the two dot products: 4.7e-14 at worst, against 3.7e-15 with a re-sum on
every lap, measured over 30 000 pushes of a walk 25 m from zero on windows
of 6, 31 and 71 samples with gains to +-5.  The tests hold it to 1e-12 of
the same scale.
"""

from __future__ import annotations

import math
from operator import mul

from .reference import MAX_SAMPLES

# The ring wraps this many times between two re-sums of its moments.
RESUM_LAPS = 8


def window_capacity(t_window: float, dt: float) -> int:
    """Number of samples spanning t_window at spacing dt (endpoints included)."""
    steps = t_window / dt
    if not steps < MAX_SAMPLES - 0.5:   # round(steps) + 1 <= MAX_SAMPLES; inf and NaN too
        raise ValueError(f"window of {steps:.6g} steps: more than MAX_SAMPLES = {MAX_SAMPLES}")
    try:   # FWindow scales the estimate by -6 / t_window**3
        scale = 6.0 / t_window ** 3
    except (OverflowError, ZeroDivisionError):
        scale = math.inf
    if not math.isfinite(scale):
        raise ValueError(f"t_window={t_window}: the estimate's scale 6 / t_window**3 "
                         "is not finite")
    n_steps = round(steps)
    if abs(steps - n_steps) > 1e-9 * max(1.0, abs(steps)):
        raise ValueError(f"t_window={t_window} is not an integer multiple of dt={dt}")
    if n_steps < 4:
        raise ValueError(f"window needs at least 5 samples, got {n_steps + 1}")
    return n_steps + 1


def moment_weights(a0: float, a1: float, a2: float, n: int,
                   dt: float) -> tuple[float, float, float, float, float]:
    """(q0, q1, q2, e_old, e_new) of the kernel a0 + a1*s + a2*s^2: the
    product weights are q0 + q1*m + q2*m^2 at the centred index m, plus
    e_old on the oldest sample and e_new on the newest (module docstring)."""
    def kernel(s):
        return a0 + (a1 + a2 * s) * s

    c = 0.5 * (n - 1)
    q0 = dt * (kernel(c * dt) + a2 * dt * dt / 6.0)
    q1 = dt * dt * (a1 + 2.0 * a2 * c * dt)
    q2 = a2 * dt ** 3
    # each end sample gets a weight from its one interval only
    a = (n - 2) * dt
    w_old = dt / 6.0 * (kernel(0.0) + 2.0 * kernel(0.5 * dt))
    w_new = dt / 6.0 * (kernel(a + dt) + 2.0 * kernel(a + 0.5 * dt))
    return (q0, q1, q2, w_old - (q0 - q1 * c + q2 * c * c),
            w_new - (q0 + q1 * c + q2 * c * c))


class FWindow:
    """Ring of (output, input) samples with the drift estimate above, kept
    as five sliding moments: S0, S1 of the output buffer (its q2 is 0) and
    S0, S1, S2 of the input buffer.

    Until the ring has filled once the estimate is defined to be 0 (warm-up);
    early partial-window estimates are badly biased and the feedforward
    dominates at startup anyway.
    """

    def __init__(self, t_window: float, dt: float, input_gain: float = 1.0):
        T = float(t_window)
        n = self.capacity = window_capacity(t_window, dt)
        scale = -6.0 / T ** 3
        # the output kernel T - 2s has a2 = 0, so its q2 is exactly 0
        (self._qo0, self._qo1, _, self._eo_old, self._eo_new) = (
            scale * v for v in moment_weights(T, -2.0, 0.0, n, dt))
        scale *= float(input_gain)
        (self._qi0, self._qi1, self._qi2, self._ei_old, self._ei_new) = (
            scale * v for v in moment_weights(0.0, T, -1.0, n, dt))
        c = self._c = 0.5 * (n - 1)
        self._c_sq = c * c
        self._c_sq_old = c * c + 2.0 * c
        self._m = [j - c for j in range(n)]
        self._outs = [0.0] * n
        self._ins = [0.0] * n
        self._so0 = self._so1 = 0.0
        self._si0 = self._si1 = self._si2 = 0.0
        self._head = 0       # slot of the oldest sample, written next
        self._laps = 0       # wraps of the ring since the last re-sum
        self._warm = False   # the ring has filled once

    def push(self, out_sample: float, in_sample: float) -> None:
        """Replace the oldest sample f_old (at m = -c) by f (at m = c).

        The kept samples move one index down, m -> m - 1.  With r = S0 - f_old,
        the sum of the kept ones: S0 <- r + f, S1 <- S1 - r + c*(f_old + f)
        and S2 <- S2 - 2*S1 + r - (c^2 + 2c)*f_old + c^2*f, old S1 on the right.
        """
        h = self._head
        c = self._c
        outs, ins = self._outs, self._ins
        f_old = outs[h]
        outs[h] = out_sample
        r = self._so0 - f_old
        self._so0 = r + out_sample
        self._so1 = self._so1 - r + c * (f_old + out_sample)
        f_old = ins[h]
        ins[h] = in_sample
        r = self._si0 - f_old
        s1 = self._si1
        self._si0 = r + in_sample
        self._si1 = s1 - r + c * (f_old + in_sample)
        self._si2 = (self._si2 - 2.0 * s1 + r - self._c_sq_old * f_old
                     + self._c_sq * in_sample)
        h += 1
        if h == self.capacity:
            h = 0
            self._warm = True
            self._laps = laps = (self._laps + 1) % RESUM_LAPS
            if not laps:
                self._resum()
        self._head = h

    def _resum(self) -> None:
        """Moments summed afresh from a ring that is oldest to newest (head at 0)."""
        m, fsum = self._m, math.fsum
        m_ins = list(map(mul, m, self._ins))
        self._so0, self._so1 = fsum(self._outs), fsum(map(mul, m, self._outs))
        self._si0, self._si1, self._si2 = fsum(self._ins), fsum(m_ins), fsum(map(mul, m, m_ins))

    def estimate(self) -> float:
        if not self._warm:
            return 0.0
        h = self._head
        outs, ins = self._outs, self._ins
        return (self._qo0 * self._so0 + self._qo1 * self._so1
                + self._eo_old * outs[h] + self._eo_new * outs[h - 1]
                + self._qi0 * self._si0 + self._qi1 * self._si1 + self._qi2 * self._si2
                + self._ei_old * ins[h] + self._ei_new * ins[h - 1])
