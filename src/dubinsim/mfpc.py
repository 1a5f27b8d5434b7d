"""Model-free predictive control.

Each axis is described only by the first-order ultra-local model
dy/dt = F + alpha*u with F re-estimated from recent data every step.  For the
quadratic cost (y - y_set)^2 + u^2 the Euler-Lagrange equation is the linear
ODE y'' = alpha^2 (y - y_set), whose solution through the two boundary points
(t_i, y_i) and (t_f, y_set) is available in closed form.  On a receding
horizon of fixed length the arc's initial velocity is a fixed multiple of
y_i - y_set, so each axis solves the boundary problem once and the loop
applies that proportional gain, corrected by the current drift estimate.

The x axis drives the speed u1 and the y axis drives the heading u2, which is
kept strictly inside (-pi/2, pi/2); with u1 >= 0 this stack can therefore only
track paths whose x never has to decrease.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ControllerFault, HorizonTooLongError, check_types
from .estimation import FWindow

# |rate * (t_f - t_i)| beyond this risks overflow in the exponentials;
# ScenarioConfig.validate refuses an MFPC horizon that reaches it.
MAX_EXP_ARG = 40.0

U2_MARGIN = 0.01   # the heading clamp's distance from pi/2: |u2| <= pi/2 - U2_MARGIN


class BoundarySolution(NamedTuple):
    """y*(t) = y_setpoint + c1*exp(rate*(t - t_i)) + c2*exp(-rate*(t - t_i))
    on [t_i, t_f]; relative to t_i, so any start time stays finite."""

    c1: float
    c2: float
    t_i: float
    t_f: float
    rate: float
    y_setpoint: float

    def value(self, t: float) -> float:
        s = t - self.t_i
        return self.y_setpoint + self.c1 * math.exp(self.rate * s) + self.c2 * math.exp(-self.rate * s)

    def velocity(self, t: float) -> float:
        s = t - self.t_i
        return self.rate * (self.c1 * math.exp(self.rate * s) - self.c2 * math.exp(-self.rate * s))


def solve_two_point(y_i: float, y_setpoint: float, t_i: float, t_f: float,
                    alpha: float) -> BoundarySolution:
    """Closed-form optimal arc through y(t_i) = y_i and y(t_f) = y_setpoint.

    The sign of alpha is irrelevant here (negating it swaps c1 and c2), so the
    exponent rate is |alpha|.  The solution does not depend on the drift value
    the model currently carries.
    """
    if not t_f > t_i:
        raise ValueError(f"need t_f > t_i, got [{t_i}, {t_f}]")
    if alpha == 0.0:
        raise ValueError("alpha must be nonzero")
    rate = abs(alpha)
    h = t_f - t_i
    if rate * h > MAX_EXP_ARG:
        raise HorizonTooLongError(f"rate*(t_f - t_i) = {rate * h:.3g} exceeds {MAX_EXP_ARG}")
    den = math.exp(-rate * h) - math.exp(rate * h)
    dy = y_i - y_setpoint
    c1 = dy * math.exp(-rate * h) / den
    c2 = -math.exp(rate * h) * dy / den
    return BoundarySolution(c1=c1, c2=c2, t_i=t_i, t_f=t_f, rate=rate,
                            y_setpoint=y_setpoint)


def check_reference(traj) -> None:
    """Refuse a reference whose heading leaves (-pi/2, pi/2) anywhere.

    With u1 >= 0 and the heading clamped inside that interval, x can never
    decrease, so such a path cannot be followed.
    """
    if np.any((traj.dx < 0.0) | ((traj.dx == 0.0) & (traj.dy != 0.0))):
        raise ConfigError("mfpc: the reference heading leaves (-pi/2, pi/2), "
                          "which this controller cannot follow")


@dataclass(frozen=True)
class MfpcConfig:
    """Ultra-local scaling per axis, receding horizon and estimation window
    (s), and speed ceiling."""

    alpha1: float = 1.0
    alpha2: float = 1.5
    horizon: float = 0.3
    t_window: float = 0.7
    u1_max: float = 5.0

    def __post_init__(self):
        check_types(self, "mfpc")


class MfpcController:
    """Both ultra-local axes' constants and sample windows; logs clamp
    episodes.

    On a fixed receding horizon the optimal arc's initial velocity is linear
    in the setpoint error, so each axis's arc is solved once here, in
    horizon-relative time, for a unit error: ``gains`` holds its initial
    velocity, -r*cosh(rT)/sinh(rT).  A horizon past MAX_EXP_ARG / max|alpha|
    raises HorizonTooLongError; a loaded config never holds one.
    """

    def __init__(self, config: MfpcConfig, dt: float):
        # setpoints are read one horizon ahead, the horizon both axes solve
        # over: ``ahead`` counts it in samples
        self.ahead = round(config.horizon / dt)
        self.alphas = (float(config.alpha1), float(config.alpha2))
        self.gains = tuple(solve_two_point(1.0, 0.0, 0.0, config.horizon, alpha).velocity(0.0)
                           for alpha in self.alphas)
        self.windows = tuple(FWindow(config.t_window, dt, input_gain=alpha)
                             for alpha in self.alphas)
        u2_lim = math.pi / 2 - U2_MARGIN
        self.limits = (0.0, config.u1_max, -u2_lim, u2_lim)
        self.events: list = []
        self._u1_clamped = self._u2_clamped = False   # on the last step

    def step(self, x_meas: float, y_meas: float, t: float,
             row) -> tuple[float, float, float, float, float, float]:
        """Full MIMO step: x axis -> u1, y axis -> u2, toward the setpoint
        ``row[:2]``, the reference row one horizon ahead on the (possibly
        revised) reference; returns ``(u1, u2, nan, nan, fhat_x, fhat_y)``,
        since this stack has no auxiliary controls, with the drift estimates
        this step used.

        Per axis: the optimal velocity toward the setpoint, minus the drift
        estimate, scaled by 1/alpha and clamped to the axis limits; the
        window is pushed the clamped input actually applied.
        """
        if not (math.isfinite(x_meas) and math.isfinite(y_meas)):
            raise ControllerFault(f"non-finite measurement ({x_meas}, {y_meas})")
        gain_x, gain_y = self.gains
        alpha_x, alpha_y = self.alphas
        win_x, win_y = self.windows
        u1_min, u1_max, u2_min, u2_max = self.limits
        fx = win_x.estimate()
        u1 = raw1 = (gain_x * (x_meas - row[0]) - fx) / alpha_x
        if raw1 < u1_min:
            u1 = u1_min
        elif raw1 > u1_max:
            u1 = u1_max
        win_x.push(x_meas, u1)
        fy = win_y.estimate()
        u2 = raw2 = (gain_y * (y_meas - row[1]) - fy) / alpha_y
        if raw2 < u2_min:
            u2 = u2_min
        elif raw2 > u2_max:
            u2 = u2_max
        win_y.push(y_meas, u2)
        clamped = u1 != raw1
        if clamped != self._u1_clamped:
            if clamped:
                self.events.append({"kind": "clamp", "t": t, "input": "u1", "raw": raw1})
            self._u1_clamped = clamped
        clamped = u2 != raw2
        if clamped != self._u2_clamped:
            if clamped:
                self.events.append({"kind": "clamp", "t": t, "input": "u2", "raw": raw2})
            self._u2_clamped = clamped
        return u1, u2, math.nan, math.nan, fx, fy
