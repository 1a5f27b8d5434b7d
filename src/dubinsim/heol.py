"""Flatness-based tracking loop.

Around a reference trajectory the error dynamics of the auxiliary-control
plant collapse to two decoupled first-order relations

    d(dx_err)/dt = F_x + dnu1      d(dy_err)/dt = F_y + dnu2

where F lumps every mismatch and disturbance.  The loop estimates F per axis
from a sliding window and closes with the intelligent proportional law

    dnu = -(F_hat + K * err)

on top of the open-loop feedforward.  With a good estimate the error contracts
like exp(-K t) regardless of what F actually was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ControllerFault, check_types
from .estimation import FWindow
from .model import aux_to_true


@dataclass(frozen=True)
class HeolConfig:
    """Proportional gains per axis and the estimation window length (s)."""

    kx: float = 2.0
    ky: float = 2.0
    t_window: float = 0.3

    def __post_init__(self):
        check_types(self, "heol")


class HeolController:
    """Owns the two estimator windows and the last heading."""

    ahead = 0   # reads the reference row of the current sample

    def __init__(self, config: HeolConfig, dt: float):
        self.config = config
        self.windows = (FWindow(config.t_window, dt), FWindow(config.t_window, dt))
        self.prev_u2 = 0.0
        self.events: list = []

    def step(self, x_meas: float, y_meas: float, t: float,
             row) -> tuple[float, float, float, float, float, float]:
        """One closed-loop step: feedforward plus the iP correction;
        returns ``(u1, u2, nu1, nu2, fhat_x, fhat_y)``, the drift estimates
        being the ones this step used.

        ``row`` is the reference sample ``(x, y, dx, dy)`` at time t.  Each
        window estimates F from (flat-output error, auxiliary-control error)
        samples; this step's samples are pushed after the output is formed,
        so the estimate never sees data from its own step.
        """
        if not (math.isfinite(x_meas) and math.isfinite(y_meas)):
            raise ControllerFault(f"non-finite measurement ({x_meas}, {y_meas})")
        gains = self.config
        x_ref, y_ref, dx_ref, dy_ref = row
        ex = x_meas - x_ref
        ey = y_meas - y_ref
        win_x, win_y = self.windows
        fx = win_x.estimate()
        fy = win_y.estimate()
        dnu1 = -(fx + gains.kx * ex)
        dnu2 = -(fy + gains.ky * ey)
        nu1 = dx_ref + dnu1
        nu2 = dy_ref + dnu2
        u1, u2 = aux_to_true(nu1, nu2, self.prev_u2)
        win_x.push(ex, dnu1)
        win_y.push(ey, dnu2)
        self.prev_u2 = u2
        return u1, u2, nu1, nu2, fx, fy
