"""Obstacle discovery, danger-zone crossing detection and bypass planning.

Obstacles are disks; the keep-out region is the disk inflated by a safety
margin.  When the active reference crosses a danger zone the planner builds a
tangent-arc-tangent wrap around it: straight onto the circle, along it, and
straight back to the reference.  That construction is the shortest smooth path
between two outside points that respects the keep-out radius, so comparing the
two sides' extra length directly implements detour minimization.

Side naming follows the direction of travel at the crossing: a "right" bypass
keeps the obstacle on the vehicle's left, which is a counterclockwise wrap of
the danger circle; "left" is the clockwise wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleBypassError, check_types
from .reference import ReferenceTrajectory, reindex_tail, sample_pieces

TWO_PI = 2.0 * math.pi

# Bypass geometry is planned on a circle this much larger than the danger
# radius so sampled arc points never fall inside the zone through rounding.
CLEARANCE_PAD = 1e-6


@dataclass(frozen=True)
class Obstacle:
    cx: float
    cy: float
    r: float
    t_appear: float = 0.0

    def __post_init__(self):
        check_types(self, "obstacle", "obstacles[]")

    def danger_zone(self, margin: float) -> "DangerZone":
        if margin <= 0.0:
            raise ConfigError("safety margin must be positive")
        return DangerZone(cx=self.cx, cy=self.cy, r_danger=self.r + margin)


@dataclass(frozen=True)
class DangerZone:
    cx: float
    cy: float
    r_danger: float


@dataclass(frozen=True)
class BypassPlan:
    side: str  # "left" | "right"
    detour_length: float
    i_start: int    # first and last sample the bypass overwrites
    i_end: int
    i_exit: int     # the exit anchor's sample on the unrevised reference
    table: np.ndarray | None   # (x, y, dx, dy) rows of samples i_start..i_end;
                               # None for a wrap that ends past the reference


def discover(obstacles, state: tuple[float, float, float], sensing_radius: float,
             known=frozenset()) -> tuple[list[int], float, float]:
    """Indices of obstacles that become known at this state, and when to
    look again: ``(found, t_next, near)``.

    ``state`` is the (t, x, y) sample: its time and the vehicle's
    position.  An obstacle is discoverable once it exists (t >= t_appear)
    and the vehicle is within sensing range.  Discovery is monotone: the
    caller keeps the ``known`` set and obstacles are never forgotten.
    ``t_next`` is the earliest ``t_appear`` of an unknown obstacle that does
    not exist yet, and ``near`` the distance to the nearest unknown one that
    exists but is out of range; each is inf when there is none.
    """
    t, x, y = state
    found, t_next, near = [], math.inf, math.inf
    for i, ob in enumerate(obstacles):
        if i in known:
            continue
        if ob.t_appear > t + 1e-12:   # not there yet
            t_next = min(t_next, ob.t_appear)
            continue
        d = math.hypot(x - ob.cx, y - ob.cy)
        if d <= sensing_radius:
            found.append(i)
        else:
            near = min(near, d)
    return found, t_next, near


def _boundary_time(xa, ya, xb, yb, ta, tb, cx, cy, r):
    """Time at which the segment from a (at ta) to b (at tb), one end
    strictly inside the zone, crosses its boundary: the root s in [0, 1] of
    |a - c + s*(b - a)|^2 = r^2, the smaller one when the segment enters
    (a outside) and the larger one when it leaves."""
    ex, ey, fx, fy = xb - xa, yb - ya, xa - cx, ya - cy
    a2 = ex * ex + ey * ey
    b1 = fx * ex + fy * ey
    c0 = fx * fx + fy * fy - r * r
    # the roots are q/a2 and c0/q; neither subtracts near-equal terms
    q = -(b1 + math.copysign(math.sqrt(max(b1 * b1 - a2 * c0, 0.0)), b1))
    if q == 0.0:    # both roots 0: a on the boundary, b - a tangent to it
        s = 0.0
    elif c0 >= 0.0:
        s = min(q / a2, c0 / q)
    else:
        s = max(q / a2, c0 / q)
    # where an end is inside or outside only by rounding, the root can fall
    # just off the segment
    return ta + min(max(s, 0.0), 1.0) * (tb - ta)


def path_crosses_zone(traj: ReferenceTrajectory, zone: DangerZone, i0: int = 0):
    """First maximal interval [t_in, t_out] where the reference runs strictly
    inside the danger circle, scanning forward from sample i0; None if it
    never enters.  Boundary times are solved in closed form on the sample
    segments."""
    if i0 > traj.n - 1:
        return None
    cx, cy, dt, r = zone.cx, zone.cy, traj.dt, zone.r_danger
    x, y = traj.x, traj.y
    inside = (x[i0:] - cx) ** 2 + (y[i0:] - cy) ** 2 < r * r
    if not inside.any():
        return None
    j = i0 + int(np.argmax(inside))
    if j == i0:
        t_in = i0 * dt
    else:
        t_in = _boundary_time(x.item(j - 1), y.item(j - 1), x.item(j), y.item(j),
                              (j - 1) * dt, j * dt, cx, cy, r)
    tail = inside[j - i0:]
    if tail.all():
        t_out = traj.tf
    else:
        k = j + int(np.argmin(tail))
        t_out = _boundary_time(x.item(k - 1), y.item(k - 1), x.item(k), y.item(k),
                               (k - 1) * dt, k * dt, cx, cy, r)
    return float(t_in), float(t_out)


def _tangent_geometry(px, py, cx, cy, r):
    """Polar angle of the point around the center, tangent half-angle, and
    tangent segment length.  The point must lie strictly outside."""
    mx, my = px - cx, py - cy
    d = math.hypot(mx, my)
    if d <= r * (1.0 + 1e-12):
        raise InfeasibleBypassError(f"anchor ({px:.3g}, {py:.3g}) is not outside radius {r:.3g}")
    return math.atan2(my, mx), math.acos(r / d), math.sqrt(d * d - r * r)


def plan_both_sides(traj: ReferenceTrajectory, zone: DangerZone, crossing, *,
                    lead: float = 0.5, i_min: int = 0):
    """(left, right) tangent-arc-tangent wraps of the danger circle.
    Whatever rules a wrap out (an anchor, a tangent) rules out both sides:
    InfeasibleBypassError names it.

    Anchors are reference samples ``lead`` seconds outside the crossing,
    pushed further out while still inside the zone (entry anchors never move
    before sample i_min, the current one).  Each wrap is re-timed onto the
    grid at the reference speed where the crossing begins (at least 0.1 m/s),
    ending on the exit anchor.  A wrap that would end past the last sample is
    not sampled: its plan has no table, and ``splice`` refuses it.
    """
    t_in, t_out = crossing
    dt = traj.dt
    n = traj.n
    R = zone.r_danger + CLEARANCE_PAD
    cx, cy = zone.cx, zone.cy
    speed = max(math.hypot(*traj.lookup(t_in)[2:]), 0.1)

    # the crossing's times become samples here only: the last one at or
    # before t_in - lead, the first one at or after t_out + lead
    i_a = min(n - 1, max(i_min, int(math.floor((t_in - lead) / dt + 1e-9))))
    while i_a >= i_min and math.hypot(traj.x[i_a] - cx, traj.y[i_a] - cy) <= R + 1e-9:
        i_a -= 1
    if i_a < i_min:
        raise InfeasibleBypassError("no entry anchor outside the danger zone")
    i_b = max(i_a + 1, int(math.ceil((t_out + lead) / dt - 1e-9)))
    while i_b <= n - 1 and math.hypot(traj.x[i_b] - cx, traj.y[i_b] - cy) <= R + 1e-9:
        i_b += 1
    if i_b > n - 1:
        raise InfeasibleBypassError("no exit anchor outside the danger zone")

    ax, ay = float(traj.x[i_a]), float(traj.y[i_a])
    bx, by = float(traj.x[i_b]), float(traj.y[i_b])
    phi_a, th_a, len_a = _tangent_geometry(ax, ay, cx, cy, R)
    phi_b, th_b, len_b = _tangent_geometry(bx, by, cx, cy, R)
    replaced = traj.path_length(i_a, i_b)

    plans = []
    for orient, side in ((-1, "left"), (1, "right")):   # clockwise, counterclockwise
        psi1 = phi_a + orient * th_a
        psi2 = phi_b - orient * th_b
        sweep = (orient * (psi2 - psi1)) % TWO_PI
        total = len_a + R * sweep + len_b
        # in this order, not total / (speed * dt): that rounds differently
        # and would move the wrap's samples
        steps = total / speed / dt
        n_b = max(2, math.ceil(steps - 1e-9))
        table = None
        if i_a + n_b <= n - 1:
            v = total / (n_b * dt)
            p1 = (cx + R * math.cos(psi1), cy + R * math.sin(psi1))
            p2 = (cx + R * math.cos(psi2), cy + R * math.sin(psi2))
            seg1 = ((p1[0] - ax) / len_a, (p1[1] - ay) / len_a)
            seg2 = ((bx - p2[0]) / len_b, (by - p2[1]) / len_b)
            pieces = (("line", (ax, ay), seg1, len_a),
                      ("arc", (cx, cy), R, psi1, orient * sweep),
                      ("line", p2, seg2, len_b))
            table = sample_pieces(pieces, np.minimum(np.arange(n_b + 1) * dt * v, total), v)
            table[0, :2] = ax, ay
            table[n_b, :2] = bx, by
        plans.append(BypassPlan(side=side, detour_length=total - replaced, i_start=i_a,
                                i_end=i_a + n_b, i_exit=i_b, table=table))
    return tuple(plans)


def select_side(left: BypassPlan, right: BypassPlan, controller_kind: str) -> BypassPlan:
    """MFPC always bypasses on the right (its heading constraint rules out the
    left wrap); the flatness stack takes the smaller detour, right on ties."""
    if controller_kind == "mfpc" or right.detour_length <= left.detour_length:
        return right
    return left


def splice(traj: ReferenceTrajectory, plan: BypassPlan) -> ReferenceTrajectory:
    """Replace the reference between the plan's anchors with the bypass samples.

    The bypass generally takes longer than the segment it replaces, so the
    remainder of the reference is re-timed to start right after it: the tail
    shifts by ``i_exit - i_end`` samples.  Both junctions are
    position-continuous by construction.
    """
    if plan.i_end > traj.n - 1:
        raise InfeasibleBypassError("bypass extends past the end of the trajectory")
    table = traj.table.copy()
    table[plan.i_start:plan.i_end + 1] = plan.table
    return reindex_tail(traj, table, plan.i_end + 1, plan.i_exit - plan.i_end)
