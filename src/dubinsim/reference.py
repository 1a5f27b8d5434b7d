"""Reference trajectory generation, lookup and time synchronization.

A trajectory is a uniformly sampled table of flat outputs (x, y) and their
time derivatives.  Lookups outside the sampled domain clamp to the endpoint
with zero derivative, so a vehicle that outruns its path simply parks at the
goal.  All revision operations (sample shifts, bypass splices) return new
trajectories; nothing is mutated in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegeneratePathError

# Most samples a reference or a run's record table may hold: at 16 float64
# columns a record table of 10**7 samples takes 1.28 GB.
MAX_SAMPLES = 10**7


# ---------------------------------------------------------------------------
# Path specifications


@dataclass(frozen=True)
class PolylinePath:
    """Waypoint polyline traversed at constant speed, corners rounded with
    circular fillets so the feedforward heading is continuous."""

    waypoints: tuple
    speed: float = 1.0
    fillet_radius: float = 0.5

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise DegeneratePathError("polyline needs at least two waypoints")
        if self.speed <= 0.0:
            raise DegeneratePathError("polyline speed must be positive")
        if self.fillet_radius < 0.0:
            raise DegeneratePathError("polyline fillet_radius must be non-negative")


@dataclass(frozen=True)
class CirclePath:
    """x = cx + R*cos(omega*t + phase), y = cy + R*sin(omega*t + phase)."""

    cx: float = 0.0
    cy: float = 0.0
    radius: float = 5.0
    omega: float = 0.2
    phase: float = 0.0

    def __post_init__(self):
        if self.radius <= 0.0 or self.omega == 0.0:
            raise DegeneratePathError("circle needs positive radius and nonzero omega")


@dataclass(frozen=True)
class SinePath:
    """Constant forward speed in x with a sinusoidal sweep in y."""

    amplitude: float = 1.0
    wavelength: float = 10.0
    speed: float = 1.0
    x0: float = 0.0
    y0: float = 0.0

    def __post_init__(self):
        if self.speed <= 0.0 or self.wavelength <= 0.0:
            raise DegeneratePathError("sinusoid needs positive speed and wavelength")


PATH_KINDS = {"polyline": PolylinePath, "circle": CirclePath, "sinusoid": SinePath}


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Samples at spacing dt, one row (x, y, dx, dy) each in ``table``;
    ``x``, ``y``, ``dx`` and ``dy`` are read-only views of its columns."""

    dt: float
    table: np.ndarray

    def __post_init__(self):
        n = len(self.table)
        if n < 2:
            raise DegeneratePathError("trajectory needs at least two samples")
        columns = self.table.T.view()   # read-only; the table itself is left as given
        columns.flags.writeable = False
        for name, column in zip(("x", "y", "dx", "dy"), columns):
            object.__setattr__(self, name, column)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "tf", (n - 1) * self.dt)

    def lookup(self, t: float) -> tuple[float, float, float, float]:
        """(x, y, dx, dy) at the grid sample nearest t; parked beyond the domain."""
        i = min(max(int(round(t / self.dt)), 0), self.n - 1)
        if t < -1e-12 or t > self.tf + 1e-12:
            return float(self.x[i]), float(self.y[i]), 0.0, 0.0
        return float(self.x[i]), float(self.y[i]), float(self.dx[i]), float(self.dy[i])

    def row(self, k: int) -> tuple[float, float, float, float]:
        """(x, y, dx, dy) of sample k, equal to ``lookup(k * dt)``; parked at
        the last sample from k = n on."""
        if k >= self.n:
            return self.x.item(-1), self.y.item(-1), 0.0, 0.0
        return tuple(self.table[k].tolist())

    def path_length(self, ia: int, ib: int) -> float:
        """Polyline length of the sample chain from sample ia to sample ib."""
        if ib <= ia:
            return 0.0
        return float(np.hypot(np.diff(self.x[ia:ib + 1]), np.diff(self.y[ia:ib + 1])).sum())


# ---------------------------------------------------------------------------
# Construction


def _unit(vx, vy):
    n = math.hypot(vx, vy)
    if n < 1e-12:
        raise DegeneratePathError("zero-length direction in path spec")
    return vx / n, vy / n


def _polyline_pieces(spec: PolylinePath):
    """Break the polyline into line and fillet-arc pieces.

    Returns a list of ("line", p0, dirvec, length) and
    ("arc", center, radius, start_angle, signed_sweep) entries.
    """
    pts = [(float(px), float(py)) for px, py in spec.waypoints]
    r = float(spec.fillet_radius)

    # Per-leg unit directions and lengths.
    dirs, lens = [], []
    for (ax, ay), (bx, by) in zip(pts[:-1], pts[1:]):
        d = _unit(bx - ax, by - ay)
        dirs.append(d)
        lens.append(math.hypot(bx - ax, by - ay))

    # Tangent offsets consumed at each interior vertex.
    offs = [0.0]
    turns = []
    for i in range(1, len(pts) - 1):
        (d1x, d1y), (d2x, d2y) = dirs[i - 1], dirs[i]
        cross = d1x * d2y - d1y * d2x
        dot = d1x * d2x + d1y * d2y
        beta = math.atan2(cross, dot)
        turns.append(beta)
        if abs(beta) < 1e-12 or r <= 0.0:
            offs.append(0.0)
        else:
            if abs(abs(beta) - math.pi) < 1e-9:
                raise DegeneratePathError("polyline reverses direction at a vertex")
            offs.append(r * math.tan(abs(beta) / 2.0))
    offs.append(0.0)

    for i, leg in enumerate(lens):
        if offs[i] + offs[i + 1] > leg + 1e-12:
            raise DegeneratePathError(
                f"fillet radius {r} does not fit on leg {i} of length {leg:.3g}")

    pieces = []
    cursor = pts[0]
    for i, ((dx_, dy_), leg) in enumerate(zip(dirs, lens)):
        seg_len = leg - offs[i] - offs[i + 1]
        if seg_len > 1e-12:
            pieces.append(("line", cursor, (dx_, dy_), seg_len))
        end = (cursor[0] + dx_ * seg_len, cursor[1] + dy_ * seg_len)
        if i < len(dirs) - 1 and offs[i + 1] > 0.0:
            beta = turns[i]
            sign = 1.0 if beta > 0 else -1.0
            # Fillet center sits at distance r on the turn side of the incoming leg.
            nx, ny = -dy_ * sign, dx_ * sign
            cx, cy = end[0] + r * nx, end[1] + r * ny
            a0 = math.atan2(end[1] - cy, end[0] - cx)
            pieces.append(("arc", (cx, cy), r, a0, beta))
            a1 = a0 + beta
            cursor = (cx + r * math.cos(a1), cy + r * math.sin(a1))
        else:
            cursor = end
    if not pieces:
        raise DegeneratePathError("polyline has zero length")
    return pieces


def _piece_length(piece):
    if piece[0] == "line":
        return piece[3]
    return piece[2] * abs(piece[4])


def sample_pieces(pieces, s, v: float):
    """Table of (x, y, dx, dy) rows at the sorted arclengths ``s`` along a
    chain of pieces in the ``_polyline_pieces`` format, traversed at speed v."""
    bounds = np.concatenate([[0.0], np.cumsum([_piece_length(p) for p in pieces])])
    # A sample belongs to the first piece whose end it does not pass by more
    # than 1e-12; s is sorted, so each piece owns one contiguous run.
    piece_of = np.minimum(np.searchsorted(bounds[1:] + 1e-12, s), len(pieces) - 1)
    edges = np.searchsorted(piece_of, np.arange(len(pieces) + 1))
    table = np.empty((len(s), 4))
    xs, ys, dxs, dys = table.T   # column views
    for piece, s0, a, b in zip(pieces, bounds, edges[:-1], edges[1:]):
        sl = s[a:b] - s0   # arclength into the piece
        if piece[0] == "line":
            _, (px, py), (tx, ty), _ = piece
            xs[a:b] = px + tx * sl
            ys[a:b] = py + ty * sl
            dxs[a:b] = tx * v
            dys[a:b] = ty * v
        else:
            _, (cx, cy), r, a0, beta = piece
            sign = 1.0 if beta > 0 else -1.0
            ang = a0 + sign * sl / r
            cos_a, sin_a = np.cos(ang), np.sin(ang)
            xs[a:b] = cx + r * cos_a
            ys[a:b] = cy + r * sin_a
            dxs[a:b] = -sign * sin_a * v
            dys[a:b] = sign * cos_a * v
    return table


def _sample_polyline(pieces, v: float, dt: float, count: int):
    lengths = [_piece_length(p) for p in pieces]
    total = sum(lengths)
    table = sample_pieces(pieces, np.minimum(np.arange(count) * dt * v, total), v)
    # Near piece junctions the analytic tangent has a curvature kink; store the
    # central difference there instead so the table stays self-consistent.
    k = np.round(np.cumsum(lengths[:-1]) / (v * dt)).astype(int)
    kk = (k[:, None] + np.array([-1, 0, 1])).ravel()
    kk = kk[(kk >= 1) & (kk <= count - 2)]   # a repeated index rewrites the same value
    table[kk, 2:] = (table[kk + 1, :2] - table[kk - 1, :2]) / (2.0 * dt)
    return table


def sample_count(spec, dt: float, duration: float, pieces=None) -> int:
    """Number of samples in ``build_reference(spec, dt, duration)``: a
    polyline's full traversal, floor(length / speed / dt + 1e-9) + 1, which
    checks its geometry (``pieces``, when the caller has them, are not built
    again); other paths' round(duration / dt) + 1.  Over MAX_SAMPLES refused."""
    if isinstance(spec, PolylinePath):
        length = sum(map(_piece_length, pieces or _polyline_pieces(spec)))
        steps = length / spec.speed / dt + 1e-9
        if not steps < MAX_SAMPLES:   # NaN too
            raise DegeneratePathError(f"polyline length/speed/dt = {steps:.6g} steps: "
                                      f"more than MAX_SAMPLES = {MAX_SAMPLES} samples")
        if steps < 1.0:
            raise DegeneratePathError("polyline shorter than one sample step")
        return math.floor(steps) + 1
    steps = duration / dt
    if not steps < MAX_SAMPLES - 0.5:   # round(steps) + 1 <= MAX_SAMPLES
        raise DegeneratePathError(f"duration/dt = {steps:.6g} steps: "
                                  f"more than MAX_SAMPLES = {MAX_SAMPLES} samples")
    return round(steps) + 1


def build_reference(spec, dt: float = 0.01, duration: float = 20.0) -> ReferenceTrajectory:
    """Sample a path spec into a ReferenceTrajectory at spacing dt.

    Circle and sinusoid paths are sampled over [0, duration] with analytic
    derivatives.  Polylines are sampled over their full traversal time; the
    clamped lookup parks the vehicle at the final waypoint afterwards.
    """
    if dt <= 0.0:
        raise DegeneratePathError("dt must be positive")
    if isinstance(spec, PolylinePath):
        pieces = _polyline_pieces(spec)
        table = _sample_polyline(pieces, spec.speed, dt,
                                 sample_count(spec, dt, duration, pieces))
    elif isinstance(spec, CirclePath):
        t = dt * np.arange(sample_count(spec, dt, duration))
        a = spec.omega * t + spec.phase
        table = np.column_stack((spec.cx + spec.radius * np.cos(a),
                                 spec.cy + spec.radius * np.sin(a),
                                 -spec.radius * spec.omega * np.sin(a),
                                 spec.radius * spec.omega * np.cos(a)))
    elif isinstance(spec, SinePath):
        t = dt * np.arange(sample_count(spec, dt, duration))
        k = 2.0 * math.pi / spec.wavelength
        table = np.column_stack((spec.x0 + spec.speed * t,
                                 spec.y0 + spec.amplitude * np.sin(k * spec.speed * t),
                                 np.full_like(t, spec.speed),
                                 spec.amplitude * k * spec.speed * np.cos(k * spec.speed * t)))
    else:
        raise DegeneratePathError(f"unknown path spec {type(spec).__name__}")
    return ReferenceTrajectory(dt=dt, table=table)


def path_spec_from_dict(d: dict):
    """Instantiate a path spec from its JSON form ({"kind": ..., ...}).

    Every number passes through float(), the waypoints as (x, y) pairs, so a
    wrong value type fails here and not in the build.
    """
    d = dict(d)
    kind = d.pop("kind", None)
    if kind not in PATH_KINDS:
        raise DegeneratePathError(f"unknown path kind {kind!r}")
    try:
        d = {key: (tuple((float(x), float(y)) for x, y in value) if key == "waypoints"
                   else float(value)) for key, value in d.items()}
        return PATH_KINDS[kind](**d)
    except DegeneratePathError:
        raise
    except (TypeError, ValueError) as exc:
        raise DegeneratePathError(f"bad {kind} path spec: {exc}") from exc


# ---------------------------------------------------------------------------
# Synchronization


def sync_offset(x_sync: float, y_sync: float, traj: ReferenceTrajectory,
                k: int, reach: float) -> int:
    """Grid-search the shift, in samples, minimizing the squared distance
    between (x_sync, y_sync) and the reference at sample k + shift.

    Candidates are ordered 0, +1, -1, +2, ... up to +-round(reach) and only
    strict improvements are kept, which realizes the tie rules: smallest
    |shift| first, positive before negative.  Past |shift| = n + k every
    candidate lands on an endpoint that a smaller |shift| already reached,
    so the search stops there whatever reach is, infinite included.
    """
    m = round(min(reach, traj.n + k + 1))
    shifts = np.empty(2 * m + 1, dtype=int)
    shifts[0] = 0
    shifts[1::2] = np.arange(1, m + 1)
    shifts[2::2] = -np.arange(1, m + 1)
    idx = np.clip(k + shifts, 0, traj.n - 1)
    d2 = (traj.x[idx] - x_sync) ** 2 + (traj.y[idx] - y_sync) ** 2
    return int(shifts[int(np.argmin(d2))])


def reindex_tail(traj: ReferenceTrajectory, table: np.ndarray, i0: int,
                 shift: int) -> ReferenceTrajectory:
    """Revised trajectory on ``table``, a fresh copy of a trajectory table
    that the caller owns: its rows from i0 on are overwritten with traj's
    rows ``shift`` samples later.  Rows shifted past either end clamp there
    with zero derivative (the path parks rather than extrapolating)."""
    src = np.arange(i0, traj.n) + shift
    table[i0:] = traj.table.take(np.clip(src, 0, traj.n - 1), axis=0)
    table[i0:][(src < 0) | (src > traj.n - 1), 2:] = 0.0
    return replace(traj, table=table)


def apply_sync(traj: ReferenceTrajectory, shift: int, k: int) -> ReferenceTrajectory:
    """Re-index the trajectory: samples from k on read the original
    ``shift`` samples later."""
    return reindex_tail(traj, traj.table.copy(), k, shift)
