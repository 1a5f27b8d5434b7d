import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dubinsim.avoidance import DangerZone, path_crosses_zone, plan_both_sides, splice
from dubinsim.errors import DegeneratePathError, InfeasibleBypassError
from dubinsim.model import aux_to_true, step_plant
from dubinsim.reference import (MAX_SAMPLES, CirclePath, PolylinePath, ReferenceTrajectory,
                                SinePath, apply_sync, build_reference, sample_count,
                                sync_offset)

DT = 0.01

LINE = PolylinePath(waypoints=((0.0, 0.0), (25.0, 0.0)), speed=1.0)


def line_traj():
    return build_reference(LINE, DT, 20.0)


def check_consistency(traj, tol=1e-3):
    cd_x = (traj.x[2:] - traj.x[:-2]) / (2 * traj.dt)
    cd_y = (traj.y[2:] - traj.y[:-2]) / (2 * traj.dt)
    assert np.all(np.abs(cd_x - traj.dx[1:-1]) <= tol * np.maximum(1.0, np.abs(traj.dx[1:-1])))
    assert np.all(np.abs(cd_y - traj.dy[1:-1]) <= tol * np.maximum(1.0, np.abs(traj.dy[1:-1])))


def test_circle_reference_analytic_derivatives():
    traj = build_reference(CirclePath(radius=5.0, omega=0.2), DT, 20.0)
    assert traj.x[0] == pytest.approx(5.0)
    assert traj.y[0] == pytest.approx(0.0)
    assert traj.dx[0] == pytest.approx(0.0, abs=1e-12)
    assert traj.dy[0] == pytest.approx(1.0)  # R * omega
    check_consistency(traj)


def test_line_reference_uniform_motion():
    traj = line_traj()
    for t in (0.0, 0.37, 1.0, 12.5):
        x, y, dx, dy = traj.lookup(t)
        assert x == pytest.approx(t, abs=1e-9)
        assert y == 0.0
        assert (dx, dy) == (1.0, 0.0)


@pytest.mark.parametrize("spec", [
    LINE,
    PolylinePath(waypoints=((0, 0), (6, 0), (6, 6), (12, 6)), speed=1.0, fillet_radius=0.5),
    CirclePath(radius=5.0, omega=0.2),
    SinePath(amplitude=1.0, wavelength=12.0, speed=1.0),
])
def test_derivative_consistency_invariant(spec):
    check_consistency(build_reference(spec, DT, 20.0))


def test_samples_uniformly_spaced():
    # sample k sits at time k * dt: the grid read rules agree on every index
    traj = build_reference(SinePath(), DT, 20.0)
    assert traj.n == 2001
    assert all(traj.row(k) == traj.lookup(k * DT) == (traj.x[k], traj.y[k], traj.dx[k], traj.dy[k])
               for k in range(traj.n))


def test_polyline_speed_constant_along_fillets():
    traj = build_reference(
        PolylinePath(waypoints=((0, 0), (6, 0), (6, 6)), speed=1.5, fillet_radius=0.5), DT, 20.0)
    speed = np.hypot(traj.dx, traj.dy)
    assert np.all(np.abs(speed[1:-1] - 1.5) < 0.01)


def test_lookup_clamps_and_parks():
    traj = line_traj()
    x, y, dx, dy = traj.lookup(traj.tf + 5.0)
    assert (x, y) == (traj.x[-1], traj.y[-1])
    assert (dx, dy) == (0.0, 0.0)
    x0, y0, dx0, dy0 = traj.lookup(-1.0)
    assert (x0, y0) == (traj.x[0], traj.y[0])
    assert (dx0, dy0) == (0.0, 0.0)


# A spec refuses nothing itself: the build refuses each of these.
@pytest.mark.parametrize("bad", [
    PolylinePath(waypoints=((0.0, 0.0),), speed=1.0),
    PolylinePath(waypoints=((0.0, 0.0), (25.0, 0.0)), speed=0.0),
    PolylinePath(waypoints=((0, 0), (1, 0), (0, 0)), speed=1.0),  # reverses
    CirclePath(radius=0.0),
    CirclePath(omega=0.0),
    SinePath(wavelength=0.0),
    PolylinePath(waypoints=((0.0, 0.0), (25.0, 0.0)), speed=1e-300),   # 2.5e303 samples
    PolylinePath(waypoints=((0.0, 0.0), (25.0, 0.0)), speed=1e300),    # under one step
    PolylinePath(waypoints=((0.0, 0.0), (0.0, 0.0), (5.0, 0.0))),      # zero-length leg
    PolylinePath(waypoints=((0.0, 0.0), (1.0, 0.0), (1.0, 5.0)),
                 fillet_radius=2.0),                                # does not fit
])
def test_degenerate_specs_rejected(bad):
    with pytest.raises(DegeneratePathError):
        build_reference(bad, DT, 20.0)


@pytest.mark.parametrize("spec, count", [
    (PolylinePath(((0.0, 0.0), (25.0, 0.0))), 2501),
    (PolylinePath(((0.0, 0.0), (6.0, 0.0), (6.0, 6.0)), speed=1.5), 786),   # 11.785 m of line and fillet
    (CirclePath(), 2001),
    (SinePath(), 2001),
])
def test_sample_count_is_the_built_length(spec, count):
    assert sample_count(spec, DT, 20.0) == build_reference(spec, DT, 20.0).n == count
    if not isinstance(spec, PolylinePath):   # a polyline's count ignores the duration
        with pytest.raises(DegeneratePathError, match="MAX_SAMPLES"):
            build_reference(spec, DT, MAX_SAMPLES * DT)


# The flat feedforward replays the reference: nu = (dx, dy) of a row, and
# (u1, u2) = aux_to_true(nu).


def test_flat_feedforward_line():
    row = line_traj().row(300)
    u1, u2 = aux_to_true(*row[2:])
    assert u1 == pytest.approx(1.0)
    assert u2 == pytest.approx(0.0)
    assert row[2:] == (1.0, 0.0)


def test_flat_feedforward_circle_constant_speed():
    traj = build_reference(CirclePath(radius=5.0, omega=0.2), DT, 20.0)
    for k in range(0, 2000, 50):
        assert aux_to_true(*traj.row(k)[2:])[0] == pytest.approx(1.0, abs=1e-12)


def test_flat_feedforward_parks_with_frozen_heading():
    traj = line_traj()
    u1, u2 = aux_to_true(*traj.row(traj.n + 100)[2:], 0.42)
    assert u1 == 0.0
    assert u2 == 0.42


def test_open_loop_flatness_tracks_at_first_order():
    # replaying the feedforward through the nominal plant stays within C*dt
    def max_err(dt):
        traj = build_reference(CirclePath(radius=5.0, omega=0.2), dt, 20.0)
        x, y = traj.row(0)[:2]
        prev, worst = 0.0, 0.0
        for k in range(int(round(20.0 / dt))):
            u1, u2 = aux_to_true(*traj.row(k)[2:], prev)
            prev = u2
            x, y = step_plant(x, y, u1, u2, 0.0, dt)
            xr, yr = traj.row(k + 1)[:2]
            worst = max(worst, math.hypot(x - xr, y - yr))
        return worst

    e1, e2 = max_err(0.01), max_err(0.005)
    assert e1 < 0.02
    assert e1 / e2 == pytest.approx(2.0, rel=0.2)


# -- synchronization ---------------------------------------------------------


def test_sync_offset_zero_when_on_reference():
    traj = line_traj()
    assert sync_offset(4.0, 0.0, traj, 400, 500) == 0


def test_sync_offset_recovers_known_shift():
    # exhaustive grid-search oracle: the true point of sample 400 + 50 is the
    # unique zero-distance candidate on a unit-speed line
    traj = line_traj()
    px, py = traj.row(450)[:2]
    assert sync_offset(px, py, traj, 400, 500) == 50
    shifts = range(-500, 501)
    d2 = [(traj.row(400 + j)[0] - px) ** 2 + (traj.row(400 + j)[1] - py) ** 2
          for j in shifts]
    assert shifts[int(np.argmin(d2))] == 50


def vee_trajectory():
    # x(t) = |t - 1| built from integers so mirrored samples are bitwise equal
    n = 2001
    idx = np.arange(n)
    return ReferenceTrajectory(dt=DT, table=np.column_stack(
        (np.abs(idx - 100) * DT, np.zeros(n), np.sign(idx - 100) * 1.0, np.zeros(n))))


def test_sync_offset_tie_prefers_positive():
    traj = vee_trajectory()
    assert traj.x[70] == traj.x[130]  # exact tie by construction
    assert sync_offset(float(traj.x[130]), 0.0, traj, 100, 500) == 30


def test_sync_offset_tie_prefers_smallest_magnitude():
    # beyond the table end every shift >= 50 hits the clamped endpoint
    traj = vee_trajectory()
    assert sync_offset(25.0, 0.0, traj, 1950, 500) == 50


def test_sync_offset_is_global_grid_minimum():
    traj = build_reference(SinePath(amplitude=1.0, wavelength=12.0, speed=1.0), DT, 20.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        px, py, k = rng.uniform(0, 18), rng.uniform(-2, 2), int(rng.integers(100, 1800))
        shift = sync_offset(px, py, traj, k, 500)
        x, y = traj.lookup((k + shift) * DT)[:2]
        best = (x - px) ** 2 + (y - py) ** 2
        for j in range(-500, 501):
            x, y = traj.lookup((k + j) * DT)[:2]
            assert best <= (x - px) ** 2 + (y - py) ** 2 + 1e-12


def _sync_offset_unclamped(x_sync, y_sync, traj, k_now, reach):
    # every candidate up to reach, in the documented order 0, +1, -1, ...
    ks = [0] + [s * k for k in range(1, reach + 1) for s in (1, -1)]
    best_k, best = 0, math.inf
    for k in ks:
        i = min(max(k_now + k, 0), traj.n - 1)
        d2 = (traj.x[i] - x_sync) ** 2 + (traj.y[i] - y_sync) ** 2
        if d2 < best:
            best_k, best = k, d2
    return best_k


@settings(max_examples=40, deadline=None, derandomize=True)
@given(legs=st.lists(st.tuples(st.floats(0.5, 3.0), st.floats(-1.0, 1.0)), min_size=1, max_size=4),
       t_frac=st.floats(0.0, 1.0), tau_frac=st.floats(0.01, 3.0),
       px=st.floats(-2.0, 14.0), py=st.floats(-4.0, 4.0))
def test_sync_offset_stops_where_every_candidate_is_clipped(legs, t_frac, tau_frac, px, py):
    # a reach past the table ends gives the full search's answer
    pts = [(0.0, 0.0)]
    for dx_, dy_ in legs:
        pts.append((pts[-1][0] + dx_, pts[-1][1] + dy_))
    traj = build_reference(PolylinePath(waypoints=tuple(pts), fillet_radius=0.0), 0.05, 1.0)
    k = round(t_frac * (traj.n - 1))
    reach = round(tau_frac * (traj.n - 1 + k)) + 1
    assert sync_offset(px, py, traj, k, reach) == _sync_offset_unclamped(
        px, py, traj, k, reach)
    assert sync_offset(px, py, traj, k, round(1e300 / traj.dt)) == sync_offset(
        px, py, traj, k, 2 * (traj.n - 1 + k) + 1)



@settings(max_examples=60, deadline=None, derandomize=True)
@given(legs=st.lists(st.tuples(st.floats(0.5, 3.0), st.floats(-1.0, 1.0)), min_size=1, max_size=4),
       t_frac=st.floats(0.0, 1.0), later=st.integers(0, 300),
       reach=st.one_of(st.just(math.inf), st.just(1e300), st.floats(0.0, 2000.0),
                       st.integers(0, 1200).map(lambda i: i / 2)),
       px=st.floats(-2.0, 14.0), py=st.floats(-4.0, 4.0))
def test_sync_offset_caps_a_float_reach_itself(legs, t_frac, later, reach, px, py):
    # a reach in samples, as tau_max / dt gives it, finds the shift that the
    # reach a run at sample k of n = k + later capped to an integer found:
    # round(min(reach, traj.n + n + 1))
    pts = [(0.0, 0.0)]
    for dx_, dy_ in legs:
        pts.append((pts[-1][0] + dx_, pts[-1][1] + dy_))
    traj = build_reference(PolylinePath(waypoints=tuple(pts), fillet_radius=0.0), 0.05, 1.0)
    k = round(t_frac * (traj.n - 1))
    capped = round(min(reach, traj.n + k + later + 1))
    assert sync_offset(px, py, traj, k, reach) == _sync_offset_unclamped(
        px, py, traj, k, capped)

def test_apply_sync_identity():
    traj = line_traj()
    shifted = apply_sync(traj, 0, 0)
    assert np.array_equal(shifted.x, traj.x)
    assert np.array_equal(shifted.y, traj.y)


def test_apply_sync_reindexes():
    traj = line_traj()
    shifted = apply_sync(traj, 50, 0)
    for k in (0, 100, 1000):
        assert shifted.row(k)[0] == pytest.approx(min(k * DT + 0.5, traj.x[-1]), abs=1e-9)


def test_apply_sync_before_event_unchanged():
    traj = line_traj()
    shifted = apply_sync(traj, 100, 1000)
    assert np.array_equal(shifted.x[:1000], traj.x[:1000])
    assert shifted.row(1000)[0] == pytest.approx(11.0, abs=1e-9)


def test_apply_sync_composition():
    traj = line_traj()
    a = apply_sync(apply_sync(traj, 30, 200), 40, 200)
    b = apply_sync(traj, 70, 200)
    assert np.allclose(a.x, b.x, atol=1e-12)
    assert np.allclose(a.dx, b.dx, atol=1e-12)


def test_apply_sync_preserves_spacing_and_consistency():
    traj = build_reference(SinePath(amplitude=1.0, wavelength=12.0, speed=1.0), DT, 20.0)
    shifted = apply_sync(traj, 150, 0)
    assert shifted.dt == traj.dt and shifted.n == traj.n
    # interior of the shifted region is a pure reindex: consistency carries over
    interior = slice(1, shifted.n - 150 - 2)
    cd_y = (shifted.y[2:] - shifted.y[:-2]) / (2 * DT)
    err = np.abs(cd_y - shifted.dy[1:-1])[interior]
    assert err.max() <= 1e-3


def test_apply_sync_clamped_region_parks():
    traj = line_traj()
    shifted = apply_sync(traj, 1000, traj.n - 501)
    x, y, dx, dy = shifted.row(traj.n - 101)
    assert x == traj.x[-1]
    assert (dx, dy) == (0.0, 0.0)


def test_revisions_never_write_their_input():
    # A revision copies the caller's table before it writes.  A missing copy
    # would not move a run's output (run_scenario never reads an old
    # reference again), so the input is checked directly.
    traj = build_reference(PolylinePath(((0.0, 0.0), (6.0, 0.0), (10.0, 4.0), (16.0, 4.0)),
                                        fillet_radius=0.8), DT)
    zone = DangerZone(float(traj.x[700]), float(traj.y[700]), 0.5)
    plan = plan_both_sides(traj, zone, path_crosses_zone(traj, zone))[1]
    before = traj.table.copy()
    for revised in (apply_sync(traj, 0, 0), apply_sync(traj, 40, 300),
                    apply_sync(traj, -40, 300), apply_sync(traj, 5000, 0), splice(traj, plan)):
        assert traj.table.tobytes() == before.tobytes()
        assert not np.shares_memory(revised.table, traj.table)
    assert not np.shares_memory(revised.table, plan.table)


# sha256 of x, y, dx, dy as recorded from the per-sample build that preceded
# the vectorized one: the tables must stay the same to the bit
FILLETED = (
    (PolylinePath(((0.0, 0.0), (6.0, 0.0), (10.0, 4.0), (16.0, 4.0)),
                  speed=1.0, fillet_radius=0.8), 0.01,
     "dbd8ff9f78a9054cfc917139c850c287fa1c3a440ae10ac11e07752d037bb261"),
    (PolylinePath(((0.0, 0.0), (5.0, 1.0), (9.0, -2.0), (14.0, 0.5), (18.0, -1.5),
                   (24.0, 0.0)), speed=1.3, fillet_radius=0.5), 0.01,
     "fbf60eabe7ed199a76fff41773acbd824a92d64c9f9ce73d3cea51259f321e89"),
    (PolylinePath(((0.0, 0.0), (8.0, 0.0), (4.0, 5.0), (10.0, 9.0)),
                  speed=0.7, fillet_radius=1.0), 0.02,
     "0468f1fe86dd025f530ad4310b97f5d4e2df1e13b491be503d6b318a39b56e23"),
)


@pytest.mark.parametrize("spec, dt, digest", FILLETED, ids=["s-bend", "zigzag", "hairpin"])
def test_filleted_polyline_table_is_unchanged(spec, dt, digest):
    traj = build_reference(spec, dt)
    data = b"".join(a.tobytes() for a in (traj.x, traj.y, traj.dx, traj.dy))
    assert hashlib.sha256(data).hexdigest() == digest


# -- property: the per-sample row equals the lookup at the sample time ---------


@st.composite
def revised_references(draw):
    """A built line, sinusoid, circle or filleted polyline, left as built,
    time-synced, or spliced around a zone centred on one of its samples."""
    dt = draw(st.sampled_from([0.005, 0.01, 0.02]))
    kind = draw(st.sampled_from(["line", "sinusoid", "circle", "polyline"]))
    speed = draw(st.floats(0.5, 1.5))
    if kind == "line":
        spec = PolylinePath(((0.0, 0.0), (draw(st.floats(5.0, 25.0)), draw(st.floats(-3.0, 3.0)))),
                            speed=speed)
    elif kind == "sinusoid":
        spec = SinePath(amplitude=draw(st.floats(0.2, 2.0)),
                        wavelength=draw(st.floats(5.0, 15.0)), speed=speed)
    elif kind == "circle":
        spec = CirclePath(radius=draw(st.floats(2.0, 8.0)), omega=draw(st.floats(0.05, 0.3)),
                          phase=draw(st.floats(-math.pi, math.pi)))
    else:
        waypoints, heading = [(0.0, 0.0)], 0.0
        for _ in range(4):
            heading += draw(st.floats(-1.0, 1.0))
            length = draw(st.floats(4.0, 7.0))
            x, y = waypoints[-1]
            waypoints.append((x + length * math.cos(heading), y + length * math.sin(heading)))
        spec = PolylinePath(tuple(waypoints), speed=speed, fillet_radius=draw(st.floats(0.2, 1.0)))
    traj = build_reference(spec, dt, draw(st.sampled_from([5.0, 12.0, 20.0])))
    revision = draw(st.sampled_from(["none", "sync", "splice"]))
    if revision == "sync":
        traj = apply_sync(traj, draw(st.integers(-300, 300)), draw(st.integers(0, traj.n - 1)))
    elif revision == "splice":
        i = draw(st.integers(traj.n // 3, 2 * traj.n // 3))
        zone = DangerZone(float(traj.x[i]), float(traj.y[i]), draw(st.floats(0.2, 0.6)))
        side = draw(st.sampled_from(["left", "right"]))
        try:
            plan = plan_both_sides(traj, zone, path_crosses_zone(traj, zone))[side == "right"]
            traj = splice(traj, plan)
        except InfeasibleBypassError:
            assume(False)
    return traj


@settings(max_examples=80, deadline=None, derandomize=True)
@given(revised_references())
def test_row_equals_lookup_bit_for_bit(traj):
    for k in range(traj.n + 51):
        assert struct.pack("4d", *traj.row(k)) == struct.pack("4d", *traj.lookup(k * traj.dt))


# -- property: apply_sync re-indexes the tail and nothing else ------------------


@st.composite
def synced_references(draw):
    """A line or a filleted polyline, with a random shift applied from a
    random sample (possibly past the end)."""
    dt = draw(st.sampled_from([0.01, 0.02]))
    speed = draw(st.floats(0.5, 1.5))
    if draw(st.booleans()):
        spec = PolylinePath(((0.0, 0.0), (draw(st.floats(2.0, 20.0)), draw(st.floats(-3.0, 3.0)))),
                            speed=speed)
    else:
        waypoints, heading = [(0.0, 0.0)], 0.0
        for _ in range(draw(st.integers(2, 4))):
            heading += draw(st.floats(-1.2, 1.2))
            length = draw(st.floats(3.0, 6.0))
            x, y = waypoints[-1]
            waypoints.append((x + length * math.cos(heading), y + length * math.sin(heading)))
        spec = PolylinePath(tuple(waypoints), speed=speed, fillet_radius=draw(st.floats(0.0, 0.8)))
    traj = build_reference(spec, dt)
    shift = draw(st.integers(round(-1.2 * traj.n), round(1.2 * traj.n)))
    k = draw(st.integers(0, traj.n + round(1.0 / dt)))
    return traj, shift, k


@settings(max_examples=150, deadline=None, derandomize=True)
@given(synced_references())
def test_apply_sync_shifts_only_the_tail(case):
    traj, shift, i0 = case
    shifted = apply_sync(traj, shift, i0)
    n = traj.n
    assert shifted.n == n and shifted.dt == traj.dt
    for name in ("x", "y", "dx", "dy"):
        assert np.array_equal(getattr(shifted, name)[:i0], getattr(traj, name)[:i0])
    for i in range(i0, n):
        src = i + shift
        end = min(max(src, 0), n - 1)
        got = (shifted.x[i], shifted.y[i], shifted.dx[i], shifted.dy[i])
        if src == end:
            assert got == (traj.x[src], traj.y[src], traj.dx[src], traj.dy[src])
        else:   # shifted past an end: parked there
            assert got == (traj.x[end], traj.y[end], 0.0, 0.0)
