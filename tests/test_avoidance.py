import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dubinsim.avoidance import (CLEARANCE_PAD, DangerZone, Obstacle, discover,
                                path_crosses_zone, plan_both_sides, select_side,
                                splice)
from dubinsim.errors import ConfigError, InfeasibleBypassError
from dubinsim.reference import PolylinePath, ReferenceTrajectory, build_reference
from dubinsim.scenario import WORLD, AvoidanceConfig, ScenarioConfig

DT = 0.01


def line_traj():
    return build_reference(PolylinePath(waypoints=((0.0, 0.0), (25.0, 0.0)), speed=1.0),
                           DT, 20.0)


# -- discovery ----------------------------------------------------------------


def test_discover_respects_sensing_radius():
    obs = [Obstacle(100.0, 0.0, 1.0), Obstacle(9.9, 0.0, 1.0), Obstacle(0.0, 30.0, 1.0)]
    st = (5.0, 0.0, 0.0)
    # nothing is still to appear; the nearest one out of range is 30 m off
    assert discover(obs, st, 10.0) == ([1], math.inf, 30.0)


def test_discover_respects_appearance_time():
    obs = [Obstacle(1.0, 0.0, 0.5, t_appear=8.0), Obstacle(2.0, 0.0, 0.5, t_appear=9.0)]
    assert discover(obs, (5.0, 0.0, 0.0), 10.0) == ([], 8.0, math.inf)
    assert discover(obs, (8.0, 0.0, 0.0), 10.0) == ([0], 9.0, math.inf)


def test_discover_is_monotone_via_known_set():
    obs = [Obstacle(1.0, 0.0, 0.5), Obstacle(0.0, 12.0, 0.5, t_appear=3.0)]
    st = (0.0, 0.0, 0.0)
    assert discover(obs, st, 10.0, known={0}) == ([], 3.0, math.inf)
    assert discover(obs, (3.0, 0.0, 0.0), 10.0, known={0}) == ([], math.inf, 12.0)
    assert discover(obs, (3.0, 0.0, 0.0), 10.0, known={0, 1}) == ([], math.inf, math.inf)


def test_danger_zone_inflates_radius():
    z = Obstacle(1.0, 2.0, 0.8).danger_zone(0.5)
    assert z == DangerZone(1.0, 2.0, 1.3)
    with pytest.raises(ValueError):
        Obstacle(0.0, 0.0, 1.0).danger_zone(0.0)


# -- crossing detection ---------------------------------------------------------


def test_no_crossing_when_zone_far():
    assert path_crosses_zone(line_traj(), DangerZone(5.0, 10.0, 1.0)) is None


def test_chord_crossing_interval():
    # line y=0 hits the unit circle at (5,0) exactly on x in (4, 6)
    t_in, t_out = path_crosses_zone(line_traj(), DangerZone(5.0, 0.0, 1.0))
    assert t_in == pytest.approx(4.0, abs=1e-6)
    assert t_out == pytest.approx(6.0, abs=1e-6)


def test_offcenter_chord_crossing_interval():
    # chord of half-length sqrt(1 - 0.5^2) around x = 5
    half = math.sqrt(1.0 - 0.25)
    t_in, t_out = path_crosses_zone(line_traj(), DangerZone(5.0, 0.5, 1.0))
    assert t_in == pytest.approx(5.0 - half, abs=1e-6)
    assert t_out == pytest.approx(5.0 + half, abs=1e-6)


def test_tangent_contact_is_not_a_crossing():
    assert path_crosses_zone(line_traj(), DangerZone(5.0, 1.0, 1.0)) is None


def test_crossing_scan_starts_at_t_from():
    # the scan starts at sample i0, the time i0 * dt
    traj = line_traj()
    zone = DangerZone(5.0, 0.0, 1.0)
    assert path_crosses_zone(traj, zone, 700) is None
    t_in, _ = path_crosses_zone(traj, zone, 500)
    assert t_in == pytest.approx(5.0)  # already inside at scan start


@pytest.mark.parametrize("a, b, zone, crossing", [
    # a lies on the circle and the computed dot product of b - a with a - c
    # is exactly 0, yet b rounds inside: both roots are 0, with no quotient
    ((0.4511573444806345, 0.3504902024042167), (0.4511573443498158, 0.3504902025726089),
     DangerZone(0.0, 0.0, 0.571302311793123), (0.0, DT)),
    # b rounds inside, but the quadratic's root lies just past b
    ((1.5676284760152908, -1.5405044999708053), (1.5497101566303157, -1.5710114981026595),
     DangerZone(-0.21430464409162653, -2.964382628574544, 2.247939350694002), (DT, DT)),
    # b rounds inside, though b - a points away from the centre: both roots
    # lie before a
    ((0.9963812004461974, -8.493518358390842), (0.9963812000154622, -8.49351836260997),
     DangerZone(3.756784144015528, -8.775330759511395, 2.774750914999679), (0.0, DT)),
], ids=["rounded-tangent", "root-past-b", "root-before-a"])
def test_crossing_time_stays_on_its_segment_when_rounding_decides(a, b, zone, crossing):
    z = np.zeros(2)
    traj = ReferenceTrajectory(dt=DT, table=np.column_stack(([a[0], b[0]], [a[1], b[1]], z, z)))
    d2 = (traj.x - zone.cx) ** 2 + (traj.y - zone.cy) ** 2    # as the scan squares
    assert list(d2 < zone.r_danger ** 2) == [False, True]
    assert path_crosses_zone(traj, zone) == crossing


def bisected_crossing(xa, ya, xb, yb, ta, tb, cx, cy, r2, iters=60):
    """The zone-boundary crossing time on the segment from a to b, one end
    inside, by halving the segment ``iters`` times: how ``path_crosses_zone``
    found it before it solved the quadratic."""
    lo, hi = 0.0, 1.0
    inside_b = (xb - cx) ** 2 + (yb - cy) ** 2 < r2
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        mx = xa + mid * (xb - xa)
        my = ya + mid * (yb - ya)
        if (((mx - cx) ** 2 + (my - cy) ** 2) < r2) == inside_b:
            hi = mid
        else:
            lo = mid
    s = 0.5 * (lo + hi)
    return ta + s * (tb - ta)


@st.composite
def zone_segments(draw):
    """A danger circle and a segment of length ell with one end strictly
    inside it, entering (outside end first) or leaving.  The segment's line
    passes h = r*(1 - 10**-e) from the centre: a diameter at e = 0, a chord of
    half-length 0.14*r, 1% of r short of tangency, at e = 2.  Much closer to
    tangency the float inputs no longer fix the crossing to 1e-12 of a short
    segment: at e = 3 and ell = 0.01 both methods miss the exact root by
    about 6e-13, in opposite directions."""
    cx, cy = draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))
    r = draw(st.floats(0.5, 3.0))
    h = r * (1.0 - 10.0 ** -draw(st.floats(0.0, 2.0)))
    half = math.sqrt(r * r - h * h)
    ell = draw(st.floats(0.01, 2.0))
    # the inside end lies on the chord within ell of the end it leaves by
    u_in = half - draw(st.floats(0.0, 1.0, exclude_min=True)) * min(ell, 2.0 * half)
    psi = draw(st.floats(0.0, 2.0 * math.pi))
    ux, uy = math.cos(psi), math.sin(psi)
    px, py = cx - h * uy, cy + h * ux     # the chord's midpoint
    p_in = (px + u_in * ux, py + u_in * uy)
    p_out = (px + (u_in + ell) * ux, py + (u_in + ell) * uy)
    entering = draw(st.booleans())
    a, b = (p_out, p_in) if entering else (p_in, p_out)
    zone = DangerZone(cx, cy, r)
    d2 = (np.array([a[0], b[0]]) - cx) ** 2 + (np.array([a[1], b[1]]) - cy) ** 2
    assume(list(d2 < r ** 2) == [not entering, entering])    # not undone by rounding
    return zone, a, b, draw(st.floats(0.001, 1.0)), entering


@settings(max_examples=300, deadline=None, derandomize=True)
@given(zone_segments())
def test_closed_form_crossing_matches_bisection(case):
    zone, (xa, ya), (xb, yb), dt, entering = case
    z = np.zeros(2)
    traj = ReferenceTrajectory(dt=dt, table=np.column_stack(([xa, xb], [ya, yb], z, z)))
    t_in, t_out = path_crosses_zone(traj, zone)
    want = bisected_crossing(xa, ya, xb, yb, 0.0, dt, zone.cx, zone.cy, zone.r_danger ** 2)
    if entering:
        assert t_out == traj.tf
        assert abs(t_in - want) <= 1e-12 * dt
    else:
        assert t_in == 0.0
        assert abs(t_out - want) <= 1e-12 * dt


# -- bypass geometry ------------------------------------------------------------


def tangent_arc_tangent_length(ax, ay, bx, by, cx, cy, r, side):
    """Independent closed-form oracle for the wrap length."""
    da = math.hypot(ax - cx, ay - cy)
    db = math.hypot(bx - cx, by - cy)
    phi_a = math.atan2(ay - cy, ax - cx)
    phi_b = math.atan2(by - cy, bx - cx)
    th_a, th_b = math.acos(r / da), math.acos(r / db)
    if side == "right":
        sweep = ((phi_b - th_b) - (phi_a + th_a)) % (2 * math.pi)
    else:
        sweep = ((phi_a - th_a) - (phi_b + th_b)) % (2 * math.pi)
    return math.sqrt(da ** 2 - r ** 2) + r * sweep + math.sqrt(db ** 2 - r ** 2)


def test_symmetric_zone_gives_mirror_plans():
    traj = line_traj()
    zone = DangerZone(5.0, 0.0, 1.0)
    crossing = path_crosses_zone(traj, zone)
    left, right = plan_both_sides(traj, zone, crossing, lead=0.5)
    assert left.detour_length == pytest.approx(right.detour_length, abs=1e-9)
    assert left.table[:, 1].max() == pytest.approx(-right.table[:, 1].min(), abs=1e-9)
    assert right.table[:, 1].min() < -0.9  # right wrap actually dips below
    assert left.side == "left" and right.side == "right"


def test_detour_lengths_match_geometry_oracle():
    traj = line_traj()
    for cy in (0.0, 0.3, -0.4):
        zone = DangerZone(5.0, cy, 1.0)
        crossing = path_crosses_zone(traj, zone)
        left, right = plan_both_sides(traj, zone, crossing, lead=0.5)
        for plan in (left, right):
            ax, ay = traj.row(plan.i_start)[:2]
            bx, by = traj.row(plan.i_exit)[:2]
            expect = tangent_arc_tangent_length(ax, ay, bx, by, zone.cx, zone.cy,
                                                zone.r_danger + CLEARANCE_PAD, plan.side)
            replaced = traj.path_length(plan.i_start, plan.i_exit)
            assert plan.detour_length == pytest.approx(expect - replaced, abs=1e-9)
            assert plan.detour_length >= -1e-9


def arc_sweep(plan, zone):
    """Angle the plan's samples on the planning circle span around its centre."""
    x, y = plan.table[:, 0], plan.table[:, 1]
    r = np.hypot(x - zone.cx, y - zone.cy)
    on = np.abs(r - (zone.r_danger + CLEARANCE_PAD)) <= 1e-9
    angles = np.unwrap(np.arctan2(y[on] - zone.cy, x[on] - zone.cx))
    return abs(angles[-1] - angles[0])


def test_offset_zone_shorter_wrap_is_away_from_center():
    # center above the path: the below (right) wrap subtends the smaller arc,
    # since tangent segment lengths are equal on both sides
    traj = line_traj()
    zone = DangerZone(5.0, 0.5, 1.0)
    crossing = path_crosses_zone(traj, zone)
    left, right = plan_both_sides(traj, zone, crossing, lead=0.5)
    assert right.detour_length < left.detour_length
    assert arc_sweep(right, zone) < arc_sweep(left, zone)
    # mirrored center flips the comparison
    zone2 = DangerZone(5.0, -0.5, 1.0)
    left2, right2 = plan_both_sides(traj, zone2, path_crosses_zone(traj, zone2))
    assert left2.detour_length < right2.detour_length


def test_bypass_keeps_clearance_and_smooth_heading():
    traj = line_traj()
    for cy in (0.0, 0.45):
        zone = DangerZone(5.0, cy, 1.2)
        crossing = path_crosses_zone(traj, zone)
        for plan in plan_both_sides(traj, zone, crossing, lead=0.5):
            x, y, dx, dy = plan.table.T
            dist = np.hypot(x - zone.cx, y - zone.cy)
            assert dist.min() >= zone.r_danger - 1e-9
            heading = np.unwrap(np.arctan2(dy, dx))
            assert np.abs(np.diff(heading)).max() < 0.05  # tangent junctions are smooth
            speed = np.hypot(dx, dy)
            assert np.allclose(speed, speed[0], atol=1e-9)


def test_bypass_endpoints_sit_on_reference():
    traj = line_traj()
    zone = DangerZone(5.0, 0.0, 1.0)
    plan = plan_both_sides(traj, zone, path_crosses_zone(traj, zone))[1]
    assert tuple(plan.table[0, :2]) == traj.row(plan.i_start)[:2]
    assert tuple(plan.table[-1, :2]) == traj.row(plan.i_exit)[:2]
    assert plan.i_end == plan.i_start + len(plan.table) - 1


def test_anchor_pushed_out_of_zone():
    # zone so large that t_in - lead lies inside it: anchor must move earlier
    traj = line_traj()
    zone = DangerZone(6.0, 0.0, 2.5)
    crossing = path_crosses_zone(traj, zone)
    plan = plan_both_sides(traj, zone, crossing, lead=0.1)[1]
    ax, ay = traj.row(plan.i_start)[:2]
    assert math.hypot(ax - zone.cx, ay - zone.cy) > zone.r_danger


def test_infeasible_when_no_outside_anchor():
    # current sample already inside the zone: no entry anchor can exist
    traj = line_traj()
    zone = DangerZone(10.0, 0.0, 1.0)
    crossing = path_crosses_zone(traj, zone, 950)
    with pytest.raises(InfeasibleBypassError, match="^no entry anchor outside the danger zone$"):
        plan_both_sides(traj, zone, crossing, i_min=950)
    # the reference ends inside the zone: no exit anchor can exist
    zone = DangerZone(24.5, 0.0, 1.0)
    with pytest.raises(InfeasibleBypassError, match="^no exit anchor outside the danger zone$"):
        plan_both_sides(traj, zone, path_crosses_zone(traj, zone))


def test_a_wrap_is_flown_at_the_reference_speed():
    # the line runs at 2 m/s: the wrap's samples are the fewest that keep
    # its speed at or below 2 m/s
    traj = build_reference(PolylinePath(waypoints=((0.0, 0.0), (25.0, 0.0)), speed=2.0), DT)
    zone = DangerZone(10.0, 0.2, 1.0)
    for plan in plan_both_sides(traj, zone, path_crosses_zone(traj, zone)):
        n_b = plan.i_end - plan.i_start
        wrap = plan.detour_length + traj.path_length(plan.i_start, plan.i_exit)
        assert n_b * DT * 2.0 >= wrap - 1e-9
        assert wrap > (n_b - 1) * DT * 2.0


def test_select_side_rules():
    traj = line_traj()
    zone = DangerZone(5.0, 0.5, 1.0)
    left, right = plan_both_sides(traj, zone, path_crosses_zone(traj, zone))
    # center above: right is the shorter wrap here, so heol picks it; force the
    # opposite ordering with the mirrored zone to see heol pick left
    assert select_side(left, right, "heol") is right
    zone2 = DangerZone(5.0, -0.5, 1.0)
    left2, right2 = plan_both_sides(traj, zone2, path_crosses_zone(traj, zone2))
    assert select_side(left2, right2, "heol") is left2
    assert select_side(left2, right2, "mfpc") is right2  # right regardless of length
    # ties go right
    zone3 = DangerZone(5.0, 0.0, 1.0)
    left3, right3 = plan_both_sides(traj, zone3, path_crosses_zone(traj, zone3))
    assert select_side(left3, right3, "heol") is right3


# -- splice ---------------------------------------------------------------------


def spliced_line(zone=None):
    traj = line_traj()
    zone = zone or DangerZone(5.0, 0.0, 1.0)
    plan = plan_both_sides(traj, zone, path_crosses_zone(traj, zone))[1]
    return traj, zone, plan, splice(traj, plan)


def test_splice_preserves_prefix_exactly():
    traj, _, plan, new = spliced_line()
    i = plan.i_start
    assert np.array_equal(new.x[:i], traj.x[:i])
    assert np.array_equal(new.y[:i], traj.y[:i])


def test_splice_junction_continuity():
    traj, _, plan, new = spliced_line()
    for i in (plan.i_start, plan.i_end):
        before = new.row(i - 1)[:2]
        here = new.row(i)[:2]
        assert math.hypot(here[0] - before[0], here[1] - before[1]) <= 1.5 * DT


def test_splice_minimum_distance_is_danger_radius():
    _, zone, _, new = spliced_line()
    d = np.hypot(new.x - zone.cx, new.y - zone.cy)
    assert d.min() == pytest.approx(zone.r_danger, abs=1e-3)


def test_splice_retimes_the_tail():
    traj, _, plan, new = spliced_line()
    shift = plan.i_exit - plan.i_end
    assert shift <= 0  # the wrap takes longer than the chord
    # every sample after the bypass reads the original shift samples later
    i0 = plan.i_end + 1
    assert np.array_equal(new.x[i0:], traj.x[i0 + shift:traj.n + shift])
    assert np.array_equal(new.dx[i0:], traj.dx[i0 + shift:traj.n + shift])
    # tail resumes the original path right after the exit anchor
    bx, by = traj.row(plan.i_exit)[:2]
    assert new.row(plan.i_end)[:2] == pytest.approx((bx, by), abs=1e-9)
    assert new.row(plan.i_end + 100)[0] == pytest.approx(bx + 1.0, abs=1e-9)


def test_splice_is_idempotent_against_same_zone():
    _, zone, plan, new = spliced_line()
    assert path_crosses_zone(new, zone, 0) is None


def test_sequential_obstacles_replan_on_spliced_reference():
    traj = line_traj()
    z1 = DangerZone(5.0, 0.0, 1.0)
    z2 = DangerZone(12.0, 0.2, 1.0)
    plan1 = plan_both_sides(traj, z1, path_crosses_zone(traj, z1))[1]
    t1 = splice(traj, plan1)
    crossing2 = path_crosses_zone(t1, z2, 0)
    assert crossing2 is not None
    plan2 = plan_both_sides(t1, z2, crossing2)[0]
    t2 = splice(t1, plan2)
    for z in (z1, z2):
        assert path_crosses_zone(t2, z, 0) is None
        assert np.hypot(t2.x - z.cx, t2.y - z.cy).min() >= z.r_danger - 1e-6


# -- property: plans and splices on random crossings -----------------------------


@st.composite
def crossings(draw):
    """A reference (the 25 m line or a filleted polyline at speed v), a danger
    zone centred near the middle of one of its legs, and the current sample:
    early enough that the vehicle is still outside the zone, or already past
    the entry anchor, inside it.  Turns of at most 0.5 rad keep the path from
    re-entering the zone after it leaves."""
    v = draw(st.floats(0.5, 1.5))
    if draw(st.booleans()):
        waypoints, leg, frac = [(0.0, 0.0), (25.0, 0.0)], 0, draw(st.floats(0.3, 0.7))
        fillet = 0.5
    else:
        waypoints, heading = [(0.0, 0.0)], 0.0
        for _ in range(4):
            heading = min(1.0, max(-1.0, heading + draw(st.floats(-0.5, 0.5))))
            length = draw(st.floats(5.0, 8.0))
            x, y = waypoints[-1]
            waypoints.append((x + length * math.cos(heading), y + length * math.sin(heading)))
        leg, frac = draw(st.sampled_from([1, 2])), draw(st.floats(0.4, 0.6))
        fillet = draw(st.floats(0.2, 1.0))
    traj = build_reference(PolylinePath(waypoints=tuple(waypoints), speed=v,
                                        fillet_radius=fillet), DT)
    (ax, ay), (bx, by) = waypoints[leg], waypoints[leg + 1]
    length = math.hypot(bx - ax, by - ay)
    lateral = draw(st.floats(-0.3, 0.3))
    cx = ax + frac * (bx - ax) - lateral * (by - ay) / length
    cy = ay + frac * (by - ay) + lateral * (bx - ax) / length
    r = draw(st.floats(0.5, 1.2))
    s_centre = sum(math.dist(p, q) for p, q in zip(waypoints[:leg], waypoints[1:leg + 1]))
    s_centre += frac * length
    k = int(draw(st.floats(0.0, 1.0)) * (s_centre - r - 1.0) / (v * DT))
    if draw(st.booleans()):
        inside = np.flatnonzero(np.hypot(traj.x - cx, traj.y - cy) < r)
        k = int(inside[int(draw(st.floats(0.0, 1.0)) * (len(inside) - 1))])
    return traj, DangerZone(cx, cy, r), k, v


@settings(max_examples=100, deadline=None, derandomize=True)
@given(crossings())
def test_bypass_plans_clear_the_zone_and_splice_cleanly(case):
    traj, zone, k, v = case
    crossing = path_crosses_zone(traj, zone, k)
    assert crossing is not None
    if math.hypot(traj.x[k] - zone.cx, traj.y[k] - zone.cy) < zone.r_danger:
        # no entry anchor: neither side is built
        with pytest.raises(InfeasibleBypassError, match="no entry anchor"):
            plan_both_sides(traj, zone, crossing, lead=0.5, i_min=k)
        return
    plans = plan_both_sides(traj, zone, crossing, lead=0.5, i_min=k)
    for plan in plans:
        x, y, dx, dy = plan.table.T
        assert np.hypot(x - zone.cx, y - zone.cy).min() >= zone.r_danger - 1e-9
        assert tuple(plan.table[0, :2]) == traj.row(plan.i_start)[:2]
        assert tuple(plan.table[-1, :2]) == traj.row(plan.i_exit)[:2]
        speed = np.hypot(dx, dy)
        assert np.allclose(speed, speed[0], rtol=0.0, atol=1e-9)

        new = splice(traj, plan)
        i_start = plan.i_start
        for a, b in ((new.x, traj.x), (new.y, traj.y), (new.dx, traj.dx), (new.dy, traj.dy)):
            assert np.array_equal(a[:i_start], b[:i_start])
        i_end = i_start + len(plan.table) - 1
        for i in (i_start, i_start + 1, i_end, i_end + 1):
            step = math.hypot(new.x[i] - new.x[i - 1], new.y[i] - new.y[i - 1])
            assert step <= 1.5 * v * DT
        assert path_crosses_zone(new, zone, plan.i_start) is None


# -- property: the edge of the world --------------------------------------------


def log_uniform(lo, hi=WORLD):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0 ** e, lo), hi))


lengths = st.floats(-WORLD, WORLD)
radii = st.floats(0.0, WORLD, exclude_min=True)
scales = log_uniform(1.0 / WORLD)


@st.composite
def world_edge_cases(draw):
    """A config doc whose path has lengths up to +-WORLD and scales
    log-uniform over [1/WORLD, WORLD], of at most ~200 samples, plus a zone
    (radius, margin) to centre on one of its samples and the lead."""
    kind = draw(st.sampled_from(("polyline", "circle", "sinusoid")))
    if kind == "polyline":
        points = draw(st.lists(st.tuples(lengths, lengths), min_size=2, max_size=4,
                               unique=True))
        legs = [math.dist(p, q) for p, q in zip(points, points[1:])]
        speed = draw(log_uniform(max(1.0 / WORLD, sum(legs) / 2e8)))
        dt = draw(log_uniform(max(1.0 / WORLD, sum(legs) / speed / 200)))
        path = {"waypoints": points, "speed": speed,
                "fillet_radius": draw(st.floats(0.0, 0.25)) * min(legs)}
    elif kind == "circle":
        dt = draw(scales)
        path = {"cx": draw(lengths), "cy": draw(lengths), "radius": draw(radii),
                "omega": draw(lengths),
                "phase": draw(st.floats(allow_nan=False, allow_infinity=False))}
    else:
        dt = draw(scales)
        path = {"amplitude": draw(lengths), "wavelength": draw(scales), "speed": draw(scales),
                "x0": draw(lengths), "y0": draw(lengths)}
    doc = {"version": 1, "dt": dt, "duration": dt * draw(st.integers(1, 200)),
           "path": {"kind": kind, **path},
           "heol": {"t_window": 4 * dt}}   # the shortest window on the grid
    return doc, draw(st.floats(0.0, 1.0)), (draw(radii), draw(scales)), draw(st.floats(0.0, 10.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(world_edge_cases())
def test_in_world_configs_build_scan_and_plan_without_overflow(case):
    # no rescaling guards the crossing scan or the planner: the world bound
    # keeps every square, step count and wrap length finite
    doc, pick, (r, margin), lead = case
    try:
        cfg = ScenarioConfig.from_dict(doc)
    except ConfigError:
        return
    with np.errstate(over="raise", invalid="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = build_reference(cfg.path_spec(), cfg.dt, cfg.duration)
        assert np.isfinite(traj.table).all()
        j = int(pick * (traj.n - 1))
        centre = (min(max(v, -WORLD), WORLD) for v in traj.row(j)[:2])
        cfg = replace(cfg, obstacles=(Obstacle(*centre, r),),
                      avoidance=AvoidanceConfig(margin=margin, lead=lead))
        zone = cfg.obstacles[0].danger_zone(margin)
        crossing = path_crosses_zone(traj, zone)
        if crossing is not None:
            try:
                plan_both_sides(traj, zone, crossing, lead=lead)
            except InfeasibleBypassError:   # a rule refused the wrap; nothing overflowed
                pass
