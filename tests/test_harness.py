import itertools
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dubinsim import avoidance, harness
from dubinsim.avoidance import Obstacle
from dubinsim.cli import main
from dubinsim.errors import ConfigError, StateIntegrityError
from dubinsim.estimation import FWindow
from dubinsim.harness import SERIES, emit, place_crossing_obstacle, run_scenario, run_sweep
from dubinsim.mfpc import MfpcController
from dubinsim.model import perturbation_levels
from dubinsim.presets import (LINE_PATH, SINE_PATH, nominal_tracking, robustness_scenario,
                              safety_scenario, startup_offset_scenario)
from dubinsim.reference import PolylinePath, ReferenceTrajectory, build_reference
from dubinsim.scenario import (AvoidanceConfig, HeolConfig, NoiseConfig, PerturbationConfig,
                               ScenarioConfig, SyncConfig)

DT = 0.01
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def crossing_obstacle(cfg, seed):
    return place_crossing_obstacle(build_reference(cfg.path, cfg.dt, cfg.duration), seed)


def test_config_defaults_match_experiment_regime():
    cfg = ScenarioConfig()
    assert cfg.dt == 0.01
    assert cfg.duration == 20.0
    assert cfg.noise.sigma == 0.1
    assert cfg.perturbation.low == -0.5
    assert cfg.perturbation.high == 0.5


def test_config_round_trip_and_validation(tmp_path):
    cfg = safety_scenario("mfpc", seed=5)
    path = tmp_path / "cfg.json"
    cfg.save(path)
    loaded = ScenarioConfig.from_file(path)
    assert loaded.to_dict() == cfg.to_dict()
    with pytest.raises(ConfigError):
        ScenarioConfig(duration=20.005)  # not a multiple of dt
    with pytest.raises(ConfigError):
        ScenarioConfig(controller="pid")
    with pytest.raises(ConfigError):
        ScenarioConfig(perturbation=PerturbationConfig(low=-0.7))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"version": 99})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"bogus_key": 1})


@pytest.mark.parametrize("threshold", [-1.0, -1e-12, math.nan])
def test_negative_startup_threshold_is_refused(threshold):
    with pytest.raises(ConfigError, match="startup_threshold"):
        ScenarioConfig(sync=SyncConfig(startup_threshold=threshold))
    ScenarioConfig(sync=SyncConfig(startup_threshold=0.0))   # sync whenever off the start


def test_series_lengths_and_time_grid():
    r = run_scenario(nominal_tracking("heol", "line"))
    n = int(round(20.0 / DT)) + 1
    assert all(len(getattr(r, k)) == n for k in
               ("t", "x", "y", "x_meas", "y_meas", "x_ref", "y_ref", "u1", "u2", "p"))
    ticks = r.t / DT
    assert np.abs(ticks - np.round(ticks)).max() < 1e-9
    assert np.all(np.isfinite(r.x))


def test_run_determinism_bitwise():
    cfg = robustness_scenario("heol", seed=11)
    cfg = replace(cfg, obstacles=(crossing_obstacle(cfg, 11),))
    a, b = run_scenario(cfg), run_scenario(cfg)
    for key in ("x", "y", "x_meas", "u1", "u2", "fhat_x", "fhat_y", "p"):
        assert np.array_equal(getattr(a, key), getattr(b, key))
    assert a.events == b.events
    assert a.metrics == b.metrics


def test_undiscoverable_obstacle_gives_identical_result():
    base = nominal_tracking("heol", "line", seed=3)
    far = replace(base, obstacles=(Obstacle(1000.0, 1000.0, 1.0),))
    ra, rb = run_scenario(base), run_scenario(far)
    assert np.array_equal(ra.x, rb.x)
    assert np.array_equal(ra.u1, rb.u1)
    assert [e for e in rb.events if e["kind"] != "discovery"] == ra.events
    assert rb.metrics["n_bypasses"] == 0


def test_discovered_noncrossing_obstacle_leaves_series_untouched():
    base = nominal_tracking("heol", "line", seed=3)
    aside = replace(base, obstacles=(Obstacle(10.0, 3.0, 1.0),))  # seen, never crossed
    ra, rb = run_scenario(base), run_scenario(aside)
    assert np.array_equal(ra.x, rb.x)
    assert np.array_equal(ra.y, rb.y)
    assert any(e["kind"] == "discovery" for e in rb.events)
    assert not any(e["kind"] == "bypass_start" for e in rb.events)


def test_noise_streams_identical_across_controllers():
    # the recovered draws differ only by the re-rounding of x + draw - x
    heol_cfg = safety_scenario("heol", seed=21)
    mfpc_cfg = safety_scenario("mfpc", seed=21)
    ra, rb = run_scenario(heol_cfg), run_scenario(mfpc_cfg)
    assert np.allclose(ra.x_meas - ra.x, rb.x_meas - rb.x, atol=1e-12)
    assert np.allclose(ra.y_meas - ra.y, rb.y_meas - rb.y, atol=1e-12)
    assert np.array_equal(ra.p, rb.p)


def test_bypass_pipeline_keeps_clearance():
    cfg = safety_scenario("heol", seed=31)
    cfg = replace(cfg, obstacles=(Obstacle(10.0, 0.1, 0.8),))
    r = run_scenario(cfg)
    assert not r.aborted
    starts = [e for e in r.events if e["kind"] == "bypass_start"]
    ends = [e for e in r.events if e["kind"] == "bypass_end"]
    assert len(starts) == 1 and len(ends) == 1
    assert r.metrics["min_clearance"][0] >= 0.8  # never inside the physical disk
    assert r.metrics["detour_total"] > 0


def test_mfpc_run_has_no_aux_controls_and_bounded_heading():
    cfg = safety_scenario("mfpc", seed=33)
    cfg = replace(cfg, obstacles=(Obstacle(10.0, -0.2, 0.8),))
    r = run_scenario(cfg)
    assert np.isnan(r.nu1).all() and np.isnan(r.nu2).all()
    assert np.nanmax(np.abs(r.u2)) <= math.pi / 2 - 0.01 + 1e-12
    assert all(e["side"] == "right" for e in r.events if e["kind"] == "bypass_start")


def test_obstacle_appearing_mid_run_triggers_replan():
    cfg = safety_scenario("heol", seed=35)
    cfg = replace(cfg, obstacles=(Obstacle(12.0, 0.0, 0.8, t_appear=9.0),))
    r = run_scenario(cfg)
    disc = [e for e in r.events if e["kind"] == "discovery"]
    assert disc and disc[0]["t"] >= 9.0
    assert r.metrics["min_clearance"][0] >= 0.8


def test_startup_sync_event_and_benefit():
    r_on = run_scenario(startup_offset_scenario(True))
    r_off = run_scenario(startup_offset_scenario(False))
    syncs = [e for e in r_on.events if e["kind"] == "sync"]
    assert syncs and syncs[0]["reason"] == "startup"
    assert syncs[0]["tau"] == pytest.approx(3.0, abs=0.2)
    assert not any(e["kind"] == "sync" for e in r_off.events)
    assert r_on.metrics["reverse_distance"] <= 0.5 * r_off.metrics["reverse_distance"]


def test_a_sync_search_wider_than_the_run_writes_the_same_files(tmp_path):
    # the 25 s path and the 20 s run put every sample within 100 s of any
    # other, so no candidate past that changes the search; 1e308 / dt
    # overflows to inf
    files = []
    for tau_max in (100.0, 1e300, 1e308):
        cfg = startup_offset_scenario(True)
        cfg = replace(cfg, sync=replace(cfg.sync, tau_max=tau_max))
        result = run_scenario(cfg)
        assert not result.aborted
        paths = emit(result, tmp_path / str(tau_max), name="run")
        files.append([open(p, "rb").read() for p in paths])
    assert files[0] == files[1] == files[2]


def test_reverse_distance_metric_counts_backtracking():
    # the no-sync startup run must log the backtracking the controller causes
    r_off = run_scenario(startup_offset_scenario(False))
    assert r_off.metrics["reverse_distance"] > 1.0


def test_divergent_controller_aborts_with_flag():
    cfg = replace(nominal_tracking("heol", "line"), heol=HeolConfig(kx=1e6, ky=1e6))
    r = run_scenario(cfg)
    assert r.aborted
    assert r.abort_reason
    assert len(r.x) == 2001  # series stays full length, NaN-padded
    assert np.isnan(r.x[-1])


SHORT_LINE = replace(nominal_tracking("heol", "line"), duration=2.0)
# the obstacle a sweep from seed 100 draws for its run of seed 104
LATE_OBSTACLE = crossing_obstacle(safety_scenario("heol", 104), 104)


@pytest.mark.parametrize("cfg, prefix, suffix", [
    # the start lies inside the danger zone, so no anchor is outside it
    (replace(SHORT_LINE, obstacles=(Obstacle(0.5, 0.0, 0.8),)),
     "infeasible bypass: no entry anchor outside the danger zone", " at t=0.0"),
    # found late at 1.5 m: the reference point of the discovery sample already
    # lies inside the danger circle
    (replace(safety_scenario("heol", 104), obstacles=(LATE_OBSTACLE,),
             avoidance=AvoidanceConfig(sensing_radius=1.5)),
     "infeasible bypass: no entry anchor outside the danger zone", " at t=10.73"),
    (None, "controller fault: ", "non-finite measurement (nan, nan) at t=0.0"),
    # the state passes x = WORLD; the plant's own summed clock would read
    # 0.10999999999999999 here
    (replace(SHORT_LINE, heol=HeolConfig(kx=1e6, ky=1e6)),
     "state integrity: plant state (", ") left the world at t=0.11"),
    # overlapping zones: bypasses of the two alternate at t=7.32
    (replace(safety_scenario("heol", 1), duration=8.0, noise=NoiseConfig(enabled=False),
             obstacles=(Obstacle(11.0, 0.1, 0.6), Obstacle(12.1, -1.45, 0.9))),
     "replanning loop exceeded limit (obstacles [0, 1])", " at t=7.32"),
    # a wrap that starts before the run's last sample but would end past the
    # reference's: it is planned, but not sampled
    (ScenarioConfig(obstacles=(Obstacle(21.0, 0.1, 2.0),)),
     "infeasible bypass: bypass extends past the end of the trajectory", " at t=16.03"),
], ids=["infeasible-bypass", "late-discovery-1.5m", "controller-fault", "state-integrity",
        "replan-limit", "slow-wrap-1e-6"])
def test_each_fault_ends_the_run_with_its_reason(monkeypatch, cfg, prefix, suffix):
    if cfg is None:   # a non-finite measurement faults the controller
        monkeypatch.setattr(harness, "measure", lambda x, y, noise: (math.nan, math.nan))
        cfg = SHORT_LINE
    r = run_scenario(cfg)
    assert r.aborted and r.abort_reason.startswith(prefix)
    assert r.abort_reason.endswith(suffix)   # the sample time k * dt
    assert len(r.x) == cfg.n_steps + 1 and np.isnan(r.x[-1])


# -- the per-sample record -------------------------------------------------------


RECORD_CASES = [robustness_scenario(controller, 5) for controller in ("heol", "mfpc")]


@pytest.fixture(scope="module")
def full_records():
    """The 2001-sample series of each RECORD_CASES run, by controller."""
    return {cfg.controller: run_series(run_scenario(cfg)) for cfg in RECORD_CASES}


def run_series(result):
    return {name: getattr(result, name) for name in SERIES}


def same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cfg", RECORD_CASES, ids=lambda c: c.controller)
@pytest.mark.parametrize("samples", [2, 255, 256, 257, 512, 513])
def test_a_shorter_run_records_a_prefix_of_the_longer_one(full_records, cfg, samples):
    short = run_series(run_scenario(replace(cfg, duration=(samples - 1) * DT)))
    full = full_records[cfg.controller]
    assert short.keys() == full.keys()
    for name, series in short.items():
        assert len(series) == samples
        assert same_bits(series, full[name][:samples]), name


@pytest.mark.parametrize("cfg", RECORD_CASES, ids=lambda c: c.controller)
@pytest.mark.parametrize("fail_at", [255, 256, 257])
def test_an_abort_at_a_block_edge_keeps_the_recorded_samples(monkeypatch, full_records,
                                                             cfg, fail_at):
    calls = itertools.count()
    step_plant = harness.step_plant

    def failing_step_plant(*args):
        if next(calls) == fail_at:
            raise StateIntegrityError("injected")
        return step_plant(*args)

    monkeypatch.setattr(harness, "step_plant", failing_step_plant)
    r = run_scenario(cfg)
    assert r.aborted and r.abort_reason == f"state integrity: injected at t={fail_at * DT}"
    full = full_records[cfg.controller]
    for name, series in run_series(r).items():
        # sample fail_at is recorded before its plant step raises
        assert same_bits(series[:fail_at + 1], full[name][:fail_at + 1]), name
        assert np.isnan(series[fail_at + 1:]).all(), name


@pytest.mark.parametrize("cfg", RECORD_CASES, ids=lambda c: c.controller)
def test_an_abort_before_the_sample_is_recorded_leaves_its_row_nan(monkeypatch, full_records,
                                                                   cfg):
    # from sample 300 on the measurement is NaN, so the controller faults
    # before the sample's row is written
    calls = itertools.count()
    measure = harness.measure

    def failing_measure(x, y, noise):
        xm, ym = measure(x, y, noise)
        return (xm, ym) if next(calls) < 300 else (math.nan, math.nan)

    monkeypatch.setattr(harness, "measure", failing_measure)
    r = run_scenario(cfg)
    assert r.aborted and r.abort_reason.startswith("controller fault: ")
    assert r.abort_reason.endswith(f" at t={300 * DT}")
    full = full_records[cfg.controller]
    for name, series in run_series(r).items():
        assert len(series) == cfg.n_steps + 1
        assert same_bits(series[:300], full[name][:300]), name
        assert np.isnan(series[300:]).all(), name


@pytest.mark.parametrize("cfg", RECORD_CASES, ids=lambda c: c.controller)
def test_the_record_holds_what_each_step_returned_and_used(monkeypatch, cfg):
    # t and the step's six outputs come from each sample's controller step,
    # F_hat being the two window estimates that step read, and p is the
    # level the plant step was given
    steps, estimates, levels = [], [], []
    controller = harness.HeolController if cfg.controller == "heol" else harness.MfpcController
    step, estimate, step_plant = controller.step, FWindow.estimate, harness.step_plant

    def logged_step(self, x_meas, y_meas, t, row):
        out = step(self, x_meas, y_meas, t, row)
        steps.append((t, *out))
        return out

    def logged_estimate(self):
        value = estimate(self)
        estimates.append(value)
        return value

    def logged_step_plant(x, y, u1, u2, p, dt):
        levels.append(p)
        return step_plant(x, y, u1, u2, p, dt)

    monkeypatch.setattr(controller, "step", logged_step)
    monkeypatch.setattr(FWindow, "estimate", logged_estimate)
    monkeypatch.setattr(harness, "step_plant", logged_step_plant)
    r = run_scenario(cfg)
    assert not r.aborted
    n = cfg.n_steps
    assert len(steps) == len(estimates) // 2 == n + 1
    logged = np.array(steps)
    for j, name in enumerate(("t", "u1", "u2", "nu1", "nu2", "fhat_x", "fhat_y")):
        assert same_bits(getattr(r, name), logged[:, j]), name
    assert same_bits(r.fhat_x, np.array(estimates[0::2]))
    assert same_bits(r.fhat_y, np.array(estimates[1::2]))
    assert same_bits(r.p[:n], np.array(levels))
    assert same_bits(r.p, np.array(perturbation_levels(cfg.perturbation, cfg.duration, n,
                                                       cfg.dt, cfg.seed)))


# -- what the loop reads and what it records --------------------------------------
#
# The loop writes each sample's row but its reference columns, which are
# filled after it from the final trajectory.  That holds because a revision at
# sample k rewrites rows >= k only.

SHORT_POLYLINE = PolylinePath(((0.0, 0.0), (5.0, 0.0)), speed=1.0)


def revision_cases():
    """Per controller: a bypass with a post-bypass sync, a startup sync, and
    a 5 m polyline with a bypass that the 12 s run outlasts, so it parks."""
    cases = []
    for controller in ("heol", "mfpc"):
        bypass = safety_scenario(controller, 9)
        cases += [
            replace(bypass, obstacles=(crossing_obstacle(bypass, 9),)),
            replace(startup_offset_scenario(True), name=f"startup-sync-{controller}",
                    controller=controller),
            ScenarioConfig(name=f"short-{controller}", controller=controller, duration=12.0,
                           path=SHORT_POLYLINE, obstacles=(Obstacle(2.5, 0.1, 0.4),)),
        ]
    return cases


REVISION_CASES = revision_cases()
# the revisions each case makes at least
REVISIONS = {"safety": {"splice", "post-bypass sync"}, "startup": {"startup sync"},
             "short": {"splice"}}


@pytest.mark.parametrize("cfg", REVISION_CASES, ids=lambda c: c.name)
def test_revisions_leave_earlier_rows_alone(monkeypatch, cfg):
    sample = [0]    # the current sample: measure runs first in each
    samples = itertools.count()
    revisions = []  # (kind, sample, input trajectory, revised trajectory)
    measure = harness.measure

    def counting_measure(x, y, noise):
        sample[0] = next(samples)
        return measure(x, y, noise)

    def logged(revise, kind):
        def wrapper(traj, *args):
            revised = revise(traj, *args)
            revisions.append((kind, sample[0], traj, revised))
            return revised
        return wrapper

    monkeypatch.setattr(harness, "measure", counting_measure)
    monkeypatch.setattr(harness, "apply_sync", logged(harness.apply_sync, "sync"))
    monkeypatch.setattr(avoidance, "splice", logged(avoidance.splice, "splice"))
    r = run_scenario(cfg)
    assert not r.aborted
    kinds = {kind if kind == "splice" else ("startup sync" if k == 0 else "post-bypass sync")
             for kind, k, _, _ in revisions}
    assert kinds >= REVISIONS[cfg.name.split("-")[0]]
    if cfg.name.startswith("short"):   # the run parks past the reference's end
        assert cfg.n_steps + 1 > revisions[0][2].n
    for kind, k, before, after in revisions:
        for name in ("x", "y", "dx", "dy"):
            assert same_bits(getattr(after, name)[:k], getattr(before, name)[:k]), (kind, k, name)


@pytest.mark.parametrize("cfg", [c for c in REVISION_CASES if c.controller == "heol"],
                         ids=lambda c: c.name)
def test_the_record_holds_the_rows_the_loop_read(monkeypatch, cfg):
    # HEOL reads row k at sample k, so the reference columns are those rows;
    # only the reads from the first sample on are logged, not the start
    # point's and the startup sync check's row 0 before the loop
    read = []
    row = ReferenceTrajectory.row
    measure = harness.measure
    in_loop = [False]   # set by the first sample's measure

    def marking_measure(x, y, noise):
        in_loop[0] = True
        return measure(x, y, noise)

    def logged_row(traj, k):
        value = row(traj, k)
        if in_loop[0]:
            read.append((k, value))
        return value

    monkeypatch.setattr(ReferenceTrajectory, "row", logged_row)
    monkeypatch.setattr(harness, "measure", marking_measure)
    result = run_scenario(cfg)
    assert [k for k, _ in read] == list(range(cfg.n_steps + 1))
    want = np.array([value for _, value in read])
    for j, name in enumerate(("x_ref", "y_ref", "dx_ref", "dy_ref")):
        assert same_bits(getattr(result, name), want[:, j]), name


def test_discovery_uses_the_sample_clock():
    # by t=50 the plant's summed clock lags 5000 * dt by more than 1e-12
    cfg = ScenarioConfig(duration=60.0, path=PolylinePath(((0, 0), (70, 0))),
                         obstacles=(Obstacle(53.0, 0.1, 0.5, t_appear=50.0),))
    r = run_scenario(cfg)
    assert [e["t"] for e in r.events if e["kind"] == "discovery"] == [50.0]


@st.composite
def discovery_runs(draw):
    """A 2-4 s run with 1-4 obstacles near the path's first metres, each
    appearing at t=0, mid-run or exactly on a sample time, and sensed from
    0.1-8 m; HEOL or MFPC, perturbation on or off."""
    duration = draw(st.sampled_from((2.0, 3.0, 4.0)))
    appear = (st.just(0.0) | st.floats(0.0, duration)
              | st.integers(0, round(duration / DT)).map(lambda k: k * DT))
    obstacles = draw(st.lists(st.builds(
        Obstacle, cx=st.floats(0.5, 5.0), cy=st.floats(-3.0, 3.0), r=st.floats(0.1, 0.6),
        t_appear=appear), min_size=1, max_size=4))
    return ScenarioConfig(
        name="look", controller=draw(st.sampled_from(("heol", "mfpc"))), duration=duration,
        seed=draw(st.integers(0, 2**16)), path=draw(st.sampled_from((LINE_PATH, SINE_PATH))),
        obstacles=tuple(obstacles),
        perturbation=PerturbationConfig(enabled=draw(st.booleans())),
        avoidance=AvoidanceConfig(sensing_radius=draw(st.floats(0.1, 8.0))))


# the diverging run reaches positions near 1e300 before it aborts at t=0.85
@example(replace(SHORT_LINE, heol=HeolConfig(kx=1e6, ky=1e6),
                 obstacles=(Obstacle(1.0, 0.2, 0.3), Obstacle(3.0, -0.5, 0.4, t_appear=0.5),
                            Obstacle(50.0, 40.0, 0.5, t_appear=0.8))))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(discovery_runs())
def test_discovery_on_demand_equals_discovery_on_every_sample(cfg):
    lazy = run_scenario(cfg)
    discover = avoidance.discover

    def every_sample(obstacles, state, *args, **kwargs):
        # an obstacle appears now, and one is in range: look again next sample
        return discover(obstacles, state, *args, **kwargs)[0], state[0], 0.0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(avoidance, "discover", every_sample)
        eager = run_scenario(cfg)
    assert same_bits(lazy.record, eager.record)
    assert lazy.events == eager.events
    assert lazy.abort_reason == eager.abort_reason


def test_discover_runs_only_when_an_obstacle_can_come_into_range(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    one = robustness_scenario("heol", 0)
    one = replace(one, obstacles=(crossing_obstacle(one, 0),))
    # four obstacles that appear from t=5 s to 16 s; the decoy is never found
    four = ScenarioConfig.from_dict(workloads.cli_scenario(3))
    calls = []
    discover = avoidance.discover

    def counted(obstacles, state, *args, **kwargs):
        calls.append(state)
        return discover(obstacles, state, *args, **kwargs)

    monkeypatch.setattr(avoidance, "discover", counted)
    for cfg, found in ((one, [0]), (four, [0, 1, 2])):
        calls.clear()
        r = run_scenario(cfg)
        assert sorted(e["obstacle"] for e in r.events if e["kind"] == "discovery") == found
        assert calls[0][0] == 0.0 and len(calls) < 60   # of 2001 samples


@st.composite
def run_configs(draw):
    """Valid short scenarios on paths both controllers follow, with up to
    three obstacles, overlapping or not, near the 1-3 m the path covers."""
    obstacles = draw(st.lists(st.builds(
        Obstacle, cx=st.floats(0.5, 2.6), cy=st.floats(-1.2, 1.2), r=st.floats(0.05, 0.6),
        t_appear=st.floats(0.0, 3.0)), max_size=3))
    return ScenarioConfig(
        name="prop", controller=draw(st.sampled_from(("heol", "mfpc"))),
        duration=draw(st.sampled_from((1.0, 1.5, 2.0, 2.5, 3.0))),
        seed=draw(st.integers(0, 2**16)), path=draw(st.sampled_from((LINE_PATH, SINE_PATH))),
        obstacles=tuple(obstacles), sync=SyncConfig(enabled=draw(st.booleans())),
        noise=NoiseConfig(enabled=draw(st.booleans())))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(run_configs())
def test_a_run_never_raises_and_repeats_byte_for_byte(cfg):
    with tempfile.TemporaryDirectory() as out:
        files = [emit(run_scenario(cfg), out, name=f"run{i}") for i in range(2)]
        (csv_a, summary_a), (csv_b, summary_b) = [[open(p, "rb").read() for p in pair]
                                                  for pair in files]
    assert csv_a == csv_b and summary_a == summary_b


@st.composite
def shifted_runs(draw):
    """A 3-5 s run with noise on, a bent polyline, a start off the reference
    and one obstacle near the path, and the same run moved by a vector of up
    to 500 m in each axis."""
    bend = draw(st.tuples(st.floats(2.0, 4.0), st.floats(-1.0, 1.0)))
    waypoints = ((0.0, 0.0), bend, (12.0, draw(st.floats(-1.0, 1.0))))
    obstacle = draw(st.tuples(st.floats(1.5, 3.5), st.floats(-0.5, 0.5)))
    r = draw(st.floats(0.3, 0.7))
    start = draw(st.tuples(st.floats(-0.2, 0.6), st.floats(-0.3, 0.3)))
    shift = draw(st.tuples(st.floats(-500.0, 500.0), st.floats(-500.0, 500.0)))
    base = ScenarioConfig(name="shift", controller=draw(st.sampled_from(("heol", "mfpc"))),
                          duration=draw(st.sampled_from((3.0, 4.0, 5.0))),
                          seed=draw(st.integers(0, 2**16)))

    def moved(dx, dy):
        return replace(base, path=PolylinePath(tuple((x + dx, y + dy) for x, y in waypoints)),
                       start=(start[0] + dx, start[1] + dy),
                       obstacles=(Obstacle(obstacle[0] + dx, obstacle[1] + dy, r),))
    return moved(0.0, 0.0), moved(*shift)


# Positions hundreds of metres from zero feed the estimator's moments samples
# far larger than their differences (S2 grows as n^2*|f|); a translated run
# must still follow the same course.  HEOL's 31-sample windows re-sum their
# moments at sample 248, inside every run drawn here.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(shifted_runs())
def test_a_translated_run_keeps_its_course(pair):
    a, b = (run_scenario(cfg) for cfg in pair)

    def course(result):
        return [(e["kind"], round(e["t"] / DT), e.get("side")) for e in result.events]
    assert course(a) == course(b)
    assert a.aborted == b.aborted
    assert b.metrics["rms_tracking"] == pytest.approx(a.metrics["rms_tracking"], rel=1e-9)
    assert b.metrics["min_clearance"] == pytest.approx(a.metrics["min_clearance"], abs=1e-9)


@st.composite
def mirrored_runs(draw):
    """A 5 s HEOL run with noise off and the perturbation on or off, over a
    3-leg filleted polyline with one obstacle near its first corner and a
    start off the reference, and the same run reflected in the x axis."""
    corner = (draw(st.floats(1.5, 2.5)), draw(st.floats(-0.8, 0.8)))
    waypoints = ((0.0, 0.0), corner,
                 (corner[0] + draw(st.floats(2.0, 3.0)), draw(st.floats(-1.0, 1.0))),
                 (corner[0] + draw(st.floats(5.0, 6.0)), draw(st.floats(-1.0, 1.0))))
    obstacle = (corner[0] + draw(st.floats(-0.3, 0.3)), corner[1] + draw(st.floats(-0.3, 0.3)),
                draw(st.floats(0.3, 0.6)))
    start = draw(st.tuples(st.floats(-0.2, 0.4), st.floats(-0.3, 0.3)))
    base = ScenarioConfig(name="mirror", duration=5.0, seed=draw(st.integers(0, 2**16)),
                          noise=NoiseConfig(enabled=False),
                          perturbation=PerturbationConfig(enabled=draw(st.booleans())))

    def reflected(s):
        return replace(base, path=PolylinePath(tuple((x, s * y) for x, y in waypoints)),
                       start=(start[0], s * start[1]),
                       obstacles=(Obstacle(obstacle[0], s * obstacle[1], obstacle[2]),))
    return reflected(1.0), reflected(-1.0)


# Reflecting y -> -y negates every heading and y-error of a noise-free run
# (the perturbation scales the y-rate either way), so the vehicle flies the
# mirror image of its course and every bypass takes the other side, unless
# the two sides' detours tie (to rounding, as on a symmetric course) and the
# tie rule picks the same side for both.
@settings(max_examples=30, deadline=None, derandomize=True)
@given(mirrored_runs())
def test_a_mirrored_run_flies_the_mirror_image(pair):
    a, b = (run_scenario(cfg) for cfg in pair)
    bypasses = [[e for e in run.events if e["kind"] == "bypass_start"] for run in (a, b)]
    assume(not any(math.isclose(e["detour_left"], e["detour_right"], rel_tol=1e-9)
                   for e in bypasses[0]))
    other = {"left": "right", "right": "left"}
    assert [other[e["side"]] for e in bypasses[0]] == [e["side"] for e in bypasses[1]]
    assert a.aborted == b.aborted
    assert b.metrics["rms_tracking"] == pytest.approx(a.metrics["rms_tracking"], rel=1e-9)
    assert np.array_equal(b.x, a.x, equal_nan=True)
    assert np.array_equal(b.y, -a.y, equal_nan=True)


def test_rms_matches_definition():
    cfg = safety_scenario("heol", seed=41)
    r = run_scenario(cfg)
    err2 = (r.x - r.x_ref) ** 2 + (r.y - r.y_ref) ** 2
    assert r.metrics["rms_tracking"] == pytest.approx(float(np.sqrt(err2.mean())))
    assert r.metrics["max_tracking"] == pytest.approx(float(np.sqrt(err2.max())))


# -- sweeps ---------------------------------------------------------------------


def test_sweep_single_run_equals_scenario_metrics():
    cfg = safety_scenario("heol", seed=50)
    report = run_sweep(cfg, 1, randomize=("obstacles", "noise"))
    single = run_scenario(replace(cfg, name=f"{cfg.name}-r000", seed=50,
                                  noise_seed=50, perturbation_seed=50,
                                  obstacles=(crossing_obstacle(cfg, 50),)))
    assert report.per_run[0]["rms_tracking"] == single.metrics["rms_tracking"]
    s = report.metrics_summary["rms_tracking"]
    assert s["min"] == s["median"] == s["max"] == single.metrics["rms_tracking"]


@pytest.mark.parametrize("n_runs", [2, 3, 4])
@pytest.mark.parametrize("abort_run_1", [False, True], ids=["all-finite", "run-1-aborts-at-t0"])
def test_sweep_summary_median_is_numpys(monkeypatch, n_runs, abort_run_1):
    # the summary's median is np.median of each metric's finite per-run
    # values, bit for bit; a run that faults on its first sample has NaN
    # metrics and no clearance, and drops out of the summary
    real_run_scenario = harness.run_scenario

    def run_scenario(cfg):
        if not (abort_run_1 and cfg.seed == 91):
            return real_run_scenario(cfg)
        with monkeypatch.context() as m:
            m.setattr(harness, "measure", lambda x, y, noise: (math.nan, math.nan))
            return real_run_scenario(cfg)

    monkeypatch.setattr(harness, "run_scenario", run_scenario)
    report = run_sweep(replace(robustness_scenario("heol", 90), duration=4.0), n_runs)
    assert [a["run"] for a in report.aborted_runs] == ([1] if abort_run_1 else [])
    if abort_run_1:
        dropped = {m for m, v in report.per_run[1].items() if v is None or math.isnan(v)}
        assert dropped == {"rms_tracking", "max_tracking", "min_clearance"}
    for m, s in report.metrics_summary.items():
        vals = [r[m] for r in report.per_run if r[m] is not None and math.isfinite(r[m])]
        assert s["min"] == min(vals) and s["max"] == max(vals)
        assert np.float64(s["median"]).tobytes() == np.float64(np.median(vals)).tobytes(), m


def test_the_summary_median_matches_numpys_bits_on_random_values():
    # enough draws that a midpoint rounded otherwise than np.median's (a + b) / 2,
    # such as a + (b - a) / 2, differs in some last bit
    rng = np.random.default_rng(0)
    for n in range(1, 7):
        for vals in rng.uniform(0.0, 1.0, (500, n)) * 10.0 ** rng.integers(-3, 4, (500, 1)):
            vals = vals.tolist()
            assert harness._median(vals) == float(np.median(vals)), vals


def test_sensing_at_1_75_m_still_bypasses_every_safety_obstacle():
    # a floor under the late-discovery envelope: the obstacles are sensed
    # 0.25-0.75 m before their danger circle, not 3.5-4 m
    for controller in ("heol", "mfpc"):
        cfg = replace(safety_scenario(controller, 100),
                      avoidance=AvoidanceConfig(sensing_radius=1.75))
        report = run_sweep(cfg, 50, randomize=("obstacles", "noise"))
        assert report.aborted_runs == [], controller
        assert report.safety_violations == 0, controller


def test_sweep_determinism():
    cfg = robustness_scenario("mfpc", seed=60)
    a = run_sweep(cfg, 5)
    b = run_sweep(cfg, 5)
    assert a == b


def test_sweep_requires_runs():
    with pytest.raises(ConfigError):
        run_sweep(safety_scenario("heol", 1), 0)


def test_sweep_rejects_unknown_randomize_aspects():
    with pytest.raises(ConfigError, match="obstcles"):
        run_sweep(safety_scenario("heol", 1), 1, randomize=("obstcles",))


class _FirstRun(Exception):
    pass


def test_a_sweep_checks_its_longest_run_name_before_the_first_run(monkeypatch, tmp_path,
                                                                   capsys):
    # "-r999" fits a 237-byte base name in 255 bytes with "_summary.json";
    # "-r1000" does not, so 1001 runs are refused before any run
    names = []

    def first_run(cfg):
        names.append(cfg.name)
        raise _FirstRun

    monkeypatch.setattr(harness, "run_scenario", first_run)
    cfg = ScenarioConfig(name="n" * 237)
    with pytest.raises(ConfigError, match="-r1000_summary.json"):
        run_sweep(cfg, 1001)
    cfg.save(tmp_path / "long-name.json")
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(tmp_path / "long-name.json"), "--runs", "1001"]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:") and not out.exists()
    assert names == []
    with pytest.raises(_FirstRun):
        run_sweep(cfg, 1000)
    assert names == ["n" * 237 + "-r000"]


def test_sweep_pins_unrandomized_streams():
    cfg = safety_scenario("heol", seed=70)
    rep, results = run_sweep(cfg, 3, randomize=("obstacles",), keep_results=True)
    # noise pinned to the base seed: identical draws across runs
    n0 = results[0].x_meas - results[0].x
    n1 = results[1].x_meas - results[1].x
    assert np.allclose(n0, n1, atol=1e-12)
    # obstacles differ run to run
    obs = [res.config.obstacles[0] for res in results]
    assert len({(o.cx, o.cy, o.r) for o in obs}) == 3


def test_placed_obstacles_always_cross():
    from dubinsim.avoidance import path_crosses_zone
    cfg = safety_scenario("heol", seed=80)
    traj = build_reference(cfg.path, cfg.dt, cfg.duration)
    for i in range(20):
        ob = place_crossing_obstacle(traj, 80 + i)
        assert path_crosses_zone(traj, ob.danger_zone(0.5)) is not None


def u_turn():
    return ScenarioConfig(
        name="u-turn", controller="heol", duration=30.0,
        path=PolylinePath(((0, 0), (12, 0), (12, 4), (0, 4))),
        noise=NoiseConfig(enabled=False), obstacles=(Obstacle(6.0, 2.0, 1.8),))


def test_a_bypassed_zone_is_rescanned_after_its_bypass():
    # the U path passes the obstacle on its way out and again on its way
    # back; both passes need a bypass, planned from the first discovery
    cfg = u_turn()
    r = run_scenario(cfg)
    assert not r.aborted
    assert [e["obstacle"] for e in r.events if e["kind"] == "bypass_start"] == [0, 0]
    r_danger = 1.8 + cfg.avoidance.margin
    assert np.hypot(r.x_ref - 6.0, r.y_ref - 2.0).min() >= r_danger
    assert r.metrics["min_clearance"][0] >= r_danger - 1e-3


def test_a_bypass_that_starts_inside_an_earlier_wrap_is_checked_against_it():
    # the second zone's bypass splices in from inside the first zone's wrap
    # and cuts back through the first zone; a replan must clear both
    obs = (Obstacle(5.0, -0.2, 1.1), Obstacle(6.3, -1.3, 1.4))
    cfg = ScenarioConfig(name="adjacent", controller="heol",
                         noise=NoiseConfig(enabled=False), obstacles=obs)
    r = run_scenario(cfg)
    assert not r.aborted
    bypasses = [e for e in r.events if e["kind"] == "bypass_start"]
    assert bypasses[0]["obstacle"] == 0 and bypasses[1]["obstacle"] == 1
    assert bypasses[1]["t_start"] < bypasses[0]["t_end"]
    for ob in obs:
        assert np.hypot(r.x_ref - ob.cx, r.y_ref - ob.cy).min() >= ob.r + cfg.avoidance.margin


@pytest.mark.parametrize("index", [0, 1])
def test_event_times_sit_on_the_sample_grid(monkeypatch, index):
    # bypass and sync times are sample indices times dt, so a bypass ends at
    # exactly the t_end its start announced
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    cfg = ScenarioConfig.from_dict(workloads.cli_scenario(index))
    events = run_scenario(cfg).events
    starts = [e for e in events if e["kind"] == "bypass_start"]
    syncs = [e for e in events if e["kind"] == "sync"]
    ends = [e for e in events if e["kind"] == "bypass_end"]
    assert starts and syncs and ends

    def on_grid(v):
        return v == round(v / cfg.dt) * cfg.dt

    for e in starts:
        assert on_grid(e["t_start"]) and on_grid(e["t_end"]) and on_grid(e["tau_tail"]), e
    for e in syncs:
        assert on_grid(e["tau"]), e
    t_ends = {e["t_end"] for e in starts}
    for e in ends:
        assert e["t"] in t_ends, e


def test_same_time_events_keep_causal_order():
    # the discovery and both bypasses it triggers share one sample time
    r = run_scenario(u_turn())
    kinds = [e["kind"] for e in r.events]
    first = r.events[0]["t"]
    assert kinds[:3] == ["discovery", "bypass_start", "bypass_start"]
    assert all(e["t"] == first for e in r.events[:3])
    assert [e["t"] for e in r.events] == sorted(e["t"] for e in r.events)


def test_a_clamp_at_the_first_sample_follows_its_discovery():
    # harness and controller share one log: the clamp MFPC's first step logs
    # comes after the discovery the harness logged before that step
    cfg = ScenarioConfig(controller="mfpc", start=(3.0, 0.4), sync=SyncConfig(enabled=False),
                         duration=4.0, obstacles=(Obstacle(6.0, 2.0, 0.5),))
    first, second = run_scenario(cfg).events[:2]
    assert (first["kind"], first["t"]) == ("discovery", 0.0)
    assert (second["kind"], second["input"], second["t"]) == ("clamp", "u1", 0.0)


@pytest.fixture(scope="module")
def mfpc_batch():
    return run_sweep(robustness_scenario("mfpc", seed=100), 6, keep_results=True)[1]


def test_clamp_events_are_the_onsets_of_a_limit_in_the_record(mfpc_batch):
    total = 0
    for r in mfpc_batch:
        lo1, hi1, lo2, hi2 = MfpcController(r.config.mfpc, r.config.dt).limits
        onsets = []
        for name, lo, hi in (("u1", lo1, hi1), ("u2", lo2, hi2)):
            u = getattr(r, name)
            at = (u == lo) | (u == hi)
            onsets += [(r.t[k], name) for k in np.flatnonzero(at & ~np.r_[False, at[:-1]])]
        clamps = [(e["t"], e["input"]) for e in r.events if e["kind"] == "clamp"]
        assert sorted(clamps) == sorted(onsets)
        total += len(clamps)
    assert total > 0


def test_the_event_log_is_in_time_order_and_the_summary_holds_it(mfpc_batch, tmp_path):
    for i, r in enumerate(mfpc_batch):
        times = [e["t"] for e in r.events]
        assert times == sorted(times)
        path = tmp_path / f"{i}.json"
        harness.emit_summary(r, path)
        assert json.loads(path.read_text())["events"] == r.events
