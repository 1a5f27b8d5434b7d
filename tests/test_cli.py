import contextlib
import csv
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dubinsim
from dubinsim.avoidance import Obstacle
from dubinsim.cli import main
from dubinsim.errors import ConfigError
from dubinsim.harness import emit_csv, run_scenario, CSV_COLUMNS
from dubinsim.mfpc import MfpcController
from dubinsim.presets import nominal_tracking, robustness_scenario, safety_scenario
from dubinsim.scenario import (MAX_SAMPLES, WORLD, AvoidanceConfig, HeolConfig, MfpcConfig,
                               NoiseConfig, PerturbationConfig, ScenarioConfig, SyncConfig,
                               write_json)


FULL_CIRCLE_PATH = {"kind": "circle", "cx": 0.0, "cy": 0.0, "radius": 5.0, "omega": 0.2}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    cfg.save(path)
    return str(path)


def test_run_writes_csv_and_summary(tmp_path):
    path = write_cfg(tmp_path, nominal_tracking("heol", "line"))
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    csv_path = out / "line-heol-nominal.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2002  # header + duration/dt + 1 samples
    summary = json.loads((out / "line-heol-nominal_summary.json").read_text())
    assert summary["aborted"] is False
    assert "rms_tracking" in summary["metrics"]


def test_csv_has_nine_significant_digits_and_decimal_points(tmp_path):
    path = write_cfg(tmp_path, safety_scenario("heol", seed=9))
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    lines = (out / "safety-heol.csv").read_text().splitlines()
    row = lines[500].split(",")
    assert len(row) == len(CSV_COLUMNS)
    x_meas = row[3]
    assert "." in x_meas and "," not in x_meas
    assert len(x_meas.lstrip("-0.").replace(".", "")) <= 9


def test_mfpc_csv_leaves_aux_columns_empty(tmp_path):
    # MFPC has no auxiliary controls: every row's nu1 and nu2 are empty. On
    # the 5 m line the reference parks at its end for the rest of the 20 s run.
    short = ScenarioConfig(name="mfpc-short", controller="mfpc", path={
        "kind": "polyline", "waypoints": ((0.0, 0.0), (5.0, 0.0)), "speed": 1.0})
    for cfg in (nominal_tracking("mfpc", "line"), short):
        path = write_cfg(tmp_path, cfg, f"{cfg.name}.json")
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / f"{cfg.name}.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2001
        assert [r for r in rows if r["nu1"] != "" or r["nu2"] != ""] == []
    assert (float(rows[-1]["x_ref"]), float(rows[-1]["y_ref"])) == (5.0, 0.0)


def test_the_console_script_is_cli_main(tmp_path):
    # the `dubinsim` console script calls this target; 3.10 has no tomllib
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    target = re.search(r'^dubinsim\s*=\s*"([\w.]+):(\w+)"\s*$', scripts.group(1), re.M)
    assert target.groups() == ("dubinsim.cli", "main")
    entry = getattr(importlib.import_module(target.group(1)), target.group(2))
    path = write_cfg(tmp_path, ScenarioConfig(duration=1.0))
    assert entry(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_reemit_is_byte_identical(tmp_path):
    result = run_scenario(nominal_tracking("heol", "sinusoid"))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(result, a)
    emit_csv(result, b)
    assert a.read_bytes() == b.read_bytes()


def test_run_twice_identical_output(tmp_path):
    cfg = replace(safety_scenario("mfpc", seed=123),
                  obstacles=(Obstacle(10.0, 0.1, 0.8),))
    path = write_cfg(tmp_path, cfg)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", path, "--out", str(out1)]) == 0
    assert main(["run", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "safety-mfpc.csv").read_bytes() == (out2 / "safety-mfpc.csv").read_bytes()


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "controller": "pid"}')
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 2


# A config saved before avoidance.speed_hint went, which wrote it as null.
SAVED_WITH_SPEED_HINT = json.loads(json.dumps(ScenarioConfig(duration=2.0).to_dict()))
SAVED_WITH_SPEED_HINT["avoidance"]["speed_hint"] = None


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("doc", [
    {"controller": "mfpc", "mfpc": {"horizon": 0}},
    {"controller": "mfpc", "mfpc": {"alpha1": 0}},
    {"controller": "mfpc", "mfpc": {"t_window": 0.305}},   # not a multiple of dt
    {"controller": "heol", "heol": {"t_window": 0.03}},    # fewer than 5 window samples
    {"avoidance": {"margin": 0}, "obstacles": [{"cx": 8.0, "cy": 0.1, "r": 0.8}]},
    {"avoidance": {"margin": -0.5}},
    {"path": None},
    {"path": 5},
    {"start": [1]},
    {"start": [1, 2, 3]},
    {"controller": "mfpc", "mfpc": {"horizon": 0.01}},     # no longer than dt
    {"controller": "mfpc", "mfpc": {"alpha1": 10000}},     # guard shrinks it to 0.004 s
    {"path": {"kind": "polyline", "waypoints": [[0, 0], [1, 0], [1, 5], [10, 5]],
              "speed": 1.0, "fillet_radius": 2.0}},        # fillet does not fit leg 0
    {"avoidance": {"sensing_radius": -1}, "obstacles": [{"cx": 8.0, "cy": 0.1, "r": 0.8}]},
    {"avoidance": {"sensing_radius": 0}},
    {"duration": float("inf")},
    {"dt": 1e-300, "duration": 1e300},                     # duration/dt overflows
    {"controller": "mfpc", "mfpc": {"u1_max": -1}},
    {"controller": "mfpc", "mfpc": {"u1_max": 0}},
    {"obstacles": [{"cx": float("nan"), "cy": 0.1, "r": 0.8}]},
    {"noise": {"sigma": float("nan")}},
    {"start": [float("nan"), 0.0]},
    {"heol": {"kx": float("inf")}},
    {"path": {"kind": "circle", "radius": float("inf")}},
    {"avoidance": {"speed_hint": 0}, "obstacles": [{"cx": 8.0, "cy": 0.1, "r": 0.8}]},
    {"avoidance": {"speed_hint": -1}, "obstacles": [{"cx": 8.0, "cy": 0.1, "r": 0.8}]},
    {"controller": "mfpc", "path": FULL_CIRCLE_PATH},      # heading leaves (-pi/2, pi/2)
    {"controller": "mfpc", "path": {"kind": "polyline", "waypoints": [[0, 0], [5, 0], [5, 5]]}},
    {"name": "../escaped", "duration": 2},                 # would write above --out
    {"name": "a/b", "duration": 2},
    {"name": "a\\b", "duration": 2},
    {"name": "a\0b", "duration": 2},
    {"name": "", "duration": 2},
    {"name": ".", "duration": 2},
    {"name": "..", "duration": 2},
    {"name": "a" * 243, "duration": 2},                    # <name>_summary.json > 255 bytes
    {"path": {"kind": "polyline", "waypoints": [[0, 0], [1, "a"]]}},
    {"path": {"kind": "polyline", "waypoints": 5}},
    {"path": {"kind": "circle", "radius": "big"}},
    {"obstacles": [{"cx": "a", "cy": 0, "r": 1}]},
    {"noise": {"enabled": "no"}},                          # a truthy string, not false
    {"controller": "mfpc", "mfpc": {"eval_at_next": 1}},
    {"noise_seed": "abc"},
    {"perturbation_seed": [1], "perturbation": {"enabled": True}},
    {"sync": {"startup_threshold": "x"}, "start": [3, 1]},
    {"avoidance": {"lead": "x"}, "obstacles": [{"cx": 8.0, "cy": 0.1, "r": 0.8}]},
    {"obstacles": [{"cx": True, "cy": 0, "r": "0.8"}]},
    {"path": {"kind": "circle", "radius": True}},
    {"start": "12"},
    {"heol": {"kx": True}},
    {"controller": "mfpc", "mfpc": {"u2_margin": True}},
    {"seed": 7.9},
    {"path": {"kind": "polyline", "waypoints": [[0, 0], [5, 0], [9, 2]],
              "fillet_radius": -1}},
    {"avoidance": {"lead": -3}, "obstacles": [{"cx": 10.0, "cy": 0.1, "r": 0.8}]},
    {"sync": {"startup_threshold": -1}},                   # synced at t=0 on every run
    {"controller": "mfpc",                                 # alphas outside the world
     "mfpc": {"alpha1": 1e-306, "alpha2": 1e-306, "horizon": 1e308}},
    {"dt": 1e-300},                                        # 2e301 samples
    {"path": {"kind": "polyline", "waypoints": [[0, 0], [25, 0]], "speed": 1e-300}},
    {"duration": 1e6},                                     # a 12.8 GB record table
    {"perturbation": {"enabled": True, "switch_interval": 1e-300}},          # 2e301 levels
    {"heol": {"t_window": 1e300}},                         # its cube overflows
    {"heol": {"t_window": 1e6}},                           # a window of 10**8 samples
    {"dt": 1e200, "duration": 2e202, "path": {"kind": "sinusoid"},
     "heol": {"t_window": 4e200}},                         # 5 samples, cube overflows
    {"dt": 1e-301, "duration": 1e-299, "path": {"kind": "sinusoid"},
     "heol": {"t_window": 5e-301}},                        # 5 samples, cube is 0
    {"path": {"kind": "sinusoid", "wavelength": 1e-310}},  # 2*pi/wavelength overflows
    {"path": {"kind": "circle", "radius": 1e200, "omega": 1e200}},   # R*omega overflows
    {"path": {"kind": "sinusoid", "amplitude": 1e308, "wavelength": 0.1}},   # A*k overflows
    {"path": {"kind": "circle", "omega": 1e307}},          # omega*t overflows
    # lengths and scales outside the world (WORLD = 1e6), refused at load
    {"obstacles": [{"cx": 10.0, "cy": 0.0, "r": 1e200}]},
    {"controller": "mfpc", "obstacles": [{"cx": 10.0, "cy": 0.0, "r": 1e200}]},
    {"obstacles": [{"cx": 10.0, "cy": 0.0, "r": 0.5}], "avoidance": {"margin": 1e200}},
    *[{"path": {"kind": "polyline", "waypoints": [[0, 0], [length, 0]], "speed": length / 1e4},
       "obstacles": [{"cx": length / 2, "cy": 0, "r": 1e150}], "noise": {"enabled": False},
       "avoidance": {"sensing_radius": 1e300}} for length in (1e159, 1e200)],
    {"obstacles": [{"cx": 1e160, "cy": 0, "r": 1e200}], "avoidance": {"sensing_radius": 1e300}},
    *[{"obstacles": [{"cx": 10.0, "cy": 0.1, "r": 0.8}], "avoidance": {"speed_hint": hint}}
      for hint in (1e-300, 1e-320, 5e-324)],
    {"controller": "mfpc", "mfpc": {"alpha1": 1e-17}},    # exp(-rT) == exp(rT)
    {"noise": {"sigma": 1e300}},                          # rms_tracking = inf
    {"controller": "mfpc", "mfpc": {"horizon": 1e300}},   # 26.7 s ahead on a 25 s reference
    {"controller": "mfpc", "mfpc": {"eval_at_next": False}},   # not an MfpcConfig field
    SAVED_WITH_SPEED_HINT,                                 # saved before the field went
    {"obstacles": [{"cx": 10.0, "cy": 0.1, "radius": 0.8}]},   # not an Obstacle field
], ids=["mfpc-horizon", "mfpc-alpha1", "mfpc-t_window", "heol-t_window",
        "margin-zero", "margin-negative", "path-null", "path-number",
        "start-one", "start-three", "mfpc-horizon-dt", "mfpc-alpha1-horizon",
        "fillet-too-big", "sensing-radius-negative", "sensing-radius-zero",
        "duration-infinite", "steps-overflow", "mfpc-u1_max-negative",
        "mfpc-u1_max-zero", "obstacle-cx-nan", "noise-sigma-nan", "start-nan",
        "heol-kx-infinite", "circle-radius-infinite", "speed-hint-zero",
        "speed-hint-negative", "mfpc-full-circle", "mfpc-heading-up",
        "name-parent", "name-slash", "name-backslash", "name-nul", "name-empty",
        "name-dot", "name-dotdot", "name-243-bytes", "waypoint-string",
        "waypoints-number", "circle-radius-string", "obstacle-cx-string",
        "noise-enabled-string", "mfpc-eval_at_next-number", "noise_seed-string",
        "perturbation_seed-list", "startup_threshold-string", "lead-string",
        "obstacle-cx-bool", "circle-radius-bool", "start-string", "heol-kx-bool",
        "mfpc-u2_margin-bool", "seed-float", "fillet-negative", "lead-negative",
        "startup_threshold-negative", "mfpc-horizon-samples-overflow",
        "dt-tiny", "polyline-speed-tiny", "duration-1e6", "switch_interval-tiny",
        "heol-t_window-cube-overflow", "heol-t_window-1e6", "t_window-5-samples-cube-overflow",
        "t_window-5-samples-cube-zero", "sinusoid-wavelength-tiny", "circle-speed-overflow",
        "sinusoid-slope-overflow", "circle-angle-overflow", "huge-zone-heol",
        "huge-zone-mfpc", "huge-margin-heol", "overflowing-line-1e159",
        "overflowing-line-1e200", "far-huge-zone", "slow-wrap-1e-300", "slow-wrap-1e-320",
        "slow-wrap-5e-324", "mfpc-alpha1-tiny", "noise-sigma-huge",
        "mfpc-horizon-past-reference", "mfpc-eval_at_next-false", "saved-speed_hint-null",
        "obstacle-radius"])
def test_bad_controller_parameters_exit_2(tmp_path, capsys, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, **doc}))
    args = ["--runs", "2"] if command == "sweep" else []
    assert main([command, "--config", str(path), "--out", str(tmp_path)] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]   # nothing written


def test_sample_bound_admits_max_samples_and_no_more():
    dt = 0.01
    assert ScenarioConfig(dt=dt, duration=(MAX_SAMPLES - 1) * dt).n_steps + 1 == MAX_SAMPLES
    with pytest.raises(ConfigError, match="duration/dt"):
        ScenarioConfig(dt=dt, duration=MAX_SAMPLES * dt)
    # the polyline's reference holds floor(length / speed / dt) + 1 samples
    line = {"kind": "polyline", "waypoints": ((0.0, 0.0), ((MAX_SAMPLES - 1) * dt, 0.0)),
            "speed": 1.0}
    ScenarioConfig(dt=dt, duration=1.0, path=line)
    line["waypoints"] = ((0.0, 0.0), (MAX_SAMPLES * dt, 0.0))
    with pytest.raises(ConfigError, match="path: polyline"):
        ScenarioConfig(dt=dt, duration=1.0, path=line)


@pytest.mark.parametrize("path", [
    {"kind": "polyline", "waypoints": ((0.0, 0.0), (2.0, 0.0)), "speed": 1.0},   # 2 s reference
    {"kind": "sinusoid"},                                 # sampled over the 2 s run
])
def test_mfpc_horizon_must_end_before_the_reference(path):
    dt, duration = 0.01, 2.0   # the reference's last sample is 200
    ScenarioConfig(controller="mfpc", dt=dt, duration=duration, path=path,
                   mfpc=MfpcConfig(alpha1=0.1, alpha2=0.1, horizon=199 * dt))
    with pytest.raises(ConfigError, match=r"^mfpc\.horizon = 2\.0: .* not shorter than "
                                          r"the reference's 2 s"):
        ScenarioConfig(controller="mfpc", dt=dt, duration=duration, path=path,
                       mfpc=MfpcConfig(alpha1=0.1, alpha2=0.1, horizon=200 * dt))


# Each doc is also a row of test_bad_controller_parameters_exit_2, which runs
# it through the CLI; the refusal names its field and why.
@pytest.mark.parametrize("doc, message", [
    ({"controller": "mfpc", "mfpc": {"horizon": 1e300}},
     "mfpc.horizon = 1e+300: the effective horizon 26.6667 s is not shorter than"),
    ({"obstacles": [{"cx": 10.0, "cy": 0.0, "r": 1e200}]}, "obstacles[0].r = 1e+200 is outside"),
    ({"path": {"kind": "polyline", "waypoints": [[0, 0], [1e159, 0]], "speed": 1e155},
      "obstacles": [{"cx": 5e158, "cy": 0, "r": 1e150}], "noise": {"enabled": False},
      "avoidance": {"sensing_radius": 1e300}}, "path.waypoints[1][0] = 1e+159 is outside"),
    ({"obstacles": [{"cx": 1e160, "cy": 0, "r": 1e200}], "avoidance": {"sensing_radius": 1e300}},
     "obstacles[0].cx = 1e+160 is outside"),
    ({"obstacles": [{"cx": 10.0, "cy": 0.1, "r": 0.8}], "avoidance": {"speed_hint": 1e-300}},
     "unknown config keys: ['avoidance.speed_hint']"),
    ({"controller": "mfpc", "mfpc": {"alpha1": 1e-17}}, "mfpc.alpha1 = 1e-17 is outside"),
    ({"noise": {"sigma": 1e300}}, "noise.sigma = 1e+300 is outside"),
    ({"controller": "mfpc", "mfpc": {"eval_at_next": False}},
     "unknown config keys: ['mfpc.eval_at_next']"),
    ({"controller": "mfpc", "mfpc": {"eval_at_next": 1}},
     "unknown config keys: ['mfpc.eval_at_next']"),
    (SAVED_WITH_SPEED_HINT, "unknown config keys: ['avoidance.speed_hint']"),
    ({"obstacles": [{"cx": 10.0, "cy": 0.1, "radius": 0.8}]},
     "unknown config keys: ['obstacles[0].radius']"),
], ids=["mfpc-horizon-past-reference", "huge-zone-heol", "overflowing-line-1e159",
        "far-huge-zone", "slow-wrap-1e-300", "mfpc-alpha1-tiny", "noise-sigma-huge",
        "mfpc-eval_at_next-false", "mfpc-eval_at_next-number", "saved-speed_hint-null",
        "obstacle-radius"])
def test_a_refusal_at_load_names_its_field(doc, message):
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        ScenarioConfig.from_dict({"version": 1, **doc})


# ``direct_where`` names the field as the block built in code refuses it:
# an Obstacle refuses itself before any config holds it.
@pytest.mark.parametrize("direct_where, where, edge, toward, direct, doc", [
    ("obstacle.cx", "obstacles[0].cx", WORLD, math.inf,
     lambda v: {"obstacles": (Obstacle(v, 0.0, 1.0),)},
     lambda v: {"obstacles": [{"cx": v, "cy": 0.0, "r": 1.0}]}),
    ("avoidance.margin", "avoidance.margin", 1 / WORLD, 0.0,
     lambda v: {"avoidance": AvoidanceConfig(margin=v)},
     lambda v: {"avoidance": {"margin": v}}),
    ("path.omega", "path.omega", WORLD, math.inf,
     lambda v: {"path": {"kind": "circle", "omega": v}},
     lambda v: {"path": {"kind": "circle", "omega": v}}),
], ids=["length", "scale", "omega"])
def test_world_bound_admits_its_edge_and_no_more(direct_where, where, edge, toward, direct, doc):
    ScenarioConfig(**direct(edge))
    ScenarioConfig.from_dict({"version": 1, **doc(edge)})
    past = math.nextafter(edge, toward)
    with pytest.raises(ConfigError, match="^" + re.escape(f"{direct_where} = {past!r} is outside")):
        ScenarioConfig(**direct(past))
    with pytest.raises(ConfigError, match="^" + re.escape(f"{where} = {past!r} is outside")):
        ScenarioConfig.from_dict({"version": 1, **doc(past)})


def test_perturbation_levels_and_estimator_windows_are_bounded_at_load():
    with pytest.raises(ConfigError, match="^perturbation.switch_interval = 1e-300: .*MAX_SAMPLES"):
        ScenarioConfig(perturbation=PerturbationConfig(enabled=True, switch_interval=1e-300))
    ScenarioConfig(perturbation=PerturbationConfig(enabled=False, switch_interval=1e-300))
    # the window of 10**8 samples is refused before anything is allocated
    with pytest.raises(ConfigError, match="^heol: .*MAX_SAMPLES"):
        ScenarioConfig(heol=HeolConfig(t_window=1e6))
    with pytest.raises(ConfigError, match="^mfpc: .*MAX_SAMPLES"):
        ScenarioConfig(controller="mfpc", mfpc=MfpcConfig(t_window=1e6))
    with pytest.raises(ConfigError, match=r"^dt = 1e\+200 is outside"):
        ScenarioConfig(dt=1e200, duration=2e202, path={"kind": "sinusoid"},
                       heol=HeolConfig(t_window=4e200))


@pytest.mark.parametrize("path", [
    {"kind": "circle", "radius": 0.0},
    {"kind": "polyline", "waypoints": [[0, 0], [1, 0], [1, 5]], "fillet_radius": 2.0},
    {"kind": "polyline", "waypoints": [[0, 0], [0, 0], [5, 0]]},
    {"kind": "polyline", "waypoints": [[0, 0], [5, 0], [0, 0]]},
], ids=["circle-radius-zero", "fillet-does-not-fit", "waypoint-repeated", "reverses"])
def test_unbuildable_paths_are_refused_at_load(path):
    with pytest.raises(ConfigError, match="^path: "):
        ScenarioConfig.from_dict({"version": 1, "path": path})


@pytest.mark.parametrize("doc", [
    {"dt": 1e-300},                                              # from validate
    {"noise": {"sigma": -1}},                                    # from its block
    {"obstacles": [{"cx": 8.0, "cy": 0.1, "r": 0}]},             # from an obstacle
    {"controller": "mfpc", "mfpc": {"horizon": 0.01}},           # from effective_horizon
], ids=["validate", "noise-block", "obstacle", "mfpc-horizon"])
def test_config_errors_print_one_prefix(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, **doc}))
    with pytest.raises(ConfigError) as refused:
        ScenarioConfig.from_file(path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {refused.value}\n"
    assert "bad config" not in str(refused.value)


def test_compare_refuses_a_bad_b_before_running_a(tmp_path, capsys, monkeypatch):
    a = write_cfg(tmp_path, ScenarioConfig(name="a", duration=2.0), "a.json")
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"version": 1, "path": {
        "kind": "polyline", "waypoints": [[0, 0], [1, 0], [1, 5]], "fillet_radius": 2.0}}))
    runs = []
    monkeypatch.setattr("dubinsim.cli.run_scenario", runs.append)
    assert main(["compare", "--a", a, "--b", str(b), "--out", str(tmp_path / "out")]) == 2
    assert "does not fit" in capsys.readouterr().err
    assert runs == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, field", [
    ({"noise_seed": "abc"}, "noise_seed must be an integer"),
    ({"perturbation_seed": [1]}, "perturbation_seed must be an integer"),
    ({"seed": 7.9}, "seed must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"sync": {"startup_threshold": "x"}}, "sync.startup_threshold must be a finite number"),
    ({"avoidance": {"lead": "x"}}, "avoidance.lead must be a finite number"),
    ({"obstacles": [{"cx": True, "cy": 0, "r": "0.8"}]}, "obstacles[0].cx must be"),
    ({"obstacles": [{"cx": 1, "cy": 0, "r": "0.8"}]}, "obstacles[0].r must be"),
    ({"obstacles": [{"cx": "a", "cy": 0, "r": 1}]}, "obstacles[0].cx must be"),
    ({"path": {"kind": "circle", "radius": True}}, "path.radius must be"),
    ({"path": {"kind": "polyline", "waypoints": [[0, 0], [1, "a"]]}},
     "path.waypoints[1][1] must be"),
    ({"start": "12"}, "start must be an array"),
    ({"heol": {"kx": True}}, "heol.kx must be a finite number"),
    ({"mfpc": {"u2_margin": True}}, "mfpc.u2_margin must be a finite number"),
    ({"noise": {"enabled": "no"}}, "noise.enabled must be true or false"),
    ({"dt": "0.01"}, "dt must be a finite number"),
    ({"duration": 10**400}, "duration must be a finite number"),
])
def test_wrong_typed_config_values_are_named(doc, field):
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(doc)
    assert str(err.value).startswith(field)


def test_accepted_numbers_load_unchanged():
    cfg = ScenarioConfig.from_dict({"duration": 20, "seed": 3, "start": [0, 1],
                                    "obstacles": [{"cx": 8, "cy": 0, "r": 1}]})
    assert (cfg.duration, cfg.seed, cfg.start) == (20.0, 3, (0.0, 1.0))
    assert all(type(v) is float for v in (cfg.duration, *cfg.start))
    assert cfg.obstacles[0] == Obstacle(8.0, 0.0, 1.0)


# A valid config with every field present, numbers in place of the nulls.
VALID_DOC = json.loads(json.dumps(ScenarioConfig(
    name="prop", duration=1.0, noise_seed=3, perturbation_seed=4, start=(0.1, 0.0),
    obstacles=(Obstacle(8.0, 0.1, 0.8, t_appear=0.5),)).to_dict()))


def _doc_paths(node, path=()):
    """Every key path into a JSON document, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _doc_paths(value, path + (key,))


# Numbers that may be negative; every other number must be positive (or,
# for the perturbation range, at least -0.5).
_SIGNED = {"cx", "cy", "alpha1", "alpha2"}


def _is_valid(path, value):
    key = path[-1]
    if value is None:
        return key in ("start", "noise_seed", "perturbation_seed")
    if key == "name":
        return isinstance(value, str)
    old = VALID_DOC
    for k in path:
        old = old[k]
    if isinstance(old, bool):
        return isinstance(value, bool)
    # waypoint and start coordinates sit under an index
    return (value == -1.0 and type(old) is float
            and (key in _SIGNED or isinstance(key, int)))


BAD_FIELDS = [(path, value) for path in _doc_paths(VALID_DOC)
              for value in (True, False, "1", [1.0], None, math.nan, -1.0)
              if not _is_valid(path, value)]


@settings(max_examples=2 * len(BAD_FIELDS), deadline=None, derandomize=True)
@given(case=st.sampled_from(BAD_FIELDS))
def test_a_config_with_one_bad_field_exits_2(case):
    path, value = case
    doc = json.loads(json.dumps(VALID_DOC))
    node = doc
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "bad.json"
        config.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", str(config), "--out", str(Path(tmp) / "out")])
        assert code == 2, (path, value)
        assert err.getvalue().startswith("config error:") and "Traceback" not in err.getvalue()
        assert [p.name for p in Path(tmp).iterdir()] == ["bad.json"]   # nothing written


# The config blocks a library caller builds in code, by config key.
BLOCKS = {"heol": HeolConfig, "mfpc": MfpcConfig, "noise": NoiseConfig,
          "perturbation": PerturbationConfig, "sync": SyncConfig,
          "avoidance": AvoidanceConfig, "obstacles": Obstacle}


def test_a_block_built_in_code_refuses_what_the_loader_refuses():
    problems, cases = [], 0
    for path, value in BAD_FIELDS:
        *block, key = path
        if path[0] not in BLOCKS or len(block) != (2 if path[0] == "obstacles" else 1):
            continue   # not a field inside a block
        cases += 1
        fields = VALID_DOC
        for k in block:
            fields = fields[k]
        try:
            BLOCKS[path[0]](**{**fields, key: value})
            problems.append((path, value, "accepted"))
        except ConfigError:
            pass
        except Exception as exc:
            problems.append((path, value, repr(exc)))
    assert cases == 165 and problems == []
    with pytest.raises(ConfigError, match=r"^mfpc\.alpha1 = 1e-17 is outside"):
        MfpcController(MfpcConfig(alpha1=1e-17), 0.01)


@pytest.mark.parametrize("kwargs, message", [
    ({"heol": {"kx": 1.0}}, "heol must be a HeolConfig, got dict"),
    ({"heol": MfpcConfig()}, "heol must be a HeolConfig, got MfpcConfig"),
    ({"obstacles": ({"cx": 8.0, "cy": 0.1, "r": 0.8},)},
     "obstacles[0] must be an Obstacle, got dict"),
], ids=["dict-block", "other-block", "dict-obstacle"])
def test_a_config_built_in_code_refuses_a_block_of_another_type(kwargs, message):
    # check_types reads any dict or dataclass as a block's JSON object, so
    # without the type check these fail mid-run with AttributeError
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ScenarioConfig(**kwargs)


# Run in a fresh interpreter: every command of the CLI, in-process, then the
# numpy modules that they loaded beyond what `import numpy` itself loads.
FOOTPRINT_SCRIPT = """
import sys
import numpy
before = set(sys.modules)
from dubinsim.cli import main
a, b, out = sys.argv[1:]
for argv in (["run", "--config", a], ["sweep", "--config", a, "--runs", "2"],
             ["sweep", "--config", b, "--runs", "3"], ["compare", "--a", a, "--b", b]):
    assert main(argv + ["--out", out]) == 0, argv
print(" ".join(sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy")))
"""


def test_a_run_or_sweep_loads_no_numpy_module_beyond_numpy_random(tmp_path):
    # the noise, perturbation and placement streams need numpy.random; the
    # sweep summary's median must not pull in numpy.ma, as np.median does
    a = write_cfg(tmp_path, replace(safety_scenario("heol", 1), duration=4.0), "a.json")
    b = write_cfg(tmp_path, replace(robustness_scenario("mfpc", 1), duration=4.0), "b.json")
    src = os.path.dirname(os.path.dirname(dubinsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, a, b, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, check=True)
    loaded = done.stdout.splitlines()[-1].split()
    assert "numpy.random" in loaded
    assert [m for m in loaded if not m.startswith("numpy.random")] == []


@pytest.mark.parametrize("name", ["../x", "a/b", "", ".."])
def test_run_name_option_stays_inside_out(tmp_path, capsys, name):
    path = write_cfg(tmp_path, replace(nominal_tracking("heol", "line"), duration=2.0))
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), "--name", name]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]   # nothing written


def test_a_name_of_242_bytes_is_written(tmp_path):
    name = "a" * 240 + "é"   # 242 bytes of UTF-8: "<name>_summary.json" is 255
    path = write_cfg(tmp_path, replace(nominal_tracking("heol", "line"), duration=1.0))
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), "--name", name]) == 0
    assert sorted(p.name for p in out.iterdir()) == [f"{name}.csv", f"{name}_summary.json"]


def test_compare_refuses_an_output_name_over_255_bytes(tmp_path, capsys):
    cfg = replace(nominal_tracking("heol", "line"), duration=1.0)
    a = write_cfg(tmp_path, replace(cfg, name="a" * 130), "a.json")
    b = write_cfg(tmp_path, replace(cfg, name="b" * 130), "b.json")
    assert main(["compare", "--a", a, "--b", b, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]


def test_sweep_records_runs_that_abort_at_the_first_sample(tmp_path):
    # the start lies inside the danger zone: every run aborts at t=0
    path = tmp_path / "inside.json"
    path.write_text(json.dumps({"obstacles": [{"cx": 0.5, "cy": 0.0, "r": 0.8}]}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--runs", "2", "--randomize", "noise",
                 "--out", str(out)]) == 1
    doc = json.loads((out / "scenario_sweep.json").read_text())
    assert [run["run"] for run in doc["aborted_runs"]] == [0, 1]
    assert [run["min_clearance"] for run in doc["per_run"]] == [None, None]


def test_replan_limit_abort_names_the_overlapping_zones(tmp_path, capsys):
    # the two danger zones overlap by 0.60 m: the planner alternates bypasses
    # of obstacle 0 (right) and 1 (left) at t=7.32 until the replan cap
    cfg = replace(safety_scenario("heol", 1), noise=NoiseConfig(enabled=False),
                  obstacles=(Obstacle(11.0, 0.1, 0.6), Obstacle(12.1, -1.45, 0.9)))
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 1
    reason = "replanning loop exceeded limit (obstacles [0, 1]) at t=7.32"
    assert f"run aborted: {reason}" in capsys.readouterr().err
    summary = json.loads((out / "safety-heol_summary.json").read_text())
    assert summary["aborted"] is True and summary["abort_reason"] == reason


def test_long_mfpc_run_finishes(tmp_path):
    # past |alpha2| * t = 709 an absolute-time arc would overflow math.exp
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"version": 1, "controller": "mfpc", "duration": 480,
                                "noise": {"enabled": False}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    metrics = json.loads((out / "scenario_summary.json").read_text())["metrics"]
    for key in ("rms_tracking", "max_tracking", "control_energy"):
        assert math.isfinite(metrics[key])
    assert metrics["rms_tracking"] < 0.01


def test_aborted_run_exit_code(tmp_path):
    cfg = replace(nominal_tracking("heol", "line"), heol=HeolConfig(kx=1e6, ky=1e6))
    path = write_cfg(tmp_path, cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1


def test_sweep_cli(tmp_path):
    path = write_cfg(tmp_path, safety_scenario("heol", seed=5))
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--runs", "3", "--out", str(out)]) == 0
    doc = json.loads((out / "safety-heol_sweep.json").read_text())
    assert doc["n_runs"] == 3
    assert doc["safety_violations"] == 0
    assert len(doc["per_run"]) == 3
    assert {"min", "median", "max"} <= set(doc["metrics_summary"]["rms_tracking"])


def test_sweep_rejects_unknown_randomize(tmp_path):
    path = write_cfg(tmp_path, safety_scenario("heol", seed=5))
    assert main(["sweep", "--config", path, "--runs", "1",
                 "--randomize", "weather", "--out", str(tmp_path)]) == 2


def test_compare_cli(tmp_path):
    a = write_cfg(tmp_path, nominal_tracking("heol", "line"), "a.json")
    b = write_cfg(tmp_path, nominal_tracking("mfpc", "line"), "b.json")
    out = tmp_path / "out"
    assert main(["compare", "--a", a, "--b", b, "--out", str(out)]) == 0
    doc = json.loads((out / "compare_line-heol-nominal_vs_line-mfpc-nominal.json").read_text())
    assert "rms_tracking" in doc["delta_b_minus_a"]
    assert doc["delta_b_minus_a"]["rms_tracking"] > 0  # model-based tracks tighter


def test_unwritable_destination_reports_io_error(tmp_path, capsys):
    path = write_cfg(tmp_path, nominal_tracking("heol", "line"))
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    assert main(["run", "--config", path, "--out", str(blocker)]) == 1
    assert "i/o error" in capsys.readouterr().err


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("DUBINSIM_OUT", str(tmp_path / "envout"))
    path = write_cfg(tmp_path, nominal_tracking("heol", "line"))
    assert main(["run", "--config", path]) == 0
    assert (tmp_path / "envout" / "line-heol-nominal.csv").exists()


def test_aborted_run_csv_ends_in_a_nan_row(tmp_path):
    cfg = replace(nominal_tracking("heol", "line"), heol=HeolConfig(kx=1e6, ky=1e6))
    result = run_scenario(cfg)
    assert result.aborted
    path = tmp_path / "aborted.csv"
    emit_csv(result, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2002
    assert lines[-1] == ",".join(["nan"] * len(CSV_COLUMNS))
    # the abort happens once the state leaves the world; samples before it are finite
    first_nan = next(k for k, line in enumerate(lines[1:]) if line.startswith("nan"))
    assert 0.1 < first_nan * cfg.dt < 0.2
    assert "nan" not in lines[1]


def test_the_json_writer_writes_standard_json(tmp_path):
    # non-finite numbers become null and tuples lists, at any depth
    doc = {"a": math.nan, "b": [math.inf, (1, -math.inf)],
           "c": {"d": ({"e": math.nan, "f": 0.5},), "g": (math.inf,)}}
    path = tmp_path / "doc.json"
    write_json(path, doc)

    def refuse(name):
        raise AssertionError(f"{name} in {path.read_text()}")

    assert json.loads(path.read_text(), parse_constant=refuse) == {
        "a": None, "b": [None, [1, None]],
        "c": {"d": [{"e": None, "f": 0.5}], "g": [None]}}
