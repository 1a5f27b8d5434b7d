"""Random valid configs survive the JSON round trip unchanged, and every
config that loads can build its reference."""

import json
import os
import tempfile

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dubinsim.avoidance import Obstacle
from dubinsim.errors import ConfigError
from dubinsim.reference import CirclePath, PolylinePath, SinePath, build_reference, sample_count
from dubinsim.scenario import (AvoidanceConfig, HeolConfig, MfpcConfig,
                               NoiseConfig, PerturbationConfig, ScenarioConfig)


def reals(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def positive(hi):
    return reals(1e-3, hi)


seeds = st.integers(0, 2**32 - 1)
point = st.tuples(reals(-50, 50), reals(-50, 50))

paths = st.one_of(
    st.builds(PolylinePath, st.lists(point, min_size=2, max_size=4),
              speed=positive(3), fillet_radius=reals(0, 2)),
    st.builds(CirclePath, cx=reals(-20, 20), cy=reals(-20, 20), radius=positive(20),
              omega=reals(-1, 1)),
    st.builds(SinePath, amplitude=reals(-3, 3), wavelength=positive(30), speed=positive(3)),
)

obstacles = st.builds(Obstacle, cx=reals(-50, 50), cy=reals(-50, 50),
                      r=positive(3), t_appear=reals(0, 20))

# file stems: non-empty, not "." or "..", no path separator, NUL or lone
# surrogate (which UTF-8 cannot encode)
names = st.text(st.characters(exclude_characters="/\\\0", exclude_categories=("Cs",)),
                min_size=1, max_size=12).filter(lambda s: s not in (".", ".."))

perturbations = st.builds(
    lambda enabled, interval, a, b: PerturbationConfig(
        enabled=enabled, switch_interval=interval, low=min(a, b), high=max(a, b)),
    st.booleans(), positive(5), reals(-0.5, 0.5), reals(-0.5, 0.5))


def buildable(path, dt, duration):
    """Whether the path's reference can be built: ``sample_count`` checks
    its geometry and size as ``ScenarioConfig`` does at load."""
    try:
        sample_count(path, dt, duration)
    except ConfigError:
        return False
    return True


@st.composite
def configs(draw):
    dt = draw(st.sampled_from((0.005, 0.01, 0.02, 0.05)))
    duration = draw(st.integers(1, 30).map(float))
    steps = st.integers(4, 80)  # window lengths: whole multiples of dt, >= 5 samples
    path = draw(paths.filter(lambda path: buildable(path, dt, duration)))
    horizon = draw(reals(0.1, 3))
    controller = draw(st.sampled_from(("heol", "mfpc")))
    # an MFPC horizon must end before the reference's last sample; with
    # |alpha| <= 10 a horizon of 3 s at most is within MAX_EXP_ARG
    assume(controller == "heol" or round(horizon / dt)
           < sample_count(path, dt, duration) - 1)
    return ScenarioConfig(
        name=draw(names),
        dt=dt,
        duration=duration,
        seed=draw(seeds),
        noise_seed=draw(st.none() | seeds),
        perturbation_seed=draw(st.none() | seeds),
        controller=controller,
        path=path,
        start=draw(st.none() | point),
        obstacles=tuple(draw(st.lists(obstacles, max_size=3))),
        noise=NoiseConfig(enabled=draw(st.booleans()), sigma=draw(reals(0, 1))),
        perturbation=draw(perturbations),
        heol=HeolConfig(kx=draw(positive(20)), ky=draw(positive(20)),
                        t_window=draw(steps) * dt),
        mfpc=MfpcConfig(alpha1=draw(reals(0.1, 10) | reals(-10, -0.1)),
                        alpha2=draw(reals(0.1, 10) | reals(-10, -0.1)),
                        horizon=horizon, t_window=draw(steps) * dt,
                        u1_max=draw(positive(10))),
        sync=draw(st.booleans()),
        avoidance=AvoidanceConfig(margin=draw(positive(2)),
                                  sensing_radius=draw(positive(20)),
                                  lead=draw(reals(0, 2))),
    )


@settings(derandomize=True, deadline=None)
@given(configs())
def test_config_round_trip_is_exact(cfg):
    assert ScenarioConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        cfg.save(first)
        ScenarioConfig.from_file(first).save(second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()


def test_every_path_kind_round_trips_through_json():
    for path in (PolylinePath(((0.0, 0.0), (6.0, 0.0), (6.0, 6.0)), speed=1.5, fillet_radius=0.8),
                 CirclePath(cx=1.0, radius=3.0, omega=0.4, phase=0.5),
                 SinePath(amplitude=0.5, wavelength=8.0, y0=-1.0)):
        cfg = ScenarioConfig(duration=5.0, path=path)
        loaded = ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert loaded == cfg and type(loaded.path) is type(path)
        assert np.array_equal(build_reference(loaded.path, cfg.dt, cfg.duration).table,
                              build_reference(path, cfg.dt, cfg.duration).table)


# Paths with the degenerate values a config can hold: repeated waypoints and
# reversals on an integer grid, fillets too big for their legs, zero or
# negative radii, omegas, speeds and wavelengths, speeds too small for any
# table, and radii, omegas, amplitudes and wavelengths whose samples are not
# finite.
grid_point = st.lists(st.integers(-3, 3).map(float), min_size=2, max_size=2)
wild_paths = st.one_of(
    st.builds(lambda pts, speed, fillet: {"kind": "polyline", "waypoints": pts,
                                          "speed": speed, "fillet_radius": fillet},
              st.lists(grid_point, min_size=1, max_size=4),
              st.sampled_from((-1.0, 0.0, 1e-300, 1e-9, 1e300)) | reals(0.05, 3),
              st.sampled_from((-1.0, 0.0)) | reals(0, 5)),
    st.builds(lambda radius, omega: {"kind": "circle", "radius": radius, "omega": omega},
              st.sampled_from((-1.0, 0.0, 1e200)) | reals(0, 20),
              st.sampled_from((0.0, 1e200)) | reals(-1, 1)),
    st.builds(lambda a, wl, v: {"kind": "sinusoid", "amplitude": a,
                                "wavelength": wl, "speed": v},
              st.sampled_from((1e200,)) | reals(-3, 3),
              st.sampled_from((-1.0, 0.0, 1e-310)) | reals(0, 30),
              st.sampled_from((-1.0, 0.0)) | reals(0, 3)),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(path=wild_paths, dt=st.sampled_from((0.01, 0.02, 0.05)),
       duration=st.integers(1, 30).map(float))
def test_a_config_that_loads_builds_its_reference(path, dt, duration):
    try:
        cfg = ScenarioConfig.from_dict({"version": 1, "dt": dt, "duration": duration,
                                        "path": path})
    except ConfigError:
        return
    traj = build_reference(cfg.path, cfg.dt, cfg.duration)
    assert traj.n == sample_count(cfg.path, dt, duration)
    assert np.isfinite(traj.table).all()
