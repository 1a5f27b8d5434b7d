"""Canonical scenario builders used by the acceptance suite and handy as
starting points for experiments.

The tracking set deliberately sticks to paths whose heading stays inside
(-pi/2, pi/2): with u1 >= 0 and the heading window, the predictive stack can
never make x decrease, so both controllers are compared on paths they can both
follow.
"""

from __future__ import annotations

from dataclasses import replace

from .reference import CirclePath, PolylinePath, SinePath
from .scenario import NoiseConfig, PerturbationConfig, ScenarioConfig

LINE_PATH = PolylinePath(((0.0, 0.0), (25.0, 0.0)), speed=1.0)
SINE_PATH = SinePath(amplitude=1.0, wavelength=12.0, speed=1.0)
# Gentle arc: heading runs 0 -> ~57 degrees over 20 s at unit speed.
ARC_PATH = CirclePath(cx=0.0, cy=20.0, radius=20.0, omega=0.05, phase=-1.5707963267948966)

TRACKING_PATHS = {"line": LINE_PATH, "sinusoid": SINE_PATH, "arc": ARC_PATH}


def nominal_tracking(controller: str, path_name: str = "line",
                     seed: int = 0) -> ScenarioConfig:
    """On-path start, nominal plant, no measurement noise."""
    return ScenarioConfig(
        name=f"{path_name}-{controller}-nominal",
        controller=controller,
        path=TRACKING_PATHS[path_name],
        seed=seed,
        noise=NoiseConfig(enabled=False),
    )


def safety_scenario(controller: str, seed: int) -> ScenarioConfig:
    """Following the default line path with the default measurement noise;
    the sweep machinery drops a randomly placed crossing obstacle onto it."""
    return ScenarioConfig(name=f"safety-{controller}", controller=controller, seed=seed)


def robustness_scenario(controller: str, seed: int) -> ScenarioConfig:
    """Safety scenario plus the piecewise-constant output perturbation."""
    return replace(safety_scenario(controller, seed),
                   name=f"robust-{controller}",
                   perturbation=PerturbationConfig(enabled=True))


def startup_offset_scenario(sync_enabled: bool, seed: int = 7) -> ScenarioConfig:
    """HEOL on the default line path, dropped well ahead of the reference
    start; with synchronization off it backtracks toward the t=0 point before
    turning around."""
    return ScenarioConfig(name=f"startup-{'sync' if sync_enabled else 'nosync'}",
                          start=(3.0, 0.4), seed=seed, sync=sync_enabled)
