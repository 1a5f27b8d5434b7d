"""Deterministic Dubins-car simulator with two tracking stacks and circular
obstacle bypass planning.

The package root holds what README's "Library use" lists; everything else is
imported from its submodule."""

from .avoidance import plan_both_sides, splice
from .errors import ConfigError, DubinsimError
from .harness import emit, run_scenario, run_sweep
from .heol import HeolConfig, HeolController
from .mfpc import MfpcConfig, MfpcController, solve_two_point
from .model import step_plant
from .reference import build_reference
from .scenario import ScenarioConfig

__all__ = [
    "run_scenario", "run_sweep", "emit", "ScenarioConfig",
    "HeolConfig", "MfpcConfig", "HeolController", "MfpcController",
    "step_plant", "build_reference", "solve_two_point", "plan_both_sides", "splice",
    "ConfigError", "DubinsimError",
]

__version__ = "0.1.0"
