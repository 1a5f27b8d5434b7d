"""Exception types shared across the simulator, and the one check of every
config field's JSON type, world bound and sign."""

import sys
from dataclasses import is_dataclass


class DubinsimError(Exception):
    """Base class for all package-specific errors."""


class StateIntegrityError(DubinsimError):
    """Plant update saw or produced a non-finite value; usually controller divergence."""


class ControllerFault(DubinsimError):
    """Controller received a non-finite measurement."""


class HorizonTooLongError(DubinsimError):
    """Receding-horizon exponent argument exceeded the overflow guard."""


class InfeasibleBypassError(DubinsimError):
    """No collision-free tangent-arc-tangent bypass could be constructed."""


class ReplanLimitError(DubinsimError):
    """One sample needed more bypasses than the replan limit allows."""


class ConfigError(DubinsimError, ValueError):
    """Scenario configuration failed validation."""


class DegeneratePathError(ConfigError):
    """Reference path specification is degenerate (zero length, zero omega, ...)."""


# The JSON type of each config field, by key, that is not a finite number;
# "obstacles[]" is an element of "obstacles" and "" the config itself.
_FIELD_TYPES = {
    "": dict, "path": dict, "obstacles[]": dict,
    **dict.fromkeys(("noise", "perturbation", "heol", "mfpc", "avoidance"), dict),
    "start": list, "obstacles": list, "waypoints": list, "waypoints[]": list,
    "seed": int, "noise_seed": int, "perturbation_seed": int,
    "enabled": bool, "sync": bool, "name": str, "controller": str, "kind": str,
}
_NULLABLE = frozenset({"noise_seed", "perturbation_seed", "start"})
_TYPE_NAMES = {dict: "a JSON object", list: "an array", int: "an integer",
               bool: "true or false", str: "a string", float: "a finite number"}

# Bound of the world a scenario lives in, in metres and seconds: a length (or
# omega, the noise sigma or the bypass lead) holds |v| <= WORLD and a scale
# (or an MFPC alpha) 1/WORLD <= |v| <= WORLD, so that no sample, distance
# squared, step count or wrap length overflows a float, and the two-point
# solve's exp(-rT) and exp(rT) stay apart.
WORLD = 1e6
_LENGTHS = frozenset({"cx", "cy", "r", "radius", "sensing_radius", "amplitude",
                      "fillet_radius", "x0", "y0", "waypoints[][]", "start[]", "omega",
                      "sigma", "lead"})
_SCALES = frozenset({"dt", "speed", "wavelength", "margin", "alpha1", "alpha2"})
# The sign of a number, where it has one.  reference.sample_count ties a path's
# fields together: its geometry, size, omega != 0 and the sinusoid's reach.
_POSITIVE = frozenset({"dt", "duration", "kx", "ky", "t_window", "horizon", "u1_max",
                       "switch_interval", "margin", "sensing_radius", "r", "speed",
                       "wavelength", "radius"})
_NON_NEGATIVE = frozenset({"sigma", "lead", "t_appear", "fillet_radius"})


def check_types(value, where: str = "", key: str | None = None) -> None:
    """Refuse a config value, or any value inside it, that does not hold its
    field's JSON type, world bound and sign: a boolean or a numeric string is
    not a number, and a seed must be an integer.  ``where`` names the value
    in the error, such as ``obstacles[0].cx``, and ``key`` is the field that
    holds it (``where`` by default).  A length or a scale must also lie in
    the world (see WORLD).  A config block or obstacle, built from JSON or in
    code, is checked as the JSON object of its fields."""
    if key is None:
        key = where
    kind = _FIELD_TYPES.get(key, float)
    if value is None and key in _NULLABLE:
        return
    if is_dataclass(value):
        value = vars(value)
    if kind is dict and isinstance(value, dict):
        for k, v in value.items():
            check_types(v, f"{where}.{k}" if where else k, k)
    elif kind is list and isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            check_types(v, f"{where}[{i}]", key + "[]")
    else:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        # a leaf of its kind; NaN fails the bound, and an object or array is not a leaf
        if not {bool: isinstance(value, bool), str: isinstance(value, str),
                int: number and isinstance(value, int),
                float: number and abs(value) <= sys.float_info.max}.get(kind, False):
            raise ConfigError(f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")
        if key in _LENGTHS and not abs(value) <= WORLD:
            raise ConfigError(f"{where} = {value!r} is outside |v| <= WORLD = {WORLD:g}")
        if key in _SCALES and not 1.0 / WORLD <= abs(value) <= WORLD:
            raise ConfigError(f"{where} = {value!r} is outside "
                              f"1/WORLD <= |v| <= WORLD = {WORLD:g}")
        if key in _POSITIVE and not value > 0:
            raise ConfigError(f"{where} = {value!r} must be positive")
        if key in _NON_NEGATIVE and not value >= 0:
            raise ConfigError(f"{where} = {value!r} must be non-negative")
