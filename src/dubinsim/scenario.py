"""Scenario configuration (JSON-backed) and the per-run result container.

Config files are versioned JSON documents; ``ScenarioConfig.from_dict``
validates everything up front so a bad file fails fast at the CLI boundary
rather than mid-sweep.  Defaults follow the experiment regime the controllers
were designed around: 0.01 s sampling, 20 s runs, measurement noise with
sigma = 0.1 m and piecewise-constant perturbations drawn uniformly from
[-0.5, +0.5].
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass

import numpy as np

from .avoidance import Obstacle
from .errors import WORLD, ConfigError, check_types  # WORLD: re-exported
from .estimation import window_capacity
from .heol import HeolConfig
from .mfpc import MAX_EXP_ARG, MfpcConfig
from .model import NoiseConfig, PerturbationConfig
from .reference import MAX_SAMPLES, PATH_KINDS, CirclePath, PolylinePath, SinePath, sample_count

CONFIG_VERSION = 1

CONTROLLERS = ("heol", "mfpc")


@dataclass(frozen=True)
class AvoidanceConfig:
    margin: float = 0.5
    sensing_radius: float = 5.0
    lead: float = 0.5

    def __post_init__(self):
        check_types(self, "avoidance")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    dt: float = 0.01
    duration: float = 20.0
    seed: int = 0
    noise_seed: int | None = None          # None: master seed
    perturbation_seed: int | None = None   # None: master seed
    controller: str = "heol"
    path: PolylinePath | CirclePath | SinePath = PolylinePath(((0.0, 0.0), (25.0, 0.0)))
    start: tuple | None = None             # None: reference start point
    obstacles: tuple = ()
    noise: NoiseConfig = NoiseConfig()
    perturbation: PerturbationConfig = PerturbationConfig()
    heol: HeolConfig = HeolConfig()
    mfpc: MfpcConfig = MfpcConfig()
    sync: bool = True                      # re-sync at startup and after each bypass
    avoidance: AvoidanceConfig = AvoidanceConfig()

    def __post_init__(self):
        self.validate()

    def validate(self):
        check_types(self)
        # check_types reads any dict or dataclass as a block's JSON object
        for key, section in _SECTIONS.items():
            block = getattr(self, key)
            if not isinstance(block, section):
                raise ConfigError(f"{key} must be a {section.__name__}, "
                                  f"got {type(block).__name__}")
        if not isinstance(self.path, tuple(PATH_KINDS.values())):
            raise ConfigError("path must be a PolylinePath, CirclePath or SinePath, "
                              f"got {type(self.path).__name__}")
        for i, ob in enumerate(self.obstacles):
            if not isinstance(ob, Obstacle):
                raise ConfigError(f"obstacles[{i}] must be an Obstacle, got {type(ob).__name__}")
        check_name(self.name)
        steps = self.duration / self.dt
        if not math.isfinite(steps):
            raise ConfigError(f"duration/dt = {steps} is not finite")
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ConfigError(f"duration/dt = {steps} is not an integer")
        if self.n_steps >= MAX_SAMPLES:   # the record holds n_steps + 1 samples
            raise ConfigError(f"duration/dt = {steps:.6g} steps: more than "
                              f"MAX_SAMPLES = {MAX_SAMPLES} samples")
        if self.controller not in CONTROLLERS:
            raise ConfigError(f"controller must be one of {CONTROLLERS}, got {self.controller!r}")
        try:   # the reference's geometry and size, as a run builds it
            samples = sample_count(self.path, self.dt, self.duration)
        except ConfigError as exc:
            raise ConfigError(f"path: {exc}") from exc
        p = self.perturbation
        # floor(duration / switch_interval + 1e-9) + 1 levels are drawn
        if p.enabled and not self.duration / p.switch_interval + 1e-9 < MAX_SAMPLES:
            raise ConfigError(f"perturbation.switch_interval = {p.switch_interval}: more than "
                              f"MAX_SAMPLES = {MAX_SAMPLES} levels over {self.duration} s")
        # Only the active controller's window is built, so only it has to
        # fit the sample grid.
        try:
            window_capacity(getattr(self, self.controller).t_window, self.dt)
        except ValueError as exc:
            raise ConfigError(f"{self.controller}: {exc}") from exc
        if self.controller == "mfpc":
            # both axes solve their arc over the horizon, within solve_two_point's
            # exponent bound; MFPC reads each setpoint round(T / dt) samples
            # ahead, as MfpcController counts them, and a horizon that reaches
            # the reference's last sample makes every setpoint its end point
            horizon = self.mfpc.horizon
            rate = max(abs(self.mfpc.alpha1), abs(self.mfpc.alpha2))
            if rate * horizon > MAX_EXP_ARG:
                raise ConfigError(f"mfpc.horizon = {horizon!r}: max(|alpha1|, |alpha2|) * "
                                  f"horizon = {rate * horizon:.6g} exceeds "
                                  f"MAX_EXP_ARG = {MAX_EXP_ARG:g}")
            if not horizon > self.dt:
                raise ConfigError(f"mfpc.horizon = {horizon!r}: the horizon is not longer "
                                  f"than dt = {self.dt}")
            if round(horizon / self.dt) >= samples - 1:
                raise ConfigError(f"mfpc.horizon = {horizon!r}: the horizon is not shorter "
                                  f"than the reference's {(samples - 1) * self.dt:.6g} s, "
                                  "so every setpoint would be its end point")
        if self.start is not None and len(self.start) != 2:
            raise ConfigError("start must be null or a pair of numbers")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        d = {"version": CONFIG_VERSION, **asdict(self)}
        d["path"] = {"kind": self.path.kind, **d["path"]}
        for key in ("noise_seed", "perturbation_seed"):
            if d[key] is None:
                del d[key]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        version = d.get("version", CONFIG_VERSION)
        if isinstance(version, bool) or version != CONFIG_VERSION:   # true == 1
            raise ConfigError(f"unsupported config version {version}")
        kwargs = {k: v for k, v in d.items() if k != "version"}
        # keys no field declares and fields with no default left out, at any depth, before
        # check_types reads one as a number; a path's kind names its spec class
        path = kwargs.get("path")
        kind = path.get("kind") if isinstance(path, dict) else None
        if isinstance(kind, str) and kind not in PATH_KINDS:
            raise ConfigError(f"path: unknown path kind {kind!r}")
        obstacles = kwargs.get("obstacles") if isinstance(kwargs.get("obstacles"), list) else ()
        blocks = [("", cls, kwargs),
                  *((f"{k}.", section, kwargs.get(k)) for k, section in _SECTIONS.items()),
                  *((f"obstacles[{i}].", Obstacle, ob) for i, ob in enumerate(obstacles))]
        unknown, missing = [], []
        if isinstance(kind, str):
            spec = {k: v for k, v in path.items() if k != "kind"}
            blocks.append(("path.", PATH_KINDS[kind], spec))
        elif isinstance(path, dict) and "kind" not in path:
            missing.append("path.kind")
        for where, block_cls, block in blocks:
            if isinstance(block, dict):
                unknown += [where + k for k in block.keys() - {f.name for f in fields(block_cls)}]
                missing += [where + f.name for f in fields(block_cls) if f.name not in block
                            and f.default is MISSING and f.default_factory is MISSING]
        for problem, keys in (("unknown", unknown), ("missing", missing)):
            if keys:
                raise ConfigError(f"{problem} config keys: {sorted(keys)}")
        check_types(kwargs)   # before any field is converted or compared
        if "obstacles" in kwargs:
            kwargs["obstacles"] = tuple(Obstacle(**ob) for ob in kwargs["obstacles"])
        if kwargs.get("start") is not None:
            kwargs["start"] = tuple(float(v) for v in kwargs["start"])
        kwargs.update({k: float(kwargs[k]) for k in ("dt", "duration") if k in kwargs})
        for key, section in _SECTIONS.items():
            if key in kwargs:
                kwargs[key] = section(**kwargs[key])
        if "path" in kwargs:
            kwargs["path"] = PATH_KINDS[kind](**spec)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        try:
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path) -> None:
        write_json(path, self.to_dict())


# Longest file name, in bytes, that common file systems accept.
NAME_MAX = 255


def check_name(name: str) -> None:
    """Refuse a run name that is not a plain file stem.

    The name becomes the stem of the run's output files, so it must name a
    file inside the output directory: not empty, not ``.`` or ``..``, no
    path separator or NUL, and short enough that ``<name>_summary.json``
    fits in NAME_MAX bytes of UTF-8.
    """
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError(f"name {name!r} is not a file stem: it must be non-empty, "
                          "not '.' or '..', and hold no '/', '\\' or NUL")
    check_file_name(f"{name}_summary.json")


def check_file_name(file_name: str) -> None:
    """Refuse an output file name that UTF-8 cannot encode or that is over
    NAME_MAX bytes."""
    try:
        size = len(file_name.encode("utf-8"))
    except UnicodeEncodeError as exc:
        raise ConfigError(f"output file name {file_name!r} is not valid UTF-8") from exc
    if size > NAME_MAX:
        raise ConfigError(f"output file name {file_name!r} is {size} bytes of UTF-8, "
                          f"over the {NAME_MAX}-byte limit")


# The nested parameter blocks (noise, perturbation, heol, ...): the fields
# whose default is itself a config dataclass, but the path, whose kind names
# its class.
_SECTIONS = {f.name: type(f.default) for f in fields(ScenarioConfig)
             if is_dataclass(f.default) and f.name != "path"}


def json_safe(obj):
    """Copy of obj that json.dump writes as standard JSON: tuples become
    lists and non-finite floats null."""
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_json(path, doc) -> None:
    """Write doc as indented, key-sorted UTF-8 JSON, LF line ends, final
    newline; a non-finite float is written as null (see json_safe)."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(json_safe(doc), f, indent=2, sort_keys=True)
        f.write("\n")


# Per-sample record of a run, one column each: the CSV's columns in order,
# then the reference derivatives that only the metrics read.
SERIES = ("t", "x", "y", "x_meas", "y_meas", "x_ref", "y_ref",
          "u1", "u2", "nu1", "nu2", "fhat_x", "fhat_y", "p", "dx_ref", "dy_ref")


@dataclass
class ScenarioResult:
    """One run's record plus events and scalar metrics.

    ``record`` holds a row per sample and a column per SERIES name, and each
    name reads its column as a read-only view: ``result.x``.  MFPC leaves
    nu1 and nu2 NaN.  Aborted runs keep every row (NaN past the failure) so
    sweeps can aggregate them without special cases.
    """

    config: ScenarioConfig
    record: np.ndarray
    events: list
    metrics: dict
    aborted: bool = False
    abort_reason: str = ""

    def __getattr__(self, name):
        if name not in SERIES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        column = self.record[:, SERIES.index(name)]
        column.flags.writeable = False
        return column


# divergent-but-finite samples of an aborted run may overflow the squares
@np.errstate(over="ignore")
def compute_metrics(cfg: ScenarioConfig, record: np.ndarray, events: list) -> dict:
    """Scalar summary of one run's record (a column per SERIES name).

    rms/max tracking are measured against the active (revised) reference.
    reverse_distance accumulates travel whose displacement projects negatively
    onto the local reference tangent.
    """
    series = dict(zip(SERIES, record.T))
    x, y = series["x"], series["y"]
    xr, yr = series["x_ref"], series["y_ref"]
    valid = np.isfinite(x) & np.isfinite(y) & np.isfinite(xr) & np.isfinite(yr)
    err2 = (x[valid] - xr[valid]) ** 2 + (y[valid] - yr[valid]) ** 2
    metrics = {
        "rms_tracking": float(np.sqrt(err2.mean())) if err2.size else float("nan"),
        "max_tracking": float(np.sqrt(err2.max())) if err2.size else float("nan"),
    }
    fx, fy = np.diff(x), np.diff(y)
    seg_ok = np.isfinite(fx) & np.isfinite(fy)
    seg_len = np.hypot(fx[seg_ok], fy[seg_ok])
    metrics["total_path_length"] = float(seg_len.sum())

    tx, ty = series["dx_ref"][:-1][seg_ok], series["dy_ref"][:-1][seg_ok]
    speed = np.hypot(tx, ty)
    moving = speed > 1e-9
    proj = np.zeros_like(seg_len)
    proj[moving] = (fx[seg_ok][moving] * tx[moving] + fy[seg_ok][moving] * ty[moving]) / speed[moving]
    metrics["reverse_distance"] = float(seg_len[proj < 0.0].sum())

    u1 = series["u1"][:-1]
    u1_ok = np.isfinite(u1)
    metrics["control_energy"] = float((u1[u1_ok] ** 2).sum() * cfg.dt)

    clearances = []
    for ob in cfg.obstacles:
        d = np.hypot(x[valid] - ob.cx, y[valid] - ob.cy)
        clearances.append(float(d.min()) if d.size else float("nan"))
    metrics["min_clearance"] = clearances

    metrics["detour_total"] = float(sum(e.get("detour", 0.0) for e in events
                                        if e.get("kind") == "bypass_start"))
    metrics["n_bypasses"] = sum(1 for e in events if e.get("kind") == "bypass_start")
    metrics["n_sync_events"] = sum(1 for e in events if e.get("kind") == "sync")
    return metrics
