"""Run configuration: a strict YAML schema.

Unknown keys are rejected at every level so typos fail fast. The params
section is checked against ``TASK_PARAMS``, the one table of every
parameter each task reads and its default: a key the declared task does not
read is an error, each value is coerced to its default's type, and the
resolved values (defaults filled in) are ``RunConfig.params``, which the
tasks read and the report embeds. The model section is checked by its
reader, :func:`jacobispec.models.spec_from_config`. Values no run changes
are module constants, not parameters (``models.VALIDATION_WINDOW``, the
scan tolerances, ``classify.SLOPE_THRESHOLD`` and ``N_RANDOM_PHASES``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from . import classify, weyl
from .errors import ConfigError, InvalidInputError

_SCAN = {f.name: f.default for f in fields(classify.ScanParams)}

TASK_PARAMS = {
    "validate": {},
    "probe": {"x": 0.0, "y": 0.1},
    "jl-sweep": {"n_points": 100, "x_range": [-3.0, 3.0], "y_range": [1e-2, 1.0], "slack": 1e-9},
    # x_grid has no default: a scan or constancy run needs one
    "scan": {"x_grid": None, **_SCAN},
    # phases None: draw classify.N_RANDOM_PHASES phases from the seed
    "constancy": {"x_grid": None, "l_grid": _SCAN["l_grid"], "phases": None},
}
TASKS = tuple(TASK_PARAMS)

_TOP_KEYS = {"model", "task", "params", "output", "seed"}
_OUTPUT_KEYS = {"dir", "csv", "report"}
# libyaml's parser and emitter where this PyYAML build has them: the same
# constructors and resolver as the pure-Python classes, several times faster
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

_POSITIVE = {"n_points", "slack", "l_grid"}
_IM_Z = {"y", "y_range", "y_ladder"}  # imaginary parts: each >= weyl.MIN_IM_Z


def _reject_unknown(section, mapping, allowed):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{section} must be a mapping")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {sorted(unknown)}")


def _number(kind, value):
    """``value`` as ``kind``: a float must be finite, an int integral."""
    out = kind(value)
    if kind is float and not math.isfinite(out):
        raise ValueError("not a finite number")
    if kind is int and isinstance(value, float) and out != value:
        raise ValueError("not an integer")
    return out


def _x_grid(g):
    if isinstance(g, list):
        return [_number(float, v) for v in g]
    if not isinstance(g, dict) or set(g) != {"start", "stop", "count"} or _number(int, g["count"]) < 0:
        raise ConfigError("task needs params.x_grid: a list, or {start, stop, count >= 0}")
    return {"start": _number(float, g["start"]), "stop": _number(float, g["stop"]),
            "count": _number(int, g["count"])}


# parameters with a shape of their own: value -> resolved value
_SHAPED = {
    "x_grid": _x_grid,
    "phases": lambda v: v and [[_number(float, t) for t in np.atleast_1d(p)] for p in v],
}


def _coerce(name, value, default):
    """``value`` read as the type of ``default``; sequences become lists."""
    try:
        if name in _SHAPED:
            return _SHAPED[name](value)
        if isinstance(default, bool) and not isinstance(value, bool):
            raise TypeError("expected true or false")
        if isinstance(default, (list, tuple)):
            if not isinstance(value, (list, tuple)) or not value:
                raise TypeError("expected a non-empty list")
            return [_number(type(default[0]), v) for v in value]
        return _number(type(default), value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} = {value!r} is malformed: {exc}") from exc


def _resolve_params(task, given):
    table = TASK_PARAMS[task]
    _reject_unknown(f"params of task {task}", given, table)
    params = {key: _coerce(key, given.get(key, default), default) for key, default in table.items()}
    for key in ("x_range", "y_range"):
        if key in params and (len(params[key]) != 2 or params[key][1] < params[key][0]):
            raise ConfigError(f"params.{key} must be two numbers, low then high")
    for key in _POSITIVE & params.keys():
        if np.any(np.asarray(params[key]) <= 0):
            raise ConfigError(f"params.{key} must be positive")
    for key in _IM_Z & params.keys():
        if np.any(np.asarray(params[key]) < weyl.MIN_IM_Z):
            raise ConfigError(f"params.{key} must be >= {weyl.MIN_IM_Z}")
    for key, check in (("l_grid", classify.check_l_grid), ("y_ladder", weyl.check_y_ladder)):
        if key in params:
            try:
                check(params[key])
            except InvalidInputError as exc:
                raise ConfigError(f"params.{key}: {exc}") from exc
    if task == "constancy" and len(params["phases"] or [None] * classify.N_RANDOM_PHASES) < 2:
        raise ConfigError("constancy needs at least two phases")
    return params


def check_constancy_model(params, spec):
    """Constancy compares phases of a dynamical model, each a point of its torus."""
    dim = getattr(spec, "torus_dim", None)
    if dim is None or any(len(phase) != dim for phase in params["phases"] or ()):
        raise ConfigError("constancy needs a dynamical model and phases of its torus dimension")


@dataclass
class RunConfig:
    model: dict
    task: str
    params: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    seed: int = 0

    def scan_params(self) -> classify.ScanParams:
        return classify.ScanParams(**{k: v for k, v in self.params.items() if k in _SCAN})

    def x_grid(self) -> np.ndarray:
        g = self.params["x_grid"]
        if isinstance(g, dict):
            return np.linspace(g["start"], g["stop"], g["count"])
        return np.asarray(g)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=YAML_LOADER)
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {path}") from exc
    except yaml.YAMLError as exc:
        # the parser's message spans lines; the CLI reports one
        raise ConfigError(f"config is not valid YAML: {' '.join(str(exc).split())}") from exc
    return parse_config(raw)


def parse_config(raw) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    _reject_unknown("the config root", raw, _TOP_KEYS)
    for required in ("model", "task"):
        if required not in raw:
            raise ConfigError(f"config needs a '{required}' section")
    task = raw["task"]
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
    params = _resolve_params(task, raw.get("params") or {})
    output = raw.get("output") or {}
    _reject_unknown("output", output, _OUTPUT_KEYS)
    seed = _coerce("seed", raw.get("seed", 0), 0)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return RunConfig(
        model=raw["model"],
        task=task,
        params=params,
        output={
            "dir": output.get("dir", "out"),
            "csv": output.get("csv", f"{task.replace('-', '_')}.csv"),
            "report": output.get("report", "report.txt"),
        },
        seed=seed,
    )
