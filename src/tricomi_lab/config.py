"""Run configuration: JSON in, validated typed view out, canonical JSON back.

The grammar is plain JSON with nested sections (documented in the README):

    {
      "scenario": "solve-semilinear",
      "model":  {"m": 1, "n": 3, "p": 2.0, "eps": 1e-3, "M": 2.0},
      "grid":   {"r_max": 64.0, "N": 2048, "transform": "auto"},
      "output_dir": "out",
      "seed": 0,
      ... scenario-specific section ...
    }

``parse_config(emit_config(cfg)) == cfg`` holds exactly: emission is
canonical JSON (sorted keys), and equality is dict equality on the
normalized payload.  Validation errors always name the violated
constraint; exponent-window checks are delegated to the exponents module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ParameterError
from .exponents import ModelParams, p_conf, p_crit
from .grids import RadialGrid

__all__ = ["RunConfig", "parse_config", "emit_config", "SCENARIOS"]

SCENARIOS = (
    "exponents",
    "solve-linear",
    "solve-semilinear",
    "sweep-p",
    "verify-strichartz",
    "check-geometry",
    "symbols",
)

# The keys each section may carry: those the CLI reads.  A number is converted
# by its kind (int or float); bool takes a JSON boolean only, a tuple lists the
# allowed strings, None marks a value its reader checks itself, and a dict a
# nested section.  The keys in _NULLABLE may also be null.
_DATA_KEYS = {"profile": None, "amplitude": float, "vel_amplitude": float}
_SNAPSHOT_KEYS = {
    "snapshots": int, "snapshot_spacing": ("log", "linear"), "t_start": float, "field_r_points": int,
}
_SECTION_KEYS = {
    "model": {"m": int, "n": int, "p": float, "eps": float, "M": float},
    "grid": {"r_max": float, "N": int, "transform": None},
    "exponents": {"sweep": None},
    "geometry": {"T0": float, "nu": float, "delta": float},
    "symbols": {"grid": None},
    "linear": {"t_final": float, "data": _DATA_KEYS, **_SNAPSHOT_KEYS},
    "semilinear": {
        "horizon": float, "dt": float, "T0": float, "mode": ("march", "picard"), "max_iters": int,
        "write_field": bool, "data": _DATA_KEYS, **_SNAPSHOT_KEYS,
    },
    "sweep": {"p_grid": None, "horizon": float, "dt": float, "T0": float, "data": _DATA_KEYS},
    "strichartz": {
        "kind": ("homogeneous", "inhomogeneous", "both"), "q": float, "gamma": float, "delta": float,
        "t_max": float, "T0": float, "q_inhom": float, "gamma1": float, "gamma2": float,
        "t_max_inhom": float, "dt": float,
    },
}
_NULLABLE = {"model.p", "geometry.nu"}
# Times and steps, which must be positive.
_POSITIVE = {"linear.t_final", "semilinear.horizon", "semilinear.dt", "sweep.horizon", "sweep.dt"}
# Every top-level key a config may carry: the common ones and the sections.
_SECTIONS = ("scenario", "output_dir", "seed", *_SECTION_KEYS)

_DEFAULTS = {
    "model": {"m": 1, "n": 3, "p": 2.0, "eps": 1e-3, "M": 2.0},
    "grid": {"r_max": 64.0, "N": 2048, "transform": "auto"},
    "output_dir": ".",
    "seed": 0,
}


@dataclass(frozen=True)
class RunConfig:
    """Normalized configuration payload with typed accessors."""

    data: dict = field(default_factory=dict)

    @property
    def scenario(self) -> str:
        return self.data["scenario"]

    @property
    def output_dir(self) -> str:
        return self.data.get("output_dir", ".")

    @property
    def seed(self) -> int:
        return int(self.data.get("seed", 0))

    def model_params(self) -> ModelParams:
        md = self.data["model"]
        return ModelParams(
            m=_number(md, "model", "m", int),
            n=_number(md, "model", "n", int),
            p=_number(md, "model", "p", float),
            eps=_number(md, "model", "eps", float),
            M=_number(md, "model", "M", float),
        )

    def grid_args(self) -> dict:
        gd = self.data["grid"]
        return {
            "r_max": _number(gd, "grid", "r_max", float),
            "N": _number(gd, "grid", "N", int),
            "transform": gd.get("transform", "auto"),
        }

    def section(self, name: str, default=None) -> dict:
        return self.data.get(name, default if default is not None else {})


def _number(sec: dict, name: str, key: str, kind):
    """``kind(sec[key])``, or a ParameterError naming ``name.key`` when it is not a number."""
    try:
        return kind(sec[key])
    except (TypeError, ValueError):
        raise ParameterError(f"{name}.{key} must be a number, got {sec[key]!r}")


def _check_section(sec, name: str, keys: dict) -> None:
    """Raise a ParameterError naming ``name`` unless ``sec`` is an object of
    known keys whose numbers convert to their kinds (and are positive where
    listed in _POSITIVE)."""
    if not isinstance(sec, dict):
        raise ParameterError(f"config section {name!r} must be a JSON object, got {sec!r}")
    unknown = sorted(set(sec) - set(keys))
    if unknown:
        raise ParameterError(
            f"unknown key(s) {', '.join(f'{name}.{k}' for k in unknown)}; "
            f"known in {name}: {', '.join(keys)}"
        )
    for key, kind in keys.items():
        if key not in sec or kind is None or (sec[key] is None and f"{name}.{key}" in _NULLABLE):
            continue
        if isinstance(kind, dict):
            _check_section(sec[key], f"{name}.{key}", kind)
        elif kind is bool:
            if not isinstance(sec[key], bool):
                raise ParameterError(f"{name}.{key} must be true or false, got {sec[key]!r}")
        elif isinstance(kind, tuple):
            if not (isinstance(sec[key], str) and sec[key] in kind):
                raise ParameterError(f"{name}.{key} must be one of {', '.join(kind)}, got {sec[key]!r}")
        else:
            value = _number(sec, name, key, kind)
            if f"{name}.{key}" in _POSITIVE and not value > 0:
                raise ParameterError(f"{name}.{key} must be positive, got {sec[key]!r}")


def _merge_defaults(payload: dict) -> dict:
    out = dict(payload)
    for key, sub in _DEFAULTS.items():
        if isinstance(sub, dict):
            merged = dict(sub)
            merged.update(out.get(key, {}))
            out[key] = merged
        else:
            out.setdefault(key, sub)
    return out


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; raises ParameterError naming the issue."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config parse error at line {exc.lineno}, col {exc.colno}: {exc.msg}")
    if not isinstance(payload, dict):
        raise ParameterError("config must be a JSON object")
    if "scenario" not in payload:
        raise ParameterError("missing required key 'scenario'")
    if payload["scenario"] not in SCENARIOS:
        raise ParameterError(
            f"unknown scenario {payload['scenario']!r}; known: {', '.join(SCENARIOS)}"
        )
    unknown = sorted(set(payload) - set(_SECTIONS))
    if unknown:
        raise ParameterError(
            f"unknown config section(s) {', '.join(map(repr, unknown))}; known: {', '.join(_SECTIONS)}"
        )
    if "seed" in payload:
        _number(payload, "config", "seed", int)
    for name, keys in _SECTION_KEYS.items():
        if name in payload:
            _check_section(payload[name], name, keys)
    cfg = RunConfig(data=_merge_defaults(payload))
    _validate(cfg)
    return cfg


def emit_config(cfg: RunConfig) -> str:
    """Canonical JSON emission; parse_config(emit_config(cfg)) == cfg."""
    return json.dumps(cfg.data, sort_keys=True, indent=2)


def _validate(cfg: RunConfig) -> None:
    RadialGrid(**cfg.grid_args())  # raises GridError naming the bad grid or transform
    scenario = cfg.scenario
    # An exponent table may leave p null (its gamma columns stay empty).
    if scenario == "exponents" and cfg.data["model"]["p"] is None:
        return
    params = cfg.model_params()  # raises ParameterError with the constraint name
    if scenario == "solve-semilinear":
        sl = cfg.section("semilinear")
        if sl.get("mode", "march") == "picard":
            lo_p = p_crit(params.m, params.n)
            hi_p = p_conf(params.m, params.n)
            if not (lo_p < params.p < hi_p):
                raise ParameterError(
                    f"exponent out of range (p_crit = {lo_p:.6f}, p_conf = {hi_p:.6f}): "
                    f"picard mode requires p strictly between them, got p = {params.p}"
                )
        if int(sl.get("max_iters", 25)) < 1:
            raise ParameterError(f"semilinear.max_iters must be at least 1, got {sl['max_iters']!r}")
    if scenario == "sweep-p":
        grid = cfg.section("sweep").get("p_grid", [])
        if not isinstance(grid, list) or not grid:
            raise ParameterError("sweep requires a nonempty list p_grid (config sweep.p_grid or --p-grid)")
        for p in grid:
            try:
                p_val = float(p)
            except (TypeError, ValueError):
                raise ParameterError(f"sweep.p_grid entry {p!r} is not a number")
            if not p_val > 1.0:
                raise ParameterError(f"sweep.p_grid entries must satisfy p > 1, got {p!r}")
