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

One table per section (``SCHEMA``) gives each key its kind, default and
limit.  ``parse_config`` checks every section a config carries against it,
converts the numbers to their kinds and fills in the defaults of ``model``,
``grid`` and the scenario's own section, so the CLI reads typed values.

``parse_config(emit_config(cfg)) == cfg`` holds exactly: emission is
canonical JSON (sorted keys), and equality is dict equality on the
normalized payload.  Validation errors always name the violated
``section.key``; the exponent window is delegated to the exponents module.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ParameterError
from .exponents import ModelParams, p_conf, p_crit
from .grids import RadialGrid
from .profiles import PROFILES

__all__ = ["RunConfig", "parse_config", "emit_config", "SCENARIOS", "SCHEMA"]

# Each scenario and the section it reads.
SCENARIOS = {"exponents": "exponents", "solve-linear": "linear", "solve-semilinear": "semilinear",
             "sweep-p": "sweep", "verify-strichartz": "strichartz", "check-geometry": "geometry",
             "symbols": "symbols"}


class Key(NamedTuple):
    """A key's kind: int, float, bool, str, list (of floats), a tuple of the
    allowed strings, or a dict (a section).  A None default may be given as
    null, and its reader derives the value; a section with a None default is
    optional.  ``limit`` names the _LIMITS test of a number."""

    kind: object
    default: object = None
    limit: str | None = None
    nullable: bool = False


_LIMITS = {
    "positive": lambda v: v > 0, "non-negative": lambda v: v >= 0, "greater than 1": lambda v: v > 1,
    "greater than 2": lambda v: v > 2, "in (0, 1)": lambda v: 0 < v < 1, "in [0, 1)": lambda v: 0 <= v < 1,
    "at least 1": lambda v: v >= 1, "at least 3": lambda v: v >= 3, "at least 8": lambda v: v >= 8,
}
# vel_amplitude defaults to amplitude
_DATA = {"profile": Key(tuple(PROFILES), "bump"), "amplitude": Key(float, 1.0), "vel_amplitude": Key(float)}
_SNAPSHOTS = {  # t_start: see cli._snapshot_times
    "snapshots": Key(int, 16, "at least 1"), "snapshot_spacing": Key(("log", "linear"), "log"),
    "t_start": Key(float, None, "positive"),
}


SCHEMA = {
    "scenario": Key(tuple(SCENARIOS)),
    "output_dir": Key(str, "."),
    "seed": Key(int, 0, "non-negative"),  # numpy.random.default_rng
    # a null p is an exponent table without gamma columns
    "model": Key({"m": Key(int, 1, "at least 1"), "n": Key(int, 3, "at least 3"),
                  "p": Key(float, 2.0, "greater than 1", nullable=True), "eps": Key(float, 1e-3, "positive"),
                  "M": Key(float, 2.0, "greater than 1")}, {}),
    # RadialGrid checks the transform: "auto" or "fft" ("direct" is retired)
    "grid": Key({"r_max": Key(float, 64.0, "positive"), "N": Key(int, 2048, "at least 8"),
                 "transform": Key(str, "auto")}, {}),
    "exponents": Key({"sweep": Key(str)}),  # cli.run_exponents parses the sweep
    "geometry": Key({"T0": Key(float, 0.5, "in (0, 1)"), "nu": Key(float, None, "non-negative"),
                     "delta": Key(float, 1e-4, "in [0, 1)")}),
    "symbols": Key({"grid": Key(str, "100:64")}),  # cli._scenario_symbols parses the grid
    "linear": Key({"t_final": Key(float, 10.0, "positive"), "data": Key(_DATA, {}), **_SNAPSHOTS,
                   "field_r_points": Key(int, 512, "at least 1")}),
    "semilinear": Key({
        "horizon": Key(float, 20.0, "positive"), "dt": Key(float, 0.01, "positive"),
        "T0": Key(float, 0.5, "in (0, 1)"), "mode": Key(("march", "picard"), "march"),
        "max_iters": Key(int, 25, "at least 1"), "write_field": Key(bool, False),
        "data": Key(_DATA, {}), **_SNAPSHOTS, "field_r_points": Key(int, 256, "at least 1"),
    }),
    "sweep": Key({
        "p_grid": Key(list, None, "greater than 1"), "horizon": Key(float, 20.0, "positive"),
        "dt": Key(float, 0.01, "positive"), "T0": Key(float, 0.5, "in (0, 1)"), "data": Key(_DATA, {}),
    }),
    # The window parameters left null default to the midpoints of their ranges.
    "strichartz": Key({
        "kind": Key(("homogeneous", "inhomogeneous", "both"), "homogeneous"),
        "q": Key(float, None, "greater than 1"), "gamma": Key(float, None, "positive"),
        "delta": Key(float, None, "positive"), "t_max": Key(float, 100.0, "greater than 2"),
        "T0": Key(float, 0.5, "positive"), "q_inhom": Key(float, None, "greater than 1"),
        "gamma1": Key(float, None, "positive"), "gamma2": Key(float, None, "positive"),
        "t_max_inhom": Key(float, 50.0, "greater than 2"), "dt": Key(float, 0.02, "positive"),
    }),
}


@dataclass(frozen=True)
class RunConfig:
    """Normalized configuration payload: every key of ``model``, ``grid`` and
    the scenario's section is present, with the kind its table gives."""

    data: dict = field(default_factory=dict)

    @property
    def scenario(self) -> str:
        return self.data["scenario"]

    @property
    def output_dir(self) -> str:
        return self.data["output_dir"]

    def model_params(self) -> ModelParams:
        return ModelParams(**self.data["model"])

    def grid(self) -> RadialGrid:
        return RadialGrid(**self.data["grid"])


def _finite_number(value, path: str, kind, limit):
    """``value`` as a finite number of ``kind`` within ``limit``, or a ParameterError naming ``path``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{path} must be a number, got {value!r}")
    if kind is int and not isinstance(value, int):
        raise ParameterError(f"{path} must be an integer, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, an infinity, or an int past float range
        raise ParameterError(f"{path} must be finite, got {value!r}")
    if limit is not None and not _LIMITS[limit](value):
        raise ParameterError(f"{path} must be {limit}, got {value!r}")
    return kind(value)


def _value(value, path: str, key: Key):
    """``value`` checked and converted by ``key``, or a ParameterError naming ``path``."""
    kind = key.kind
    if value is None and (key.default is None or key.nullable) and not isinstance(kind, dict):
        return None
    if isinstance(kind, dict):
        return _section(value, path, kind)
    if kind in (bool, str):
        if not isinstance(value, kind):
            expected = "true or false" if kind is bool else "a string"
            raise ParameterError(f"{path} must be {expected}, got {value!r}")
    elif isinstance(kind, tuple):
        if not (isinstance(value, str) and value in kind):
            raise ParameterError(f"{path} must be one of {', '.join(kind)}, got {value!r}")
    elif kind is list:
        if not (isinstance(value, list) and value):
            raise ParameterError(f"{path} must be a nonempty list of numbers, got {value!r}")
        return [_finite_number(v, f"{path} entry", float, key.limit) for v in value]
    else:
        return _finite_number(value, path, kind, key.limit)
    return value


def _section(sec, name: str, keys: dict) -> dict:
    """The object ``sec`` checked against ``keys``, with each default filled in
    except that of an optional section."""
    if not isinstance(sec, dict):
        raise ParameterError(f"config section {name!r} must be a JSON object, got {sec!r}")
    unknown = sorted(set(sec) - set(keys))
    if unknown:
        raise ParameterError(
            f"unknown key(s) {', '.join(f'{name}.{k}' for k in unknown)}; "
            f"known in {name}: {', '.join(keys)}"
        )
    prefix, out = f"{name}." if name else "", {}
    for key, spec in keys.items():
        if key in sec:
            out[key] = _value(sec[key], prefix + key, spec)
        elif not isinstance(spec.kind, dict):
            out[key] = spec.default
        elif spec.default is not None:
            out[key] = _section({}, prefix + key, spec.kind)
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
    if not (isinstance(payload["scenario"], str) and payload["scenario"] in SCENARIOS):
        raise ParameterError(
            f"unknown scenario {payload['scenario']!r}; known: {', '.join(SCENARIOS)}"
        )
    unknown = sorted(set(payload) - set(SCHEMA))
    if unknown:
        raise ParameterError(
            f"unknown config section(s) {', '.join(map(repr, unknown))}; known: {', '.join(SCHEMA)}"
        )
    cfg = RunConfig(data=_section({SCENARIOS[payload["scenario"]]: {}, **payload}, "", SCHEMA))
    _validate(cfg)
    return cfg


def emit_config(cfg: RunConfig) -> str:
    """Canonical JSON emission; parse_config(emit_config(cfg)) == cfg."""
    return json.dumps(cfg.data, sort_keys=True, indent=2)


def _validate(cfg: RunConfig) -> None:
    """The checks that span keys, after each key is checked by its table."""
    cfg.grid()  # raises GridError naming a retired or unknown grid.transform
    scenario, md = cfg.scenario, cfg.data["model"]
    # An exponent table may leave p null (its gamma columns stay empty).
    if md["p"] is None and scenario != "exponents":
        raise ParameterError(f"model.p must be a number for scenario {scenario!r}, got None")
    if scenario == "solve-semilinear" and cfg.data["semilinear"]["mode"] == "picard":
        lo_p, hi_p = p_crit(md["m"], md["n"]), p_conf(md["m"], md["n"])
        if not (lo_p < md["p"] < hi_p):
            raise ParameterError(
                f"model.p: exponent out of range (p_crit = {lo_p:.6f}, p_conf = {hi_p:.6f}): "
                f"picard mode requires p strictly between them, got p = {md['p']}"
            )
    if scenario == "sweep-p" and cfg.data["sweep"]["p_grid"] is None:
        raise ParameterError("sweep requires a nonempty list sweep.p_grid (config sweep.p_grid or --p-grid)")
