"""Spans and work counters around each tricomi_lab layer, installed from outside.

Each public function is wrapped under the name its callers look it up by
(``tricomi_lab.semilinear.symbol_matrix``, not ``symbols.symbol_matrix``;
the transforms on the ``RadialGrid`` class), so the package itself is not
changed.  A span records (name, start, end, parent, run id); a layer's self
time is its spans' time minus the time of their child spans.  Counters that
are derived from array sizes (modes, flops, samples) are *computed*, not
measured.

A target that a later version of the package no longer has is skipped and
listed in ``Tracer.missing``, so its metrics read 0 instead of the run failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _on_symbol_matrix(tr, fn, args, kwargs, result):
    m, t, lam = args
    lam = np.asarray(lam, dtype=float)
    tr.counts["symbols.modes"] += lam.size
    tr.note_symbol_point(m, t, lam, matrix=True)


def _on_v_symbol(tr, fn, args, kwargs, result):
    m, t, lam = args[:3]
    tr.note_symbol_point(m, t, np.array([float(lam)]), matrix=False)


def _on_transform(tr, fn, args, kwargs, result):
    grid = args[0]
    grids = importlib.import_module("tricomi_lab.grids")
    direct = grid.transform == "direct" or (
        grid.transform == "auto" and grid.N <= getattr(grids, "DIRECT_TRANSFORM_MAX_N", 0))
    n = grid.N
    tr.counts["grids.direct_calls"] += direct
    tr.counts["grids.flops"] += 2.0 * n * n if direct else 2.5 * n * math.log2(n)


def _on_march(tr, fn, args, kwargs, result):
    tr.counts["semilinear.steps"] += len(result[2])  # per-step (t, sup) history


def _on_picard(tr, fn, args, kwargs, result):
    tr.counts["semilinear.iterations"] += result[0].iterations


def _on_solve_linear(tr, fn, args, kwargs, result):
    tr.counts["linear.snapshots"] += result.times.size


def _on_weighted_field_norm(tr, fn, args, kwargs, result):
    field, spec = args[:2]
    edges = 2.0 / (field.m + 2.0) * field.times ** ((field.m + 2.0) / 2.0) + spec.M - 1.0
    tr.counts["linear.samples"] += int(np.searchsorted(field.grid.r, edges, side="right").sum())


@functools.lru_cache(maxsize=None)
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _cone_samples(*dims):
    def hook(tr, fn, args, kwargs, result):
        bound = _signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        tr.counts["geometry.samples"] += math.prod(bound.arguments[d] for d in dims)
    return hook


def _bisect_attempt(tr, fn, args, kwargs, result):
    tr.counts["geometry.bisect_attempts"] += 1
    _cone_samples("n_t", "n_r")(tr, fn, args, kwargs, result)


def _on_write_text(tr, fn, args, kwargs, result):
    tr.counts["cli.bytes_written"] += len(args[1].encode())


# (module[:class], attribute, span name or None for a counter only, hook)
TARGETS = [
    ("tricomi_lab.semilinear", "symbol_matrix", "symbols.symbol_matrix", _on_symbol_matrix),
    ("tricomi_lab.linear", "symbol_matrix", "symbols.symbol_matrix", _on_symbol_matrix),
    ("tricomi_lab.cli", "v1_symbol", "symbols.v_symbol", _on_v_symbol),
    ("tricomi_lab.cli", "v2_symbol", "symbols.v_symbol", _on_v_symbol),
    ("tricomi_lab.grids:RadialGrid", "forward", "grids.forward", _on_transform),
    ("tricomi_lab.grids:RadialGrid", "inverse", "grids.inverse", _on_transform),
    ("tricomi_lab.semilinear:_Stepper", "march", None, _on_march),
    ("tricomi_lab.cli", "time_march", "semilinear.time_march", None),
    ("tricomi_lab.cli", "picard_solve", "semilinear.picard_solve", _on_picard),
    ("tricomi_lab.semilinear", "evaluate_nonlinearity", "semilinear.evaluate_nonlinearity", None),
    ("tricomi_lab.cli", "weighted_solution_norm", "semilinear.weighted_solution_norm", None),
    ("tricomi_lab.cli", "solve_linear", "linear.solve_linear", _on_solve_linear),
    ("tricomi_lab.strichartz", "solve_linear", "linear.solve_linear", _on_solve_linear),
    ("tricomi_lab.semilinear", "weighted_field_norm", "linear.weighted_field_norm", _on_weighted_field_norm),
    ("tricomi_lab.strichartz", "weighted_field_norm", "linear.weighted_field_norm", _on_weighted_field_norm),
    ("tricomi_lab.cli", "homogeneous_ratio", "strichartz.homogeneous_ratio", None),
    ("tricomi_lab.strichartz", "sobolev_w_s1_norm", "strichartz.sobolev_w_s1_norm", None),
    ("tricomi_lab.cli", "bisect_max_delta", "geometry.bisect_max_delta", None),
    # inside bisect_max_delta: counted only, so the bisection's self time holds its checks
    ("tricomi_lab.geometry", "verify_unshifted_cone_inequality", None, _bisect_attempt),
    ("tricomi_lab.cli", "verify_unshifted_cone_inequality",
     "geometry.verify_unshifted_cone_inequality", _cone_samples("n_t", "n_r")),
    ("tricomi_lab.cli", "verify_shifted_cone_bounds",
     "geometry.verify_shifted_cone_bounds", _cone_samples("n_t", "n_r", "n_angle")),
    *(("tricomi_lab.cli", fn, "exponents", None) for fn in (
        "p_crit", "p_conf", "strauss_exponent", "q_bounds", "damped_wave_coeffs",
        "gamma_interval", "gamma_window_formula")),
    ("tricomi_lab.exponents", "strichartz_gamma_bound", "exponents", None),
    ("tricomi_lab.config", "parse_config", "config.parse_config", None),
    ("tricomi_lab.cli", "run_scenario", "cli.run_scenario", None),
    ("tricomi_lab.cli", "_write_text", None, _on_write_text),
]


def _resolve(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """In-memory spans and counters; ``install`` wraps, ``remove`` restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, run_id, child_s]
        self.stack: list[int] = []
        self.run_id = 0
        self.counts: dict[str, float] = defaultdict(float)
        # (m, t, grid) arguments of symbol_matrix per run id, and of the scalar symbols
        self.matrix_points: dict[int, set] = defaultdict(set)
        self.scalar_points: set = set()
        self.grids: dict[tuple, np.ndarray] = {}
        self.missing: list[str] = []
        self._installed: list[tuple] = []

    def note_symbol_point(self, m, t, lam: np.ndarray, matrix: bool) -> None:
        grid = (lam.size, float(lam[0]))
        self.grids.setdefault(grid, lam)
        point = (int(m), float(t), grid)
        (self.matrix_points[self.run_id] if matrix else self.scalar_points).add(point)

    def _run_hook(self, hook, fn, args, kwargs, result) -> None:
        h0 = time.perf_counter()
        hook(self, fn, args, kwargs, result)
        if self.stack:  # keep counter upkeep out of the enclosing span's self time
            self.spans[self.stack[-1]][5] += time.perf_counter() - h0

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.run_id, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += span[2] - span[1]
            if hook is not None:
                self._run_hook(hook, fn, args, kwargs, result)
            return result

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._run_hook(hook, fn, args, kwargs, result)
            return result

        return traced if name is not None else counted

    def install(self) -> None:
        self.missing = []
        for target, attr, name, hook in TARGETS:
            try:
                owner = _resolve(target)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{target}.{attr}")
                continue
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, hook))

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def write_spans(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            for name, start, end, parent, run_id, _ in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9), parent, run_id]) + "\n")


def wronskian_residual(tr: Tracer, symbol_matrix, limit: int = 64) -> float:
    """max |V1 V2' - V1' V2 - 1| over up to ``limit`` of the traced (m, t, grid) points."""
    points = sorted(tr.scalar_points.union(*tr.matrix_points.values()))
    worst = 0.0
    for m, t, grid in points[:: max(1, math.ceil(len(points) / limit))]:
        v1, v2, v1p, v2p = symbol_matrix(m, t, tr.grids[grid])
        worst = max(worst, float(np.max(np.abs(v1 * v2p - v1p * v2 - 1.0))))
    return worst


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, passes: int, residual: float) -> dict[str, float]:
    """Per-pass layer metrics from the spans and counters of ``passes`` traced passes."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    matrix_calls: dict[int, int] = defaultdict(int)  # run id -> symbol_matrix calls
    for name, start, end, parent, run_id, child_s in tr.spans:
        calls[name] += 1
        self_s[name] += end - start - child_s
        if name == "symbols.symbol_matrix":
            matrix_calls[run_id] += 1
    repeats = [1.0 - len(tr.matrix_points[r]) / n for r, n in matrix_calls.items()]
    c = tr.counts
    n_transforms = calls["grids.forward"] + calls["grids.inverse"]
    transform_s = self_s["grids.forward"] + self_s["grids.inverse"]
    per_pass = {
        "symbols.symbol_matrix.calls": calls["symbols.symbol_matrix"],
        "symbols.symbol_matrix.modes": c["symbols.modes"],
        "symbols.symbol_matrix.self_s": self_s["symbols.symbol_matrix"],
        "symbols.v_symbol.calls": calls["symbols.v_symbol"],
        "symbols.v_symbol.self_s": self_s["symbols.v_symbol"],
        "grids.forward.calls": calls["grids.forward"],
        "grids.inverse.calls": calls["grids.inverse"],
        "grids.transform.self_s": transform_s,
        "grids.transform.flops_computed": c["grids.flops"],
        "semilinear.steps": c["semilinear.steps"],
        "semilinear.time_march.self_s": self_s["semilinear.time_march"],
        "semilinear.picard_solve.self_s": self_s["semilinear.picard_solve"],
        "semilinear.picard_solve.iterations": c["semilinear.iterations"],
        "semilinear.evaluate_nonlinearity.calls": calls["semilinear.evaluate_nonlinearity"],
        "semilinear.evaluate_nonlinearity.self_s": self_s["semilinear.evaluate_nonlinearity"],
        "semilinear.weighted_solution_norm.self_s": self_s["semilinear.weighted_solution_norm"],
        "linear.solve_linear.calls": calls["linear.solve_linear"],
        "linear.solve_linear.self_s": self_s["linear.solve_linear"],
        "linear.snapshots": c["linear.snapshots"],
        "linear.weighted_field_norm.calls": calls["linear.weighted_field_norm"],
        "linear.weighted_field_norm.self_s": self_s["linear.weighted_field_norm"],
        "linear.weighted_field_norm.samples": c["linear.samples"],
        "strichartz.homogeneous_ratio.self_s": self_s["strichartz.homogeneous_ratio"],
        "strichartz.sobolev_w_s1_norm.calls": calls["strichartz.sobolev_w_s1_norm"],
        "strichartz.sobolev_w_s1_norm.self_s": self_s["strichartz.sobolev_w_s1_norm"],
        "geometry.bisect_max_delta.calls": calls["geometry.bisect_max_delta"],
        "geometry.bisect_max_delta.self_s": self_s["geometry.bisect_max_delta"],
        "geometry.verify_shifted_cone_bounds.self_s": self_s["geometry.verify_shifted_cone_bounds"],
        "geometry.samples": c["geometry.samples"],
        "exponents.self_s": self_s["exponents"],
        "config.parse_config.self_s": self_s["config.parse_config"],
        "cli.run_scenario.self_s": self_s["cli.run_scenario"],
        "cli.bytes_written": c["cli.bytes_written"],
    }
    metrics = {k: v / passes for k, v in per_pass.items()}
    metrics.update({
        "symbols.symbol_matrix.ns_per_mode": _ratio(1e9 * self_s["symbols.symbol_matrix"], c["symbols.modes"]),
        "symbols.symbol_matrix.repeat_frac": _ratio(sum(repeats), len(repeats)),
        "symbols.wronskian_residual": residual,
        "grids.transform.us_per_call": _ratio(1e6 * transform_s, n_transforms),
        "grids.transform.direct_frac": _ratio(c["grids.direct_calls"], n_transforms),
        "geometry.verify_unshifted_cone_inequality.calls": _ratio(c["geometry.bisect_attempts"], calls["geometry.bisect_max_delta"]),
    })
    return metrics
