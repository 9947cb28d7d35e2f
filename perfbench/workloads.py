"""Workload inputs and output checks for the tricomi-lab benchmark.

A workload turns a seed into one *pass*: a fixed list of scenario configs
that the benchmark feeds to ``parse_config`` and ``run_scenario``.  Every
scenario's artifacts are then checked, either against values recorded on the
seed program or against closed forms computed here with numpy/scipy alone,
so a check never trusts the code path it is checking.

The seed only moves inputs that leave the amount of work unchanged (data
amplitude, the Sobolev order offset, exponent and cone parameters), so run
times from different seeds are comparable.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import jv


class OutputMismatch(Exception):
    """A scenario's artifacts disagree with their manifest or pinned values."""


# Values recorded on the seed program for the configs below.
# march: weighted_norm / amplitude.  Over the seeded amplitude band the
# nonlinear part moves this by at most 3e-5 (relative), hence the 1e-4 pin.
MARCH_NORM_PER_AMPLITUDE = 8.337141058056407e-4
MARCH_NORM_RTOL = 1e-4
# picard: M_0 / amplitude.  The first iterate is the linear solution, so M_0
# is exactly proportional to the amplitude.
PICARD_M0_PER_AMPLITUDE = 1.0544097391936358e-3
# strichartz: the weighted LHS of each family member depends on (q, gamma)
# and the grid, never on delta, which is the seeded input.
STRICHARTZ_LHS = {
    "hom:bump-w0.35": 0.19443667384619107,
    "hom:bump-w0.5": 0.3159316506125778,
    "hom:bump-w0.65": 0.4515785416357252,
    "hom:bump-w0.8": 0.5990635509970544,
    "hom:annular-shifted": 1.0866538406999824,
    "hom:two-bump": 0.7710489135618477,
    "hom:dilate-1.15": 0.3043961761056201,
    "hom:dilate-1.3": 0.2533709620721421,
}
# Pinned values allow this much drift, so a more accurate symbol kernel or
# an FFT in place of the direct transform still passes.
PIN_RTOL = 1e-6


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _march_pass(rng: np.random.Generator) -> list[dict]:
    amplitude = 32.0 * float(rng.uniform(0.95, 1.05))
    return [{
        "scenario": "solve-semilinear",
        "model": {"m": 1, "n": 3, "p": 2.5, "eps": 1e-3, "M": 2.0},
        "grid": {"r_max": 64.0, "N": 2048, "transform": "auto"},
        "semilinear": {"horizon": 1.0, "dt": 0.01, "T0": 0.5, "mode": "march",
                       "data": {"profile": "bump", "amplitude": amplitude}},
    }]


def _picard_pass(rng: np.random.Generator) -> list[dict]:
    amplitude = float(rng.uniform(0.95, 1.05))
    return [{
        "scenario": "solve-semilinear",
        "model": {"m": 1, "n": 3, "p": 2.0, "eps": 1e-3, "M": 2.0},
        "grid": {"r_max": 64.0, "N": 2048, "transform": "fft"},
        "semilinear": {"horizon": 1.5, "dt": 0.02, "T0": 0.5, "mode": "picard",
                       "data": {"profile": "bump", "amplitude": amplitude}},
    }]


def _strichartz_delta_max(m: int, n: int) -> float:
    """Upper end of the delta window at the (q, gamma) midpoints the CLI defaults to."""
    k = m + 2.0
    q = 0.5 * (2.0 * (k * n - m) / (k * n - 2.0) + 2.0 * (k * n + 2.0) / (k * n - 2.0))
    gamma = 0.5 * ((k * n - 2.0) / (2.0 * k) - (k * n - m) / (k * q))
    return n / 2.0 + 1.0 / k - gamma - 1.0 / q


def _strichartz_pass(rng: np.random.Generator) -> list[dict]:
    delta_max = _strichartz_delta_max(1, 3)
    # Above ~0.65 delta_max the ratio spread nears the acceptance limit of 3.
    delta = float(rng.uniform(0.4, 0.6)) * delta_max
    return [{
        "scenario": "verify-strichartz",
        "model": {"m": 1, "n": 3, "p": 2.0, "eps": 1.0, "M": 2.0},
        "grid": {"r_max": 170.0, "N": 4096, "transform": "fft"},
        "strichartz": {"kind": "homogeneous", "t_max": 25.0, "delta": delta},
    }]


def _tables_pass(rng: np.random.Generator) -> list[dict]:
    """46 small scenarios; the mix of kinds and sizes is the same for every seed.

    The check-geometry and 64-point symbols scenarios (similar latencies)
    span the middle of the latency distribution, so op_ms.p50 falls inside
    them.  The one 256-point symbols dump is 1/46 of the scenarios, so
    op_ms.p99 sits near its median rather than in its tail.
    """
    cfgs = []
    for _ in range(8):
        cfgs.append({"scenario": "exponents", "model": {
            "m": int(rng.integers(1, 7)), "n": int(rng.integers(3, 9)),
            "p": float(rng.uniform(1.2, 3.0))}})
    for _ in range(4):
        m0, n0 = int(rng.integers(1, 5)), int(rng.integers(3, 7))
        cfgs.append({"scenario": "exponents",
                     "exponents": {"sweep": f"m={m0}..{m0 + 2} n={n0}..{n0 + 2}"}})
    # delta_max ~ (phi(T0/4) / M)^2 must stay >= 1e-4: small T0 or large M
    # (and any m >= 3) push it below, so only these boxes are drawn from.
    for i in range(22):
        m, t0_box, m_box = (1, (0.5, 0.9), (1.5, 2.5)) if i % 2 else (2, (0.85, 0.95), (1.3, 2.0))
        cfgs.append({"scenario": "check-geometry",
                     "model": {"m": m, "M": float(rng.uniform(*m_box))},
                     "geometry": {"T0": float(rng.uniform(*t0_box))},
                     "seed": int(rng.integers(0, 2**31))})
    for _ in range(11):
        cfgs.append({"scenario": "symbols", "model": {"m": int(rng.integers(1, 4))},
                     "symbols": {"grid": f"{float(rng.uniform(80.0, 120.0)):.3f}:64"}})
    # op_ms.p99 falls inside this one scenario's latencies, so its inputs are
    # fixed: its cost depends on m and the grid (up to 10% between draws).
    cfgs.append({"scenario": "symbols", "model": {"m": 2}, "symbols": {"grid": "100.000:256"}})
    order = rng.permutation(len(cfgs))
    return [cfgs[i] for i in order]


# Why each workload: see BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "march": _march_pass,
    "picard": _picard_pass,
    "strichartz": _strichartz_pass,
    "tables": _tables_pass,
}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise OutputMismatch(msg)


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _phi(m: int, t):
    return 2.0 / (m + 2.0) * np.asarray(t, dtype=float) ** ((m + 2.0) / 2.0)


def output_digests(outdir: Path) -> dict[str, str]:
    """sha256 per primary output, verified against ``manifest.json``."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    digests = manifest["outputs"]
    _expect(bool(digests), "manifest lists no outputs")
    for name, digest in digests.items():
        actual = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        _expect(actual == digest, f"{name} does not match its manifest checksum")
    return digests


def _check_march(cfg: dict, outdir: Path) -> None:
    rec = json.loads((outdir / "outcome.json-lines").read_text())
    _expect(rec["kind"] == "global-horizon", f"outcome kind {rec['kind']!r}, expected 'global-horizon'")
    _expect(rec["tail_nonincreasing"] is True, "tail is not non-increasing")
    amplitude = cfg["semilinear"]["data"]["amplitude"]
    per_amp = rec["weighted_norm"] / amplitude
    _expect(_rel(per_amp, MARCH_NORM_PER_AMPLITUDE) < MARCH_NORM_RTOL,
            f"weighted norm per amplitude {per_amp!r} != {MARCH_NORM_PER_AMPLITUDE!r}")
    md = cfg["model"]
    k, n, p = md["m"] + 2.0, md["n"], md["p"]
    lo = 1.0 / (p * (p + 1.0))
    hi = ((k * n - 2.0) * p - (k * n + 2.0)) / (2.0 * k * (p + 1.0)) + md["m"] / (k * (p + 1.0))
    _expect(abs(rec["weighted_norm_gamma"] - 0.5 * (lo + hi)) < 1e-12, "weighted-norm gamma off the window midpoint")


def _check_picard(cfg: dict, outdir: Path) -> None:
    rec = json.loads((outdir / "outcome.json-lines").read_text())
    _expect(rec["kind"] == "picard", f"outcome kind {rec['kind']!r}, expected 'picard'")
    _expect(rec["converged"] is True, "picard did not converge")
    n_seq = rec["N_seq"]
    ratios = [b / a for a, b in zip(n_seq, n_seq[1:])]
    _expect(len(ratios) >= 1 and all(r < 0.9 for r in ratios), f"N ratios {ratios} not all < 0.9")
    m0 = rec["M_seq"][0] / cfg["semilinear"]["data"]["amplitude"]
    _expect(_rel(m0, PICARD_M0_PER_AMPLITUDE) < PIN_RTOL, f"M_0 per amplitude {m0!r} != {PICARD_M0_PER_AMPLITUDE!r}")


def _check_strichartz(cfg: dict, outdir: Path) -> None:
    rows = _rows(outdir / "ratios.csv")
    _expect([r["member_id"] for r in rows] == list(STRICHARTZ_LHS), "family members differ from the standard family")
    ratios = []
    for r in rows:
        lhs, rhs, ratio, tail = (float(r[k]) for k in ("lhs", "rhs", "ratio", "tail_fraction"))
        name = r["member_id"]
        _expect(math.isfinite(ratio) and ratio > 0, f"{name}: ratio {ratio!r} not finite positive")
        _expect(_rel(lhs, STRICHARTZ_LHS[name]) < PIN_RTOL, f"{name}: lhs {lhs!r} != {STRICHARTZ_LHS[name]!r}")
        _expect(_rel(ratio, lhs / rhs) < 1e-12, f"{name}: ratio != lhs/rhs")
        _expect(tail < 0.05, f"{name}: tail fraction {tail} >= 0.05")
        ratios.append(ratio)
    _expect(max(ratios) / min(ratios) < 3.0, f"ratio spread {max(ratios) / min(ratios):.3f} >= 3")


def _check_exponents(cfg: dict, outdir: Path) -> None:
    rows = _rows(outdir / "exponents.csv")
    sweep = cfg.get("exponents", {}).get("sweep")
    _expect(len(rows) == (9 if sweep else 1), f"{len(rows)} exponent rows")
    for r in rows:
        m, n = int(r["m"]), int(r["n"])
        k = m + 2.0
        pc, pf, ps = float(r["p_crit"]), float(r["p_conf"]), float(r["p_strauss"])
        quad = (k * n / 2.0 - 1.0) * pc * pc + (k * (1.0 - n / 2.0) - 3.0) * pc - k
        _expect(abs(quad) < 1e-12 * k * n * pc * pc, f"p_crit({m},{n}) misses its quadratic by {quad:.2e}")
        _expect(abs((n - 1.0) * ps * ps - (n + 1.0) * ps - 2.0) < 1e-12 * n * ps * ps, f"Strauss({n}) misses its quadratic")
        _expect(_rel(pf, (k * n + 6.0) / (k * n - 2.0)) < 1e-15, f"p_conf({m},{n}) off its closed form")
        _expect(1.0 < pc < pf, f"p_crit {pc} not in (1, p_conf)")
        _expect(_rel(float(r["q_min"]), 2.0 * (k * n - m) / (k * n - 2.0)) < 1e-15, "q_min off its closed form")
        _expect(_rel(float(r["q0"]), 2.0 * (k * n + 2.0) / (k * n - 2.0)) < 1e-15, "q0 off its closed form")
        _expect(float(r["mu_m"]) == m / k and float(r["alpha_m"]) == 2.0 * m / k, "damped-wave pair off")
        p = float(r["p"]) if r["p"] else None
        in_window = p is not None and pc < p < pf
        _expect(bool(r["gamma_lo"]) == in_window, "gamma window present iff p_crit < p < p_conf")
        if in_window:
            glo, ghi = float(r["gamma_lo"]), float(r["gamma_hi"])
            _expect(abs(glo - 1.0 / (p * (p + 1.0))) < 1e-12 and glo < ghi, "gamma window off its closed form")


def _check_geometry(cfg: dict, outdir: Path) -> None:
    rows = {r["inequality"]: r for r in _rows(outdir / "geometry.csv")}
    m, big_m = cfg["model"]["m"], cfg["model"]["M"]
    t0 = cfg["geometry"]["T0"]
    un = rows["unshifted-cone"]
    d_max = float(un["delta_max"])
    _expect(d_max >= 1e-4, f"delta_max {d_max} < 1e-4")
    _expect(un["holds"] == "true", "unshifted cone inequality fails at delta = 1e-4")
    # The inequality is affine in delta, so the largest delta on the sampled
    # cone (t log-spaced on [T0/4, 1000], r evenly on [0, phi(t)-phi(T0/4)])
    # is the sampled minimum of (phi^2 - r^2) / ((phi+M)^2 - r^2).
    ts = np.geomspace(t0 / 4.0, 1.0e3, 200)
    ph = _phi(m, ts)[:, None]
    rr = np.maximum(ph - _phi(m, t0 / 4.0), 0.0) * np.linspace(0.0, 1.0, 50)
    closed = float(((ph**2 - rr**2) / ((ph + big_m) ** 2 - rr**2)).min())
    _expect(-1e-12 <= closed - d_max <= 2e-6, f"bisected delta_max {d_max} vs closed form {closed}")
    c_lower = float(rows["shifted-cone-lower"]["margin"])
    c_upper = float(rows["shifted-cone-upper"]["margin"])
    _expect(c_lower > 1e-6, f"shifted-cone c_lower {c_lower} <= 1e-6")
    _expect(c_lower <= c_upper < math.inf, "shifted-cone bounds out of order")


def _check_symbols(cfg: dict, outdir: Path) -> None:
    rows = _rows(outdir / "symbols.csv")
    _, n_pts = cfg["symbols"]["grid"].split(":")
    _expect(len(rows) == int(n_pts), f"{len(rows)} symbol rows, expected {n_pts}")
    m = cfg["model"]["m"]
    nu = 1.0 / (m + 2.0)
    for r in rows:
        t, lam = float(r["t"]), float(r["lambda"])
        w = float(_phi(m, t)) * lam
        ref1 = gamma_fn(1.0 - nu) * (0.5 * w) ** nu * jv(-nu, w)
        ref2 = t * gamma_fn(1.0 + nu) * (0.5 * w) ** (-nu) * jv(nu, w)
        for name, ref, re, im in (("V1", ref1, r["re_v1"], r["im_v1"]),
                                  ("V2", ref2, r["re_v2"], r["im_v2"])):
            scale = max(abs(ref), abs(float(re)))
            tol = 1e-7 * scale + 1e-9  # three-route agreement tolerance
            _expect(abs(float(re) - ref) < tol and abs(float(im)) < tol, f"{name}(t={t}) off the Bessel form")


def check_outputs(cfg: dict, outdir: Path) -> None:
    """Raise OutputMismatch (or a parse error) when a scenario's artifacts are wrong."""
    scenario = cfg["scenario"]
    if scenario == "solve-semilinear":
        mode = cfg["semilinear"]["mode"]
        (_check_picard if mode == "picard" else _check_march)(cfg, outdir)
    elif scenario == "verify-strichartz":
        _check_strichartz(cfg, outdir)
    elif scenario == "exponents":
        _check_exponents(cfg, outdir)
    elif scenario == "check-geometry":
        _check_geometry(cfg, outdir)
    elif scenario == "symbols":
        _check_symbols(cfg, outdir)
    else:
        raise OutputMismatch(f"no check for scenario {scenario!r}")
