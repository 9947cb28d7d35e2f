"""Command-line harness: scenario orchestration, CSV/JSON-lines artifacts, manifests.

Every subcommand becomes a config, is validated by ``parse_config`` and runs
through one scenario table.  The flag subcommands (exponents,
check-geometry, symbols) print their CSV to stdout.  Whenever a run writes
its primary artifacts into a directory, it also writes a ``manifest.json``
echoing the configuration, library versions, wall time, and a sha256
checksum per primary output so reruns can be compared byte-for-byte.
Numbers in CSVs are printed with 17 significant digits.

Exit codes: 0 success (a detected blowup is a result, not an error),
2 validation error, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import stat
import sys
import time
from contextlib import contextmanager
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, parse_config
from .errors import GridError, ParameterError, SupportError, TricomiLabError, WindowError
# p_crit, p_conf, strauss_exponent and damped_wave_coeffs go unused here; perfbench/layers.py traces them by name
from .exponents import (  # noqa: F401
    ModelParams,
    damped_wave_coeffs,
    exponent_report,
    gamma_interval,
    gamma_window_formula,
    p_conf,
    p_crit,
    q_bounds,
    strauss_exponent,
    strichartz_gamma_bound,
)
from .geometry import (
    bisect_max_delta,
    max_shift,
    phi_inverse,
    verify_shifted_cone_bounds,
    verify_unshifted_cone_inequality,
)
from .grids import RadialGrid
from .linear import solve_linear
from .profiles import bump, make_profile
from .semilinear import (
    NonlinearitySpec,
    picard_solve,
    sweep_p,
    time_march,
    weighted_solution_norm,
)
from .strichartz import (
    delta_bound,
    homogeneous_ratio,
    inhomogeneous_defaults,
    inhomogeneous_ratio,
    paired_gamma2,
    standard_family,
)
from .symbols import amplitude_envelope_bound, v1_symbol, v2_symbol

EXPONENT_HEADER = "m,n,p,p_crit,p_conf,p_strauss,q_min,q0,mu_m,alpha_m,gamma_lo,gamma_hi"


def _fmt(x) -> str:
    if isinstance(x, float):  # first, as most cells are; np.float64 too, formatted as a Python float
        return "%.17g" % x
    if isinstance(x, np.floating):  # nan and inf print as Python floats do
        return f"{x:.17g}"
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    return str(x)  # ints, numpy's too, and strings


def _write_text(path: Path, text: str) -> str:
    """Write ``text`` as UTF-8 and return the sha256 of the bytes written."""
    data = text.encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(map(_fmt, row)) for row in rows)]) + "\n"


def _manifest(outdir: Path, cfg_payload: dict, checks: dict[str, str], t0: float) -> None:
    import scipy

    manifest = {
        "config": cfg_payload,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "tricomi_lab": __version__,
        },
        "wall_time_s": round(time.time() - t0, 3),
        "outputs": checks,
    }
    _write_text(outdir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------


def _exponent_row(m: int, n: int, p: float | None):
    """One ``EXPONENT_HEADER`` row: the thresholds of ``exponent_report``, then the gamma window at p."""
    rep = exponent_report(m, n)
    glo = ghi = None
    if p is not None and m >= 1 and rep.p_crit < p < rep.p_conf:
        glo, ghi = gamma_interval(ModelParams(m, n, p))
    return [m, n, p, *astuple(rep), glo, ghi]


_SWEEP_RE = re.compile(r"^m=(\d+)\.\.(\d+)\s+n=(\d+)\.\.(\d+)$")


def run_exponents(m, n, p=None, sweep: str | None = None) -> str:
    rows = []
    if sweep:
        match = _SWEEP_RE.match(sweep.strip())
        if not match:
            raise ParameterError(f"exponents.sweep: bad sweep spec {sweep!r}; expected 'm=1..6 n=3..8'")
        m0, m1, n0, n1 = (int(g) for g in match.groups())
        if not (1 <= m0 <= m1 and 3 <= n0 <= n1):
            raise ParameterError(f"exponents.sweep: ranges must ascend with m >= 1 and n >= 3, got {sweep!r}")
        for mm in range(m0, m1 + 1):
            for nn in range(n0, n1 + 1):
                rows.append(_exponent_row(mm, nn, p))
    else:
        rows.append(_exponent_row(m, n, p))
    return _csv(EXPONENT_HEADER, rows)


# ---------------------------------------------------------------------------
# config-driven scenarios
# ---------------------------------------------------------------------------


def _data_callables(cfg: RunConfig, section: dict):
    params = cfg.model_params()
    dd = section["data"]
    amp = dd["amplitude"] * params.eps
    vel = (dd["amplitude"] if dd["vel_amplitude"] is None else dd["vel_amplitude"]) * params.eps
    prof = make_profile(dd["profile"], params.M, 1.0)
    f = lambda r: amp * prof(r)
    g = (lambda r: vel * prof(r)) if vel != 0.0 else (lambda r: np.zeros_like(np.asarray(r, float)))
    return f, g


def _snapshot_times(section: dict, t_final: float, name: str = "linear", dt: float | None = None):
    """Snapshot times to ``t_final`` of section ``name``, for a march of step ``dt`` if given.

    The default start is never before ``min(dt, t_final)``, and its 1e-3 floor holds only
    where that is before ``t_final``.  A given start must be before ``t_final``; the march
    itself rejects one that snaps to its step 0.
    """
    t_start = section["t_start"]
    if t_start is None:
        step = 0.0 if dt is None else min(dt, t_final)
        t_start = max(t_final / 100.0, 1e-3 if 1e-3 < t_final else 0.0, step)
    elif t_start >= t_final:
        raise ParameterError(f"{name}.t_start must be before the final time {t_final!r}, got {t_start!r}")
    spaced = np.linspace if section["snapshot_spacing"] == "linear" else np.geomspace
    return spaced(t_start, t_final, section["snapshots"])


def _field_rows(field, grid: RadialGrid, r_points: int) -> list:
    stride = max(1, grid.N // r_points)
    return [[t, grid.r[j], field.u[i, j]] for i, t in enumerate(field.times) for j in range(0, grid.N + 1, stride)]


def _scenario_exponents(cfg: RunConfig) -> dict[str, str]:
    md = cfg.data["model"]
    return {"exponents.csv": run_exponents(md["m"], md["n"], md["p"], cfg.data["exponents"]["sweep"])}


@contextmanager
def _window_keys(section: str, **renamed):
    """Re-raise a WindowError naming its config key: ``section.<parameter>``, or the key ``renamed`` gives."""
    try:
        yield
    except WindowError as exc:
        raise ParameterError(f"{section}.{renamed.get(exc.name, exc.name)}: {exc}") from None


def _scenario_check_geometry(cfg: RunConfig) -> dict[str, str]:
    sec, m, M = cfg.data["geometry"], cfg.data["model"]["m"], cfg.data["model"]["M"]
    T0 = sec["T0"]
    with _window_keys("geometry"):
        d_max = bisect_max_delta(m, M, T0)
        un = verify_unshifted_cone_inequality(m, M, T0, sec["delta"])
        nu = max_shift(m, M, T0) if sec["nu"] is None else sec["nu"]
        sh = verify_shifted_cone_bounds(m, M, T0, nu, rng=np.random.default_rng(cfg.data["seed"]))
    rows = [
        ["unshifted-cone", un.holds, un.worst_margin, d_max],
        ["shifted-cone-lower", sh.c_lower > 0, sh.c_lower, None],
        ["shifted-cone-upper", np.isfinite(sh.C_upper), sh.C_upper, None],
    ]
    return {"geometry.csv": _csv("inequality,holds,margin,delta_max", rows)}


def _scenario_symbols(cfg: RunConfig) -> dict[str, str]:
    m, grid_spec = cfg.data["model"]["m"], cfg.data["symbols"]["grid"]
    try:
        w_max_s, n_s = grid_spec.split(":")
        w_max, n_pts = float(w_max_s), int(n_s)
    except ValueError:
        w_max = n_pts = 0
    if not (0.0 < w_max < np.inf and n_pts >= 1):
        raise ParameterError(f"bad symbols.grid {grid_spec!r}; expected 'WMAX:NPOINTS', finite WMAX > 0, NPOINTS >= 1")
    with np.errstate(over="ignore"):
        if not np.isfinite(phi_inverse(m, w_max)):
            raise ParameterError(f"bad symbols.grid {grid_spec!r}: the time phi_inverse(m={m}, WMAX) overflows")
    lam = 1.0
    ws = np.geomspace(max(w_max, 1.0) * 1e-4, w_max, n_pts)
    rows = []
    for w in ws:
        t = phi_inverse(m, w / lam)
        v1 = v1_symbol(m, t, lam)
        v2 = v2_symbol(m, t, lam)
        rows.append([t, lam, v1.real, v1.imag, v2.real, v2.imag,
                     float(amplitude_envelope_bound(m, t, lam))])
    return {"symbols.csv": _csv("t,lambda,re_v1,im_v1,re_v2,im_v2,envelope_bound", rows)}


def _scenario_solve_linear(cfg: RunConfig) -> dict[str, str]:
    params = cfg.model_params()
    grid = cfg.grid()
    sec = cfg.data["linear"]
    times = _snapshot_times(sec, sec["t_final"])
    f, g = _data_callables(cfg, sec)
    field = solve_linear(params, f, g, times, grid)
    sup = field.sup_norms()
    l2 = field.l2_norms()
    leak = field.support_leak()
    summary_rows = [[t, sup[i], l2[i], leak[i]] for i, t in enumerate(field.times)]
    return {
        "field.csv": _csv("t,r,u", _field_rows(field, grid, sec["field_r_points"])),
        "summary.csv": _csv("t,sup_norm,l2_norm,support_leak", summary_rows),
    }


def _scenario_solve_semilinear(cfg: RunConfig) -> dict[str, str]:
    params = cfg.model_params()
    grid = cfg.grid()
    sec = cfg.data["semilinear"]
    horizon, dt = sec["horizon"], sec["dt"]
    spec = NonlinearitySpec(p=params.p, T0=sec["T0"])
    f, g = _data_callables(cfg, sec)
    mode = sec["mode"]
    record: dict = {
        "params": {"m": params.m, "n": params.n, "p": params.p, "eps": params.eps, "M": params.M},
        "mode": mode,
        "horizon": horizon,
        "dt": dt,
    }
    if mode == "picard":
        with _window_keys("semilinear"):
            diag, field = picard_solve(params, spec, f, g, horizon, dt, grid, max_iters=sec["max_iters"])
        record.update(
            kind="picard",
            converged=diag.converged,
            iterations=diag.iterations,
            M_seq=diag.M_seq,
            N_seq=diag.N_seq,
        )
    else:
        times = _snapshot_times(sec, horizon, name="semilinear", dt=dt)
        with _window_keys("semilinear", snapshot_times="t_start"):  # a start the march snaps to its step 0
            outcome, field = time_march(params, spec, f, g, horizon, dt, grid, snapshot_times=times)
        record.update(kind=outcome.kind, blowup_time=outcome.blowup_time)
        if outcome.kind == "global-horizon":
            record["tail_nonincreasing"] = outcome.tail_nonincreasing
            lo, hi = gamma_window_formula(params.m, params.n, params.p)
            if lo < hi and field.times.size >= 2:  # a trapezoid over one time is 0
                gamma = 0.5 * (lo + hi)
                record["weighted_norm"] = weighted_solution_norm(field, params, gamma)
                record["weighted_norm_gamma"] = gamma
        record["norm_history"] = [[t, s] for t, s in outcome.norm_history[:: max(1, len(outcome.norm_history) // 200)]]
    artifacts = {"outcome.json-lines": json.dumps(record, sort_keys=True) + "\n"}
    if sec["write_field"] and field.times.size:
        artifacts["field.csv"] = _csv("t,r,u", _field_rows(field, grid, sec["field_r_points"]))
    return artifacts


def _scenario_sweep_p(cfg: RunConfig) -> dict[str, str]:
    sec = cfg.data["sweep"]
    f, g = _data_callables(cfg, sec)
    rows = sweep_p(cfg.model_params(), sec["p_grid"], f, g, sec["horizon"], sec["dt"],
                   cfg.grid(), T0=sec["T0"])
    lines = [json.dumps(row, sort_keys=True) for row in rows]
    return {"outcome.json-lines": "\n".join(lines) + "\n"}


def _scenario_verify_strichartz(cfg: RunConfig) -> dict[str, str]:
    params = cfg.model_params()
    m, n = params.m, params.n
    grid = cfg.grid()
    sec = cfg.data["strichartz"]
    kind = sec["kind"]
    t_max = sec["t_max"]
    rows = []
    if kind in ("homogeneous", "both"):
        with _window_keys("strichartz"):
            q_min, q0 = q_bounds(m, n)
            q = 0.5 * (q_min + q0) if sec["q"] is None else sec["q"]
            gamma = 0.5 * strichartz_gamma_bound(m, n, q) if sec["gamma"] is None else sec["gamma"]
            delta = 0.5 * delta_bound(m, n, q, gamma) if sec["delta"] is None else sec["delta"]
            fam = standard_family(params.M, m)
            rows += [("hom", row) for row in homogeneous_ratio(params, fam, q, gamma, delta, grid, t_max=t_max)]
    if kind in ("inhomogeneous", "both"):
        qi_d, g1_d, g2_d = inhomogeneous_defaults(m, n)
        qi = qi_d if sec["q_inhom"] is None else sec["q_inhom"]
        g1 = g1_d if sec["gamma1"] is None else sec["gamma1"]
        g2 = sec["gamma2"]
        if g2 is None:
            g2 = g2_d if sec["gamma1"] is None else paired_gamma2(qi, g1)
        prof = bump(0.8 * (params.M - 1.0))

        def src(name, t_lo, t_hi):
            def s(t, r):
                if t <= t_lo or t >= t_hi:
                    return np.zeros_like(np.asarray(r, float))
                x = (t - t_lo) / (t_hi - t_lo)
                return float(np.exp(1.0 - 1.0 / (1.0 - (2.0 * x - 1.0) ** 2))) * prof(r)

            return (name, s)

        fam2 = [src("pulse-1-2", 1.0, 2.0), src("pulse-1.5-2.5", 1.5, 2.5)]
        box = {"T0": sec["T0"], "t_max": min(t_max, sec["t_max_inhom"]), "dt": sec["dt"]}
        with _window_keys("strichartz", q="q_inhom"):
            rows += [("inh", row) for row in inhomogeneous_ratio(params, fam2, qi, g1, g2, grid, **box)]
    rows = [[f"{tag}:{r.member}", r.lhs, r.rhs, r.ratio, r.tail_fraction, r.flags] for tag, r in rows]
    return {"ratios.csv": _csv("member_id,lhs,rhs,ratio,tail_fraction,flags", rows)}


_RUNNERS = {
    "exponents": _scenario_exponents,
    "check-geometry": _scenario_check_geometry,
    "symbols": _scenario_symbols,
    "solve-linear": _scenario_solve_linear,
    "solve-semilinear": _scenario_solve_semilinear,
    "sweep-p": _scenario_sweep_p,
    "verify-strichartz": _scenario_verify_strichartz,
}


def _outdir_error(outdir: Path, reason) -> ParameterError:
    return ParameterError(f"cannot make output directory {str(outdir)!r}: {reason}")


def _check_outdir(outdir: Path) -> None:
    """Reject, before the run, an output path that is a file, a dangling symlink or a name the OS cannot take."""
    try:
        is_dir = stat.S_ISDIR(outdir.stat().st_mode)
    except FileNotFoundError:  # made after the run, unless a dangling symlink holds the name
        if outdir.is_symlink():
            raise _outdir_error(outdir, "a dangling symlink") from None
        return
    except OSError as exc:  # a name too long, a file as a parent, ...
        raise _outdir_error(outdir, exc.strerror) from None
    except ValueError as exc:  # an embedded null byte
        raise _outdir_error(outdir, exc) from None
    if not is_dir:
        raise _outdir_error(outdir, "File exists")


def _run(cfg: RunConfig, outdir: Path | None) -> dict[str, str]:
    """Run the config's scenario; with an ``outdir``, write its artifacts and manifest there."""
    t0 = time.time()
    if outdir is not None:  # fail before the run, not after
        _check_outdir(outdir)
    artifacts = _RUNNERS[cfg.scenario](cfg)
    if outdir is not None:  # made only now, so a run that fails leaves no empty directory
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _outdir_error(outdir, exc.strerror) from None
        checks = {name: _write_text(outdir / name, text) for name, text in artifacts.items()}
        _manifest(outdir, cfg.data, checks, t0)
    return artifacts


def run_scenario(cfg: RunConfig) -> int:
    """Execute the scenario named by the config; writes artifacts + manifest."""
    _run(cfg, Path(cfg.output_dir))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tricomi-lab",
        description="Numerical laboratory for the semilinear generalized Tricomi equation.",
    )
    ap.add_argument("--output-dir", default=None, help="directory for artifacts (default: stdout only / config value)")
    ap.add_argument("--seed", type=int, default=None, help="seed for randomized sampling")
    sub = ap.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("exponents", help="closed-form exponent table")
    p_exp.add_argument("--m", type=int, default=None)
    p_exp.add_argument("--n", type=int, default=None)
    p_exp.add_argument("--p", type=float, default=None)
    p_exp.add_argument("--sweep", default=None, help="e.g. 'm=1..6 n=3..8'")

    p_geo = sub.add_parser("check-geometry", help="cone-covering inequality margins")
    p_geo.add_argument("--m", type=int, required=True)
    p_geo.add_argument("--M", type=float, required=True)
    p_geo.add_argument("--T0", type=float, required=True)
    p_geo.add_argument("--nu", type=float, default=None)
    p_geo.add_argument("--delta", type=float, default=None)

    p_sym = sub.add_parser("symbols", help="multiplier symbol dump")
    p_sym.add_argument("--m", type=int, required=True)
    p_sym.add_argument("--grid", default=None, help="'WMAX:NPOINTS' in w = phi(t)*lambda")

    for name in ("solve-linear", "solve-semilinear", "verify-strichartz"):
        pc = sub.add_parser(name, help=f"run the {name} scenario from a config file")
        pc.add_argument("--config", required=True)

    p_swp = sub.add_parser("sweep-p", help="outcome sweep across nonlinearity powers")
    p_swp.add_argument("--config", required=True)
    p_swp.add_argument("--p-grid", default=None, help="comma-separated powers, overrides config")
    return ap


def _given(**flags) -> dict:
    """The flags given on the command line; parse_config fills in the others' defaults."""
    return {key: value for key, value in flags.items() if value is not None}


def _flag_payload(args) -> dict:
    """The config payload of a flag subcommand (exponents, check-geometry, symbols)."""
    if args.command == "exponents":
        if args.sweep is None and (args.m is None or args.n is None):
            raise ParameterError("exponents requires --m and --n (or --sweep)")
        # p stays null without --p, so the table leaves its gamma columns empty
        payload = {"model": {"p": args.p, **_given(m=args.m, n=args.n)}, "exponents": _given(sweep=args.sweep)}
    elif args.command == "check-geometry":
        payload = {"model": {"m": args.m, "M": args.M},
                   "geometry": _given(T0=args.T0, nu=args.nu, delta=args.delta)}
    else:
        payload = {"model": {"m": args.m}, "symbols": _given(grid=args.grid)}
    return {"scenario": args.command, **payload, **_given(seed=args.seed, output_dir=args.output_dir)}


def _load_config(args) -> RunConfig:
    """The config file with the command-line overrides applied, then validated."""
    try:
        payload = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ParameterError(f"cannot read config {args.config!r}: {exc}")
    if isinstance(payload, dict):  # parse_config names anything else
        if args.output_dir is not None:
            payload["output_dir"] = args.output_dir
        if getattr(args, "p_grid", None) and isinstance(payload.setdefault("sweep", {}), dict):
            try:
                payload["sweep"]["p_grid"] = [float(p) for p in args.p_grid.split(",")]
            except ValueError as exc:
                raise ParameterError(f"--p-grid: {exc}")
    cfg = parse_config(json.dumps(payload))
    if cfg.scenario != args.command:
        raise ParameterError(
            f"config names scenario {cfg.scenario!r} but the subcommand is {args.command!r}"
        )
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("exponents", "check-geometry", "symbols"):
            cfg = parse_config(json.dumps(_flag_payload(args)))
            artifacts = _run(cfg, Path(args.output_dir) if args.output_dir else None)
            sys.stdout.write("".join(artifacts.values()))
            return 0
        return run_scenario(_load_config(args))
    except (ParameterError, GridError, SupportError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except TricomiLabError as exc:  # every other package error is a numerical failure
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
