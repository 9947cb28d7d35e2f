"""Semilinear solver: u_tt - t^m Lap(u) = F_p(t, u) with regularized nonlinearity.

The nonlinearity is the blended form

    F_p(t, u) = (1 - chi(t)) F_smooth(u) + chi(t) |u|^p,

where chi is a C-infinity switch that is 0 up to T0/2 and exactly 1 from T0
on, and the smooth branch F_smooth(u) = (eps0^2 + u^2)^((p-1)/2) u satisfies
F_smooth(0) = 0 and |F_smooth(u)| <= C (1 + |u|)^(p-1) |u|.

Time marching is per-step per-mode Duhamel: over [t1, t2] each sine
coefficient advances by the exact 2x2 propagator of v'' + t^m lambda^2 v = 0
(unit Wronskian), and the source is frozen at the step midpoint -- a
second-order scheme whose linear part is exact at any dt.  One function,
``_march``, runs this scheme for ``time_march``, ``picard_solve`` and the
inhomogeneous Strichartz probe, on one field or a batch of them.  Blowup is
a result, not an error: ``time_march`` reports kind "blowup" with the first
midpoint time at which sup|u| exceeds BLOWUP_THRESHOLD (1e6) or goes
non-finite, and "global-horizon" otherwise.

``picard_solve`` runs the fixed-point iteration u_k <- (linear solve with
source F_p(t, u_{k-1})), recording the weighted norms M_k of iterates and
N_k of consecutive differences at q = p + 1; in the contraction regime the
N_k ratios sit well below 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import GridError, ParameterError, PicardDivergenceError, TricomiLabError
from .exponents import ModelParams, gamma_interval
from .geometry import WeightSpec, phi
from .grids import RadialGrid, SpaceTimeField, SpectralField
from .linear import _data_coeffs, _weighted_integrals, weighted_field_norm
from .symbols import symbol_matrix

__all__ = [
    "BLOWUP_THRESHOLD",
    "NonlinearitySpec",
    "StepControl",
    "RunOutcome",
    "PicardDiagnostics",
    "evaluate_nonlinearity",
    "time_march",
    "picard_solve",
    "weighted_solution_norm",
    "sweep_p",
]


def _smoothstep(x):
    """C-inf 0->1 transition on [0, 1] built from exp(-1/x)."""
    x = np.asarray(x, dtype=float)
    a = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
    b = np.where(x < 1, np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return a / (a + b)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Regularized nonlinearity: power p, switch time T0, smooth-branch scale eps0."""

    p: float
    T0: float = 0.5
    eps0: float = 1e-6

    def __post_init__(self):
        if not self.p > 1:
            raise ParameterError(f"p > 1 required, got {self.p}")
        if not (0.0 < self.T0 < 1.0):
            raise ParameterError(f"T0 in (0, 1) required, got {self.T0}")

    def chi(self, t: float) -> float:
        """Smooth switch: 0 for t <= T0/2, 1 for t >= T0."""
        if t <= self.T0 / 2.0:
            return 0.0
        if t >= self.T0:
            return 1.0
        return float(_smoothstep(np.array((t - self.T0 / 2.0) / (self.T0 / 2.0))))

    def __call__(self, t: float, u):
        return evaluate_nonlinearity(self, t, u)


def evaluate_nonlinearity(spec: NonlinearitySpec, t: float, u):
    """Blended value (1 - chi) F_smooth(u) + chi |u|^p; exactly |u|^p for t >= T0."""
    u = np.asarray(u, dtype=float)
    c = spec.chi(t)
    power = np.abs(u) ** spec.p
    if c >= 1.0:
        return power
    smooth = (spec.eps0**2 + u * u) ** ((spec.p - 1.0) / 2.0) * u
    return (1.0 - c) * smooth + c * power


BLOWUP_THRESHOLD = 1e6  # sup|u| past which a march reports blowup


@dataclass(frozen=True)
class StepControl:
    """Fixed-step control for the Duhamel march."""

    dt: float

    def __post_init__(self):
        if not self.dt > 0:
            raise ParameterError("dt > 0 required")


@dataclass
class RunOutcome:
    """What a march did: global to the horizon, or blowup at a finite time."""

    kind: str  # "global-horizon" | "blowup"
    blowup_time: float | None = None
    final_weighted_norm: float | None = None
    norm_history: list = dc_field(default_factory=list)  # (t, sup|u|) per step
    tail_nonincreasing: bool | None = None


@dataclass
class PicardDiagnostics:
    """Weighted norms of Picard iterates (M) and differences (N)."""

    M_seq: list
    N_seq: list
    converged: bool
    iterations: int


def _steps(params: ModelParams, grid: RadialGrid, horizon: float, dt: float):
    """(nsteps, dt) of the fixed-step march to ``horizon``, after the wall check."""
    if not dt > 0:
        raise ParameterError(f"dt > 0 required, got {dt}")
    grid.validate_horizon(params.m, params.M, horizon)
    nsteps = int(np.ceil(horizon / dt))
    return nsteps, horizon / nsteps


def _march(m, grid, horizon, nsteps, cv, cd, source=None, threshold=np.inf, keep=()):
    """Midpoint-frozen Duhamel march of the sine coefficients (cv, cd) to ``horizon``.

    ``source(i, t_mid, u_mid)`` gets step i's midpoint field and returns the
    radial source samples frozen over the step (None for source-free).  The
    coefficients are (N-1,) for one field or (B, N-1) for a family that
    shares every symbol evaluation; fields and sources then carry the same
    leading axis.  The march stops at the first midpoint where any member's
    sup|u| exceeds ``threshold`` or is not finite; ``source`` is not called
    for that step.

    Returns (hist, t_stop, kept): hist holds (t_mid, sup|u|) per step, with
    one sup per member for a family; t_stop is the stopping midpoint time or
    None; kept lists (k dt, u) at the step ends k dt nearest the ``keep``
    times, in step order.
    """
    dt = horizon / nsteps
    keep_steps = set()
    for t in np.atleast_1d(keep):
        k = int(round(float(t) / dt))
        if not 1 <= k <= nsteps:
            raise GridError(
                f"snapshot time {t} falls on step {k}, outside steps 1..{nsteps} of dt={dt:.6g}"
            )
        keep_steps.add(k)
    lam, r_int = grid.lam, grid.r[1 : grid.N]
    sym_prev = symbol_matrix(m, 0.0, lam)
    hist, kept = [], []
    for i in range(nsteps):
        t1 = i * dt
        t2 = min((i + 1) * dt, horizon)
        tm = 0.5 * (t1 + t2)
        sym_mid = symbol_matrix(m, tm, lam)
        sym_next = symbol_matrix(m, t2, lam)
        A1, B1 = _trans_row(sym_prev, sym_mid)
        um = SpectralField(grid, A1 * cv + B1 * cd).to_radial()
        sup = np.abs(um).max(axis=-1)
        hist.append((tm, sup.tolist()))
        if not np.isfinite(sup).all() or sup.max() > threshold:
            return hist, tm, kept
        src = source(i, tm, um) if source is not None else None
        A2, B2, C2, D2 = _trans_full(sym_prev, sym_next)
        if src is not None:
            sh = grid.forward(r_int * src[..., 1 : grid.N])
            _, Bm, _, Dm = _trans_full(sym_mid, sym_next)
            cv, cd = (
                A2 * cv + B2 * cd + (t2 - t1) * Bm * sh,
                C2 * cv + D2 * cd + (t2 - t1) * Dm * sh,
            )
        else:
            cv, cd = A2 * cv + B2 * cd, C2 * cv + D2 * cd
        sym_prev = sym_next
        if i + 1 in keep_steps:
            kept.append(((i + 1) * dt, SpectralField(grid, cv).to_radial()))
    return hist, None, kept


def _trans_full(s1, s2):
    a1, a2, a1p, a2p = s1
    b1, b2, b1p, b2p = s2
    return (
        b1 * a2p - b2 * a1p,
        b2 * a1 - b1 * a2,
        b1p * a2p - b2p * a1p,
        b2p * a1 - b1p * a2,
    )


def _trans_row(s1, s2):
    a1, a2, a1p, a2p = s1
    b1, b2, _, _ = s2
    return b1 * a2p - b2 * a1p, b2 * a1 - b1 * a2


def _tail_nonincreasing(hist, horizon) -> bool:
    t = np.array([h[0] for h in hist])
    s = np.array([h[1] for h in hist])
    early = (t >= horizon / 10.0) & (t < horizon / 3.0)
    late = t >= horizon / 3.0
    if early.sum() < 3 or late.sum() < 3:
        return True
    return float(np.median(s[late])) <= float(np.median(s[early])) * 1.05


def time_march(
    params: ModelParams,
    spec: NonlinearitySpec | None,
    f,
    g,
    horizon: float,
    control: StepControl,
    grid: RadialGrid,
    snapshot_times=None,
    store_midpoints: bool = False,
):
    """March the semilinear problem (the linear one with ``spec=None``) to the horizon.

    The march stops with kind "blowup" at the first step midpoint where
    sup|u| exceeds BLOWUP_THRESHOLD or is not finite.  Snapshot times are
    snapped to step boundaries.  Returns (RunOutcome, SpaceTimeField); when
    ``store_midpoints`` is set the field holds the midpoints of the accepted
    steps instead of the requested snapshots.  After a blowup these are
    len(norm_history) - 1 finite midpoints: the crossing step's is not kept.
    """
    nsteps, dt = _steps(params, grid, horizon, control.dt)
    fh, gh = _data_coeffs(params, grid, f, g)
    mids = []

    def source(i, tm, um):
        if store_midpoints:
            mids.append(um)
        return evaluate_nonlinearity(spec, tm, um) if spec is not None else None

    keep = () if store_midpoints or snapshot_times is None else snapshot_times
    hist, t_stop, kept = _march(params.m, grid, horizon, nsteps, fh, gh, source, BLOWUP_THRESHOLD, keep)
    if store_midpoints:
        times, u = (np.arange(len(mids)) + 0.5) * dt, np.array(mids)
    else:
        times, u = np.array([t for t, _ in kept]), np.array([u for _, u in kept])
    fld = SpaceTimeField(
        times=times, grid=grid, u=u.reshape(len(times), grid.N + 1), m=params.m, M=params.M
    )
    if t_stop is not None:
        outcome = RunOutcome(kind="blowup", blowup_time=t_stop, norm_history=hist)
    else:
        outcome = RunOutcome(
            kind="global-horizon",
            norm_history=hist,
            tail_nonincreasing=_tail_nonincreasing(hist, horizon),
        )
    return outcome, fld


def picard_solve(
    params: ModelParams,
    spec: NonlinearitySpec,
    f,
    g,
    horizon: float,
    control: StepControl,
    grid: RadialGrid,
    max_iters: int = 25,
    gamma: float | None = None,
    tol: float = 1e-6,
):
    """Picard iteration u_k <- linear solve with source F_p(t, u_{k-1}).

    Requires p in the critical-conformal window (gamma defaults to the
    midpoint of its admissible interval).  The weighted norms use q = p + 1
    and are taken over midpoint samples with t >= T0/2.  Divergence (N_k
    increasing three times in a row) raises PicardDivergenceError carrying
    the diagnostics; plain slow convergence just returns converged=False.
    """
    lo, hi = gamma_interval(params)  # validates p range
    if gamma is None:
        gamma = 0.5 * (lo + hi)
    q = params.p + 1.0
    wspec = WeightSpec(gamma=gamma, q=q, M=params.M)
    nsteps, dt = _steps(params, grid, horizon, control.dt)
    fh, gh = _data_coeffs(params, grid, f, g)
    t_mid = (np.arange(nsteps) + 0.5) * dt
    mask = t_mid >= spec.T0 / 2.0

    def norm_of(mid_arr):
        fld = SpaceTimeField(
            times=t_mid[mask], grid=grid, u=mid_arr[mask], m=params.m, M=params.M
        )
        return weighted_field_norm(fld, wspec)

    prev_mid = np.zeros((nsteps, grid.N + 1))
    M_seq, N_seq = [], []
    converged = False
    final_mid = prev_mid
    rising = 0
    for k in range(max_iters):
        mids = np.empty_like(prev_mid)

        def source(i, tm, um, _prev=prev_mid, _mids=mids):
            _mids[i] = um
            return evaluate_nonlinearity(spec, tm, _prev[i])

        _, t_stop, _ = _march(params.m, grid, horizon, nsteps, fh, gh, source)
        if t_stop is not None:
            raise PicardDivergenceError(
                f"iterate {k} left the finite range",
                PicardDiagnostics(M_seq, N_seq, False, k),
            )
        M_seq.append(norm_of(mids))
        N_seq.append(norm_of(mids - prev_mid))
        final_mid = mids
        if k >= 1 and N_seq[-1] >= N_seq[-2]:
            rising += 1
            if rising >= 3:
                raise PicardDivergenceError(
                    f"N_k increased 3 times in a row at k={k}",
                    PicardDiagnostics(M_seq, N_seq, False, k + 1),
                )
        else:
            rising = 0
        if N_seq[-1] < tol * max(M_seq[0], 1e-300):
            converged = True
            break
        prev_mid = mids

    diag = PicardDiagnostics(M_seq, N_seq, converged, len(M_seq))
    fld = SpaceTimeField(
        times=t_mid, grid=grid, u=final_mid, m=params.m, M=params.M
    )
    return diag, fld


def weighted_solution_norm(field: SpaceTimeField, params: ModelParams, gamma: float) -> float:
    """L^(p+1) norm of (1 + |phi(t)^2 - r^2|)^gamma u over the field's samples.

    This is the theorem-statement weight (no M shift, absolute value), a
    companion to the (phi+M)-weight used inside the estimates; both are
    provided deliberately.  ``gamma`` must sit in the window formula at the
    field's p, which is nonempty for every p > p_crit (also above the
    conformal power, where the window is a diagnostic rather than a
    theorem hypothesis).
    """
    from .exponents import gamma_window_formula

    lo, hi = gamma_window_formula(params.m, params.n, params.p)
    if not (lo <= gamma <= hi):
        raise ParameterError(
            f"gamma={gamma} outside the admissible interval ({lo:.6f}, {hi:.6f})"
        )
    q = params.p + 1.0
    per_t = _weighted_integrals(
        field, q, gamma * q, lambda t, r: 1.0 + np.abs(phi(field.m, t) ** 2 - r * r), lambda t: np.inf
    )
    return float(np.trapezoid(per_t, field.times) ** (1.0 / q))


def sweep_p(
    params_base: ModelParams,
    p_grid,
    f,
    g,
    horizon: float,
    control: StepControl,
    grid: RadialGrid,
    T0: float = 0.5,
):
    """Run time_march per p and tabulate outcomes; per-run errors do not stop the sweep.

    Returns a list of row dicts with keys p, kind, blowup_time, final_sup,
    is_supercritical (p > p_crit), is_superconformal (p > p_conf), error.
    """
    from .exponents import p_conf, p_crit

    pc = p_crit(params_base.m, params_base.n)
    pf = p_conf(params_base.m, params_base.n)
    rows = []
    for p in p_grid:
        row = {
            "p": float(p),
            "kind": None,
            "blowup_time": None,
            "final_sup": None,
            "is_supercritical": bool(p > pc),
            "is_superconformal": bool(p > pf),
            "error": "",
        }
        try:
            params = ModelParams(params_base.m, params_base.n, float(p), params_base.eps, params_base.M)
            spec = NonlinearitySpec(p=float(p), T0=T0)
            outcome, _ = time_march(params, spec, f, g, horizon, control, grid)
            row["kind"] = outcome.kind
            row["blowup_time"] = outcome.blowup_time
            row["final_sup"] = outcome.norm_history[-1][1] if outcome.norm_history else None
        except TricomiLabError as exc:  # recorded per row, sweep continues
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows
