"""Semilinear solver: u_tt - t^m Lap(u) = F_p(t, u) with regularized nonlinearity.

The nonlinearity is the blended form

    F_p(t, u) = (1 - chi(t)) F_smooth(u) + chi(t) |u|^p,

where chi is a C-infinity switch that is 0 up to T0/2 and exactly 1 from T0
on, and the smooth branch F_smooth(u) = (eps0^2 + u^2)^((p-1)/2) u satisfies
F_smooth(0) = 0 and |F_smooth(u)| <= C (1 + |u|)^(p-1) |u|.

Time marching is per-step per-mode Duhamel: over [t1, t2] each sine
coefficient advances by the exact 2x2 propagator of v'' + t^m lambda^2 v = 0
(unit Wronskian), and the source is frozen at the step midpoint -- a
second-order scheme whose linear part is exact at any dt.  Blowup is a
result, not an error: the march reports kind "blowup" with the first time
sup|u| exceeds the threshold (default 1e6) or goes non-finite, and
"global-horizon" otherwise.

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


@dataclass(frozen=True)
class StepControl:
    """Fixed-step control for the Duhamel march."""

    dt: float
    blowup_threshold: float = 1e6

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


class _Stepper:
    """Shared Duhamel stepping core over a fixed grid and step sequence."""

    def __init__(self, params: ModelParams, grid: RadialGrid, horizon: float, dt: float):
        grid.validate_horizon(params.m, params.M, horizon)
        self.params = params
        self.grid = grid
        self.nsteps = int(np.ceil(horizon / dt))
        self.dt = horizon / self.nsteps
        self.horizon = horizon
        self.r_int = grid.r[1 : grid.N]

    def midpoint_times(self) -> np.ndarray:
        return (np.arange(self.nsteps) + 0.5) * self.dt

    def snapshot_steps(self, times) -> dict:
        """Step counts k of the step boundaries k dt nearest the requested times."""
        steps = {}
        for t in np.atleast_1d(times):
            k = int(round(float(t) / self.dt))
            if k < 1 or k > self.nsteps:
                raise GridError(f"snapshot time {t} outside (0, horizon]")
            steps[k] = True
        return steps

    def march(
        self,
        f_coeffs: np.ndarray,
        g_coeffs: np.ndarray,
        source_mid,
        blowup_threshold: float = np.inf,
        snapshot_steps: dict | None = None,
        store_midpoints: bool = False,
    ):
        """Run the march.  ``source_mid(i, t_mid, u_mid)`` returns the radial
        source samples for step i (or None for source-free); reconstructed
        midpoint fields are handed to it and optionally stored.

        The coefficients are (N-1,) for one field or (B, N-1) for a family
        that shares every symbol evaluation; fields, sources and snapshots
        then carry the same leading axis.  Each history entry is (t_mid,
        sup|u|), with one sup per member for a family; the march stops at
        the first step where any member exceeds the threshold or is not
        finite.
        """
        grid, m = self.grid, self.params.m
        lam = grid.lam
        cv, cd = f_coeffs.copy(), g_coeffs.copy()
        sym_prev = symbol_matrix(m, 0.0, lam)
        mids = np.empty((self.nsteps, *cv.shape[:-1], grid.N + 1)) if store_midpoints else None
        hist = []
        snaps = {}
        for i in range(self.nsteps):
            t1 = i * self.dt
            t2 = min((i + 1) * self.dt, self.horizon)
            tm = 0.5 * (t1 + t2)
            sym_mid = symbol_matrix(m, tm, lam)
            sym_next = symbol_matrix(m, t2, lam)
            A1, B1 = _trans_row(sym_prev, sym_mid)
            um = SpectralField(grid, A1 * cv + B1 * cd).to_radial()
            sup = np.abs(um).max(axis=-1)
            hist.append((tm, sup.tolist()))
            if store_midpoints:
                mids[i] = um
            if not np.isfinite(sup).all() or sup.max() > blowup_threshold:
                return cv, cd, hist, snaps, mids, tm
            src = source_mid(i, tm, um) if source_mid is not None else None
            A2, B2, C2, D2 = _trans_full(sym_prev, sym_next)
            if src is not None:
                sh = grid.forward(self.r_int * src[..., 1 : grid.N])
                _, Bm, _, Dm = _trans_full(sym_mid, sym_next)
                cv, cd = (
                    A2 * cv + B2 * cd + (t2 - t1) * Bm * sh,
                    C2 * cv + D2 * cd + (t2 - t1) * Dm * sh,
                )
            else:
                cv, cd = A2 * cv + B2 * cd, C2 * cv + D2 * cd
            sym_prev = sym_next
            if snapshot_steps and (i + 1) in snapshot_steps:
                snaps[i + 1] = SpectralField(grid, cv.copy()).to_radial()
        return cv, cd, hist, snaps, mids, None


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
    source=None,
    store_midpoints: bool = False,
    enforce_support: bool = True,
):
    """March the semilinear (or externally forced) problem to the horizon.

    ``spec`` supplies the nonlinearity; pass ``spec=None`` with an explicit
    ``source(t, r_array)`` for the inhomogeneous linear problem, or both
    None for a pure linear march (consistency path).  Snapshot times are
    snapped to step boundaries.  Returns (RunOutcome, SpaceTimeField); when
    ``store_midpoints`` is set the field holds every step midpoint instead
    of the requested snapshots.
    """
    stepper = _Stepper(params, grid, horizon, control.dt)
    fh, gh = _data_coeffs(params, grid, f, g, enforce_support)

    if spec is not None and source is not None:
        raise ParameterError("pass either a nonlinearity spec or a source, not both")

    def source_mid(i, tm, um):
        if spec is not None:
            return evaluate_nonlinearity(spec, tm, um)
        if source is not None:
            return source(tm, grid.r)
        return None

    snap_steps = {}
    if snapshot_times is not None and not store_midpoints:
        snap_steps = stepper.snapshot_steps(snapshot_times)

    cv, cd, hist, snaps, mids, t_blow = stepper.march(
        fh,
        gh,
        source_mid if (spec is not None or source is not None) else None,
        blowup_threshold=control.blowup_threshold,
        snapshot_steps=snap_steps,
        store_midpoints=store_midpoints,
    )

    if store_midpoints:
        n_done = len(hist)
        fld = SpaceTimeField(
            times=stepper.midpoint_times()[:n_done],
            grid=grid,
            u=mids[:n_done],
            m=params.m,
            M=params.M,
        )
    else:
        ks = sorted(snaps)
        fld = SpaceTimeField(
            times=np.array([k * stepper.dt for k in ks]),
            grid=grid,
            u=np.array([snaps[k] for k in ks]).reshape(len(ks), grid.N + 1),
            m=params.m,
            M=params.M,
        )

    if t_blow is not None:
        outcome = RunOutcome(kind="blowup", blowup_time=t_blow, norm_history=hist)
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
    enforce_support: bool = True,
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
    stepper = _Stepper(params, grid, horizon, control.dt)
    fh, gh = _data_coeffs(params, grid, f, g, enforce_support)
    t_mid = stepper.midpoint_times()
    mask = t_mid >= spec.T0 / 2.0

    def norm_of(mid_arr):
        fld = SpaceTimeField(
            times=t_mid[mask], grid=grid, u=mid_arr[mask], m=params.m, M=params.M
        )
        return weighted_field_norm(fld, wspec)

    prev_mid = np.zeros((stepper.nsteps, grid.N + 1))
    M_seq, N_seq = [], []
    converged = False
    final_mid = prev_mid
    rising = 0
    for k in range(max_iters):
        def source_mid(i, tm, um, _prev=prev_mid):
            return evaluate_nonlinearity(spec, tm, _prev[i])

        _, _, hist, _, mids, t_blow = stepper.march(
            fh, gh, source_mid, blowup_threshold=np.inf, store_midpoints=True
        )
        if t_blow is not None or not np.isfinite(mids).all():
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
            prev_mid = mids
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
            outcome, _ = time_march(
                params, spec, f, g, horizon, control, grid, snapshot_times=[horizon]
            )
            row["kind"] = outcome.kind
            row["blowup_time"] = outcome.blowup_time
            row["final_sup"] = outcome.norm_history[-1][1] if outcome.norm_history else None
        except TricomiLabError as exc:  # recorded per row, sweep continues
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows
