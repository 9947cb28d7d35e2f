"""Semilinear solver: u_tt - t^m Lap(u) = F_p(t, u) with regularized nonlinearity.

The nonlinearity is the blended form

    F_p(t, u) = (1 - chi(t)) F_smooth(u) + chi(t) |u|^p,

where chi is a C-infinity switch that is 0 up to T0/2 and exactly 1 from T0
on, and the smooth branch F_smooth(u) = (EPS0^2 + u^2)^((p-1)/2) u satisfies
F_smooth(0) = 0 and |F_smooth(u)| <= C (1 + |u|)^(p-1) |u|.

Time marching is per-mode Duhamel with the source frozen at each step
midpoint -- a second-order scheme whose linear part is exact at any dt.
Each sine coefficient is carried in the fixed frame of the fundamental pair
V1, V2 of v'' + t^m lambda^2 v = 0 (unit Wronskian): its coordinates
(alpha, beta), with v = V1 alpha + V2 beta, stay constant under the
homogeneous flow, and a step's frozen source s moves them by
(-dt V2 s, dt V1 s) at the midpoint.  So the march reads symbol values only,
two Bessel orders per time: V1 and V2 at every midpoint (for the field
u_mid and the source's weights) and at the kept step ends, each from a
``symbols.symbol_stream`` that evaluates several times per kernel call with
the bits of one-time calls; a source-free march gives ``solve_linear``'s
snapshots bit for bit.  One function, ``_march``, runs this scheme for
``time_march``, ``picard_solve``, ``sweep_p`` and the inhomogeneous
Strichartz probe, on one field or a family of them that shares every symbol
evaluation.  The march owns its clock: ``_steps`` builds its step ends and
midpoints, and ``_snap`` maps requested times to step ends, for every caller.
A family member whose sup|u| crosses the threshold stops alone; the others
march on with unchanged bits.
Blowup is a result, not an error: ``time_march`` reports kind "blowup" with
the first midpoint time at which sup|u| exceeds BLOWUP_THRESHOLD (1e6) or
overflows, and "global-horizon" otherwise; a NaN from a finite source is a
fault.  ``sweep_p`` marches all its powers as one family, each with its p.

``picard_solve`` runs the fixed-point iteration u_k <- (linear solve with
source F_p(t, u_{k-1})), recording the weighted norms M_k of iterates and
N_k of consecutive differences at q = p + 1; in the contraction regime the
N_k ratios sit well below 1.  Iterate k's source at step i needs only
iterate k-1's midpoint at step i, so a block of iterates marches in one
time loop as one family (the pipelined correction sweeps of RIDC, or
Picard-Lindeloef waveform relaxation marched in lockstep), bit-identical to
marching them one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InstabilityError, ParameterError, PicardDivergenceError, TricomiLabError, WindowError
from .exponents import ModelParams, gamma_interval, gamma_window_formula, p_conf, p_crit
from .geometry import WeightSpec, phi
from .grids import RadialGrid, SpaceTimeField
from .linear import _cone_nodes, _data_coeffs, _frame_coeffs, _radial_field, _weighted_integral
from .profiles import smooth_ramp
from .symbols import symbol_stream

__all__ = [
    "BLOWUP_THRESHOLD",
    "NonlinearitySpec",
    "RunOutcome",
    "PicardDiagnostics",
    "evaluate_nonlinearity",
    "time_march",
    "picard_solve",
    "weighted_solution_norm",
    "sweep_p",
]


@dataclass(frozen=True)
class NonlinearitySpec:
    """Regularized nonlinearity: power p and switch time T0 (the smooth branch's scale is EPS0)."""

    p: float
    T0: float = 0.5

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
        return float(smooth_ramp((t - self.T0 / 2.0) / (self.T0 / 2.0)))


def evaluate_nonlinearity(spec: NonlinearitySpec, t: float, u):
    """Blended value (1 - chi) F_smooth(u) + chi |u|^p; exactly |u|^p for t >= T0."""
    u = np.asarray(u, dtype=float)
    c = spec.chi(t)
    power = np.abs(u) ** spec.p
    if c >= 1.0:
        return power
    smooth = (EPS0**2 + u * u) ** ((spec.p - 1.0) / 2.0) * u
    return (1.0 - c) * smooth + c * power


BLOWUP_THRESHOLD = 1e6  # sup|u| past which a march reports blowup
EPS0 = 1e-6  # scale of the smooth branch F_smooth
_PICARD_BLOCK = 3  # Picard iterates marched together; chosen by measurement (CHANGES.md)
PICARD_TOL = 1e-6  # Picard converges once N_k < PICARD_TOL * M_0


@dataclass
class RunOutcome:
    """What a march did: global to the horizon, or blowup at a finite time."""

    kind: str  # "global-horizon" | "blowup"
    blowup_time: float | None = None
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
    """The march's clock, after the dt and wall checks: the lists (ends, mids) of its n steps of
    h = horizon / n, ends[k] = min(k h, horizon) for k = 0..n and mids[k] = 0.5 (ends[k] + ends[k+1]).
    n is ceil(horizon / dt), or round(horizon / dt) when that many steps of ``dt`` reach the
    horizon to a few ulps (0.9 / 0.03 = 30.000000000000004 gives 30 steps, not 31)."""
    if not dt > 0:
        raise ParameterError(f"dt > 0 required, got {dt}")
    if not 0 < horizon < math.inf:
        raise ParameterError(f"horizon > 0 and finite required, got horizon={horizon}")
    grid.validate_horizon(params.m, params.M, horizon)
    n = round(horizon / dt)
    if abs(n * dt - horizon) > 4.0 * math.ulp(horizon):
        n = math.ceil(horizon / dt)
    h = horizon / n
    ends = [min(k * h, horizon) for k in range(n + 1)]
    return ends, [0.5 * (t1 + t2) for t1, t2 in zip(ends, ends[1:])]


def _snap(ends, times, name: str) -> list:
    """The sorted step indices k = round(t / h) of ``times`` on the step ends ``ends`` (h = ends[1]);
    a time that is not finite or falls off steps 1..n is a WindowError naming ``name``."""
    n, h = len(ends) - 1, ends[1]
    times = np.atleast_1d(times).tolist()
    for t in times:
        if not math.isfinite(t):
            raise WindowError(name, f"snapshot time {t} is not finite")
    steps = {t: round(t / h) for t in times}
    for t, k in steps.items():
        if not 1 <= k <= n:
            raise WindowError(name, f"snapshot time {t:.6g} falls on step {k}, "
                                    f"outside steps 1..{n} of the march (step {h:.6g})")
    return sorted(set(steps.values()))


def _march(m, grid, steps, cv, cd, source=None, threshold=np.inf, keep=()):
    """Midpoint-frozen Duhamel march of the data coefficients (cv, cd) over ``steps``, in the fixed frame.

    ``steps`` is the (ends, mids) clock of :func:`_steps`, and ``keep`` holds
    the sorted indices k of the step ends to keep, as :func:`_snap` gives them.
    The march carries the frame coordinates (alpha, beta) = M(t)^-1 (v, v')
    of each sine coefficient, M(t) being the unit-Wronskian matrix of the
    symbols V1, V2 and their derivatives; the homogeneous flow leaves them
    constant.  They start at (cv, cd).  At step i's midpoint t_mid the field
    is u_mid = V1(t_mid) alpha + V2(t_mid) beta, and the source's sine
    coefficients s, frozen over the step of length dt, move them by
    alpha -= dt V2(t_mid) s and beta += dt V1(t_mid) s.  A kept step end t
    gives u = V1(t) alpha + V2(t) beta.  So the march reads symbol values
    only: one :func:`symbol_stream` over the midpoints and one over the kept
    step ends.  Without a source the kept fields are ``_snapshots``'s, bit
    for bit.

    The coefficients are (N-1,) for one field, member 0, or (B, N-1) for a
    family of B members that shares every symbol evaluation.  A member stops
    at the first midpoint where its sup|u| exceeds ``threshold`` or is not
    finite; the others march on, each with the bits it would have alone.  A
    sup that is not finite after a finite source (or none) is an InstabilityError.
    ``source(i, t_mid, u_mid, live)`` gets step i's midpoint field of the
    members still marching, whose indices are the list ``live``, and returns
    their radial source samples frozen over the step (None for source-free).
    It is not called once every member has stopped.  In a family, a member
    whose source is zero on nodes 1..N-1 (a first Picard iterate, a zero
    Strichartz source) gets no transform and keeps its coordinates, and a
    step where no member has a source makes no forward transform.  Every
    coordinate keeps its value; only an exactly-zero one may differ in sign
    from what adding the zero impulse would give.

    Returns (hists, t_stops, kept): hists[b] lists member b's (t_mid, sup|u|)
    per step, ending at its crossing; t_stops[b] is its stopping midpoint
    time or None; kept lists (ends[k], u) for the kept k, in step order, with
    u holding the live members and evaluated at ends[k].
    """
    t_end, t_mid = steps
    lam, r_int = grid.lam, grid.r[1 : grid.N]
    live = list(range(len(cv) if cv.ndim == 2 else 1))
    hists, t_stops = [[] for _ in live], [None for _ in live]
    limit = min(threshold, np.finfo(float).max)  # sup <= limit also fails for inf and NaN
    kept_values = symbol_stream(m, [t_end[k] for k in keep], lam, derivatives=False)
    keep = set(keep)
    alpha, beta, kept, src = cv, cd, [], None  # src: the last step's source, read only where a member stops
    for i, (v1, v2) in enumerate(symbol_stream(m, t_mid, lam, derivatives=False)):
        tm = t_mid[i]
        um = _radial_field(grid, _frame_coeffs((v1, v2), alpha, beta))
        sup = np.atleast_1d(np.abs(um).max(axis=-1))
        for b, s in zip(live, sup.tolist()):
            hists[b].append((tm, s))
        ok = sup <= limit
        if not ok.all():
            for j, (b, o) in enumerate(zip(live, ok)):  # a live member's hists[b] has i + 1 entries
                if not (o or math.isfinite(sup[j])) and (src is None or np.isfinite(np.atleast_2d(src)[j]).all()):
                    raise InstabilityError(f"march step {i} at t={tm:.6g}: sup|u| = {sup[j]} after a finite source "
                                           f"(last finite sup {hists[b][-2][1] if i else None}); a fault, not a blowup")
                if not o:
                    t_stops[b] = tm
            if not ok.any():
                break
            live = [b for b, o in zip(live, ok) if o]
            alpha, beta, um = alpha[ok], beta[ok], um[ok]
        src = source(i, tm, um, live) if source is not None else None
        if src is not None:
            step = t_end[i + 1] - t_end[i]
            if src.ndim == 1 or (moving := src[:, 1 : grid.N].any(axis=1)).all():
                impulse = step * grid.forward(r_int * src[..., 1 : grid.N])
                alpha, beta = alpha - v2 * impulse, beta + v1 * impulse
            elif moving.any():  # members without a source keep their coordinates
                impulse = step * grid.forward(r_int * src[moving, 1 : grid.N])
                alpha, beta = alpha.copy(), beta.copy()
                alpha[moving] -= v2 * impulse
                beta[moving] += v1 * impulse
        if i + 1 in keep:
            kept.append((t_end[i + 1], _radial_field(grid, _frame_coeffs(next(kept_values), alpha, beta))))
    return hists, t_stops, kept


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
    dt: float,
    grid: RadialGrid,
    snapshot_times=None,
    store_midpoints: bool = False,
):
    """March the semilinear problem (the linear one with ``spec=None``) to the horizon.

    The march takes ceil(horizon / dt) equal steps, or horizon / dt when ``dt``
    divides the horizon to a few ulps; ``dt`` is a number > 0, as for
    ``picard_solve`` and ``sweep_p``.  The march stops with kind "blowup" at the first step midpoint where
    sup|u| exceeds BLOWUP_THRESHOLD or overflows; a NaN after a finite source raises InstabilityError.
    The field holds the step ends nearest the snapshot times; one off steps 1..n is a WindowError naming
    ``snapshot_times``.  Returns (RunOutcome, SpaceTimeField); when
    ``store_midpoints`` is set the field holds the midpoints of the accepted
    steps instead of the requested snapshots.  After a blowup these are
    len(norm_history) - 1 finite midpoints: the crossing step's is not kept.
    """
    steps = _steps(params, grid, horizon, dt)
    wanted = () if store_midpoints or snapshot_times is None else snapshot_times
    keep = _snap(steps[0], wanted, "snapshot_times")
    fh, gh = _data_coeffs(params, grid, f, g)
    mids = []  # (t_mid, u_mid) at the march's own midpoint times, as norm_history records them

    def source(i, tm, um, live):
        if store_midpoints:
            mids.append((tm, um))
        return evaluate_nonlinearity(spec, tm, um) if spec is not None else None

    (hist,), (t_stop,), kept = _march(params.m, grid, steps, fh, gh, source, BLOWUP_THRESHOLD, keep)
    stored = mids if store_midpoints else kept
    times, u = np.array([t for t, _ in stored]), np.array([u for _, u in stored])
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
    dt: float,
    grid: RadialGrid,
    max_iters: int = 25,
):
    """Picard iteration u_k <- linear solve with source F_p(t, u_{k-1}).

    Requires p in the critical-conformal window and max_iters >= 1.  The
    weighted norms use q = p + 1, the weight power gamma at the midpoint of
    its admissible interval, and midpoint samples with t >= T0/2;
    fewer than two such midpoints is a WindowError naming the horizon.
    Divergence (N_k increasing three times in a row, an iterate leaving the
    finite range, or a non-finite M_k or N_k) raises PicardDivergenceError
    carrying the diagnostics; converged means N_k < PICARD_TOL * M_0, and
    plain slow convergence just returns converged=False.

    Iterates march _PICARD_BLOCK at a time as the rows of one family: row 0
    takes its source from the previous block's last iterate (zero in the
    first block), row j from row j-1's midpoint in the same step, so every
    step's symbols serve the whole block.  Each step in [T0/2, horizon] is
    reduced at once to its per-time integrals of M_k and N_k: the cone
    prefixes of the B midpoints and of their B differences, stacked as one
    (2B, k) family, go through one weighted integral.  Row 0 of the first
    block has no source, so the march transforms only the other rows there.
    The results are bit-identical to marching one iterate at a time.
    """
    if max_iters < 1:
        raise ParameterError(f"max_iters >= 1 required, got {max_iters}")
    lo, hi = gamma_interval(params)  # validates p range
    q = params.p + 1.0
    wspec = WeightSpec(gamma=0.5 * (lo + hi), q=q, M=params.M)
    steps = _steps(params, grid, horizon, dt)
    fh, gh = _data_coeffs(params, grid, f, g)
    t_mid = np.array(steps[1])  # the times the march evaluates its midpoints at
    in_box = t_mid >= spec.T0 / 2.0
    if np.count_nonzero(in_box) < 2:
        raise WindowError(
            "horizon",
            f"horizon too short: the Picard norms need two step midpoints in [T0/2, horizon], "
            f"got {np.count_nonzero(in_box)} (T0/2={spec.T0 / 2.0}, horizon={horizon}, dt={dt:.6g})",
        )
    r = grid.r

    def norm(per_t):
        return float(np.trapezoid(per_t, t_mid[in_box]) ** (1.0 / q))

    width = min(_PICARD_BLOCK, max_iters)
    mids = np.empty((len(t_mid), width, grid.N + 1))  # the midpoints of one block, reused by the next
    prev = np.broadcast_to(0.0, (len(t_mid), grid.N + 1))  # row 0's predecessor; iterate -1 is 0
    M_seq, N_seq = [], []
    converged, rising, k0 = False, 0, 0
    while not converged and k0 < max_iters:
        if k0:
            prev = mids[:, -1].copy()
        rows = min(width, max_iters - k0)
        M_int, N_int = [], []

        # After a row stops, the rows before it keep their places; those behind it
        # get a shifted predecessor and are discarded.
        def source(i, tm, um, live, _prev=prev):
            pred = np.concatenate((_prev[i : i + 1], um[:-1]))
            mids[i, : len(um)] = um
            if in_box[i]:
                # an overflow here gives a non-finite norm, which raises PicardDivergenceError below
                with np.errstate(over="ignore", invalid="ignore"):
                    k = _cone_nodes(r, params.m, wspec.M, tm)
                    per_row = _weighted_integral(np.concatenate((um[:, :k], um[:, :k] - pred[:, :k])), r, tm,
                                                 params.m, wspec)
                M_int.append(per_row[: len(um)])
                N_int.append(per_row[len(um) :])
            return evaluate_nonlinearity(spec, tm, pred)

        block = (rows, fh.size)
        _, t_stops, _ = _march(params.m, grid, steps, np.broadcast_to(fh, block), np.broadcast_to(gh, block), source)
        for j in range(rows):
            k = k0 + j
            if t_stops[j] is not None:
                raise PicardDivergenceError(
                    f"iterate {k} left the finite range",
                    PicardDiagnostics(M_seq, N_seq, False, k),
                )
            M_k, N_k = norm([v[j] for v in M_int]), norm([v[j] for v in N_int])
            if not np.isfinite([M_k, N_k]).all():
                raise PicardDivergenceError(
                    f"iterate {k} has a non-finite weighted norm (M_k={M_k}, N_k={N_k})",
                    PicardDiagnostics(M_seq, N_seq, False, k),
                )
            M_seq.append(M_k)
            N_seq.append(N_k)
            if k >= 1 and N_seq[-1] >= N_seq[-2]:
                rising += 1
                if rising >= 3:
                    raise PicardDivergenceError(
                        f"N_k increased 3 times in a row at k={k}",
                        PicardDiagnostics(M_seq, N_seq, False, k + 1),
                    )
            else:
                rising = 0
            if N_seq[-1] < PICARD_TOL * max(M_seq[0], 1e-300):
                converged = True
                break
        k0 += rows

    diag = PicardDiagnostics(M_seq, N_seq, converged, len(M_seq))
    fld = SpaceTimeField(
        times=t_mid, grid=grid, u=mids[:, j], m=params.m, M=params.M
    )
    return diag, fld


def weighted_solution_norm(field: SpaceTimeField, params: ModelParams, gamma: float) -> float:
    """L^(p+1) norm of (1 + |phi(t)^2 - r^2|)^gamma u over the field's samples.

    This is the theorem-statement weight (no M shift, absolute value), a
    companion to the (phi+M)-weight used inside the estimates; both are
    provided deliberately, and this one is integrated here over every node.
    ``gamma`` must sit in the window formula at the field's p, which is
    nonempty for every p > p_crit (also above the conformal power, where the
    window is a diagnostic rather than a theorem hypothesis).
    """
    lo, hi = gamma_window_formula(params.m, params.n, params.p)
    if not (lo <= gamma <= hi):
        raise ParameterError(
            f"gamma={gamma} outside the admissible interval ({lo:.6f}, {hi:.6f})"
        )
    q = params.p + 1.0
    r, per_t = field.grid.r, []
    for t, u in zip(field.times, field.u):
        weight = (1.0 + np.abs(phi(field.m, float(t)) ** 2 - r * r)) ** (gamma * q)
        per_t.append(4.0 * np.pi * np.trapezoid(weight * np.abs(u) ** q * r * r, r))
    return float(np.trapezoid(per_t, field.times) ** (1.0 / q))


def sweep_p(
    params_base: ModelParams,
    p_grid,
    f,
    g,
    horizon: float,
    dt: float,
    grid: RadialGrid,
    T0: float = 0.5,
):
    """Tabulate the march outcome per p; per-run errors do not stop the sweep.

    The valid powers march as one family, each row with its own p in the
    source; a row that blows up stops alone, and each row is bit-identical
    to its own ``time_march``.  Returns a list of row dicts with keys p,
    kind, blowup_time, final_sup, is_supercritical (p > p_crit),
    is_superconformal (p > p_conf), error.
    """
    pc = p_crit(params_base.m, params_base.n)
    pf = p_conf(params_base.m, params_base.n)
    rows, marching, specs = [], [], []  # marching: the rows of the valid powers
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
            ModelParams(params_base.m, params_base.n, float(p), params_base.eps, params_base.M)
            specs.append(NonlinearitySpec(p=float(p), T0=T0))
            marching.append(row)
        except TricomiLabError as exc:  # recorded per row, sweep continues
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    if not marching:
        return rows

    def source(i, tm, um, live):
        return np.array([evaluate_nonlinearity(specs[b], tm, u) for b, u in zip(live, um)])

    try:
        steps = _steps(params_base, grid, horizon, dt)
        fh, gh = _data_coeffs(params_base, grid, f, g)
        family = (len(specs), fh.size)
        hists, t_stops, _ = _march(
            params_base.m, grid, steps, np.broadcast_to(fh, family), np.broadcast_to(gh, family),
            source, BLOWUP_THRESHOLD,
        )
    except TricomiLabError as exc:  # the checks and a march fault (shared symbols) are every valid row's error
        for row in marching:
            row["error"] = f"{type(exc).__name__}: {exc}"
        return rows
    for row, hist, t_stop in zip(marching, hists, t_stops):
        row["kind"] = "global-horizon" if t_stop is None else "blowup"
        row["blowup_time"] = t_stop
        row["final_sup"] = hist[-1][1] if hist else None
    return rows
