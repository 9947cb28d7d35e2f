"""Empirical probes of the weighted space-time estimates.

The homogeneous estimate bounds the characteristic-weight L^q norm of the
linear solution by fractional Sobolev W^(s,1) norms of the data,

    s_f = n/2 + 1/(m+2) + delta,   s_g = n/2 - 1/(m+2) + delta,

valid for q > q_min(m, n), 0 < gamma < gamma_bound(m, n, q) and
0 < delta < n/2 + 1/(m+2) - gamma - 1/q.  The inhomogeneous estimate bounds
the weight^gamma1 L^q norm of the zero-data forced solution by the
weight^gamma2 L^(q') norm of the source, q' = q/(q-1), with gamma2 > 1/q
(the convenient pairing is gamma2 = (q-1) gamma1).

Neither constant is computable at desk scale; what is testable is that the
LHS/RHS ratios are finite, stable across a data family (data independence
of the constant), and that pushing gamma past its ceiling makes the
truncated LHS grow with the time box instead of saturating.  Space-time
norms are truncated at a finite box and every LHS carries a decay-slope
tail estimate so the truncation is auditable.

The probes share one window check and one reduction of each linear snapshot
to its weighted integral (``homogeneous_ratio``, ``lhs_box_values``), which
reads only the cone r <= phi(t) + M - 1, so each snapshot is formed on the
cone's nodes alone.  The reduction is a two-stage pipeline with the same
bits as one thread: the caller evaluates the symbols and forms each time's
sine coefficients (the velocity term on the members with velocity data
only) and puts them on a queue of depth 1, from which one worker thread
takes them, transforms them in place and integrates them;
``homogeneous_ratio`` computes the data's W^(s,1) norms on the caller while
the worker drains.  ``sobolev_w_s1_norm`` forms each order's multiplier
once per grid (cached) and scales the coefficients it owns in place; of
zero data it is 0.0 without a transform.  The inhomogeneous probe samples
each source once per march step, at the midpoint where the march freezes
it; those samples drive the march and also serve the support check, the
zero test and the RHS.  A grid on which a member's data or source is seen
only at r = 0, where the r^2 of the weighted norms vanishes, is a GridError
naming grid.N; so is a grid on which a member's data read an L2 norm more
than ``DATA_L2_GAP`` off the one they read on the W^(s,1) grid.

Also here: the dyadic partition of unity beta(tau/2^j) and the
Littlewood-Paley band decomposition of spectral snapshots.
"""

from __future__ import annotations

import contextvars
import functools
import threading
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, GridError, ParameterError, SupportError, TruncatedBoxError, WindowError
from .exponents import ModelParams, q_bounds, strichartz_gamma_bound
from .geometry import WeightSpec, finite_speed_radius
from .grids import SUPPORT_REL_TOL, RadialGrid, SpectralField, _frozen
from .linear import _coeff_stream, _cone_nodes, _data_coeffs, _radial_field, _weighted_integral
from .profiles import annular_bump, bump, dilate, smooth_ramp
from .semilinear import BLOWUP_THRESHOLD, _march, _snap, _steps

__all__ = [
    "DyadicCutoff",
    "RatioRow",
    "sobolev_w_s1_norm",
    "standard_family",
    "sobolev_orders",
    "homogeneous_ratio",
    "lhs_box_values",
    "delta_bound",
    "paired_gamma2",
    "inhomogeneous_ratio",
    "lp_partition_check",
    "dyadic_decompose",
    "square_function_ratio",
]

TAIL_DOMINATED_FRACTION = 0.10
DATA_L2_GAP = 0.10  # largest relative gap homogeneous_ratio accepts between a member's data L2 on its two grids
SOBOLEV_TAIL_TOL = 1e-8  # largest spectral tail sobolev_w_s1_norm accepts after its multiplier


# ---------------------------------------------------------------------------
# Fractional Sobolev norms (radial, 3D, sine route)
# ---------------------------------------------------------------------------


def sobolev_w_s1_norm(
    f,
    s: float,
    grid: RadialGrid,
    with_error: bool = False,
):
    """L1 norm of (I - Lap)^(s/2) f for radial f, via the sine-mode multiplier.

    The sine modes sin(lambda r)/r are exact radial eigenfunctions of -Lap
    in 3D, so the operator is the diagonal multiplier (1 + lambda^2)^(s/2)
    on the coefficients of w = r f.  The result is then integrated as
    4 pi int |g| r^2 dr by trapezoid.  This is a quadrature approximation;
    ``with_error`` also returns a grid-refinement error estimate (value at
    N/2 compared with value at N).

    Raises AccuracyError when the post-multiplier spectral tail carries more
    than ``SOBOLEV_TAIL_TOL`` of the energy (an under-resolved order s).
    """
    if s < 0:
        raise ParameterError("s >= 0 required")
    if s > 6:
        raise ParameterError("s <= 6 is the documented accuracy envelope")
    val = _sobolev_value(f, s, grid, SOBOLEV_TAIL_TOL)
    if not with_error:
        return val
    coarse = RadialGrid(grid.r_max, grid.N // 2)
    val_c = _sobolev_value(f, s, coarse, np.inf)
    return val, abs(val - val_c)


@functools.lru_cache(maxsize=8)
def _multiplier(grid: RadialGrid, s: float) -> np.ndarray:
    """The order-s multiplier (1 + lambda^2)^(s/2) on the sine modes of ``grid``, formed once per (grid, s)."""
    return _frozen((1.0 + grid.lam**2) ** (s / 2.0))


def _sobolev_value(f, s, grid, tail_tol):
    r = grid.r
    samples = f(r)
    if not np.any(samples):
        return 0.0  # zero data: no transform
    coeffs = SpectralField.from_radial(grid, samples).coeffs  # a fresh array, scaled in place
    # Smooth data reaches the rounding floor well inside the band; the
    # multiplier would amplify that floor into a fake tail, so clip it.
    floor = 1e-15 * np.abs(coeffs).max()
    coeffs[np.abs(coeffs) < floor] = 0.0
    coeffs *= _multiplier(grid, s)
    out = SpectralField(grid, coeffs)
    tail = out.tail_energy_fraction()
    if tail > tail_tol:
        raise AccuracyError(
            f"spectral tail {tail:.2e} > {tail_tol:.0e} after order-{s} multiplier; "
            "under-resolved (raise N or lower s)"
        )
    g = out.to_radial()
    return float(4.0 * np.pi * np.trapezoid(np.abs(g) * r * r, r))


def sobolev_orders(m: int, n: int, delta: float) -> tuple[float, float]:
    """Data orders (s_f, s_g) of the homogeneous estimate's right side."""
    return n / 2.0 + 1.0 / (m + 2.0) + delta, n / 2.0 - 1.0 / (m + 2.0) + delta


def default_sobolev_grid(M: float) -> RadialGrid:
    """Compact high-frequency grid for W^(s,1) quadrature.

    Fractional orders on narrow bumps need lambda_max in the thousands,
    while the integrand's radial tail decays like a negative power; a short
    interval at high N serves both (the attached refinement estimate
    quantifies what is left).
    """
    r_max = max(20.0, 10.0 * (M - 1.0))
    return RadialGrid(r_max, 16384)


# ---------------------------------------------------------------------------
# Data family
# ---------------------------------------------------------------------------


def standard_family(M: float, m: int):
    """8-member (name, f, g) family: width ladder, shifted, two-bump, dilates.

    Every profile is supported in r <= M - 1; two members carry velocity
    data so both Sobolev terms of the estimate are exercised.
    """
    R = M - 1.0
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    base = bump(0.6 * R)

    def pair(f1, f2):
        return lambda r: f1(r) + f2(r)

    members = [
        ("bump-w0.35", bump(0.35 * R), zero),
        ("bump-w0.5", bump(0.5 * R), zero),
        ("bump-w0.65", bump(0.65 * R), zero),
        ("bump-w0.8", bump(0.8 * R), zero),
        ("annular-shifted", annular_bump(0.5 * R, 0.4 * R), zero),
        ("two-bump", pair(bump(0.55 * R), annular_bump(0.5 * R, 0.4 * R, 0.5)), bump(0.5 * R, 0.5)),
        ("dilate-1.15", dilate(base, 1.15, m), zero),
        ("dilate-1.3", dilate(base, 1.3, m), bump(0.45 * R, 0.3)),
    ]
    return members


# ---------------------------------------------------------------------------
# Ratio probes
# ---------------------------------------------------------------------------


@dataclass
class RatioRow:
    member: str
    lhs: float
    rhs: float
    ratio: float | None
    tail_fraction: float
    flags: str = ""


def _check_window(m, n, q, gamma, name):
    """The (q, gamma) window q > q_min, 0 < gamma < gamma_bound(q); ``name`` names gamma."""
    bound = strichartz_gamma_bound(m, n, q)  # raises the q window's WindowError
    if not (0.0 < gamma < bound):
        raise WindowError(name, f"{name} window violated: need 0 < {name} < {bound:.6f}, got {name}={gamma}")


def delta_bound(m: int, n: int, q: float, gamma: float) -> float:
    """Ceiling n/2 + 1/(m+2) - gamma - 1/q of the homogeneous estimate's delta."""
    return n / 2.0 + 1.0 / (m + 2.0) - gamma - 1.0 / q


def _time_grid(t_max: float) -> np.ndarray:
    """72 snapshot times: 24 evenly on [0, 2), then 48 log-spaced on [2, t_max]."""
    if not t_max > 2.0:
        raise ParameterError(f"t_max > 2 required (log-spaced snapshots start at t=2), got t_max={t_max}")
    return np.concatenate([np.linspace(0.0, 2.0, 24, endpoint=False), np.geomspace(2.0, t_max, 48)])


def _per_time_integrals(
    params: ModelParams, grid: RadialGrid, times, fh, gh, spec: WeightSpec, after=None
) -> np.ndarray:
    """Characteristic-weight integral of the linear solution at each time: (T,), or (T, B) for a family.

    A two-stage pipeline.  The caller runs the one symbol stream over the
    times and forms each time's sine coefficients; one worker thread takes
    them through the inverse transform, on the nodes of the cone the weight
    integrates, and reduces them to the integral.  With ``after``, the caller
    runs after() once it has handed off the last time, while the worker
    drains.  Every time goes through the same operations as in one thread,
    so each integral keeps its bits; the transforms and the element-wise
    kernels release the GIL.
    """
    grid.validate_horizon(params.m, params.M, float(times.max()))
    r, out = grid.r, []

    def reduce(c, t):
        u = _radial_field(grid, c, _cone_nodes(r, params.m, spec.M, t))
        out.append(_weighted_integral(u, r, t, params.m, spec))

    _pipeline(zip(_coeff_stream(params.m, grid, times, fh, gh), times.tolist()), reduce, after)
    return np.array(out)


def _pipeline(items, consume, after=None) -> None:
    """consume(*item) for each tuple ``items`` yields, in one worker thread fed through a queue of depth 1.

    The caller draws the items and puts each on the queue, then runs after()
    (if given) while the worker drains.  The worker runs under a copy of the
    caller's context, so it sees the caller's ``np.errstate`` and ContextVars,
    and it is joined before this returns or raises.  Once the worker fails it
    only drains the queue, and the caller puts nothing more after the put
    that finds the failure.  A worker error wins over the caller's, as it
    comes earlier in serial order; an error of the caller's alone is
    re-raised unchanged.
    """
    import queue  # at the first pass, not with the package: the flag subcommands never load it

    handoff, failed = queue.Queue(maxsize=1), []  # failed: the worker's error

    def work():
        while (item := handoff.get()) is not None:  # None: the caller's last put
            if not failed:
                try:
                    consume(*item)
                except BaseException as exc:  # handed to the caller, which re-raises it
                    failed.append(exc)

    thread = threading.Thread(target=contextvars.copy_context().run, args=(work,))
    thread.start()
    try:
        try:
            for item in items:
                handoff.put(item)
                if failed:
                    break
        finally:
            handoff.put(None)
        if after is not None:
            after()
    finally:
        thread.join()
        if failed:
            raise failed[0]


def _ratio_row(name: str, per_t: np.ndarray, times: np.ndarray, q: float, t_split: float, rhs: float):
    """The row of one member: the box integral of its per-time integrals g(t), a tail estimate, flags.

    g is fitted as a power law over t >= t_split; the tail int_T^inf is
    estimated from the fitted slope (infinite when the slope is not
    integrable).  The tail fraction is the relative change of the reported
    norm if the tail were included: (1 + tail/total)^(1/q) - 1.
    """
    total = float(np.trapezoid(per_t, times))
    sel = (times >= t_split) & (per_t > 0)
    tail = 0.0
    if sel.sum() >= 4:
        slope, logc = np.polyfit(np.log(times[sel]), np.log(per_t[sel]), 1)
        T = float(times.max())
        tail = np.exp(logc) * T**slope * T / (-slope - 1.0) if slope < -1.0 else np.inf
    if total <= 0:
        frac = 0.0
    elif not np.isfinite(tail):
        frac = 1.0
    else:
        frac = float((1.0 + tail / total) ** (1.0 / q) - 1.0)
    lhs = total ** (1.0 / q)
    flags = "tail-dominated" if frac > TAIL_DOMINATED_FRACTION else ""
    return RatioRow(name, lhs, rhs, lhs / rhs, frac, flags)


def homogeneous_ratio(
    params: ModelParams,
    family,
    q: float,
    gamma: float,
    delta: float,
    grid: RadialGrid,
    t_max: float = 100.0,
) -> list[RatioRow]:
    """LHS/RHS rows of the homogeneous estimate for each family member.

    LHS is the weighted space-time norm of the linear solution over the box
    t <= t_max with a decay-extrapolated tail estimate attached; RHS is the
    sum of the two W^(s,1) data norms, computed while the last snapshots are
    reduced.  Zero data yields an excluded row; data that vanish at every
    node r > 0 of ``grid``, or whose L2 norm from their coefficients on
    ``grid`` is more than ``DATA_L2_GAP`` off the one from their samples on
    the W^(s,1) grid (under-resolved), are a GridError naming grid.N.  The
    members with data are solved as one batch: each snapshot time evaluates
    the symbols once for all of them, and each snapshot is reduced at once
    to the members' per-time integrals.
    """
    _check_window(params.m, params.n, q, gamma, "gamma")
    d_max = delta_bound(params.m, params.n, q, gamma)
    if not (0.0 < delta < d_max):
        raise WindowError("delta", f"delta window violated: need 0 < delta < {d_max:.6f}, got delta={delta}")
    s_f, s_g = sobolev_orders(params.m, params.n, delta)
    sgrid = default_sobolev_grid(params.M)
    times = _time_grid(t_max)
    rows = []
    live = []  # (row index, name, f coeffs, g coeffs, f samples, g samples) of the members with data
    for name, f, g in family:
        fs, gs = f(sgrid.r), g(sgrid.r)  # sampled once, for the zero test and the norms
        if not (np.any(fs) or np.any(gs)):
            rows.append(RatioRow(name, 0.0, 0.0, None, 0.0, "excluded-zero"))
            continue
        fh, gh = _data_coeffs(params, grid, f, g)
        if not (fh.any() or gh.any()):
            raise GridError(f"grid.N={grid.N}: the data of {name!r} vanish at every node r > 0 (h={grid.h:.4g}), "
                            "so its LHS would read 0; raise grid.N")
        gap = max(_l2_gap(grid, fh, sgrid, fs), _l2_gap(grid, gh, sgrid, gs))
        if gap > DATA_L2_GAP:
            raise GridError(f"grid.N={grid.N}: the L2 norm of the data of {name!r} on this grid (h={grid.h:.4g}) "
                            f"differs by {gap:.2g} from theirs on the W^(s,1) grid, relative (more than "
                            f"{DATA_L2_GAP:g}), so it under-resolves them; raise grid.N")
        live.append((len(rows), name, fh, gh, fs, gs))
        rows.append(None)
    if live:
        idx, names, fh, gh, fs, gs = zip(*live)
        spec = WeightSpec(gamma=gamma, q=q, M=params.M)
        rhs = []

        def data_norms():  # on the caller, while the worker reduces the last times
            rhs.extend(sobolev_w_s1_norm(lambda r: a, s_f, sgrid) + sobolev_w_s1_norm(lambda r: b, s_g, sgrid)
                       for a, b in zip(fs, gs))

        per_t = _per_time_integrals(params, grid, times, np.array(fh), np.array(gh), spec, data_norms)
        for i, name, pt, rh in zip(idx, names, per_t.T, rhs):
            rows[i] = _ratio_row(name, pt, times, q, t_max / 10.0, rh)
    return rows


def _l2_gap(grid: RadialGrid, coeffs: np.ndarray, sgrid: RadialGrid, samples: np.ndarray) -> float:
    """|a - b| / b for the L2 norms a of w = r f from its sine coefficients on ``grid`` and b from its samples on ``sgrid``.

    0.0 where the samples are zero.
    """
    want = np.sqrt(sgrid.h * np.sum((sgrid.r * samples) ** 2))
    return float(abs(SpectralField(grid, coeffs).coeff_l2() - want) / want) if want else 0.0


def lhs_box_values(
    params: ModelParams,
    f,
    g,
    q: float,
    gamma: float,
    grid: RadialGrid,
    boxes=(25.0, 50.0, 100.0),
) -> list[float]:
    """Truncated weighted LHS over nested time boxes t <= T, one per box.

    The snapshots to the largest box are each reduced once to their per-time
    integrals; each box is the trapezoid over the prefix of those inside it.
    No window validation here: this is the instrument for the negative
    control, where gamma is deliberately pushed past its ceiling.
    """
    times = _time_grid(max(boxes))
    fh, gh = _data_coeffs(params, grid, f, g)
    per_t = _per_time_integrals(params, grid, times, fh, gh, WeightSpec(gamma=gamma, q=q, M=params.M))
    return [float(np.trapezoid(per_t[times <= T], times[times <= T]) ** (1.0 / q)) for T in boxes]


def paired_gamma2(q: float, gamma1: float) -> float:
    """The convenient source-side weight power gamma2 = (q - 1) gamma1."""
    return (q - 1.0) * gamma1


def inhomogeneous_defaults(m: int, n: int) -> tuple[float, float, float]:
    """Default (q, gamma1, gamma2) for the paired inhomogeneous probe.

    The pairing gamma2 = (q-1) gamma1 > 1/q needs gamma1 > 1/(q(q-1)) as
    well as gamma1 < gamma_bound(q), a window that is empty for q too close
    to q_min; just above the interpolation endpoint q0 it is comfortably
    open, so the default q is 1.02 q0 and gamma1 sits at the window's
    midpoint.
    """
    _, q0 = q_bounds(m, n)
    q = 1.02 * q0
    lo = 1.0 / (q * (q - 1.0))
    hi = strichartz_gamma_bound(m, n, q)
    if lo >= hi:
        raise ParameterError(
            f"paired gamma window empty at q={q:.4f}: lo={lo:.4f} >= hi={hi:.4f}"
        )
    gamma1 = 0.5 * (lo + hi)
    return q, gamma1, paired_gamma2(q, gamma1)


def inhomogeneous_ratio(
    params: ModelParams,
    source_family,
    q: float,
    gamma1: float,
    gamma2: float,
    grid: RadialGrid,
    T0: float = 0.5,
    t_max: float = 50.0,
    dt: float = 0.02,
) -> list[RatioRow]:
    """LHS/RHS rows of the inhomogeneous estimate for zero-data forced solutions.

    ``source_family`` yields (name, source) with source(t, r_array) -> samples,
    vanishing for r > phi(t) + M - 1.  The sources march as one batch, so each
    step evaluates the symbols once for all of them, and each source is sampled
    once per step, at the midpoint where the march freezes it.  Those samples
    serve the support check (a leak is a SupportError naming the step's time),
    the zero test (a source zero at every midpoint is an excluded row) and the
    RHS, the weight^gamma2 L^(q/(q-1)) norm of the step-frozen source by the
    midpoint rule over [0, t_max]; a source that is not zero but whose RHS
    reads 0 (seen only at r = 0 on a coarse grid) is a GridError naming
    grid.N.  LHS uses weight^gamma1 in L^q over [T0/2, t_max]; a T0 that
    leaves fewer than two snapshot times in that box is a WindowError naming
    T0.  The march owns the time grid and the snap rule: the snapshot times
    snap to its step ends, where the LHS reads them, and a dt that snaps the
    first one to step 0 is a WindowError naming dt.  A march that stops at
    the blowup threshold would leave a truncated box: TruncatedBoxError
    names each stopped member and its stop time.
    """
    _check_window(params.m, params.n, q, gamma1, "gamma1")
    if not gamma2 > 1.0 / q:
        raise WindowError("gamma2", f"gamma2 window violated: need gamma2 > 1/q={1.0 / q:.6f}, got gamma2={gamma2}")
    qp = q / (q - 1.0)
    times = _time_grid(t_max)[1:]
    if np.count_nonzero(times >= T0 / 2.0) < 2:
        raise WindowError(
            "T0",
            f"T0={T0} leaves fewer than two snapshot times in [T0/2, t_max={t_max}]"
        )
    members = list(source_family)
    if not members:
        return []
    names, sources = zip(*members)
    ends, mids = _steps(params, grid, t_max, dt)
    keep = _snap(ends, times, "dt")
    r, src_spec = grid.r, WeightSpec(gamma=gamma2, q=qp, M=params.M)
    src_sums = np.zeros(len(sources))  # each source's sum of per-step weighted integrals; the RHS takes step ends[1]
    nonzero = np.zeros(len(sources), dtype=bool)

    def source(i, tm, um, live):
        vals = np.array([sources[b](tm, r) for b in live])
        peak = np.abs(vals).max(axis=1)
        leak = np.abs(vals[:, r > finite_speed_radius(params.m, params.M, tm)]).max(axis=1, initial=0.0)
        b = int(np.argmax(leak > SUPPORT_REL_TOL * peak))
        if leak[b] > SUPPORT_REL_TOL * peak[b]:
            raise SupportError(
                f"source leaks outside r <= phi(t)+M-1 at t={tm:.3f} "
                f"(max outside {leak[b]:.2e} vs peak {peak[b]:.2e})"
            )
        nonzero[live] |= vals.any(axis=1)
        src_sums[live] += _weighted_integral(vals, r, tm, params.m, src_spec)
        return vals

    zero = np.zeros((len(sources), grid.N - 1))
    _, t_stops, kept = _march(params.m, grid, (ends, mids), zero, zero, source, BLOWUP_THRESHOLD, keep)
    stopped = [f"{n} stopped at t={t:.6g}" for n, t in zip(names, t_stops) if t is not None]
    if stopped:
        raise TruncatedBoxError(
            f"forced march of {', '.join(stopped)} "
            f"(sup|u| above {BLOWUP_THRESHOLD:.0e} or not finite), "
            f"short of the box end t_max={t_max}"
        )
    t_snap = np.array([t for t, _ in kept])
    spec = WeightSpec(gamma=gamma1, q=q, M=params.M)
    per_t = np.array([_weighted_integral(u, r, t, params.m, spec) for t, u in kept])
    sel = t_snap >= T0 / 2.0
    for name, forced, total in zip(names, nonzero, src_sums):
        if forced and not total:
            raise GridError(f"grid.N={grid.N}: the weighted norm of source {name!r} reads 0 (h={grid.h:.4g}; nonzero "
                            "only at r = 0, where its r^2 weight vanishes), so its RHS would too; raise grid.N")
    return [
        _ratio_row(name, pt, t_snap[sel], q, t_max / 10.0, float((ends[1] * total) ** (1.0 / qp))) if forced
        else RatioRow(name, 0.0, 0.0, None, 0.0, "excluded-zero")
        for name, pt, forced, total in zip(names, per_t[sel].T, nonzero, src_sums)
    ]


# ---------------------------------------------------------------------------
# Littlewood-Paley machinery
# ---------------------------------------------------------------------------


class DyadicCutoff:
    """Smooth beta supported in (1/2, 2) with sum_j beta(tau / 2^j) = 1 for tau > 0.

    Built as beta(tau) = theta(tau) - theta(2 tau) from the C-inf decreasing
    plateau theta(tau) = smooth_ramp(2 - tau) (1 below tau = 1, 0 above
    tau = 2), so the dyadic sum telescopes exactly.
    """

    def __call__(self, tau):
        tau = np.asarray(tau, dtype=float)
        return smooth_ramp(2.0 - tau) - smooth_ramp(2.0 - 2.0 * tau)


_BETA = DyadicCutoff()  # the cutoff of every dyadic partition below


def lp_partition_check(tau_grid, half_window: int = 2) -> float:
    """Max over the grid of |sum_j beta(tau/2^j) - 1| with j in floor(log2 tau) +- window."""
    tau = np.asarray(tau_grid, dtype=float)
    if np.any(tau <= 0):
        raise ParameterError("tau > 0 required")
    j0 = np.floor(np.log2(tau)).astype(int)
    total = np.zeros_like(tau)
    for dj in range(-half_window, half_window + 1):
        total += _BETA(tau / 2.0 ** (j0 + dj))
    return float(np.abs(total - 1.0).max())


def dyadic_decompose(snapshot: SpectralField):
    """Band-limited pieces of a spectral snapshot: coefficients times beta(lambda/2^j).

    Returns a list of (j, SpectralField) over the j-window covering the
    grid's frequency range; summing the pieces reconstructs the original
    coefficients exactly up to rounding.
    """
    lam = snapshot.grid.lam
    j_lo = int(np.floor(np.log2(lam.min()))) - 1
    j_hi = int(np.ceil(np.log2(lam.max()))) + 1
    out = []
    for j in range(j_lo, j_hi + 1):
        band = snapshot.coeffs * _BETA(lam / 2.0**j)
        if np.any(band != 0.0):
            out.append((j, SpectralField(snapshot.grid, band)))
    return out


def square_function_ratio(snapshot: SpectralField) -> float:
    """(sum_j ||G_j||_2^2) / ||G||_2^2 in the w-coefficient L2; lies in [1/2, 1].

    At q = 2 Parseval makes the square-function comparison computable: with
    at most two adjacent bands overlapping and sum beta_j = 1 pointwise,
    sum beta_j^2 is pinched between 1/2 and 1.
    """
    bands = dyadic_decompose(snapshot)
    total = SpectralField(snapshot.grid, snapshot.coeffs).coeff_l2() ** 2
    if total == 0.0:
        raise ParameterError("zero snapshot")
    s = sum(fld.coeff_l2() ** 2 for _, fld in bands)
    return float(s / total)
