"""Radial spectral solver for v_tt - t^m Lap(v) = 0 in n = 3, with oracles.

``solve_linear`` evolves each sine coefficient of w = r v exactly by the
multiplier symbols (V1 for the data, V2 for the velocity); there is no time
stepping and no stability constraint, so snapshots at arbitrary times cost
one transform each.  The same snapshots for a stacked family of data come
from one symbol evaluation per time shared by all members (the Strichartz
probes run their families that way), taken from one ``symbol_stream`` that
evaluates several times per kernel call.

``fd_oracle`` is the independent verification path: a method-of-lines
leapfrog on w_tt = t^m w_rr with the degeneracy-aware Taylor start and a
time step bounded by the final wave speed t_final^(m/2), stepped in place
in three rotating buffers, each step on the nodes of the data's light cone
only.  It is second order by construction; acceptance comparisons run it on
a refined grid.

``decay_slope`` fits the sup-norm decay exponent against log phi(t) (the
proved rate is -(n-1)/2 - m/(2(m+2))), and ``weighted_field_norm``
evaluates the characteristic-weight space-time norm used throughout the
estimate probes; its per-snapshot kernel forms that weight itself from a
``WeightSpec`` (``semilinear.weighted_solution_norm`` integrates its own).
"""

from __future__ import annotations

import numpy as np

from .errors import AccuracyError, InstabilityError, ParameterError
from .exponents import ModelParams
from .geometry import WeightSpec, characteristic_weight, finite_speed_radius, phi
from .grids import RadialGrid, SpaceTimeField, SpectralField, check_support
from .symbols import symbol_stream

__all__ = [
    "solve_linear",
    "fd_oracle",
    "decay_slope",
    "weighted_field_norm",
]

FD_CFL = 0.4  # fd_oracle's time step in units of h / t_final^(m/2)
FD_CONE_MARGIN = 100  # fd_oracle's window: nodes past the cone the leapfrog also updates
FD_EDGE_TOL = 1e-8  # largest |w| at fd_oracle's window edge, relative to the peak


def solve_linear(
    params: ModelParams,
    f,
    g,
    times,
    grid: RadialGrid,
    enforce_support: bool = True,
) -> SpaceTimeField:
    """Homogeneous radial solution at the requested times.

    ``f`` and ``g`` are callables sampling the data u(0, r) and u_t(0, r).
    Coefficients evolve as c_k(t) = V1(t, lambda_k) f_k + V2(t, lambda_k) g_k.
    """
    times = np.asarray(times, dtype=float)
    grid.validate_horizon(params.m, params.M, float(times.max()))
    fh, gh = _data_coeffs(params, grid, f, g, enforce_support)
    snaps = np.empty((times.size, grid.N + 1))
    for i, u in enumerate(_snapshots(params.m, grid, times, fh, gh)):
        snaps[i] = u
    return SpaceTimeField(times=times, grid=grid, u=snaps, m=params.m, M=params.M)


def _data_samples(params, grid, f, g, enforce_support=True):
    """The data f and g sampled on the grid nodes, after checking their support in r <= M - 1."""
    r = grid.r
    f_s, g_s = f(r), g(r)
    if enforce_support:
        check_support(f_s, r, params.M - 1.0)
        check_support(g_s, r, params.M - 1.0)
    return f_s, g_s


def _data_coeffs(params, grid, f, g, enforce_support=True):
    """Sine coefficients of the data w = r f and r g, after checking their support.

    All-zero samples (most members carry no velocity data) give zero
    coefficients without a transform.
    """
    f_s, g_s = _data_samples(params, grid, f, g, enforce_support)
    return tuple(SpectralField.from_radial(grid, s).coeffs if s.any() else np.zeros(grid.N - 1) for s in (f_s, g_s))


def _frame_coeffs(values, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sine coefficients V1 a + V2 b of a field, from the symbol values (V1, V2) at one time.

    (a, b) are the frame coordinates of the field, the march's (alpha, beta);
    (N-1,) for one field, (B, N-1) for a family.  :func:`_coeff_stream` forms
    the same values for the data coefficients of a homogeneous solution, one
    member at a time and without the V2 term where b is all zero.  The march
    keeps this broadcast form: its fields are one or a few members, where the
    row loop's fixed cost outweighs the temporary it saves.  On a 2-vCPU Xeon
    this form takes 3.9 us for one field at N = 2048 against the row loop's
    12.2 us, and the row loop made the benchmark's march and picard passes
    5% and 3% slower; on the 8-member strichartz family (N = 4096, 2 velocity
    rows) the row loop takes 58-75 us against 150-166 us.
    """
    v1, v2 = values
    c = v1 * a
    c += v2 * b
    return c


def _radial_field(grid: RadialGrid, c: np.ndarray, nodes: int | None = None) -> np.ndarray:
    """The radial field with sine coefficients c: (N-1,) gives (N+1,) samples, (B, N-1) gives (B, N+1).

    With ``nodes``, only the first ``nodes`` samples of each, with the same bits.
    It consumes ``c``: the inverse DST writes its samples into it.
    """
    return grid.u_from_w(grid.inverse(c, nodes, overwrite_x=True), nodes)


def _coeff_stream(m: int, grid: RadialGrid, times, fh: np.ndarray, gh: np.ndarray):
    """Yield the sine coefficients of the homogeneous solution at each time, (N-1,) or (B, N-1) for a family.

    The symbols come from one :func:`symbol_stream`, once per time, shared
    by every member.  Each time's coefficients are a fresh array, formed one
    member at a time: V1 fh, then V2 gh added in place only where gh is not
    all zero (found once per stream), so a step holds no family-sized
    temporary.  Every value equals its :func:`_frame_coeffs` value, with the
    same bits unless it is a zero, whose sign may differ.
    """
    f2, g2 = np.atleast_2d(fh), np.atleast_2d(gh)
    velocity = g2.any(axis=-1).tolist()
    for v1, v2 in symbol_stream(m, times, grid.lam, derivatives=False):
        c = np.empty(fh.shape)
        for row, f, g, moving in zip(np.atleast_2d(c), f2, g2, velocity):
            np.multiply(v1, f, out=row)
            if moving:
                row += v2 * g
        yield c


def _snapshots(m: int, grid: RadialGrid, times, fh: np.ndarray, gh: np.ndarray):
    """Yield the radial solution at each time, (N+1,) or (B, N+1) for a family, from :func:`_coeff_stream`."""
    for c in _coeff_stream(m, grid, times, fh, gh):
        yield _radial_field(grid, c)


def fd_oracle(
    params: ModelParams,
    f,
    g,
    times,
    grid: RadialGrid,
    enforce_support: bool = True,
) -> SpaceTimeField:
    """Leapfrog finite-difference solution, snapshots snapped to step times.

    dt = FD_CFL * h / t_final^(m/2) (the wave speed t^(m/2) peaks at the end of
    the run).  The first step is a Taylor start consistent with the
    degenerate coefficient: w_tt(0) = 0, and the first nonzero correction is
    the t^(m+2)/((m+1)(m+2)) * lambda^2-type term, supplied for m = 1, 2.
    Returned snapshot times are the nearest step multiples of the requested
    ones.

    Finite propagation speed keeps w zero past the data's last nonzero node
    plus phi(t): the step to t + dt updates only the nodes before that node
    plus ceil(phi(t + dt) / h) + ``FD_CONE_MARGIN``, capped at the wall, and
    every node past them stays zero.  Data that fill the grid make that
    window the whole grid.  Every 256 steps, a window edge that carries more
    than ``FD_EDGE_TOL`` of the peak |w| is an AccuracyError: the cone was
    too narrow for the solution.
    """
    times = np.asarray(times, dtype=float)
    t_final = float(times.max())
    grid.validate_horizon(params.m, params.M, t_final)
    m = params.m
    N, h = grid.N, grid.h
    r = grid.r
    f_s, g_s = _data_samples(params, grid, f, g, enforce_support)
    dt = FD_CFL * h / max(t_final, 1.0) ** (m / 2.0)
    nsteps = int(np.ceil(t_final / dt))
    dt = t_final / nsteps
    snap_steps = sorted(set(int(round(t / dt)) for t in times))
    if snap_steps[0] <= 0:
        raise ParameterError("requested times must be positive")

    w_prev = r * f_s
    lap = np.zeros_like(w_prev)
    lap[1:-1] = (w_prev[2:] - 2.0 * w_prev[1:-1] + w_prev[:-2]) / (h * h)
    w_cur = w_prev + dt * (r * g_s)
    if m == 1:
        w_cur += dt**3 / 6.0 * lap
    elif m == 2:
        w_cur += dt**4 / 12.0 * lap
    w_prev[-1] = w_cur[0] = w_cur[-1] = 0.0  # the wall node is never updated

    ref_norm = float(np.sqrt(np.sum(w_cur**2)))
    out_times, out_snaps = [], []
    last = snap_steps[-1]
    # step s (to time (s+1) dt) updates nodes 0..k-1: the data's last nonzero node, its cone and the margin
    data_end = int(np.flatnonzero((w_prev != 0.0) | (w_cur != 0.0)).max(initial=0))
    reach = np.ceil(phi(m, np.arange(2, last + 2) * dt) / h).astype(int)
    windows = np.minimum(data_end + reach + FD_CONE_MARGIN, N).tolist()
    w_prev[windows[0] :] = w_cur[windows[0] :] = 0.0
    w_next = np.zeros_like(w_cur)
    for step in range(1, last + 1):
        if step in snap_steps:
            out_times.append(step * dt)
            out_snaps.append(grid.u_from_w(w_cur[1:-1]))
        t = step * dt
        k = windows[step - 1]
        # in place, in the order of lap = (w[2:] - 2 w + w[:-2]) / h^2 and
        # w_next = 2 w - w_prev + (dt^2 t^m) lap, so every value keeps its bits
        inner, nxt = lap[1:k], w_next[:k]
        np.multiply(w_cur[1:k], 2.0, out=inner)
        np.subtract(w_cur[2 : k + 1], inner, out=inner)
        inner += w_cur[: k - 1]
        inner /= h * h
        np.multiply(w_cur[:k], 2.0, out=nxt)
        nxt -= w_prev[:k]
        lap[:k] *= dt * dt * t**m
        nxt += lap[:k]
        nxt[0] = 0.0
        w_prev, w_cur, w_next = w_cur, w_next, w_prev
        if (step + 1) % 256 == 0:
            cur = float(np.sqrt(np.sum(w_cur**2)))
            if cur > 10.0 * max(ref_norm, 1e-300):
                raise InstabilityError(
                    f"leapfrog norm grew {cur / ref_norm:.1f}x by t={t:.3f}; CFL violated?"
                )
            ref_norm = max(ref_norm, cur)
            peak, edge = float(np.abs(w_cur).max()), abs(float(w_cur[k - 1])) if k < N else 0.0
            if edge > FD_EDGE_TOL * peak:
                raise AccuracyError(
                    f"leapfrog window edge r={r[k - 1]:.4g} carries {edge / peak:.2e} of the peak |w| "
                    f"by t={t + dt:.3f} (> {FD_EDGE_TOL:.0e}); the cone is too narrow"
                )
    return SpaceTimeField(
        times=np.asarray(out_times),
        grid=grid,
        u=np.asarray(out_snaps),
        m=m,
        M=params.M,
    )


def decay_slope(field: SpaceTimeField, t_window: tuple[float, float]) -> float:
    """Least-squares slope of log sup_r |u(t, .)| against log phi(t) in the window.

    Requires at least 8 snapshots inside the window and phi(t_lo) >= 10 M so
    the fit sees the asymptotic regime rather than the data-dominated one.
    """
    t_lo, t_hi = t_window
    if phi(field.m, t_lo) < 10.0 * field.M:
        raise ParameterError(
            f"window starts too early: phi(t_lo)={phi(field.m, t_lo):.2f} < 10M={10 * field.M:.2f}"
        )
    mask = (field.times >= t_lo) & (field.times <= t_hi)
    if mask.sum() < 8:
        raise ParameterError(f"need >= 8 snapshots in window, have {int(mask.sum())}")
    sup = field.sup_norms()[mask]
    ph = phi(field.m, field.times[mask])
    if np.any(sup <= 0):
        return 0.0
    slope, _ = np.polyfit(np.log(ph), np.log(sup), 1)
    return float(slope)


def weighted_field_norm(field: SpaceTimeField, spec: WeightSpec) -> float:
    """(int int ((phi+M)^2 - r^2)^(gamma q) |u|^q 4 pi r^2 dr dt)^(1/q).

    The radial integral runs only over r <= phi(t) + M - 1, where the weight
    is positive by construction; trapezoid in both variables, fixed
    summation order.
    """
    r = field.grid.r
    per_t = [_weighted_integral(u, r, float(t), field.m, spec) for t, u in zip(field.times, field.u)]
    return float(np.trapezoid(per_t, field.times) ** (1.0 / spec.q))


def _cone_nodes(r: np.ndarray, m: int, M: float, t: float) -> int:
    """The number of ascending nodes ``r`` on the cone r <= phi(t) + M - 1 at time t."""
    return int(np.searchsorted(r, finite_speed_radius(m, M, t), side="right"))


def _weighted_integral(u: np.ndarray, r: np.ndarray, t: float, m: int, spec: WeightSpec):
    """4 pi int_{r <= phi(t)+M-1} ((phi(t)+M)^2 - r^2)^(gamma q) |u(r)|^q r^2 dr at one time, trapezoid in r.

    ``u`` is one snapshot (N+1,) or a family (B, N+1); a family gives one
    value per member, each equal to its own 1-D call.  The nodes ``r``
    ascend, so r <= phi(t)+M-1 is a prefix, the first ``_cone_nodes`` of
    them, taken as a slice: the rows stay C-ordered and each is summed in the
    same order as a single snapshot.  ``u`` may hold just that prefix (as the
    Strichartz probes build their snapshots) or any longer one; the value is
    the same.
    """
    k = _cone_nodes(r, m, spec.M, t)
    rr = r[:k]
    weight = characteristic_weight(m, spec.M, t, rr) ** (spec.gamma * spec.q)
    return 4.0 * np.pi * np.trapezoid(weight * np.abs(u[..., :k]) ** spec.q * rr * rr, rr)
