"""Radial grids, the sine-spectral reduction, and space-time field containers.

In n = 3 the substitution w = r u turns the radial Laplacian into a plain
second derivative: u_tt - t^m (u_rr + (2/r) u_r) = S becomes
w_tt - t^m w_rr = r S with w(t, 0) = 0.  On [0, r_max] with a Dirichlet
condition at the outer wall (causally invisible as long as the support never
reaches it) the sine modes sin(lambda_k r), lambda_k = k pi / r_max,
diagonalize the spatial operator exactly, so each coefficient evolves under
the scalar mode ODE handled by :mod:`tricomi_lab.symbols`.

Both directions of the sine transform are one DST-I, deterministic on a
fixed install.  Up to N = ``SPLIT_ABOVE_N``, and for odd N, it is scipy's
pocketfft DST-I itself, with the bits of ``scipy.fft.dst(type=1)``.  Above
it, for even N, it is split once per halving: the odd-indexed samples go
through a DST-II of N/2 points, the even-indexed ones through a DST-I of
N/2 - 1 points (split again while above the threshold), and the modes past
N/2 come by reflection from the same two, only when asked for.  pocketfft
forms a DST-I of N - 1 points from a real FFT of 2N points, so the split does
less work; at N = 2048 its extra calls and array passes cost more than they
save, hence the threshold.  A prefix of the outputs runs the same operations
as the full transform, so it keeps its bits.  ``scipy.fftpack`` (and with it
``scipy.fft``) is imported at the first transform, not with the package.

The transforms, ``RadialGrid.u_from_w`` (w = r u back to u, the one
conversion of the spectral solvers and the FD oracle),
``SpectralField.to_radial`` and ``origin_value`` act on the last axis, so a
family of B fields stacked as (B, N-1) coefficients goes through them in one
call, each row bit-identical to its own 1-D call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError, ParameterError, SupportError
from .geometry import finite_speed_radius

__all__ = ["RadialGrid", "SpectralField", "SpaceTimeField", "origin_value"]

SUPPORT_REL_TOL = 1e-12  # largest sample past a support radius, relative to the peak
TAIL_TOP_FRACTION = 0.1  # share of the highest modes whose energy counts as the spectral tail
# Largest N whose DST-I is scipy's own.  On a 2-vCPU Xeon the split took 0.72-0.96x of
# scipy's time for N = 4096..16384 on 1 to 8 rows, but one split level at N = 2048 took
# 1.19-1.35x of the unsplit time on one row, the march's shape.
SPLIT_ABOVE_N = 2048


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid on [0, r_max] with N intervals (nodes 0..N); n_dim = 3."""

    r_max: float
    N: int
    # "auto" | "fft": both select the DST-I; kept so existing configs still parse
    transform: str = "auto"

    def __post_init__(self):
        if self.r_max <= 0 or self.N < 8:
            raise GridError(f"need r_max > 0 and N >= 8, got {self.r_max}, {self.N}")
        if self.transform == "direct":
            raise GridError("grid.transform 'direct' is retired (O(N^2) sine product); use 'auto' or 'fft'")
        if self.transform not in ("fft", "auto"):
            raise GridError(f"unknown grid.transform {self.transform!r}; known: 'auto', 'fft'")

    @property
    def h(self) -> float:
        return self.r_max / self.N

    @cached_property
    def r(self) -> np.ndarray:
        return _frozen(np.arange(self.N + 1) * self.h)

    @cached_property
    def lam(self) -> np.ndarray:
        """Mode frequencies lambda_k = k pi / r_max, k = 1..N-1; like ``r``, built once and read-only."""
        return _frozen(np.arange(1, self.N) * np.pi / self.r_max)

    def forward(self, w_interior: np.ndarray) -> np.ndarray:
        """Sine coefficients c with w_j = sum_k c_k sin(pi j k / N), along the last axis.

        One DST-I (:func:`_dst1`: scipy's up to ``SPLIT_ABOVE_N``, the radix-2
        split above it); its fresh output is divided by N in place, and
        ``w_interior`` is not changed.
        """
        c = _dst1(w_interior, self.N - 1)
        c /= self.N
        return c

    def inverse(self, coeffs: np.ndarray, nodes: int | None = None, overwrite_x: bool = False) -> np.ndarray:
        """Interior samples w_j from sine coefficients, along the last axis.

        With ``nodes``, only the first max(nodes - 1, 4) samples (at most
        N - 1), the ones ``u_from_w(w, nodes)`` reads, each with the same
        bits: above ``SPLIT_ABOVE_N`` the split forms the reflected half,
        past N/2, only for a prefix that reaches it.  ``coeffs`` is left as
        it was, unless ``overwrite_x``: then scipy's DST writes its samples
        into ``coeffs`` where it can, for a caller that owns it and needs it
        no more (the split never does).  The samples are halved in place
        either way, with the same bits.
        """
        j = self.N - 1 if nodes is None else min(max(nodes - 1, 4), self.N - 1)
        w = _dst1(coeffs, j, overwrite_x)
        w /= 2.0
        return w

    def u_from_w(self, w_interior: np.ndarray, nodes: int | None = None) -> np.ndarray:
        """Radial samples of u = w/r from interior w, origin by one-sided limit.

        On all N + 1 nodes, or on the first ``nodes`` of them (1 <= nodes <= N + 1);
        each sample has the same bits either way.
        """
        nodes = self.N + 1 if nodes is None else nodes
        k = min(nodes, self.N)
        u = np.empty(w_interior.shape[:-1] + (nodes,))
        u[..., 1:k] = w_interior[..., : k - 1] / self.r[1:k]
        u[..., 0] = origin_value(w_interior, self.h)
        u[..., self.N :] = 0.0  # the wall node, when it is one of them
        return u

    def validate_horizon(self, m: int, M: float, t_final: float) -> None:
        """Outer wall must stay causally invisible: r_max > phi(t)+M-1+2h.

        A t_final whose phase overflows needs an infinite radius, and fails
        the same way, without a numpy overflow warning.
        """
        with np.errstate(over="ignore"):
            needed = finite_speed_radius(m, M, t_final) + 2.0 * self.h
        if self.r_max <= needed:
            raise GridError(
                f"grid.r_max={self.r_max} too small for t_final={t_final}: "
                f"support radius + 2h = {needed:.3f}"
            )


def _dst1(x: np.ndarray, j: int, overwrite_x: bool = False) -> np.ndarray:
    """The first ``j`` outputs of ``scipy.fft.dst(x, type=1)`` along the last axis (1 <= j <= n - 1).

    With n - 1 samples x_1..x_(n-1), n even and above ``SPLIT_ABOVE_N``, the
    odd-indexed samples give o_k by a DST-II of n/2 points and the
    even-indexed ones e_k by a DST-I of n/2 - 1 points (this function again);
    then w_k = o_k + e_k for k < n/2, w_(n/2) = o_(n/2) and
    w_(n-k) = o_k - e_k.  The last are formed only when ``j`` > n/2.  Every
    output is formed by the same operations whatever ``j`` is.  Otherwise
    the transform is scipy's, which may write into ``x`` if ``overwrite_x``.
    """
    # scipy.fftpack.dst is the pocketfft transform that scipy.fft.dst dispatches to, bit for bit,
    # less that dispatch: about 4 us a call held under the GIL, which the strichartz pipeline's
    # two threads share.  Imported here: the flag subcommands make no transform.
    from scipy.fftpack import dst

    n = x.shape[-1] + 1
    if n <= SPLIT_ABOVE_N or n % 2:
        return dst(x, type=1, overwrite_x=overwrite_x)[..., :j]
    h = n // 2
    a = min(j, h - 1)
    o = dst(x[..., 0::2], type=2)
    e = _dst1(x[..., 1::2], a)
    if j <= h:  # no reflected half: w_k = o_k + e_k, formed in o
        o[..., :a] += e
        return o[..., :j]
    w = np.empty(x.shape[:-1] + (j,))
    np.add(o[..., :a], e, out=w[..., :a])
    w[..., h - 1] = o[..., h - 1]
    np.subtract(o[..., n - j - 1 : h - 1], e[..., n - j - 1 :], out=w[..., j - 1 : h - 1 : -1])  # k = h-1 .. n-j
    return w


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)  # cached and shared by every caller
    return a


def origin_value(w_interior: np.ndarray, h: float):
    """lim_{r->0} w/r = w'(0) by a 4th-order one-sided stencil (w(0) = 0); one per row."""
    w1, w2, w3, w4 = w_interior.T[:4]  # scalars for one field, columns for a family
    out = (48.0 * w1 - 36.0 * w2 + 16.0 * w3 - 3.0 * w4) / (12.0 * h)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class SpectralField:
    """Sine-coefficient representation of w = r u at one instant."""

    grid: RadialGrid
    coeffs: np.ndarray

    @classmethod
    def from_radial(cls, grid: RadialGrid, u: np.ndarray) -> "SpectralField":
        if u.shape != (grid.N + 1,):
            raise GridError(f"expected {grid.N + 1} samples, got {u.shape}")
        w = (grid.r * u)[1 : grid.N]
        return cls(grid=grid, coeffs=grid.forward(w))

    def to_radial(self) -> np.ndarray:
        """Radial samples of u = w/r on all nodes, origin by one-sided limit."""
        return self.grid.u_from_w(self.grid.inverse(self.coeffs))

    def coeff_l2(self) -> float:
        """L2 of w from coefficients (Parseval for the sine basis)."""
        return float(np.sqrt(self.grid.r_max / 2.0 * np.sum(self.coeffs**2)))

    def tail_energy_fraction(self) -> float:
        """Energy fraction carried by the highest ``TAIL_TOP_FRACTION`` of modes."""
        e = self.coeffs**2
        total = e.sum()
        if total == 0.0:
            return 0.0
        k0 = int((1.0 - TAIL_TOP_FRACTION) * e.size)
        return float(e[k0:].sum() / total)


def check_support(u: np.ndarray, r: np.ndarray, radius: float) -> None:
    """Require samples beyond ``radius`` to be below ``SUPPORT_REL_TOL`` of the peak."""
    peak = np.abs(u).max()
    if peak == 0.0:
        return
    outside = np.abs(u[r > radius])
    if outside.size and outside.max() > SUPPORT_REL_TOL * peak:
        raise SupportError(
            f"data leaks outside r <= {radius:.4f}: "
            f"max outside = {outside.max():.3e} vs peak {peak:.3e}"
        )


@dataclass(frozen=True)
class SpaceTimeField:
    """Time-stamped radial snapshots u(t_i, r_j) plus the grid that made them."""

    times: np.ndarray
    grid: RadialGrid
    u: np.ndarray  # shape (len(times), N+1)
    m: int
    M: float

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ParameterError("snapshot times must be strictly increasing")
        if self.u.shape != (len(self.times), self.grid.N + 1):
            raise GridError("snapshot array shape does not match times/grid")

    def sup_norms(self) -> np.ndarray:
        return np.abs(self.u).max(axis=1)

    def l2_norms(self) -> np.ndarray:
        """Per-snapshot radial L2: sqrt(4 pi int u^2 r^2 dr) by trapezoid."""
        r = self.grid.r
        return np.sqrt(4.0 * np.pi * np.trapezoid(self.u**2 * r * r, r, axis=1))

    def support_leak(self) -> np.ndarray:
        """Per-snapshot fraction of int u^2 r^2 dr beyond phi(t) + M - 1 + 2h."""
        r = self.grid.r
        dens = self.u**2 * r * r
        total = np.trapezoid(dens, r, axis=1)
        out = np.zeros(len(self.times))
        for i, t in enumerate(self.times):
            edge = finite_speed_radius(self.m, self.M, float(t)) + 2.0 * self.grid.h
            mask = r > edge
            if np.any(mask) and total[i] > 0:
                out[i] = np.trapezoid(dens[i, mask], r[mask]) / total[i]
        return out
