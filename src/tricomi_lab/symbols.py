"""Multiplier symbols of the linear degenerate-wave propagator.

After a Fourier transform in x, the linear equation v_tt - t^m Lap(v) = 0
turns into the per-frequency mode ODE

    v'' + t^m lambda^2 v = 0,        lambda = |xi|,

whose fundamental pair normalized to data (V1(0) = 1, V1'(0) = 0) and
(V2(0) = 0, V2'(0) = 1) defines the propagator symbols:

    V1(t, lambda) = e^(-z/2) M(a1, 2 a1; z),       a1 = m / (2(m+2)),
    V2(t, lambda) = t e^(-z/2) M(a2, 2 a2; z),     a2 = (m+4) / (2(m+2)),

with z = 2 i phi(t) lambda and M the confluent hypergeometric (Kummer)
function.  Because both parameter pairs satisfy b = 2a, Kummer's second
transformation (DLMF 13.6.9, 10.16.9) makes them real 0F1 functions of
w = phi(t) lambda, with nu = 1/(m+2):

    V1 = Lambda_(-nu)(w),   V2 = t Lambda_(+nu)(w),
    Lambda_nu(w) = 0F1(; nu + 1; -w^2/4) = Gamma(nu + 1) (w/2)^(-nu) J_nu(w),

with Lambda_nu(0) = 1 and large-w modulus of V1 ~ w^(-m/(2(m+2))).

Three independent evaluation routes are provided and cross-validated by the
tests: direct ODE integration (power series start + adaptive high-order
explicit integration), the Kummer route (M(a, 2a; z) only, the symbols'
family: the stabilized even series for |z| <= 30, exponential two-component
asymptotics beyond, overlap-checked on |z| in [25, 40]), and the Bessel
route, Lambda_nu itself (a 30-term series with no fractional power up to
W_SWITCH = 12.25, Hankel's expansion beyond, both good to about 1e-12).
The kernel takes ascending rows w = phi(t) lambda only and splits each at
W_SWITCH by slices; the stream sorts an unsorted lambda once.
Pochhammer ratios are always accumulated incrementally, never via Gamma
quotients.

The solver-facing entry point is :func:`symbol_stream`, which yields
(V1, V2, V1', V2') at each of a sequence of times, vectorized over a
frequency array via the Bessel route, all its orders in one pass of one
kernel.  The kernel call has a fixed cost that dwarfs a small grid's
work, so the stream evaluates the next K = _SYMBOL_BLOCK_ELEMENTS // n times
of an n-frequency grid in one call, and each row keeps the bits of a
one-time evaluation; :func:`symbol_matrix` is the one-time case.  The
values V1 and V2 need only Lambda_(-nu) and Lambda_(+nu), which share one
Hankel P/Q pair; the derivatives add Lambda_(1-nu) and Lambda_(1+nu).
Callers that read the values only (snapshots, step midpoints) pass
``derivatives=False`` and get (V1, V2) from the two orders.  The kernel's
per-order constants (series coefficients, Hankel a_k, scaled cos/sin of the
phase pi/4 + nu pi/2) are computed once per order tuple and cached.  The
Wronskian V1 V2' - V1' V2 is identically 1 (no first-order term in the mode
ODE), which the stepper relies on, and is met to about 2e-11 in floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, InstabilityError, ParameterError
from .geometry import phi, phi_inverse

__all__ = [
    "Z_SWITCH",
    "W_SWITCH",
    "ModeState",
    "kummer_M",
    "asymptotic_components",
    "v1_symbol",
    "v2_symbol",
    "symbol_matrix",
    "symbol_stream",
    "evolve_mode",
    "evolve_mode_many",
    "amplitude_envelope_bound",
    "fit_upper_envelope_slope",
]

# Kummer series/asymptotics handover in |z| = 2 phi(t) lambda, with the
# overlap band [25, 40] validated in the tests.  At 30 the stabilized
# series loses ~ e^(|z|/2) * eps ~ 1e-9 to cancellation.
Z_SWITCH = 30.0
# Series/Hankel handover in w, where the two truncation errors cross
# (both about 1e-12 against mpmath); overlap-validated on w in [12.5, 16].
# The series error grows like eps e^w, the Hankel error falls like e^(-2w).
W_SWITCH = 12.25
# Fixed truncations, the same for every element: the 30-term series is exact
# to rounding up to w = 16 (40 terms gain nothing below the switch); the
# Hankel expansion keeps a_0 .. a_23.
_SERIES_TERMS = 30
_HANKEL_TERMS = 12
# Elements per kernel call of symbol_stream: K = this // lam.size times at once.
# Chosen by measurement against peak RSS and the strichartz pass (ROADMAP): 16384
# grew march peak RSS by 1.3 MB and read 1.14x on strichartz, whose pipeline it feeds in bursts.
_SYMBOL_BLOCK_ELEMENTS = 8192
_START_SERIES_TERMS = 80  # power-series terms of the ODE route's start at small t
_ENVELOPE_BINS = 24  # log bins of fit_upper_envelope_slope


@dataclass(frozen=True)
class ModeState:
    """State (v, v') of one frequency mode at time t."""

    v: float
    v_dot: float
    t: float
    lam: float


def _rgamma(x: float) -> float:
    """Reciprocal gamma, zero at the poles (nonpositive integers)."""
    if x <= 0 and x == round(x):
        return 0.0
    return 1.0 / math.gamma(x)


# ---------------------------------------------------------------------------
# Bessel route
# ---------------------------------------------------------------------------


def _horner(coef, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_k coef[k] x^k by Horner's rule with scalar coefficients, every term for every element,
    into ``out`` when given."""
    s = np.multiply(x, coef[-1], out=out)
    for c in coef[-2:0:-1]:
        s += c
        s *= x
    s += coef[0]
    return s


@functools.lru_cache(maxsize=64)
def _series_constants(nus: tuple) -> tuple:
    """Horner coefficients 1 / (k! (nu + 1)_k) of :func:`_hyp0f1_series`, a tuple of floats per order."""
    nu = np.asarray(nus, dtype=float)[:, None]
    k = np.arange(1.0, _SERIES_TERMS)
    coef = np.cumprod(1.0 / (k * (nu + k)), axis=1)
    return tuple((1.0, *row) for row in coef.tolist())


def _hyp0f1_series(nus, w: np.ndarray) -> np.ndarray:
    """Lambda_nu(w) = 0F1(; nu + 1; -w^2/4) for each order in ``nus`` (rows) by its Maclaurin series.

    Lambda_nu(w) = sum_k x^k / (k! (nu + 1)_k), x = -w^2/4 (DLMF 10.2.2 without its
    (w/2)^nu / Gamma(nu + 1)), over ``_SERIES_TERMS`` terms: one Horner pass per order
    with float coefficients, written into its row.
    """
    x = -0.25 * w * w
    out = np.empty((len(nus), w.size))
    for row, coef in zip(out, _series_constants(nus)):
        _horner(coef, x, row)
    return out


@functools.lru_cache(maxsize=64)
def _hankel_constants(nus: tuple) -> tuple:
    """(4 nu^2, P and Q Horner coefficients, c cos(phase), c sin(phase), -nu - 1/2) per order
    of :func:`_hyp0f1_hankel`, with c = Gamma(nu + 1) 2^nu sqrt(2/pi) and phase = pi/4 + nu pi/2."""
    j = np.arange(1.0, 2 * _HANKEL_TERMS)
    out = []
    for nu in nus:
        mu = 4.0 * nu * nu
        a = np.cumprod([1.0, *((mu - (2.0 * j - 1.0) ** 2) / (8.0 * j))])
        a[2::4] *= -1.0
        a[3::4] *= -1.0
        p, q = tuple(a[0::2].tolist()), tuple(a[1::2].tolist())
        c, phase = math.gamma(nu + 1.0) * 2.0**nu * math.sqrt(2.0 / math.pi), 0.25 * math.pi + 0.5 * math.pi * nu
        out.append((mu, p, q, c * math.cos(phase), c * math.sin(phase), -nu - 0.5))
    return tuple(out)


def _hyp0f1_hankel(nus, w: np.ndarray) -> np.ndarray:
    """Lambda_nu(w) = Gamma(nu + 1) (w/2)^(-nu) J_nu(w) for each order in ``nus`` (rows)
    by Hankel's expansion of J_nu (DLMF 10.17.3).

    J_nu(w) = sqrt(2/(pi w)) (cos(w - phase) P - sin(w - phase) Q),  phase = pi/4 + nu pi/2,
    with P = sum_k (-1)^k a_2k / w^2k and
    Q = sum_k (-1)^k a_(2k+1) / w^(2k+1), a_k = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (8j),
    each by Horner in 1/w^2 over ``_HANKEL_TERMS`` terms.  Expanding w - phase gives
    Lambda_nu = c w^(-nu-1/2) (cos(phase) A + sin(phase) B) with
    c = Gamma(nu + 1) 2^nu sqrt(2/pi), A = cos(w) P - sin(w) Q and
    B = sin(w) P + cos(w) Q, so one cos/sin of w serves every order, and
    orders +-nu (same 4 nu^2, same P and Q) share A and B.  The phase never
    meets w in floating point: a rounded w - pi/4 is off by up to ulp(w)/2,
    1e-12 at w = 1e4 and the whole amplitude at w = 1e16.
    """
    y = 1.0 / (w * w)
    cos_w, sin_w = np.cos(w), np.sin(w)
    rotated = {}
    out = np.empty((len(nus), w.size))
    for row, (mu, p_coef, q_coef, c_cos, c_sin, power) in zip(out, _hankel_constants(nus)):
        if mu not in rotated:
            p, q = _horner(p_coef, y), _horner(q_coef, y) / w
            rotated[mu] = p * cos_w - q * sin_w, p * sin_w + q * cos_w
        a_rot, b_rot = rotated[mu]
        np.multiply(a_rot, c_cos, out=row)
        row += c_sin * b_rot
        row *= w**power
    return out


def _hyp0f1_kernel(nus: tuple, rows: np.ndarray) -> np.ndarray:
    """Lambda_nu(w) = 0F1(; nu + 1; -w^2/4) = Gamma(nu + 1) (w/2)^(-nu) J_nu(w) for every
    order in ``nus`` and every element of ``rows``: shape (len(nus),) + rows.shape.

    ``rows`` is 2-D and each row ascends from w >= 0 (a NaN may trail it),
    as :func:`symbol_stream` guarantees; the kernel does not check it.  Each
    row splits at ``W_SWITCH`` by slices: one Maclaurin series call on the
    prefixes, one Hankel call on the suffixes, each with a fixed truncation,
    so an element's value depends on its own w only.  Constants are cached
    per order tuple.  Only the symbols' orders (nu in (-1/2, 0) and (0, 3/2))
    are exercised in anger; this is not a general-purpose 0F1.
    Lambda_nu(0) = 1: the series takes w = 0 like any other element.
    """
    split = np.count_nonzero(rows <= W_SWITCH, axis=1).tolist()
    series = _kernel_part(_hyp0f1_series, nus, [row[:k] for row, k in zip(rows, split)])
    hankel = _kernel_part(_hyp0f1_hankel, nus, [row[k:] for row, k in zip(rows, split)])
    pieces, i, j, n = [], 0, 0, rows.shape[1]
    for k in split:
        pieces += series[:, i : i + k], hankel[:, j : j + n - k]
        i, j = i + k, j + n - k
    return np.concatenate(pieces, axis=1).reshape((len(nus),) + rows.shape)


def _kernel_part(branch, nus: tuple, pieces: list) -> np.ndarray:
    """``branch`` on the concatenated ``pieces``: shape (len(nus), their total size), no call when empty."""
    w = np.concatenate(pieces)
    return branch(nus, w) if w.size else np.empty((len(nus), 0))


# ---------------------------------------------------------------------------
# Kummer route
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _even_denominators(a: float) -> tuple:
    """(c + k)(k + 1) for k < 200, c = a + 1/2: the even series' term ratios without x, formed once per a.

    The series stops within 45 terms up to |z| = 40; kummer_M sends it |z| <= Z_SWITCH only.
    """
    c = a + 0.5
    return tuple((c + k) * (k + 1.0) for k in range(200))


def _kummer_confluent_even(a: float, z: complex) -> complex:
    # Kummer's second transformation for b = 2a (DLMF 13.6.9):
    #   M(a, 2a; z) = e^(z/2) * sum_k (z^2/16)^k / ((a + 1/2)_k k!).
    # On the imaginary axis the summand is real, x = -(Im z)^2 / 16, so the sum
    # runs in real arithmetic (the bits of the same sum in complex arithmetic,
    # whose imaginary parts stay zero) and its cancellation grows only like
    # e^(|z|/2) instead of e^|z| for the raw Maclaurin series.
    x = -(z.imag * z.imag) / 16.0
    s = term = 1.0
    for d in _even_denominators(a):
        term *= x / d
        s += term
        if abs(term) <= 1e-17 * abs(s):
            break
    return np.exp(z / 2.0) * complex(s, 0.0)


@functools.lru_cache(maxsize=None)
def _asym_factors(c1: float, c2: float) -> tuple:
    """(c1 + k, c2 + k, k + 1) for k < 60: the asymptotic sum's term factors, formed once per (c1, c2)."""
    return tuple((c1 + k, c2 + k, k + 1.0) for k in range(60))


def _asym_sum(c1: float, c2: float, z: complex) -> tuple[complex, float]:
    """Asymptotic sum 1 + sum_k (c1)_k (c2)_k / (k! z^k), truncated at the
    smallest term; returns (value, size of first neglected term)."""
    s, term, size = 1.0 + 0.0j, 1.0 + 0.0j, 1.0  # size is abs(term), taken once per step
    for p1, p2, k1 in _asym_factors(c1, c2):
        term_next = term * p1 * p2 / (k1 * z)
        size_next = abs(term_next)
        if size_next >= size:
            return s, size_next
        term, size = term_next, size_next
        s += term
        if size <= 1e-18:
            break
    return s, size


def asymptotic_components(a: float, b: float, z: complex, rtol: float = 1e-7):
    """Two exponential components (A_plus, A_minus) of M(a, b; z) for large |z|:

        M(a, b; z) = e^z A_plus(z) + A_minus(z),

    with |A_plus| ~ |z|^(a-b) and |A_minus| ~ |z|^(-a) up to constants; these
    are the algebraic envelopes of the oscillatory split of the symbols.
    Served for the symbols' family only, b = 2a with z on the closed upper
    imaginary axis: there both sums share (c1, c2) = (a, 1 - a) and
    -z = conj(z), so the minus sum is the conjugate of the plus sum.
    """
    if b != 2.0 * a or z.real != 0.0 or z.imag < 0.0:
        raise ParameterError(f"b = 2a and z on the closed upper imaginary axis required, got a={a}, b={b}, z={z}")
    s_plus, err_p = _asym_sum(b - a, 1.0 - a, z)
    s_minus, err_m = s_plus.conjugate(), err_p
    pre_plus = math.gamma(b) * _rgamma(a) * z ** (a - b)
    pre_minus = math.gamma(b) * _rgamma(b - a) * (-z) ** (-a)
    a_plus, a_minus = pre_plus * s_plus, pre_minus * s_minus
    scale = max(abs(a_plus), abs(a_minus), 1e-300)
    err = err_p * abs(pre_plus) + err_m * abs(pre_minus)  # each sum's error is relative to its own 1
    if err > rtol * scale * 10.0:
        raise AccuracyError(
            f"asymptotic expansion stagnates at relative {err / scale:.2e} "
            f"for |z| = {abs(z):.3f}; requested rtol = {rtol:.2e}"
        )
    return a_plus, a_minus


def kummer_M(a: float, z: complex, rtol: float = 1e-7) -> complex:
    """Confluent hypergeometric M(a, 2a; z) for z on the closed upper imaginary axis.

    Both symbols have b = 2a, and this is the only family served: the
    cancellation-stabilized even series below |z| = Z_SWITCH, and the
    two-component exponential asymptotics :func:`asymptotic_components`
    above.  The achieved accuracy is tracked; if it cannot meet ``rtol`` an
    AccuracyError is raised rather than returning a silently degraded value.
    A z off the axis raises ParameterError: both branches sum in the axis's
    symmetries (a real even series, a conjugate minus sum).
    """
    b = 2.0 * a
    if b <= 0 and b == round(b):
        raise ParameterError(f"2a must not be a nonpositive integer, got a={a}")
    z = complex(z)
    if z.real != 0.0 or z.imag < 0.0:
        raise ParameterError(f"z must lie on the closed upper imaginary axis, got {z}")
    if z.imag <= Z_SWITCH:  # = abs(z) on the axis
        return _kummer_confluent_even(a, z)
    a_plus, a_minus = asymptotic_components(a, b, z, rtol)
    return np.exp(z) * a_plus + a_minus


# ---------------------------------------------------------------------------
# The symbols
# ---------------------------------------------------------------------------


def _symbol_arg(m: int, t: float, lam: float, route: str) -> float:
    """The argument w = phi(t) lambda of V1 and V2, after the checks they share."""
    if t < 0 or lam < 0:
        raise ParameterError("t >= 0 and lambda >= 0 required")
    if m < 1:
        raise ParameterError("symbol evaluation requires m >= 1")
    if route not in ("kummer", "bessel"):
        raise ParameterError(f"unknown route {route!r}")
    return phi(m, t) * lam


def v1_symbol(m: int, t: float, lam: float, route: str = "kummer") -> complex:
    """V1(t, lambda): the data-to-solution symbol, V1(0, .) = 1.

    ``route`` selects the evaluation path: "kummer" (complex confluent
    hypergeometric) or "bessel" (one row of the solvers' :func:`symbol_matrix`).
    Both agree to roughly 1e-7 relative; the ODE route is :func:`evolve_mode`.
    """
    w = _symbol_arg(m, t, lam, route)
    if route == "kummer":
        z = 2j * w
        return np.exp(-z / 2.0) * kummer_M(m / (2.0 * (m + 2.0)), z)
    v1, _ = symbol_matrix(m, t, np.array([lam], dtype=float), derivatives=False)
    return complex(v1[0])


def v2_symbol(m: int, t: float, lam: float, route: str = "kummer") -> complex:
    """V2(t, lambda): the velocity-to-solution symbol, d/dt V2(0, .) = 1."""
    w = _symbol_arg(m, t, lam, route)
    if route == "kummer":
        z = 2j * w
        return t * np.exp(-z / 2.0) * kummer_M((m + 4.0) / (2.0 * (m + 2.0)), z)
    _, v2 = symbol_matrix(m, t, np.array([lam], dtype=float), derivatives=False)
    return complex(v2[0])


def symbol_stream(m: int, times, lam: np.ndarray, *, derivatives: bool = True):
    """An iterator of (V1, V2, V1', V2') at each of ``times`` in order, for an array of frequencies.

    Four real arrays per time, Bessel route: the mode's fundamental matrix,
    whose unit Wronskian the solvers' frame coordinates rely on.  The values
    V1 = Lambda_(-nu) and V2 = t Lambda_nu need the orders -nu and nu only;
    the derivatives add 1-nu and 1+nu through
    d/dw Lambda_nu = -(w/2) / (nu + 1) Lambda_(nu+1) with dw/dt = t^(m/2) lambda:
    V1' = -(w/2) / (1 - nu) Lambda_(1-nu) t^(m/2) lambda and
    V2' = Lambda_nu - w^2 / (4 nu (1 + nu)) Lambda_(1+nu).  With
    ``derivatives=False`` only (V1, V2) are yielded, from those two orders,
    bit-identical to the first two arrays of the full evaluation; that is
    the solvers' hot path, since every snapshot and every march step reads
    values only.

    ``lam`` must be 1-D and >= 0 (ParameterError), checked once per stream.
    A sorted ``lam`` (every solver's grid) goes straight to the kernel, which
    takes ascending rows only; any other (a NaN counts as unsorted) is sorted
    once, and each yielded array is put back in the caller's order.

    The kernel's cost per call is mostly fixed, so the next
    K = _SYMBOL_BLOCK_ELEMENTS // lam.size times go through one kernel call
    on a (K, lam.size) array.  Every element depends on its own w only, and
    the per-time scalars (phi(t), t, t^(m/2)) are formed per time as Python
    floats, so each yielded row has the bits of a
    one-time call.  ``times`` may be any iterable; it is read K at a time.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or (lam < 0).any():
        raise ParameterError(f"lambda must be a 1-D array with every entry >= 0, got shape {lam.shape}")
    if (lam[1:] >= lam[:-1]).all():
        return _ascending_stream(m, times, lam, derivatives)
    order = np.argsort(lam)
    back = np.argsort(order)
    return (tuple(a[back] for a in row) for row in _ascending_stream(m, times, lam[order], derivatives))


def _ascending_stream(m: int, times, lam: np.ndarray, derivatives: bool):
    """The rows of :func:`symbol_stream` for an ascending ``lam``, K times per kernel call."""
    block = max(1, _SYMBOL_BLOCK_ELEMENTS // max(lam.size, 1))
    times = iter(times)
    while ts := [float(t) for t in itertools.islice(times, block)]:
        yield from zip(*_symbol_block(m, ts, lam, derivatives))


def _symbol_block(m: int, ts: list, lam: np.ndarray, derivatives: bool) -> tuple:
    """The symbols of :func:`symbol_stream` at the times ``ts``, one row per time, in one kernel call.

    A function of its own, so that the stream holds none of its temporaries
    while the caller works on the rows.
    """
    nu = 1.0 / (m + 2.0)
    w = np.stack([phi(m, t) * lam for t in ts])
    orders = (-nu, nu, 1.0 - nu, 1.0 + nu) if derivatives else (-nu, nu)
    hyp = _hyp0f1_kernel(orders, w)
    out = (hyp[0], np.array(ts)[:, None] * hyp[1])
    if derivatives:
        dw = np.array([t ** (m / 2.0) for t in ts])[:, None] * lam
        out += (-0.5 / (1.0 - nu) * w * hyp[2] * dw, hyp[1] - w * w / (4.0 * nu * (1.0 + nu)) * hyp[3])
    return out


def symbol_matrix(m: int, t: float, lam: np.ndarray, *, derivatives: bool = True):
    """(V1, V2, V1', V2') at one time t: the one-row case of :func:`symbol_stream`."""
    return next(symbol_stream(m, (t,), lam, derivatives=derivatives))


def amplitude_envelope_bound(m: int, t, lam):
    """(1 + phi(t) lambda)^(-m/(2(m+2))): the proved amplitude envelope of V1."""
    w = np.asarray(phi(m, t)) * np.asarray(lam)
    return (1.0 + w) ** (-m / (2.0 * (m + 2.0)))


# ---------------------------------------------------------------------------
# ODE route
# ---------------------------------------------------------------------------


def _series_start(m: int, lam: float, t0: float, init):
    """Exact power-series state at small t0: a_{k+2} = -lam^2 a_{k-m} / ((k+2)(k+1))."""
    a = np.zeros(_START_SERIES_TERMS)
    a[0], a[1] = init
    lam2 = lam * lam
    for k in range(_START_SERIES_TERMS - 2):
        j = k - m
        if j >= 0:
            a[k + 2] = -lam2 * a[j] / ((k + 2.0) * (k + 1.0))
    powers = t0 ** np.arange(_START_SERIES_TERMS)
    v = float(np.sum(a * powers))
    v_dot = float(np.sum(np.arange(1, _START_SERIES_TERMS) * a[1:] * powers[: _START_SERIES_TERMS - 1]))
    return v, v_dot


def evolve_mode(
    m: int,
    lam: float,
    t_target: float,
    init: tuple[float, float],
    rtol: float = 1e-10,
) -> ModeState:
    """Integrate v'' + t^m lambda^2 v = 0 from (v, v')(0) = init up to t_target.

    Near t = 0 the exact power series is used (the coefficient recursion
    terminates the degenerate-coefficient trouble before it starts); once the
    phase phi(t) lambda leaves the comfortably convergent range, adaptive
    high-order explicit integration (DOP853) takes over at local relative
    tolerance ``rtol``.
    """
    if not (np.isfinite(t_target) and np.isfinite(lam) and all(np.isfinite(init))):
        raise ParameterError("non-finite input to evolve_mode")
    if t_target < 0 or lam < 0:
        raise ParameterError("t_target >= 0 and lambda >= 0 required")
    states = evolve_mode_many(m, lam, np.array([t_target]), init, rtol=rtol)
    return states[-1]


def evolve_mode_many(
    m: int,
    lam: float,
    t_targets: np.ndarray,
    init: tuple[float, float],
    rtol: float = 1e-10,
) -> list[ModeState]:
    """Same as :func:`evolve_mode` but produces states at every requested time
    in one integration pass (t_targets must be increasing)."""
    t_targets = np.asarray(t_targets, dtype=float)
    if np.any(np.diff(t_targets) <= 0):
        raise ParameterError("t_targets must be strictly increasing")
    if t_targets[0] < 0:
        raise ParameterError("t >= 0 required")
    if lam == 0.0:
        return [
            ModeState(v=init[0] + init[1] * t, v_dot=init[1], t=float(t), lam=lam)
            for t in t_targets
        ]
    # series is reliable while phi(t) lam stays small
    t_series = min(float(phi_inverse(m, 0.5 / lam)), 1.0)
    out: list[ModeState] = []
    serial = t_targets[t_targets <= t_series]
    for t in serial:
        v, vd = _series_start(m, lam, float(t), init)
        out.append(ModeState(v=v, v_dot=vd, t=float(t), lam=lam))
    rest = t_targets[t_targets > t_series]
    if rest.size:
        from scipy.integrate import solve_ivp  # imported here: no CLI scenario takes the ODE route

        v0, vd0 = _series_start(m, lam, t_series, init)

        def rhs(t, y):
            return (y[1], -(t**m) * lam * lam * y[0])

        sol = solve_ivp(
            rhs,
            (t_series, float(rest[-1])),
            (v0, vd0),
            method="DOP853",
            rtol=rtol,
            atol=1e-14,
            t_eval=rest,
            dense_output=False,
        )
        if not sol.success:
            raise InstabilityError(f"mode integration failed: {sol.message}")
        for t, v, vd in zip(sol.t, sol.y[0], sol.y[1]):
            out.append(ModeState(v=float(v), v_dot=float(vd), t=float(t), lam=lam))
    return out


# ---------------------------------------------------------------------------
# Envelope fitting
# ---------------------------------------------------------------------------


def fit_upper_envelope_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Log-log slope of the upper envelope of y against x (x > 0, y > 0).

    Bins x logarithmically, takes the max of y per bin, and least-squares
    fits log(max) against log(bin center).  Used for the oscillatory symbol
    moduli, whose pointwise values dip to zero but whose envelope carries
    the decay rate.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0)
    x, y = x[keep], y[keep]
    edges = np.geomspace(x.min(), x.max() * (1 + 1e-12), _ENVELOPE_BINS + 1)
    idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, _ENVELOPE_BINS - 1)
    log_c = np.full(_ENVELOPE_BINS, np.nan)
    log_m = np.full(_ENVELOPE_BINS, np.nan)
    for b in range(_ENVELOPE_BINS):
        sel = idx == b
        if np.any(sel):
            log_c[b] = 0.5 * (np.log(edges[b]) + np.log(edges[b + 1]))
            log_m[b] = np.log(y[sel].max())
    ok = np.isfinite(log_c) & np.isfinite(log_m)
    if ok.sum() < 4:
        raise ParameterError("too few populated bins for an envelope fit")
    slope, _ = np.polyfit(log_c[ok], log_m[ok], 1)
    return float(slope)
