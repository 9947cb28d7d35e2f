"""Closed-form exponent thresholds for u_tt - t^m Lap(u) = |u|^p.

Everything here is exact double-precision arithmetic on the algebraic
thresholds that organize the blowup / global-existence dichotomy:

* ``p_crit(m, n)``  -- positive root of
  ((m+2)n/2 - 1) p^2 + ((m+2)(1 - n/2) - 3) p - (m+2) = 0; below it small
  data generically blow up.
* ``p_conf(m, n)``  -- conformal power ((m+2)n + 6)/((m+2)n - 2); at and
  above it global existence of small data solutions was classically known.
* ``strauss_exponent(n)`` -- the m = 0 classical-wave threshold, positive
  root of (n-1) p^2 - (n+1) p - 2 = 0; ``p_crit(0, n)`` must reproduce it.
* ``gamma_interval`` -- the admissible window for the characteristic-weight
  power gamma attached to a given p in (p_crit, p_conf).
* ``q_bounds`` / ``strichartz_gamma_bound`` -- the integrability exponent
  window of the weighted space-time estimates and its gamma ceiling.
* ``yagdjian_ranges`` -- the older sufficient conditions for global
  existence and the older blowup range, used to chart the gap in p that
  the critical/conformal pair closes.

All functions are pure and cheap; they are called inside property sweeps,
so no caching is done.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptyIntervalError, ParameterError, WindowError

__all__ = [
    "ModelParams",
    "ExponentReport",
    "YagdjianReport",
    "p_crit",
    "p_conf",
    "strauss_exponent",
    "gamma_interval",
    "damped_wave_coeffs",
    "q_bounds",
    "strichartz_gamma_bound",
    "yagdjian_ranges",
    "exponent_report",
]


@dataclass(frozen=True)
class ModelParams:
    """One problem instance: u_tt - t^m Lap(u) = |u|^p with data scale eps.

    Attributes
    ----------
    m : degeneracy order of the operator (positive integer; 0 only in the
        classical-wave cross-checks).
    n : space dimension, n >= 3.
    p : nonlinearity power, p > 1.
    eps : amplitude of the initial data.
    M : support-radius parameter; data live in the ball of radius M - 1.
    """

    m: int
    n: int
    p: float
    eps: float = 1.0
    M: float = 2.0

    def __post_init__(self):
        if self.m < 1:
            raise ParameterError(f"m >= 1 required, got m={self.m}")
        _check_dimension(self.n)
        if not self.p > 1:
            raise ParameterError(f"p > 1 required, got p={self.p}")
        if not self.eps > 0:
            raise ParameterError(f"eps > 0 required, got eps={self.eps}")
        if not self.M > 1:
            raise ParameterError(f"M > 1 required, got M={self.M}")


def _check_dimension(n: int) -> None:
    if n < 3:
        raise ParameterError(f"space dimension n >= 3 required, got n={n}")


def _stable_positive_root(a: float, b: float, c: float) -> float:
    """Positive root of a p^2 + b p + c = 0 by the cancellation-free formula.

    Uses q = -(b + sign(b) sqrt(b^2 - 4ac))/2 and returns whichever of
    q/a, c/q is positive, so no subtraction of nearly equal quantities
    occurs for any sign pattern.
    """
    disc = b * b - 4.0 * a * c
    if disc < 0:
        raise ParameterError("quadratic has no real root")
    sq = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sq, b)) if b != 0 else 0.5 * sq
    roots = [r for r in (q / a, c / q if q != 0 else float("nan")) if r > 0]
    if not roots:
        raise ParameterError("quadratic has no positive root")
    return max(roots)


def p_crit(m: int, n: int) -> float:
    """Critical power: positive root of ((m+2)n/2 - 1)p^2 + ((m+2)(1-n/2) - 3)p - (m+2) = 0.

    ``m = 0`` is accepted and reproduces the Strauss exponent.
    """
    if m < 0:
        raise ParameterError(f"m >= 0 required, got m={m}")
    _check_dimension(n)
    k = m + 2.0
    return _stable_positive_root(k * n / 2.0 - 1.0, k * (1.0 - n / 2.0) - 3.0, -k)


def p_conf(m: int, n: int) -> float:
    """Conformal power ((m+2)n + 6) / ((m+2)n - 2)."""
    if m < 0:
        raise ParameterError(f"m >= 0 required, got m={m}")
    _check_dimension(n)
    kn = (m + 2.0) * n
    return (kn + 6.0) / (kn - 2.0)


def strauss_exponent(n: int) -> float:
    """Classical-wave critical power: positive root of (n-1)p^2 - (n+1)p - 2 = 0."""
    if n < 2:
        raise ParameterError(f"n >= 2 required, got n={n}")
    return _stable_positive_root(n - 1.0, -(n + 1.0), -2.0)


def gamma_window_formula(m: int, n: int, p: float) -> tuple[float, float]:
    """The raw window formula, defined for any p > 1:

    lo = 1/(p(p+1));
    hi = (((m+2)n - 2)p - ((m+2)n + 2)) / (2(m+2)(p+1)) + m / ((m+2)(p+1)).

    Its width is a positive multiple of the p_crit quadratic, so it vanishes
    exactly at p = p_crit and is positive for every larger p (which the
    tests exploit as a root-finding oracle).
    """
    k = m + 2.0
    lo = 1.0 / (p * (p + 1.0))
    hi = ((k * n - 2.0) * p - (k * n + 2.0)) / (2.0 * k * (p + 1.0)) + m / (k * (p + 1.0))
    return lo, hi


def gamma_interval(params: ModelParams) -> tuple[float, float]:
    """Admissible window (lo, hi) for the characteristic-weight power gamma.

    Requires p_crit < p < p_conf (the global-existence theorem's range); the
    window is then guaranteed nonempty.
    """
    m, n, p = params.m, params.n, params.p
    lo_p, hi_p = p_crit(m, n), p_conf(m, n)
    if not (lo_p < p < hi_p):
        raise ParameterError(
            f"exponent out of range: need p_crit={lo_p:.6f} < p < p_conf={hi_p:.6f}, got p={p}"
        )
    lo, hi = gamma_window_formula(m, n, p)
    if lo >= hi:
        # A theorem consequence says this cannot happen inside the valid range.
        raise EmptyIntervalError(
            f"empty interval: lo={lo} >= hi={hi} at (m={m}, n={n}, p={p})"
        )
    return lo, hi


def damped_wave_coeffs(m: int) -> tuple[float, float]:
    """Coefficients (mu, alpha) = (m/(m+2), 2m/(m+2)) of the equivalent damped wave form.

    For large t the degenerate equation behaves like a wave equation with
    scale-invariant damping mu/(1+t) and a source decay (1+t)^(-alpha).
    """
    if m < 0:
        raise ParameterError(f"m >= 0 required, got m={m}")
    return m / (m + 2.0), 2.0 * m / (m + 2.0)


def q_bounds(m: int, n: int) -> tuple[float, float]:
    """Window markers for the space-time integrability exponent q.

    Returns (q_min, q0) with q_min = 2((m+2)n - m)/((m+2)n - 2) (the strict
    lower bound of the weighted estimates) and q0 = 2((m+2)n + 2)/((m+2)n - 2)
    (the interpolation endpoint).  Always q0 > q_min, with q_min > 2 exactly
    for m < 2 (at m = 2 it equals 2, and it dips below for higher m).
    """
    if m < 0:
        raise ParameterError(f"m >= 0 required, got m={m}")
    _check_dimension(n)
    kn = (m + 2.0) * n
    q_min = 2.0 * (kn - m) / (kn - 2.0)
    q0 = 2.0 * (kn + 2.0) / (kn - 2.0)
    if not q0 > q_min:
        raise EmptyIntervalError(f"q-range empty: need q0 > q_min, got q0={q0}, q_min={q_min}")
    return q_min, q0


def strichartz_gamma_bound(m: int, n: int, q: float) -> float:
    """Upper bound ((m+2)n - 2)/(2(m+2)) - ((m+2)n - m)/((m+2)q) on gamma.

    Positive exactly when q exceeds the q_min of :func:`q_bounds`, a WindowError otherwise.
    """
    q_min, _ = q_bounds(m, n)
    if q <= q_min:
        raise WindowError("q", f"q window violated: q too small, need q > q_min={q_min:.6f}, got q={q}")
    k = m + 2.0
    return (k * n - 2.0) / (2.0 * k) - (k * n - m) / (k * q)


@dataclass(frozen=True)
class YagdjianReport:
    """Truth flags for the historical sufficient conditions at one (m, n, p).

    ``global_cond_1..3`` are the three inequalities of the older global
    existence theorem (evaluated independently); ``global_conditions_hold``
    is their conjunction.  ``blowup_range_holds`` is the older blowup range
    1 < p < ((m+2)n + 2)/((m+2)n - 2).
    """

    global_cond_1: bool
    global_cond_2: bool
    global_cond_3: bool
    global_conditions_hold: bool
    blowup_range_holds: bool


def yagdjian_ranges(params: ModelParams) -> YagdjianReport:
    """Evaluate the older global-existence conditions and blowup range at params.

    Between those two ranges and below p_conf there remain values of p for
    which neither result applies; the critical exponent analysis closes that
    gap.  This function only evaluates the inequalities, it does not
    characterize their feasible set.
    """
    m, n, p = params.m, params.n, params.p
    k = m + 2.0
    c1 = (n + 1.0) * (p - 1.0) / (p + 1.0) <= m / k
    c2 = (2.0 / (p - 1.0) - n * k / (2.0 * (p + 1.0))) * p <= 1.0
    c3 = (2.0 * (p + 1.0) / (p * (p - 1.0) * n * k) <= 1.0 / (p + 1.0)) and (
        1.0 / (p + 1.0) <= (m + 4.0) / ((n + 1.0) * (p - 1.0) * k)
    )
    blowup = 1.0 < p < (k * n + 2.0) / (k * n - 2.0)
    return YagdjianReport(c1, c2, c3, c1 and c2 and c3, blowup)


@dataclass(frozen=True)
class ExponentReport:
    """All closed-form thresholds for one (m, n), plus the damped-wave pair."""

    p_crit: float
    p_conf: float
    p_strauss: float
    q_min: float
    q0: float
    mu_m: float
    alpha_m: float

    def __post_init__(self):
        if not self.p_crit < self.p_conf:
            raise EmptyIntervalError(
                f"exponent window empty: need p_crit < p_conf, got "
                f"p_crit={self.p_crit}, p_conf={self.p_conf}"
            )
        if not self.q0 > self.q_min > 1.0:
            raise EmptyIntervalError(
                f"q-range empty: need q0 > q_min > 1, got q0={self.q0}, q_min={self.q_min}"
            )


def exponent_report(m: int, n: int) -> ExponentReport:
    """Bundle every closed-form threshold for one (m, n)."""
    q_min, q0 = q_bounds(m, n)
    mu, alpha = damped_wave_coeffs(m)
    return ExponentReport(
        p_crit=p_crit(m, n),
        p_conf=p_conf(m, n),
        p_strauss=strauss_exponent(n),
        q_min=q_min,
        q0=q0,
        mu_m=mu,
        alpha_m=alpha,
    )
