"""Degenerate phase, characteristic weight, and cusp-cone geometry checks.

The phase phi(t) = (2/(m+2)) t^((m+2)/2) is the distance traveled by
characteristics from time 0 to t; the forward "cusp cone" {|x| < phi(t)}
replaces the light cone of the classical wave equation.  The weighted
space-time estimates all use the characteristic weight

    (phi(t) + M)^2 - |x|^2,

positive on the support region |x| <= phi(t) + M - 1 of solutions with data
in B(0, M-1).

The verification routines sample, over log-spaced desk-scale grids, the two
geometric inequalities that let a shifted cone's own weight phi(t)^2 -
|x - nu|^2 be compared with the centered characteristic weight:

* unshifted:  phi(t)^2 >= (1-delta)|x|^2 + delta (phi(t)+M)^2  on the cone
  {t >= T0/2, |x| <= phi(t) - phi(T0/4)} for small delta > 0;
* shifted:    two-sided ratio bounds 0 < c <= (phi^2 - |x-nu|^2) /
  ((phi+M)^2 - |x|^2) <= C on the shifted cone, up to the maximal shift
  |nu| = M - 1 + phi(3 T0/8).

Sampling in place of symbolic proof is deliberate: both sides grow like
phi(t)^2, so large t is the easy regime and a log grid up to t = 10^3
exercises the binding small-t corner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, EmptyIntervalError, ParameterError, WindowError

__all__ = [
    "WeightSpec",
    "ConeCheck",
    "ShiftedConeBounds",
    "phi",
    "phi_inverse",
    "characteristic_weight",
    "finite_speed_radius",
    "max_shift",
    "verify_unshifted_cone_inequality",
    "bisect_max_delta",
    "verify_shifted_cone_bounds",
]

T_HI = 1.0e3  # upper end of every cone's log-spaced t samples
UNSHIFTED_N_T, UNSHIFTED_N_R = 200, 50


@dataclass(frozen=True)
class WeightSpec:
    """Characteristic-weight norm spec: weight power gamma, exponent q, radius M."""

    gamma: float
    q: float
    M: float

    def __post_init__(self):
        if self.gamma < 0:
            raise ParameterError(f"gamma >= 0 required, got {self.gamma}")
        if not self.q > 1:
            raise ParameterError(f"q > 1 required, got {self.q}")
        if not self.M > 1:
            raise ParameterError(f"M > 1 required, got {self.M}")


def phi(m: int, t):
    """Degenerate phase (2/(m+2)) t^((m+2)/2); vectorized in t."""
    t = np.asarray(t, dtype=float)  # a scalar stays a 0-d array, so its power takes numpy's array loop
    if (t < 0).any() if t.ndim else float(t) < 0:  # a float comparison skips numpy's reduction
        raise ParameterError("t >= 0 required")
    out = 2.0 / (m + 2.0) * t ** ((m + 2.0) / 2.0)
    return out if out.ndim else float(out)


def phi_inverse(m: int, s):
    """Inverse phase ((m+2) s / 2)^(2/(m+2)); round-trips with phi."""
    s = np.asarray(s, dtype=float)
    if (s < 0).any() if s.ndim else float(s) < 0:
        raise ParameterError("s >= 0 required")
    out = ((m + 2.0) * s / 2.0) ** (2.0 / (m + 2.0))
    return out if out.ndim else float(out)


def characteristic_weight(m: int, M: float, t, r):
    """(phi(t) + M)^2 - r^2, unclamped.

    Callers that integrate only over r <= phi(t) + M - 1 never see negative
    values; anyone else decides about clamping themselves.
    """
    r = np.asarray(r, dtype=float)
    out = (phi(m, t) + M) ** 2 - r * r
    return out if out.ndim else float(out)


def finite_speed_radius(m: int, M: float, t) -> float:
    """Maximal support radius phi(t) + M - 1 of solutions with data in B(0, M-1)."""
    return phi(m, t) + M - 1.0


def max_shift(m: int, M: float, T0: float) -> float:
    """Largest cone shift M - 1 + phi(3 T0 / 8) used by the covering argument."""
    return M - 1.0 + phi(m, 3.0 * T0 / 8.0)


def _cone_samples(m, T0, t_lo, n_t, n_r, rng=None):
    """Log-spaced t samples on [t_lo, T_HI] and per-t radial fractions on {r <= phi(t) - phi(T0/4)}."""
    ts = np.geomspace(max(t_lo, 1e-12), T_HI, n_t)
    r_top = np.maximum(phi(m, ts) - phi(m, T0 / 4.0), 0.0)
    if rng is None:
        frac = np.linspace(0.0, 1.0, n_r)
        rr = np.outer(r_top, frac)
    else:
        rr = r_top[:, None] * rng.random((ts.size, n_r))
    return ts, rr


def _unshifted_cone(m, M, T0, n_t, n_r):
    """phi(t) (as a column) and r samples on the unshifted cone, after checking T0 and M."""
    if not (0.0 < T0 < 1.0):
        raise ParameterError(f"T0 in (0, 1) required, got {T0}")
    if not M > 1.0:
        raise ParameterError(f"M > 1 required, got {M}")
    ts, rr = _cone_samples(m, T0, T0 / 4.0, n_t, n_r)
    return phi(m, ts)[:, None], rr


@dataclass(frozen=True)
class ConeCheck:
    holds: bool
    worst_margin: float


def verify_unshifted_cone_inequality(
    m: int,
    M: float,
    T0: float,
    delta: float,
    n_t: int = UNSHIFTED_N_T,
    n_r: int = UNSHIFTED_N_R,
) -> ConeCheck:
    """Sample phi(t)^2 - (1-delta)r^2 - delta(phi(t)+M)^2 >= 0 over the cone.

    Samples t log-spaced on [T0/4, T_HI] and r on [0, phi(t) - phi(T0/4)].
    Returns whether the inequality held everywhere and the minimum slack.
    ``holds`` is decided in the affine form delta <= min (phi^2 - r^2) /
    ((phi+M)^2 - r^2), the expression :func:`bisect_max_delta` returns, so it
    holds at exactly that delta even where rounding leaves the slack at -1e-19.
    """
    if not (0.0 <= delta < 1.0):
        raise ParameterError(f"delta in [0, 1) required, got {delta}")
    ph, rr = _unshifted_cone(m, M, T0, n_t, n_r)
    slack = ph**2 - (1.0 - delta) * rr**2 - delta * (ph + M) ** 2
    return ConeCheck(holds=delta <= _max_delta(ph, rr, M), worst_margin=float(slack.min()))


def bisect_max_delta(m: int, M: float, T0: float) -> float:
    """Largest delta for which the sampled unshifted cone inequality holds.

    The inequality is affine in delta: phi^2 - r^2 >= delta ((phi+M)^2 - r^2),
    with a positive bracket on the cone.  So the largest delta is the sampled
    minimum of (phi^2 - r^2) / ((phi+M)^2 - r^2), on the samples of
    :func:`verify_unshifted_cone_inequality`; no search is needed.  At exactly
    this delta that check holds, while its slack is zero up to rounding
    (about 1e-16 of (phi+M)^2), so its margin may read like -1e-19.
    """
    ph, rr = _unshifted_cone(m, M, T0, UNSHIFTED_N_T, UNSHIFTED_N_R)
    return _max_delta(ph, rr, M)


def _max_delta(ph, rr, M: float) -> float:
    """Sampled minimum of (phi^2 - r^2) / ((phi+M)^2 - r^2): the largest delta that holds.  The ratio is
    positive on the cone, so a sample that is not positive and finite is an AccuracyError: where (phi+M)^2
    rounds to phi^2 (m >= 10 at T_HI) it reads 0/0, and where (phi+M)^2 overflows (M > 1e154) it reads 0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = (ph**2 - rr**2) / ((ph + M) ** 2 - rr**2)
    delta = float(ratio.min())
    if not (np.isfinite(ratio).all() and delta > 0.0):
        raise AccuracyError(f"the sampled ratio (phi^2 - r^2) / ((phi+M)^2 - r^2) is not positive and finite: at "
                            f"phi(T_HI={T_HI:g}) = {float(ph.max()):.3g}, (phi+M)^2 - r^2 loses M={M} to rounding")
    return delta


@dataclass(frozen=True)
class ShiftedConeBounds:
    """Empirical two-sided bounds on (phi^2 - |x-nu|^2) / ((phi+M)^2 - |x|^2)."""

    c_lower: float
    C_upper: float


def verify_shifted_cone_bounds(
    m: int,
    M: float,
    T0: float,
    nu: float,
    n_t: int = 120,
    n_r: int = 40,
    n_angle: int = 12,
    rng: np.random.Generator | None = None,
) -> ShiftedConeBounds:
    """Sample the shifted-cone/centered-weight ratio over the shifted cone.

    Points are x = nu e1 + rho omega with rho <= phi(t) - phi(T0/4) and omega
    over the fan linspace(0, pi, n_angle); an ``rng`` draws each t's radial
    fractions at random instead of evenly spaced.  Only the fan's end angles
    are evaluated, with the whole fan's bits: the numerator phi^2 - rho^2 has
    no angle, and |x|^2 = nu^2 + rho^2 + (2 nu rho) cos(theta), 2 nu rho >= 0,
    rounds non-decreasing in cos(theta), so the ratio's min is at theta = pi and
    its max and smallest denominator at theta = 0 (n_angle = 1: both ends are 0).
    Asserts nothing; returns the sampled min and max of the ratio.  A
    denominator (phi+M)^2 - |x|^2 that is not positive, or whose rounding bound
    eps ((phi+M)^2 + |x|^2) / ((phi+M)^2 - |x|^2) exceeds 1e-6 at some sample
    (M above about 4e9 at m = 1), is an AccuracyError.
    """
    if not (0.0 < T0 < 1.0):
        raise ParameterError(f"T0 in (0, 1) required, got {T0}")
    nu_max = max_shift(m, M, T0)
    if not (0.0 <= nu <= nu_max):
        raise WindowError("nu", f"nu out of range: need 0 <= nu <= {nu_max:.6f}, got {nu}")
    ts, rho = _cone_samples(m, T0, T0 / 2.0, n_t, n_r, rng=rng)
    ph = phi(m, ts)[:, None]
    # the fan's two end angles first, (2, n_t, n_r): the inner loops run over whole (t, r) planes
    cos_theta = np.cos(np.linspace(0.0, np.pi, n_angle)[[0, -1]])[:, None, None]
    x_sq = nu * nu + rho**2 + 2.0 * nu * rho * cos_theta
    apex = (ph + M) ** 2
    den = apex - x_sq
    if not (den > 0.0).all():  # |x| < phi + M - 1/3 for every nu in range: only rounding gets here
        raise AccuracyError(f"the sampled ratio (phi^2 - rho^2) / ((phi+M)^2 - |x|^2) has a denominator <= 0: at "
                            f"nu={nu:.6g}, (phi+M)^2 - |x|^2 loses M={M} to rounding")
    # each of (phi+M)^2 and |x|^2 is off by about eps of itself, which the difference magnifies
    magnified = apex + x_sq
    magnified /= den
    rounding = np.finfo(float).eps * float(magnified.max())
    if rounding > 1e-6:
        raise AccuracyError(f"the sampled ratio (phi^2 - rho^2) / ((phi+M)^2 - |x|^2) has a denominator off by up to "
                            f"{rounding:.1e} of itself: at nu={nu:.6g}, (phi+M)^2 - |x|^2 loses M={M} to rounding")
    ratio = (ph**2 - rho**2) / den
    c_lower = float(ratio.min())
    C_upper = float(ratio.max())
    if not (0.0 < c_lower <= C_upper < np.inf):
        raise EmptyIntervalError(
            f"shifted-cone bounds violate 0 < c_lower <= C_upper < inf: "
            f"c_lower={c_lower}, C_upper={C_upper}"
        )
    return ShiftedConeBounds(c_lower=c_lower, C_upper=C_upper)
