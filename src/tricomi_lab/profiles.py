"""Radial data profiles used by the solvers and the estimate probes.

All profiles are C-infinity and compactly supported inside r <= M - 1 (the
standing support assumption for initial data), except where a test
explicitly opts out.  Each factory returns a callable mapping an r-array to
samples.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

__all__ = [
    "smooth_ramp",
    "bump",
    "annular_bump",
    "gaussian_truncated",
    "two_bump",
    "dilate",
    "make_profile",
    "PROFILES",
]

# The profile names a config's data section may give (see make_profile).
PROFILES = ("bump", "gaussian-truncated", "two-bump")


def smooth_ramp(x):
    """C-inf 0->1 transition on [0, 1] built from exp(-1/x): 0 for x <= 0, 1 for x >= 1.

    Every smooth cutoff of the package is this one ramp: the switch chi of
    the nonlinearity, the plateau of ``gaussian_truncated`` and the dyadic
    plateau theta of the Littlewood-Paley partition.
    """
    x = np.asarray(x, dtype=float)
    a = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
    b = np.where(x < 1, np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return a / (a + b)


def bump(radius: float, amplitude: float = 1.0):
    """C-inf bump A exp(1 - 1/(1 - (r/R)^2)) on r < R, zero outside; peak A at r=0."""
    return annular_bump(0.0, radius, amplitude)


def annular_bump(center: float, width: float, amplitude: float = 1.0):
    """C-inf bump A exp(1 - 1/(1 - ((r - center)/width)^2)) on |r - center| < width, zero outside."""

    def f(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = np.abs(r - center) < width
        s2 = ((r[inside] - center) / width) ** 2
        out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s2))
        return out

    return f


def gaussian_truncated(sigma: float, radius: float, amplitude: float = 1.0):
    """Gaussian exp(-r^2 / (2 sigma^2)) times a C-inf cutoff vanishing at ``radius``.

    The cutoff equals 1 on r <= radius/2, so with sigma <~ radius/4 the
    profile is a Gaussian to rounding and still genuinely supported.
    """

    def f(r):
        r = np.asarray(r, dtype=float)
        cut = smooth_ramp((radius - r) / (radius / 2.0))
        return amplitude * np.exp(-(r * r) / (2.0 * sigma * sigma)) * cut

    return f


def two_bump(radius: float, amplitude: float = 1.0):
    """Central bump plus a 60% annular companion, both inside ``radius``."""
    b1 = bump(0.45 * radius, amplitude)
    b2 = annular_bump(0.65 * radius, 0.3 * radius, 0.6 * amplitude)

    def f(r):
        return b1(r) + b2(r)

    return f


def dilate(profile, sigma: float, m: int):
    """Parabolic-scaling dilate f(sigma^((m+2)/2) r); shrinks support for sigma > 1."""
    s = sigma ** ((m + 2.0) / 2.0)

    def f(r):
        return profile(np.asarray(r, dtype=float) * s)

    return f


def make_profile(name: str, M: float, amplitude: float = 1.0):
    """Profile factory for config files: bump | gaussian-truncated | two-bump."""
    R = M - 1.0
    if name == "bump":
        return bump(0.95 * R, amplitude)
    if name == "gaussian-truncated":
        return gaussian_truncated(0.22 * R, 0.95 * R, amplitude)
    if name == "two-bump":
        return two_bump(0.95 * R, amplitude)
    raise ParameterError(f"unknown data profile {name!r}; known: {', '.join(PROFILES)}")
