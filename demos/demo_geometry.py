"""Cusp-cone geometry: the inequalities behind the cone-covering argument.

The weighted estimates compare a shifted cone's own weight phi(t)^2-|x-nu|^2
against the centered characteristic weight (phi(t)+M)^2 - |x|^2.  The demo
finds the largest admissible delta in the unshifted comparison (a sampled
minimum in closed form) and samples the two-sided ratio bounds at the
extreme shift.
"""

import numpy as np

from tricomi_lab.geometry import (
    bisect_max_delta,
    characteristic_weight,
    max_shift,
    phi,
    verify_shifted_cone_bounds,
    verify_unshifted_cone_inequality,
)

m, M, T0 = 1, 2.0, 0.5
print(f"phase phi(t) = (2/(m+2)) t^((m+2)/2), m={m}:")
for t in (0.0, 0.5, 1.0, 4.0, 25.0):
    print(f"  t={t:5.1f}: phi={phi(m, t):9.3f}, weight at origin={characteristic_weight(m, M, t, 0.0):11.3f}")

print(f"\nunshifted cone inequality phi^2 >= (1-d)|x|^2 + d(phi+M)^2 on the cone:")
for delta in (1e-5, 1e-4, 5e-4, 0.01):
    chk = verify_unshifted_cone_inequality(m, M, T0, delta)
    print(f"  delta={delta:7.1e}: holds={chk.holds}  worst margin={chk.worst_margin:+.3e}")
d_max = bisect_max_delta(m, M, T0)
print(f"  maximal delta: {d_max:.6e}")

print("\nshifted-cone ratio (phi^2 - |x-nu|^2) / ((phi+M)^2 - |x|^2):")
nu_max = max_shift(m, M, T0)
for frac in (0.0, 0.5, 1.0):
    nu = frac * nu_max
    b = verify_shifted_cone_bounds(m, M, T0, nu)
    print(f"  nu = {nu:6.4f} ({frac:.0%} of max): c_lower={b.c_lower:.4e}, C_upper={b.C_upper:.4e}")
print("  (both bounds positive and finite: the covering argument's comparison)")

print("\nsmaller T0 thins the cone near its tip and shrinks the feasible delta:")
for T0_ in (0.5, 0.25, 0.1):
    print(f"  T0={T0_:4.2f}: delta_max = {bisect_max_delta(m, M, T0_):.3e}")
