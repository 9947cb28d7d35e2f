"""Weighted Strichartz estimates probed on a data family.

The homogeneous estimate bounds the characteristic-weight space-time norm of
the linear solution by fractional Sobolev norms of its data.  Constants are
not computable at desk scale; what the probe shows is that the LHS/RHS
ratios stay within a narrow band across an 8-member data family (the
constant is data independent) and that inflating gamma past its admissible
ceiling makes the truncated LHS grow with the time box instead of
saturating.
"""

import numpy as np

from tricomi_lab.exponents import ModelParams, q_bounds, strichartz_gamma_bound
from tricomi_lab.grids import RadialGrid
from tricomi_lab.profiles import bump
from tricomi_lab.strichartz import homogeneous_ratio, lhs_box_values, standard_family

params = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
q_min, q0 = q_bounds(1, 3)
q = 0.5 * (q_min + q0)
gamma = 0.5 * strichartz_gamma_bound(1, 3, q)
delta = 0.5 * (1.5 + 1.0 / 3.0 - gamma - 1.0 / q)
print(f"window midpoints: q = {q:.4f}, gamma = {gamma:.4f}, delta = {delta:.4f}")

grid = RadialGrid(680.0, 16384)
rows = homogeneous_ratio(params, standard_family(2.0, 1), q, gamma, delta, grid, t_max=100.0)
print(f"\n{'member':20s} {'LHS':>11s} {'RHS':>11s} {'ratio':>11s} {'tail':>7s}")
for r in rows:
    print(f"{r.member:20s} {r.lhs:11.4e} {r.rhs:11.4e} {r.ratio:11.4e} {r.tail_fraction:7.2%}")
ratios = [r.ratio for r in rows]
print(f"family spread max/min = {max(ratios) / min(ratios):.2f} (data-independent constant)")

print("\nnegative control: same LHS on growing boxes t <= 25 / 50 / 100")
bound = strichartz_gamma_bound(1, 3, q)
zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
for tag, g in (("gamma valid  ", gamma), ("gamma inflated", bound + 0.05)):
    vals = lhs_box_values(params, bump(0.5), zero, q, g, grid)
    vq = [v**q for v in vals]
    trend = "converging" if vq[2] - vq[1] < vq[1] - vq[0] else "DIVERGING"
    print(f"  {tag}: norms {vals[0]:.5f} / {vals[1]:.5f} / {vals[2]:.5f}  -> {trend}")
