"""Linear evolution: finite propagation speed and the dispersive decay rate.

A compactly supported bump is evolved with the sine-spectral propagator; the
solution stays inside r <= phi(t) + M - 1 to rounding (degenerate finite
speed), and its sup norm decays like phi(t)^(-(n-1)/2 - m/(2(m+2))).
"""

import numpy as np

from tricomi_lab.exponents import ModelParams
from tricomi_lab.geometry import finite_speed_radius
from tricomi_lab.grids import RadialGrid
from tricomi_lab.linear import decay_slope, fd_oracle, solve_linear
from tricomi_lab.profiles import bump


def zero(r):
    return np.zeros_like(np.asarray(r, dtype=float))


params = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
grid = RadialGrid(320.0, 8192)
times = np.geomspace(1.0, 60.0, 20)
field = solve_linear(params, bump(0.8), zero, times, grid)

print("snapshot summary (m=1, n=3, bump data):")
print(f"{'t':>7s} {'sup|u|':>12s} {'support edge':>13s} {'leak fraction':>14s}")
leak = field.support_leak()
for i, t in enumerate(field.times):
    edge = finite_speed_radius(params.m, params.M, float(t))
    print(f"{t:7.2f} {field.sup_norms()[i]:12.4e} {edge:13.2f} {leak[i]:14.2e}")

slope = decay_slope(field, (10.0, 60.0))
print(f"\nfitted sup-norm decay slope vs log phi(t): {slope:.4f}")
print(f"theory -(n-1)/2 - m/(2(m+2)) = {-(1.0 + 1.0 / 6.0):.4f}")

print("\ncross-check against the independent finite-difference oracle at t=10:")
grid_fd = RadialGrid(25.0, 16384)
fd = fd_oracle(params, bump(0.8), zero, [10.0], grid_fd)
sp = solve_linear(params, bump(0.8), zero, fd.times, RadialGrid(25.0, 2048))
uf = fd.u[0][:: 16384 // 2048]
us = sp.u[0]
r = sp.grid.r
rel = np.sqrt(np.trapezoid((uf - us) ** 2 * r * r, r) / np.trapezoid(us**2 * r * r, r))
print(f"  relative L2 difference (2nd-order FD at N=16384): {rel:.2e}")
