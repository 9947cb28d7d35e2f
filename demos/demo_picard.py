"""Picard iteration in the contraction regime.

With p inside (p_crit, p_conf) and small data, the fixed-point iterates
u_k <- (linear solve with source F_p(t, u_{k-1})) contract geometrically in
the characteristic-weight norm: the difference norms N_k collapse by orders
of magnitude per sweep and the limit matches the direct nonlinear march.
"""

import numpy as np

from tricomi_lab.exponents import ModelParams, gamma_interval
from tricomi_lab.geometry import WeightSpec
from tricomi_lab.grids import RadialGrid, SpaceTimeField
from tricomi_lab.linear import weighted_field_norm
from tricomi_lab.profiles import bump
from tricomi_lab.semilinear import NonlinearitySpec, picard_solve, time_march

params = ModelParams(1, 3, 2.0, eps=1e-3, M=2.0)
spec = NonlinearitySpec(p=2.0, T0=0.5)
grid = RadialGrid(64.0, 2048)
dt = 0.02
f = lambda r: 1e-3 * bump(0.8)(r)

diag, fld_pic = picard_solve(params, spec, f, f, 20.0, dt, grid, max_iters=12)
print("Picard diagnostics (m=1, p=2, eps=1e-3):")
print(f"{'k':>3s} {'M_k':>13s} {'N_k':>13s} {'N_k/N_(k-1)':>13s}")
for k, (Mk, Nk) in enumerate(zip(diag.M_seq, diag.N_seq)):
    ratio = "" if k == 0 else f"{diag.N_seq[k] / diag.N_seq[k - 1]:13.3e}"
    print(f"{k:3d} {Mk:13.5e} {Nk:13.5e} {ratio:>13s}")
print(f"converged: {diag.converged} after {diag.iterations} iterations")

_, fld_march = time_march(params, spec, f, f, 20.0, dt, grid, store_midpoints=True)
lo, hi = gamma_interval(params)
wspec = WeightSpec(gamma=0.5 * (lo + hi), q=params.p + 1.0, M=params.M)
mask = fld_pic.times >= spec.T0 / 2.0
diff = SpaceTimeField(times=fld_pic.times[mask], grid=grid,
                      u=(fld_pic.u - fld_march.u)[mask], m=1, M=2.0)
ref = SpaceTimeField(times=fld_pic.times[mask], grid=grid, u=fld_march.u[mask], m=1, M=2.0)
rel = weighted_field_norm(diff, wspec) / weighted_field_norm(ref, wspec)
print(f"\nPicard limit vs direct time march, relative weighted difference: {rel:.2e}")
