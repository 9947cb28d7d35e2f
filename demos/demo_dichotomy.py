"""Blowup vs global existence around the critical power.

Two anchor runs of the semilinear solver u_tt - t^m Lap(u) = F_p(t, u):

* p = 1.3 < p_crit(1,3) ~ 1.770 with sizable positive data: the focusing
  source wins and the sup norm leaves through the 1e6 threshold in finite
  time (blowup is a result, not an error);
* p = 2.5 > p_conf(1,3) = 15/7 with small data: dispersion wins, the run
  reaches t = 100 with a decaying tail and finite weighted norm.
"""

import numpy as np

from tricomi_lab.exponents import ModelParams, gamma_window_formula
from tricomi_lab.grids import RadialGrid
from tricomi_lab.profiles import bump
from tricomi_lab.semilinear import (
    NonlinearitySpec,
    time_march,
    weighted_solution_norm,
)

print("blowup anchor: m=1, p=1.3, eps=0.5, bump amplitude 32")
params = ModelParams(1, 3, 1.3, eps=0.5, M=2.0)
f = lambda r: 0.5 * 32.0 * bump(0.8)(r)
out, _ = time_march(
    params, NonlinearitySpec(p=1.3), f, f, 12.0,
    2e-3, RadialGrid(30.0, 2048),
    snapshot_times=[12.0],
)
print(f"  outcome: {out.kind} at t = {out.blowup_time:.3f}")
hist = out.norm_history
for i in np.linspace(0, len(hist) - 1, 8).astype(int):
    print(f"    t={hist[i][0]:7.3f}  sup|u| = {hist[i][1]:.4e}")

print("\nglobal anchor: m=1, p=2.5, eps=1e-3 (horizon 40 for the demo)")
params = ModelParams(1, 3, 2.5, eps=1e-3, M=2.0)
f = lambda r: 1e-3 * 32.0 * bump(0.8)(r)
snap = np.geomspace(0.5, 40.0, 24)
out, fld = time_march(
    params, NonlinearitySpec(p=2.5), f, f, 40.0,
    0.02, RadialGrid(280.0, 8192),
    snapshot_times=snap,
)
print(f"  outcome: {out.kind}; tail non-increasing: {out.tail_nonincreasing}")
lo, hi = gamma_window_formula(1, 3, 2.5)
gamma = 0.5 * (lo + hi)
norm = weighted_solution_norm(fld, params, gamma)
print(f"  weighted space-time norm (gamma = {gamma:.4f}): {norm:.5e}")
hist = out.norm_history
for i in np.linspace(0, len(hist) - 1, 6).astype(int):
    print(f"    t={hist[i][0]:7.3f}  sup|u| = {hist[i][1]:.4e}")
