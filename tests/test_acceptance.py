"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is pinned here, none deferred.
"""

import math
import time

import numpy as np
import pytest

from tricomi_lab.exponents import (
    ModelParams,
    gamma_interval,
    gamma_window_formula,
    p_conf,
    p_crit,
    q_bounds,
    strauss_exponent,
    strichartz_gamma_bound,
)
from tricomi_lab.geometry import (
    bisect_max_delta,
    max_shift,
    phi_inverse,
    verify_shifted_cone_bounds,
)
from tricomi_lab.grids import RadialGrid, SpaceTimeField, SpectralField
from tricomi_lab.linear import decay_slope, fd_oracle, solve_linear, weighted_field_norm
from tricomi_lab.profiles import bump
from tricomi_lab.semilinear import (
    NonlinearitySpec,
    picard_solve,
    time_march,
    weighted_solution_norm,
)
from tricomi_lab.strichartz import (
    dyadic_decompose,
    homogeneous_ratio,
    inhomogeneous_defaults,
    inhomogeneous_ratio,
    lhs_box_values,
    lp_partition_check,
    standard_family,
)
from tricomi_lab.symbols import (
    evolve_mode,
    evolve_mode_many,
    fit_upper_envelope_slope,
    v1_symbol,
    v2_symbol,
)


def report(criterion: str, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


def zero(r):
    return np.zeros_like(np.asarray(r, dtype=float))


def test_criterion_01_exponent_suite():
    t0 = time.perf_counter()
    for n in range(3, 11):
        assert abs(p_crit(0, n) - strauss_exponent(n)) < 1e-12
    pc13 = p_crit(1, 3)
    assert abs(7.0 * pc13**2 - 9.0 * pc13 - 6.0) < 1e-12
    assert p_conf(1, 3) == 15.0 / 7.0  # exact rational check
    for m in range(1, 11):
        for n in range(3, 11):
            assert p_crit(m, n) < p_conf(m, n)
    lo, hi = gamma_interval(ModelParams(1, 3, 2.0))
    assert abs(lo - 1.0 / 6.0) < 1e-12 and abs(hi - 5.0 / 18.0) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("1 (exponent suite)", f"all identities at 1e-12; runtime {elapsed:.3f}s < 1s")


def test_criterion_02_symbol_cross_validation():
    t0 = time.perf_counter()
    worst = 0.0
    for m in (1, 2, 3):
        ws = np.concatenate([[0.0], np.geomspace(1e-2, 100.0, 40)])
        ts = phi_inverse(m, ws)  # lambda = 1
        ode1 = [s.v for s in evolve_mode_many(m, 1.0, ts[1:], (1.0, 0.0), rtol=1e-12)]
        ode2 = [s.v for s in evolve_mode_many(m, 1.0, ts[1:], (0.0, 1.0), rtol=1e-12)]
        for i, t in enumerate(ts[1:]):
            for ode_v, sym in ((ode1[i], v1_symbol), (ode2[i], v2_symbol)):
                k = sym(m, float(t), 1.0, "kummer")
                b = sym(m, float(t), 1.0, "bessel")
                scale = max(abs(b), abs(k))
                for x, y in ((ode_v, b.real), (k.real, b.real), (ode_v, k.real)):
                    err = abs(x - y)
                    rel = err / scale if scale > 1e-2 else err  # absolute near zeros
                    tolerated = 1e-7 * scale + 1e-9
                    assert err < tolerated, (m, t, x, y)
                    worst = max(worst, err / max(scale, 1e-9))
        assert abs(v1_symbol(m, 0.0, 1.0)) == 1.0 and abs(v2_symbol(m, 0.0, 1.0)) == 0.0
    s1 = evolve_mode(1, 3.0, 10.0, (1.0, 0.0), rtol=1e-12)
    s2 = evolve_mode(1, 3.0, 10.0, (0.0, 1.0), rtol=1e-12)
    wr_dev = abs(s1.v * s2.v_dot - s1.v_dot * s2.v - 1.0)
    assert wr_dev < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        "2 (symbol cross-validation)",
        f"three-way agreement to 1e-7 (worst rel {worst:.1e}), "
        f"Wronskian dev {wr_dev:.1e} < 1e-8; runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_03_amplitude_envelope():
    details = []
    for m in (1, 2):
        ws = np.geomspace(10.0, 1e3, 2500)
        ts = phi_inverse(m, ws)
        vals = np.array([abs(v1_symbol(m, float(t), 1.0, "bessel")) for t in ts])
        slope = fit_upper_envelope_slope(ws, vals)
        target = -m / (2.0 * (m + 2.0))
        assert abs(slope - target) <= 0.15 * abs(target), (m, slope, target)
        details.append(f"m={m}: {slope:.4f} vs {target:.4f}")
    report("3 (amplitude envelope)", "; ".join(details) + " (15% band)")


def test_criterion_04_linear_propagator():
    t0 = time.perf_counter()
    params = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
    grid = RadialGrid(25.0, 2048)
    f = bump(0.8)
    snap_times = [2.5, 5.0, 7.5, 10.0]
    fld = solve_linear(params, f, zero, snap_times, grid)
    leak = fld.support_leak()
    assert np.all(leak < 1e-8)

    fd_runs = {}
    for N in (16384, 32768):
        g = RadialGrid(25.0, N, transform="fft")
        fd_runs[N] = fd_oracle(params, f, zero, [10.0], g)
    t_cmp = float(fd_runs[16384].times[0])
    u16 = fd_runs[16384].u[0][:: 16384 // 2048]
    u32 = fd_runs[32768].u[0][:: 32768 // 2048]
    u_fd = (4.0 * u32 - u16) / 3.0  # Richardson-extrapolated oracle
    u_sp = solve_linear(params, f, zero, [t_cmp], grid).u[0]
    r = grid.r
    rel = np.sqrt(np.trapezoid((u_fd - u_sp) ** 2 * r * r, r)) / np.sqrt(
        np.trapezoid(u_sp**2 * r * r, r)
    )
    assert rel < 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        "4 (linear propagator)",
        f"spectral-vs-FD rel L2 {rel:.2e} < 1e-4 at t=10; "
        f"max support leak {leak.max():.1e} < 1e-8; runtime {elapsed:.0f}s < 300s",
    )


@pytest.mark.parametrize(
    "m,r_max,N,window",
    [(1, 320.0, 8192, (10.0, 60.0)), (2, 460.0, 16384, (6.5, 30.0))],
)
def test_criterion_05_dispersive_decay(m, r_max, N, window):
    t0 = time.perf_counter()
    params = ModelParams(m, 3, 2.0, eps=1.0, M=2.0)
    grid = RadialGrid(r_max, N, transform="fft")
    times = np.geomspace(window[0], window[1], 14)
    fld = solve_linear(params, bump(0.8), zero, times, grid)
    slope = decay_slope(fld, window)
    target = -((3 - 1) / 2.0 + m / (2.0 * (m + 2.0)))
    assert abs(slope - target) <= 0.10 * abs(target), (slope, target)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        f"5 (dispersive decay, m={m})",
        f"slope {slope:.4f} vs {target:.4f} (10% band); runtime {elapsed:.0f}s < 300s",
    )


def test_criterion_06_semilinear_dichotomy():
    t0 = time.perf_counter()
    # blowup anchor: p = 1.3 < p_crit, positive bump, documented amplitude 32
    params_b = ModelParams(1, 3, 1.3, eps=0.5, M=2.0)
    spec_b = NonlinearitySpec(p=1.3, T0=0.5)
    grid_b = RadialGrid(30.0, 2048, transform="fft")
    f_b = lambda r: 0.5 * 32.0 * bump(0.8)(r)
    times_b = {}
    for dt in (2e-3, 1e-3):
        out, _ = time_march(
            params_b, spec_b, f_b, f_b, 12.0, dt, grid_b,
            snapshot_times=[12.0],
        )
        assert out.kind == "blowup", f"dt={dt}: expected blowup, got {out.kind}"
        times_b[dt] = out.blowup_time
    drift = abs(times_b[2e-3] - times_b[1e-3]) / times_b[1e-3]
    assert drift < 0.05

    # global anchor: p = 2.5 > p_conf, small data, horizon 100
    params_g = ModelParams(1, 3, 2.5, eps=1e-3, M=2.0)
    spec_g = NonlinearitySpec(p=2.5, T0=0.5)
    f_g = lambda r: 1e-3 * 32.0 * bump(0.8)(r)
    snap = np.geomspace(0.5, 100.0, 40)
    lo, hi = gamma_window_formula(1, 3, 2.5)
    gamma = 0.5 * (lo + hi)
    norms = {}
    for N in (8192, 16384):
        grid_g = RadialGrid(680.0, N, transform="fft")
        out_g, fld_g = time_march(
            params_g, spec_g, f_g, f_g, 100.0, 0.02, grid_g,
            snapshot_times=snap,
        )
        assert out_g.kind == "global-horizon"
        assert out_g.tail_nonincreasing
        norms[N] = weighted_solution_norm(fld_g, params_g, gamma)
        assert np.isfinite(norms[N])
    stab = abs(norms[16384] - norms[8192]) / norms[16384]
    assert stab < 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(
        "6 (semilinear dichotomy)",
        f"blowup at t={times_b[1e-3]:.3f} (dt-halving drift {drift:.2%} < 5%); "
        f"global to t=100 with weighted norm {norms[16384]:.5e} "
        f"(grid-doubling drift {stab:.2%} < 2%); runtime {elapsed:.0f}s < 600s",
    )


def test_criterion_07_picard_contraction():
    params = ModelParams(1, 3, 2.0, eps=1e-3, M=2.0)
    spec = NonlinearitySpec(p=2.0, T0=0.5)
    grid = RadialGrid(64.0, 2048, transform="fft")
    f = lambda r: 1e-3 * bump(0.8)(r)
    dt = 0.02
    diag, fld_pic = picard_solve(params, spec, f, f, 20.0, dt, grid, max_iters=12)
    assert diag.converged
    ratios = [b / a for a, b in zip(diag.N_seq, diag.N_seq[1:])]
    assert all(r < 0.9 for r in ratios), ratios

    _, fld_march = time_march(
        params, spec, f, f, 20.0, dt, grid, store_midpoints=True
    )
    from tricomi_lab.geometry import WeightSpec

    lo, hi = gamma_interval(params)
    wspec = WeightSpec(gamma=0.5 * (lo + hi), q=params.p + 1.0, M=params.M)
    mask = fld_pic.times >= spec.T0 / 2.0
    diff = SpaceTimeField(
        times=fld_pic.times[mask], grid=grid, u=(fld_pic.u - fld_march.u)[mask],
        m=params.m, M=params.M,
    )
    ref = SpaceTimeField(
        times=fld_pic.times[mask], grid=grid, u=fld_march.u[mask], m=params.m, M=params.M
    )
    rel = weighted_field_norm(diff, wspec) / weighted_field_norm(ref, wspec)
    assert rel < 1e-3
    report(
        "7 (Picard contraction)",
        f"N ratios {['%.2e' % r for r in ratios]} all < 0.9; "
        f"picard-vs-march weighted diff {rel:.1e} < 1e-3",
    )


def test_criterion_08_strichartz_probes():
    params = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
    q_min, q0 = q_bounds(1, 3)
    q = 0.5 * (q_min + q0)
    gamma = 0.5 * strichartz_gamma_bound(1, 3, q)
    delta = 0.5 * (1.5 + 1.0 / 3.0 - gamma - 1.0 / q)
    grid = RadialGrid(680.0, 16384, transform="fft")
    fam = standard_family(2.0, 1)
    rows = homogeneous_ratio(params, fam, q, gamma, delta, grid, t_max=100.0)
    ratios = [r.ratio for r in rows if r.ratio is not None]
    tails = [r.tail_fraction for r in rows if r.ratio is not None]
    assert len(ratios) == 8
    assert all(np.isfinite(v) and v > 0 for v in ratios)
    hom_spread = max(ratios) / min(ratios)
    assert hom_spread < 3.0
    assert max(tails) < 0.05

    qi, g1, g2 = inhomogeneous_defaults(1, 3)

    def pulse(name, t_lo, t_hi, prof):
        def s(t, r):
            if t <= t_lo or t >= t_hi:
                return zero(r)
            x = (t - t_lo) / (t_hi - t_lo)
            return float(np.exp(1.0 - 1.0 / (1.0 - (2.0 * x - 1.0) ** 2))) * prof(r)

        return (name, s)

    fam2 = [
        pulse("pulse-1-2", 1.0, 2.0, bump(0.8)),
        pulse("pulse-1.5-2.5", 1.5, 2.5, bump(0.5)),
        pulse("pulse-1-3-wide", 1.0, 3.0, bump(0.9)),
        pulse("pulse-0.5-1.5", 0.5, 1.5, bump(0.65)),
    ]
    grid_i = RadialGrid(115.0, 4096, transform="fft")
    rows_i = inhomogeneous_ratio(params, fam2, qi, g1, g2, grid_i, t_max=30.0, dt=0.02)
    ratios_i = [r.ratio for r in rows_i]
    tails_i = [r.tail_fraction for r in rows_i]
    assert all(np.isfinite(v) and v > 0 for v in ratios_i)
    inh_spread = max(ratios_i) / min(ratios_i)
    assert inh_spread < 3.0
    assert max(tails_i) < 0.05

    # negative control: gamma pushed 0.05 past its ceiling diverges with box size
    bound = strichartz_gamma_bound(1, 3, q)
    boxes = (25.0, 50.0, 100.0)
    inc = {}
    for tag, g in (("valid", gamma), ("inflated", bound + 0.05)):
        vals = lhs_box_values(params, bump(0.5), zero, q, g, grid, boxes=boxes)
        vq = [v**q for v in vals]
        inc[tag] = (vq[1] - vq[0], vq[2] - vq[1])
    assert inc["valid"][1] < inc["valid"][0]
    assert inc["inflated"][1] > inc["inflated"][0]
    report(
        "8 (Strichartz probes)",
        f"homogeneous spread {hom_spread:.2f} < 3, tails < {max(tails):.2%}; "
        f"inhomogeneous spread {inh_spread:.2f} < 3, tails < {max(tails_i):.2%}; "
        f"negative control increments {inc['inflated'][0]:.2e} -> {inc['inflated'][1]:.2e} (growing)",
    )


def test_criterion_09_littlewood_paley():
    tau = np.geomspace(1e-3, 1e3, 10_000)
    dev = lp_partition_check(tau)
    assert dev < 1e-12
    grid = RadialGrid(20.0, 2048)
    snap = SpectralField.from_radial(grid, bump(0.7)(grid.r))
    bands = dyadic_decompose(snap)
    rec = np.sum([b.coeffs for _, b in bands], axis=0)
    rec_err = np.abs(rec - snap.coeffs).max() / np.abs(snap.coeffs).max()
    assert rec_err < 1e-10
    report(
        "9 (Littlewood-Paley)",
        f"partition deviation {dev:.1e} < 1e-12 on 1e4 points; "
        f"reconstruction error {rec_err:.1e} < 1e-10",
    )


def test_criterion_10_cone_geometry():
    d_max = bisect_max_delta(1, 2.0, 0.5)
    assert d_max >= 1e-4
    nu = max_shift(1, 2.0, 0.5)
    b = verify_shifted_cone_bounds(1, 2.0, 0.5, nu, n_t=120, n_r=40, n_angle=12)
    n_samples = 120 * 40 * 12
    assert n_samples >= 10_000
    assert b.c_lower > 1e-6
    report(
        "10 (cone geometry)",
        f"max delta {d_max:.3e} >= 1e-4; "
        f"shifted-cone c_lower {b.c_lower:.3e} > 1e-6 over {n_samples} samples",
    )
