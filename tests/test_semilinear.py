"""Semilinear machinery: nonlinearity blend, Duhamel march, Picard, sweeps."""

import hashlib
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tricomi_lab.semilinear as semilinear
import tricomi_lab.symbols as symbols
from tricomi_lab.errors import InstabilityError, ParameterError, PicardDivergenceError, WindowError
from tricomi_lab.exponents import ModelParams, gamma_interval, p_conf, p_crit
from tricomi_lab.geometry import WeightSpec, phi
from tricomi_lab.grids import RadialGrid, SpaceTimeField, SpectralField
from tricomi_lab.linear import _data_coeffs, _snapshots, solve_linear, weighted_field_norm
from tricomi_lab.profiles import annular_bump, bump
from tricomi_lab.semilinear import (
    BLOWUP_THRESHOLD,
    NonlinearitySpec,
    PicardDiagnostics,
    _march,
    _snap,
    _steps,
    evaluate_nonlinearity,
    picard_solve,
    sweep_p,
    time_march,
    weighted_solution_norm,
)


def zero(r):
    return np.zeros_like(np.asarray(r, dtype=float))


def clock(horizon, nsteps, m=1):
    """The march's (ends, mids) for ``nsteps`` steps to ``horizon``, from ``_steps`` on a grid no wall check fails."""
    return _steps(ModelParams(m, 3, 2.0, eps=1.0, M=2.0), RadialGrid(1e4, 8), horizon, horizon / nsteps)


def sequential_picard(params, spec, f, g, horizon, dt, grid, max_iters=25, tol=1e-6):
    """Oracle: one whole march per Picard iterate, with the divergence rules of picard_solve."""
    lo, hi = gamma_interval(params)
    q = params.p + 1.0
    wspec = WeightSpec(gamma=0.5 * (lo + hi), q=q, M=params.M)
    steps = _steps(params, grid, horizon, dt)
    nsteps = len(steps[1])
    fh, gh = _data_coeffs(params, grid, f, g)
    t_mid = np.empty(nsteps)  # the midpoint times the march hands its source

    def norm_of(mid_arr):
        mask = t_mid >= spec.T0 / 2.0
        fld = SpaceTimeField(times=t_mid[mask], grid=grid, u=mid_arr[mask], m=params.m, M=params.M)
        return weighted_field_norm(fld, wspec)

    prev_mid = np.zeros((nsteps, grid.N + 1))
    M_seq, N_seq = [], []
    converged, rising = False, 0
    for k in range(max_iters):
        mids = np.empty_like(prev_mid)

        def source(i, tm, um, live, _prev=prev_mid, _mids=mids):
            t_mid[i], _mids[i] = tm, um
            return evaluate_nonlinearity(spec, tm, _prev[i])

        _, (t_stop,), _ = _march(params.m, grid, steps, fh, gh, source)
        if t_stop is not None:
            raise PicardDivergenceError(
                f"iterate {k} left the finite range", PicardDiagnostics(M_seq, N_seq, False, k)
            )
        M_k, N_k = norm_of(mids), norm_of(mids - prev_mid)
        if not np.isfinite([M_k, N_k]).all():
            raise PicardDivergenceError(
                f"iterate {k} has a non-finite weighted norm (M_k={M_k}, N_k={N_k})",
                PicardDiagnostics(M_seq, N_seq, False, k),
            )
        M_seq.append(M_k)
        N_seq.append(N_k)
        if k >= 1 and N_seq[-1] >= N_seq[-2]:
            rising += 1
            if rising >= 3:
                raise PicardDivergenceError(
                    f"N_k increased 3 times in a row at k={k}",
                    PicardDiagnostics(M_seq, N_seq, False, k + 1),
                )
        else:
            rising = 0
        prev_mid = mids
        if N_seq[-1] < tol * max(M_seq[0], 1e-300):
            converged = True
            break
    fld = SpaceTimeField(times=t_mid, grid=grid, u=prev_mid, m=params.m, M=params.M)
    return PicardDiagnostics(M_seq, N_seq, converged, len(M_seq)), fld


class TestNonlinearity:
    def test_zero_is_fixed(self):
        spec = NonlinearitySpec(p=2.0, T0=0.5)
        for t in (0.0, 0.2, 0.4, 1.0, 7.0):
            assert evaluate_nonlinearity(spec, t, np.array([0.0]))[0] == 0.0

    def test_saturates_to_pure_power(self):
        spec = NonlinearitySpec(p=2.0, T0=0.5)
        val = evaluate_nonlinearity(spec, 1.0, np.array([-2.0]))
        assert val[0] == pytest.approx(4.0, abs=0.0)

    def test_branch_seams_are_continuous(self):
        spec = NonlinearitySpec(p=1.7, T0=0.5)
        u = np.array([0.37])
        for seam in (spec.T0 / 2.0, spec.T0):
            lo = evaluate_nonlinearity(spec, seam - 1e-10, u)[0]
            hi = evaluate_nonlinearity(spec, seam + 1e-10, u)[0]
            assert abs(hi - lo) < 1e-8

    def test_smooth_in_t(self):
        spec = NonlinearitySpec(p=1.7, T0=0.5)
        u = np.array([0.9])
        ts = np.linspace(0.2, 0.6, 4001)
        vals = np.array([evaluate_nonlinearity(spec, float(t), u)[0] for t in ts])
        # consecutive differences scale with the grid step (no jumps)
        assert np.abs(np.diff(vals)).max() < 10.0 * (ts[1] - ts[0])

    def test_growth_bound(self):
        spec = NonlinearitySpec(p=2.2, T0=0.5)
        u = np.linspace(-50.0, 50.0, 101)
        vals = np.abs(evaluate_nonlinearity(spec, 0.1, u))
        assert np.all(vals <= 1.001 * (1.0 + np.abs(u)) ** (spec.p - 1.0) * np.abs(u) + 1e-12)

    @pytest.mark.parametrize("T0", [0.2, 0.5, 0.9])
    def test_chi_switches_on_between_T0_half_and_T0(self, T0):
        spec = NonlinearitySpec(p=2.0, T0=T0)
        assert [spec.chi(t) for t in (0.0, T0 / 4.0, T0 / 2.0)] == [0.0, 0.0, 0.0]
        assert [spec.chi(t) for t in (T0, 1.0, 7.0)] == [1.0, 1.0, 1.0]
        # closer to T0/2 or T0 than this the ramp rounds to exactly 0 or 1
        t = T0 / 2.0 * (1.0 + np.linspace(0.01, 0.95, 500))
        vals = np.array([spec.chi(float(s)) for s in t])
        assert 0.0 < vals[0] and vals[-1] < 1.0 and np.all(np.diff(vals) > 0.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            NonlinearitySpec(p=0.9)
        with pytest.raises(ParameterError):
            NonlinearitySpec(p=2.0, T0=1.5)


class TestTimeMarch:
    def test_zero_data_global(self):
        params = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
        grid = RadialGrid(20.0, 256)
        out, fld = time_march(
            params, NonlinearitySpec(p=2.0), zero, zero, 5.0,
            0.05, grid, snapshot_times=[5.0],
        )
        assert out.kind == "global-horizon"
        assert np.all(fld.u == 0.0)

    def test_linear_consistency(self):
        params = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
        grid = RadialGrid(25.0, 1024)
        f = bump(0.8)
        out, fld = time_march(
            params, None, f, zero, 10.0, 0.05, grid,
            snapshot_times=[5.0, 10.0],
        )
        ref = solve_linear(params, f, zero, fld.times, grid)
        rel = np.abs(fld.u - ref.u).max() / np.abs(ref.u).max()
        assert rel < 1e-8

    def test_blowup_detected(self):
        # strong positive data in the subcritical power range
        params = ModelParams(1, 3, 1.3, eps=0.5, M=2.0)
        grid = RadialGrid(14.0, 512, transform="fft")
        f = lambda r: 0.5 * 256.0 * bump(0.8)(r)
        out, _ = time_march(
            params, NonlinearitySpec(p=1.3), f, f, 6.5,
            2e-3, grid, snapshot_times=[6.5],
        )
        assert out.kind == "blowup"
        assert out.blowup_time is not None and 0.0 < out.blowup_time < 6.5

    def test_stored_midpoints_stop_before_the_crossing_step(self):
        params = ModelParams(1, 3, 3.5, eps=0.5, M=2.0)
        grid = RadialGrid(14.0, 512, transform="fft")
        f = lambda r: 0.5 * 256.0 * bump(0.8)(r)
        out, fld = time_march(
            params, NonlinearitySpec(p=3.5), f, f, 1.0,
            5e-3, grid, store_midpoints=True,
        )
        assert out.kind == "blowup"
        assert fld.u.shape == (len(out.norm_history) - 1, grid.N + 1)
        assert np.isfinite(fld.u).all() and np.abs(fld.u).max() <= BLOWUP_THRESHOLD
        accepted = [t for t, _ in out.norm_history[:-1]]
        assert fld.times.tolist() == accepted  # the midpoint times the march evaluated, bit for bit

    def test_stored_midpoint_times_are_the_marched_ones(self):
        # horizon 20 and dt 0.02, as in criterion 7: (i + 0.5) dt differs from the
        # march's 0.5 (t_i + t_(i+1)) in the last bit at about a quarter of the steps
        params = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
        out, fld = time_march(params, None, bump(0.8), zero, 20.0, 0.02, RadialGrid(64.0, 64), store_midpoints=True)
        assert fld.times.tolist() == [t for t, _ in out.norm_history]

    @pytest.mark.parametrize("m", [1, 2])
    def test_source_free_march_is_snapshots(self, m):
        # the frame march's kept field is solve_linear's expression V1 f + V2 g, bit for bit
        params = ModelParams(m, 3, 2.0, eps=1.0, M=2.0)
        grid, horizon, nsteps = RadialGrid(40.0, 1024), 10.0, 500
        coeffs = [_data_coeffs(params, grid, bump(0.8, a), bump(0.6, b)) for a, b in ((1.0, 0.0), (0.3, 2.0))]
        fh, gh = (np.array(c) for c in zip(*coeffs))
        steps, keep = clock(horizon, nsteps, m), [1, 137, 250, 499, 500]
        for cv, cd in ((fh[0], gh[0]), (fh, gh)):
            _, _, kept = _march(m, grid, steps, cv, cd, keep=keep)
            times = [t for t, _ in kept]
            assert times == [k * horizon / nsteps for k in keep]
            for (_, u), want in zip(kept, _snapshots(m, grid, times, cv, cd)):
                assert u.tobytes() == want.tobytes()

    @settings(max_examples=24, derandomize=True, database=None, deadline=None)
    @given(
        m=st.integers(1, 4),
        mu=st.sampled_from([4.0, 16.0]),
        N=st.sampled_from([256, 512]),
        T0=st.sampled_from([0.1, 0.2, 0.5]),
        width=st.floats(0.3, 1.0),
        amplitude=st.floats(0.1, 1.0),
        velocity=st.floats(-1.0, 1.0),
        times=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3, unique=True),
    )
    def test_scaling_oracle(self, m, mu, N, T0, width, amplitude, velocity, times):
        # at p = 3, u_mu(t, r) = mu u(mu t, s r), s = mu^((m+2)/2), solves the same equation with data
        # mu f(s r), mu^2 g(s r) and switch time T0/mu, on the grid R/s with M' = 1 + (M-1)/s, marched with
        # dt/mu to horizon/mu.  A power of 4 for mu makes s a power of two and every scaling exact, except the
        # smooth branch's absolute EPS0 and the last bit of the power |u|^3 (libm's pow rounds 4x and x apart
        # for about 3e-5 of inputs).  With EPS0 each sup and kept field matches within 1e-12 of the peak for
        # t >= T0 (a sweep of 120 cases read at most 3.5e-13 at mu = 4 and 16; mu = 1/4, where the scaled
        # solution is small against EPS0, read up to 6e-12), and without it within 1e-14 everywhere (150 of
        # 150 cases of a sweep matched bit for bit)
        s, R, M, horizon, dt = mu ** ((m + 2) / 2), 16.0, 2.0, 2.0, 0.02
        f, g = bump(width, amplitude), annular_bump(0.4, 0.3, velocity)
        times = np.sort(times)

        def both():
            want = time_march(ModelParams(m, 3, 3.0, M=M), NonlinearitySpec(3.0, T0), f, g, horizon, dt,
                              RadialGrid(R, N), snapshot_times=times)
            got = time_march(ModelParams(m, 3, 3.0, M=1.0 + (M - 1.0) / s), NonlinearitySpec(3.0, T0 / mu),
                             lambda r: mu * f(s * r), lambda r: mu * mu * g(s * r), horizon / mu, dt / mu,
                             RadialGrid(R / s, N), snapshot_times=times / mu)
            (out, fld), (out_mu, fld_mu) = want, got
            assert out.kind == out_mu.kind == "global-horizon"
            assert np.array_equal(fld_mu.times, fld.times / mu)
            hist, hist_mu = np.array(out.norm_history), np.array(out_mu.norm_history)
            assert np.array_equal(hist_mu[:, 0], hist[:, 0] / mu)
            return fld.u, fld_mu.u / mu, hist[:, 1], hist_mu[:, 1] / mu, hist[:, 0] >= T0

        u, u_mu, sup, sup_mu, late = both()
        assert np.abs(u_mu - u).max() <= 1e-12 * np.abs(u).max()
        assert np.abs(sup_mu - sup)[late].max() <= 1e-12 * sup.max()
        with mock.patch.object(semilinear, "EPS0", 0.0):
            u, u_mu, sup, sup_mu, _ = both()
        assert np.abs(u_mu - u).max() <= 1e-14 * np.abs(u).max() and np.abs(sup_mu - sup).max() <= 1e-14 * sup.max()

    def test_snapshot_out_of_range(self):
        params = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
        grid = RadialGrid(20.0, 256)
        with pytest.raises(WindowError, match="snapshot time 3 falls on step 60, outside steps 1..40") as exc:
            time_march(
                params, None, zero, zero, 2.0, 0.05, grid,
                snapshot_times=[3.0],
            )
        assert exc.value.name == "snapshot_times"

    def test_tail_check_reads_a_growing_tail(self):
        # the sup's median over t >= horizon/3 against 1.05 of its median over [horizon/10, horizon/3)
        horizon = 9.0
        t = np.linspace(0.0, horizon, 91)
        flat = [(ti, 1.0) for ti in t]
        grown = [(ti, 1.1 if ti >= horizon / 3.0 else 1.0) for ti in t]  # 10% higher over the last two thirds
        assert semilinear._tail_nonincreasing(flat, horizon) is True
        assert semilinear._tail_nonincreasing(grown, horizon) is False


class TestMarchFamily:
    def test_stopped_member_leaves_the_others_bits(self):
        # member 1 blows up early; members 0 and 2 march on as if alone
        params = ModelParams(1, 3, 3.5, eps=0.5, M=2.0)
        grid = RadialGrid(14.0, 512, transform="fft")
        spec = NonlinearitySpec(p=3.5)
        steps = _steps(params, grid, 1.0, 5e-3)
        keep = _snap(steps[0], [0.5, 1.0], "snapshot_times")
        coeffs = [_data_coeffs(params, grid, bump(0.8, a), bump(0.8, a)) for a in (0.01, 128.0, 1.0)]
        lives = []

        def source(i, tm, um, live):
            lives.append(live)
            return evaluate_nonlinearity(spec, tm, um)

        fh, gh = (np.array(c) for c in zip(*coeffs))
        hists, t_stops, kept = _march(1, grid, steps, fh, gh, source, BLOWUP_THRESHOLD, keep)
        assert t_stops[0] is None and t_stops[2] is None and 0.0 < t_stops[1] < 0.5
        assert lives[0] == [0, 1, 2] and lives[-1] == [0, 2]
        *before, (t_cross, s_cross) = hists[1]
        assert t_cross == t_stops[1] and not s_cross <= BLOWUP_THRESHOLD
        assert all(s <= BLOWUP_THRESHOLD for _, s in before)
        for b in range(3):
            (hist,), (t_stop,), alone = _march(1, grid, steps, fh[b], gh[b], source, BLOWUP_THRESHOLD, keep)
            assert hists[b] == hist and t_stops[b] == t_stop
            if t_stop is None:
                row = [0, 2].index(b)
                assert [t for t, _ in kept] == [t for t, _ in alone]
                assert all(np.array_equal(u[row], v) for (_, u), (_, v) in zip(kept, alone))


    def test_only_members_with_a_source_are_transformed(self, monkeypatch):
        # member 1 has zero data, so its source is zero at every step, and every third step zeroes all sources:
        # grid.forward sees members 0 and 2 only, and a step where no member has a source makes no transform
        params = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
        grid = RadialGrid(16.0, 256, transform="fft")
        spec = NonlinearitySpec(p=2.0)
        steps = _steps(params, grid, 1.0, 0.05)
        keep = _snap(steps[0], [0.5, 1.0], "snapshot_times")
        coeffs = [_data_coeffs(params, grid, bump(0.8, a), bump(0.8, a)) for a in (1.0, 0.0, 3.0)]
        fh, gh = (np.array(c) for c in zip(*coeffs))

        def source(i, tm, um, live):
            return evaluate_nonlinearity(spec, tm, um) * (i % 3 != 0)

        seen, forward = [], RadialGrid.forward
        monkeypatch.setattr(RadialGrid, "forward", lambda self, w: seen.append(w.shape) or forward(self, w))
        hists, t_stops, kept = _march(1, grid, steps, fh, gh, source, BLOWUP_THRESHOLD, keep)
        nsteps = len(steps[1])
        assert seen == [(2, grid.N - 1) for i in range(nsteps) if i % 3]
        assert t_stops == [None] * 3
        for b in range(3):  # each member keeps its values alone, where its 1-D march transforms every source
            (hist,), _, alone = _march(1, grid, steps, fh[b], gh[b], source, BLOWUP_THRESHOLD, keep)
            assert hists[b] == hist
            assert all(np.array_equal(u[b], v) for (_, u), (_, v) in zip(kept, alone))
        assert not np.abs(kept[-1][1][1]).any() and np.abs(kept[-1][1][[0, 2]]).max(axis=1).all()


class TestManufacturedSolution:
    """u = (cos t + 0.1 t^3) e^(-r^2) solves u_tt - t Lap(u) = s with s its residual; the
    midpoint-frozen march must converge at order 2 in dt, for one member and for a family."""

    GRID, HORIZON, AMPS = RadialGrid(12.0, 256), 2.0, np.array([1.0, -0.5, 2.0])

    def exact(self, t, r):
        return (math.cos(t) + 0.1 * t**3) * np.exp(-r * r)

    def residual(self, t, r):
        # u_tt = (-cos t + 0.6 t) e^(-r^2), and Lap e^(-r^2) = (4 r^2 - 6) e^(-r^2) in n = 3
        return (-math.cos(t) + 0.6 * t - t * (math.cos(t) + 0.1 * t**3) * (4.0 * r * r - 6.0)) * np.exp(-r * r)

    def errors(self, amps):
        """Relative errors at the horizon after 20, 40, ..., 320 steps; one member, or a family amps * u."""
        grid, r = self.GRID, self.GRID.r

        def scaled(x, live=slice(None)):
            return x if amps is None else np.outer(amps[live], x)

        cv = scaled(SpectralField.from_radial(grid, self.exact(0.0, r)).coeffs)  # u_t(0) = 0
        errs = []
        for nsteps in (20, 40, 80, 160, 320):
            _, _, kept = _march(
                1, grid, clock(self.HORIZON, nsteps), cv, np.zeros_like(cv),
                lambda i, tm, um, live: scaled(self.residual(tm, r), live), keep=[nsteps],
            )
            ((t, u),) = kept
            want = scaled(self.exact(t, r))
            errs.append(np.abs(u - want)[..., 1:].max() / np.abs(want).max())  # r = 0 is extrapolated
        return np.array(errs)

    @pytest.mark.parametrize("amps", [None, AMPS], ids=["one-member", "family"])
    def test_order_two(self, amps):
        errs = self.errors(amps)
        ratios = errs[:-1] / errs[1:]
        assert ((3.9 <= ratios) & (ratios <= 4.1)).all(), ratios


class TestSymbolBlocks:
    """The march takes K = 8192 // (N-1) step times per symbol kernel call (K = 32 at N = 256);
    one time per call (K = 1) must give the same bits."""

    PARAMS, GRID, K = ModelParams(1, 3, 2.5, eps=1.0, M=2.0), RadialGrid(40.0, 256), 32

    def march(self, amps, horizon, dt, keep=()):
        spec = NonlinearitySpec(p=2.5)
        steps = _steps(self.PARAMS, self.GRID, horizon, dt)
        coeffs = [_data_coeffs(self.PARAMS, self.GRID, bump(1.0, a), bump(1.0, a)) for a in amps]
        fh, gh = (np.array(c) for c in zip(*coeffs))
        hists, t_stops, kept = _march(
            1, self.GRID, steps, fh, gh,
            lambda i, tm, um, live: evaluate_nonlinearity(spec, tm, um), BLOWUP_THRESHOLD, list(keep),
        )
        bits = [np.array(h).tobytes() for h in hists], t_stops, [(t, u.tobytes()) for t, u in kept]
        return bits, len(steps[1]), hists

    # (amplitudes, horizon, dt, keep steps)
    CASES = {
        "ragged-last-block": ((1.0, 0.5), 1.0, 0.0222, ()),
        "blowup-mid-block": ((1.0, 10.0), 1.0, 0.01, ()),
        "all-stop-mid-block": ((10.0,), 1.0, 0.01, ()),
        "keep-on-block-edges": ((1.0, 0.5), 1.0, 0.01, (31, 32, 33, 63, 64, 65)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_blocked_march_equals_one_time_per_call(self, case, monkeypatch):
        amps, horizon, dt, keep = self.CASES[case]
        assert symbols._SYMBOL_BLOCK_ELEMENTS // (self.GRID.N - 1) == self.K
        blocked, nsteps, hists = self.march(amps, horizon, dt, keep)
        monkeypatch.setattr(symbols, "_SYMBOL_BLOCK_ELEMENTS", 1)
        assert self.march(amps, horizon, dt, keep)[0] == blocked
        if case == "ragged-last-block":
            assert nsteps == 46 and nsteps % self.K
        elif "mid-block" in case:
            stopped = [len(h) for h, t in zip(hists, blocked[1]) if t is not None]
            assert stopped == [40] and 1 < stopped[0] % self.K < self.K - 1  # step index 39
        else:
            assert [t for t, _ in blocked[2]] == [k * dt for k in keep]


class TestPicard:
    def test_zero_data_converges_immediately(self):
        params = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
        grid = RadialGrid(20.0, 256)
        diag, fld = picard_solve(
            params, NonlinearitySpec(p=2.0), zero, zero, 3.0,
            0.05, grid,
        )
        assert diag.converged and diag.iterations == 1
        assert np.all(fld.u == 0.0)

    def test_contraction_small_data(self):
        params = ModelParams(1, 3, 2.0, eps=1e-3, M=2.0)
        grid = RadialGrid(40.0, 1024)
        f = lambda r: 1e-3 * bump(0.8)(r)
        diag, _ = picard_solve(
            params, NonlinearitySpec(p=2.0), f, f, 10.0,
            0.02, grid, max_iters=10,
        )
        assert diag.converged
        ratios = [b / a for a, b in zip(diag.N_seq, diag.N_seq[1:])]
        assert all(r < 0.9 for r in ratios)

    def test_p_window_required(self):
        params = ModelParams(1, 3, 5.0, eps=1e-3, M=2.0)
        grid = RadialGrid(20.0, 256)
        with pytest.raises(ParameterError, match="exponent out of range"):
            picard_solve(
                params, NonlinearitySpec(p=5.0), zero, zero, 2.0,
                0.05, grid,
            )

    def test_divergence_reported_with_diagnostics(self):
        # large data far outside the small-eps regime: iterates run away
        params = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
        grid = RadialGrid(25.0, 512, transform="fft")
        f = lambda r: 30.0 * bump(0.8)(r)
        with pytest.raises(PicardDivergenceError) as exc_info:
            picard_solve(
                params, NonlinearitySpec(p=2.0), f, f, 8.0,
                0.02, grid, max_iters=12,
            )
        diag = exc_info.value.diagnostics
        assert diag is not None and len(diag.N_seq) >= 1

    # (params, data, grid, horizon, max_iters, iterations or error, marches)
    PIPELINE_CASES = {
        "zero-data": (ModelParams(1, 3, 2.0, eps=1.0, M=2.0), zero, (20.0, 256), 3.0, 25, 1, 1),
        "three-iterates": (
            ModelParams(1, 3, 2.0, eps=1e-3, M=2.0), bump(0.95, 1e-3), (64.0, 2048), 1.5, 25, 3, 1
        ),
        "two-blocks": (ModelParams(1, 3, 2.0, eps=1.0, M=2.0), bump(0.8), (64.0, 2048), 1.5, 25, 6, 2),
        "rising-N": (
            ModelParams(1, 3, 2.0, eps=1.0, M=2.0), bump(0.8, 30.0), (25.0, 512), 8.0, 12,
            "N_k increased 3 times in a row at k=3", 2,
        ),
        "non-finite": (
            ModelParams(1, 3, 2.0, eps=1.0, M=2.0), bump(0.95, 1e80), (25.0, 512), 8.0, 2,
            "iterate 1 has a non-finite weighted norm", 1,
        ),
    }

    @pytest.mark.parametrize("case", PIPELINE_CASES)
    def test_pipelined_equals_sequential(self, case, monkeypatch, symbol_rows):
        params, f, (r_max, N), horizon, max_iters, expect, marches = self.PIPELINE_CASES[case]
        grid = RadialGrid(r_max, N, transform="fft")
        args = (params, NonlinearitySpec(p=2.0), f, f, horizon, 0.02, grid)

        def outcome(solve):
            try:
                diag, fld = solve(*args, max_iters=max_iters)
            except PicardDivergenceError as exc:
                diag, fld = exc.diagnostics, None
                assert str(exc).startswith(expect)
            return diag.M_seq, diag.N_seq, diag.iterations, diag.converged, fld

        calls = symbol_rows(semilinear)
        with np.errstate(over="ignore", invalid="ignore"):
            got = outcome(picard_solve)
            monkeypatch.undo()
            want = outcome(sequential_picard)
        nsteps = len(_steps(params, grid, horizon, 0.02)[1])
        assert len(calls) == marches * nsteps  # one symbol row per midpoint per block, and no kept step ends
        assert not any(d for _, d in calls)  # the frame march reads symbol values only
        assert got[:4] == want[:4]
        assert np.isfinite(got[0] + got[1]).all()  # a non-finite norm raises, it is never recorded
        if isinstance(expect, int):
            assert got[2] == expect and got[3]
            assert np.array_equal(got[4].times, want[4].times) and np.array_equal(got[4].u, want[4].u)
        else:
            assert got[4] is None and want[4] is None

    def test_one_weighted_integral_per_in_box_step(self, monkeypatch):
        # M_k and N_k of a block's rows are one (2B, k) family per step midpoint in [T0/2, horizon]
        params, f, (r_max, N), horizon, *_ = self.PIPELINE_CASES["two-blocks"]
        grid = RadialGrid(r_max, N, transform="fft")
        shapes, inner = [], semilinear._weighted_integral

        def counted(u, r, t, m, spec):
            shapes.append(u.shape)
            return inner(u, r, t, m, spec)

        monkeypatch.setattr(semilinear, "_weighted_integral", counted)
        diag, _ = picard_solve(params, NonlinearitySpec(p=2.0), f, f, horizon, 0.02, grid)
        t_mid = np.array(_steps(params, grid, horizon, 0.02)[1])
        in_box = np.count_nonzero(t_mid >= 0.25)
        assert diag.iterations == 6 and len(shapes) == 2 * in_box  # two blocks of three rows
        assert [rows for rows, _ in shapes] == [6] * len(shapes)

    def test_zero_data_field_keeps_its_bytes(self, tmp_path):
        # no iterate has a source, so the march makes no forward transform; field.csv keeps the bytes, signed
        # zeros included, that the march wrote when it transformed the zero sources
        from tricomi_lab.cli import run_scenario
        from tricomi_lab.config import parse_config

        cfg = {"scenario": "solve-semilinear", "model": {"m": 1, "n": 3, "p": 2.0, "eps": 1.0, "M": 2.0},
               "grid": {"r_max": 16.0, "N": 256, "transform": "fft"}, "output_dir": str(tmp_path),
               "semilinear": {"horizon": 1.0, "dt": 0.05, "mode": "picard", "max_iters": 4, "write_field": True,
                              "field_r_points": 16, "data": {"profile": "bump", "amplitude": 0.0}}}
        run_scenario(parse_config(json.dumps(cfg)))
        field = (tmp_path / "field.csv").read_bytes()
        assert b",-0\n" in field
        assert hashlib.sha256(field).hexdigest() == "3510616902843d463f82c556a0e8fa5959b4791cebb04153a46d11c03c0f1e4b"

    def test_field_times_are_the_marched_midpoints(self):
        # horizon 20 and dt 0.02, as in criterion 7: (i + 0.5) dt misses the march's midpoints by an ulp
        params, grid = ModelParams(1, 3, 2.0, eps=1.0, M=2.0), RadialGrid(64.0, 64)
        _, fld = picard_solve(params, NonlinearitySpec(p=2.0), zero, zero, 20.0, 0.02, grid, max_iters=1)
        _, marched = time_march(params, None, zero, zero, 20.0, 0.02, grid, store_midpoints=True)
        assert fld.times.tolist() == marched.times.tolist()
        assert fld.times.tolist() != ((np.arange(1000) + 0.5) * 0.02).tolist()

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_max_iters_must_be_positive(self, max_iters):
        params = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
        with pytest.raises(ParameterError, match="max_iters >= 1"):
            picard_solve(
                params, NonlinearitySpec(p=2.0), zero, zero, 1.0, 0.05,
                RadialGrid(20.0, 256), max_iters=max_iters,
            )


class TestWeightedSolutionNorm:
    def test_zero_field(self):
        params = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
        grid = RadialGrid(20.0, 256)
        from tricomi_lab.grids import SpaceTimeField

        fld = SpaceTimeField(
            times=np.array([1.0, 2.0]), grid=grid, u=np.zeros((2, 257)), m=1, M=2.0
        )
        assert weighted_solution_norm(fld, params, 0.2) == 0.0

    def test_gamma_window_enforced(self):
        params = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
        grid = RadialGrid(20.0, 256)
        from tricomi_lab.grids import SpaceTimeField

        fld = SpaceTimeField(
            times=np.array([1.0]), grid=grid, u=np.zeros((1, 257)), m=1, M=2.0
        )
        with pytest.raises(ParameterError, match="admissible interval"):
            weighted_solution_norm(fld, params, 0.5)

    def test_theorem_weight_written_out(self):
        params = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
        grid = RadialGrid(25.0, 512)
        times = np.linspace(0.5, 8.0, 24)
        fld = solve_linear(params, bump(0.8), zero, times, grid)
        gamma, q = 0.2, params.p + 1.0
        got = weighted_solution_norm(fld, params, gamma)
        # the weight (1 + |phi(t)^2 - r^2|)^(gamma q) at every node, no M shift, no support cut
        per_t = []
        for i, t in enumerate(times):
            vals = [
                (1.0 + abs(phi(1, float(t)) ** 2 - x * x)) ** (gamma * q) * abs(fld.u[i, j]) ** q * x**2
                for j, x in enumerate(grid.r)
            ]
            per_t.append(4.0 * np.pi * np.trapezoid(vals, grid.r))
        want = np.trapezoid(per_t, times) ** (1.0 / q)
        assert want > 0.0
        assert got == pytest.approx(want, rel=1e-12)


class TestStepCheck:
    """``dt`` is a plain number, checked once where the march takes its steps."""

    PARAMS, GRID = ModelParams(1, 3, 2.0, eps=1.0, M=2.0), RadialGrid(20.0, 256)

    @pytest.mark.parametrize("dt", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("solve", [time_march, picard_solve], ids=["march", "picard"])
    def test_solver_names_the_bad_step(self, solve, dt):
        with pytest.raises(ParameterError, match=re.escape(f"dt > 0 required, got {dt}")):
            solve(self.PARAMS, NonlinearitySpec(p=2.0), zero, zero, 1.0, dt, self.GRID)

    @pytest.mark.parametrize("dt", [0.0, -1.0, float("nan")])
    def test_sweep_records_it_in_every_valid_row(self, dt):
        rows = sweep_p(self.PARAMS, [2.0, 0.9, 3.0], zero, zero, 1.0, dt, self.GRID)
        assert [row["error"] for row in rows[::2]] == [f"ParameterError: dt > 0 required, got {dt}"] * 2
        assert rows[1]["error"].startswith("ParameterError") and "dt" not in rows[1]["error"]
        assert all(row["kind"] is None for row in rows)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("solve", [time_march, picard_solve], ids=["march", "picard"])
    def test_solver_names_the_bad_horizon(self, solve, horizon):
        # horizon 0 divided 0 by 0 steps, a negative one gave an empty clock, NaN failed in round()
        with pytest.raises(ParameterError, match=re.escape(f"got horizon={horizon}")):
            solve(self.PARAMS, NonlinearitySpec(p=2.0), zero, zero, horizon, 0.01, self.GRID)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan")])
    def test_sweep_records_the_bad_horizon_in_every_valid_row(self, horizon):
        rows = sweep_p(self.PARAMS, [2.0, 0.9, 3.0], zero, zero, horizon, 0.01, self.GRID)
        want = f"ParameterError: horizon > 0 and finite required, got horizon={horizon}"
        assert [row["error"] for row in rows[::2]] == [want] * 2
        assert all(row["kind"] is None for row in rows)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_snapshot_time_names_its_key(self, t):
        with pytest.raises(WindowError, match="is not finite") as exc:
            time_march(self.PARAMS, None, zero, zero, 1.0, 0.01, self.GRID, snapshot_times=[0.5, t])
        assert exc.value.name == "snapshot_times"

    @pytest.mark.parametrize(
        "horizon, dt, n",
        [(0.9, 0.03, 30), (0.3, 0.1, 3), (2.1, 0.3, 7), (1.8, 0.06, 30), (1.0, 0.01, 100),
         (1.5, 0.02, 75), (20.0, 0.01, 2000), (1.0, 0.3, 4), (1.0, 0.4, 3), (0.5, 2.0, 1)],
    )
    def test_step_count(self, horizon, dt, n):
        # ceil(0.9 / 0.03) is 31 in floating point; a dt that divides the horizon gives its quotient
        ends, mids = _steps(self.PARAMS, RadialGrid(100.0, 8), horizon, dt)
        assert len(ends) - 1 == n and len(mids) == n

    @pytest.mark.parametrize("t, k", [(0.004, 0), (1.2, 120)], ids=["step-0", "past-the-end"])
    def test_snap_outside_the_steps(self, t, k):
        ends, _ = _steps(self.PARAMS, self.GRID, 1.0, 0.01)
        assert _snap(ends, [1.0, 0.006, 0.5, 0.504], "snapshot_times") == [1, 50, 100]
        with pytest.raises(WindowError, match=f"falls on step {k}, outside steps 1..100 ") as exc:
            _snap(ends, [0.5, t], "snapshot_times")
        assert exc.value.name == "snapshot_times"

    def test_kept_field_carries_its_evaluation_time(self):
        # 70 steps of 0.7 / 70 end at 70 * (0.7 / 70) = 0.7000000000000001; the march evaluates min(that, 0.7)
        assert 70 * (0.7 / 70) > 0.7
        _, fld = time_march(self.PARAMS, None, zero, zero, 0.7, 0.01, self.GRID, snapshot_times=[0.35, 0.7])
        assert fld.times.tolist() == [35 * (0.7 / 70), 0.7]

    def test_dividing_step_is_one_march_step(self):
        assert 0.9 / 0.03 > 30
        out, fld = time_march(self.PARAMS, None, zero, zero, 0.9, 0.03, self.GRID, snapshot_times=[0.03, 0.9])
        assert len(out.norm_history) == 30 and fld.times.tolist() == [0.9 / 30, 0.9]


class TestNonFiniteSup:
    """A sup that is not finite stops a member as a blowup only after its source overflowed."""

    GRID = RadialGrid(16.0, 256)

    def test_overflowing_source_is_a_blowup(self):
        # |u|^400 of a sup near 10 is inf: the next midpoint is not finite, and that is a blowup
        params = ModelParams(1, 3, 400.0, eps=1.0, M=2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            out, _ = time_march(params, NonlinearitySpec(p=400.0), bump(0.95, 10.0), zero, 1.0, 0.01, self.GRID)
        assert out.kind == "blowup" and out.blowup_time == 0.015
        assert [math.isfinite(s) for _, s in out.norm_history] == [True, False]

    @pytest.mark.parametrize("spec", [None, NonlinearitySpec(p=2.0)])
    def test_nan_after_finite_source_raises(self, spec, nan_in_kernel):
        nan_in_kernel(3)  # 32 midpoints per call at N = 256: steps 64..95
        with pytest.raises(InstabilityError, match=r"march step 64 at t=0\.3225: sup\|u\| = nan after a finite "
                                                   r"source \(last finite sup [0-9.e+-]+\)"):
            time_march(ModelParams(1, 3, 2.0, eps=1.0, M=2.0), spec, bump(0.95), zero, 1.0, 0.005, self.GRID)

    def test_sweep_records_the_fault_in_every_row(self, nan_in_kernel):
        # the family shares its symbols, so a fault in them is every valid row's error
        nan_in_kernel(3)
        rows = sweep_p(ModelParams(1, 3, 2.0, eps=1.0, M=2.0), [0.5, 1.5, 2.0], bump(0.95), zero, 1.0, 0.005,
                       self.GRID)
        assert rows[0]["error"].startswith("ParameterError")
        for row in rows[1:]:
            assert row["kind"] is None and row["blowup_time"] is None and row["final_sup"] is None
            assert row["error"].startswith("InstabilityError: march step 64 at t=0.3225")


class TestSweep:
    def test_empty_grid(self):
        params = ModelParams(1, 3, 2.0, eps=0.5, M=2.0)
        grid = RadialGrid(12.0, 256)
        rows = sweep_p(params, [], zero, zero, 2.0, 0.05, grid)
        assert rows == []

    def test_markers_and_rows(self):
        params = ModelParams(1, 3, 2.0, eps=0.5, M=2.0)
        grid = RadialGrid(14.0, 512, transform="fft")
        f = lambda r: 0.5 * 4.0 * bump(0.8)(r)
        rows = sweep_p(
            params, [1.3, 2.5], f, f, 5.0, 5e-3, grid
        )
        assert not rows[0]["is_supercritical"] and rows[1]["is_superconformal"]
        assert all(row["kind"] in ("blowup", "global-horizon") for row in rows)
        assert all(row["error"] == "" for row in rows)

    def test_blowup_set_shrinks_as_eps_decreases(self):
        # smaller data cannot blow up where larger data did not; at
        # super-unit amplitudes larger p is the stronger source, so the
        # blowup set is an upper range of p that recedes with eps
        grid = RadialGrid(28.0, 1024, transform="fft")
        p_grid = [1.5, 2.0, 2.5]
        blowup_sets = []
        for eps in (0.3, 0.15):
            params = ModelParams(1, 3, 2.0, eps=eps, M=2.0)
            f = lambda r: eps * 32.0 * bump(0.8)(r)
            rows = sweep_p(params, p_grid, f, f, 10.0, 5e-3, grid)
            blowup_sets.append({row["p"] for row in rows if row["kind"] == "blowup"})
        assert blowup_sets[1] <= blowup_sets[0]
        assert len(blowup_sets[1]) < len(blowup_sets[0])

    def test_batched_rows_equal_per_power_marches(self, monkeypatch):
        # one march for every valid power; each row as its own time_march gives it
        params = ModelParams(1, 3, 2.0, eps=0.3, M=2.0)
        grid = RadialGrid(20.0, 512, transform="fft")
        f = bump(0.95, 0.3 * 32.0)
        p_grid, dt = [0.9, 1.5, 2.0, 3.0], 5e-3
        marches = []
        monkeypatch.setattr(
            semilinear, "_march", lambda *a, _f=semilinear._march: marches.append(a) or _f(*a)
        )
        rows = sweep_p(params, p_grid, f, f, 3.0, dt, grid)
        monkeypatch.undo()
        assert len(marches) == 1
        want = []
        for p in p_grid:
            row = {"p": p, "kind": None, "blowup_time": None, "final_sup": None,
                   "is_supercritical": p > p_crit(1, 3), "is_superconformal": p > p_conf(1, 3), "error": ""}
            try:
                params_p = ModelParams(1, 3, p, 0.3, 2.0)
                out, _ = time_march(params_p, NonlinearitySpec(p=p), f, f, 3.0, dt, grid)
                row.update(kind=out.kind, blowup_time=out.blowup_time, final_sup=out.norm_history[-1][1])
            except ParameterError as exc:
                row["error"] = f"ParameterError: {exc}"
            want.append(row)
        assert rows == want
        assert [row["kind"] for row in rows] == [None, "global-horizon", "blowup", "blowup"]

    def test_errors_recorded_per_row(self):
        params = ModelParams(1, 3, 2.0, eps=0.5, M=2.0)
        grid = RadialGrid(5.0, 256)  # too small for the horizon: per-row error
        rows = sweep_p(params, [2.0], zero, zero, 5.0, 0.05, grid)
        assert rows[0]["error"] != ""

    def test_programming_errors_propagate(self):
        # only package errors are recorded per row; a bug in the data escapes
        def broken(r):
            raise RuntimeError("broken data callable")

        params = ModelParams(1, 3, 2.0, eps=0.5, M=2.0)
        grid = RadialGrid(12.0, 256)
        with pytest.raises(RuntimeError, match="broken data callable"):
            sweep_p(params, [2.0], broken, zero, 2.0, 0.05, grid)
