"""Semilinear machinery: nonlinearity blend, Duhamel march, Picard, sweeps."""

import numpy as np
import pytest

from tricomi_lab.errors import ParameterError, PicardDivergenceError
from tricomi_lab.exponents import ModelParams
from tricomi_lab.grids import RadialGrid
from tricomi_lab.linear import solve_linear
from tricomi_lab.profiles import bump
from tricomi_lab.semilinear import (
    BLOWUP_THRESHOLD,
    NonlinearitySpec,
    StepControl,
    evaluate_nonlinearity,
    picard_solve,
    sweep_p,
    time_march,
    weighted_solution_norm,
)


def zero(r):
    return np.zeros_like(np.asarray(r, dtype=float))


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
            StepControl(dt=0.05), grid, snapshot_times=[5.0],
        )
        assert out.kind == "global-horizon"
        assert np.all(fld.u == 0.0)

    def test_linear_consistency(self):
        params = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
        grid = RadialGrid(25.0, 1024)
        f = bump(0.8)
        out, fld = time_march(
            params, None, f, zero, 10.0, StepControl(dt=0.05), grid,
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
            StepControl(dt=2e-3), grid, snapshot_times=[6.5],
        )
        assert out.kind == "blowup"
        assert out.blowup_time is not None and 0.0 < out.blowup_time < 6.5

    def test_stored_midpoints_stop_before_the_crossing_step(self):
        params = ModelParams(1, 3, 3.5, eps=0.5, M=2.0)
        grid = RadialGrid(14.0, 512, transform="fft")
        f = lambda r: 0.5 * 256.0 * bump(0.8)(r)
        out, fld = time_march(
            params, NonlinearitySpec(p=3.5), f, f, 1.0,
            StepControl(dt=5e-3), grid, store_midpoints=True,
        )
        assert out.kind == "blowup"
        assert fld.u.shape == (len(out.norm_history) - 1, grid.N + 1)
        assert np.isfinite(fld.u).all() and np.abs(fld.u).max() <= BLOWUP_THRESHOLD
        accepted = [t for t, _ in out.norm_history[:-1]]
        assert np.allclose(fld.times, accepted, rtol=0.0, atol=1e-12)

    def test_snapshot_out_of_range(self):
        params = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
        grid = RadialGrid(20.0, 256)
        from tricomi_lab.errors import GridError

        with pytest.raises(GridError):
            time_march(
                params, None, zero, zero, 2.0, StepControl(dt=0.05), grid,
                snapshot_times=[3.0],
            )


class TestPicard:
    def test_zero_data_converges_immediately(self):
        params = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
        grid = RadialGrid(20.0, 256)
        diag, fld = picard_solve(
            params, NonlinearitySpec(p=2.0), zero, zero, 3.0,
            StepControl(dt=0.05), grid,
        )
        assert diag.converged and diag.iterations == 1
        assert np.all(fld.u == 0.0)

    def test_contraction_small_data(self):
        params = ModelParams(1, 3, 2.0, eps=1e-3, M=2.0)
        grid = RadialGrid(40.0, 1024)
        f = lambda r: 1e-3 * bump(0.8)(r)
        diag, _ = picard_solve(
            params, NonlinearitySpec(p=2.0), f, f, 10.0,
            StepControl(dt=0.02), grid, max_iters=10,
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
                StepControl(dt=0.05), grid,
            )

    def test_divergence_reported_with_diagnostics(self):
        # large data far outside the small-eps regime: iterates run away
        params = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
        grid = RadialGrid(25.0, 512, transform="fft")
        f = lambda r: 30.0 * bump(0.8)(r)
        with pytest.raises(PicardDivergenceError) as exc_info:
            picard_solve(
                params, NonlinearitySpec(p=2.0), f, f, 8.0,
                StepControl(dt=0.02), grid, max_iters=12,
            )
        diag = exc_info.value.diagnostics
        assert diag is not None and len(diag.N_seq) >= 1


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


class TestSweep:
    def test_empty_grid(self):
        params = ModelParams(1, 3, 2.0, eps=0.5, M=2.0)
        grid = RadialGrid(12.0, 256)
        rows = sweep_p(params, [], zero, zero, 2.0, StepControl(dt=0.05), grid)
        assert rows == []

    def test_markers_and_rows(self):
        params = ModelParams(1, 3, 2.0, eps=0.5, M=2.0)
        grid = RadialGrid(14.0, 512, transform="fft")
        f = lambda r: 0.5 * 4.0 * bump(0.8)(r)
        rows = sweep_p(
            params, [1.3, 2.5], f, f, 5.0, StepControl(dt=5e-3), grid
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
            rows = sweep_p(params, p_grid, f, f, 10.0, StepControl(dt=5e-3), grid)
            blowup_sets.append({row["p"] for row in rows if row["kind"] == "blowup"})
        assert blowup_sets[1] <= blowup_sets[0]
        assert len(blowup_sets[1]) < len(blowup_sets[0])

    def test_errors_recorded_per_row(self):
        params = ModelParams(1, 3, 2.0, eps=0.5, M=2.0)
        grid = RadialGrid(5.0, 256)  # too small for the horizon: per-row error
        rows = sweep_p(params, [2.0], zero, zero, 5.0, StepControl(dt=0.05), grid)
        assert rows[0]["error"] != ""

    def test_programming_errors_propagate(self):
        # only package errors are recorded per row; a bug in the data escapes
        def broken(r):
            raise RuntimeError("broken data callable")

        params = ModelParams(1, 3, 2.0, eps=0.5, M=2.0)
        grid = RadialGrid(12.0, 256)
        with pytest.raises(RuntimeError, match="broken data callable"):
            sweep_p(params, [2.0], broken, zero, 2.0, StepControl(dt=0.05), grid)
