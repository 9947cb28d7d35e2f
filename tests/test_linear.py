"""Linear propagator: spectral solver vs oracles, decay fits, weighted norms."""

import tracemalloc

import numpy as np
import pytest

import tricomi_lab.linear
from tricomi_lab.errors import AccuracyError, GridError, ParameterError, SupportError
from tricomi_lab.exponents import ModelParams
from tricomi_lab.geometry import WeightSpec, characteristic_weight, finite_speed_radius, phi
from tricomi_lab.grids import RadialGrid, SpaceTimeField, SpectralField, origin_value
from tricomi_lab.linear import (
    _coeff_stream,
    _data_coeffs,
    _frame_coeffs,
    _radial_field,
    _weighted_integral,
    decay_slope,
    fd_oracle,
    solve_linear,
    weighted_field_norm,
)
from tricomi_lab.profiles import bump
from tricomi_lab.strichartz import standard_family
from tricomi_lab.symbols import evolve_mode, symbol_stream

PARAMS = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)
ZERO = staticmethod(lambda r: np.zeros_like(np.asarray(r, dtype=float)))


def zero(r):
    return np.zeros_like(np.asarray(r, dtype=float))


class TestSpectralSolver:
    def test_zero_data(self):
        grid = RadialGrid(25.0, 256)
        fld = solve_linear(PARAMS, zero, zero, [1.0, 5.0], grid)
        assert np.all(fld.u == 0.0)

    def test_linearity(self):
        grid = RadialGrid(25.0, 512)
        f1, f2 = bump(0.5), bump(0.8)
        a, b = 0.7, -1.3
        fld1 = solve_linear(PARAMS, f1, zero, [6.0], grid)
        fld2 = solve_linear(PARAMS, f2, zero, [6.0], grid)
        combo = solve_linear(
            PARAMS, lambda r: a * f1(r) + b * f2(r), zero, [6.0], grid
        )
        resid = np.abs(combo.u - (a * fld1.u + b * fld2.u)).max()
        assert resid < 1e-12 * max(np.abs(combo.u).max(), 1.0)

    def test_support_leak_small(self):
        grid = RadialGrid(25.0, 1024)
        fld = solve_linear(PARAMS, bump(0.8), zero, np.linspace(1.0, 10.0, 6), grid)
        assert np.all(fld.support_leak() < 1e-8)

    def test_horizon_validation(self):
        grid = RadialGrid(10.0, 256)
        with pytest.raises(GridError, match="too small"):
            solve_linear(PARAMS, bump(0.8), zero, [10.0], grid)

    def test_support_enforcement(self):
        grid = RadialGrid(25.0, 256)
        wide = bump(3.0)  # leaks past M - 1 = 1
        with pytest.raises(SupportError):
            solve_linear(PARAMS, wide, zero, [1.0], grid)
        solve_linear(PARAMS, wide, zero, [1.0], grid, enforce_support=False)


class TestFdOracle:
    def test_zero_data(self):
        grid = RadialGrid(20.0, 512)
        fld = fd_oracle(PARAMS, zero, zero, [2.0], grid)
        assert np.all(fld.u == 0.0)

    def test_agrees_with_spectral(self):
        grid_s = RadialGrid(25.0, 1024)
        grid_f = RadialGrid(25.0, 8192, transform="fft")
        fld_f = fd_oracle(PARAMS, bump(0.8), zero, [10.0], grid_f)
        fld_s = solve_linear(PARAMS, bump(0.8), zero, fld_f.times, grid_s)
        uf = fld_f.u[0][:: 8192 // 1024]
        us = fld_s.u[0]
        r = grid_s.r
        rel = np.sqrt(np.trapezoid((uf - us) ** 2 * r * r, r)) / np.sqrt(
            np.trapezoid(us**2 * r * r, r)
        )
        assert rel < 5e-3

    def test_single_mode_matches_mode_ode(self):
        # data sin(lam r)/r is an exact grid eigenmode when lam = k pi / r_max
        grid = RadialGrid(10.0, 8192, transform="fft")
        k = 8
        lam = k * np.pi / grid.r_max

        def f(r):
            r = np.asarray(r, dtype=float)
            out = np.empty_like(r)
            out[r == 0] = lam
            rr = r[r != 0]
            out[r != 0] = np.sin(lam * rr) / rr
            return out

        t_end = 3.0
        fld = fd_oracle(PARAMS, f, zero, [t_end], grid, enforce_support=False)
        amp = evolve_mode(PARAMS.m, float(lam), float(fld.times[0]), (1.0, 0.0)).v
        expected = amp * f(grid.r)
        err = np.abs(fld.u[0] - expected).max()
        assert err < 1e-5

    def test_window_matches_full_grid_leapfrog(self, monkeypatch):
        # the cone's window against a margin that makes it the whole grid, as every step was before;
        # the leapfrog's values past the window read below 1e-25 of the peak, and rounding-level
        # differences of the tiny values ahead of the front leave about 3e-12 of each snapshot's peak
        grid = RadialGrid(25.0, 2048)
        times = [2.0, 6.0, 10.0]
        cone = fd_oracle(PARAMS, bump(0.8), bump(0.5, 0.3), times, grid)
        monkeypatch.setattr(tricomi_lab.linear, "FD_CONE_MARGIN", grid.N)
        full = fd_oracle(PARAMS, bump(0.8), bump(0.5, 0.3), times, grid)
        assert np.array_equal(cone.times, full.times)
        for u, want in zip(cone.u, full.u):
            assert np.abs(u - want).max() < 1e-10 * np.abs(want).max()

    def test_too_narrow_cone_raises(self, monkeypatch):
        # a window that grows at half the phase phi(t) falls behind the wave, and its edge check says so
        monkeypatch.setattr(tricomi_lab.linear, "phi", lambda m, t: 0.5 * phi(m, t))
        with pytest.raises(AccuracyError, match=r"window edge r=.* the cone is too narrow"):
            fd_oracle(PARAMS, bump(0.8), zero, [10.0], RadialGrid(25.0, 2048))

    def test_refinement_order_two(self):
        params = PARAMS
        ref_grid = RadialGrid(25.0, 8192, transform="fft")
        ref = solve_linear(params, bump(0.8), zero, [5.0], ref_grid)
        errs = []
        for N in (2048, 4096):
            g = RadialGrid(25.0, N, transform="fft")
            fld = fd_oracle(params, bump(0.8), zero, [5.0], g)
            u = fld.u[0]
            uref = ref.u[0][:: 8192 // N]
            r = g.r
            errs.append(
                np.sqrt(np.trapezoid((u - uref) ** 2 * r * r, r))
            )
        order = np.log2(errs[0] / errs[1])
        assert 1.6 < order < 2.4


class TestDecaySlope:
    def test_m1_rate(self):
        grid = RadialGrid(320.0, 8192, transform="fft")
        times = np.geomspace(10.0, 60.0, 12)
        fld = solve_linear(PARAMS, bump(0.8), zero, times, grid)
        slope = decay_slope(fld, (10.0, 60.0))
        target = -7.0 / 6.0
        assert slope == pytest.approx(target, abs=0.10 * abs(target))

    def test_constant_field_slope_zero(self):
        grid = RadialGrid(30.0, 128)
        times = np.linspace(10.0, 20.0, 9)
        u = np.ones((9, 129))
        fld = SpaceTimeField(times=times, grid=grid, u=u, m=1, M=1.01)
        assert decay_slope(fld, (10.0, 20.0)) == pytest.approx(0.0, abs=1e-12)

    def test_window_validation(self):
        grid = RadialGrid(30.0, 128)
        times = np.linspace(10.0, 20.0, 9)
        fld = SpaceTimeField(times=times, grid=grid, u=np.ones((9, 129)), m=1, M=2.0)
        with pytest.raises(ParameterError, match="too early"):
            decay_slope(fld, (1.0, 20.0))
        with pytest.raises(ParameterError, match="snapshots"):
            decay_slope(fld, (19.0, 20.0))


class TestWeightedFieldNorm:
    def test_zero_field(self):
        grid = RadialGrid(20.0, 128)
        fld = SpaceTimeField(
            times=np.array([1.0, 2.0]), grid=grid, u=np.zeros((2, 129)), m=1, M=2.0
        )
        assert weighted_field_norm(fld, WeightSpec(0.2, 3.0, 2.0)) == 0.0

    def test_gamma_zero_is_plain_lq(self):
        grid = RadialGrid(25.0, 512)
        times = np.linspace(0.5, 8.0, 24)
        fld = solve_linear(PARAMS, bump(0.8), zero, times, grid)
        q = 3.0
        got = weighted_field_norm(fld, WeightSpec(0.0, q, 2.0))
        # direct reimplementation of the plain space-time L^q norm
        r = grid.r
        per_t = []
        for i, t in enumerate(times):
            mask = r <= finite_speed_radius(1, 2.0, float(t))
            per_t.append(
                4.0
                * np.pi
                * np.trapezoid(np.abs(fld.u[i, mask]) ** q * r[mask] ** 2, r[mask])
            )
        want = np.trapezoid(per_t, times) ** (1.0 / q)
        assert got == pytest.approx(want, rel=1e-12)

    def test_characteristic_weight_written_out(self):
        grid = RadialGrid(25.0, 512)
        times = np.linspace(0.5, 8.0, 24)
        fld = solve_linear(PARAMS, bump(0.8), zero, times, grid)
        gamma, q = 0.2, 3.0
        got = weighted_field_norm(fld, WeightSpec(gamma, q, 2.0))
        # the weight ((phi+M)^2 - r^2)^(gamma q) on r <= phi+M-1, node by node
        per_t = []
        for i, t in enumerate(times):
            rr = grid.r[grid.r <= finite_speed_radius(1, 2.0, float(t))]
            vals = [
                characteristic_weight(1, 2.0, float(t), x) ** (gamma * q) * abs(fld.u[i, j]) ** q * x**2
                for j, x in enumerate(rr)
            ]
            per_t.append(4.0 * np.pi * np.trapezoid(vals, rr))
        want = np.trapezoid(per_t, times) ** (1.0 / q)
        assert want > 0.0
        assert got == pytest.approx(want, rel=1e-12)

    def test_grid_doubling_stable(self):
        times = np.linspace(0.5, 8.0, 24)
        vals = []
        for N in (1024, 2048):
            grid = RadialGrid(25.0, N)
            fld = solve_linear(PARAMS, bump(0.8), zero, times, grid)
            vals.append(weighted_field_norm(fld, WeightSpec(0.2, 3.0, 2.0)))
        assert abs(vals[1] - vals[0]) / vals[1] < 0.005


class TestGridInvariants:
    def test_parseval(self):
        grid = RadialGrid(12.0, 512)
        sf = SpectralField.from_radial(grid, np.exp(-grid.r**2))
        assert abs(sf.grid_l2() - sf.coeff_l2()) < 1e-12 * sf.coeff_l2()

    def test_transform_paths_agree(self):
        # the FFT transform against the O(N^2) sine-matrix product as an oracle
        gf = RadialGrid(12.0, 256, transform="fft")
        j = np.arange(1, gf.N)
        sine = np.sin(np.pi * np.outer(j, j) / gf.N)
        w = np.sin(gf.r[1:-1]) * np.exp(-gf.r[1:-1])
        assert np.abs(sine @ w * (2.0 / gf.N) - gf.forward(w)).max() < 1e-12
        c = np.exp(-gf.lam)
        assert np.abs(sine @ c - gf.inverse(c)).max() < 1e-12

    def test_nodes_and_frequencies_are_built_once_and_read_only(self):
        grid = RadialGrid(12.0, 64)
        assert grid.r is grid.r and grid.lam is grid.lam
        assert np.array_equal(grid.r, np.arange(65) * grid.h)
        assert np.array_equal(grid.lam, np.arange(1, 64) * np.pi / 12.0)
        for shared in (grid.r, grid.lam):
            with pytest.raises(ValueError, match="read-only"):
                shared[1] = 0.0

    def test_direct_transform_retired(self):
        with pytest.raises(GridError, match="retired"):
            RadialGrid(12.0, 256, transform="direct")

    def test_family_rows_equal_single_calls(self):
        # a (B, N-1) family through the transforms, to_radial and the weighted
        # integral gives each row bit for bit what its own 1-D call gives
        grid = RadialGrid(100.0, 2048)
        coeffs = np.random.default_rng(3).standard_normal((8, grid.N - 1))
        family = SpectralField(grid, coeffs).to_radial()
        spec = WeightSpec(gamma=0.2, q=3.0, M=2.0)
        assert np.array_equal(grid.forward(family[:, 1:-1]), np.array([grid.forward(u[1:-1]) for u in family]))
        assert np.array_equal(origin_value(family[:, 1:5], grid.h), [origin_value(u[1:5], grid.h) for u in family])
        for t in (0.0, 0.5, 3.0):
            per_member = _weighted_integral(family, grid.r, t, 1, spec)
            for c, u_b, i_b in zip(coeffs, family, per_member):
                u = SpectralField(grid, c).to_radial()
                assert np.array_equal(u, u_b)
                assert _weighted_integral(u, grid.r, t, 1, spec) == i_b

    def test_inverse_to_nodes_equals_full_inverse(self):
        # the prefix a snapshot on its first k nodes reads keeps the bits of the full path
        grid = RadialGrid(12.0, 64)
        coeffs = np.random.default_rng(5).standard_normal((3, grid.N - 1))
        full = grid.u_from_w(grid.inverse(coeffs))
        for k in (1, 2, 3, 4, 5, 6, grid.N + 1):
            w = grid.inverse(coeffs, k)
            assert w.shape == (3, min(max(k - 1, 4), grid.N - 1))
            assert grid.u_from_w(w, k).tobytes() == full[:, :k].tobytes()

    def test_inverse_leaves_its_input_by_default(self):
        grid = RadialGrid(12.0, 64)
        coeffs = np.random.default_rng(7).standard_normal((3, grid.N - 1))
        field = SpectralField(grid, coeffs.copy())
        for k in (None, 5):
            kept = coeffs.copy()
            want = grid.inverse(coeffs, k)
            assert coeffs.tobytes() == kept.tobytes()
            assert grid.inverse(kept, k, overwrite_x=True).tobytes() == want.tobytes()
        for call in (field.to_radial, field.grid_l2):
            call()
            assert field.coeffs.tobytes() == coeffs.tobytes()

    def test_radial_field_consumes_its_coefficients(self):
        grid = RadialGrid(12.0, 64)
        coeffs = np.random.default_rng(9).standard_normal((3, grid.N - 1))
        want = SpectralField(grid, coeffs).to_radial()
        c = coeffs.copy()
        assert _radial_field(grid, c).tobytes() == want.tobytes()
        assert np.array_equal(c, grid.inverse(coeffs))  # it holds the interior samples

    def test_snapshot_times_must_increase(self):
        grid = RadialGrid(12.0, 128)
        with pytest.raises(ParameterError):
            SpaceTimeField(
                times=np.array([2.0, 1.0]), grid=grid, u=np.zeros((2, 129)), m=1, M=2.0
            )


class TestCoeffStream:
    """_coeff_stream adds the velocity term to the members that carry velocity data only."""

    GRID = RadialGrid(170.0, 4096)  # the benchmark's strichartz grid
    TIMES = np.geomspace(0.1, 25.0, 9)

    def _family(self, velocity_rows):
        fam = standard_family(2.0, 1)
        coeffs = [_data_coeffs(PARAMS, self.GRID, f, fam[5][2] if b in velocity_rows else zero)
                  for b, (_, f, _) in enumerate(fam)]
        return np.array([c[0] for c in coeffs]), np.array([c[1] for c in coeffs])

    def _want(self, fh, gh):
        return [_frame_coeffs(v, fh, gh) for v in symbol_stream(1, self.TIMES, self.GRID.lam, derivatives=False)]

    @pytest.mark.parametrize("velocity_rows", [(), (5, 7), tuple(range(8))])
    def test_family_equals_frame_coeffs(self, velocity_rows):
        fh, gh = self._family(velocity_rows)
        assert np.flatnonzero(gh.any(axis=1)).tolist() == list(velocity_rows)
        got = list(_coeff_stream(1, self.GRID, self.TIMES, fh, gh))
        assert len(got) == self.TIMES.size
        for c, want in zip(got, self._want(fh, gh)):
            assert c.shape == (8, self.GRID.N - 1) and c.tobytes() == want.tobytes()

    @pytest.mark.parametrize("g", [zero, bump(0.5, 0.3)])
    def test_one_field_equals_frame_coeffs(self, g):
        fh, gh = _data_coeffs(PARAMS, self.GRID, bump(0.8), g)
        got = list(_coeff_stream(1, self.GRID, self.TIMES, fh, gh))
        assert [c.tobytes() for c in got] == [c.tobytes() for c in self._want(fh, gh)]

    def test_zero_velocity_makes_no_transform(self, monkeypatch):
        inner, seen = RadialGrid.forward, []
        monkeypatch.setattr(RadialGrid, "forward", lambda g, w: seen.append(w.any()) or inner(g, w))
        fh, gh = _data_coeffs(PARAMS, self.GRID, bump(0.8), zero)
        assert seen == [True] and fh.any() and gh.tobytes() == np.zeros(self.GRID.N - 1).tobytes()

    def test_step_holds_no_family_sized_temporary(self):
        fh, gh = self._family((5, 7))
        stream = _coeff_stream(1, self.GRID, self.TIMES, fh, gh)
        next(stream)  # evaluates the symbols of the first two times in one kernel call
        tracemalloc.start()
        try:
            c = next(stream)  # the second time's symbols are in hand
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * c.nbytes
