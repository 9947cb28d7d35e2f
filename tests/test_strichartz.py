"""Sobolev norms, estimate ratio probes, Littlewood-Paley machinery."""

import contextvars
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import quad

import tricomi_lab.linear
import tricomi_lab.semilinear
import tricomi_lab.strichartz
from tricomi_lab.errors import (
    AccuracyError,
    GridError,
    ParameterError,
    SupportError,
    TricomiLabError,
    TruncatedBoxError,
)
from tricomi_lab.exponents import ModelParams, q_bounds, strichartz_gamma_bound
from tricomi_lab.geometry import WeightSpec, finite_speed_radius, phi
from tricomi_lab.grids import RadialGrid, SpaceTimeField, SpectralField
from tricomi_lab.linear import (
    _cone_nodes,
    _data_coeffs,
    _snapshots,
    _weighted_integral,
    solve_linear,
    weighted_field_norm,
)
from tricomi_lab.profiles import bump, dilate, gaussian_truncated
from tricomi_lab.semilinear import _march, _snap, _steps
from tricomi_lab.strichartz import (
    TAIL_DOMINATED_FRACTION,
    DyadicCutoff,
    RatioRow,
    _time_grid,
    default_sobolev_grid,
    dyadic_decompose,
    homogeneous_ratio,
    inhomogeneous_defaults,
    inhomogeneous_ratio,
    lhs_box_values,
    lp_partition_check,
    paired_gamma2,
    sobolev_orders,
    sobolev_w_s1_norm,
    square_function_ratio,
    standard_family,
)

PARAMS = ModelParams(1, 3, 2.0, eps=1.0, M=2.0)


def zero(r):
    return np.zeros_like(np.asarray(r, dtype=float))


def _pulse(t_lo, t_hi, prof, amplitude=1.0):
    def s(t, r):
        if t <= t_lo or t >= t_hi:
            return zero(r)
        x = (t - t_lo) / (t_hi - t_lo)
        return amplitude * float(np.exp(1.0 - 1.0 / (1.0 - (2.0 * x - 1.0) ** 2))) * prof(r)

    return s


class TestSobolevNorm:
    def test_s0_is_l1(self):
        grid = default_sobolev_grid(2.0)
        f = bump(0.7)
        got = sobolev_w_s1_norm(f, 0.0, grid)
        want, _ = quad(lambda r: 4.0 * np.pi * f(np.array([r]))[0] * r * r, 0.0, 0.7, limit=200)
        assert got == pytest.approx(want, rel=1e-8)

    def test_dilation_scaling_at_s0(self):
        # f_sigma(r) = f(sigma^((m+2)/2) r) scales the 3D L1 mass by s^-3
        grid = default_sobolev_grid(2.0)
        f = bump(0.8)
        m, sigma = 1, 1.3
        s = sigma ** ((m + 2.0) / 2.0)
        base = sobolev_w_s1_norm(f, 0.0, grid)
        scaled = sobolev_w_s1_norm(dilate(f, sigma, m), 0.0, grid)
        assert scaled == pytest.approx(base / s**3, rel=1e-6)

    def test_s2_against_analytic_laplacian(self):
        # (I - Lap) of a Gaussian exp(-r^2/(2a^2)) is closed-form
        a = 0.15
        f = gaussian_truncated(a, 0.95)
        grid = default_sobolev_grid(2.0)
        got = sobolev_w_s1_norm(f, 2.0, grid)

        def integrand(r):
            g = np.exp(-r * r / (2 * a * a))
            lap = g * (r * r / a**4 - 3.0 / a**2)
            return 4.0 * np.pi * abs(g - lap) * r * r

        want, _ = quad(integrand, 0.0, 3.0, limit=400)
        assert got == pytest.approx(want, rel=1e-4)

    def test_under_resolution_raises(self):
        grid = RadialGrid(60.0, 512)
        with pytest.raises(AccuracyError, match="under-resolved"):
            sobolev_w_s1_norm(bump(0.6), 4.0, grid)

    def test_error_estimate_attached(self):
        grid = default_sobolev_grid(2.0)
        val, err = sobolev_w_s1_norm(bump(0.6), 1.5, grid, with_error=True)
        assert val > 0 and err >= 0 and err < 0.05 * val

    @pytest.mark.parametrize("with_error", [False, True])
    def test_zero_data_makes_no_transform(self, monkeypatch, with_error):
        def refuse(grid, w):
            raise AssertionError("zero data went through a transform")

        monkeypatch.setattr(RadialGrid, "forward", refuse)
        got = sobolev_w_s1_norm(zero, 2.5, default_sobolev_grid(2.0), with_error=with_error)
        assert got == ((0.0, 0.0) if with_error else 0.0)
        assert all(type(v) is float for v in np.atleast_1d(got).tolist())

    def test_order_cap(self):
        with pytest.raises(ParameterError):
            sobolev_w_s1_norm(bump(0.6), 7.0, default_sobolev_grid(2.0))


class TestHomogeneousRatio:
    def test_window_violations_named(self):
        grid = RadialGrid(50.0, 512)
        fam = [("b", bump(0.5), zero)]
        with pytest.raises(ParameterError, match="q window"):
            homogeneous_ratio(PARAMS, fam, 2.0, 0.1, 0.1, grid)
        with pytest.raises(ParameterError, match="gamma window"):
            homogeneous_ratio(PARAMS, fam, 3.0, 0.9, 0.1, grid)
        with pytest.raises(ParameterError, match="delta window"):
            homogeneous_ratio(PARAMS, fam, 3.0, 0.2, 5.0, grid)

    def test_zero_member_excluded(self):
        grid = RadialGrid(180.0, 4096, transform="fft")
        fam = [("null", zero, zero), ("b", bump(0.5), zero)]
        rows = homogeneous_ratio(PARAMS, fam, 3.0, 0.2, 0.3, grid, t_max=30.0)
        assert rows[0].flags == "excluded-zero" and rows[0].ratio is None
        assert rows[1].ratio is not None and np.isfinite(rows[1].ratio)

    def test_each_profile_is_sampled_once_on_the_sobolev_grid(self):
        # the zero test and the W^(s,1) norms read the same samples
        seen = []

        def counted(key, prof):
            def f(r):
                seen.append((key, np.size(r)))
                return prof(r)
            return f

        fam = [("null", counted("null f", zero), counted("null g", zero)),
               ("b", counted("b f", bump(0.5)), counted("b g", zero))]
        rows = homogeneous_ratio(PARAMS, fam, 3.0, 0.2, 0.3, RadialGrid(50.0, 512), t_max=10.0)
        assert [row.flags == "excluded-zero" for row in rows] == [True, False]
        on_sobolev_grid = [key for key, size in seen if size == default_sobolev_grid(2.0).N + 1]
        assert sorted(on_sobolev_grid) == ["b f", "b g", "null f", "null g"]

    def test_family_ratios_finite_medium_box(self):
        grid = RadialGrid(180.0, 4096, transform="fft")
        fam = standard_family(2.0, 1)[:3]
        rows = homogeneous_ratio(PARAMS, fam, 3.0, 0.2, 0.3, grid, t_max=30.0)
        ratios = [r.ratio for r in rows]
        assert all(np.isfinite(v) and v > 0 for v in ratios)
        assert max(ratios) / min(ratios) < 3.0

    def test_box_values_monotone(self):
        # nonnegative integrand: the truncated LHS grows with the box
        grid = RadialGrid(180.0, 4096, transform="fft")
        vals = lhs_box_values(PARAMS, bump(0.5), zero, 3.0, 0.2, grid, boxes=(10.0, 20.0, 30.0))
        assert vals[0] < vals[1] < vals[2]

    @pytest.mark.parametrize("gamma", [0.2, 0.6])  # inside the window, and past its ceiling
    def test_box_values_equal_field_norms(self, gamma):
        # oracle: one stored field, then the weighted norm of each box's sub-field
        grid = RadialGrid(100.0, 1024, transform="fft")
        f, g, q, boxes = bump(0.5), bump(0.4, 0.3), 3.0, (2.5, 10.0, 20.0)
        fld = solve_linear(PARAMS, f, g, _time_grid(max(boxes)), grid)
        want = []
        for T in boxes:
            sel = fld.times <= T
            sub = SpaceTimeField(times=fld.times[sel], grid=grid, u=fld.u[sel], m=1, M=2.0)
            want.append(weighted_field_norm(sub, WeightSpec(gamma=gamma, q=q, M=2.0)))
        assert lhs_box_values(PARAMS, f, g, q, gamma, grid, boxes=boxes) == want

    @pytest.mark.parametrize("t_max", [2.0, 1.0])
    def test_time_grid_needs_a_box_past_two(self, t_max):
        # below t = 2 the log-spaced part would run backwards
        with pytest.raises(ParameterError, match="t_max > 2 required"):
            _time_grid(t_max)


class TestInhomogeneousRatio:
    def test_defaults_satisfy_pairing(self):
        q, g1, g2 = inhomogeneous_defaults(1, 3)
        assert g2 == pytest.approx(paired_gamma2(q, g1))
        assert g2 > 1.0 / q

    def test_single_pulse_ratio_finite(self):
        q, g1, g2 = inhomogeneous_defaults(1, 3)
        grid = RadialGrid(60.0, 2048, transform="fft")
        fam = [("pulse", _pulse(1.0, 2.0, bump(0.8)))]
        rows = inhomogeneous_ratio(PARAMS, fam, q, g1, g2, grid, t_max=15.0, dt=0.02)
        assert rows[0].ratio is not None and np.isfinite(rows[0].ratio)

    def test_window_violations_named(self):
        grid = RadialGrid(60.0, 512)
        fam = [("pulse", _pulse(1.0, 2.0, bump(0.8)))]
        with pytest.raises(ParameterError, match="q window"):
            inhomogeneous_ratio(PARAMS, fam, 2.0, 0.2, 0.6, grid)
        with pytest.raises(ParameterError, match="gamma1 window"):
            inhomogeneous_ratio(PARAMS, fam, 3.2, 0.5, 0.6, grid)
        with pytest.raises(ParameterError, match="gamma2 window"):
            inhomogeneous_ratio(PARAMS, fam, 3.2, 0.25, 0.2, grid)

    def test_source_support_checked(self):
        q, g1, g2 = inhomogeneous_defaults(1, 3)
        grid = RadialGrid(60.0, 512)

        def bad(t, r):
            return np.ones_like(np.asarray(r, dtype=float))

        with pytest.raises(SupportError, match="source leaks"):
            inhomogeneous_ratio(PARAMS, [("bad", bad)], q, g1, g2, grid, t_max=10.0)

    def test_leak_between_coarse_times_caught(self):
        # 3.2 < t < 3.6 holds no time of a 17-point scan of [0, 10], and 3.209 < t < 3.215 none of a
        # 400-point one; each holds the step midpoint 3.21 (dt 0.02), which names the leak
        q, g1, g2 = inhomogeneous_defaults(1, 3)
        grid = RadialGrid(60.0, 512)
        pulse = _pulse(1.0, 2.0, bump(0.8))
        for t_lo, t_hi in ((3.2, 3.6), (3.209, 3.215)):

            def leaky(t, r):
                far = np.where(np.abs(np.asarray(r) - 30.0) < 1.0, 1e-3, 0.0)
                return pulse(t, r) + (far if t_lo < t < t_hi else 0.0)

            with pytest.raises(SupportError, match=r"source leaks outside r <= phi\(t\)\+M-1 at t=3\.210 "):
                inhomogeneous_ratio(PARAMS, [("leaky", leaky)], q, g1, g2, grid, t_max=10.0)

    def test_short_pulse_is_not_zero(self):
        # (1.05, 1.2) holds no time of a 40-point scan of [0, 10], and (1.005, 1.02) none of a
        # 400-point one; each holds step midpoints of dt 0.02, so each forces the march
        q, g1, g2 = inhomogeneous_defaults(1, 3)
        grid = RadialGrid(60.0, 512, transform="fft")
        for t_lo, t_hi in ((1.05, 1.2), (1.005, 1.02)):
            (row,) = inhomogeneous_ratio(PARAMS, [("short", _pulse(t_lo, t_hi, bump(0.8)))], q, g1, g2, grid, t_max=10.0)
            assert row.flags != "excluded-zero" and np.isfinite(row.ratio) and row.ratio > 0

    def test_each_source_sampled_once_per_step(self):
        q, g1, g2 = inhomogeneous_defaults(1, 3)
        grid = RadialGrid(60.0, 512, transform="fft")
        pulse, times = _pulse(1.0, 2.0, bump(0.8)), []

        def counted(t, r):
            times.append(t)
            return pulse(t, r)

        inhomogeneous_ratio(PARAMS, [("counted", counted), ("none", lambda t, r: zero(r))], q, g1, g2, grid,
                            t_max=10.0, dt=0.05)
        _, mids = _steps(PARAMS, grid, 10.0, 0.05)
        assert len(times) == len(mids)
        assert np.allclose(times, (np.arange(len(mids)) + 0.5) * 0.05, rtol=0.0, atol=1e-12)


    def test_all_zero_family_marches(self):
        # zero sources are rows of the family: an all-zero family still marches (and so still
        # needs a grid that holds the box) and reads excluded-zero on every row
        q, g1, g2 = inhomogeneous_defaults(1, 3)
        grid, calls = RadialGrid(60.0, 512, transform="fft"), []

        def none(t, r):
            calls.append(t)
            return zero(r)

        rows = inhomogeneous_ratio(PARAMS, [("a", none), ("b", none)], q, g1, g2, grid, t_max=10.0, dt=0.05)
        assert rows == [RatioRow(n, 0.0, 0.0, None, 0.0, "excluded-zero") for n in "ab"]
        assert len(calls) == 2 * len(_steps(PARAMS, grid, 10.0, 0.05)[1])
        with pytest.raises(GridError, match="too small"):
            inhomogeneous_ratio(PARAMS, [("a", none)], q, g1, g2, RadialGrid(10.0, 512), t_max=10.0)


def _per_time(u, r, t, m, spec):
    """Characteristic-weight integral of one snapshot, the unbatched way: mask, weight, trapezoid."""
    mask = r <= finite_speed_radius(m, spec.M, t)
    rr = r[mask]
    weight = (phi(m, t) + spec.M) ** 2 - rr * rr
    return 4.0 * np.pi * np.trapezoid(weight ** (spec.gamma * spec.q) * np.abs(u[mask]) ** spec.q * rr * rr, rr)


def _field_row(name, field, spec, t_split, rhs):
    """One member's row the unbatched way: per-snapshot loop over a stored field, then the tail fit."""
    per_t = np.array([_per_time(u, field.grid.r, float(t), field.m, spec) for t, u in zip(field.times, field.u)])
    total = float(np.trapezoid(per_t, field.times))
    sel = (field.times >= t_split) & (per_t > 0)
    if sel.sum() >= 4:
        slope, logc = np.polyfit(np.log(field.times[sel]), np.log(per_t[sel]), 1)
        T = float(field.times.max())
        tail = np.exp(logc) * T**slope * T / (-slope - 1.0) if slope < -1.0 else np.inf
    else:
        tail = 0.0
    if total <= 0:
        frac = 0.0
    elif not np.isfinite(tail):
        frac = 1.0
    else:
        frac = float((1.0 + tail / total) ** (1.0 / spec.q) - 1.0)
    lhs = total ** (1.0 / spec.q)
    flags = "tail-dominated" if frac > TAIL_DOMINATED_FRACTION else ""
    return RatioRow(name, lhs, rhs, lhs / rhs, frac, flags)


class TestBatchEngine:
    """The ratio probes solve their members as one batch; each row must equal its unbatched solve."""

    def test_homogeneous_rows_equal_unbatched(self):
        grid = RadialGrid(100.0, 2048, transform="fft")
        fam = standard_family(2.0, 1)
        fam = [fam[0], ("null", zero, zero), fam[5], fam[7]]
        # a short box weights the early, narrow-support snapshots, where a changed
        # summation order in the batched radial integral would show
        q, gamma, delta, t_max = 3.0, 0.2, 0.3, 3.0
        rows = homogeneous_ratio(PARAMS, fam, q, gamma, delta, grid, t_max=t_max)

        s_f, s_g = sobolev_orders(1, 3, delta)
        sgrid = default_sobolev_grid(2.0)
        spec = WeightSpec(gamma=gamma, q=q, M=2.0)
        want = []
        for name, f, g in fam:
            if name == "null":
                want.append(RatioRow(name, 0.0, 0.0, None, 0.0, "excluded-zero"))
                continue
            fld = solve_linear(PARAMS, f, g, _time_grid(t_max), grid)
            rhs = sobolev_w_s1_norm(f, s_f, sgrid) + sobolev_w_s1_norm(g, s_g, sgrid)
            want.append(_field_row(name, fld, spec, t_max / 10.0, rhs))
        assert rows == want

    def test_inhomogeneous_rows_equal_unbatched(self, monkeypatch, symbol_rows):
        grid = RadialGrid(60.0, 1024, transform="fft")
        q, g1, g2 = inhomogeneous_defaults(1, 3)
        fam = [
            ("p1", _pulse(1.0, 2.0, bump(0.8))),
            ("none", lambda t, r: zero(r)),
            ("p2", _pulse(0.5, 1.5, bump(0.65))),
            ("p3", _pulse(1.0, 3.0, bump(0.9))),
        ]
        t_max, dt, T0 = 10.0, 0.05, 0.5
        calls = symbol_rows(tricomi_lab.semilinear)
        rows = inhomogeneous_ratio(PARAMS, fam, q, g1, g2, grid, T0=T0, t_max=t_max, dt=dt)
        assert len(calls) == 200 + 71  # one march for the whole family: 200 midpoints, 71 kept step ends
        assert not any(d for _, d in calls)  # the frame march reads symbol values only
        monkeypatch.undo()

        want = []
        for name, source in fam:
            if name == "none":
                want.append(RatioRow(name, 0.0, 0.0, None, 0.0, "excluded-zero"))
                continue
            ends, mids = _steps(PARAMS, grid, t_max, dt)
            c0 = np.zeros(grid.N - 1)
            src_spec = WeightSpec(gamma=g2, q=q / (q - 1.0), M=2.0)
            src_total = 0.0  # midpoint rule: the source frozen at each step's midpoint, as the march applies it

            def frozen(i, tm, um, live, s=source):
                nonlocal src_total
                vals = s(tm, grid.r)
                src_total += _per_time(vals, grid.r, tm, 1, src_spec)
                return vals

            keep = _snap(ends, _time_grid(t_max)[1:], "dt")
            _, _, kept = _march(1, grid, (ends, mids), c0, c0, frozen, keep=keep)
            times = np.array([t for t, _ in kept])
            sel = times >= T0 / 2.0
            u = np.array([u for _, u in kept])
            sol = SpaceTimeField(times=times[sel], grid=grid, u=u[sel], m=1, M=2.0)
            rhs = float((ends[1] * src_total) ** (1.0 / src_spec.q))
            want.append(_field_row(name, sol, WeightSpec(gamma=g1, q=q, M=2.0), t_max / 10.0, rhs))
        assert rows == want

    def test_family_evaluates_symbols_once_per_time(self, symbol_rows):
        grid = RadialGrid(60.0, 1024, transform="fft")
        q_min, q0 = q_bounds(1, 3)
        q = 0.5 * (q_min + q0)
        gamma = 0.5 * strichartz_gamma_bound(1, 3, q)
        delta = 0.5 * (1.5 + 1.0 / 3.0 - gamma - 1.0 / q)
        calls = symbol_rows(tricomi_lab.linear)
        rows = homogeneous_ratio(PARAMS, standard_family(2.0, 1), q, gamma, delta, grid, t_max=10.0)
        assert len(rows) == 8 and all(r.ratio is not None for r in rows)
        # one producer draws the symbol rows, in time order
        assert calls == [(t, False) for t in _time_grid(10.0)]

    def test_stopped_march_raises_not_truncates(self):
        grid = RadialGrid(60.0, 512, transform="fft")
        q, g1, g2 = inhomogeneous_defaults(1, 3)
        fam = [("small", _pulse(1.0, 2.0, bump(0.8))), ("huge", _pulse(1.0, 2.0, bump(0.8), 1e9))]
        with pytest.raises(TruncatedBoxError, match=r"of huge stopped at t=1\.") as exc:
            inhomogeneous_ratio(PARAMS, fam, q, g1, g2, grid, t_max=10.0, dt=0.05)
        assert "small" not in str(exc.value)


class TestConePrefix:
    """The probes form each snapshot only on the cone r <= phi(t)+M-1 that its weight integrates."""

    def test_per_time_integrals_equal_full_snapshots(self, monkeypatch):
        # the last cone ends within a few h of the wall check's limit, so the largest prefix is covered
        t_max, N, q, gamma = 10.0, 1024, 3.0, 0.2
        grid = RadialGrid(finite_speed_radius(1, 2.0, t_max) * N / (N - 4), N, transform="fft")
        r, times = grid.r, _time_grid(t_max)
        assert _cone_nodes(r, 1, 2.0, t_max) >= N - 4
        captured, inner = [], tricomi_lab.strichartz._per_time_integrals
        monkeypatch.setattr(
            tricomi_lab.strichartz, "_per_time_integrals", lambda *a: captured.append(inner(*a)) or captured[-1]
        )
        fam = standard_family(2.0, 1)  # two-bump and dilate-1.3 carry velocity data
        homogeneous_ratio(PARAMS, fam, q, gamma, 0.3, grid, t_max=t_max)
        for name, f, g in (fam[0], fam[7]):
            lhs_box_values(PARAMS, f, g, q, gamma, grid, boxes=(5.0, t_max))

        spec = WeightSpec(gamma=gamma, q=q, M=2.0)

        def full(f, g):
            fld = solve_linear(PARAMS, f, g, times, grid)
            assert fld.u.shape == (times.size, N + 1)
            return np.array([_weighted_integral(u, r, float(t), 1, spec) for t, u in zip(times, fld.u)])

        want = np.stack([full(f, g) for _, f, g in fam], axis=1)
        assert [a.shape for a in captured] == [want.shape, times.shape, times.shape]
        assert captured[0].tobytes() == want.tobytes()
        assert captured[1].tobytes() == want[:, 0].tobytes() and captured[2].tobytes() == want[:, 7].tobytes()

    def test_per_time_integrals_through_the_split(self, monkeypatch, small_split):
        self.test_per_time_integrals_equal_full_snapshots(monkeypatch)
        assert 1024 in small_split and 32 in small_split


class TestPipeline:
    """_per_time_integrals: symbols and coefficients on the caller, transforms and integrals on one worker."""

    GRID = RadialGrid(60.0, 1024, transform="fft")
    SPEC = WeightSpec(gamma=0.2, q=3.0, M=2.0)

    def _family(self):
        coeffs = [_data_coeffs(PARAMS, self.GRID, f, g) for _, f, g in standard_family(2.0, 1)]
        return np.array([c[0] for c in coeffs]), np.array([c[1] for c in coeffs])

    def _integrals(self, times, after=None):
        return tricomi_lab.strichartz._per_time_integrals(PARAMS, self.GRID, times, *self._family(), self.SPEC, after)

    @pytest.mark.parametrize("count", [72, 37, 1])
    def test_equals_one_thread_reduction(self, count):
        times = _time_grid(10.0)[-count:]
        r = self.GRID.r
        snaps = _snapshots(1, self.GRID, times, *self._family())  # every node, in this thread
        want = np.array([_weighted_integral(u, r, float(t), 1, self.SPEC) for t, u in zip(times, snaps)])
        got = self._integrals(times)
        assert got.shape == (count, 8) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [72, 37, 1])
    def test_one_thread_reduction_through_the_split(self, count, small_split):
        self.test_equals_one_thread_reduction(count)
        assert 1024 in small_split and 32 in small_split

    def _patch_worker(self, monkeypatch, errors=None, wait=None):
        """Patch the worker's reduction to record (thread, time); at a t in ``errors`` it waits, then raises."""
        seen, inner = [], _weighted_integral

        def patched(u, r, t, m, spec):
            seen.append((threading.get_ident(), t))
            if errors and t in errors:
                if wait is not None:
                    assert wait.wait(30.0)
                raise errors[t]
            return inner(u, r, t, m, spec)

        monkeypatch.setattr(tricomi_lab.strichartz, "_weighted_integral", patched)
        return seen

    def _patch_producer(self, monkeypatch, error_at=None, error=None, drawn_at=None, event=None):
        """Patch the caller's coefficient stream to record each draw's thread.

        At draw ``drawn_at`` it sets ``event``; at draw ``error_at`` it raises ``error``.
        """
        drawn, inner = [], tricomi_lab.strichartz._coeff_stream

        def patched(*args):
            for i, c in enumerate(inner(*args)):
                drawn.append(threading.get_ident())
                if i == drawn_at:
                    event.set()
                if i == error_at:
                    raise error
                yield c

        monkeypatch.setattr(tricomi_lab.strichartz, "_coeff_stream", patched)
        return drawn

    def test_one_worker_joined_after_success(self, monkeypatch):
        threads = threading.active_count()
        seen = self._patch_worker(monkeypatch)
        drawn = self._patch_producer(monkeypatch)
        times = _time_grid(10.0)
        self._integrals(times)
        assert threading.active_count() == threads
        assert set(drawn) == {threading.get_ident()} and len(drawn) == 72
        assert [t for _, t in seen] == times.tolist()  # in time order
        assert len({ident for ident, _ in seen} - {threading.get_ident()}) == 1 == len({ident for ident, _ in seen})

    def test_worker_runs_in_callers_context(self, monkeypatch):
        var = contextvars.ContextVar("probe")
        seen, inner = [], _weighted_integral

        def patched(u, r, t, m, spec):
            seen.append((threading.get_ident(), np.geterr()["over"], var.get(None)))
            return inner(u, r, t, m, spec)

        monkeypatch.setattr(tricomi_lab.strichartz, "_weighted_integral", patched)
        var.set("set")
        with np.errstate(over="raise"):
            self._integrals(_time_grid(10.0))
        assert len(seen) == 72 and {ident for ident, _, _ in seen} != {threading.get_ident()}
        assert {(over, value) for _, over, value in seen} == {("raise", "set")}

    def test_after_runs_on_the_caller_once_every_time_is_handed_off(self, monkeypatch):
        drawn = self._patch_producer(monkeypatch)
        calls = []
        got = self._integrals(_time_grid(10.0), lambda: calls.append((threading.get_ident(), len(drawn))))
        assert calls == [(threading.get_ident(), 72)] and got.shape == (72, 8)

    def test_worker_error_reaches_caller(self, monkeypatch):
        times = _time_grid(10.0)
        threads = threading.active_count()
        error = AccuracyError(f"late failure at t={times[-1]}")
        self._patch_worker(monkeypatch, {float(times[-1]): error})
        with pytest.raises(AccuracyError, match=r"^late failure at t=10\.0$") as exc:
            self._integrals(times)
        assert exc.value is error
        assert threading.active_count() == threads

    def _outcome(self, times):
        """The error _integrals(times) raises, in a daemon thread, so a deadlock fails the test, not the session."""
        outcome = []

        def call():
            try:
                self._integrals(times)
            except TricomiLabError as exc:
                outcome.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(60.0)
        assert not caller.is_alive(), "the pipeline deadlocked"
        return outcome[0]

    def test_worker_error_wins_over_producer_error(self, monkeypatch):
        times = _time_grid(10.0)
        threads = threading.active_count()
        drawn_2 = threading.Event()  # the worker fails only once the caller has drawn time 2
        first, second = ParameterError("worker at time 0"), GridError("producer at time 2")
        self._patch_worker(monkeypatch, {float(times[0]): first}, drawn_2)
        drawn = self._patch_producer(monkeypatch, error_at=2, error=second, drawn_at=2, event=drawn_2)
        error = self._outcome(times)
        assert error is first and error.__context__ is second  # both raised; the join waited
        assert len(drawn) == 3 and threading.active_count() == threads

    def test_producer_stops_at_a_full_handoff_once_the_worker_fails(self, monkeypatch):
        # the worker fails on time 0 only after the caller has drawn time 2: time 1 fills the
        # handoff, so the caller waits on it with time 2 in hand, and must wake, not deadlock
        times = _time_grid(10.0)
        threads = threading.active_count()
        drawn_2 = threading.Event()
        error = SupportError("worker at time 0")
        self._patch_worker(monkeypatch, {float(times[0]): error}, drawn_2)
        drawn = self._patch_producer(monkeypatch, drawn_at=2, event=drawn_2)
        assert self._outcome(times) is error
        assert len(drawn) == 3  # nothing drawn after the refused handoff
        assert threading.active_count() == threads

    def test_worker_only_drains_once_it_fails(self, monkeypatch):
        # times 1 and 2 are handed off while the worker fails on time 0; it takes them off the queue
        # so that the caller's puts return, but reduces neither
        times = _time_grid(10.0)
        drawn_2 = threading.Event()
        error = SupportError("worker at time 0")
        seen = self._patch_worker(monkeypatch, {float(times[0]): error}, drawn_2)
        self._patch_producer(monkeypatch, drawn_at=2, event=drawn_2)
        assert self._outcome(times) is error
        assert [t for _, t in seen] == [float(times[0])]

    def test_producer_error_alone_reaches_caller(self, monkeypatch):
        times = _time_grid(10.0)
        threads = threading.active_count()
        error = ParameterError("producer at time 5")
        seen = self._patch_worker(monkeypatch)
        self._patch_producer(monkeypatch, error_at=5, error=error)
        with pytest.raises(ParameterError, match="producer at time 5") as exc:
            self._integrals(times, lambda: pytest.fail("after() ran past a producer error"))
        assert exc.value is error
        assert [t for _, t in seen] == times[:5].tolist()  # the worker drained what it was handed
        assert threading.active_count() == threads


    def test_handoff_under_stress(self):
        # three callers (more than the cores) each feed 2000 items through a pipeline of their own, with
        # the interpreter switching threads every microsecond; a lost or repeated handoff breaks the order
        def feed(out):
            tricomi_lab.strichartz._pipeline(((i,) for i in range(2000)), out.append)

        interval, outs = sys.getswitchinterval(), [[] for _ in range(3)]
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=feed, args=(out,), daemon=True) for out in outs]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert outs == [list(range(2000))] * 3

class TestLittlewoodPaley:
    def test_cutoff_support(self):
        beta = DyadicCutoff()
        tau = np.array([0.4, 0.5, 2.0, 2.5])
        assert np.all(beta(tau) == 0.0)
        assert beta(np.array([1.0]))[0] == pytest.approx(1.0)

    def test_partition_of_unity(self):
        tau = np.geomspace(1e-3, 1e3, 10_000)
        assert lp_partition_check(tau) < 1e-12

    def test_tau_one_exact(self):
        assert lp_partition_check(np.array([1.0])) < 1e-15

    def test_narrow_window_negative_control(self):
        tau = np.geomspace(1e-2, 1e2, 200)
        assert lp_partition_check(tau, half_window=0) > 0.1

    def test_reconstruction(self):
        grid = RadialGrid(20.0, 1024)
        snap = SpectralField.from_radial(grid, bump(0.7)(grid.r))
        bands = dyadic_decompose(snap)
        total = np.sum([b.coeffs for _, b in bands], axis=0)
        assert np.abs(total - snap.coeffs).max() < 1e-10 * np.abs(snap.coeffs).max()

    def test_single_band_input(self):
        # one coefficient placed exactly at lambda = 2^j excites one band only
        grid = RadialGrid(16.0 * np.pi, 512)  # lambda_k = k/16
        coeffs = np.zeros(grid.N - 1)
        k = 64  # lambda = 4 = 2^2
        coeffs[k - 1] = 1.0
        assert grid.lam[k - 1] == pytest.approx(4.0)
        bands = dyadic_decompose(SpectralField(grid, coeffs))
        nonzero = [(j, b) for j, b in bands if np.abs(b.coeffs).max() > 0]
        assert len(nonzero) == 1 and nonzero[0][0] == 2

    def test_square_function_parseval_band(self):
        grid = RadialGrid(20.0, 1024)
        snap = SpectralField.from_radial(grid, bump(0.7)(grid.r))
        ratio = square_function_ratio(snap)
        assert 1.0 / 3.0 < ratio < 3.0
        # the tight pinch from "at most two overlapping bands"
        assert 0.5 - 1e-9 <= ratio <= 1.0 + 1e-9
