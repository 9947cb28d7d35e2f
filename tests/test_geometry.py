"""Phase, characteristic weight, and cone-inequality sampling checks."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricomi_lab.errors import ParameterError
from tricomi_lab.geometry import (
    UNSHIFTED_N_R,
    UNSHIFTED_N_T,
    WeightSpec,
    _cone_samples,
    bisect_max_delta,
    characteristic_weight,
    finite_speed_radius,
    max_shift,
    phi,
    phi_inverse,
    verify_shifted_cone_bounds,
    verify_unshifted_cone_inequality,
)


class TestPhase:
    def test_m2_is_half_t_squared(self):
        for t in (0.0, 1.0, 3.0):
            assert phi(2, t) == pytest.approx(t * t / 2.0, abs=1e-15)

    def test_m1_at_1(self):
        assert phi(1, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            phi(1, -0.1)
        with pytest.raises(ParameterError):
            phi_inverse(1, -0.1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_convex_for_m_ge_1(self, m):
        t = np.linspace(0.05, 50.0, 400)
        h = 1e-3
        second = (phi(m, t + h) - 2.0 * phi(m, t) + phi(m, t - h)) / (h * h)
        assert np.all(second >= -1e-9)

    def test_phi_inverse_values(self):
        assert phi_inverse(2, 2.0) == pytest.approx(2.0, abs=1e-14)
        assert phi_inverse(1, 2.0 / 3.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_round_trip_12_decades(self, m):
        t = np.geomspace(1e-6, 1e6, 200)
        back = phi_inverse(m, phi(m, t))
        assert np.max(np.abs(back - t) / t) < 1e-14

    @given(m=st.integers(1, 8), t=st.floats(1e-6, 1e6))
    @settings(max_examples=80, deadline=None)
    def test_monotone(self, m, t):
        assert phi(m, t * 1.0000001) > phi(m, t)

    # each phase's formula on a 0-d array, as a scalar input reaches it
    POWERS = {phi: lambda m, t: 2.0 / (m + 2.0) * t ** ((m + 2.0) / 2.0),
              phi_inverse: lambda m, s: ((m + 2.0) * s / 2.0) ** (2.0 / (m + 2.0))}

    @pytest.mark.parametrize("fn", [phi, phi_inverse])
    @pytest.mark.parametrize("x", [0.7, np.float64(0.7), np.array(0.7), 3, -0.0, float("nan")])
    def test_scalar_input_kinds(self, fn, x):
        # a scalar's sign check is a float comparison; NaN and -0.0 pass it, as they pass (t < 0).any()
        out = fn(2, x)
        assert type(out) is float
        assert repr(out) == repr(float(self.POWERS[fn](2, np.asarray(x, dtype=float))))

    @pytest.mark.parametrize("fn", [phi, phi_inverse])
    @pytest.mark.parametrize("x", [-1e-300, -np.inf, np.float64(-1e-300), np.array(-np.inf)])
    def test_scalar_negative_rejected(self, fn, x):
        with pytest.raises(ParameterError, match=">= 0 required"):
            fn(1, x)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_scalar_phi_is_a_0d_array_power(self, m):
        # the symbols dump's times: a scalar phi keeps the bits of numpy's array power, which at
        # exponents 1.5 and 2.5 differ from libm's pow (a Python or np.float64 power) at some points
        for w in np.geomspace(1e-2, 100.0, 256):
            t = phi_inverse(m, float(w))
            assert phi(m, t) == float(2.0 / (m + 2.0) * np.asarray(t) ** ((m + 2.0) / 2.0))


class TestCharacteristicWeight:
    def test_origin_value(self):
        assert characteristic_weight(1, 2.0, 0.0, 0.0) == pytest.approx(4.0)

    def test_data_support_boundary(self):
        for M in (1.5, 2.0, 4.0):
            w = characteristic_weight(1, M, 0.0, M - 1.0)
            assert w == pytest.approx(2.0 * M - 1.0, abs=1e-12)

    def test_lower_bound_inside_support(self):
        rng = np.random.default_rng(7)
        m, M = 1, 2.0
        t = rng.uniform(0.0, 50.0, 10_000)
        r = rng.uniform(0.0, 1.0, 10_000) * (phi(m, t) + M - 1.0)
        w = characteristic_weight(m, M, t, r)
        assert np.all(w >= 2.0 * (phi(m, t) + M) - 1.0 - 1e-9)

    def test_weight_spec_validation(self):
        with pytest.raises(ParameterError):
            WeightSpec(gamma=-0.1, q=2.0, M=2.0)
        with pytest.raises(ParameterError):
            WeightSpec(gamma=0.1, q=0.9, M=2.0)


class TestUnshiftedCone:
    def test_small_delta_holds(self):
        chk = verify_unshifted_cone_inequality(1, 2.0, 0.5, 1e-4)
        assert chk.holds and chk.worst_margin >= 0.0

    def test_large_delta_fails(self):
        assert not verify_unshifted_cone_inequality(1, 2.0, 0.5, 0.9).holds

    def test_delta_zero_trivial(self):
        assert verify_unshifted_cone_inequality(1, 2.0, 0.5, 0.0).holds

    def test_bisected_max(self):
        d = bisect_max_delta(1, 2.0, 0.5)
        assert d >= 1e-4
        # feasibility is an interval: the bisected value holds, slightly above fails
        assert verify_unshifted_cone_inequality(1, 2.0, 0.5, d * 0.99).holds
        assert not verify_unshifted_cone_inequality(1, 2.0, 0.5, d * 1.10).holds

    @pytest.mark.parametrize("m,M,T0", [(1, 2.0, 0.5), (2, 1.5, 0.9)])
    def test_max_delta_is_sharp(self, m, M, T0):
        # the closed form is the sampled supremum: it holds, and 1e-6 above fails
        d = bisect_max_delta(m, M, T0)
        assert verify_unshifted_cone_inequality(m, M, T0, d).holds
        assert not verify_unshifted_cone_inequality(m, M, T0, d * (1 + 1e-6)).holds

    def test_max_delta_holds_on_scan(self):
        # the delta_max the CLI prints must pass the holds check, not miss it by rounding
        misses = [
            (m, M, T0)
            for m in range(1, 5)
            for M in np.linspace(1.1, 4.0, 15)
            for T0 in np.linspace(0.05, 0.95, 15)
            if not verify_unshifted_cone_inequality(m, M, T0, bisect_max_delta(m, M, T0)).holds
        ]
        assert misses == []

    def test_smaller_t0_shrinks_max_delta(self):
        d_big = bisect_max_delta(1, 2.0, 0.5)
        d_small = bisect_max_delta(1, 2.0, 0.1)
        assert d_small > 0.0
        assert d_small < d_big

    def test_validation(self):
        with pytest.raises(ParameterError):
            verify_unshifted_cone_inequality(1, 2.0, 0.5, 1.5)
        with pytest.raises(ParameterError):
            verify_unshifted_cone_inequality(1, 2.0, 1.5, 0.1)


class TestShiftedCone:
    def test_nu_zero_positive(self):
        b = verify_shifted_cone_bounds(1, 2.0, 0.5, 0.0)
        assert b.c_lower > 0.0

    def test_extreme_shift_positive(self):
        nu = max_shift(1, 2.0, 0.5)
        b = verify_shifted_cone_bounds(1, 2.0, 0.5, nu)
        assert b.c_lower > 1e-6
        assert np.isfinite(b.C_upper)

    @pytest.mark.parametrize("frac", [0.0, 0.5, 1.0])
    def test_ratio_bounds_across_shifts(self, frac):
        nu = frac * max_shift(1, 2.0, 0.5)
        b = verify_shifted_cone_bounds(1, 2.0, 0.5, nu)
        assert 0.0 < b.c_lower <= b.C_upper < np.inf

    def test_random_sampling_agrees(self):
        nu = max_shift(1, 2.0, 0.5)
        det = verify_shifted_cone_bounds(1, 2.0, 0.5, nu)
        rnd = verify_shifted_cone_bounds(
            1, 2.0, 0.5, nu, rng=np.random.default_rng(11), n_t=200, n_r=60
        )
        assert rnd.c_lower > 0.3 * det.c_lower

    def test_nu_out_of_range(self):
        with pytest.raises(ParameterError, match="nu out of range"):
            verify_shifted_cone_bounds(1, 2.0, 0.5, max_shift(1, 2.0, 0.5) + 0.5)


def _shifted_reference(m, M, T0, nu, rng=None, n_t=120, n_r=40, n_angle=12):
    """The shifted-cone ratio's (min, max) on the former (t, r, angle) layout, in the same operations."""
    ts, rr = _cone_samples(m, T0, T0 / 2.0, n_t, n_r, rng=rng)
    ph = phi(m, ts)[:, None, None]
    rho = rr[:, :, None]
    theta = np.linspace(0.0, np.pi, n_angle)[None, None, :]
    x_sq = nu * nu + rho**2 + 2.0 * nu * rho * np.cos(theta)
    ratio = (ph**2 - rho**2) / ((ph + M) ** 2 - x_sq)
    return float(ratio.min()), float(ratio.max())


class TestShiftedSamplerLayout:
    @pytest.mark.parametrize("m, M", [(1, 2.0), (2, 1.6), (3, 2.5)])
    @pytest.mark.parametrize("frac", [0.0, 0.5, 1.0])
    def test_angle_first_equals_the_former_layout(self, m, M, frac):
        # the sampler's layout is a speed choice only: its bounds keep their bits
        draws = np.random.default_rng(100 * m + int(4 * frac))
        for seed in range(4):
            T0 = float(draws.uniform(0.05, 0.95))
            nu = frac * max_shift(m, M, T0)
            for draw in (False, True):  # evenly spaced, then random radial fractions
                got = verify_shifted_cone_bounds(m, M, T0, nu, rng=np.random.default_rng(seed) if draw else None)
                want = _shifted_reference(m, M, T0, nu, rng=np.random.default_rng(seed) if draw else None)
                assert (got.c_lower, got.C_upper) == want

    @pytest.mark.parametrize("n_t, n_r, n_angle", [(7, 5, 1), (30, 9, 2), (64, 17, 31)])
    def test_other_sample_counts_equal_the_former_layout(self, n_t, n_r, n_angle):
        nu, counts = 0.7 * max_shift(2, 1.8, 0.6), {"n_t": n_t, "n_r": n_r, "n_angle": n_angle}
        got = verify_shifted_cone_bounds(2, 1.8, 0.6, nu, **counts)
        assert (got.c_lower, got.C_upper) == _shifted_reference(2, 1.8, 0.6, nu, **counts)


class TestSamplerSignatures:
    @pytest.mark.parametrize("fn, counts", [
        (verify_unshifted_cone_inequality, {"n_t": UNSHIFTED_N_T, "n_r": UNSHIFTED_N_R}),
        (verify_shifted_cone_bounds, {"n_t": 120, "n_r": 40, "n_angle": 12}),
    ])
    def test_sample_counts_stay_parameters(self, fn, counts):
        # perfbench/layers.py binds a call's arguments and reads these names with their defaults
        params = inspect.signature(fn).parameters
        assert {name: params[name].default for name in counts if name in params} == counts


class TestFiniteSpeed:
    def test_initial_radius(self):
        assert finite_speed_radius(1, 2.0, 0.0) == pytest.approx(1.0)

    def test_monotone(self):
        t = np.linspace(0.0, 20.0, 100)
        vals = np.array([finite_speed_radius(1, 2.0, tt) for tt in t])
        assert np.all(np.diff(vals) > 0.0)
