"""Exponent arithmetic: closed forms, windows, orderings, historical ranges."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricomi_lab.errors import EmptyIntervalError, ParameterError
from tricomi_lab.exponents import (
    ExponentReport,
    ModelParams,
    damped_wave_coeffs,
    exponent_report,
    gamma_interval,
    gamma_window_formula,
    p_conf,
    p_crit,
    q_bounds,
    strauss_exponent,
    strichartz_gamma_bound,
    yagdjian_ranges,
)


def crit_quadratic(m, n, p):
    k = m + 2.0
    return (k * n / 2.0 - 1.0) * p * p + (k * (1.0 - n / 2.0) - 3.0) * p - k


def strauss_quadratic(n, p):
    return (n - 1.0) * p * p - (n + 1.0) * p - 2.0


class TestCriticalExponent:
    def test_m0_n3_closed_form(self):
        # oracle: (n-1)p^2-(n+1)p-2 = 0 at n=3 has root 1+sqrt(2)
        assert p_crit(0, 3) == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)

    def test_m1_n3_closed_form(self):
        # clearing the half-integer coefficients gives 7p^2 - 9p - 6 = 0
        root = (9.0 + math.sqrt(249.0)) / 14.0
        assert p_crit(1, 3) == pytest.approx(root, abs=1e-12)
        assert abs(7 * p_crit(1, 3) ** 2 - 9 * p_crit(1, 3) - 6) < 1e-12

    @pytest.mark.parametrize("n", range(3, 11))
    def test_m0_reduces_to_strauss(self, n):
        assert p_crit(0, n) == pytest.approx(strauss_exponent(n), abs=1e-12)

    @given(m=st.integers(0, 12), n=st.integers(3, 12))
    @settings(max_examples=60, deadline=None)
    def test_root_residual(self, m, n):
        p = p_crit(m, n)
        assert abs(crit_quadratic(m, n, p)) < 1e-12
        assert p > 1.0

    def test_rejects_small_dimension(self):
        with pytest.raises(ParameterError):
            p_crit(1, 2)


class TestConformalExponent:
    @pytest.mark.parametrize(
        "m,n,expected",
        [(1, 3, 15.0 / 7.0), (0, 3, 3.0), (2, 3, 1.8)],
    )
    def test_values(self, m, n, expected):
        assert p_conf(m, n) == pytest.approx(expected, abs=1e-15)

    def test_ordering_grid(self):
        for m in range(1, 11):
            for n in range(3, 11):
                assert p_crit(m, n) < p_conf(m, n)


class TestStraussExponent:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_residual(self, n):
        p = strauss_exponent(n)
        assert abs(strauss_quadratic(n, p)) < 1e-12
        assert p > 1.0

    def test_n3(self):
        assert strauss_exponent(3) == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-14)


class TestGammaInterval:
    def test_reference_point(self):
        lo, hi = gamma_interval(ModelParams(1, 3, 2.0))
        assert lo == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert hi == pytest.approx(5.0 / 18.0, abs=1e-12)

    def test_near_critical_width(self):
        p = p_crit(1, 3) + 1e-9
        lo, hi = gamma_interval(ModelParams(1, 3, p))
        assert 0.0 < hi - lo < 1e-6

    def test_width_root_is_pcrit(self):
        # the window width vanishes exactly at p_crit; bisect for its root
        def width(p):
            lo, hi = gamma_window_formula(1, 3, p)
            return hi - lo

        a, b = 1.01, p_conf(1, 3)
        assert width(a) < 0 < width(b)
        for _ in range(80):
            mid = 0.5 * (a + b)
            if width(mid) < 0:
                a = mid
            else:
                b = mid
        assert 0.5 * (a + b) == pytest.approx(p_crit(1, 3), abs=1e-9)

    def test_out_of_range(self):
        with pytest.raises(ParameterError, match="exponent out of range"):
            gamma_interval(ModelParams(1, 3, 1.5))
        with pytest.raises(ParameterError, match="exponent out of range"):
            gamma_interval(ModelParams(1, 3, 2.2))

    @pytest.mark.parametrize("m", range(1, 11))
    @pytest.mark.parametrize("n", range(3, 11))
    def test_window_nonempty_across_range(self, m, n):
        lo_p, hi_p = p_crit(m, n), p_conf(m, n)
        for p in np.linspace(lo_p, hi_p, 202)[1:-1]:
            lo, hi = gamma_interval(ModelParams(m, n, float(p)))
            assert lo < hi

    def test_width_shrinks_toward_pcrit(self):
        pc = p_crit(1, 3)
        widths = []
        for dp in (1e-2, 1e-4, 1e-6):
            lo, hi = gamma_interval(ModelParams(1, 3, pc + dp))
            widths.append(hi - lo)
        assert widths[0] > widths[1] > widths[2]

    def test_matches_strichartz_bound_at_q_eq_p_plus_1(self):
        # the window ceiling equals the estimate's gamma bound at q = p+1
        for p in (1.9, 2.0, 2.1):
            _, hi = gamma_interval(ModelParams(1, 3, p))
            assert hi == pytest.approx(strichartz_gamma_bound(1, 3, p + 1.0), abs=1e-13)


class TestDampedWaveCoeffs:
    def test_m1(self):
        assert damped_wave_coeffs(1) == (pytest.approx(1.0 / 3.0), pytest.approx(2.0 / 3.0))

    def test_m0(self):
        assert damped_wave_coeffs(0) == (0.0, 0.0)

    def test_monotone_limit(self):
        mus = [damped_wave_coeffs(m)[0] for m in range(1, 65)]
        assert all(b > a for a, b in zip(mus, mus[1:]))
        assert mus[-1] < 1.0


class TestQBounds:
    def test_m1_n3(self):
        q_min, q0 = q_bounds(1, 3)
        assert q_min == pytest.approx(16.0 / 7.0, abs=1e-14)
        assert q0 == pytest.approx(22.0 / 7.0, abs=1e-14)

    def test_m0_n3_classical(self):
        assert q_bounds(0, 3) == (pytest.approx(3.0), pytest.approx(4.0))

    def test_ordering_sweep(self):
        for m in range(0, 21):
            for n in range(3, 11):
                q_min, q0 = q_bounds(m, n)
                assert q0 > q_min
        # q_min > 2 only below the m = 2 crossover
        for m in (0, 1):
            for n in range(3, 11):
                assert q_bounds(m, n)[0] > 2.0
        assert q_bounds(2, 3)[0] == pytest.approx(2.0)


class TestStrichartzGammaBound:
    def test_reference_value(self):
        assert strichartz_gamma_bound(1, 3, 22.0 / 7.0) == pytest.approx(7.0 / 22.0, abs=1e-14)

    def test_boundary_errors(self):
        q_min, _ = q_bounds(1, 3)
        with pytest.raises(ParameterError, match="q too small"):
            strichartz_gamma_bound(1, 3, q_min)

    def test_monotone_in_q(self):
        qs = np.linspace(2.3, 8.0, 40)
        vals = [strichartz_gamma_bound(1, 3, q) for q in qs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestYagdjianRanges:
    def test_blowup_range(self):
        # the older blowup range is 1 < p < 11/7 at (m=1, n=3)
        assert yagdjian_ranges(ModelParams(1, 3, 1.5)).blowup_range_holds
        assert not yagdjian_ranges(ModelParams(1, 3, 2.5)).blowup_range_holds

    def test_per_inequality_flags(self):
        rep = yagdjian_ranges(ModelParams(1, 3, 2.0))
        for flag in (rep.global_cond_1, rep.global_cond_2, rep.global_cond_3):
            assert isinstance(flag, bool)
        assert rep.global_conditions_hold == (
            rep.global_cond_1 and rep.global_cond_2 and rep.global_cond_3
        )

    def test_gap_exists(self):
        # some p strictly between p_crit and p_conf is covered by neither
        # the older global-existence conditions nor the older blowup range
        pc, pf = p_crit(1, 3), p_conf(1, 3)
        found = False
        for p in np.linspace(pc, pf, 101)[1:-1]:
            rep = yagdjian_ranges(ModelParams(1, 3, float(p)))
            if not rep.global_conditions_hold and not rep.blowup_range_holds:
                found = True
                break
        assert found


class TestReportAndParams:
    def test_report_invariants(self):
        rep = exponent_report(1, 3)
        assert isinstance(rep, ExponentReport)
        assert rep.p_crit < rep.p_conf
        assert rep.q0 > rep.q_min > 2.0
        assert exponent_report(5, 4).q0 > exponent_report(5, 4).q_min

    def test_report_rejects_empty_window(self):
        good = exponent_report(1, 3)
        with pytest.raises(EmptyIntervalError, match="p_crit < p_conf"):
            ExponentReport(
                p_crit=good.p_conf, p_conf=good.p_conf, p_strauss=good.p_strauss,
                q_min=good.q_min, q0=good.q0, mu_m=good.mu_m, alpha_m=good.alpha_m,
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=0, n=3, p=2.0),
            dict(m=1, n=2, p=2.0),
            dict(m=1, n=3, p=1.0),
            dict(m=1, n=3, p=2.0, eps=0.0),
            dict(m=1, n=3, p=2.0, M=1.0),
        ],
    )
    def test_params_validation(self, kwargs):
        with pytest.raises(ParameterError):
            ModelParams(**kwargs)
