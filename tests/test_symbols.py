"""Symbol evaluations: three routes, asymptotics, envelopes, Wronskian."""

import inspect
import math
import warnings

import numpy as np
import pytest
from scipy.special import hyp0f1 as scipy_hyp0f1
from scipy.special import jv as scipy_jv

import tricomi_lab.symbols as symbols

from tricomi_lab.errors import AccuracyError, ParameterError
from tricomi_lab.geometry import phi, phi_inverse
from tricomi_lab.symbols import (
    W_SWITCH,
    Z_SWITCH,
    _hyp0f1_kernel,
    amplitude_envelope_bound,
    asymptotic_components,
    evolve_mode,
    evolve_mode_many,
    fit_upper_envelope_slope,
    kummer_M,
    symbol_matrix,
    symbol_stream,
    v1_symbol,
    v2_symbol,
)


def w_to_t(m, w, lam=1.0):
    return phi_inverse(m, w / lam)


def kernel_j(nu, w):
    """J_nu(w) = Lambda_nu(w) (w/2)^nu / Gamma(nu + 1) of one order from the symbols' kernel, on one ascending row."""
    w = np.asarray(w, dtype=float)
    return _hyp0f1_kernel((nu,), w[None])[0, 0] * (0.5 * w) ** nu / math.gamma(nu + 1.0)


def former_even_series(a, z):
    """The former scalar loop of ``_kummer_confluent_even``, in complex arithmetic, one z at a time."""
    x = z * z / 16.0
    c = a + 0.5
    s = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(2000):
        term *= x / ((c + k) * (k + 1.0))
        s += term
        if abs(term) <= 1e-17 * abs(s):
            break
    return np.exp(z / 2.0) * s


def former_components(a, b, z):
    """The values of the former ``asymptotic_components``, which summed the minus component on its own."""
    s_plus, _ = symbols._asym_sum(b - a, 1.0 - a, z)
    s_minus, _ = symbols._asym_sum(a, a - b + 1.0, -z)
    pre_plus = math.gamma(b) * symbols._rgamma(a) * z ** (a - b)
    pre_minus = math.gamma(b) * symbols._rgamma(b - a) * (-z) ** (-a)
    return pre_plus * s_plus, pre_minus * s_minus


def symbol_families(m):
    """The parameters a of M(a, 2a; z) in V1 and V2."""
    return m / (2.0 * (m + 2.0)), (m + 4.0) / (2.0 * (m + 2.0))


def former_symbols(m, t, lam):
    """(V1, V2) of the Kummer route at one t, as the former scalar code formed them."""
    z = 2j * (phi(m, t) * lam)

    def kummer(a):
        if abs(z) <= Z_SWITCH:
            return former_even_series(a, z)
        a_plus, a_minus = former_components(a, 2.0 * a, z)
        return np.exp(z) * a_plus + a_minus

    a1, a2 = symbol_families(m)
    return np.exp(-z / 2.0) * kummer(a1), t * np.exp(-z / 2.0) * kummer(a2)


class TestBesselRoute:
    @pytest.mark.parametrize("nu", [-1.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0, -0.25, 1.25])
    def test_against_scipy(self, nu):
        w = np.geomspace(1e-3, 900.0, 400)
        assert np.abs(kernel_j(nu, w) - scipy_jv(nu, w)).max() < 1e-10

    def test_overlap_band(self):
        # series and asymptotics agree where both are trustworthy (the 30-term series up to w = 16)
        from tricomi_lab.symbols import _hyp0f1_hankel, _hyp0f1_series

        w = np.linspace(12.5, 16.0, 40)
        for nu in (-1.0 / 3.0, 0.25, 1.25):
            assert np.abs(_hyp0f1_series((nu,), w) - _hyp0f1_hankel((nu,), w)).max() < 1e-8

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_branches_against_mpmath(self, m):
        # both branches at their handover and far from it, to 50 digits
        from tricomi_lab.symbols import _hyp0f1_hankel, _hyp0f1_series

        mpmath = pytest.importorskip("mpmath")
        nu = 1.0 / (m + 2.0)
        below = np.array([1e-3, 1.0, W_SWITCH - 0.5, W_SWITCH - 1e-9])
        above = np.array([W_SWITCH + 1e-9, W_SWITCH + 0.5, 40.0, 900.0])
        with mpmath.workdps(50):
            for order in (-nu, 1.0 - nu, nu, 1.0 + nu):
                for branch, ws in ((_hyp0f1_series, below), (_hyp0f1_hankel, above)):
                    got = branch((order,), ws)[0]
                    ref = np.array([float(mpmath.besselj(order, mpmath.mpf(w))) for w in ws])
                    assert np.abs(got * (0.5 * ws) ** order / math.gamma(order + 1.0) - ref).max() < 2e-12
                    assert np.array_equal(_hyp0f1_kernel((order,), ws[None])[0, 0], got)

    @pytest.mark.parametrize("derivatives", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_series_is_the_column_horner(self, m, derivatives):
        # one scalar Horner per order gives every value of the column-broadcast Horner over all orders
        from tricomi_lab.symbols import _SERIES_TERMS, _hyp0f1_series

        nu = 1.0 / (m + 2.0)
        nus = (-nu, nu, 1.0 - nu, 1.0 + nu) if derivatives else (-nu, nu)
        k = np.arange(1.0, _SERIES_TERMS)
        coef = np.cumprod(1.0 / (k * (np.array(nus)[:, None] + k)), axis=1)
        w = np.concatenate(([0.0], np.random.default_rng(m).uniform(0.0, W_SWITCH, 2000), [W_SWITCH]))
        x = -0.25 * w * w
        want = coef[:, -1:] * x
        for c in coef.T[-2::-1]:
            want += c[:, None]
            want *= x
        want += 1.0
        got = _hyp0f1_series(nus, w)
        assert [repr(v) for v in got.ravel().tolist()] == [repr(v) for v in want.ravel().tolist()]

    def test_negative_argument_rejected(self):
        # the stream checks lambda once; the kernel takes ascending rows from w >= 0 only
        with pytest.raises(ParameterError, match="lambda"):
            symbol_matrix(1, 1.0, np.array([-1.0]))

    @pytest.mark.parametrize("w", [[2.0], np.array([2.0])])
    def test_one_element_input_gives_an_array(self, w):
        got = kernel_j(0.5, w)
        assert isinstance(got, np.ndarray) and got.shape == (1,)
        assert got[0] == kernel_j(0.5, [2.0, 3.0])[0]

    @pytest.mark.parametrize("nu,limit", [(-1.0 / 3.0, np.inf), (-0.9, np.inf), (0.0, 1.0), (1.0 / 3.0, 0.0)])
    def test_zero_argument_is_the_limit_without_warning(self, nu, limit):
        # Lambda_nu(0) = 0F1(; nu + 1; 0) = 1 for every order, and J_nu(w) -> limit follows from it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _hyp0f1_kernel((nu,), np.array([[0.0, 1.0]]))[0, 0]
        assert got[0] == 1.0 and got[1] == pytest.approx(scipy_hyp0f1(nu + 1.0, -0.25), rel=1e-12)
        with np.errstate(divide="ignore"):
            assert kernel_j(nu, [0.0])[0] == limit

    @pytest.mark.parametrize("nu", [-1.0 / 3.0, 1.0 / 3.0, -0.25, 0.25])
    def test_series_against_mpmath_hyp0f1(self, monkeypatch, nu):
        # the series on [0, W_SWITCH] against 40 digits: its 30 terms are no worse than 40 terms there
        mpmath = pytest.importorskip("mpmath")

        w = np.linspace(0.0, W_SWITCH, 200)
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.hyp0f1(nu + 1.0, -mpmath.mpf(x) ** 2 / 4)) for x in w])
        assert symbols._SERIES_TERMS == 30
        error = {}
        try:
            for terms in (40, 30):
                monkeypatch.setattr(symbols, "_SERIES_TERMS", terms)
                symbols._series_constants.cache_clear()
                error[terms] = np.abs(symbols._hyp0f1_series((nu,), w)[0] - ref).max()
        finally:
            monkeypatch.undo()
            symbols._series_constants.cache_clear()
        assert error[30] <= error[40] and error[30] < 2.5e-12


class TestKernelPaths:
    """The kernel splits each ascending row at W_SWITCH by slices; every element keeps the bits of a one-element row."""

    NUS = (-1.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0)

    @staticmethod
    def kernel_spy(monkeypatch):
        """Wrap ``symbols._hyp0f1_kernel`` and return the list of the rows it is called on."""
        inner, calls = symbols._hyp0f1_kernel, []
        monkeypatch.setattr(symbols, "_hyp0f1_kernel", lambda nus, rows: calls.append(rows.copy()) or inner(nus, rows))
        return calls

    def assert_paths_agree(self, w):
        """The kernel on the ascending rows ``w`` equals one-element-row calls on each element, bit for bit."""
        w = np.atleast_2d(np.asarray(w, dtype=float))
        sliced = _hyp0f1_kernel(self.NUS, w)
        assert sliced.shape == (len(self.NUS),) + w.shape
        for (r, c), x in np.ndenumerate(w):
            assert sliced[:, r, c].tobytes() == _hyp0f1_kernel(self.NUS, np.array([[x]]))[:, 0, 0].tobytes()
        return sliced

    def test_block_rows_split_at_different_indices(self):
        # a K = 4 block of times: the series prefix shrinks from row to row
        lam = np.pi * np.arange(1, 400) / 32.0
        w = np.stack([phi(1, t) * lam for t in (1.0, 2.0, 4.0, 8.0)])
        split = (w <= W_SWITCH).sum(axis=1)
        assert len(set(split.tolist())) == 4 and 0 < split.min() and split.max() < lam.size
        self.assert_paths_agree(w)

    def test_all_series_and_all_hankel_rows(self):
        lam = np.pi * np.arange(1, 64) / 32.0
        w = np.stack([1e-3 * lam, phi(1, 1.0) * lam, 20.0 + lam])
        assert (w[0] <= W_SWITCH).all() and (w[2] > W_SWITCH).all()
        self.assert_paths_agree(w)
        for row in w[[0, 2]]:
            self.assert_paths_agree(row)

    def test_element_at_the_switch_takes_the_series(self):
        from tricomi_lab.symbols import _hyp0f1_series

        w = np.array([1.0, W_SWITCH, W_SWITCH, np.nextafter(W_SWITCH, np.inf), 30.0])
        got = self.assert_paths_agree(w)
        assert np.array_equal(got[:, 0, 1], _hyp0f1_series(self.NUS, np.array([W_SWITCH]))[:, 0])

    def test_zero_frequency_row_and_zero_row(self):
        # lambda = 0 leads its row with w = 0; t = 0 makes the whole row 0
        lam = np.pi * np.arange(0, 64) / 8.0
        w = np.stack([phi(1, 2.0) * lam, 0.0 * lam])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self.assert_paths_agree(w)
        assert (got[:, 0, 0] == 1.0).all() and (got[:, 1] == 1.0).all()  # Lambda(0) = 1 for every order

    @pytest.mark.parametrize(
        "lam", [[-1.0, 0.0, 2.0], [[0.0, 1.0], [-2.0, 3.0]], [-0.5]], ids=["leading", "second-row", "one"]
    )
    def test_negative_ascending_input_rejected(self, monkeypatch, lam):
        # the stream rejects a negative frequency (and a 2-D lambda) before any kernel call
        calls = self.kernel_spy(monkeypatch)
        with pytest.raises(ParameterError, match="lambda must be a 1-D array with every entry >= 0"):
            symbol_matrix(1, 1.0, np.array(lam))
        assert calls == []


class TestKummer:
    def test_value_at_zero(self):
        # M(a, 2a; 0) = 1
        for a in (0.3, 1.2, 0.1):
            assert kummer_M(a, 0.0) == pytest.approx(1.0)

    def test_pole_rejected(self):
        # b = 2a a nonpositive integer
        with pytest.raises(ParameterError, match="2a"):
            kummer_M(0.0, 1j)
        with pytest.raises(ParameterError, match="2a"):
            kummer_M(-1.0, 1j)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_overlap_band_series_vs_asymptotic(self, m):
        # |z| in [25, 40]: stabilized series (b = 2a) vs exponential asymptotics
        a = m / (2.0 * (m + 2.0))
        b = m / (m + 2.0)
        from tricomi_lab.symbols import _kummer_confluent_even

        for zabs in np.linspace(25.0, 40.0, 12):
            z = 1j * zabs
            a_plus, a_minus = asymptotic_components(a, b, z)
            asym = np.exp(z) * a_plus + a_minus
            series = _kummer_confluent_even(a, z)
            assert abs(asym - series) < 1e-8

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_even_series_keeps_its_bits(self, m):
        # the real-arithmetic sum against the former complex loop on |z| <= Z_SWITCH, at both zeros of Re z
        ws = np.append(np.geomspace(1e-6, 15.0, 300), 15.0).tolist()
        for a in symbol_families(m):
            for re in (0.0, -0.0):
                zs = [complex(re, 2.0 * w) for w in ws]
                got = [repr(complex(symbols._kummer_confluent_even(a, z))) for z in zs]
                assert got == [repr(complex(former_even_series(a, z))) for z in zs]

    def test_off_axis_rejected(self):
        for z in (1.0 + 1j, -1j, 40.0 - 0.5j):
            with pytest.raises(ParameterError, match="imaginary axis"):
                kummer_M(0.3, z)
            with pytest.raises(ParameterError, match="imaginary axis"):
                asymptotic_components(0.3, 0.6, z)
        with pytest.raises(ParameterError, match="b = 2a"):
            asymptotic_components(0.3, 0.5, 40j)

    def test_symbol_family_matches_series_at_paper_point(self):
        # V1 = e^(-z/2) M(m/(2(m+2)), m/(m+2); z) at phi(t) lam = 0.7, m = 1
        m, lam = 1, 1.0
        t = w_to_t(m, 0.7)
        v_kummer = v1_symbol(m, t, lam, route="kummer")
        st = evolve_mode(m, lam, t, (1.0, 0.0), rtol=1e-12)
        assert abs(v_kummer.real - st.v) < 1e-8
        assert abs(v_kummer.imag) < 1e-10


class TestAsymptoticComponents:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_envelope_exponents(self, m):
        # |A_plus| ~ w^(a-b), |A_minus| ~ w^(-a) for the V1 family
        a = m / (2.0 * (m + 2.0))
        b = m / (m + 2.0)
        ws = np.geomspace(20.0, 1e3, 120)
        plus = np.array([abs(asymptotic_components(a, b, 2j * w)[0]) for w in ws])
        minus = np.array([abs(asymptotic_components(a, b, 2j * w)[1]) for w in ws])
        zs = 2.0 * ws
        slope_plus = np.polyfit(np.log(zs), np.log(plus), 1)[0]
        slope_minus = np.polyfit(np.log(zs), np.log(minus), 1)[0]
        assert slope_plus == pytest.approx(a - b, abs=0.15 * abs(a - b))
        assert slope_minus == pytest.approx(-a, abs=0.15 * a)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_no_stagnation_at_huge_z(self, m):
        # each sum's error is relative to its own leading 1, so it is weighed by its own prefactor
        families = [(m / (2.0 * (m + 2.0)), m / (m + 2.0)), ((m + 4.0) / (2.0 * (m + 2.0)), (m + 4.0) / (m + 2.0))]
        for a, b in families:
            for e in np.arange(1.5, 60.0 + 1e-9, 0.25):
                asymptotic_components(a, b, 1j * 10.0**e)

    def test_real_stagnation_still_raises(self):
        # at |z| = 30.5 the smallest term of the V1 family's sums is far above 1e-16 of the value
        with pytest.raises(AccuracyError, match="stagnates"):
            asymptotic_components(1.0 / 6.0, 1.0 / 3.0, 30.5j, rtol=1e-16)

    @staticmethod
    def _three_abs_sum(c1, c2, z):
        """The former loop of ``_asym_sum``, which took abs(term) up to three times per step."""
        s = 1.0 + 0.0j
        term = 1.0 + 0.0j
        for k in range(60):
            term_next = term * (c1 + k) * (c2 + k) / ((k + 1.0) * z)
            if abs(term_next) >= abs(term):
                return s, abs(term_next)
            term = term_next
            s += term
            if abs(term) <= 1e-18:
                return s, abs(term)
        return s, abs(term)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_asym_sum_keeps_its_bits(self, m):
        # the (c1, c2) pairs asymptotic_components forms for V1 and V2, at z = +-2iw
        families = [(m / (2.0 * (m + 2.0)), m / (m + 2.0)), ((m + 4.0) / (2.0 * (m + 2.0)), (m + 4.0) / (m + 2.0))]
        pairs = [pair for a, b in families for pair in ((b - a, 1.0 - a), (a, a - b + 1.0))]
        for w in np.geomspace(15.0, 1e4, 200):
            for c1, c2 in pairs:
                for z in (2j * w, -2j * w):
                    assert repr(symbols._asym_sum(c1, c2, z)) == repr(self._three_abs_sum(c1, c2, z))  # bits, -0.0 too

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_conjugate_minus_sum_keeps_its_bits(self, m):
        # b = 2a on the imaginary axis: the minus sum, error included, is the plus sum's conjugate, -0.0 too
        for a in symbol_families(m):
            b = 2.0 * a
            for w in np.geomspace(15.0, 1e7, 300).tolist():
                for re in (0.0, -0.0):
                    z = complex(re, 2.0 * w)
                    s, err = symbols._asym_sum(b - a, 1.0 - a, z)
                    assert repr((s.conjugate(), err)) == repr(symbols._asym_sum(a, a - b + 1.0, -z))
                    assert repr(asymptotic_components(a, b, z)) == repr(former_components(a, b, z))


class TestSymbols:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_initial_values(self, m):
        assert v1_symbol(m, 0.0, 3.0) == pytest.approx(1.0)
        assert v2_symbol(m, 0.0, 3.0) == pytest.approx(0.0)

    @pytest.mark.parametrize("route", ["kummer", "bessel"])
    def test_routes_agree(self, route):
        other = "bessel" if route == "kummer" else "kummer"
        for m in (1, 2, 3):
            for w in (0.05, 1.0, 7.0, 14.9, 15.1, 29.9, 30.1, 60.0, 100.0):
                t = w_to_t(m, w)
                x = v1_symbol(m, t, 1.0, route)
                y = v1_symbol(m, t, 1.0, other)
                assert abs(x - y) < 1e-7 * max(abs(y), 1.0) + 1e-9

    def test_bessel_route_is_symbol_matrix(self):
        # the scalar Bessel route is the solvers' one-row symbol_matrix, bit for bit,
        # so the three-route checks validate the symbols the solvers use
        ws = np.concatenate([[0.0], np.geomspace(1e-3, 2000.0, 300)])
        got, want = [], []
        for m in (1, 2, 3, 4):
            for lam in (0.37, 1.0, 5.0):
                for t in phi_inverse(m, ws / lam).tolist():
                    v1, v2 = symbol_matrix(m, t, np.array([lam]), derivatives=False)
                    want += [complex(v1[0]), complex(v2[0])]
                    got += [v1_symbol(m, t, lam, "bessel"), v2_symbol(m, t, lam, "bessel")]
        assert got == want

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_kummer_route_keeps_former_bits(self, m):
        # both branches and their handover at w = 15, against the former complex sums, -0.0 too
        ts = [phi_inverse(m, w / 0.37) for w in np.concatenate([[0.0, 15.0], np.geomspace(1e-6, 1e5, 400)]).tolist()]
        got = [(v1_symbol(m, t, 0.37), v2_symbol(m, t, 0.37)) for t in ts]
        assert [repr(pair) for pair in got] == [repr(former_symbols(m, t, 0.37)) for t in ts]

    def test_kummer_route_real_after_assembly(self):
        for m in (1, 2):
            for w in (0.3, 3.0, 12.0, 45.0):
                t = w_to_t(m, w)
                assert abs(v1_symbol(m, t, 1.0, "kummer").imag) < 1e-10
                assert abs(v2_symbol(m, t, 1.0, "kummer").imag) < 1e-10

    def test_m0_rejected(self):
        with pytest.raises(ParameterError):
            v1_symbol(0, 1.0, 1.0)

    def test_amplitude_envelope_fitted_constant(self):
        # fit C once on a coarse grid, then the bound holds with the same C
        m = 1
        ws = np.geomspace(0.1, 1e3, 300)
        vals = np.array([abs(v1_symbol(m, w_to_t(m, w), 1.0, "bessel")) for w in ws])
        bound = amplitude_envelope_bound(m, w_to_t(m, ws), 1.0)
        C = float((vals / bound).max()) * 1.0000001
        ws2 = np.geomspace(0.05, 2e3, 1200)
        vals2 = np.array([abs(v1_symbol(m, w_to_t(m, w), 1.0, "bessel")) for w in ws2])
        bound2 = amplitude_envelope_bound(m, w_to_t(m, ws2), 1.0)
        assert np.all(vals2 <= C * bound2 + 1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_envelope_slope(self, m):
        ws = np.geomspace(10.0, 1e3, 2500)
        vals = np.array([abs(v1_symbol(m, w_to_t(m, w), 1.0, "bessel")) for w in ws])
        slope = fit_upper_envelope_slope(ws, vals)
        target = -m / (2.0 * (m + 2.0))
        assert slope == pytest.approx(target, abs=0.15 * abs(target))


class TestModeODE:
    def test_lambda_zero_exact(self):
        st = evolve_mode(1, 0.0, 7.0, (2.0, -0.5))
        assert st.v == pytest.approx(2.0 - 0.5 * 7.0, abs=1e-14)
        assert st.v_dot == pytest.approx(-0.5, abs=1e-14)

    def test_wronskian_at_t10(self):
        m, lam = 1, 3.0
        s1 = evolve_mode(m, lam, 10.0, (1.0, 0.0), rtol=1e-12)
        s2 = evolve_mode(m, lam, 10.0, (0.0, 1.0), rtol=1e-12)
        wr = s1.v * s2.v_dot - s1.v_dot * s2.v
        assert abs(wr - 1.0) < 1e-8

    def test_self_convergence(self):
        # tightening the local tolerance stands in for halving the step
        a = evolve_mode(1, 1.0, 5.0, (1.0, 0.0), rtol=1e-10)
        b = evolve_mode(1, 1.0, 5.0, (1.0, 0.0), rtol=1e-12)
        assert abs(a.v - b.v) < 1e-9 * max(abs(b.v), 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            evolve_mode(1, np.nan, 1.0, (1.0, 0.0))

    def test_many_requires_increasing(self):
        with pytest.raises(ParameterError):
            evolve_mode_many(1, 1.0, np.array([1.0, 1.0]), (1.0, 0.0))


class TestSymbolMatrix:
    @pytest.mark.parametrize("m", [1, 2])
    def test_wronskian_identity(self, m):
        lam = np.geomspace(0.05, 80.0, 500)
        v1, v2, v1p, v2p = symbol_matrix(m, 10.0, lam)
        assert np.abs(v1 * v2p - v1p * v2 - 1.0).max() < 1e-8

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_wronskian_tight(self, m):
        # the frame march's source update (-dt V2 s, dt V1 s) is M(t)^-1 (0, dt s) only for a unit Wronskian
        bound = 2e-11 if m <= 2 else 2.5e-11
        lam = np.pi * np.arange(1, 16384) / 680.0
        worst = 0.0
        for t in np.linspace(1.0, 10.0, 50):
            v1, v2, v1p, v2p = symbol_matrix(m, float(t), lam)
            worst = max(worst, float(np.abs(v1 * v2p - v1p * v2 - 1.0).max()))
        assert worst <= bound

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("t", [0.3, 1.0, 5.0])
    def test_batch_independent(self, m, t):
        # each frequency's value depends on that frequency alone
        lam = np.pi * np.arange(1, 4096) / 170.0
        full = symbol_matrix(m, t, lam)
        for i in range(0, lam.size, 7):
            single = symbol_matrix(m, t, lam[i : i + 1])
            for f, s in zip(full, single):
                assert f[i] == s[0]

    @pytest.mark.parametrize("m", [1, 2])
    def test_unsorted_frequencies(self, m):
        # shuffled frequencies on both sides of W_SWITCH give the shuffled values
        lam = np.pi * np.arange(1, 4096) / 170.0
        order = np.random.default_rng(7).permutation(lam.size)
        w = phi(m, 5.0) * lam[order]
        assert (w <= W_SWITCH).any() and (w > W_SWITCH).any()
        for f, s in zip(symbol_matrix(m, 5.0, lam), symbol_matrix(m, 5.0, lam[order])):
            assert np.array_equal(f[order], s)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_values_only_equals_full(self, m):
        # t = 0.05 is all series, t = 1 mixed and t = 10, 40 all Hankel (besides lam = 0)
        lam = np.pi * np.arange(0, 2048) / 32.0
        branches = set()
        for t in (0.0, 0.05, 1.0, 10.0, 40.0):
            small = phi(m, t) * lam[1:] <= W_SWITCH
            branches.add((bool(small.all()), bool(small.any())))
            for grid in (lam, lam[1:]):
                full = symbol_matrix(m, t, grid)
                values = symbol_matrix(m, t, grid, derivatives=False)
                assert len(values) == 2
                assert np.array_equal(values[0], full[0]) and np.array_equal(values[1], full[1])
        assert branches == {(True, True), (False, True), (False, False)}

    @pytest.mark.parametrize("derivatives", [True, False])
    def test_single_branch_equals_mixed(self, derivatives):
        # an element gets the same bits in a one-branch input as inside a mixed one
        lam = np.pi * np.arange(1, 2048) / 32.0
        small = phi(1, 1.0) * lam <= W_SWITCH
        assert small.any() and not small.all()
        mixed = symbol_matrix(1, 1.0, lam, derivatives=derivatives)
        for part in (small, ~small):
            for f, s in zip(mixed, symbol_matrix(1, 1.0, lam[part], derivatives=derivatives)):
                assert np.array_equal(f[part], s)

    def test_signature(self):
        # callers pass (m, t, lam) positionally; the flag is keyword-only
        params = inspect.signature(symbol_matrix).parameters
        assert [(p.name, p.kind) for p in params.values()] == [
            ("m", inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("t", inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("lam", inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("derivatives", inspect.Parameter.KEYWORD_ONLY),
        ]
        assert params["derivatives"].default is True

    def test_t_zero(self):
        lam = np.linspace(0.1, 5.0, 7)
        v1, v2, v1p, v2p = symbol_matrix(1, 0.0, lam)
        assert np.all(v1 == 1.0) and np.all(v2 == 0.0)
        assert np.all(v1p == 0.0) and np.all(v2p == 1.0)

    def test_zero_frequency_limits(self):
        # w = 0 takes the limits V1 = 1, V2 = t, V1' = 0, V2' = 1 next to nonzero w
        v1, v2, v1p, v2p = symbol_matrix(1, 2.0, np.array([0.0, 1.0]))
        assert (v1[0], v2[0], v1p[0], v2p[0]) == (1.0, 2.0, 0.0, 1.0)
        single = symbol_matrix(1, 2.0, np.array([1.0]))
        for f, s in zip((v1, v2, v1p, v2p), single):
            assert f[1] == s[0]

    def test_zero_argument_needs_no_special_case(self, monkeypatch):
        # Lambda(0) = 1 for every order, so lambda = 0 and t = 0 take the kernel like any w, with no np.where
        where, calls = np.where, []
        monkeypatch.setattr(np, "where", lambda *args: calls.append(args) or where(*args))
        for t in (0.0, 2.0):
            v1, v2, v1p, v2p = symbol_matrix(1, t, np.array([0.0, 1.0]))
            assert (v1[0], v2[0], v1p[0], v2p[0]) == (1.0, t, 0.0, 1.0)
        assert calls == []

    def test_matches_scalar_symbols(self):
        lam = np.array([0.3, 2.0, 9.0])
        v1, v2, _, _ = symbol_matrix(1, 4.0, lam)
        for i, l in enumerate(lam):
            assert v1[i] == pytest.approx(v1_symbol(1, 4.0, float(l), "bessel").real, abs=1e-12)
            assert v2[i] == pytest.approx(v2_symbol(1, 4.0, float(l), "bessel").real, abs=1e-12)

    def test_derivative_consistency(self):
        # central finite difference of V1, V2 in t matches V1', V2'
        lam = np.array([0.5, 3.0, 11.0])
        t, h = 6.0, 1e-5
        va = symbol_matrix(1, t - h, lam)
        vb = symbol_matrix(1, t + h, lam)
        v1, v2, v1p, v2p = symbol_matrix(1, t, lam)
        assert np.abs((vb[0] - va[0]) / (2 * h) - v1p).max() < 1e-6
        assert np.abs((vb[1] - va[1]) / (2 * h) - v2p).max() < 1e-6


class TestSymbolStream:
    """symbol_stream evaluates K times per kernel call; each row keeps the one-time bits."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("derivatives", [True, False])
    def test_rows_equal_one_time_calls(self, m, derivatives):
        # lam = 0 and both sides of W_SWITCH, sorted and shuffled; t = 0 first, inside and last
        lam = np.pi * np.arange(0, 1500) / 24.0  # K = 5
        shuffled = lam[np.random.default_rng(11).permutation(lam.size)]
        times = [0.0, 0.05, 0.3, 1.0, 0.0, 2.5, 4.0, 7.0, 10.0, 13.0, 0.0]
        for grid in (lam, lam[1:], shuffled):
            assert symbols._SYMBOL_BLOCK_ELEMENTS // grid.size < len(times)  # several blocks
            w = phi(m, 1.0) * grid[1:]
            assert (w <= W_SWITCH).any() and (w > W_SWITCH).any()
            rows = list(symbol_stream(m, times, grid, derivatives=derivatives))
            assert len(rows) == len(times)
            for t, row in zip(times, rows):
                one = symbol_matrix(m, t, grid, derivatives=derivatives)
                assert len(row) == len(one) == (4 if derivatives else 2)
                for a, b in zip(row, one):
                    assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_rows_equal_the_one_time_formula(self, m):
        # written out per time with Python-float scalars and one kernel call per order;
        # an array power over the times, (t_k)^(m/2), moves V1' in the last bit at m = 3
        nu = 1.0 / (m + 2.0)
        lam = np.pi * np.arange(0, 1500) / 24.0
        times = [0.0, 0.05, 0.3, 0.77, 1.0, 2.5, 3.3, 7.0, 13.0]
        for t, row in zip(times, symbol_stream(m, times, lam)):
            w = phi(m, t) * lam
            hyp = [_hyp0f1_kernel((order,), w[None])[0, 0] for order in (-nu, nu, 1.0 - nu, 1.0 + nu)]
            want = (
                hyp[0],
                t * hyp[1],
                -0.5 / (1.0 - nu) * w * hyp[2] * (t ** (m / 2.0) * lam),
                hyp[1] - w * w / (4.0 * nu * (1.0 + nu)) * hyp[3],
            )
            assert all(a.tobytes() == b.tobytes() for a, b in zip(row, want))

    @pytest.mark.parametrize("n, calls", [(2047, 3), (4095, 5), (8191, 10), (64, 1)])
    def test_one_kernel_call_per_block(self, monkeypatch, n, calls):
        # K = 8192 // n times share a call: 4 at N = 2048, 2 at N = 4096, 1 from 8192 on
        kernel, shapes = symbols._hyp0f1_kernel, []
        monkeypatch.setattr(symbols, "_hyp0f1_kernel", lambda nus, w: shapes.append(w.shape) or kernel(nus, w))
        lam = np.linspace(0.01, 30.0, n)
        rows = list(symbol_stream(1, (0.1 * k for k in range(10)), lam))  # any iterable of times
        assert len(rows) == 10 and len(shapes) == calls
        assert sum(s[0] for s in shapes) == 10 and all(s[1:] == (n,) for s in shapes)

    def test_block_size_one(self, monkeypatch):
        lam = np.pi * np.arange(0, 300) / 24.0
        times = [0.0, 0.5, 3.0, 9.0]
        blocked = list(symbol_stream(2, times, lam))
        monkeypatch.setattr(symbols, "_SYMBOL_BLOCK_ELEMENTS", 1)
        for row, one in zip(blocked, symbol_stream(2, times, lam)):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(row, one))

    def test_empty_times(self):
        assert list(symbol_stream(1, [], np.linspace(0.1, 1.0, 5))) == []

    @pytest.mark.parametrize("lam", [np.ones((2, 3)), np.array(1.0)], ids=["2-d", "0-d"])
    def test_lambda_not_one_dimensional_rejected(self, lam):
        with pytest.raises(ParameterError, match="lambda must be a 1-D array"):
            symbol_stream(1, [1.0], lam)

    def test_nan_frequency_stays_in_its_place(self):
        # a NaN gives NaN at its own positions (first, inside, last); every other element keeps its bits
        lam = np.pi * np.arange(0, 1500) / 24.0
        holes = [0, 700, 1499]
        with_nan = lam.copy()
        with_nan[holes] = np.nan
        keep = np.ones(lam.size, dtype=bool)
        keep[holes] = False
        times = [0.0, 0.3, 1.0, 4.0, 13.0, 2.5]
        for derivatives in (True, False):
            rows = list(symbol_stream(2, times, with_nan, derivatives=derivatives))
            assert len(rows) == len(times)
            for row, ref in zip(rows, symbol_stream(2, times, lam, derivatives=derivatives)):
                for a, b in zip(row, ref):
                    assert np.isnan(a[holes]).all() and a[keep].tobytes() == b[keep].tobytes()

    def test_kernel_gets_ascending_rows_only(self, monkeypatch):
        # sorted, shuffled and NaN-holding frequencies: every kernel row ascends from w >= 0, NaNs last
        calls = TestKernelPaths.kernel_spy(monkeypatch)
        lam = np.pi * np.arange(0, 1500) / 24.0
        shuffled = lam[np.random.default_rng(5).permutation(lam.size)]
        holed = shuffled.copy()
        holed[[3, 900]] = np.nan
        times = [0.0, 0.05, 1.0, 4.0, 10.0, 13.0, 2.0]
        for grid in (lam, shuffled, holed):
            for derivatives in (True, False):
                assert len(list(symbol_stream(1, times, grid, derivatives=derivatives))) == len(times)
        assert len(calls) == 6 * 2
        for rows in calls:
            assert rows.ndim == 2
            for row in rows:
                finite = row[~np.isnan(row)]
                assert np.isnan(row[finite.size :]).all() and finite[0] >= 0 and (np.diff(finite) >= 0).all()
