"""Checks of the numeric backends against mpmath and closed forms."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammainc

from cfedge.errors import NumericalError
from cfedge.specfun import (DEFAULT_INVERSION, LaplaceInversionSettings,
                            gamma_expectation, hyp2f1, invert_laplace_cdf,
                            poly_roots_real)

mp.mp.dps = 40


@pytest.mark.parametrize("a,b,c,z", [
    (1.0, 1.0 - 2.0 / 3.7, 2.0 - 2.0 / 3.7, -0.5),
    (1.0, 0.459, 1.459, -1e4),
    (3.0, 2.459, 3.459, -1e9),
    (2.0, 1.5, 2.5, 0.0),
    (5.0, 4.459, 5.459, -123.456),
])
def test_hyp2f1_against_mpmath(a, b, c, z):
    want = float(mp.hyp2f1(a, b, c, z))
    assert hyp2f1(a, b, c, z) == pytest.approx(want, rel=1e-12)


def test_hyp2f1_rejects_positive_argument():
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 2.0, 0.5)


class TestGammaExpectation:
    def test_polynomial_moments(self):
        # E[G] = m and E[G^2] = m(m+1) for G ~ Gamma(m, 1)
        for m in (1, 3, 8):
            assert gamma_expectation(lambda g: g, m) == pytest.approx(m, rel=1e-12)
            assert gamma_expectation(lambda g: g * g, m) == pytest.approx(
                m * (m + 1), rel=1e-12)

    def test_exponential_tilt(self):
        # E[exp(-x G)] = (1 + x)^(-m); the Erlang-3 case at x = 0.7
        got = gamma_expectation(lambda g: np.exp(-0.7 * g), 3)
        assert got == pytest.approx(1.7 ** -3, rel=1e-10)

    def test_scalar_integrand_fallback(self):
        got = gamma_expectation(lambda g: float(np.exp(-g)) if np.isscalar(g)
                                else np.exp(-g), 2)
        assert got == pytest.approx(0.25, rel=1e-10)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            gamma_expectation(lambda g: g, 0)
        with pytest.raises(ValueError):
            gamma_expectation(lambda g: g, 2.5)
        with pytest.raises(ValueError):
            gamma_expectation(lambda g: g, 2, nodes=1)


class TestLaplaceInversion:
    def test_mm1_sojourn_identity(self):
        # M/M/1 sojourn is exponential with rate mu - lam, so the
        # transformed queue response inverts to 1 - exp(-(mu - lam) t)
        lam, mu = 50.0, 193.9
        rho = lam / mu

        def sojourn(s):
            b = mu / (s + mu)
            return (1.0 - rho) * s * b / (s - lam + lam * b)

        for settings in (DEFAULT_INVERSION,
                         LaplaceInversionSettings(method="talbot", terms=24)):
            for ms in range(1, 51):
                t = ms * 1e-3
                want = 1.0 - math.exp(-(mu - lam) * t)
                got = invert_laplace_cdf(sojourn, t, settings)
                assert abs(got - want) <= 1e-7, (settings.method, ms)

    def test_erlang_cdf(self):
        mu, k = 80.0, 4

        def transform(s):
            return (mu / (s + mu)) ** k

        # the aliasing floor of the Euler parameters sits near 1e-8
        for t in (0.005, 0.02, 0.1):
            want = float(gammainc(k, mu * t))
            assert invert_laplace_cdf(transform, t) == pytest.approx(
                want, abs=5e-8)

    def test_nonpositive_time(self):
        assert invert_laplace_cdf(lambda s: 1.0 / (1.0 + s), 0.0) == 0.0
        assert invert_laplace_cdf(lambda s: 1.0 / (1.0 + s), -1.0) == 0.0

    def test_nonfinite_raises(self):
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            invert_laplace_cdf(lambda s: s * np.inf, 0.01)

    @pytest.mark.parametrize("method", ["euler", "talbot"])
    def test_rows_equal_one_law_inversions(self, method):
        # a transform with one row per law gives each law's own value
        settings = LaplaceInversionSettings(method=method)
        rates = np.array([2.0, 50.0, 400.0])
        got = invert_laplace_cdf(
            lambda s: rates[:, None] / (s + rates[:, None]), 0.01, settings)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [
            invert_laplace_cdf(lambda s: mu / (s + mu), 0.01, settings)
            for mu in rates.tolist()]

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            LaplaceInversionSettings(method="pade")
        with pytest.raises(ValueError):
            LaplaceInversionSettings(terms=5)
        with pytest.raises(ValueError):
            LaplaceInversionSettings(tolerance=0.0)


class TestPolyRoots:
    def test_quadratic(self):
        # (x - 2)(x + 3) = -6 + x + x^2
        roots, residuals = poly_roots_real([-6.0, 1.0, 1.0])
        assert roots == pytest.approx([-3.0, 2.0])
        assert np.all(residuals < 1e-12)

    def test_complex_pair_filtered(self):
        # x^2 + 1 has no real roots
        roots, _ = poly_roots_real([1.0, 0.0, 1.0])
        assert len(roots) == 0

    def test_trailing_zeros_trimmed(self):
        roots, _ = poly_roots_real([-1.0, 1.0, 0.0, 0.0])
        assert roots == pytest.approx([1.0])

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            poly_roots_real([1.0] * 18)

    def test_zero_polynomial(self):
        with pytest.raises(ValueError):
            poly_roots_real([0.0, 0.0])

    def test_constant_polynomial(self):
        roots, residuals = poly_roots_real([3.0])
        assert len(roots) == 0 and len(residuals) == 0
