"""Checks of the numeric backends against mpmath and closed forms."""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp
from scipy.optimize import brentq
from scipy.special import gammainc

from cfedge.errors import NumericalError
from cfedge.specfun import (_laguerre_rule, brent_root, gamma_expectation,
                             hyp2f1, invert_laplace_cdf)

from test_digests import PINNED, _build

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


def test_hyp2f1_array_is_per_float():
    # an array gives each entry the bits its float gives
    z = -np.geomspace(1e-6, 1e9, 41)
    got = hyp2f1(3.0, 2.459, 3.459, z)
    want = np.array([hyp2f1(3.0, 2.459, 3.459, v) for v in z.tolist()])
    assert got.tobytes() == want.tobytes()


def test_hyp2f1_array_rejects_one_bad_entry():
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 2.0, np.array([-1.0, 0.5, -2.0]))
    with pytest.raises(NumericalError, match="nan"):
        hyp2f1(1.0, 1.0, 2.0, np.array([-1.0, math.nan, -2.0]))


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

    def test_input_validation(self):
        with pytest.raises(ValueError):
            gamma_expectation(lambda g: g, 0)
        with pytest.raises(ValueError):
            gamma_expectation(lambda g: g, 2.5)


class TestLaguerreRule:
    @staticmethod
    def _scipy_rule(nodes, m):
        x, w = sp.roots_genlaguerre(nodes, m - 1)
        return x, w / sp.gamma(m)

    def test_bits_of_scipy_rule(self):
        # the same operations in the same order as sp.roots_genlaguerre;
        # numpy's and scipy.linalg's eigensolvers agree to the last bit
        # after the Newton step on the build the digests are pinned for
        if _build() not in PINNED:
            pytest.skip(f"bits are pinned for {sorted(PINNED)}")
        for nodes in (64, 128):
            for m in range(1, 172):
                x, w = _laguerre_rule.__wrapped__(nodes, m)
                xs, ws = self._scipy_rule(nodes, m)
                assert x.tobytes() == xs.tobytes(), (nodes, m)
                assert w.tobytes() == ws.tobytes(), (nodes, m)

    @pytest.mark.parametrize("m", [1, 4, 8, 40, 171])
    def test_near_scipy_rule_and_moments(self, m):
        for nodes in (64, 128):
            x, w = _laguerre_rule.__wrapped__(nodes, m)
            xs, ws = self._scipy_rule(nodes, m)
            np.testing.assert_allclose(x, xs, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(w, ws, rtol=1e-13, atol=0.0)
            # E[G] = m and E[G^2] = m(m+1) for G ~ Gamma(m, 1)
            assert w @ x == pytest.approx(m, rel=1e-12)
            assert w @ (x * x) == pytest.approx(m * (m + 1), rel=1e-12)


class TestLaplaceInversion:
    def test_mm1_sojourn_identity(self):
        # M/M/1 sojourn is exponential with rate mu - lam, so the
        # transformed queue response inverts to 1 - exp(-(mu - lam) t)
        lam, mu = 50.0, 193.9
        rho = lam / mu

        def sojourn(s):
            b = mu / (s + mu)
            return (1.0 - rho) * s * b / (s - lam + lam * b)

        for ms in range(1, 51):
            t = ms * 1e-3
            want = 1.0 - math.exp(-(mu - lam) * t)
            assert abs(invert_laplace_cdf(sojourn, t) - want) <= 1e-7, ms

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

    def test_rows_equal_one_law_inversions(self):
        # a transform with one row per law gives each law's own value
        rates = np.array([2.0, 50.0, 400.0])
        got = invert_laplace_cdf(
            lambda s: rates[:, None] / (s + rates[:, None]), 0.01)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [
            invert_laplace_cdf(lambda s: mu / (s + mu), 0.01)
            for mu in rates.tolist()]

    def test_unsettled_series_raises(self):
        # a deterministic delay inverted at its own epoch: the CDF jumps
        # at t, so the Euler estimate keeps moving as terms are added
        delay = lambda s: np.exp(-0.01 * s)
        with pytest.raises(NumericalError, match="did not settle"):
            invert_laplace_cdf(delay, 0.01)
        # as one row of two, next to a law that settles on its own
        assert invert_laplace_cdf(lambda s: 50.0 / (s + 50.0), 0.01) > 0.0
        with pytest.raises(NumericalError, match="did not settle"):
            invert_laplace_cdf(
                lambda s: np.stack([50.0 / (s + 50.0), delay(s)]), 0.01)


TINY = float(np.finfo(float).tiny)


def _step(x):
    # a sign change at 0 and no zero: from [-1, 1] at xtol = tiny, bisection
    # needs about 1075 halvings to close in on 0
    return 1.0 if x >= 0.0 else -1.0


class TestBrentRoot:
    @pytest.mark.parametrize("f,a,b", [
        (lambda x: x * x - 2.0, 0.0, 2.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: math.exp(x) - 1e-300, -800.0, 1.0),
        (lambda x: x ** 3 - 1e-3, -1.0, 2.0),
        (lambda x: 1.0 if x > 0.25 else -1.0, 0.0, 1.0),
        (lambda x: (x - 0.5) ** 5 + 1e-12, 0.0, 3.0),
        (lambda x: 1e-200 * (x - 0.7), 0.0, 3.0),
        (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 1.0),
    ])
    def test_equals_scipy_brentq(self, f, a, b):
        for xtol in (TINY, 1e-12):
            assert brent_root(f, a, b, xtol) == brentq(f, a, b, xtol=xtol)

    def test_zero_at_an_end_is_returned(self):
        assert brent_root(lambda x: x - 1.0, 1.0, 3.0, TINY) == 1.0
        assert brent_root(lambda x: x - 3.0, 1.0, 3.0, TINY) == 3.0

    def test_same_sign_bracket_raises(self):
        f = lambda x: x * x + 1.0                     # noqa: E731
        with pytest.raises(ValueError):               # scipy's failure too
            brentq(f, -1.0, 1.0, xtol=TINY)
        with pytest.raises(NumericalError, match="sign change"):
            brent_root(f, -1.0, 1.0, TINY)

    def test_no_convergence_raises(self):
        with pytest.raises(RuntimeError):             # scipy's failure too
            brentq(_step, -1.0, 1.0, xtol=TINY)
        with pytest.raises(NumericalError, match="did not converge"):
            brent_root(_step, -1.0, 1.0, TINY)
        # the same function converges once xtol lets it stop
        assert abs(brent_root(_step, -1.0, 1.0, 1e-12)) < 1e-12

    @pytest.mark.parametrize("f", [
        lambda x: math.nan,
        lambda x: x if x != 1.0 else math.nan,
        lambda x: x if abs(x) > 0.1 else math.nan,
    ])
    def test_nan_raises(self, f):
        with pytest.raises(NumericalError):
            brent_root(f, -0.7, 1.0, TINY)
