"""Analytic communication layer against independent numeric oracles.

The scaled log coefficients are compared with high-precision finite
differences of the underlying transforms (mpmath), the closed-form tail
coefficients with direct quadrature, the series sum with the Poisson CDF,
and the interference moments with the plain Campbell integrals they are
supposed to equal.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
import scipy.special as sp

from cfedge import cli, comm, specfun
from cfedge.errors import NumericalError
from cfedge.model import NetworkConfig, mean_connected_aps, pathloss

from conftest import make_net
from test_digests import PINNED, _build

mp.mp.dps = 40


def _mp_log_near(s, net):
    c = mp.mpf(net.d0) ** (-net.alpha)
    return -mp.pi * net.lambda_d * mp.mpf(net.d0) ** 2 * s * c / (1 + s * c)


def _mp_log_far(s, net):
    a = mp.mpf(net.alpha)
    c = mp.mpf(net.d0) ** (-a)
    lead = 2 * mp.pi * net.lambda_d / a * s * mp.mpf(net.d0) ** (2 - a)
    return -lead / (1 - 2 / a) * mp.hyp2f1(1, 1 - 2 / a, 2 - 2 / a, -s * c)


class TestUplinkDerivatives:
    """The scaled log coefficients c_j = (-s)^j / j! (d/ds)^j log L(s) of
    the uplink interference transform L."""

    @pytest.mark.parametrize("s", [0.5e-11, 3.7e-11, 2e-10])
    def test_against_mpmath_finite_differences(self, s):
        net = make_net()
        c = comm.uplink_log_coeffs(s, 3, net)

        # differentiate in a rescaled variable u = s * K so the step
        # selection sees an O(1) argument
        K = mp.mpf(10) ** 11
        u = mp.mpf(s) * K
        g = lambda v: _mp_log_near(v / K, net) + _mp_log_far(v / K, net)
        for j in range(4):
            want = float((-u) ** j / mp.factorial(j) * mp.diff(g, u, j))
            assert c[j] == pytest.approx(want, rel=1e-7), j
        # and the success sum against the derivatives of L itself
        want = float(sum((-u) ** m / mp.factorial(m)
                         * mp.diff(lambda v: mp.e ** g(v), u, m)
                         for m in range(4)))
        assert comm.series_sum(c) == pytest.approx(want, rel=1e-7)

    def test_sign_alternation(self):
        # (-1)^j (log L)^(j) >= 0 for j >= 1, i.e. c_j >= 0: -(log L)' is
        # completely monotone, and so is L
        c = comm.uplink_log_coeffs(5e-11, 6, make_net())
        assert c[0] < 0.0
        assert all(v >= 0.0 for v in c[1:])

    def test_at_zero(self):
        c = comm.uplink_log_coeffs(0.0, 2, make_net())
        assert c == [0.0, 0.0, 0.0]
        assert comm.series_sum(c) == 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            comm.uplink_log_coeffs(-1.0, 2, make_net())
        with pytest.raises(ValueError):
            comm.uplink_log_coeffs(1.0, -1, make_net())
        with pytest.raises(ValueError):
            comm.uplink_log_coeffs(np.array([1e-11, -1e-11, 2e-11]), 2,
                                   make_net())


@pytest.mark.parametrize("j,s", [(1, 2e-11), (2, 5e-11), (3, 1e-10)])
def test_far_tail_coeff_against_quadrature(j, s):
    # c_j = pi lambda_d (d0^2 (sc)^j / (1 + sc)^(j+1) + s^j k_j(s)), the
    # plateau in closed form and k_j(s) = int_{d0^2}^inf z^(a/2)
    # (z^(a/2) + s)^(-j-1) dz by quadrature
    net = make_net()
    a = net.alpha
    sc = s * net.d0 ** (-a)
    tail = mp.quad(lambda z: z ** (a / 2) * (z ** (a / 2) + s) ** (-(j + 1)),
                   [net.d0 ** 2, mp.inf])
    want = float(mp.pi * net.lambda_d * (
        net.d0 ** 2 * mp.mpf(sc) ** j / (1 + mp.mpf(sc)) ** (j + 1)
        + mp.mpf(s) ** j * tail))
    got = comm.uplink_log_coeffs(s, j, net)[j]
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("K", [1, 2, 3, 8, 27, 64])
@pytest.mark.parametrize("z", [1e-3, 0.5, 4.0, 30.0, 90.0])
def test_series_sum_is_the_poisson_cdf(K, z):
    # exp(-z + z t) = e^-z sum_m z^m t^m / m!: the first K coefficients sum
    # to P[Poisson(z) < K] = Q(K, z)
    coeffs = ([-z, z] + [0.0] * K)[:K]
    assert comm.series_sum(coeffs) == pytest.approx(sp.gammaincc(K, z),
                                                    rel=1e-13)


class TestPerApSuccess:
    def test_against_conditional_monte_carlo(self):
        # P[Gamma(M) ell(r) >= gamma I] with I simulated from the user field
        # directly; conditioning on I and integrating the Gamma tail keeps
        # the noise small.
        net = make_net(coverage_radius=0.05)
        r_ap = 0.03
        gamma_th = net.sir_threshold_ul
        M = net.antennas_per_ap
        half = 0.8
        rng = np.random.default_rng(20260823)
        reps = 4000
        vals = np.empty(reps)
        mean_users = net.lambda_d * (2.0 * half) ** 2
        for i in range(reps):
            n = rng.poisson(mean_users)
            if n == 0:
                vals[i] = 1.0
                continue
            xy = rng.uniform(-half, half, size=(n, 2))
            d = np.sqrt((xy ** 2).sum(axis=1))
            intf = (rng.exponential(size=n) * pathloss(d, net)).sum()
            vals[i] = sp.gammaincc(M, gamma_th * intf / pathloss(r_ap, net))
        mc = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(reps)
        got = comm._single_ap_success_at(r_ap, net)
        assert abs(got - mc) <= 4.0 * se + 1e-4

    def test_radial_average_matches_quadrature(self):
        net = make_net(coverage_radius=0.04)
        want, err = integrate.quad(
            lambda r: r * comm._single_ap_success_at(r, net), 0.0, 0.04,
            epsabs=1e-10, limit=200)
        assert err < 1e-8
        assert comm.per_ap_success(net) == pytest.approx(
            want * 2.0 / 0.04 ** 2, rel=1e-6)

    def test_zero_radius(self):
        assert comm.per_ap_success(make_net(coverage_radius=0.0)) == 0.0

    def test_disc_inside_plateau(self):
        net = make_net(coverage_radius=0.0005, d0=0.001)
        assert comm.per_ap_success(net) == pytest.approx(
            comm._single_ap_success_at(0.0, net))

    @staticmethod
    def _quad_reference(net):
        # the radial integral by adaptive quadrature at tight tolerances
        R, d0 = net.coverage_radius, net.d0
        val, err = integrate.quad(
            lambda r: r * comm._single_ap_success_at(r, net), d0, R,
            epsabs=1e-14, epsrel=1e-13, limit=200)
        assert err < 1e-12 * max(val, 1e-300) + 1e-14
        inner = comm._single_ap_success_at(0.0, net) * d0 ** 2 / 2.0
        return (inner + val) * 2.0 / R ** 2

    @pytest.mark.parametrize("M", [1, 2, 4, 8, 16, 24])
    def test_radial_rule_matches_tight_quadrature(self, M):
        for lambda_b in (50.0, 200.0, 400.0, 1600.0):
            for R in (0.005, 0.013, 0.04, 0.1, 0.25):
                net = make_net(antennas_per_ap=M, lambda_b=lambda_b,
                               coverage_radius=R)
                assert comm.per_ap_success(net) == pytest.approx(
                    self._quad_reference(net), rel=1e-9), (lambda_b, R)

    def test_radius_at_and_just_above_plateau(self):
        plateau = comm._single_ap_success_at(0.0, make_net())
        at = make_net(coverage_radius=0.001, d0=0.001)
        assert comm.per_ap_success(at) == plateau
        for R in (0.001 * (1.0 + 1e-9), 0.001 * (1.0 + 1e-4), 0.00101):
            net = make_net(coverage_radius=R, d0=0.001)
            assert comm.per_ap_success(net) == pytest.approx(
                self._quad_reference(net), rel=1e-9), R

    def test_unresolved_integrand_raises(self, monkeypatch):
        # a success that jumps inside a panel: the rule on half the panels
        # disagrees by more than 1e-7 and the run fails instead of guessing
        real = comm._single_ap_success_at
        monkeypatch.setattr(comm, "_single_ap_success_at",
                            lambda r, net: real(r, net) * (r < 0.0317))
        with pytest.raises(NumericalError, match="radial success"):
            comm.per_ap_success(make_net(coverage_radius=0.05))


@settings(max_examples=60, deadline=None)
@given(M=st.integers(1, 24), alpha=st.floats(2.5, 4.5),
       d0=st.floats(2e-4, 0.01), lambda_d=st.floats(1e-3, 2e3),
       gamma=st.floats(0.3, 10.0),
       radii=st.lists(st.floats(0.0, 0.3), min_size=1, max_size=6))
# numpy's power gives this pathloss a different last bit as a float and
# inside an array: the array gives 0.8615817594923951, the float
# 0.861581759492395
@example(M=1, alpha=3.0409399745530465, d0=0.0078125, lambda_d=2.0,
         gamma=2.0, radii=[0.08])
def test_single_ap_success_array_agrees_with_float(M, alpha, d0, lambda_d,
                                                   gamma, radii):
    # an array of radii gives each radius its float's success to 1e-14,
    # or the array fails where a float fails
    net = make_net(antennas_per_ap=M, alpha=alpha, d0=d0, lambda_d=lambda_d,
                   sir_threshold_ul=gamma)
    try:
        want = np.array([comm._single_ap_success_at(r, net) for r in radii])
    except (OverflowError, NumericalError):
        with pytest.raises((OverflowError, NumericalError)):
            comm._single_ap_success_at(np.array(radii), net)
        return
    got = comm._single_ap_success_at(np.array(radii), net)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("M", [1, 4, 8])
def test_radial_table_rows_do_not_depend_on_growth(M, monkeypatch):
    # rows grown a few nodes at a time, as increasing radii ask for them,
    # equal the rows of a fresh table grown in one call
    net = make_net(antennas_per_ap=M)
    monkeypatch.setattr(comm, "_CHUNK_NODES", 5)
    stepwise = comm._RadialTable(net)
    for n in (1, 7, 30, 64, 101):
        stepwise.values(n)
    monkeypatch.undo()
    fresh = comm._RadialTable(net).values(101)
    assert stepwise.values(101).tobytes() == fresh.tobytes()


def test_uplink_outage_composition(fig_net):
    # the outage is the Poisson-AP average over the mixture nodes
    mix = comm.uplink_mixture(fig_net)
    nu = mean_connected_aps(fig_net)
    want = sum(w * math.exp(-nu * q) for w, q in zip(mix.weights, mix.success))
    assert comm.uplink_outage(fig_net) == pytest.approx(want, rel=1e-12)
    # tied to the single-AP reference: the nodes average to per_ap_success,
    # and the outage is at least the independent-decoding value
    p0 = comm.per_ap_success(fig_net)
    assert float(mix.weights @ mix.success) == pytest.approx(
        p0, rel=comm.UPLINK_MIXTURE_REL_ERR)
    assert comm.uplink_outage(fig_net) >= math.exp(-nu * p0)


# criterion-1 radii at the three preset antenna layouts (M, lambda_b)
_MIXTURE_CASES = [(M, lam_b, R) for M, lam_b in ((1, 1600.0), (4, 400.0),
                                                 (8, 400.0))
                  for R in (0.02, 0.04, 0.06, 0.08, 0.10, 0.15)]


@pytest.mark.parametrize("M,lambda_b,R", _MIXTURE_CASES)
def test_uplink_mixture_mean_is_per_ap_success(M, lambda_b, R):
    # law of total expectation over the nearest-interferer distance
    net = make_net(antennas_per_ap=M, lambda_b=lambda_b, coverage_radius=R)
    mix = comm.uplink_mixture(net)
    assert math.fsum(mix.weights) == pytest.approx(1.0, abs=1e-14)
    assert float(mix.weights @ mix.success) == pytest.approx(
        comm.per_ap_success(net), rel=comm.UPLINK_MIXTURE_REL_ERR)


@pytest.mark.parametrize("M,lambda_b,R", _MIXTURE_CASES)
def test_uplink_outage_above_independent_decoding(M, lambda_b, R):
    # shared interferers correlate the decode events: by Jensen the outage
    # is at least the independent-decoding value
    net = make_net(antennas_per_ap=M, lambda_b=lambda_b, coverage_radius=R)
    independent = math.exp(-mean_connected_aps(net) * comm.per_ap_success(net))
    assert comm.uplink_outage(net) >= independent


def test_uplink_outage_monotone_in_radius():
    prev = 1.0
    for R in np.arange(0.02, 0.21, 0.02):
        cur = comm.uplink_outage(make_net(coverage_radius=float(R)))
        assert cur <= prev + 1e-12
        prev = cur


def test_uplink_outage_decreases_with_antennas():
    outs = [comm.uplink_outage(make_net(antennas_per_ap=m)) for m in (1, 2, 4, 8)]
    assert all(b < a for a, b in zip(outs, outs[1:]))


@pytest.mark.parametrize("M", [27, 33, 40, 200])
def test_large_antenna_counts_evaluate_or_raise_numerical_error(M):
    # the preset network at R = 100 m: each closed form returns a
    # probability or raises NumericalError, and the uplink forms evaluate
    # at M = 27 and 33
    net = make_net(antennas_per_ap=M, coverage_radius=0.1)
    forms = {"per_ap_success": comm.per_ap_success,
             "uplink_outage": comm.uplink_outage,
             "downlink_outage": lambda n: comm.downlink_outage(n).point}
    for name, form in forms.items():
        try:
            value = form(net)
        except NumericalError:
            assert M > 33 or name == "downlink_outage", name
            continue
        assert 0.0 <= value <= 1.0, name


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_uplink_outage_evaluates_to_41_antennas():
    # the preset network at R = 100 m: the mixture evaluates up to M = 41
    # (scipy's 2F1 of the disc terms was not finite from M = 39); from
    # M = 42, (sc)^j of the far-field coefficients leaves the float range
    # at radial nodes below R. Such a node's success is NaN, not a value
    # clipped into [0, 1], and numpy warns of nothing
    outage = [comm.uplink_outage(make_net(antennas_per_ap=m,
                                          coverage_radius=0.1))
              for m in (38, 39, 41)]
    assert all(0.0 < b < a < 1.0 for a, b in zip(outage, outage[1:]))
    # M = 41 overflows from the node at 110 m, and M = 42 below 100 m
    for m, R in ((41, 0.11), (42, 0.1)):
        with pytest.raises(NumericalError,
                           match="uplink_outage produced a non-finite value"):
            comm.uplink_outage(make_net(antennas_per_ap=m, coverage_radius=R))


def test_non_finite_radial_integral_names_its_cause():
    # the preset network at R = 100 m: from M = 42 the uplink coefficients
    # overflow and the radial integral is not finite; M = 41 keeps its value
    net = make_net(antennas_per_ap=41, coverage_radius=0.1)
    want = 0.7368515457974358
    assert comm.per_ap_success(net) == (
        want if _build() in PINNED else pytest.approx(want, rel=1e-12))
    with np.errstate(all="ignore"), pytest.raises(
            NumericalError, match="radial success integral is not finite"):
        comm.per_ap_success(make_net(antennas_per_ap=42, coverage_radius=0.1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_downlink_outage_evaluates_from_172_antennas():
    # Gamma(172) overflows, so from M = 172 the Gauss-Laguerre weights are
    # normalised by their sum instead: the outage stays finite and close
    # to M = 171's, and the rule keeps the Gamma(m) moments
    def point(m):
        net = make_net(antennas_per_ap=m, coverage_radius=0.1)
        return comm.downlink_outage(net).point

    at_171 = point(171)
    for m in (172, 200, 256):
        assert 0.0 < point(m) < 1.0, m
    assert point(172) == pytest.approx(at_171, rel=1e-3)
    for m in (172, 256):
        for nodes in (64, 128):
            x, w = specfun._laguerre_rule(nodes, m)
            assert w @ x == pytest.approx(m, rel=1e-12)
            assert w @ (x * x) == pytest.approx(m * (m + 1), rel=1e-12)


class TestGammaInterference:
    def test_moments_equal_campbell_integrals(self):
        # mean = lam_b * beams * int ell, variance = lam_b * beams *
        # E[e^2] * int ell^2 over the plane, with Exp(1) beam gains
        net = make_net(coverage_radius=0.07)
        params = comm.gamma_interference_params(net)
        beams = net.lambda_d * math.pi * net.coverage_radius ** 2

        def plane_integral(power):
            inner = math.pi * net.d0 ** 2 * pathloss(0.0, net) ** power
            outer, _ = integrate.quad(
                lambda r: 2.0 * math.pi * r * pathloss(r, net) ** power,
                net.d0, np.inf, limit=200)
            return inner + outer

        int_ell = plane_integral(1)
        int_ell2 = plane_integral(2)
        assert params.mean == pytest.approx(net.lambda_b * beams * int_ell,
                                            rel=1e-9)
        assert params.variance == pytest.approx(
            net.lambda_b * beams * 2.0 * int_ell2, rel=1e-9)

    def test_shape_scale_split(self):
        params = comm.gamma_interference_params(make_net())
        assert params.mean == params.zeta * params.eta
        assert params.variance == params.zeta * params.eta ** 2
        assert params.zeta > 0 and params.eta > 0

    def test_shape_scales_with_disc_area(self):
        p1 = comm.gamma_interference_params(make_net(coverage_radius=0.05))
        p2 = comm.gamma_interference_params(make_net(coverage_radius=0.10))
        assert p2.zeta == pytest.approx(4.0 * p1.zeta, rel=1e-12)
        assert p2.eta == pytest.approx(p1.eta, rel=1e-12)


class TestSignalTransform:
    """The scaled log coefficients of the downlink signal transform
    exp(-2 pi lambda_b rho(s))."""

    @pytest.mark.parametrize("R", [0.0005, 0.05])
    def test_rho_against_mpmath(self, R):
        # rho(s) = int_0^R (1 - (1 + s ell(r))^-M) r dr
        net = make_net(coverage_radius=R)
        M = net.antennas_per_ap
        s0 = 1.0 / (net.sir_threshold_dl *
                    comm.gamma_interference_params(net).eta)

        K = mp.mpf(10) ** 12
        u = mp.mpf(s0) * K

        def log_scaled(v):
            s = v / K
            return -2 * mp.pi * net.lambda_b * mp.quad(
                lambda r: (1 - (1 + s * mp.mpf(
                    max(r, net.d0)) ** (-net.alpha)) ** (-M)) * r,
                [0, net.d0, R] if R > net.d0 else [0, R])

        c = comm.signal_log_coeffs(s0, 2, net)
        for m in range(3):
            want = float((-u) ** m / mp.factorial(m)
                         * mp.diff(log_scaled, u, m))
            assert c[m] == pytest.approx(want, rel=1e-6), m

    def test_signal_laplace_is_completely_monotone(self, fig_net):
        # c_0 <= 0 and c_m >= 0 for m >= 1: the exponent's derivative is
        # completely monotone, so is the transform, and every term of the
        # success sum is non-negative
        s0 = 0.5 / (fig_net.sir_threshold_dl *
                    comm.gamma_interference_params(fig_net).eta)
        c = comm.signal_log_coeffs(s0, 4, fig_net)
        assert c[0] < 0.0
        assert all(v >= 0.0 for v in c[1:])
        sums = [comm.series_sum(c[:k]) for k in range(1, 6)]
        assert 0.0 < sums[0] and all(b >= a for a, b in zip(sums, sums[1:]))

    @pytest.mark.parametrize("R", [0.0005, 0.05])
    def test_zero_argument(self, R):
        c = comm.signal_log_coeffs(0.0, 3, make_net(coverage_radius=R))
        assert c == [0.0] * 4

    def test_rho_rejects_negative_argument(self, fig_net):
        with pytest.raises(ValueError):
            comm.signal_log_coeffs(-0.1, 1, fig_net)


class TestDownlinkOutage:
    def test_bracket_ordering(self):
        for R in (0.02, 0.05, 0.1, 0.2):
            out = comm.downlink_outage(make_net(coverage_radius=R))
            assert 0.0 <= out.lower <= out.point <= out.upper <= 1.0

    def test_point_interpolates(self, fig_net):
        out = comm.downlink_outage(fig_net)
        zeta = comm.gamma_interference_params(fig_net).zeta
        frac = zeta - math.floor(zeta)
        want = (1.0 - frac) * out.lower + frac * out.upper
        assert out.point == pytest.approx(want, rel=1e-12)

    def test_degenerate_zero_radius(self):
        out = comm.downlink_outage(make_net(coverage_radius=0.0))
        assert (out.lower, out.upper, out.point) == (0.0, 0.0, 0.0)

    def test_degenerate_zero_ap_density(self):
        out = comm.downlink_outage(make_net(lambda_b=0.0))
        assert (out.lower, out.upper, out.point) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("zeta", [1.0, 3.0])
    def test_integer_shape_is_its_truncated_sum(self, monkeypatch, fig_net,
                                                zeta):
        # floor and ceil truncations coincide, so the bracket closes on one
        # value and the interpolated point is that value too
        params = comm.GammaInterferenceParams(
            zeta=zeta, eta=comm.gamma_interference_params(fig_net).eta)
        monkeypatch.setattr(comm, "gamma_interference_params",
                            lambda net: params)
        want = comm._clamp_probability(
            comm._truncated_outage_sum(int(zeta), fig_net, params), "test")
        out = comm.downlink_outage(fig_net)
        assert (out.lower, out.upper, out.point) == (want, want, want)

    def test_plateau_edge_terms_serve_every_radius(self, monkeypatch):
        # the plateau-edge Q arrays depend on no radius: once a radius at
        # shape 68 has filled them, every gammaincc call at a smaller radius
        # is an R term, two per annulus (the 64- and 128-node rules)
        calls = []
        real = comm.gammaincc
        monkeypatch.setattr(comm, "gammaincc",
                            lambda a, x: calls.append(a) or real(a, x))
        dense = dict(lambda_b=6400.0, d0=0.01)
        comm.downlink_outage(make_net(coverage_radius=0.25, **dense))
        for R in (0.2, 0.22):
            net = make_net(coverage_radius=R, **dense)
            zeta = comm.gamma_interference_params(net).zeta
            calls.clear()
            comm.downlink_outage(net)
            assert len(calls) == 2 * (math.floor(zeta) + math.ceil(zeta))

    def test_truncation_increasing_in_shape(self, fig_net):
        params = comm.gamma_interference_params(fig_net)
        vals = [comm._truncated_outage_sum(k, fig_net, params)
                for k in range(6)]
        assert vals[0] == 0.0
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def _scmp(net):
    return (1.0 - comm.uplink_outage(net)) \
        * (1.0 - comm.downlink_outage(net).point)


def test_scmp_composition(fig_net):
    # the scmp column of an scmp_vs_R row composes the two closed forms
    spec = cli.ExperimentSpec.from_mapping({
        "kind": "scmp_vs_R", "label": "c",
        "network": {"lambda_b": 400.0, "lambda_d": 100.0,
                    "antennas_per_ap": 4},
        "sweep": {"radii_km": [0.05]}, "sim": {"replications": 200}})
    assert spec.configs == ((fig_net,),)
    (row,) = cli._evaluate(spec, cli._points(spec), 1)
    assert row["scmp"] == pytest.approx(_scmp(fig_net), rel=1e-12)


def test_scmp_unimodal_over_radius():
    # rises while connectivity improves, falls once the downlink penalty
    # dominates; checked as at most one sign change of the differences
    vals = [_scmp(make_net(coverage_radius=float(R)))
            for R in np.arange(0.01, 0.21, 0.01)]
    diffs = np.diff(vals)
    signs = np.sign(diffs[np.abs(diffs) > 1e-12])
    changes = int(np.sum(signs[1:] != signs[:-1]))
    assert changes <= 1
    assert vals[0] < max(vals)
