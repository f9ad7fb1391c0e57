"""Edge offload layer: queue spectrum, latency CDFs, and the offload mix.

The stationary queue spectrum is checked against Taylor coefficients of
the M/G/1 queue-length generating function and against the roots of its
characteristic polynomial, both computed independently in mpmath, and the
latency CDFs against the exponential closed form that exists when there is
a single service type.
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from cfedge import comm, offload
from cfedge.errors import NumericalError, StabilityError
from cfedge.model import ComputeConfig
from cfedge.presets import COMPUTE_MIX
from cfedge.secp import THETA_GRID

from conftest import (MU_C, MU_M, SLOW_COMP, edge_row_reference, make_net,
                      server_weights, walk_reference)

mp.mp.dps = 40


def _pgf_pmf(comp, lam, vmax):
    # queue-length pmf from the Pollaczek-Khinchine generating function
    probs = [mp.mpf(p) for p in comp.type_probs]
    mus = [mp.mpf(m) for m in comp.mu_m]
    rho = lam * sum(p / m for p, m in zip(probs, mus))

    def pi(z):
        s = lam * (1 - z)
        b = sum(p * m / (m + s) for p, m in zip(probs, mus))
        return (1 - rho) * (1 - z) * b / (b - z)

    return [float(c) for c in mp.taylor(pi, 0, vmax)]


def _mp_roots(comp, lam):
    # roots omega of h(omega) = sum_l p_l (mu_l omega - lam)/((mu_l + lam)
    # omega - lam) as mpmath roots of its numerator polynomial, one factor
    # per distinct rate of a type with positive probability
    merged = {}
    for p, mu in zip(comp.type_probs, comp.mu_m):
        if p > 0.0:
            merged[mp.mpf(mu)] = merged.get(mp.mpf(mu), 0) + mp.mpf(p)
    lam = mp.mpf(lam)
    numerator = [mp.mpf(0)] * (len(merged) + 1)
    for mu_l, p_l in merged.items():
        # coefficients, highest power first
        term = [p_l * mu_l, -p_l * lam]
        for mu_k in merged:
            if mu_k != mu_l:
                term = [a * (mu_k + lam) - b * lam
                        for a, b in zip(term + [0], [0] + term)]
        numerator = [a + b for a, b in zip(numerator, term)]
    return sorted(mp.polyroots(numerator, maxsteps=200, extraprec=200))


def _assert_matches_mpmath(comp, load, vmax=8):
    lam = load / comp.mean_service_time_mec
    got = offload.queue_spectrum(comp, lam)
    if got.rho_m < 1e-6:
        # the collapsed spectrum: P[N = 0] = 1 - rho is read as 1, and
        # the rho of mass on N >= 1 as 0
        assert got.roots == (0.0,) * comp.num_types
        tol = 2.0 * got.rho_m
    else:
        want = _mp_roots(comp, lam)
        assert len(got.roots) == len(want)
        for r, w in zip(got.roots, want):
            assert abs(r - w) <= 1e-12 * abs(w), (comp, lam)
        tol = 1e-10
    for v, w in enumerate(_pgf_pmf(comp, mp.mpf(lam), vmax)):
        assert got.pmf(v) == pytest.approx(w, abs=tol), (comp, lam, v)


@st.composite
def _type_mixes(draw):
    n = draw(st.integers(2, 4))
    raw = [draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
           for _ in range(n)]
    if sum(raw) == 0.0:
        raw[0] = 1.0
    mus = tuple(draw(st.floats(5.0, 500.0)) for _ in range(n))
    return ComputeConfig(type_probs=tuple(p / sum(raw) for p in raw),
                         mu_c=mus, mu_m=mus)


class TestQueueSpectrum:
    def test_roots_match_mpmath_on_preset_mix(self, mix_comp):
        preset = ComputeConfig(type_probs=tuple(COMPUTE_MIX["type_probs"]),
                               mu_c=tuple(COMPUTE_MIX["mu_c"]),
                               mu_m=tuple(COMPUTE_MIX["mu_m"]))
        for comp in (preset, mix_comp):
            for load in np.geomspace(1e-9, 0.98, 100):
                _assert_matches_mpmath(comp, float(load))

    @settings(max_examples=300, deadline=None)
    @given(comp=_type_mixes(), log_load=st.floats(-9.0, math.log10(0.98)))
    def test_roots_match_mpmath_on_drawn_mixes(self, comp, log_load):
        _assert_matches_mpmath(comp, 10.0 ** log_load)

    def test_rates_a_few_ulp_apart(self):
        # at this load the poles of 5.0 and 5.000000000000001 are equal in
        # floating point, so in the first bracket the offset of the pole
        # of 5.0 rounds onto the bracket's end: this divided by zero
        mus = (5.0, 5.0, 14.0, 5.000000000000001)
        comp = ComputeConfig(type_probs=(0.0, 1 / 3, 1 / 3, 1 / 3),
                             mu_c=mus, mu_m=mus)
        _assert_matches_mpmath(comp, 10.0 ** -0.5)

    def test_zero_and_repeated_types_merge(self):
        # a type of probability 0 adds no pole, and types of one edge rate
        # share one: the spectrum is that of the merged two-type mix
        merged = ComputeConfig(type_probs=(0.6, 0.4), mu_c=(50.0, 160.0),
                               mu_m=(50.0, 160.0))
        split = ComputeConfig(type_probs=(0.25, 0.0, 0.4, 0.35),
                              mu_c=(50.0, 80.0, 160.0, 50.0),
                              mu_m=(50.0, 80.0, 160.0, 50.0))
        want = offload.queue_spectrum(merged, 40.0)
        got = offload.queue_spectrum(split, 40.0)
        assert len(got.roots) == 2
        assert got.roots == pytest.approx(want.roots, rel=1e-14)
        assert got.weights == pytest.approx(want.weights, rel=1e-13)

    def test_matches_generating_function(self, mix_comp):
        spec = offload.queue_spectrum(mix_comp, 40.0)
        want = _pgf_pmf(mix_comp, mp.mpf(40), 12)
        for v, w in enumerate(want):
            assert spec.pmf(v) == pytest.approx(w, abs=1e-10), v

    def test_mix_regression(self, mix_comp):
        spec = offload.queue_spectrum(mix_comp, 40.0)
        assert spec.roots == pytest.approx(
            (0.20848195539021042, 0.6507217520046471), rel=1e-12)
        assert spec.weights == pytest.approx(
            (0.10499454547796933, 0.3029466309926189), rel=1e-12)
        assert spec.pmf(0) == pytest.approx(0.40794117647058825, rel=1e-12)

    def test_single_type_regression(self):
        comp = ComputeConfig(type_probs=(1.0,), mu_c=(193.9,), mu_m=(48.5,),
                             offload_prob=0.5, target_latency=0.012)
        spec = offload.queue_spectrum(comp, 20.0)
        assert spec.roots == (0.41237113402061853,)
        assert spec.weights == (0.5876288659793815,)

    def test_tail_pmf_identity(self, mix_comp):
        spec = offload.queue_spectrum(mix_comp, 35.0)
        for v in range(20):
            assert spec.tail(v) - spec.tail(v + 1) == pytest.approx(
                spec.pmf(v), abs=1e-14)
        assert spec.tail(0) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < spec.max_root < 1.0

    def test_empty_probability_is_one_minus_load(self, mix_comp):
        for lam in (5.0, 20.0, 40.0, 60.0):
            spec = offload.queue_spectrum(mix_comp, lam)
            rho = lam * mix_comp.mean_service_time_mec
            assert spec.pmf(0) == pytest.approx(1.0 - rho, abs=1e-9)

    def test_zero_arrivals(self, mix_comp):
        spec = offload.queue_spectrum(mix_comp, 0.0)
        assert spec.pmf(0) == 1.0
        assert spec.tail(1) == 0.0

    def test_vanishing_load_guard(self, mix_comp):
        # below the degenerate-load threshold the collapsed spectrum is
        # returned instead of a root search starting next to the poles
        spec = offload.queue_spectrum(mix_comp, 1e-8)
        assert spec.roots == (0.0, 0.0)
        assert spec.weights == (1.0, 0.0)
        assert spec.pmf(0) == 1.0

    def test_unstable_raises(self, mix_comp):
        lam = 1.01 / mix_comp.mean_service_time_mec
        with pytest.raises(StabilityError, match="edge"):
            offload.queue_spectrum(mix_comp, lam)

    def test_negative_rate_rejected(self, mix_comp):
        with pytest.raises(ValueError):
            offload.queue_spectrum(mix_comp, -1.0)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 9")
    def test_mass_is_one_next_to_overload(self):
        # the dominant root is a double next to 1, so 1 - omega keeps few
        # digits: at each of these loads the mass misses 1 by 3e-9 to 1e-4
        # and the spectrum's own check raises NumericalError
        comp = ComputeConfig(**COMPUTE_MIX)
        capacity = 1.0 / comp.mean_service_time_mec
        for k in range(7, 13):
            spec = offload.queue_spectrum(comp, (1.0 - 10.0 ** -k) * capacity)
            assert spec.tail(0) == pytest.approx(1.0, abs=1e-9), k


def _random_mixes(seed, count):
    # 2-4 types, a type of probability 0 now and then, edge rates 5-500/s,
    # at edge loads drawn from [0.01, 0.98]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 5))
        p = rng.uniform(0.01, 1.0, n) * (rng.uniform(size=n) > 0.15)
        p[0] = p[0] or 1.0
        mus = tuple(rng.uniform(5.0, 500.0, n).tolist())
        comp = ComputeConfig(type_probs=tuple((p / p.sum()).tolist()),
                             mu_c=mus, mu_m=mus)
        yield comp, float(rng.uniform(0.01, 0.98)) / comp.mean_service_time_mec


class TestQueueRootSolver:
    def test_roots_equal_scipy_brentq(self, monkeypatch):
        # every root the in-repo solver finds for queue_spectrum is the
        # float scipy.optimize.brentq finds on the same bracket and xtol
        solve, pairs = offload.brent_root, []

        def both(f, a, b, xtol):
            pairs.append((solve(f, a, b, xtol), brentq(f, a, b, xtol=xtol)))
            return pairs[-1][0]

        monkeypatch.setattr(offload, "brent_root", both)
        mixes = list(_random_mixes(20261019, 1200))
        for comp, lam in mixes:
            offload.queue_spectrum(comp, lam)
        assert len(pairs) > 2 * len(mixes)
        differ = [(ours, theirs) for ours, theirs in pairs if ours != theirs]
        assert not differ, (len(differ), differ[:5])

    def test_same_sign_bracket_is_numerical_error(self, mix_comp,
                                                  monkeypatch):
        # the bracket [0, 0]: the cleared h is negative at both ends
        solve = offload.brent_root
        monkeypatch.setattr(offload, "brent_root",
                            lambda f, a, b, xtol: solve(f, a, a, xtol))
        with pytest.raises(NumericalError, match="sign change"):
            offload.queue_spectrum(mix_comp, 40.0)

    def test_no_convergence_is_numerical_error(self, mix_comp, monkeypatch):
        # a sign change at 0 itself, which xtol = tiny cannot reach in 100
        # iterations
        solve = offload.brent_root
        step = lambda u: 1.0 if u >= 0.0 else -1.0     # noqa: E731
        monkeypatch.setattr(offload, "brent_root",
                            lambda f, a, b, xtol: solve(step, -b, b, xtol))
        with pytest.raises(NumericalError, match="did not converge"):
            offload.queue_spectrum(mix_comp, 40.0)


class TestMinDispatch:
    def test_regression(self):
        assert offload.min_dispatch_prob(math.pi) == 0.30455446877969367

    def test_small_argument_branch(self):
        assert offload.min_dispatch_prob(0.0) == 1.0
        a = offload.min_dispatch_prob(9.9e-9)
        b = -math.expm1(-9.9e-9) / 9.9e-9
        assert a == pytest.approx(b, rel=1e-9)

    @given(st.floats(min_value=1e-6, max_value=50.0))
    def test_bounds_and_form(self, nu):
        q = offload.min_dispatch_prob(nu)
        assert 0.0 < q <= 1.0
        assert q == pytest.approx(-math.expm1(-nu) / nu, rel=1e-12)

    def test_decreasing(self):
        grid = np.linspace(0.01, 20.0, 80)
        vals = [offload.min_dispatch_prob(float(v)) for v in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            offload.min_dispatch_prob(-0.1)


class TestMinQueue:
    """The law of the minimum queue length among n servers, as
    mec_conditional_cdf sums it over v."""

    class _EmptyQueueOnly:
        # a service-sum "CDF" that counts only v = 0, so the sum over v
        # returns P[min queue length = 0]
        def cdf(self, v):
            return 1.0 if v == 0 else 0.0

    def test_single_type_closed_form(self):
        comp = ComputeConfig(type_probs=(1.0,), mu_c=(193.9,), mu_m=(48.5,),
                             offload_prob=0.5, target_latency=0.012)
        spec = offload.queue_spectrum(comp, 0.4124 * 48.5)
        got = offload.mec_conditional_cdf((spec,), 3,
                                          self._EmptyQueueOnly())[0]
        assert got[3] == pytest.approx(0.9298615813760001, rel=1e-12)

    def test_normalization(self, mix_comp):
        # at 10 s every service-sum CDF the sum reads is 1
        comp = ComputeConfig(type_probs=mix_comp.type_probs,
                             mu_c=mix_comp.mu_c, mu_m=mix_comp.mu_m,
                             target_latency=10.0)
        spec = offload.queue_spectrum(comp, 40.0)
        got = offload.mec_conditional_cdf((spec,), 5,
                                          offload.mec_cache(comp))[0]
        for n in (1, 2, 5):
            assert got[n] == pytest.approx(1.0, abs=1e-10), n


def test_arrival_rates_explicit(fig_net, mix_comp):
    rates = offload.arrival_rates(fig_net, mix_comp, p_oul=0.25)
    assert rates.lambda_c == pytest.approx(0.5 * 100.0 * 1.0 * 0.75)
    lam_o = 0.5 * 100.0 * math.pi * 0.05 ** 2 * 0.75
    nu = 400.0 * math.pi * 0.05 ** 2
    assert rates.lambda_m == pytest.approx(
        lam_o * offload.min_dispatch_prob(nu))


def test_service_transform_vectorized():
    tr = offload.service_transform((2.0, 5.0), (0.3, 0.7))
    s = np.array([0.0, 1.0, 10.0])
    want = 0.3 * 2.0 / (s + 2.0) + 0.7 * 5.0 / (s + 5.0)
    np.testing.assert_allclose(tr(s), want, rtol=1e-14)
    assert tr(np.array(0.0)) == pytest.approx(1.0)


class TestScpCs:
    def test_regression(self):
        comp = ComputeConfig(type_probs=(1.0,), mu_c=(193.9,), mu_m=(48.5,),
                             offload_prob=0.5, target_latency=0.012)
        assert offload.scp_cs(comp, 50.0) == pytest.approx(
            0.8221473814454758, rel=1e-12)

    def test_mm1_identity(self, single_comp):
        # with exponential service the sojourn is Exp(mu - lambda)
        mu = single_comp.mu_c[0]
        for lam in (10.0, 80.0, 150.0):
            want = -math.expm1(-(mu - lam) * single_comp.target_latency)
            assert offload.scp_cs(single_comp, lam) == pytest.approx(
                want, abs=1e-7)

    @staticmethod
    def _fresh_reference(comp, lambda_c):
        # Euler inversion of the P-K transform with its nodes and service
        # transform built afresh, as every call once did
        t, terms, m_avg, a_parm = comp.target_latency, 18, 11, 18.4
        rho = lambda_c * comp.mean_service_time_cs
        base = offload.service_transform(comp.mu_c, comp.type_probs)
        k = np.arange(terms + m_avg + 1)
        s = a_parm / (2.0 * t) + 1j * math.pi * k / t
        b = base(s)
        vals = (1.0 - rho) * s * b / (s - lambda_c + lambda_c * b) / s
        signs = np.where(k % 2 == 0, 1.0, -1.0)
        signs[0] = 0.5
        partial = np.cumsum(signs * vals.real)
        w = np.array([math.comb(m_avg, j) for j in range(m_avg + 1)],
                     dtype=float)
        w /= 2.0 ** m_avg
        est = math.exp(a_parm / 2.0) / t * float(
            w @ partial[terms:terms + m_avg + 1])
        return min(1.0, max(0.0, est))

    def test_cached_nodes_and_service_transform_are_bit_identical(
            self, single_comp, mix_comp):
        # the second pass reads values cached under every other key first
        for _ in range(2):
            for latency in (0.004, 0.012, 0.2):
                for base in (single_comp, mix_comp):
                    comp = ComputeConfig(type_probs=base.type_probs,
                                         mu_c=base.mu_c, mu_m=base.mu_m,
                                         target_latency=latency)
                    cap = 1.0 / comp.mean_service_time_cs
                    for load in (0.0, 0.1, 0.5, 0.9, 0.99):
                        lam = load * cap
                        assert offload.scp_cs(comp, lam) == \
                            self._fresh_reference(comp, lam), (comp, lam)

    def test_validation(self, single_comp):
        with pytest.raises(ValueError):
            offload.scp_cs(single_comp, -5.0)
        with pytest.raises(StabilityError, match="central"):
            offload.scp_cs(single_comp, single_comp.mu_c[0] * 1.001)


class TestMecLatency:
    def test_cache_monotone_and_stable(self, mix_comp):
        cache = offload.MecCdfCache(mix_comp.type_probs, mix_comp.mu_m,
                                    0.012)
        vals = [cache.cdf(v) for v in range(8)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert cache.cdf(3) == vals[3]

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_single_type_closed_form(self, n):
        # geometric mixture of service sums collapses to one exponential
        comp = ComputeConfig(type_probs=(1.0,), mu_c=(MU_C[1],),
                             mu_m=(MU_M[1],), offload_prob=0.2,
                             target_latency=0.012)
        mu = MU_M[1]
        lam = 0.3 * mu
        spec = offload.queue_spectrum(comp, lam)
        cache = offload.MecCdfCache(comp.type_probs, comp.mu_m,
                                    comp.target_latency)
        got = offload.mec_conditional_cdf((spec,), n, cache)[0, n]
        want = -math.expm1(-mu * (1.0 - 0.3 ** n) * comp.target_latency)
        assert got == pytest.approx(want, abs=1e-7)

    def test_more_servers_help(self, mix_comp):
        spec = offload.queue_spectrum(mix_comp, 40.0)
        cache = offload.MecCdfCache(mix_comp.type_probs, mix_comp.mu_m,
                                    mix_comp.target_latency)
        vals = [offload.mec_conditional_cdf((spec,), n, cache)[0, n]
                for n in (1, 2, 4, 8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    @staticmethod
    def _per_n_reference(spectrum, n, cache):
        # the scalar per-n truncated sum that the vector form replaces
        max_root = spectrum.max_root
        total = 0.0
        v = 0
        while True:
            tail_next = spectrum.tail(v + 1) ** n
            total += (spectrum.tail(v) ** n - tail_next) * cache.cdf(v)
            v += 1
            if tail_next < 1e-10:
                break
            if max_root > 0.0 and \
                    max_root ** (v + 1) / (1.0 - max_root) < 1e-10:
                break
            if cache.cdf(v - 1) < 1e-13 and v > 4:
                break
        return min(1.0, max(0.0, total))

    @pytest.mark.parametrize("n_max", [1, 2, 30, 60])
    def test_vector_form_equals_per_n_sum(self, mix_comp, single_comp,
                                          n_max):
        cases = []
        for comp in (single_comp, mix_comp):
            cap = 1.0 / comp.mean_service_time_mec
            for load in (0.05, 0.3, 0.6, 0.9, 0.98):
                cases.append((comp, offload.queue_spectrum(comp, load * cap)))
            cases.append((comp, offload.queue_spectrum(comp, 0.0)))
        rho_tiny = offload.queue_spectrum(mix_comp, 1e-7 * MU_M[0])
        assert 0.0 < rho_tiny.rho_m < 1e-6
        cases.append((mix_comp, rho_tiny))
        for latency in (0.012, 0.2):
            for comp, spec in cases:
                comp = ComputeConfig(type_probs=comp.type_probs,
                                     mu_c=comp.mu_c, mu_m=comp.mu_m,
                                     target_latency=latency)
                cache = offload.MecCdfCache(comp.type_probs, comp.mu_m,
                                            latency)
                got = offload.mec_conditional_cdf((spec,), n_max, cache)[0]
                assert got.shape == (n_max + 1,)
                assert got[0] == 0.0
                for n in range(1, n_max + 1):
                    assert got[n] == self._per_n_reference(spec, n, cache), \
                        (spec, latency, n)


@st.composite
def _walk_batches(draw):
    # one service law, 1-2 types, and 1-3 loads on it, zero included
    n = draw(st.integers(1, 2))
    mus = tuple(draw(st.floats(20.0, 500.0)) for _ in range(n))
    raw = [draw(st.floats(0.05, 1.0)) for _ in range(n)]
    comp = ComputeConfig(type_probs=tuple(p / sum(raw) for p in raw),
                         mu_c=mus, mu_m=mus,
                         target_latency=draw(st.sampled_from((0.004, 0.012))))
    loads = draw(st.lists(st.just(0.0) | st.floats(1e-4, 0.95),
                          min_size=1, max_size=3))
    return comp, loads, draw(st.integers(0, 400))


class TestRowWiseWalk:
    """mec_conditional_cdf walks over v for several spectra at once."""

    @settings(max_examples=40, deadline=None)
    @given(batch=_walk_batches())
    def test_rows_equal_one_spectrum_walks(self, batch):
        comp, loads, n_max = batch
        cap = 1.0 / comp.mean_service_time_mec
        spectra = []
        for load in loads:
            try:
                spectra.append(offload.queue_spectrum(comp, load * cap))
            except NumericalError:
                pass
        cache = offload.mec_cache(comp)
        rows = offload.mec_conditional_cdf(spectra, n_max, cache)
        assert rows.shape == (len(spectra), n_max + 1)
        for spec, row in zip(spectra, rows):
            one = offload.mec_conditional_cdf((spec,), n_max, cache)[0]
            want = walk_reference(spec, n_max, cache)
            assert row.tolist() == one.tolist() == want.tolist()
            # no -0.0 anywhere: the signs agree too
            assert not np.signbit(row).any()

    def test_zero_load_and_unit_tail(self, mix_comp, single_comp):
        # a zero-load spectrum and single-type spectra start from
        # P[N >= 0] == 1.0 exactly, whose powers skip pow
        cache = offload.mec_cache(single_comp)
        spectra = [offload.queue_spectrum(single_comp, lam)
                   for lam in (0.0, 5.0, 60.0)]
        assert [spec.tail(0) for spec in spectra] == [1.0] * 3
        rows = offload.mec_conditional_cdf(spectra, 30, cache)
        for spec, row in zip(spectra, rows):
            assert row.tolist() == walk_reference(spec, 30, cache).tolist()
        mix = offload.queue_spectrum(mix_comp, 40.0)
        assert mix.tail(0) != 1.0
        cache = offload.mec_cache(mix_comp)
        assert offload.mec_conditional_cdf([mix, mix], 12, cache).tolist() \
            == [walk_reference(mix, 12, cache).tolist()] * 2

    def test_no_rows(self, mix_comp):
        cache = offload.mec_cache(mix_comp)
        assert offload.mec_conditional_cdf([], 5, cache).shape == (0, 6)


def test_scp_cs_over_rates_equals_one_rate_calls(single_comp, mix_comp):
    # the split pass inverts a row's central rates at once, each with the
    # bits of its one-rate scp_cs call
    for comp in (single_comp, mix_comp):
        cap = 1.0 / comp.mean_service_time_cs
        rates = [x * cap for x in (0.0, 0.1, 0.5, 0.9, 0.99)]
        loads = [(lam, 0.0) for lam in rates]
        got = [cs for cs, _ in offload.rate_cdfs(comp, loads, 0)]
        assert got == [offload.scp_cs(comp, lam) for lam in rates]
        assert offload.rate_cdfs(comp, loads[2:3], 0)[0][0] == got[2]
        with pytest.raises(StabilityError, match="central"):
            offload.scp_cs(comp, 1.001 * cap)


def test_poisson_weights_match_scipy():
    from scipy import stats
    w = offload.poisson_weights(3.1)
    np.testing.assert_allclose(
        w, stats.poisson.pmf(np.arange(len(w)), 3.1), rtol=1e-12)
    assert abs(sum(w) - 1.0) < 1e-9
    # exp(-nu) is subnormal at 730 and zero at 1257
    for nu in (730.0, 1257.0):
        w = offload.poisson_weights(nu)
        np.testing.assert_allclose(
            w, stats.poisson.pmf(np.arange(len(w)), nu), rtol=1e-9)
        assert abs(sum(w) - 1.0) < 1e-9


@given(st.lists(st.floats(-1e300, 1e300) | st.just(-0.0), max_size=400))
def test_running_sum_adds_left_to_right(values):
    want = 0.0
    for term in values:
        want += term
    got = offload.running_sum(np.array(values, dtype=float))
    assert got == want
    assert math.copysign(1.0, got) == math.copysign(1.0, want)


def _scp(net, comp):
    """The scp of comp's split: scp_splits on a one-split row."""
    return offload.scp_splits(net, comp, [comp.offload_prob])[0][2]


def test_scp_mixes_paths(fig_net, mix_comp):
    rates = offload.arrival_rates(fig_net, mix_comp,
                                  comm.uplink_outage(fig_net))
    cs = offload.scp_cs(mix_comp, rates.lambda_c)
    mec = offload.scp_mec(server_weights(fig_net),
                          edge_row_reference(fig_net, mix_comp))
    assert 0.0 < cs < 1.0 and 0.0 < mec < 1.0
    assert _scp(fig_net, mix_comp) == 0.5 * cs + 0.5 * mec


def test_scp_pure_paths(fig_net, mix_comp):
    all_cs = replace(mix_comp, offload_prob=1.0)
    rates = offload.arrival_rates(fig_net, all_cs,
                                  comm.uplink_outage(fig_net))
    assert _scp(fig_net, all_cs) == offload.scp_cs(all_cs, rates.lambda_c)
    all_mec = replace(mix_comp, offload_prob=0.0)
    assert _scp(fig_net, all_mec) == offload.scp_mec(
        server_weights(fig_net), edge_row_reference(fig_net, all_mec))


def test_scp_mec_no_servers(mix_comp):
    # no server within reach: the one count is n = 0, which adds nothing
    net = make_net(coverage_radius=0.0)
    weights = server_weights(net)
    assert weights.tolist() == [1.0]
    for theta in (0.0, 0.5):
        one = replace(mix_comp, offload_prob=theta)
        rates = offload.arrival_rates(net, one, comm.uplink_outage(net))
        ((_, row),) = offload.rate_cdfs(
            mix_comp, [(rates.lambda_c, rates.lambda_m)], 0)
        assert row.tolist() == [0.0]
        assert offload.scp_mec(weights, row) == 0.0
        assert offload.scp_splits(net, mix_comp, [theta])[0][1] == 0.0


_THETAS = list(THETA_GRID) + [0.013, 0.4142, 0.987]


def _or_error(f, *args):
    try:
        return f(*args)
    except StabilityError as exc:
        return exc


def _same(got, want):
    """got is want: the same error type and message, or the same floats
    by ==, with the sign of zero."""
    if isinstance(want, StabilityError):
        return type(got) is type(want) and str(got) == str(want)
    if isinstance(got, StabilityError):
        return False
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    return got.tolist() == want.tolist() and \
        np.signbit(got).tolist() == np.signbit(want).tolist()


class TestSplitCdfs:
    """rate_cdfs scores the (lambda_c, lambda_m) pairs of a row of splits in
    one pass; scp_splits sends it a radius's row."""

    @pytest.mark.parametrize("radius", [0.05, 0.12])
    @pytest.mark.parametrize("mix", ["single", "two-type", "slow"])
    def test_values_equal_one_split_references(self, single_comp, mix_comp,
                                               radius, mix):
        comp = {"single": single_comp, "two-type": mix_comp,
                "slow": SLOW_COMP}[mix]
        net = make_net(coverage_radius=radius)
        weights, outage = server_weights(net), comm.uplink_outage(net)
        rates = [offload.arrival_rates(net, replace(comp, offload_prob=theta),
                                       outage) for theta in _THETAS]
        got = offload.rate_cdfs(comp, [(r.lambda_c, r.lambda_m)
                                       for r in rates], len(weights) - 1)
        points = offload.scp_splits(net, comp, _THETAS)
        assert len(got) == len(points) == len(_THETAS)
        overloaded = set()
        for theta, r, (cs, row), (point_cs, point_mec, _) in zip(
                _THETAS, rates, got, points):
            want_cs = _or_error(offload.scp_cs, comp, r.lambda_c)
            want_row = _or_error(edge_row_reference, net,
                                 replace(comp, offload_prob=theta))
            assert _same(cs, want_cs), (theta, cs, want_cs)
            assert _same(row, want_row), theta
            assert _same(point_cs, want_cs), theta
            assert _same(point_mec, want_row if isinstance(
                want_row, StabilityError) else offload.scp_mec(weights,
                                                               want_row))
            overloaded.update(path for path, part in (("central", cs),
                                                      ("edge", row))
                              if isinstance(part, StabilityError))
        # the slow servers overload both queues somewhere on the row
        assert overloaded == ({"central", "edge"} if mix == "slow" else set())

    @pytest.mark.parametrize("n_stable", [0, 1])
    def test_one_path_overloads_the_other_is_scored(self, mix_comp,
                                                    n_stable):
        # the pass makes each path's overload verdict itself: a central
        # overload leaves the split's edge row, and an edge overload its
        # central value, as their stable one-split values. With a stable
        # split beside them, two central rates share the array inversion
        cap_c = 1.0 / mix_comp.mean_service_time_cs
        cap_m = 1.0 / mix_comp.mean_service_time_mec
        rates = [(1.5 * cap_c, 0.5 * cap_m), (0.5 * cap_c, 1.5 * cap_m),
                 (0.3 * cap_c, 0.3 * cap_m)][:2 + n_stable]
        got = offload.rate_cdfs(mix_comp, rates, 6)
        cache = offload.mec_cache(mix_comp)
        for (lam_c, lam_m), (cs, row) in zip(rates, got):
            want_cs = _or_error(offload.scp_cs, mix_comp, lam_c)
            want_row = _or_error(
                lambda: walk_reference(
                    offload.queue_spectrum(mix_comp, lam_m), 6, cache))
            assert _same(cs, want_cs) and _same(row, want_row)
        (cs0, row0), (cs1, row1) = got[:2]
        assert str(cs0).startswith("central") and \
            not isinstance(row0, StabilityError)
        assert str(row1).startswith("edge") and \
            not isinstance(cs1, StabilityError)

    def test_untaken_path_is_scored_at_rate_zero(self, fig_net, mix_comp):
        # the SCP surface reports both paths, also the one a split never takes
        weights, outage = server_weights(fig_net), comm.uplink_outage(fig_net)
        n_max = len(weights) - 1
        rates = [offload.arrival_rates(
            fig_net, replace(mix_comp, offload_prob=theta), outage)
            for theta in (0.0, 1.0)]
        assert (rates[0].lambda_c, rates[1].lambda_m) == (0.0, 0.0)
        got = offload.rate_cdfs(mix_comp, [(r.lambda_c, r.lambda_m)
                                           for r in rates], n_max)
        assert got[0][0] == offload.scp_cs(mix_comp, 0.0)
        zero = offload.queue_spectrum(mix_comp, 0.0)
        assert got[1][1].tolist() == walk_reference(
            zero, n_max, offload.mec_cache(mix_comp)).tolist()
        (cs0, mec0, scp0), (cs1, mec1, scp1) = offload.scp_splits(
            fig_net, mix_comp, [0.0, 1.0])
        assert (cs0, mec1) == (got[0][0],
                               offload.scp_mec(weights, got[1][1]))
        assert (scp0, scp1) == (mec0, cs1)

    def test_one_inversion_and_one_walk_per_row(self, monkeypatch, fig_net,
                                                mix_comp):
        # once the edge CDF cache is warm, the row's central rates share
        # one inversion
        offload.scp_splits(fig_net, mix_comp, _THETAS)
        calls = []
        for name in ("invert_laplace_cdf", "mec_conditional_cdf"):
            original = getattr(offload, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(offload, name, counted)
        offload.scp_splits(fig_net, mix_comp, _THETAS)
        assert sorted(calls) == ["invert_laplace_cdf", "mec_conditional_cdf"]

    def test_one_radius_terms_call_per_row(self, monkeypatch, fig_net,
                                           mix_comp):
        # scp_splits mixes each edge row with the weights of its one
        # radius_terms call, so the row asks for its radius's terms once
        asked, real = [], offload.radius_terms
        monkeypatch.setattr(offload, "radius_terms",
                            lambda net: asked.append(net) or real(net))
        offload.scp_splits(fig_net, mix_comp, _THETAS)
        assert asked == [fig_net]

    def test_no_splits(self, fig_net, mix_comp):
        assert offload.rate_cdfs(mix_comp, [], 5) == []
        assert offload.scp_splits(fig_net, mix_comp, []) == []


def test_one_root_tail_equals_the_generic_sum(single_comp):
    for load in np.geomspace(1e-6, 0.99, 40).tolist() + [0.0]:
        spec = offload.queue_spectrum(
            single_comp, load / single_comp.mean_service_time_mec)
        assert len(spec.roots) == 1
        for v in range(201):
            want = float(sum(w * r ** v / (1.0 - r)
                             for w, r in zip(spec.weights, spec.roots)))
            got = spec.tail(v)
            assert got == want and type(got) is float, (load, v)
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
