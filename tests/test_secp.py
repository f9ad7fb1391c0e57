"""Joint end-to-end success probability and the radius threshold search."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from cfedge import comm, offload
from cfedge.errors import InfeasibilityError, StabilityError
from cfedge.model import ComputeConfig, mean_connected_aps
from cfedge.presets import COMPUTE_SINGLE
from cfedge.secp import (THETA_GRID, _coupling, _split_scorer,
                         find_r_threshold, secp)

from conftest import MU_C, MU_M, SLOW_COMP, make_net, walk_reference


def test_zero_radius_degenerate(fig_net, mix_comp):
    pt = secp(replace(fig_net, coverage_radius=0.0), mix_comp)
    assert pt.secp == 0.0
    assert pt.comp_term == 0.0 and pt.ul_term == 0.0
    assert pt.dl_term == 1.0


def test_reduces_to_communication_success(fig_net, mix_comp):
    # with everything sent to the central server and a latency target far
    # beyond any sojourn time, only the radio links can fail
    relaxed = replace(mix_comp, offload_prob=1.0, target_latency=50.0)
    pt = secp(fig_net, relaxed)
    scmp = (1.0 - comm.uplink_outage(fig_net)) \
        * (1.0 - comm.downlink_outage(fig_net).point)
    assert pt.secp == pytest.approx(scmp, abs=1e-6)


def test_uplink_term_aggregates_correctly(fig_net, mix_comp):
    pt = secp(fig_net, mix_comp)
    assert pt.ul_term == pytest.approx(1.0 - comm.uplink_outage(fig_net),
                                       abs=1e-9)


def test_downlink_term_is_point_success(fig_net, mix_comp):
    pt = secp(fig_net, mix_comp)
    assert pt.dl_term == pytest.approx(
        1.0 - comm.downlink_outage(fig_net).point, rel=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.35, 1.0])
@pytest.mark.parametrize("radius", [0.03, 0.12])
def test_sums_equal_per_n_loop(mix_comp, radius, theta):
    # the elementwise sums over n add in the order of a loop over n
    net = make_net(coverage_radius=radius)
    comp = replace(mix_comp, offload_prob=theta)
    pt = secp(net, comp)
    uplink = comm.uplink_mixture(net)
    weights = offload.poisson_weights(mean_connected_aps(net))
    rates = offload.arrival_rates(net, comp, uplink.outage)
    spectrum = offload.queue_spectrum(comp, rates.lambda_m)
    mec = offload.mec_conditional_cdf((spectrum,), len(weights) - 1,
                                      offload.mec_cache(comp))[0]
    cs_part = offload.scp_cs(comp, rates.lambda_c) if theta > 0.0 else 0.0
    ul_given_n = 1.0 - uplink.weights @ (
        1.0 - uplink.success[:, None]) ** np.arange(len(weights))
    total = comp_term = ul_term = 0.0
    for n in range(1, len(weights)):
        comp_n = theta * cs_part + (1.0 - theta) * (
            mec[n] if theta < 1.0 else 0.0)
        ul_n = ul_given_n[n]
        total += weights[n] * comp_n * ul_n
        comp_term += weights[n] * comp_n
        ul_term += weights[n] * ul_n
    assert (pt.secp, pt.comp_term, pt.ul_term) == (
        total * pt.dl_term, comp_term, ul_term)


def test_association_inequality(mix_comp):
    # computation and uplink success are both increasing in the AP count,
    # so coupling them inside the Poisson average can only help
    for R in (0.03, 0.05, 0.08, 0.12):
        pt = secp(make_net(coverage_radius=R), mix_comp)
        assert pt.secp >= pt.comp_term * pt.ul_term * pt.dl_term - 1e-12
        assert 0.0 <= pt.secp <= 1.0


def test_monotone_in_latency_target(fig_net, mix_comp):
    vals = [secp(fig_net, replace(mix_comp, target_latency=t)).secp
            for t in (0.004, 0.008, 0.012, 0.02, 0.05)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def _per_split_secp(net, comp, theta):
    """secp at split theta, None where a queue overloads, with the split
    scored alone: its own arrival rates and scp_cs call, the reference walk
    and left-to-right sums over n."""
    comp = replace(comp, offload_prob=theta)
    uplink = comm.uplink_mixture(net)
    weights = offload.poisson_weights(mean_connected_aps(net))
    ul_given_n = 1.0 - uplink.weights @ (
        1.0 - uplink.success[:, None]) ** np.arange(len(weights))
    dl_success = 1.0 - comm.downlink_outage(net).point
    rates = offload.arrival_rates(net, comp, uplink.outage)
    try:
        cs_part = offload.scp_cs(comp, rates.lambda_c) if theta > 0.0 \
            else 0.0
        if theta < 1.0:
            mec_n = walk_reference(
                offload.queue_spectrum(comp, rates.lambda_m),
                len(weights) - 1, offload.mec_cache(comp))
        else:
            mec_n = np.zeros(len(weights))
    except StabilityError:
        return None
    comp_n = theta * cs_part + (1.0 - theta) * mec_n[1:]
    total = 0.0
    for term in weights[1:] * comp_n * ul_given_n[1:]:
        total += term
    return total * dl_success


def test_split_scorer_equals_per_split_code(fig_net, mix_comp):
    # the batched evaluator against each split scored alone, by == with
    # the sign of zero; the off-grid splits stand for golden-section steps
    single = ComputeConfig(type_probs=COMPUTE_SINGLE["type_probs"],
                           mu_c=COMPUTE_SINGLE["mu_c"],
                           mu_m=COMPUTE_SINGLE["mu_m"])
    thetas = list(THETA_GRID) + [0.013, 0.4142, 0.987]
    overloaded = 0
    for comp in (mix_comp, SLOW_COMP, single):
        for radius in (0.01, 0.05, 0.12, 0.2):
            net = replace(fig_net, coverage_radius=radius)
            got = _split_scorer(net, comp)(thetas)
            # one split at a time, and one pair, as the searches send them
            assert [_split_scorer(net, comp)([th])[0] for th in thetas] == got
            assert _split_scorer(net, comp)(thetas[3:5]) == got[3:5]
            for theta, value in zip(thetas, got):
                want = _per_split_secp(net, comp, theta)
                assert value == want, (comp, radius, theta)
                if value is None:
                    overloaded += 1
                else:
                    assert math.copysign(1.0, value) == \
                        math.copysign(1.0, want)
    assert overloaded > 0
    for theta in (-0.1, 1.5):
        with pytest.raises(ValueError, match="offload_prob"):
            _split_scorer(fig_net, mix_comp)([0.5, theta])


def test_only_stable_splits_reach_the_shared_pass(monkeypatch, fig_net):
    # a split that overloads either queue is the queue's error before the
    # shared pass, which then walks no edge queue of a central overload;
    # a stable split reaches it as its (lambda_c, lambda_m) pair
    module = sys.modules["cfedge.secp"]
    sent = []

    def recorded(comp, rates, n_max):
        sent.extend(rates)
        return offload.rate_cdfs(comp, rates, n_max)

    monkeypatch.setattr(module, "rate_cdfs", recorded)
    points = module.secp_splits(fig_net, SLOW_COMP, list(THETA_GRID))
    errors = {str(p).split()[0] for p in points
              if isinstance(p, StabilityError)}
    assert errors == {"central", "edge"}
    want = [offload.arrival_rates(fig_net, replace(SLOW_COMP,
                                                   offload_prob=theta),
                                  comm.uplink_outage(fig_net))
            for theta, p in zip(THETA_GRID, points)
            if not isinstance(p, StabilityError)]
    assert sent == [(r.lambda_c, r.lambda_m) for r in want]
    assert sent


def test_secp_is_the_one_split_case(fig_net):
    for theta in THETA_GRID:
        comp = replace(SLOW_COMP, offload_prob=theta)
        value, = _split_scorer(fig_net, SLOW_COMP)([theta])
        if value is None:
            with pytest.raises(StabilityError):
                secp(fig_net, comp)
        else:
            assert secp(fig_net, comp).secp == value


@pytest.mark.parametrize("theta, queue", [(0.0, "edge"), (0.3, "edge"),
                                          (0.8, "central"), (1.0, "central")])
def test_overloaded_queue_raises(fig_net, theta, queue):
    with pytest.raises(StabilityError, match=queue):
        secp(fig_net, replace(SLOW_COMP, offload_prob=theta))


class TestRadiusThreshold:
    def test_small_case_quality(self, mix_comp):
        net = make_net()
        r_star, th_star, val = find_r_threshold(net, mix_comp, (0.02, 0.12))
        assert 0.02 <= r_star <= 0.12
        assert 0.0 <= th_star <= 1.0
        # the reported optimum has to beat a coarse independent scan
        for R in np.linspace(0.025, 0.115, 7):
            for th in (0.2, 0.5, 0.8):
                cfg = replace(mix_comp, offload_prob=float(th))
                probe = secp(replace(net, coverage_radius=float(R)), cfg)
                assert val >= probe.secp - 1e-4
        best = secp(replace(net, coverage_radius=r_star),
                    replace(mix_comp, offload_prob=th_star))
        assert val == pytest.approx(best.secp, abs=1e-9)

    def test_one_uplink_mixture_per_network(self, monkeypatch, mix_comp):
        # _coupling is the split path's one per-network cache: below it, a
        # search asks for each network's uplink mixture once
        _coupling.cache_clear()
        asked, real = [], comm.uplink_mixture
        monkeypatch.setattr(comm, "uplink_mixture",
                            lambda net: asked.append(net) or real(net))
        find_r_threshold(make_net(), mix_comp, (0.02, 0.12),
                         theta_grid=np.linspace(0.0, 1.0, 5))
        assert len(asked) == len(set(asked)) == _coupling.cache_info().misses

    def test_bounds_validation(self, mix_comp):
        with pytest.raises(ValueError):
            find_r_threshold(make_net(), mix_comp, (0.1, 0.05))
        with pytest.raises(ValueError):
            find_r_threshold(make_net(), mix_comp, (0.0, 0.05))

    def test_infeasible_range(self):
        # overload both queues so no radius in range has a stable split
        net = make_net(lambda_d=40.0)
        comp = ComputeConfig(type_probs=(1.0,), mu_c=(10.0,), mu_m=(0.024,),
                             offload_prob=0.5, target_latency=0.012)
        with pytest.raises(InfeasibilityError, match="radius range"):
            find_r_threshold(net, comp, (0.08, 0.12))
