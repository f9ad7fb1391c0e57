"""End-to-end edge service success and the coverage-radius threshold.

Combines, per realized number of connected APs, the computation success
(central or edge path), the chance that at least one connected AP decodes
the uplink, and the downlink success, then averages over the Poisson AP
count. The uplink terms come from comm.uplink_mixture, which evaluates all
APs on one shared interferer field: P[some AP decodes | n APs] and the
outage that thins the task arrivals are both taken from it, so at a relaxed
latency target the joint probability reduces to comm.scmp. The threshold
search finds the smallest-latency-feasible radius maximizing that joint
probability over the offload split.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import comm, search
from .errors import InfeasibilityError, StabilityError
from .model import ComputeConfig, NetworkConfig
from .offload import (arrival_rates, mec_cache, mec_conditional_cdf,
                      poisson_weights, queue_spectrum, running_sum, scp_cs)

# offload splits scanned before the golden-section refinement
THETA_GRID = tuple(float(th) for th in np.linspace(0.0, 1.0, 21))


@dataclass(frozen=True)
class SecpPoint:
    """Joint success probability at one (radius, split, latency) point.

    comp_term, ul_term and dl_term are the Poisson-aggregated computation,
    uplink and downlink factors; secp couples the first two inside the sum
    so it is bounded by, not equal to, their product.
    """

    coverage_radius: float
    offload_prob: float
    target_latency: float
    secp: float
    comp_term: float
    ul_term: float
    dl_term: float


@lru_cache(maxsize=64)
def _downlink_success(net: NetworkConfig) -> float:
    # cached here rather than on comm.downlink_outage, so every call of
    # the closed form itself is still a real evaluation
    return 1.0 - comm.downlink_outage(net).point


@lru_cache(maxsize=64)
def _uplink_terms(net: NetworkConfig):
    """Poisson weights of the connected-AP count n and P[some AP decodes |
    n APs], both indexed by n = 0..n_max, and the Poisson-aggregated uplink
    term over n >= 1. They depend on the network only, so a search computes
    them once per radius."""
    uplink = comm.uplink_mixture(net)
    weights = poisson_weights(uplink.mean_aps)
    # P[some AP decodes | n APs] = 1 - sum_k w_k (1 - q_k)^n
    ul_given_n = 1.0 - uplink.weights @ (
        1.0 - uplink.success[:, None]) ** np.arange(len(weights))
    weights.setflags(write=False)
    ul_given_n.setflags(write=False)
    return weights, ul_given_n, running_sum(weights[1:] * ul_given_n[1:])


def secp(net: NetworkConfig, comp: ComputeConfig) -> SecpPoint:
    """Probability that upload, computation and download all succeed in time.

    The uplink terms and the downlink success are cached per network, so
    a search at one radius computes them once; the sums over n run
    elementwise, in the order of a loop over n = 1..n_max.
    """
    theta = comp.offload_prob
    t = comp.target_latency
    R = net.coverage_radius
    if R <= 0.0:
        return SecpPoint(R, theta, t, 0.0, 0.0, 0.0, 1.0)
    weights, ul_given_n, ul_term = _uplink_terms(net)
    dl_success = _downlink_success(net)
    # scp_cs and queue_spectrum raise StabilityError on an overloaded queue
    rates = arrival_rates(net, comp, comm.uplink_mixture(net).outage)
    cs_part = scp_cs(comp, rates.lambda_c) if theta > 0.0 else 0.0
    n_max = len(weights) - 1
    if theta < 1.0:
        mec_n = mec_conditional_cdf(queue_spectrum(comp, rates.lambda_m),
                                    n_max, mec_cache(comp))
    else:
        mec_n = np.zeros(n_max + 1)
    # per n >= 1: computation success, then its products with the weights
    comp_n = theta * cs_part + (1.0 - theta) * mec_n[1:]
    w_comp = weights[1:] * comp_n
    return SecpPoint(R, theta, t,
                     running_sum(w_comp * ul_given_n[1:]) * dl_success,
                     running_sum(w_comp), ul_term, dl_success)


def _split_secp(net: NetworkConfig, comp: ComputeConfig, theta: float):
    """secp at offload split theta; None where that split overloads a queue.
    Only theta is checked: comp's other fields passed ComputeConfig's."""
    theta = float(theta)
    if not 0.0 <= theta <= 1.0:
        raise ValueError("offload_prob must lie in [0, 1]")
    split = object.__new__(ComputeConfig)
    split.__dict__.update(vars(comp), offload_prob=theta)
    try:
        return secp(net, split).secp
    except StabilityError:
        return None


def _best_theta(net: NetworkConfig, comp: ComputeConfig, radius: float,
                theta_grid):
    """(split, secp) maximizing secp at the given coverage radius, or None
    when every split on the grid overloads a queue."""
    net = replace(net, coverage_radius=float(radius))
    return search.maximize(lambda theta: _split_secp(net, comp, theta),
                           theta_grid)


def find_r_threshold(net: NetworkConfig, comp: ComputeConfig,
                     r_bounds: tuple, theta_grid=THETA_GRID):
    """Radius and split maximizing the joint success probability.

    Scans 8 radii across r_bounds to bracket the peak of
    max_theta secp(R, theta), refines with golden-section search, and
    returns (best radius, best split there, best secp value).
    """
    r_lo, r_hi = float(r_bounds[0]), float(r_bounds[1])
    if not 0.0 < r_lo < r_hi:
        raise ValueError("need 0 < r_lo < r_hi")
    splits = {}

    def value(R: float):
        best = _best_theta(net, comp, R, theta_grid)
        if best is not None:
            splits[R] = best[0]
            return best[1]

    best = search.maximize(value, np.linspace(r_lo, r_hi, 8))
    if best is None:
        raise InfeasibilityError("no stable operating point in the radius range")
    best_r, best_val = best
    return best_r, splits[best_r], best_val
