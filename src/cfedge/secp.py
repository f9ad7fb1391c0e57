"""End-to-end edge service success and the coverage-radius threshold.

Combines, per realized number of connected APs, the computation success
(central or edge path), the chance that at least one connected AP decodes
the uplink, and the downlink success, then averages over the Poisson AP
count. The uplink terms come from comm.uplink_mixture, which evaluates all
APs on one shared interferer field: P[some AP decodes | n APs] and the
outage that thins the task arrivals are both taken from it, so at a relaxed
latency target the joint probability reduces to scmp_vs_R's scmp. The threshold
search finds the radius and offload split that maximize that joint
probability.

secp_splits computes each split's (lambda_c, lambda_m) pair once and sends
only the pairs of its stable splits to offload.rate_cdfs, the one pass that
scores split rows, so the searches never walk the edge queues of splits
that overload the central server. A row reads its network from _coupling,
the one per-network cache of the split path, built from one
offload.radius_terms call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import comm, search
from .errors import InfeasibilityError, StabilityError
from .model import ComputeConfig, NetworkConfig
from .offload import (central_load, edge_load, radius_terms, rate_cdfs,
                      running_sum, split_rates)

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
def _coupling(net: NetworkConfig) -> tuple:
    """(success, dispatch, w_pos, ul_n, ul_term, dl_success) of net from one
    radius_terms call: success is 1 - the uplink outage, w_pos and ul_n list
    the Poisson weights and P[some AP decodes | n APs] over n = 1..n_max,
    ul_term is their weighted sum. The split path's one per-network cache:
    every comm.uplink_mixture and downlink_outage call is real."""
    uplink, dispatch, weights = radius_terms(net)
    # P[some AP decodes | n APs] = 1 - sum_k w_k (1 - q_k)^n
    ul_given_n = (1.0 - uplink.weights @ (1.0 - uplink.success[:, None])
                  ** np.arange(len(weights)))[1:]
    return (1.0 - uplink.outage, dispatch, weights[1:].tolist(),
            ul_given_n.tolist(), running_sum(weights[1:] * ul_given_n),
            1.0 - comm.downlink_outage(net).point)


def secp_splits(net: NetworkConfig, comp: ComputeConfig, thetas) -> list:
    """(secp, comp_term, ul_term, dl_term) at each offload split of thetas,
    or the StabilityError of a split that overloads a queue it takes (one
    it never takes has arrival rate 0), the central one first. Only the
    (lambda_c, lambda_m) pairs of the stable splits go to
    offload.rate_cdfs; each one's sums over n are added left to right, in
    a loop over n = 1..n_max."""
    success, dispatch, w_pos, ul_n, ul_term, dl_success = _coupling(net)
    points, rates = [], []
    for theta in thetas:
        lam_c, lam_m = split_rates(net, theta, success, dispatch)
        try:
            central_load(comp, lam_c)
            edge_load(comp, lam_m)
            rates.append((lam_c, lam_m))
            points.append(theta)
        except StabilityError as exc:
            points.append(exc)
    scored = iter(rate_cdfs(comp, rates, len(w_pos)))  # n_max
    for k, theta in enumerate(points):
        if not isinstance(theta, StabilityError):
            cs, mec_n = next(scored)
            # per n >= 1: computation success times P[n], then the uplink
            central, edge = theta * cs, 1.0 - theta
            joint = comp_term = 0.0
            for w, mec, ul in zip(w_pos, mec_n[1:].tolist(), ul_n):
                term = w * (central + edge * mec)
                joint += term * ul
                comp_term += term
            points[k] = (joint * dl_success, comp_term, ul_term, dl_success)
    return points


def secp(net: NetworkConfig, comp: ComputeConfig) -> SecpPoint:
    """Probability that upload, computation and download all succeed in time:
    the one-split case of secp_splits. StabilityError if the split
    overloads a queue."""
    point, = secp_splits(net, comp, (comp.offload_prob,))
    if isinstance(point, StabilityError):
        raise point
    return SecpPoint(net.coverage_radius, comp.offload_prob,
                     comp.target_latency, *point)


def _split_scorer(net: NetworkConfig, comp: ComputeConfig):
    """The split evaluator at net's radius, in the form search.maximize
    takes: a function mapping a list of offload splits to their secp, None
    where a split overloads a queue. comp's fields other than the split
    passed ComputeConfig's checks; the splits are checked here."""
    def score(thetas) -> list:
        thetas = [float(theta) for theta in thetas]
        if not all(0.0 <= theta <= 1.0 for theta in thetas):
            raise ValueError("offload_prob must lie in [0, 1]")
        return [None if isinstance(point, StabilityError) else point[0]
                for point in secp_splits(net, comp, thetas)]

    return score


def _best_theta(net: NetworkConfig, comp: ComputeConfig, radius: float,
                theta_grid, stop=None):
    """(split, secp) maximizing secp at the given coverage radius, or None
    when every split on the grid overloads a queue. With stop, it returns
    as soon as a split's secp reaches stop (search.maximize)."""
    return search.maximize(
        _split_scorer(replace(net, coverage_radius=float(radius)), comp),
        theta_grid, stop)


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

    best = search.maximize(lambda radii: [value(R) for R in radii],
                           np.linspace(r_lo, r_hi, 8))
    if best is None:
        raise InfeasibilityError("no stable operating point in the radius range")
    best_r, best_val = best
    return best_r, splits[best_r], best_val
