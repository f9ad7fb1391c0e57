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
from .offload import (central_load, mec_cache, mec_conditional_cdfs,
                      min_dispatch_prob, poisson_weights, queue_spectrum,
                      running_sum, scp_cs_each, split_rates)

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


@dataclass(frozen=True)
class _Link:
    """The split-independent terms of secp at one network (one radius)."""

    weights: np.ndarray      # Poisson weights of n = 1..n_max connected APs
    ul_given_n: np.ndarray   # P[some AP decodes | n APs], n = 1..n_max
    ul_term: float           # Poisson-aggregated uplink term over n >= 1
    dl_success: float
    success: float           # uplink success, which thins the arrivals
    dispatch: float          # min_dispatch_prob of the mean AP count

    @property
    def n_max(self) -> int:
        return len(self.weights)


@lru_cache(maxsize=64)
def _link(net: NetworkConfig) -> _Link:
    """The _Link of net, so a search computes it once per radius.

    The uplink terms come from comm.uplink_mixture; the downlink success is
    cached here rather than on comm.downlink_outage, so every call of the
    closed form itself is still a real evaluation.
    """
    uplink = comm.uplink_mixture(net)
    weights = poisson_weights(uplink.mean_aps)
    # P[some AP decodes | n APs] = 1 - sum_k w_k (1 - q_k)^n
    ul_given_n = 1.0 - uplink.weights @ (
        1.0 - uplink.success[:, None]) ** np.arange(len(weights))
    weights, ul_given_n = weights[1:], ul_given_n[1:]
    weights.setflags(write=False)
    ul_given_n.setflags(write=False)
    return _Link(weights, ul_given_n, running_sum(weights * ul_given_n),
                 1.0 - comm.downlink_outage(net).point, 1.0 - uplink.outage,
                 min_dispatch_prob(uplink.mean_aps))


def secp_splits(net: NetworkConfig, comp: ComputeConfig, thetas) -> list:
    """(secp, comp_term, ul_term, dl_term) at each offload split of thetas,
    or the StabilityError of a split that overloads a queue: the link terms
    once per network (cached), one scp_cs call and one walk over the queue
    length for all stable splits, and each split's sums over n added left
    to right, as a loop over n = 1..n_max."""
    if net.coverage_radius <= 0.0:
        return [(0.0, 0.0, 0.0, 1.0)] * len(thetas)
    link = _link(net)
    points = [None] * len(thetas)
    stable, lam_c, spectra = [], [], []
    for k, theta in enumerate(thetas):
        rates = split_rates(net, theta, link.success, link.dispatch)
        try:
            # the central queue raises first, as in scp
            if theta > 0.0:
                central_load(comp, rates[0])
            if theta < 1.0:
                spectrum = queue_spectrum(comp, rates[2])
        except StabilityError as exc:
            points[k] = exc
            continue
        stable.append((k, theta))
        if theta > 0.0:
            lam_c.append(rates[0])
        if theta < 1.0:
            spectra.append(spectrum)
    cs_part = iter(scp_cs_each(comp, lam_c))
    mec = iter(mec_conditional_cdfs(spectra, link.n_max, mec_cache(comp)))
    for k, theta in stable:
        cs = next(cs_part) if theta > 0.0 else 0.0
        mec_n = next(mec) if theta < 1.0 else np.zeros(link.n_max + 1)
        # per n >= 1: computation success, then its products with the weights
        w_comp = link.weights * (theta * cs + (1.0 - theta) * mec_n[1:])
        points[k] = (running_sum(w_comp * link.ul_given_n) * link.dl_success,
                     running_sum(w_comp), link.ul_term, link.dl_success)
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
                theta_grid):
    """(split, secp) maximizing secp at the given coverage radius, or None
    when every split on the grid overloads a queue."""
    return search.maximize(
        _split_scorer(replace(net, coverage_radius=float(radius)), comp),
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

    best = search.maximize(lambda radii: [value(R) for R in radii],
                           np.linspace(r_lo, r_hi, 8))
    if best is None:
        raise InfeasibilityError("no stable operating point in the radius range")
    best_r, best_val = best
    return best_r, splits[best_r], best_val
