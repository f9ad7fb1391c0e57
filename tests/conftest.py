import numpy as np
import pytest

from cfedge import comm, offload
from cfedge.model import ComputeConfig, NetworkConfig, mean_connected_aps

# Exact-fraction service rates implied by the default hardware constants:
# 8 f / (330 * 0.5e6) with f in {4, 5} GHz centrally and {1, 3.4} GHz at
# the edge.
MU_C = (6400.0 / 33.0, 8000.0 / 33.0)
MU_M = (1600.0 / 33.0, 5440.0 / 33.0)


# slow servers: the edge queue overloads at small splits and the central
# one at large splits on the default network
SLOW_COMP = ComputeConfig(type_probs=(0.6, 0.4), mu_c=(50.0, 80.0),
                          mu_m=(0.1, 0.2), target_latency=0.012)


def make_net(**overrides) -> NetworkConfig:
    base = dict(lambda_b=400.0, lambda_d=100.0, antennas_per_ap=4,
                alpha=3.7, d0=0.001, coverage_radius=0.05)
    base.update(overrides)
    return NetworkConfig(**base)


@pytest.fixture
def fig_net() -> NetworkConfig:
    return make_net()


@pytest.fixture
def mix_comp() -> ComputeConfig:
    return ComputeConfig(type_probs=(0.6, 0.4), mu_c=MU_C, mu_m=MU_M,
                         offload_prob=0.5, target_latency=0.012)


@pytest.fixture
def single_comp() -> ComputeConfig:
    return ComputeConfig(type_probs=(1.0,), mu_c=(MU_C[1],), mu_m=(MU_M[1],),
                         offload_prob=0.2, target_latency=0.012)


def walk_reference(spectrum, n_max, cache):
    """Reference for a row of offload.mec_conditional_cdf: the walk over the
    queue length v for one spectrum, with an array update per v, every
    power P[N >= v]^n in Python's float power and the same cut-offs.
    Tests compare with it by ==."""
    total = np.zeros(n_max + 1)
    max_root = spectrum.max_root
    active = n_max
    tail = spectrum.tail(0)
    powers = np.array([tail ** n for n in range(1, active + 1)])
    v = 0
    while active > 0:
        cdf = cache.cdf(v)
        tail = spectrum.tail(v + 1)
        listed = [tail ** n for n in range(1, active + 1)]
        powers_next = np.array(listed)
        total[1:active + 1] += (powers - powers_next) * cdf
        v += 1
        while active > 0 and listed[active - 1] < 1e-10:
            active -= 1
        if max_root > 0.0 and max_root ** (v + 1) / (1.0 - max_root) < 1e-10:
            break
        if cdf < 1e-13 and v > 4:
            break
        powers = powers_next[:active]
    np.maximum(total, 0.0, out=total)
    return np.minimum(total, 1.0, out=total)


def server_weights(net):
    """The Poisson weights of the connected-server count at net's radius,
    which offload.scp_mec mixes an edge row over."""
    return offload.poisson_weights(mean_connected_aps(net))


def edge_row_reference(net, comp):
    """Reference for an edge row of offload.rate_cdfs: walk_reference of
    the edge queue of comp's split alone at net's radius, over the counts
    of its Poisson weights. StabilityError if the split overloads it."""
    rates = offload.arrival_rates(net, comp, comm.uplink_outage(net))
    n_max = len(server_weights(net)) - 1
    return walk_reference(offload.queue_spectrum(comp, rates.lambda_m),
                          n_max, offload.mec_cache(comp))
