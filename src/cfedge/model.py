"""Network and compute-workload configuration.

All geometry is in kilometres, all times in seconds, all rates in events per
second. Densities are per square kilometre. SIR thresholds are linear (the
CLI converts dB at the boundary).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def is_real(value) -> bool:
    """A real number within the float range, so finite, and not a bool."""
    return ((type(value) in (float, int) or isinstance(value, numbers.Real)
             and not isinstance(value, bool))
            and abs(value) <= sys.float_info.max)


def check_numbers(config, tuple_fields: tuple = (),
                  int_fields: tuple = ()) -> None:
    """Store the fields of a frozen config as floats, int_fields as ints and
    tuple_fields as tuples of floats. ValueError unless each is is_real, of
    integral value for int_fields; a tuple field must be a list or tuple of
    them, so a string is not read character by character."""
    for name in config.__dataclass_fields__:
        value = getattr(config, name)
        kind = int if name in int_fields else float
        if name in tuple_fields:
            if not (isinstance(value, (list, tuple))
                    and all(map(is_real, value))):
                raise ValueError(f"{name} must be a list of finite numbers")
            object.__setattr__(config, name, tuple(map(float, value)))
        elif not is_real(value) or (kind is int and value != int(value)):
            raise ValueError(f"{name} must be a finite "
                             + ("integer" if kind is int else "number"))
        elif type(value) is not kind:
            object.__setattr__(config, name, kind(value))


# ----------------------------------------------------------------------------
# network geometry + radio parameters
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkConfig:
    lambda_b: float                 # AP density [1/km^2]
    lambda_d: float                 # user density [1/km^2]
    antennas_per_ap: int = 4        # antennas per AP (M)
    alpha: float = 3.7              # pathloss exponent, must be > 2
    d0: float = 0.001               # pathloss reference distance [km]
    coverage_radius: float = 0.05   # cooperation disc radius [km]
    sir_threshold_ul: float = 2.0 ** 1.5 - 1.0   # uplink SIR threshold (linear)
    sir_threshold_dl: float = 2.0 ** 1.5 - 1.0   # downlink SIR threshold (linear)
    network_area: float = 1.0       # total served area [km^2], scales CS load

    def __post_init__(self):
        check_numbers(self, int_fields=("antennas_per_ap",))
        if self.lambda_b < 0 or self.lambda_d < 0:
            raise ValueError("densities must be non-negative")
        if self.antennas_per_ap < 1:
            raise ValueError("antennas_per_ap must be a positive integer")
        if self.alpha <= 2:
            raise ValueError("alpha must exceed 2 for finite interference power")
        if self.d0 <= 0:
            raise ValueError("d0 must be positive")
        if self.coverage_radius < 0:
            raise ValueError("coverage_radius must be non-negative")
        if self.sir_threshold_ul <= 0 or self.sir_threshold_dl <= 0:
            raise ValueError("SIR thresholds must be positive (linear scale)")
        if self.network_area <= 0:
            raise ValueError("network_area must be positive")


def pathloss(r, config: NetworkConfig):
    """Bounded power pathloss max(r, d0)^(-alpha). Accepts scalars or arrays."""
    r = np.asarray(r, dtype=float)
    out = np.maximum(r, config.d0) ** (-config.alpha)
    return float(out) if out.ndim == 0 else out


def mean_connected_aps(config: NetworkConfig) -> float:
    """Mean number of APs inside the cooperation disc, lambda_b pi R^2."""
    return config.lambda_b * math.pi * config.coverage_radius ** 2


# ----------------------------------------------------------------------------
# compute workload
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ComputeConfig:
    """Task mix and service rates for the central server (CS) and edge servers.

    Service times are hyperexponential: a task is of type i with probability
    type_probs[i] and is served at rate mu_c[i] (central) or mu_m[i] (edge).
    """

    type_probs: tuple        # mixing probabilities, sum to 1
    mu_c: tuple              # central-server service rates per type [1/s]
    mu_m: tuple              # edge-server service rates per type [1/s]
    offload_prob: float = 0.5    # probability a task goes to the CS (theta)
    target_latency: float = 0.012    # end-to-end latency target [s]

    def __post_init__(self):
        check_numbers(self, ("type_probs", "mu_c", "mu_m"))
        n = len(self.type_probs)
        if len(self.mu_c) != n or len(self.mu_m) != n:
            raise ValueError("type_probs, mu_c, mu_m must have equal length")
        if n < 1:
            raise ValueError("need at least one task type")
        if any(p < 0 for p in self.type_probs) or abs(sum(self.type_probs) - 1.0) > 1e-9:
            raise ValueError("type_probs must be non-negative and sum to 1")
        if any(m <= 0 for m in self.mu_c) or any(m <= 0 for m in self.mu_m):
            raise ValueError("service rates must be positive")
        if not 0.0 <= self.offload_prob <= 1.0:
            raise ValueError("offload_prob must lie in [0, 1]")
        if self.target_latency <= 0:
            raise ValueError("target_latency must be positive")

    # computed once per config: the queues read them at every split
    @cached_property
    def mean_service_time_cs(self) -> float:
        return sum(p / m for p, m in zip(self.type_probs, self.mu_c))

    @cached_property
    def mean_service_time_mec(self) -> float:
        return sum(p / m for p, m in zip(self.type_probs, self.mu_m))

    @property
    def num_types(self) -> int:
        return len(self.type_probs)
