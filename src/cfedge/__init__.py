"""Coverage, latency and energy evaluation for cell-free networks with
edge compute offloading.

The package is split along the pipeline:

- ``model``: network / workload configuration objects and geometry helpers
- ``specfun``: special functions and numerical inversion primitives
- ``comm``: uplink and downlink decoding probabilities
- ``offload``: queueing spectra and computation success probabilities
- ``secp``: combined communication + computation success, radius search
- ``search``: grid + golden-section maximization and bisection
- ``energy``: energy model and constrained minimisation
- ``sim``: Monte Carlo and discrete-event reference implementations
- ``presets``: named parameter sets for the bundled experiments
- ``cli``: batch experiment runner (``cfedge`` console script)

Importing any module first frees one untouched buffer of _HEAP_ELEMENTS
float64s. Under glibc that raises the mmap and heap-trim thresholds
(mallopt(3)): large temporaries here and in forked children reuse heap pages
already faulted in, and the process may keep up to 64 MiB of freed heap.
"""

import numpy as np

_HEAP_ELEMENTS = 2 ** 22 - 2 ** 10   # a freed chunk over 32 MiB raises none
np.empty(_HEAP_ELEMENTS)

from .errors import InfeasibilityError, NumericalError, StabilityError
from .model import (
    ComputeConfig,
    NetworkConfig,
    mean_connected_aps,
    pathloss,
)
from .comm import (
    DownlinkOutage,
    GammaInterferenceParams,
    UplinkMixture,
    downlink_outage,
    gamma_interference_params,
    per_ap_success,
    uplink_mixture,
    uplink_outage,
)
from .offload import (
    ArrivalRates,
    QueueSpectrum,
    arrival_rates,
    min_dispatch_prob,
    queue_spectrum,
    scp_cs,
    scp_mec,
)
from .secp import SecpPoint, find_r_threshold, secp
from .energy import (
    CommunicationEnergy,
    EnergyBreakdown,
    EnergyConfig,
    communication_energy,
    computation_energy,
    energy_breakdown,
    minimize_energy,
    service_rates,
)

__version__ = "0.1.0"

__all__ = [
    "ArrivalRates",
    "CommunicationEnergy",
    "ComputeConfig",
    "DownlinkOutage",
    "EnergyBreakdown",
    "EnergyConfig",
    "GammaInterferenceParams",
    "InfeasibilityError",
    "NetworkConfig",
    "NumericalError",
    "QueueSpectrum",
    "SecpPoint",
    "StabilityError",
    "UplinkMixture",
    "arrival_rates",
    "communication_energy",
    "computation_energy",
    "downlink_outage",
    "energy_breakdown",
    "find_r_threshold",
    "gamma_interference_params",
    "mean_connected_aps",
    "min_dispatch_prob",
    "minimize_energy",
    "pathloss",
    "per_ap_success",
    "queue_spectrum",
    "scp_cs",
    "scp_mec",
    "secp",
    "service_rates",
    "uplink_mixture",
    "uplink_outage",
]
