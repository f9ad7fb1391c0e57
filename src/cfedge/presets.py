"""Named parameter sets for the bundled experiments.

Each preset is a plain JSON-compatible dict with the same shape as a spec
file, so ``cfedge run --preset NAME`` and ``cfedge run spec.json`` go
through identical parsing. A spec file given together with ``--preset``
overrides the preset key by key (shallow merge per top-level section).

Service rates are derived from the hardware constants in
:class:`cfedge.energy.EnergyConfig` rather than written out as literals,
so the queueing side and the energy side cannot drift apart.
"""

from __future__ import annotations

import copy

from .energy import EnergyConfig, service_rates

# Linear SIR threshold for an information rate of 1.5 bps/Hz. The dB
# figure usually quoted for it (2.62 dB) is rounded; the rate anchor is
# exact, so presets store the linear value.
SIR_RATE_15 = 2.0 ** 1.5 - 1.0

_MU_C, _MU_M = service_rates(EnergyConfig())

#: Two task types: type 1 on the slower hardware pair, type 2 on the
#: faster pair (1 vs 3.4 GHz at the edge, 4 vs 5 GHz at the hub).
COMPUTE_MIX = {
    "type_probs": [0.6, 0.4],
    "mu_c": list(_MU_C),
    "mu_m": list(_MU_M),
    "target_latency": 0.012,
}

#: Degenerate mix putting all mass on type 2, i.e. a single-type
#: workload on the faster hardware pair. This is the workload used by
#: the radius-threshold and energy experiments.
COMPUTE_SINGLE = {
    "type_probs": [1.0],
    "mu_c": [_MU_C[1]],
    "mu_m": [_MU_M[1]],
    "target_latency": 0.012,
}

_BASE_NET = {
    "lambda_b": 400.0,
    "lambda_d": 100.0,
    "antennas_per_ap": 4,
    "alpha": 3.7,
    "d0": 0.001,
    "sir_threshold_ul": SIR_RATE_15,
    "sir_threshold_dl": SIR_RATE_15,
    "network_area": 1.0,
}

_RADII_FINE = [round(0.01 * k, 3) for k in range(1, 21)]
_RADII_COARSE = [round(0.02 * k, 3) for k in range(1, 9)]
_THETA_GRID = [round(0.1 * k, 1) for k in range(11)]


def _net(**overrides) -> dict:
    out = dict(_BASE_NET)
    out.update(overrides)
    return out


PRESETS: dict[str, dict] = {
    # Communication success vs coverage radius, with the Monte Carlo
    # columns filled in. Three antenna/density layouts.
    "scmp-sweep": {
        "kind": "scmp_vs_R",
        "label": "scmp-sweep",
        "network": _net(),
        "sweep": {"radii_km": _RADII_FINE},
        "sim": {"replications": 5000, "seed": 20260823},
    },
    "scmp-sweep-m1": {
        "kind": "scmp_vs_R",
        "label": "scmp-sweep-m1",
        "network": _net(antennas_per_ap=1, lambda_b=1600.0),
        "sweep": {"radii_km": _RADII_FINE},
        "sim": {"replications": 5000, "seed": 20260823},
    },
    "scmp-sweep-m8": {
        "kind": "scmp_vs_R",
        "label": "scmp-sweep-m8",
        "network": _net(antennas_per_ap=8),
        "sweep": {"radii_km": _RADII_FINE},
        "sim": {"replications": 5000, "seed": 20260823},
    },
    # Computation success over the (radius, split) plane.
    "scp-surface-mix": {
        "kind": "scp_surface",
        "label": "scp-surface-mix",
        "network": _net(),
        "compute": COMPUTE_MIX,
        "sweep": {"radii_km": _RADII_COARSE, "theta_grid": _THETA_GRID},
        "sim": {"seed": 20260823},
    },
    "scp-surface-single": {
        "kind": "scp_surface",
        "label": "scp-surface-single",
        "network": _net(),
        "compute": COMPUTE_SINGLE,
        "sweep": {"radii_km": _RADII_COARSE, "theta_grid": _THETA_GRID},
        "sim": {"seed": 20260823},
    },
    # Joint communication + computation success surface.
    "secp-surface": {
        "kind": "secp_surface",
        "label": "secp-surface",
        "network": _net(),
        "compute": COMPUTE_SINGLE,
        "sweep": {"radii_km": _RADII_COARSE, "theta_grid": _THETA_GRID},
        "sim": {"seed": 20260823},
    },
    # Radius maximizing the joint success probability, per layout and
    # latency budget, swept over the served-area guess.
    "r-threshold": {
        "kind": "r_threshold",
        "label": "r-threshold",
        "network": _net(),
        "compute": COMPUTE_SINGLE,
        "sweep": {
            "rows": [
                {"antennas_per_ap": 4, "lambda_b": 400.0, "target_latency": 0.004},
                {"antennas_per_ap": 4, "lambda_b": 400.0, "target_latency": 0.012},
                {"antennas_per_ap": 1, "lambda_b": 1600.0, "target_latency": 0.004},
                {"antennas_per_ap": 1, "lambda_b": 1600.0, "target_latency": 0.012},
            ],
            "areas_km2": [1.0, 4.0, 10.0],
            "r_bounds_km": [0.02, 0.2],
        },
        "sim": {"seed": 20260823},
    },
    # Minimum energy subject to a success floor, swept over the floor.
    # The workload is single-type, so the clock tuples shrink to match.
    "energy-sweep": {
        "kind": "energy_vs_xi",
        "label": "energy-sweep",
        "network": _net(),
        "compute": COMPUTE_SINGLE,
        "energy": {
            "f_cs_hz": [EnergyConfig().f_cs_hz[1]],
            "f_mec_hz": [EnergyConfig().f_mec_hz[1]],
        },
        "sweep": {
            "xi_grid": [round(0.28 + 0.05 * k, 2) for k in range(12)],
            "r_bounds_km": [0.01, 0.25],
        },
        "sim": {"seed": 20260823},
    },
    # Analytic-vs-oracle report card.
    "validate": {
        "kind": "validate",
        "label": "validate",
        "network": _net(),
        "compute": COMPUTE_MIX,
        "sweep": {
            "radii_km": [0.04, 0.08],
        },
        "sim": {"replications": 20000, "seed": 20260823},
    },
}


def get_preset(name: str) -> dict:
    """A deep copy of a preset: the caller may change any part of it."""
    try:
        return copy.deepcopy(PRESETS[name])
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r}; known presets: {known}") from None
