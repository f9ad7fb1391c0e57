"""Workload generation: lists of experiment specs built from the presets.

Each workload is a list of spec mappings in the shape ``cfedge run`` reads;
one spec is one operation. The seed jitters the grids inside the ranges
stated below (closed-form workloads) or sets the simulation seed (oracle),
so the same seed always gives the same specs.

- ``search``: the radius and split searches. One op per ``r-threshold`` row
  (4 layouts x 3 areas) and one per ``energy-sweep`` floor (12). The lower
  radius bound moves by up to 5 %, the upper by up to 2.5 %, and each
  floor by up to 0.01.
- ``surface``: the link closed forms recomputed at every (R, theta) point.
  One op per radius row of the ``scp-surface-mix``, ``scp-surface-single``
  and ``secp-surface`` grids, at three antenna layouts, for
  ``SURFACE_REPLICAS`` radius grids per pass. Each radius moves by up to
  2 m and the interior theta points shift together by up to 0.04.
- ``oracle``: the ``validate`` check mix as one op, at
  ``ORACLE_REPLICATIONS`` replications per spatial check and a quarter of
  the preset's simulated duration per queue check. The seed is the
  simulation seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("search", "surface", "oracle")

# Antenna layouts of the three scmp-sweep presets: (M, lambda_b).
LAYOUTS = ((1, 1600.0), (4, 400.0), (8, 400.0))
SURFACE_PRESETS = ("scp-surface-mix", "scp-surface-single", "secp-surface")
SURFACE_REPLICAS = 3

ORACLE_REPLICATIONS = 5000
ORACLE_DURATION_SHARE = 0.25

# Queue-check durations in the validate preset, by sweep section and key.
_QUEUE_DURATIONS = (("queue", "duration_n1_s", 2900.0),
                    ("queue", "duration_s", 4200.0),
                    ("queue_cs", "duration_s", 2400.0))


def build(name: str, seed: int) -> list:
    """Spec mappings of one pass of workload `name` under `seed`."""
    # Imported here: run.py loads this module without cfedge on the path.
    from cfedge.presets import get_preset

    rng = random.Random(f"{name}:{seed}")
    if name == "search":
        return _search(get_preset, rng)
    if name == "surface":
        return _surface(get_preset, rng)
    if name == "oracle":
        return _oracle(get_preset, seed)
    raise ValueError(f"unknown workload {name!r}")


def _jitter_bounds(bounds, rng, share=0.05):
    lo, hi = bounds
    return [lo * (1.0 + rng.uniform(-share, share)),
            hi * (1.0 + rng.uniform(-share / 2, share / 2))]


def _search(get_preset, rng) -> list:
    specs = []
    base = get_preset("r-threshold")
    for row in base["sweep"]["rows"]:
        for area in base["sweep"]["areas_km2"]:
            spec = get_preset("r-threshold")
            spec["label"] = f"search-{len(specs):03d}"
            spec["sweep"] = {"rows": [dict(row)], "areas_km2": [area],
                             "r_bounds_km": _jitter_bounds(
                                 base["sweep"]["r_bounds_km"], rng)}
            specs.append(spec)
    base = get_preset("energy-sweep")
    for xi in base["sweep"]["xi_grid"]:
        spec = get_preset("energy-sweep")
        spec["label"] = f"search-{len(specs):03d}"
        spec["sweep"] = {"xi_grid": [xi + rng.uniform(-0.01, 0.01)],
                         "r_bounds_km": _jitter_bounds(
                             base["sweep"]["r_bounds_km"], rng)}
        specs.append(spec)
    return specs


def _surface(get_preset, rng) -> list:
    specs = []
    for _ in range(SURFACE_REPLICAS):
        for m, lambda_b in LAYOUTS:
            for preset in SURFACE_PRESETS:
                base = get_preset(preset)
                thetas = base["sweep"]["theta_grid"]
                shift = rng.uniform(-0.04, 0.04)
                theta_grid = [thetas[0]] + [t + shift for t in thetas[1:-1]] \
                    + [thetas[-1]]
                for r in base["sweep"]["radii_km"]:
                    spec = get_preset(preset)
                    spec["label"] = f"surface-{len(specs):03d}"
                    spec["network"].update(antennas_per_ap=m,
                                           lambda_b=lambda_b)
                    spec["sweep"] = {
                        "radii_km": [r + rng.uniform(-0.002, 0.002)],
                        "theta_grid": theta_grid}
                    specs.append(spec)
    return specs


def _oracle(get_preset, seed: int) -> list:
    spec = get_preset("validate")
    # get_preset copies one nested level; the queue tables are one deeper.
    sweep = {key: dict(val) if isinstance(val, dict) else val
             for key, val in spec["sweep"].items()}
    for section, key, default in _QUEUE_DURATIONS:
        table = sweep.setdefault(section, {})
        table[key] = table.get(key, default) * ORACLE_DURATION_SHARE
    spec["label"] = "oracle-000"
    spec["sweep"] = sweep
    spec["sim"] = {"replications": ORACLE_REPLICATIONS, "seed": seed}
    return [spec]
