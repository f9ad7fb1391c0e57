"""The tracer's call counts must equal cProfile's on the same work.

A binding the tracer fails to patch (a name imported with ``from ... import``
or renamed) would leave its calls uncounted; cProfile sees every call, so
any such miss shows as a count mismatch. Each side runs in a fresh
interpreter, so module-level caches start empty on both.

    python3 -m pytest perfbench/test_tracer.py
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _scenario(out_dir: str) -> None:
    """Small ops reaching every traced function through the CLI, plus a
    direct find_r_threshold call through the package attribute."""
    import numpy as np

    import cfedge
    from cfedge import cli
    from cfedge.model import ComputeConfig, NetworkConfig
    from cfedge.presets import COMPUTE_SINGLE, get_preset

    net = NetworkConfig(lambda_b=1600.0, lambda_d=100.0, antennas_per_ap=1)
    comp = ComputeConfig(type_probs=COMPUTE_SINGLE["type_probs"],
                         mu_c=COMPUTE_SINGLE["mu_c"],
                         mu_m=COMPUTE_SINGLE["mu_m"])
    cfedge.find_r_threshold(net, comp, (0.03, 0.08),
                            theta_grid=np.linspace(0.0, 1.0, 5))

    specs = []
    spec = get_preset("r-threshold")
    spec["sweep"] = {"rows": spec["sweep"]["rows"][2:3], "areas_km2": [1.0],
                     "r_bounds_km": [0.02, 0.2]}
    specs.append(spec)
    spec = get_preset("energy-sweep")
    spec["sweep"] = {"xi_grid": [0.5], "r_bounds_km": [0.01, 0.25]}
    specs.append(spec)
    for name in ("scp-surface-mix", "secp-surface"):
        spec = get_preset(name)
        spec["sweep"] = {"radii_km": [0.05], "theta_grid": [0.0, 0.5, 1.0]}
        specs.append(spec)
    spec = get_preset("validate")
    spec["sweep"] = {"radii_km": [0.04],
                     "queue": {"duration_n1_s": 2.0, "duration_s": 2.0},
                     "queue_cs": {"duration_s": 2.0}}
    spec["sim"] = {"replications": 20, "seed": 7}
    specs.append(spec)
    for mapping in specs:
        cli.run_experiment(cli.ExperimentSpec.from_mapping(mapping), out_dir)


def _child(mode: str) -> dict:
    """Run the scenario under cProfile or the tracer; return call counts
    of the traced functions by "layer.func"."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import cfedge.cli  # noqa: F401  (loads every layer module)
    import tracer

    with tempfile.TemporaryDirectory() as out_dir:
        if mode == "trace":
            t = tracer.Tracer()
            t.install()
            try:
                _scenario(out_dir)
            finally:
                t.uninstall()
            return {name: s[0] for name, s in t.summary()["stats"].items()}
        profile = cProfile.Profile()
        profile.runcall(_scenario, out_dir)
    counts = {f"{layer}.{func}": 0 for layer, func in tracer.TRACED}
    for (filename, _, func), row in pstats.Stats(profile).stats.items():
        layer = os.path.splitext(os.path.basename(filename))[0]
        if os.path.dirname(filename).endswith(os.path.join("src", "cfedge")) \
                and f"{layer}.{func}" in counts:
            counts[f"{layer}.{func}"] += row[1]
    return counts


def _run(mode: str) -> dict:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), mode],
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_match_cprofile():
    profiled = _run("profile")
    traced = _run("trace")
    assert profiled["secp.secp"] > 0
    assert all(profiled[name] > 0 for name in profiled), profiled
    assert traced == profiled


if __name__ == "__main__":
    print(json.dumps(_child(sys.argv[1])))
