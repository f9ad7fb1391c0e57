"""The benchmark's calls into cfedge still run.

perfbench/worker.py warms each workload up by calling library functions
directly, outside any spec, and builds its ops from the presets. A change
to one of those signatures would otherwise surface only as a crashed
benchmark worker, so these tests load the benchmark modules by path and
make the same calls.
"""

import importlib.util
import pathlib

import pytest

from cfedge.cli import ExperimentSpec

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
worker = _load("worker")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_warm_up_runs(name):
    worker._warm_up(name)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_specs_parse(name):
    specs = workloads.build(name, 1)
    assert specs
    for mapping in specs:
        ExperimentSpec.from_mapping(mapping)
