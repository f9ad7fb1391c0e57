"""The benchmark's calls into cfedge still run.

perfbench/worker.py warms each workload up by calling library functions
directly, outside any spec, and builds its ops from the presets, and
perfbench/tracer.py patches library functions by name. A change to one of
those signatures or names would otherwise surface only as a crashed
benchmark worker, so these tests load the benchmark modules by path and
make the same calls.
"""

import importlib
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
tracer = _load("tracer")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_warm_up_runs(name):
    worker._warm_up(name)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_specs_parse(name):
    specs = workloads.build(name, 1)
    assert specs
    for mapping in specs:
        ExperimentSpec.from_mapping(mapping)


def test_traced_names_resolve():
    # Tracer.install looks each name up in its cfedge module; the package
    # attribute cfedge.secp is the function, so import the modules by name
    missing = [f"{module}.{name}" for module, name in tracer.TRACED
               if not callable(getattr(importlib.import_module(
                   f"cfedge.{module}"), name, None))]
    assert missing == []
