"""Spec validation, artifact layout, exit codes and reproducibility."""

import copy
import csv
import dataclasses
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfedge import cli, comm, offload, sim
from cfedge.cli import (EXIT_INFEASIBLE, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE,
                        ExperimentSpec, SpecError, _merge_spec, _network_for,
                        run_experiment)
from cfedge.errors import NumericalError, StabilityError
from cfedge.model import mean_connected_aps
from cfedge.presets import COMPUTE_MIX, COMPUTE_SINGLE
from cfedge.secp import secp as secp_point

from conftest import MU_C, MU_M, edge_row_reference, server_weights
from test_sim import _no_child_left


def _points(spec):
    """The spec's grid points, as its kind's record lists them."""
    return cli.KINDS[spec.kind].points(spec.sweep)


def _evaluate_with(monkeypatch, kind, evaluate):
    """Evaluate kind's points one by one with evaluate(spec, index, point)
    for the rest of the test."""
    monkeypatch.setitem(cli.KINDS, kind, dataclasses.replace(
        cli.KINDS[kind], evaluate=lambda spec, task: [
            evaluate(spec, *item) for item in task]))


def _scmp_spec(**extra):
    base = {
        "kind": "scmp_vs_R",
        "label": "tiny",
        "network": {"lambda_b": 400.0, "lambda_d": 100.0,
                    "antennas_per_ap": 4},
        "sweep": {"radii_km": [0.03, 0.05]},
        "sim": {"replications": 200, "seed": 3},
    }
    base.update(extra)
    return base


def _validate_spec(radii_km, replications=200):
    """A validate spec small enough for the unit tests: short queue runs."""
    return {
        "kind": "validate",
        "label": "v",
        "network": {"lambda_b": 400.0, "lambda_d": 100.0,
                    "antennas_per_ap": 4},
        "compute": {"type_probs": [1.0], "mu_c": [MU_C[1]],
                    "mu_m": [MU_M[1]]},
        "sweep": {"radii_km": radii_km,
                  "queue": {"duration_n1_s": 20.0, "duration_s": 30.0},
                  "queue_cs": {"duration_s": 20.0}},
        "sim": {"replications": replications, "seed": 5},
    }


def _or_nan(closed_form, *args):
    """closed_form(*args), or NaN where a queue it reads is overloaded."""
    try:
        return closed_form(*args)
    except StabilityError:
        return math.nan


def _energy_spec(xi_grid):
    return {
        "kind": "energy_vs_xi",
        "label": "e",
        "network": {"lambda_b": 400.0, "lambda_d": 100.0,
                    "antennas_per_ap": 4},
        "compute": {"type_probs": [1.0], "mu_c": [MU_C[1]], "mu_m": [MU_M[1]],
                    "offload_prob": 0.5, "target_latency": 0.012},
        "energy": {"f_cs_hz": [5e9], "f_mec_hz": [3.4e9]},
        "sweep": {"xi_grid": xi_grid, "r_bounds_km": [0.02, 0.2]},
        "sim": {"seed": 1},
    }


class TestSpecParsing:
    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown kind"):
            ExperimentSpec.from_mapping({"kind": "heatmap"})

    def test_missing_sweep_grid(self):
        with pytest.raises(SpecError, match="radii_km"):
            ExperimentSpec.from_mapping({"kind": "scmp_vs_R", "sweep": {}})

    def test_compute_required(self):
        with pytest.raises(SpecError, match="compute"):
            ExperimentSpec.from_mapping(
                {"kind": "scp_surface",
                 "sweep": {"radii_km": [0.05], "theta_grid": [0.5]}})

    def test_bad_bounds(self):
        spec = _energy_spec([0.5])
        spec["sweep"]["r_bounds_km"] = [0.2, 0.1]
        with pytest.raises(SpecError, match="r_bounds_km"):
            ExperimentSpec.from_mapping(spec)

    def test_non_numeric_bounds(self):
        spec = _energy_spec([0.5])
        spec["sweep"]["r_bounds_km"] = ["a", "b"]
        with pytest.raises(SpecError, match="r_bounds_km"):
            ExperimentSpec.from_mapping(spec)

    @pytest.mark.parametrize("xi", [1.5, 0.0, 1.0, -0.2, "0.5", None,
                                    float("nan")])
    def test_bad_xi_grid(self, xi):
        with pytest.raises(SpecError, match="xi_grid"):
            ExperimentSpec.from_mapping(_energy_spec([0.5, xi]))

    def test_label_sanitized(self):
        spec = ExperimentSpec.from_mapping(
            _scmp_spec(label="my exp/1: final"))
        assert spec.label == "my-exp-1--final"

    def test_db_threshold_conversion(self):
        raw = _scmp_spec()
        raw["network"]["sir_threshold_ul_db"] = 10.0
        spec = ExperimentSpec.from_mapping(raw)
        net = _network_for(spec)
        assert net.sir_threshold_ul == pytest.approx(10.0)

    def test_resolved_round_trips(self):
        spec = ExperimentSpec.from_mapping(_scmp_spec())
        again = ExperimentSpec.from_mapping(spec.resolved())
        assert again == spec

    def test_bad_sim_section(self):
        with pytest.raises(SpecError, match="sim"):
            ExperimentSpec.from_mapping(
                _scmp_spec(sim={"replications": "many"}))

    @pytest.mark.parametrize("reps", [0, -3])
    def test_replications_below_one(self, reps):
        with pytest.raises(SpecError, match="replications"):
            ExperimentSpec.from_mapping(
                _scmp_spec(sim={"replications": reps}))

    @pytest.mark.parametrize("key", ["radii_km", "theta_grid"])
    @pytest.mark.parametrize("bad", ["a", "0.05", None, float("inf")])
    def test_non_numeric_surface_grid(self, key, bad):
        sweep = {"radii_km": [0.05], "theta_grid": [0.5]}
        sweep[key] = [sweep[key][0], bad]
        with pytest.raises(SpecError, match=key):
            ExperimentSpec.from_mapping(
                {"kind": "secp_surface", "sweep": sweep,
                 "compute": {"type_probs": [1.0], "mu_c": [MU_C[1]],
                             "mu_m": [MU_M[1]]}})

    def test_non_numeric_areas(self):
        spec = _merge_spec(None, "r-threshold", None, None)
        spec["sweep"]["areas_km2"] = [1.0, "a"]
        with pytest.raises(SpecError, match="areas_km2"):
            ExperimentSpec.from_mapping(spec)

    @pytest.mark.parametrize("row", [
        {"lambda_b": 400.0, "target_latency": 0.012},
        {"antennas_per_ap": 2.5, "lambda_b": 400.0, "target_latency": 0.012},
        {"antennas_per_ap": 4, "lambda_b": "dense", "target_latency": 0.012},
        {"antennas_per_ap": 4, "lambda_b": 400.0,
         "target_latency": float("nan")},
        5,
    ])
    def test_bad_r_threshold_row(self, row):
        spec = _merge_spec(None, "r-threshold", None, None)
        spec["sweep"]["rows"] = [spec["sweep"]["rows"][0], row]
        with pytest.raises(SpecError, match="rows"):
            ExperimentSpec.from_mapping(spec)

    @pytest.mark.parametrize("key, section", [
        ("queue", {"n_mec": "four"}),
        ("queue", {"n_mec": -1}),
        ("queue", {"n_mec": 2.5}),
        ("queue", {"r_km": float("inf")}),
        ("queue", 3),
        ("queue_cs", {"duration_s": -5}),
        ("queue_cs", {"lambda_c": 0.0}),
        ("queue", {"duration_n1": 20.0}),
        ("queue_cs", {"durations_s": 20.0}),
    ])
    def test_bad_queue_section(self, key, section):
        spec = _merge_spec(None, "validate", None, None)
        spec["sweep"][key] = section
        with pytest.raises(SpecError, match="sweep.queue"):
            ExperimentSpec.from_mapping(spec)

    def test_validate_queue_values_come_from_the_defaults(self):
        # the validate preset has no queue table of its own: a spec that
        # gives only the group run's duration gets every other queue value
        # from _QUEUE_DEFAULTS
        spec = _merge_spec(None, "validate", None, None)
        assert "queue" not in spec["sweep"]
        spec["sweep"]["queue"] = {"duration_s": 30.0}
        parsed = ExperimentSpec.from_mapping(spec)
        q = cli._QUEUE_DEFAULTS["queue"]
        for check, lambda_d, duration, n_mec in (
                ("queue_pmf_tv_n1", q["lambda_d_n1"], q["duration_n1_s"], 1),
                ("queue_pmf_tv_n4", q["lambda_d"], 30.0, q["n_mec"]),
                ("scp_mec_vs_des", q["lambda_d"], 30.0, q["n_mec"])):
            net, comp, got_duration, got_n_mec = cli._queue_setup(parsed,
                                                                  check)
            assert (net.coverage_radius, net.lambda_d, got_duration,
                    got_n_mec) == (q["r_km"], lambda_d, duration, n_mec)
            assert comp.offload_prob == 0.0

    def test_r_threshold_base_fields_may_be_left_to_rows(self):
        # the rows give lambda_b, antennas_per_ap and target_latency, and
        # areas_km2 the network area, so the base sections may leave them out
        spec = _merge_spec(None, "r-threshold", None, None)
        for key in ("lambda_b", "antennas_per_ap", "network_area"):
            spec["network"].pop(key, None)
        spec["compute"].pop("target_latency", None)
        parsed = ExperimentSpec.from_mapping(spec)
        net, comp = parsed.configs[0]
        row = spec["sweep"]["rows"][0]
        assert (net.lambda_b, net.antennas_per_ap, comp.target_latency,
                net.network_area) == (row["lambda_b"], row["antennas_per_ap"],
                                      row["target_latency"],
                                      spec["sweep"]["areas_km2"][0])

    def test_grid_ordering(self):
        spec = ExperimentSpec.from_mapping({
            "kind": "secp_surface",
            "network": {"lambda_b": 400.0, "lambda_d": 100.0},
            "compute": {"type_probs": [1.0], "mu_c": [MU_C[1]],
                        "mu_m": [MU_M[1]]},
            "sweep": {"radii_km": [0.04, 0.08], "theta_grid": [0.2, 0.8]}})
        pts = _points(spec)
        assert [(p["R"], p["theta"]) for p in pts] == [
            (0.04, 0.2), (0.04, 0.8), (0.08, 0.2), (0.08, 0.8)]


class TestLoadSpec:
    def test_neither_given(self):
        with pytest.raises(SpecError, match="spec file"):
            _merge_spec(None, None, None, None)

    def test_unknown_preset(self):
        with pytest.raises(SpecError, match="unknown preset"):
            _merge_spec(None, "nope", None, None)

    def test_file_overrides_preset(self, tmp_path):
        p = tmp_path / "override.json"
        p.write_text(json.dumps({"sweep": {"radii_km": [0.05]},
                                 "sim": {"replications": 50}}))
        spec = ExperimentSpec.from_mapping(
            _merge_spec(str(p), "scmp-sweep", None, None))
        assert spec.sweep["radii_km"] == [0.05]
        assert spec.replications == 50
        # untouched preset keys survive the merge
        assert spec.network["lambda_b"] == 400.0

    def test_cli_flags_override_file(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(_scmp_spec()))
        spec = ExperimentSpec.from_mapping(_merge_spec(str(p), None, 99, 7))
        assert spec.seed == 99
        assert spec.replications == 7

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(SpecError, match="valid JSON"):
            _merge_spec(str(p), None, None, None)


class TestRunExperiment:
    def test_ok_run_artifacts(self, tmp_path):
        spec = ExperimentSpec.from_mapping(_scmp_spec())
        code = run_experiment(spec, out_dir=str(tmp_path))
        assert code == EXIT_OK
        raw = (tmp_path / "tiny.csv").read_bytes()
        assert b"\r\n" in raw
        lines = raw.decode("utf-8").strip().split("\r\n")
        assert tuple(lines[0].split(",")) == cli.KINDS["scmp_vs_R"].columns
        assert len(lines) == 3
        manifest = json.loads((tmp_path / "tiny.manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["status"] == "ok"
        assert manifest["error"] is None
        assert manifest["exit_code"] == 0
        assert manifest["rows_written"] == 2
        assert manifest["output_csv"] == "tiny.csv"
        assert sorted(manifest["versions"]) == ["cfedge", "numpy", "python"]

    def test_reruns_byte_identical(self, tmp_path):
        # reruns read the process-wide caches (latency CDFs, Euler nodes,
        # central-server service transform) that the first run filled,
        # in this process and in the worker processes; the worker
        # processes draw the spatial drops afresh
        surface = _merge_spec(None, "scp-surface-mix", None, None)
        surface["sweep"] = {"radii_km": [0.04, 0.1],
                            "theta_grid": [0.0, 0.3, 1.0]}
        search = _merge_spec(None, "r-threshold", None, None)
        search["sweep"] = {**search["sweep"], "areas_km2": [4.0],
                           "rows": search["sweep"]["rows"][:2]}
        for mapping in (_scmp_spec(), _energy_spec([0.5]), surface, search,
                        _validate_spec([0.03, 0.05])):
            spec = ExperimentSpec.from_mapping(mapping)
            name = spec.label + ".csv"
            run_experiment(spec, out_dir=str(tmp_path / "a"))
            run_experiment(spec, out_dir=str(tmp_path / "b"))
            cli._drop.cache_clear()
            run_experiment(spec, out_dir=str(tmp_path / "c"), workers=2)
            a = (tmp_path / "a" / name).read_bytes()
            assert a == (tmp_path / "b" / name).read_bytes()
            assert a == (tmp_path / "c" / name).read_bytes()

    def test_scmp_rows_share_one_drop(self):
        # rows follow the spec's radii, and a row depends only on its
        # radius and the set of radii the drop serves
        spec = ExperimentSpec.from_mapping(
            _scmp_spec(sweep={"radii_km": [0.05, 0.03, 0.05]}))
        rows = cli._evaluate(spec, _points(spec), 1)
        assert [row["R_km"] for row in rows] == [0.05, 0.03, 0.05]
        assert rows[0] == rows[2]
        spec = ExperimentSpec.from_mapping(_scmp_spec())
        assert cli._evaluate(spec, _points(spec), 1) == rows[1:]

    def test_validate_rows_share_one_drop(self):
        spec = ExperimentSpec.from_mapping(_validate_spec([0.05, 0.03, 0.05]))
        rows = cli._evaluate(spec, _points(spec), 1)
        checks = [row["check"] for row in rows]
        assert checks[:6] == [f"{check}@R={r}km" for check in
                              ("uplink_outage", "downlink_outage")
                              for r in (0.05, 0.03, 0.05)]
        assert rows[0] == rows[2] and rows[3] == rows[5]
        assert rows[0] != rows[1] and rows[3] != rows[4]
        # the independent-decoding row reads the uplink drop at r0
        assert checks[-1] == "uplink_outage_independent@R=0.05km"
        assert rows[-1]["value_oracle"] == rows[2]["value_oracle"]
        spatial = ExperimentSpec.from_mapping(_validate_spec([0.03, 0.05]))
        assert [cli._eval_validate(spatial, i, point) for i, point in
                enumerate(_points(spatial)[:4])] == [rows[1], rows[0],
                                                     rows[4], rows[3]]

    def test_scp_surface_overloaded_paths(self, tmp_path):
        # at R = 0.1 km the central server overloads at theta = 1 and the
        # edge servers at theta = 0; both are stable at theta = 0.5
        spec = ExperimentSpec.from_mapping({
            "kind": "scp_surface", "label": "overload",
            "network": {"lambda_b": 400.0, "lambda_d": 100.0},
            "compute": {"type_probs": [1.0], "mu_c": [70.0], "mu_m": [0.2],
                        "target_latency": 5.0},
            "sweep": {"radii_km": [0.1], "theta_grid": [0.0, 0.5, 1.0]}})
        assert run_experiment(spec, out_dir=str(tmp_path)) == EXIT_OK
        with open(tmp_path / "overload.csv", encoding="utf-8",
                  newline="") as fh:
            rows = [{k: float(v) for k, v in row.items()}
                    for row in csv.DictReader(fh)]
        assert [r["theta"] for r in rows] == [0.0, 0.5, 1.0]
        nan = [(math.isnan(r["scp_cs"]), math.isnan(r["scp_mec"]))
               for r in rows]
        assert nan == [(False, True), (False, False), (True, False)]
        for r in rows:
            theta = r["theta"]
            paths = [(w, p) for w, p in ((theta, r["scp_cs"]),
                                         (1.0 - theta, r["scp_mec"]))
                     if w > 0.0]
            # finite exactly where every path with weight is stable
            assert math.isfinite(r["scp"]) == all(
                math.isfinite(p) for _, p in paths)
            if math.isfinite(r["scp"]):
                assert r["scp"] == sum(w * p for w, p in paths)

    @pytest.mark.parametrize("kind", ["scp_surface", "secp_surface"])
    @pytest.mark.parametrize("mix", ["single", "two-type", "slow"])
    @pytest.mark.parametrize("antennas", [1, 8])
    def test_surface_rows_equal_one_split_results(self, kind, mix, antennas):
        # each split of a radius row, scored with the whole row, has the bits
        # of the one-split closed forms; the slow servers overload the edge
        # queue at small splits and the central one at large splits
        compute = {"single": COMPUTE_SINGLE, "two-type": COMPUTE_MIX,
                   "slow": {"type_probs": [1.0], "mu_c": [70.0],
                            "mu_m": [0.2], "target_latency": 5.0}}[mix]
        spec = ExperimentSpec.from_mapping({
            "kind": kind,
            "network": {"lambda_b": 400.0, "lambda_d": 100.0,
                        "antennas_per_ap": antennas},
            "compute": dict(compute),
            "sweep": {"radii_km": [0.04, 0.1],
                      "theta_grid": [0.0, 0.05, 0.35, 0.5, 0.95, 1.0]}})
        rows = cli._evaluate(spec, _points(spec), 1)
        assert len(rows) == 12
        for (net, comp), row in zip(spec.configs, rows):
            if kind == "scp_surface":
                rates = offload.arrival_rates(net, comp,
                                              comm.uplink_outage(net))
                cdf = _or_nan(edge_row_reference, net, comp)
                (_, _, scp), = offload.scp_splits(net, comp,
                                                  [comp.offload_prob])
                want = [_or_nan(offload.scp_cs, comp, rates.lambda_c),
                        cdf if cdf is math.nan else offload.scp_mec(
                            server_weights(net), cdf),
                        math.nan if isinstance(scp, StabilityError) else scp]
            else:
                point = _or_nan(secp_point, net, comp)
                want = [math.nan] * 4 if point is math.nan else [
                    point.secp, point.comp_term, point.ul_term,
                    point.dl_term]
            # repr tells NaN apart from numbers and -0.0 from 0.0
            assert list(map(repr, row.values())) == list(map(repr, [
                net.coverage_radius, comp.offload_prob, *want]))
        overloaded = [math.isnan(row[cli.KINDS[kind].columns[-1]])
                      for row in rows]
        assert any(overloaded) == (mix == "slow")

    @pytest.mark.parametrize("kind", ["scp_surface", "secp_surface"])
    def test_zero_radius_rows(self, kind):
        # no AP lies within R = 0: nothing is uplinked, the edge path never
        # succeeds and the central server sees no arrivals
        spec = ExperimentSpec.from_mapping({
            "kind": kind,
            "network": {"lambda_b": 400.0, "lambda_d": 100.0},
            "compute": dict(COMPUTE_MIX),
            "sweep": {"radii_km": [0.0], "theta_grid": [0.0, 0.35, 1.0]}})
        rows = cli._evaluate(spec, _points(spec), 1)
        assert [row["theta"] for row in rows] == [0.0, 0.35, 1.0]
        for (_, comp), row in zip(spec.configs, rows):
            if kind == "secp_surface":
                assert [row[c] for c in cli.KINDS[kind].columns[2:]] == [
                    0.0, 0.0, 0.0, 1.0]
            else:
                assert row["scp_cs"] == offload.scp_cs(comp, 0.0)
                assert row["scp_mec"] == 0.0
                assert row["scp"] == row["theta"] * row["scp_cs"]

    @pytest.mark.parametrize("mapping, simulators", [
        (_scmp_spec(), 2), (_validate_spec([0.03, 0.05]), 3)])
    def test_shared_drop_kinds_run_in_process(self, tmp_path, mapping,
                                              simulators):
        # a worker process would draw the run's spatial drops again, so
        # under --workers 2 this process draws each simulator's drop once
        spec = ExperimentSpec.from_mapping(mapping)
        name = spec.label + ".csv"
        cli._drop.cache_clear()
        assert run_experiment(spec, out_dir=str(tmp_path / "two"),
                              workers=2) == EXIT_OK
        assert cli._drop.cache_info().misses == simulators
        cli._drop.cache_clear()
        assert run_experiment(spec, out_dir=str(tmp_path / "one")) == EXIT_OK
        assert (tmp_path / "two" / name).read_bytes() \
            == (tmp_path / "one" / name).read_bytes()

    def test_bad_network_value_is_exit_2(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(
            _scmp_spec(network={"lambda_b": 400.0, "lambda_d": 100.0,
                                "alpha": 1.5})))
        code = cli.main(["run", str(p), "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        manifest = json.loads((tmp_path / "tiny.manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["exit_code"] == EXIT_USAGE
        assert manifest["error"]["type"] == "SpecError"
        assert "alpha" in manifest["error"]["message"]

    @pytest.mark.parametrize("preset, overrides, needle", [
        ("scp-surface-single", {"compute": {"type_probs": 0.5}}, "compute"),
        ("scp-surface-single", {"compute": {"mu_m": 5}}, "compute"),
        ("scp-surface-single", {"compute": {"mu_c": None}}, "compute"),
        ("energy-sweep", {"energy": {"f_cs_hz": 3}}, "energy"),
        ("scp-surface-single", {"network": {"sir_threshold_ul_db": "x"}},
         "sir_threshold_ul_db"),
        ("scp-surface-single", {"network": {"sir_threshold_dl_db": 1e5}},
         "sir_threshold_dl_db"),
        # a string is not read character by character
        ("scp-surface-single", {"compute": {"type_probs": "1", "mu_c": "9",
                                            "mu_m": "8"}}, "type_probs"),
        ("scp-surface-single", {"compute": {"mu_c": ["9"]}}, "mu_c"),
        ("energy-sweep", {"energy": {"f_mec_hz": "3"}}, "f_mec_hz"),
        # json reads NaN and Infinity; no range check catches NaN
        ("scp-surface-single", {"network": {"lambda_b": float("nan")}},
         "lambda_b"),
        ("scp-surface-single", {"network": {"antennas_per_ap": math.inf}},
         "antennas_per_ap"),
        ("scp-surface-single", {"compute": {"target_latency": float("nan")}},
         "target_latency"),
        ("energy-sweep", {"energy": {"kappa_m": float("nan")}}, "kappa_m"),
        # the rows and areas override these fields, which are checked all
        # the same
        ("r-threshold", {"network": {"lambda_b": "x"}}, "lambda_b"),
        ("r-threshold", {"network": {"antennas_per_ap": 2.5}},
         "antennas_per_ap"),
        ("r-threshold", {"network": {"network_area": -1.0}}, "network_area"),
        ("r-threshold", {"compute": {"target_latency": "x"}},
         "target_latency"),
        # a negative fixed power would report negative energy
        ("energy-sweep", {"energy": {"p_fixed_ap": -100.0},
                          "sweep": {"xi_grid": [0.5],
                                    "r_bounds_km": [0.01, 0.25]}},
         "p_fixed_ap"),
        ("energy-sweep", {"energy": {"p_tx_ap": -1}}, "p_tx_ap"),
    ])
    def test_bad_section_value_is_exit_2(self, tmp_path, preset, overrides,
                                         needle):
        # these fail when the spec is parsed, which builds every point's
        # configs
        p = tmp_path / "s.json"
        p.write_text(json.dumps(overrides))
        code = cli.main(["run", str(p), "--preset", preset, "--out",
                         str(tmp_path)])
        assert code == EXIT_USAGE
        manifest = json.loads(
            (tmp_path / f"{preset}.manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["exit_code"] == EXIT_USAGE
        assert manifest["error"]["type"] == "SpecError"
        assert needle in manifest["error"]["message"]
        assert not (tmp_path / f"{preset}.csv").exists()

    def test_all_infeasible_is_exit_3(self, tmp_path):
        spec = ExperimentSpec.from_mapping(_energy_spec([0.97]))
        code = run_experiment(spec, out_dir=str(tmp_path))
        assert code == EXIT_INFEASIBLE
        manifest = json.loads((tmp_path / "e.manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["type"] == "InfeasibilityError"
        rows = (tmp_path / "e.csv").read_bytes().decode().strip().split("\r\n")
        assert len(rows) == 2
        assert "nan" in rows[1]

    def test_partial_infeasible_is_data(self, tmp_path):
        spec = ExperimentSpec.from_mapping(_energy_spec([0.5, 0.97]))
        code = run_experiment(spec, out_dir=str(tmp_path))
        assert code == EXIT_OK
        rows = (tmp_path / "e.csv").read_bytes().decode().strip().split("\r\n")
        assert len(rows) == 3
        assert "nan" not in rows[1]
        assert "nan" in rows[2]

    def test_numerical_failure_is_exit_4(self, tmp_path, monkeypatch):
        def boom(spec, index, point):
            raise NumericalError("synthetic blowup")

        _evaluate_with(monkeypatch, "scmp_vs_R", boom)
        spec = ExperimentSpec.from_mapping(_scmp_spec())
        code = run_experiment(spec, out_dir=str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert not (tmp_path / "tiny.csv").exists()
        manifest = json.loads((tmp_path / "tiny.manifest.json").read_text())
        assert manifest["error"]["type"] == "NumericalError"
        assert manifest["output_csv"] is None

    def test_failed_validate_rows_still_exit_0(self, tmp_path, monkeypatch):
        def stub(spec, index, point):
            return {"check": "stub", "value_analytic": 0.0,
                    "value_oracle": 1.0, "delta": 1.0, "tol": 0.5,
                    "status": "fail"}

        _evaluate_with(monkeypatch, "validate", stub)
        spec = ExperimentSpec.from_mapping({
            "kind": "validate",
            "network": {"lambda_b": 400.0, "lambda_d": 100.0},
            "compute": {"type_probs": [1.0], "mu_c": [MU_C[1]],
                        "mu_m": [MU_M[1]]},
            "sweep": {"radii_km": [0.04]}})
        code = run_experiment(spec, out_dir=str(tmp_path))
        assert code == EXIT_OK
        manifest = json.loads(
            (tmp_path / "validate.manifest.json").read_text())
        assert manifest["checks_failed"] == manifest["rows_written"] > 0

    def test_validate_independent_decoding_row(self):
        # the independent-decoding form is a lower bound of the simulated
        # outage: only an excess over it counts as a miss
        spec = ExperimentSpec.from_mapping({
            "kind": "validate",
            "network": {"lambda_b": 400.0, "lambda_d": 100.0,
                        "antennas_per_ap": 4},
            "compute": {"type_probs": [1.0], "mu_c": [MU_C[1]],
                        "mu_m": [MU_M[1]]},
            "sweep": {"radii_km": [0.04, 0.08]},
            "sim": {"replications": 2000, "seed": 5}})
        points = _points(spec)
        assert points[-1] == {"check": "uplink_outage_independent", "R": 0.08}
        row = cli._eval_validate(spec, len(points) - 1, points[-1])
        net = _network_for(spec, coverage_radius=0.08)
        bound = np.exp(-mean_connected_aps(net) * comm.per_ap_success(net))
        assert row["check"] == "uplink_outage_independent@R=0.08km"
        assert row["value_analytic"] == pytest.approx(bound, rel=1e-12)
        assert row["value_analytic"] < comm.uplink_outage(net)
        assert row["delta"] == max(0.0, bound - row["value_oracle"])
        assert row["status"] == "pass"


def _fork_log(monkeypatch) -> list:
    """Calls to os.fork from now on: True for one a spatial drop makes,
    False for any other."""
    log, drops = [], []
    real_fork, real_replicate = os.fork, sim._replicate

    def fork():
        log.append(bool(drops))
        return real_fork()

    def replicate(*args):
        drops.append(1)
        try:
            return real_replicate(*args)
        finally:
            drops.pop()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(sim, "_replicate", replicate)
    return log


def _cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(sim.os, "sched_getaffinity",
                        lambda pid: set(range(n)))


class TestQueueChild:
    """validate's queue checks but the last run in one forked child beside
    the drops."""

    def test_csv_equal_at_any_cpu_count_and_workers(self, tmp_path,
                                                    monkeypatch):
        # one fork beyond the drops' wherever a CPU is spare, none at one
        spec = _validate_spec([0.03, 0.05], replications=300)
        want = None
        for cpus, workers in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2)):
            _cpus(monkeypatch, cpus)
            log = _fork_log(monkeypatch)
            out = tmp_path / f"{cpus}-{workers}"
            cli._drop.cache_clear()
            assert _run(out, spec, "--workers", str(workers))[0] == EXIT_OK
            assert log.count(False) == (cpus > 1), (cpus, workers)
            assert (True in log) == (cpus > 1), (cpus, workers)
            got = (out / "v.csv").read_bytes()
            assert want is None or got == want, (cpus, workers)
            want = got
            _no_child_left()

    def test_no_fork_while_a_second_thread_runs(self, tmp_path,
                                                monkeypatch):
        _cpus(monkeypatch, 2)
        log = _fork_log(monkeypatch)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(30.0,))
        waiter.start()
        try:
            code, _ = _run(tmp_path, _validate_spec([0.05]))
        finally:
            release.set()
            waiter.join(timeout=30.0)
        assert code == EXIT_OK and log == []
        _no_child_left()

    def test_killed_queue_child_changes_nothing(self, tmp_path,
                                                monkeypatch):
        spec = _validate_spec([0.03, 0.05], replications=300)
        _cpus(monkeypatch, 1)
        cli._drop.cache_clear()
        assert _run(tmp_path / "one", spec)[0] == EXIT_OK
        caller, real = os.getpid(), cli._eval_validate

        def killed(spec, index, point):
            if point["check"] in cli._QUEUE_CHECKS and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(spec, index, point)

        _evaluate_with(monkeypatch, "validate", killed)
        _cpus(monkeypatch, 2)
        log = _fork_log(monkeypatch)
        assert _run(tmp_path / "two", spec)[0] == EXIT_OK
        assert log.count(False) == 1
        assert (tmp_path / "two" / "v.csv").read_bytes() \
            == (tmp_path / "one" / "v.csv").read_bytes()
        _no_child_left()

    def test_oversized_drop_reports_its_error(self, tmp_path, monkeypatch):
        # the first drop fails at once while the queue child runs
        spec = _validate_spec([0.05])
        spec["network"]["d0"] = 4.0
        _cpus(monkeypatch, 2)
        log = _fork_log(monkeypatch)
        code, manifest = _run(tmp_path, spec)
        assert code == EXIT_NUMERICAL
        assert manifest["error"]["type"] == "ValueError"
        assert re.search(r"expects \d\.\d+e\+\d+ elements",
                         manifest["error"]["message"])
        assert log == [False]
        _no_child_left()

    def test_overloaded_queue_check_keeps_point_order(self, tmp_path,
                                                      monkeypatch):
        # the single-server check is overloaded, and the row after the
        # queue checks fails too: the queue check's error comes first,
        # as in a run in point order on one CPU
        spec = _validate_spec([0.05])
        spec["sweep"]["queue"]["lambda_d_n1"] = 1e7

        def late(net):
            raise NumericalError("late row")

        monkeypatch.setattr(comm, "per_ap_success", late)
        manifests = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            log = _fork_log(monkeypatch)
            code, manifest = _run(tmp_path / str(cpus), spec)
            assert code == EXIT_INFEASIBLE
            assert log.count(False) == cpus - 1
            manifests.append(manifest["error"])
            _no_child_left()
        assert manifests[0]["type"] == "StabilityError"
        assert manifests[0] == manifests[1]


def _r_threshold_spec() -> dict:
    """An r_threshold spec of three points, one search each."""
    spec = _tiny("r-threshold")
    spec["sweep"]["areas_km2"] = [1.0, 2.0, 4.0]
    return spec


class TestWorkers:
    """--workers caps the processes that share a run's units of work."""

    def test_one_child_per_spare_cpu_up_to_workers(self, tmp_path,
                                                   monkeypatch):
        want = None
        for cpus, workers, forks in ((1, 1, 0), (1, 2, 0), (2, 1, 0),
                                     (2, 2, 1), (2, 3, 1)):
            _cpus(monkeypatch, cpus)
            log = _fork_log(monkeypatch)
            out = tmp_path / f"{cpus}-{workers}"
            assert _run(out, _r_threshold_spec(), "--workers",
                        str(workers))[0] == EXIT_OK
            assert len(log) == forks, (cpus, workers)
            got = (out / "r-threshold.csv").read_bytes()
            assert want is None or got == want, (cpus, workers)
            want = got
            _no_child_left()

    def test_killed_worker_changes_nothing(self, tmp_path, monkeypatch):
        # the child that evaluates point 1 dies by SIGKILL: the caller
        # evaluates it, and the CSV is that of one worker
        spec = _r_threshold_spec()
        assert _run(tmp_path / "one", spec)[0] == EXIT_OK
        caller, real = os.getpid(), cli._eval_r_threshold

        def killed(spec, index, point):
            if index == 1 and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(spec, index, point)

        _evaluate_with(monkeypatch, "r_threshold", killed)
        _cpus(monkeypatch, 2)
        log = _fork_log(monkeypatch)
        code, manifest = _run(tmp_path / "two", spec, "--workers", "2")
        assert code == EXIT_OK, manifest["error"]
        assert len(log) == 1
        assert (tmp_path / "two" / "r-threshold.csv").read_bytes() \
            == (tmp_path / "one" / "r-threshold.csv").read_bytes()
        _no_child_left()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failing_point_names_the_error(self, tmp_path,
                                                 monkeypatch, workers):
        # points 1 and 2 raise different errors; at two workers point 1
        # falls to the child and point 2 to the caller, which fails first
        caller, real, calls = os.getpid(), cli._eval_r_threshold, []

        def failing(spec, index, point):
            if os.getpid() == caller:
                calls.append(index)
            if index == 1:
                raise NumericalError("point 1")
            if index == 2:
                raise StabilityError("point 2")
            return real(spec, index, point)

        _evaluate_with(monkeypatch, "r_threshold", failing)
        _cpus(monkeypatch, 2)
        code, manifest = _run(tmp_path, _r_threshold_spec(), "--workers",
                              str(workers))
        assert code == EXIT_NUMERICAL
        assert manifest["error"] == {"type": "NumericalError",
                                     "message": "point 1"}
        if workers == 1:
            assert calls == [0, 1]
        _no_child_left()


class TestMain:
    def test_usage_error(self, capsys):
        assert cli.main(["run"]) == EXIT_USAGE
        assert "spec file" in capsys.readouterr().err

    def test_unknown_preset(self, capsys):
        assert cli.main(["run", "--preset", "nope"]) == EXIT_USAGE
        assert "unknown preset" in capsys.readouterr().err

    def test_bad_xi_grid_is_exit_2_with_manifest(self, tmp_path, capsys):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(_energy_spec([1.5])))
        code = cli.main(["run", str(p), "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "xi_grid" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "e.manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["exit_code"] == EXIT_USAGE
        assert manifest["error"]["type"] == "SpecError"
        assert manifest["spec"]["sweep"]["xi_grid"] == [1.5]
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("preset, overrides, reps, needle", [
        ("validate", {}, "0", "replications"),
        ("scp-surface-single", {"sweep": {"radii_km": ["a"]}}, None,
         "radii_km"),
        ("r-threshold", {"sweep": {"rows": [
            {"lambda_b": 400.0, "target_latency": 0.012}]}}, None, "rows"),
        ("r-threshold", {"sweep": {"rows": [5]}}, None, "rows"),
        ("validate", {"sweep": {"queue": {"n_mec": "four"}}}, None, "queue"),
        ("validate", {"sweep": {"queue": {"n_mec": -1}}}, None, "queue"),
        ("validate", {"sweep": {"queue_cs": {"duration_s": -5}}}, None,
         "queue_cs"),
        ("scmp-sweep", {"network": 5}, None, "network"),
        ("scmp-sweep", {"network": [1, 2]}, None, "network"),
        ("scp-surface-single", {"compute": 3}, None, "compute"),
        ("energy-sweep", {"energy": 7}, None, "energy"),
        ("scmp-sweep", {"sim": 5}, None, "sim"),
        ("scmp-sweep", {"sim": "x"}, "7", "sim"),
        ("validate", {"sweep": {"queue": {"duration_n1": 20.0}}}, None,
         "duration_n1"),
    ])
    def test_bad_spec_is_exit_2_with_manifest(self, tmp_path, capsys, preset,
                                              overrides, reps, needle):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(overrides))
        argv = ["run", str(p), "--preset", preset, "--out", str(tmp_path)]
        code = cli.main(argv + (["--reps", reps] if reps else []))
        assert code == EXIT_USAGE
        assert needle in capsys.readouterr().err
        manifest = json.loads(
            (tmp_path / f"{preset}.manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["exit_code"] == EXIT_USAGE
        assert manifest["error"]["type"] == "SpecError"
        assert needle in manifest["error"]["message"]
        assert not (tmp_path / f"{preset}.csv").exists()

    def test_failed_rerun_removes_stale_csv(self, tmp_path, capsys):
        # a failed run names its manifest and leaves no earlier CSV of its
        # label behind
        p = tmp_path / "s.json"
        p.write_text(json.dumps(_scmp_spec()))
        argv = ["run", str(p), "--out", str(tmp_path), "--reps", "100"]
        assert cli.main(argv) == EXIT_OK
        assert (tmp_path / "tiny.csv").exists()
        capsys.readouterr()
        p.write_text(json.dumps(_scmp_spec(
            network={"lambda_b": float("nan"), "lambda_d": 100.0})))
        assert cli.main(argv) == EXIT_USAGE
        out = capsys.readouterr().out
        assert "tiny: failed (exit 2)" in out
        assert str(tmp_path / "tiny.manifest.json") in out
        assert not (tmp_path / "tiny.csv").exists()
        manifest = json.loads((tmp_path / "tiny.manifest.json").read_text())
        assert manifest["output_csv"] is None
        # and so does a spec that fails before the run starts
        p.write_text(json.dumps(_scmp_spec()))
        assert cli.main(argv) == EXIT_OK
        p.write_text(json.dumps(_scmp_spec(sweep={"radii_km": ["a"]})))
        assert cli.main(argv) == EXIT_USAGE
        assert not (tmp_path / "tiny.csv").exists()

    def test_three_type_light_edge_load_is_exit_0(self, tmp_path):
        # edge load 6.6e-6: the queue-length roots sit next to their poles
        p = tmp_path / "s.json"
        p.write_text(json.dumps({
            "compute": {"type_probs": [0.3, 0.3, 0.4],
                        "mu_c": [320.0, 139.0, 25.0],
                        "mu_m": [320.0, 139.0, 25.0]},
            "sweep": {"radii_km": [0.01], "theta_grid": [0.9]}}))
        code = cli.main(["run", str(p), "--preset", "scp-surface-mix",
                         "--out", str(tmp_path)])
        assert code == EXIT_OK
        with open(tmp_path / "scp-surface-mix.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert 0.0 < float(row["scp_mec"]) <= 1.0

    def test_ok_path(self, tmp_path, capsys):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(_scmp_spec()))
        code = cli.main(["run", str(p), "--out", str(tmp_path), "--reps",
                         "100"])
        assert code == EXIT_OK
        assert "tiny: ok" in capsys.readouterr().out
        assert (tmp_path / "tiny.csv").exists()


def _env_with_this_src() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH, for
    probes run in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_import_leaves_out_unused_packages(tmp_path):
    # scipy.optimize and scipy.integrate cost about 0.3 s of import and
    # the closed forms do not use them; no run imports a process pool:
    # a spatial drop and a --workers 2 run fork their children themselves
    env = _env_with_this_src()
    probe = ("import sys, cfedge.cli; print(cfedge.cli.__file__); "
             "from cfedge import sim; net = cfedge.cli.NetworkConfig("
             "lambda_b=400.0, lambda_d=100.0); sim.simulate_uplink_outage("
             "net, sim.SpatialScenario.for_network(net, 300, 1)); "
             "cfedge.cli.run_experiment(cfedge.cli.ExperimentSpec."
             "from_mapping(cfedge.cli._merge_spec(None, 'secp-surface', "
             f"None, None)), {str(tmp_path)!r}, workers=2); "
             "print(*sorted(m for m in ('scipy.optimize', 'scipy.integrate', "
             "'concurrent.futures.process', 'concurrent.futures.thread', "
             "'multiprocessing') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split("\n")
    assert Path(out[0]).resolve() == Path(cli.__file__).resolve()
    assert out[1] == ""


def test_run_path_imports_no_scipy(tmp_path):
    # a surface run and a short validate run, the queue oracle and the
    # Gauss-Laguerre rules included, in a fresh interpreter: no scipy
    # module is loaded
    env = _env_with_this_src()
    probe = textwrap.dedent("""
        import sys
        from cfedge import cli
        for preset, reps in (("secp-surface", None), ("validate", 300)):
            data = cli._merge_spec(None, preset, None, reps)
            if preset == "validate":
                sweep = data["sweep"]
                sweep["queue"] = {"duration_n1_s": 5.0, "duration_s": 5.0}
                sweep["queue_cs"] = {"duration_s": 5.0}
            spec = cli.ExperimentSpec.from_mapping(data)
            print(cli.run_experiment(spec, out_dir=sys.argv[1]))
        print(*sorted(m for m in sys.modules
                      if m == "scipy" or m.startswith("scipy.")))
        """)
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout.split("\n")
    assert out[:3] == [str(EXIT_OK), str(EXIT_OK), ""]


def test_format_cell_types():
    assert cli._format_cell("pass") == "pass"
    assert cli._format_cell(True) == "1"
    assert cli._format_cell(np.int64(4)) == "4"
    assert cli._format_cell(0.25) == "0.25"
    assert cli._format_cell(float("nan")) == "nan"


# One preset per kind, cut down to a budget that runs in well under a
# second: the input-contract tests run each many times.
_TINY = {
    "scmp-sweep": {"sweep": {"radii_km": [0.03, 0.05]}},
    "scp-surface-mix": {"sweep": {"radii_km": [0.04],
                                  "theta_grid": [0.0, 0.5]}},
    "secp-surface": {"sweep": {"radii_km": [0.04], "theta_grid": [0.5]}},
    "r-threshold": {"sweep": {"rows": [{"antennas_per_ap": 4,
                                        "lambda_b": 400.0,
                                        "target_latency": 0.012}],
                              "areas_km2": [1.0],
                              "r_bounds_km": [0.02, 0.2]}},
    "energy-sweep": {"sweep": {"xi_grid": [0.5],
                               "r_bounds_km": [0.01, 0.25]}},
    "validate": {"sweep": {"radii_km": [0.04],
                           "queue": {"r_km": 0.1, "n_mec": 4,
                                     "lambda_d_n1": 16000.0,
                                     "duration_n1_s": 5.0,
                                     "lambda_d": 2700.0, "duration_s": 5.0},
                           "queue_cs": {"lambda_c": 50.0,
                                        "duration_s": 5.0}}},
}
# leaves that set how long a run takes, not whether the spec is valid
_RUN_SIZE = {("sim", "replications"), ("sweep", "queue", "duration_n1_s"),
             ("sweep", "queue", "duration_s"),
             ("sweep", "queue_cs", "duration_s"), ("sweep", "queue", "n_mec")}
_DROP = object()
_BAD = [math.nan, math.inf, -math.inf, "x", [], {}, None, -1, True, _DROP]


def _tiny(preset: str) -> dict:
    spec = _merge_spec(None, preset, None, None)
    spec.update(copy.deepcopy(_TINY[preset]))
    spec["sim"] = {"replications": 50, "seed": 3}
    return spec


def _leaves(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield path
        return
    for key, value in items:
        yield from _leaves(value, path + (key,))


def _mutated(spec: dict, path: tuple, value) -> dict:
    spec = copy.deepcopy(spec)
    node = spec
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return spec


_CASES = [(preset, path, value)
          for preset in _TINY
          for path in _leaves(_tiny(preset))
          if path[0] not in ("kind", "label")
          for value in _BAD + ([] if path in _RUN_SIZE else [1e308])]


def _run(out: Path, spec: dict, *extra) -> tuple:
    """cli.main on spec; the exit code and the manifest."""
    out.mkdir(parents=True, exist_ok=True)
    p = out / "spec.json"
    p.write_text(json.dumps(spec))
    code = cli.main(["run", str(p), "--out", str(out), *extra])
    label = cli._safe_label(spec)
    return code, json.loads((out / f"{label}.manifest.json").read_text())


class TestInputContract:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(_CASES))
    def test_one_bad_leaf_keeps_the_exit_contract(self, case):
        # any value in any one leaf: a documented exit code, a manifest
        # that records it, a CSV exactly on success
        preset, path, value = case
        spec = _mutated(_tiny(preset), path, value)
        with tempfile.TemporaryDirectory() as out:
            code, manifest = _run(Path(out), spec)
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE,
                            EXIT_NUMERICAL)
            assert manifest["exit_code"] == code
            has_csv = (Path(out) / f"{cli._safe_label(spec)}.csv").exists()
            if code == EXIT_OK:
                assert has_csv
            if code in (EXIT_USAGE, EXIT_NUMERICAL):
                assert not has_csv

    def test_integral_float_antenna_count_runs_as_int(self, tmp_path):
        # a network of its own and the float first: 4.0 == 4, so a cache
        # filled by an int run would serve the float one
        spec = _tiny("secp-surface")
        spec["network"]["alpha"] = 3.77
        spec["network"]["antennas_per_ap"] = 4.0
        assert _run(tmp_path / "float", spec)[0] == EXIT_OK
        spec["network"]["antennas_per_ap"] = 4
        assert _run(tmp_path / "int", spec)[0] == EXIT_OK
        assert ((tmp_path / "int" / "secp-surface.csv").read_bytes()
                == (tmp_path / "float" / "secp-surface.csv").read_bytes())

    def test_numeric_failure_is_exit_4_with_manifest(self, tmp_path,
                                                     capsys, recwarn):
        # at M = 200 the uplink closed form raises NumericalError: its
        # far-field coefficients (sc)^j leave the float range. The error
        # alone reaches the user, with no numpy warning before it
        spec = _tiny("secp-surface")
        spec["network"]["antennas_per_ap"] = 200
        code, manifest = _run(tmp_path, spec)
        assert not [w for w in recwarn if w.category is RuntimeWarning]
        assert code == EXIT_NUMERICAL
        assert manifest["error"]["type"] == "NumericalError"
        assert manifest["output_csv"] is None
        assert not (tmp_path / "secp-surface.csv").exists()
        assert "Traceback" in capsys.readouterr().err

    def test_oversized_drop_is_exit_4_before_drawing(self, tmp_path,
                                                     monkeypatch):
        # one replication at d0 = 4 km would need gigabytes; the run fails
        # at once, and its manifest names the expected element count
        monkeypatch.setattr(sim, "_block_rng", None)
        spec = _tiny("validate")
        spec["network"]["d0"] = 4.0
        code, manifest = _run(tmp_path, spec)
        assert code == EXIT_NUMERICAL
        assert manifest["error"]["type"] == "ValueError"
        assert re.search(r"expects \d\.\d+e\+\d+ elements",
                         manifest["error"]["message"])

    @pytest.mark.parametrize("section, key, value", [
        ("network", "lambda_b", True),
        ("network", "d0", True),
        ("compute", "target_latency", True),
        ("sim", "seed", math.inf),
        ("sim", "seed", -math.inf),
        ("sim", "seed", 1.7),
        ("sim", "seed", "100"),
        ("sim", "seed", True),
        ("sim", "replications", 1.7),
        ("sim", "replications", "100"),
        ("sim", "replications", True),
    ])
    def test_bool_or_non_integer_is_exit_2(self, tmp_path, section, key,
                                           value):
        spec = _tiny("secp-surface")
        spec[section][key] = value
        code, manifest = _run(tmp_path, spec)
        assert code == EXIT_USAGE
        assert manifest["error"]["type"] == "SpecError"
        assert key in manifest["error"]["message"]

    @pytest.mark.parametrize("preset, overrides, message", [
        ("secp-surface", {"sim": {"replication": 50, "seeds": 3}},
         "unknown key in sim: replication, seeds; expected one of "
         "replications, seed"),
        ("energy-sweep", {"enrgy": {"p_tx_user": 0.5}},
         "unknown key in spec: enrgy; expected one of kind, label, network, "
         "compute, energy, sweep, sim"),
        ("secp-surface", {"sweep": {"theta_grd": [0.5]}},
         "unknown key in sweep: theta_grd; expected one of radii_km, "
         "theta_grid"),
        ("r-threshold", {"sweep": {"rows": [
            {"antennas_per_ap": 4, "lambda_b": 400.0,
             "target_latency": 0.012, "network_areaa": 5.0}]}},
         "unknown key in sweep.rows entry: network_areaa; expected one of "
         "antennas_per_ap, lambda_b, target_latency"),
    ], ids=["sim", "top-level", "sweep", "row"])
    def test_unknown_key_over_a_preset_is_exit_2(self, tmp_path, preset,
                                                 overrides, message):
        # a misspelt key would otherwise leave the preset's or the default
        # values in force and run
        code, manifest = _run(tmp_path, {**overrides, "label": preset},
                              "--preset", preset)
        assert code == manifest["exit_code"] == EXIT_USAGE
        assert manifest["error"] == {"type": "SpecError", "message": message}
        assert not (tmp_path / f"{preset}.csv").exists()

    @pytest.mark.parametrize("seed, flag, code", [
        (-1, False, EXIT_USAGE), (2 ** 64, False, EXIT_USAGE),
        (-1, True, EXIT_USAGE), (2 ** 64, True, EXIT_USAGE),
        (2 ** 63 - 1, False, EXIT_OK)])
    def test_seed_outside_the_stream_key_is_exit_2(self, tmp_path, seed, flag,
                                                   code):
        # the random streams key on the seed's low 64 bits, and the queue
        # checks add their point index: 2**64 would rerun seed 0's draws
        spec = _tiny("validate")
        extra = ("--seed", str(seed)) if flag else ()
        if not flag:
            spec["sim"]["seed"] = seed
        got, manifest = _run(tmp_path, spec, *extra)
        assert got == manifest["exit_code"] == code
        if code == EXIT_USAGE:
            assert manifest["error"] == {"type": "SpecError", "message":
                                         "sim.seed must lie in [0, 2**63)"}
            assert not (tmp_path / "validate.csv").exists()

    def test_integral_float_seed_is_accepted(self):
        spec = _tiny("scmp-sweep")
        spec["sim"] = {"replications": 5000.0, "seed": 7.0}
        parsed = ExperimentSpec.from_mapping(spec)
        assert (parsed.replications, parsed.seed) == (5000, 7)

    @pytest.mark.parametrize("preset, key, bad", [
        ("secp-surface", "radii_km", -0.01),
        ("secp-surface", "theta_grid", 1.5),
        ("scmp-sweep", "radii_km", True),
        ("r-threshold", "areas_km2", 0.0),
        ("validate", "radii_km", "0.04"),
    ])
    def test_bad_grid_value_names_its_sweep_key(self, preset, key, bad):
        # the configs' range rules apply to the grid values at parse time
        spec = _tiny(preset)
        spec["sweep"][key] = spec["sweep"][key] + [bad]
        with pytest.raises(SpecError, match=f"sweep.{key}"):
            ExperimentSpec.from_mapping(spec)

    @pytest.mark.parametrize("row", [
        {"antennas_per_ap": 0, "lambda_b": 400.0, "target_latency": 0.012},
        {"antennas_per_ap": 4, "lambda_b": -1.0, "target_latency": 0.012},
        {"antennas_per_ap": 4, "lambda_b": 400.0, "target_latency": True},
    ])
    def test_bad_r_threshold_row_value_names_rows(self, row):
        spec = _tiny("r-threshold")
        spec["sweep"]["rows"].append(row)
        with pytest.raises(SpecError, match="sweep.rows"):
            ExperimentSpec.from_mapping(spec)

    @pytest.mark.parametrize("preset, edits, message", [
        ("scmp-sweep", {("sweep", "radii_km"): _DROP},
         "kind scmp_vs_R needs a non-empty sweep.radii_km"),
        ("secp-surface", {("sweep", "theta_grid"): []},
         "kind secp_surface needs a non-empty sweep.theta_grid"),
        ("validate", {("sweep", "queues"): {}},
         "unknown key in sweep: queues; expected one of radii_km, queue, "
         "queue_cs"),
        ("r-threshold", {("sweep", "xi_grid"): [0.5]},
         "unknown key in sweep: xi_grid; expected one of rows, areas_km2, "
         "r_bounds_km"),
        ("r-threshold", {("sweep", "r_bounds_km"): [0.2, 0.1]},
         "sweep.r_bounds_km must be [lo, hi] with 0 < lo < hi"),
        ("energy-sweep", {("sweep", "r_bounds_km"): _DROP},
         "sweep.r_bounds_km must be [lo, hi] with 0 < lo < hi"),
        ("energy-sweep", {("sweep", "xi_grid"): [0.5, 1.0]},
         "sweep.xi_grid entries must be numbers strictly between 0 and 1"),
        ("r-threshold", {("sweep", "rows", 0): {"lambda_b": 400.0,
                                                "target_latency": 0.012}},
         "sweep.rows entries must be objects with antennas_per_ap, "
         "lambda_b, target_latency"),
        ("validate", {("sweep", "queue", "r_km"): -1},
         "sweep.queue must be an object of positive numbers"),
        ("validate", {("sweep", "queue_cs"): 3},
         "sweep.queue_cs must be an object of positive numbers"),
        ("validate", {("sweep", "queue_cs", "duration"): 5.0},
         "unknown key in sweep.queue_cs: duration; expected one of "
         "lambda_c, duration_s"),
        ("validate", {("sweep", "queue", "n_mec"): 2.5},
         "sweep.queue.n_mec must be a positive integer"),
        ("secp-surface", {("compute",): _DROP},
         "kind secp_surface needs a 'compute' section"),
        ("r-threshold", {("network", "lambda_b"): -1.0},
         "bad network section: densities must be non-negative"),
        ("r-threshold", {("compute", "target_latency"): 0},
         "bad compute section: target_latency must be positive"),
        ("secp-surface", {("sweep", "radii_km"): [0.04, -0.01]},
         "bad network section: coverage_radius must be non-negative at "
         "sweep.radii_km entry -0.01 and sweep.theta_grid entry 0.5"),
        ("scp-surface-mix", {("sweep", "theta_grid"): [0.0, 1.5]},
         "bad compute section: offload_prob must lie in [0, 1] at "
         "sweep.radii_km entry 0.04 and sweep.theta_grid entry 1.5"),
        ("validate", {("sweep", "radii_km"): [0.04, "0.04"]},
         "bad network section: coverage_radius must be a finite number at "
         "sweep.radii_km entry '0.04'"),
        ("r-threshold", {("sweep", "areas_km2"): [1.0, 0.0]},
         "bad network section: network_area must be positive at sweep.rows "
         "entry {'antennas_per_ap': 4, 'lambda_b': 400.0, "
         "'target_latency': 0.012} and sweep.areas_km2 entry 0.0"),
        # two faults: the one checked first is reported
        ("r-threshold", {("sweep", "r_bounds_km"): [0.2, 0.1],
                         ("sweep", "rows", 0): 5},
         "sweep.rows entries must be objects with antennas_per_ap, "
         "lambda_b, target_latency"),
        ("energy-sweep", {("sweep", "xi_grid"): [0.0],
                          ("sweep", "r_bounds_km"): [1]},
         "sweep.xi_grid entries must be numbers strictly between 0 and 1"),
        ("validate", {("compute",): _DROP,
                      ("sweep", "queue", "n_mec"): 2.5},
         "sweep.queue.n_mec must be a positive integer"),
        ("scp-surface-mix", {("sweep", "bounds"): 1,
                             ("sweep", "theta_grid"): []},
         "unknown key in sweep: bounds; expected one of radii_km, "
         "theta_grid"),
        ("r-threshold", {("network", "lambda_b"): -1.0,
                         ("sweep", "areas_km2"): [1.0, 0.0]},
         "bad network section: network_area must be positive at sweep.rows "
         "entry {'antennas_per_ap': 4, 'lambda_b': 400.0, "
         "'target_latency': 0.012} and sweep.areas_km2 entry 0.0"),
    ])
    def test_kind_rule_message_is_exact(self, tmp_path, preset, edits,
                                        message):
        # each kind's sweep, compute and grid-entry rules, word for word
        spec = _tiny(preset)
        for path, value in edits.items():
            spec = _mutated(spec, path, value)
        code, manifest = _run(tmp_path, spec)
        assert code == manifest["exit_code"] == EXIT_USAGE
        assert manifest["error"] == {"type": "SpecError", "message": message}
        assert not (tmp_path / f"{cli._safe_label(spec)}.csv").exists()

    def test_clock_type_mismatch_is_exit_2_before_any_point(
            self, tmp_path, monkeypatch):
        evaluated = []
        _evaluate_with(monkeypatch, "energy_vs_xi",
                       lambda spec, index, point: evaluated.append(point))
        spec = _tiny("energy-sweep")
        spec["energy"] = {"f_cs_hz": [4e9, 5e9], "f_mec_hz": [1e9, 3.4e9]}
        code, manifest = _run(tmp_path, spec)
        assert code == EXIT_USAGE
        assert "f_cs_hz" in manifest["error"]["message"]
        assert evaluated == []

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_a_usage_error(self, tmp_path, capsys,
                                                workers):
        # argparse's exit, as for --workers x: nothing runs or is written
        with pytest.raises(SystemExit) as stop:
            cli.main(["run", "--preset", "secp-surface", "--out",
                      str(tmp_path), "--workers", workers])
        assert stop.value.code == EXIT_USAGE
        assert "--workers: must be at least 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
