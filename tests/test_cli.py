"""Spec validation, artifact layout, exit codes and reproducibility."""

import csv
import json
import math

import numpy as np
import pytest

from cfedge import cli, comm
from cfedge.cli import (COLUMNS, EXIT_INFEASIBLE, EXIT_NUMERICAL, EXIT_OK,
                        EXIT_USAGE, ExperimentSpec, SpecError, _merge_spec,
                        _network_for, _points, run_experiment)
from cfedge.errors import NumericalError
from cfedge.model import mean_connected_aps

from conftest import MU_C, MU_M


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
    ])
    def test_bad_queue_section(self, key, section):
        spec = _merge_spec(None, "validate", None, None)
        spec["sweep"][key] = section
        with pytest.raises(SpecError, match="sweep.queue"):
            ExperimentSpec.from_mapping(spec)

    def test_grid_ordering(self):
        spec = ExperimentSpec.from_mapping({
            "kind": "secp_surface",
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
        assert lines[0].split(",") == COLUMNS["scmp_vs_R"]
        assert len(lines) == 3
        manifest = json.loads((tmp_path / "tiny.manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["status"] == "ok"
        assert manifest["error"] is None
        assert manifest["exit_code"] == 0
        assert manifest["rows_written"] == 2
        assert manifest["output_csv"] == "tiny.csv"
        for lib in ("python", "numpy", "scipy", "cfedge"):
            assert lib in manifest["versions"]

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

    def test_bad_network_value_is_exit_2(self, tmp_path):
        spec = ExperimentSpec.from_mapping(
            _scmp_spec(network={"lambda_b": 400.0, "lambda_d": 100.0,
                                "alpha": 1.5}))
        code = run_experiment(spec, out_dir=str(tmp_path))
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
    ])
    def test_bad_section_value_is_exit_2(self, tmp_path, preset, overrides,
                                         needle):
        # these fail when a point builds its configs, not at spec time
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

        monkeypatch.setitem(cli._EVALUATORS, "scmp_vs_R", boom)
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

        monkeypatch.setitem(cli._EVALUATORS, "validate", stub)
        spec = ExperimentSpec.from_mapping({
            "kind": "validate",
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


def test_format_cell_types():
    assert cli._format_cell("pass") == "pass"
    assert cli._format_cell(True) == "1"
    assert cli._format_cell(np.int64(4)) == "4"
    assert cli._format_cell(0.25) == "0.25"
    assert cli._format_cell(float("nan")) == "nan"
