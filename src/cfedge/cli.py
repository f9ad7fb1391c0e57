"""Batch experiment runner behind the ``cfedge`` console script.

``cfedge run`` reads a JSON experiment description (from a file, a named
preset, or a preset with file overrides), evaluates the requested grid
and writes two artifacts next to each other:

- ``<label>.csv``: one row per grid point, RFC 4180, UTF-8
- ``<label>.manifest.json``: config echo, library versions, seed,
  wall time and outcome; written even when the run fails

Exit codes: 0 success, 2 unusable spec, 3 infeasible configuration
(including queue overload), 4 numerical failure.

Identical spec and seed give byte-identical CSV output, whatever the
worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import numbers
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np
import scipy

from . import __version__, comm, offload, sim
from . import energy as energy_mod
# Direct submodule import; the package attribute `secp` is the function.
from .secp import find_r_threshold as _find_r_threshold
from .secp import secp as _secp_point
from .errors import InfeasibilityError, NumericalError, StabilityError
from .model import ComputeConfig, NetworkConfig, mean_connected_aps
from .presets import get_preset

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

COLUMNS = {
    "scmp_vs_R": ["R_km", "p_oul", "p_odl_lo", "p_odl_hi", "p_odl_point",
                  "scmp", "sim_p_oul", "sim_p_oul_se", "sim_p_odl",
                  "sim_p_odl_se", "sim_i_mean", "sim_i_var"],
    "scp_surface": ["R_km", "theta", "scp_cs", "scp_mec", "scp"],
    "secp_surface": ["R_km", "theta", "secp", "comp_term", "ul_term",
                     "dl_term"],
    "r_threshold": ["M", "lambda_b", "t_s", "area_km2", "R_th_m", "theta",
                    "secp_max"],
    "energy_vs_xi": ["xi", "R_star_km", "theta_star", "E_comp_J", "E_comm_J",
                     "E_total_J", "secp_achieved"],
    "validate": ["check", "value_analytic", "value_oracle", "delta", "tol",
                 "status"],
}
KINDS = tuple(COLUMNS)


class SpecError(ValueError):
    """The experiment description does not validate (exit code 2)."""


@dataclass
class ExperimentSpec:
    kind: str
    label: str
    network: dict
    compute: dict
    energy: dict
    sweep: dict
    replications: int
    seed: int

    @classmethod
    def from_mapping(cls, data: dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise SpecError("spec must be a JSON object")
        kind = data.get("kind")
        if kind not in KINDS:
            raise SpecError(f"unknown kind {kind!r}; expected one of "
                            + ", ".join(KINDS))
        sweep = data.get("sweep", {})
        if not isinstance(sweep, dict):
            raise SpecError("'sweep' must be an object")
        _check_sweep(kind, sweep)
        for section in ("network", "compute", "energy", "sim"):
            if not isinstance(data.get(section, {}), dict):
                raise SpecError(f"'{section}' must be an object")
        if kind != "scmp_vs_R" and not data.get("compute"):
            raise SpecError(f"kind {kind} needs a 'compute' section")
        sim_section = data.get("sim", {})
        try:
            replications = int(sim_section.get("replications", 1000))
            seed = int(sim_section.get("seed", 0))
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad sim section: {exc}") from None
        if replications < 1:
            raise SpecError("sim.replications must be at least 1")
        return cls(
            kind=kind,
            label=_safe_label(data),
            network=dict(data.get("network", {})),
            compute=dict(data.get("compute", {})),
            energy=dict(data.get("energy", {})),
            sweep=dict(sweep),
            replications=replications,
            seed=seed,
        )

    def resolved(self) -> dict:
        """Canonical mapping; round-trips through from_mapping."""
        return {
            "kind": self.kind,
            "label": self.label,
            "network": self.network,
            "compute": self.compute,
            "energy": self.energy,
            "sweep": self.sweep,
            "sim": {"replications": self.replications, "seed": self.seed},
        }


# Non-empty sweep grids each kind needs; the searches also need bounds.
_SWEEP_GRIDS = {
    "scmp_vs_R": ("radii_km",),
    "scp_surface": ("radii_km", "theta_grid"),
    "secp_surface": ("radii_km", "theta_grid"),
    "r_threshold": ("rows", "areas_km2"),
    "energy_vs_xi": ("xi_grid",),
    "validate": ("radii_km",),
}


def _safe_label(data: dict) -> str:
    """The spec's label (the kind by default) as a file-name stem."""
    kind = str(data.get("kind"))
    label = str(data.get("label", kind))
    return "".join(c if c.isalnum() or c in "-_." else "-"
                   for c in label) or kind


def _is_real(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_sweep(kind: str, sweep: dict) -> None:
    for key in _SWEEP_GRIDS[kind]:
        grid = sweep.get(key)
        if not isinstance(grid, (list, tuple)) or len(grid) == 0:
            raise SpecError(f"kind {kind} needs a non-empty sweep.{key}")
        if key != "rows" and not all(map(_is_real, grid)):
            raise SpecError(f"sweep.{key} entries must be numbers")
    if kind == "energy_vs_xi" and not all(
            _is_real(xi) and 0 < xi < 1 for xi in sweep["xi_grid"]):
        raise SpecError("sweep.xi_grid entries must be numbers strictly "
                        "between 0 and 1")
    if kind == "r_threshold" and not all(
            isinstance(row, dict)
            and all(_is_real(row.get(key)) for key in
                    ("antennas_per_ap", "lambda_b", "target_latency"))
            and row["antennas_per_ap"] == int(row["antennas_per_ap"])
            for row in sweep["rows"]):
        raise SpecError("sweep.rows entries must be objects with numeric "
                        "lambda_b and target_latency and an integral "
                        "antennas_per_ap")
    if kind == "validate":
        for key in ("queue", "queue_cs"):
            section = sweep.get(key, {})
            if not isinstance(section, dict) or not all(
                    _is_real(value) and value > 0
                    for value in section.values()):
                raise SpecError(f"sweep.{key} must be an object of "
                                "positive numbers")
        n_mec = sweep.get("queue", {}).get("n_mec", 4)
        if n_mec != int(n_mec):
            raise SpecError("sweep.queue.n_mec must be a positive integer")
    if kind in ("r_threshold", "energy_vs_xi"):
        bounds = sweep.get("r_bounds_km")
        if (not isinstance(bounds, (list, tuple)) or len(bounds) != 2
                or not all(map(_is_real, bounds))
                or not 0 < bounds[0] < bounds[1]):
            raise SpecError("sweep.r_bounds_km must be [lo, hi] with "
                            "0 < lo < hi")


def _config(cls, section: str, merged: dict):
    # a missing, unknown or out-of-range field is a spec error
    try:
        return cls(**merged)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad {section} section: {exc}") from None


def _network_for(spec: ExperimentSpec, **overrides) -> NetworkConfig:
    merged = dict(spec.network)
    for side in ("ul", "dl"):
        db_key = f"sir_threshold_{side}_db"
        if db_key in merged:
            try:
                merged[f"sir_threshold_{side}"] = \
                    10.0 ** (merged.pop(db_key) / 10.0)
            except (TypeError, OverflowError):
                raise SpecError(f"bad network section: {db_key} must be a "
                                "number of dB") from None
    merged.update(overrides)
    return _config(NetworkConfig, "network", merged)


def _compute_for(spec: ExperimentSpec, **overrides) -> ComputeConfig:
    merged = dict(spec.compute)
    merged.update(overrides)
    return _config(ComputeConfig, "compute", merged)


def _energy_for(spec: ExperimentSpec) -> energy_mod.EnergyConfig:
    return _config(energy_mod.EnergyConfig, "energy", dict(spec.energy))


# ---------------------------------------------------------------------------
# Grid construction and per-point evaluation


def _points(spec: ExperimentSpec) -> list:
    sweep = spec.sweep
    if spec.kind == "scmp_vs_R":
        return [{"R": float(r)} for r in sweep["radii_km"]]
    if spec.kind in ("scp_surface", "secp_surface"):
        return [{"R": float(r), "theta": float(th)}
                for r in sweep["radii_km"] for th in sweep["theta_grid"]]
    if spec.kind == "r_threshold":
        return [{**row, "area": float(area)}
                for row in sweep["rows"] for area in sweep["areas_km2"]]
    if spec.kind == "energy_vs_xi":
        return [{"xi": float(x)} for x in sweep["xi_grid"]]
    if spec.kind == "validate":
        pts = [{"check": "uplink_outage", "R": float(r)}
               for r in sweep["radii_km"]]
        pts += [{"check": "downlink_outage", "R": float(r)}
                for r in sweep["radii_km"]]
        r0 = float(sweep["radii_km"][-1])
        pts += [{"check": "interference_mean", "R": r0},
                {"check": "interference_var", "R": r0},
                {"check": "queue_pmf_tv_n1"},
                {"check": "queue_pmf_tv_n4"},
                {"check": "scp_mec_vs_des"},
                {"check": "scp_cs_vs_des"},
                {"check": "uplink_outage_independent", "R": r0}]
        return pts
    raise SpecError(f"unknown kind {spec.kind!r}")


def _nan_row(kind: str, **known) -> dict:
    """A row of kind with NaN in every column but the known ones."""
    return {**dict.fromkeys(COLUMNS[kind], float("nan")), **known}


@functools.lru_cache(maxsize=32)
def _drop(simulator: str, net: NetworkConfig, radii: tuple,
          replications: int, seed: int) -> tuple:
    """Samples at each radius of one drop of simulator ("uplink" or a beam
    placement), net being the network at the largest: cached, so each
    process draws a run's drop once."""
    scenario = sim.SpatialScenario.for_network(net, replications, seed=seed)
    if simulator == "uplink":
        return sim.simulate_uplink_outage(net, scenario, radii=radii)
    return sim.simulate_downlink_sir(net, scenario, simulator, radii=radii)


def _sample(spec: ExperimentSpec, simulator: str, R: float, radii=None):
    """The sample at radius R of the run's drop over radii (the sweep's by
    default), drawn at the run's seed."""
    radii = tuple(sorted(set(map(float, radii or spec.sweep["radii_km"]))))
    net = _network_for(spec, coverage_radius=radii[-1])
    return _drop(simulator, net, radii, spec.replications,
                 spec.seed)[radii.index(R)]


def _eval_scmp(spec: ExperimentSpec, index: int, point: dict) -> dict:
    net = _network_for(spec, coverage_radius=point["R"])
    p_oul = comm.uplink_outage(net)
    dl = comm.downlink_outage(net)
    ul_sample = _sample(spec, "uplink", point["R"])
    dl_sample = _sample(spec, "per_user", point["R"])
    return {
        "R_km": point["R"],
        "p_oul": p_oul,
        "p_odl_lo": dl.lower,
        "p_odl_hi": dl.upper,
        "p_odl_point": dl.point,
        "scmp": (1.0 - p_oul) * (1.0 - dl.point),
        "sim_p_oul": ul_sample.estimate,
        "sim_p_oul_se": ul_sample.stderr,
        "sim_p_odl": dl_sample.outage,
        "sim_p_odl_se": dl_sample.outage_se,
        "sim_i_mean": dl_sample.i_mean,
        "sim_i_var": dl_sample.i_var,
    }


def _eval_scp_surface(spec: ExperimentSpec, index: int, point: dict) -> dict:
    net = _network_for(spec, coverage_radius=point["R"])
    comp = _compute_for(spec, offload_prob=point["theta"])
    p_oul = comm.uplink_outage(net)
    rates = offload.arrival_rates(net, comp, p_oul)
    # an overloaded path is NaN in its own column
    cs = mec = float("nan")
    with contextlib.suppress(StabilityError):
        cs = offload.scp_cs(comp, rates.lambda_c)
    with contextlib.suppress(StabilityError):
        mec = offload.scp_mec(net, comp, rates)
    theta = comp.offload_prob
    # a path the split never takes adds nothing, even where it is unstable
    total = (theta * cs if theta > 0.0 else 0.0) \
        + ((1.0 - theta) * mec if theta < 1.0 else 0.0)
    return {"R_km": point["R"], "theta": theta, "scp_cs": cs,
            "scp_mec": mec, "scp": total}


def _eval_secp_surface(spec: ExperimentSpec, index: int, point: dict) -> dict:
    net = _network_for(spec, coverage_radius=point["R"])
    comp = _compute_for(spec, offload_prob=point["theta"])
    try:
        result = _secp_point(net, comp)
    except StabilityError:
        # An overloaded corner of the grid is data, not a run failure.
        return _nan_row("secp_surface", R_km=point["R"], theta=point["theta"])
    return {"R_km": point["R"], "theta": point["theta"], "secp": result.secp,
            "comp_term": result.comp_term, "ul_term": result.ul_term,
            "dl_term": result.dl_term}


def _eval_r_threshold(spec: ExperimentSpec, index: int, point: dict) -> dict:
    net = _network_for(spec,
                       antennas_per_ap=int(point["antennas_per_ap"]),
                       lambda_b=float(point["lambda_b"]),
                       network_area=point["area"])
    comp = _compute_for(spec, target_latency=float(point["target_latency"]))
    bounds = tuple(spec.sweep["r_bounds_km"])
    row = {"M": int(point["antennas_per_ap"]),
           "lambda_b": float(point["lambda_b"]),
           "t_s": float(point["target_latency"]),
           "area_km2": point["area"]}
    try:
        best_r, best_theta, best_val = _find_r_threshold(net, comp, bounds)
    except InfeasibilityError:
        return _nan_row("r_threshold", **row, _infeasible=True)
    row.update({"R_th_m": best_r * 1000.0, "theta": best_theta,
                "secp_max": best_val})
    return row


def _eval_energy(spec: ExperimentSpec, index: int, point: dict) -> dict:
    xi = point["xi"]
    net = _network_for(spec)
    comp = _compute_for(spec)
    cfg = _energy_for(spec)
    bounds = tuple(spec.sweep["r_bounds_km"])
    try:
        r_star, theta_star, breakdown = energy_mod.minimize_energy(
            net, comp, cfg, xi, r_bounds=bounds)
    except InfeasibilityError:
        return _nan_row("energy_vs_xi", xi=xi, _infeasible=True)
    net_star = _network_for(spec, coverage_radius=r_star)
    comp_star = _compute_for(spec, offload_prob=theta_star)
    achieved = _secp_point(net_star, comp_star).secp
    return {"xi": xi, "R_star_km": r_star, "theta_star": theta_star,
            "E_comp_J": breakdown.e_comp, "E_comm_J": breakdown.e_comm,
            "E_total_J": breakdown.e_total, "secp_achieved": achieved}


def _queue_setup(spec: ExperimentSpec, single: bool):
    """Synthetic-load network for the queueing checks.

    The single-server run uses a heavier load than the server-group run:
    with one queue the arrival process is exactly Poisson, so the
    spectrum math can be checked at substantial utilisation, while the
    group run must stay light for the independent-queue approximation of
    minimum-load dispatch to hold.
    """
    q = dict(spec.sweep.get("queue", {}))
    if single:
        lam_d = float(q.get("lambda_d_n1", 16000.0))
        duration = float(q.get("duration_n1_s", 2900.0))
    else:
        lam_d = float(q.get("lambda_d", 2700.0))
        duration = float(q.get("duration_s", 4200.0))
    net = _network_for(spec, coverage_radius=float(q.get("r_km", 0.1)),
                       lambda_d=lam_d)
    comp = _compute_for(spec, offload_prob=0.0)
    return net, comp, duration, int(q.get("n_mec", 4))


def _vrow(check: str, analytic: float, oracle: float, delta: float,
          tol: float) -> dict:
    return {"check": check, "value_analytic": analytic,
            "value_oracle": oracle, "delta": delta, "tol": tol,
            "status": "pass" if delta <= tol else "fail"}


def _tv_distance(empirical: np.ndarray, spectrum) -> float:
    """Total variation between a finite empirical pmf and the model pmf."""
    acc = 0.0
    for v, mass in enumerate(empirical):
        acc += abs(mass - spectrum.pmf(v))
    return 0.5 * (acc + spectrum.tail(len(empirical)))


def _eval_validate(spec: ExperimentSpec, index: int, point: dict) -> dict:
    check = point["check"]
    if check in ("uplink_outage", "uplink_outage_independent",
                 "downlink_outage", "interference_mean", "interference_var"):
        net = _network_for(spec, coverage_radius=point["R"])
        name = f"{check}@R={point['R']:g}km"
        if check == "uplink_outage":
            ana = comm.uplink_outage(net)
            sample = _sample(spec, "uplink", point["R"])
            delta = abs(ana - sample.estimate)
            return _vrow(name, ana, sample.estimate, delta,
                         0.02 + 3.0 * sample.stderr)
        if check == "uplink_outage_independent":
            # the paper's form, exp(-mean APs * per-AP success), treats the
            # APs as decoding independently: a lower bound of the outage on
            # the shared interferer field, so only an excess over it fails
            bound = math.exp(-mean_connected_aps(net)
                             * comm.per_ap_success(net))
            sample = _sample(spec, "uplink", point["R"])
            return _vrow(name, bound, sample.estimate,
                         max(0.0, bound - sample.estimate),
                         3.0 * sample.stderr)
        if check == "downlink_outage":
            out = comm.downlink_outage(net)
            sample = _sample(spec, "per_user", point["R"])
            delta = max(0.0, out.lower - sample.outage,
                        sample.outage - out.upper)
            return _vrow(name, out.point, sample.outage, delta,
                         0.03 + 3.0 * sample.outage_se)
        sample = _sample(spec, "independent", point["R"], [point["R"]])
        params = comm.gamma_interference_params(net)
        if check == "interference_mean":
            return _vrow(name, params.mean, sample.i_mean,
                         abs(params.mean - sample.i_mean),
                         3.0 * sample.i_mean_se)
        return _vrow(name, params.variance, sample.i_var,
                     abs(params.variance - sample.i_var),
                     3.0 * sample.i_var_se)

    if check in ("queue_pmf_tv_n1", "queue_pmf_tv_n4"):
        single = check.endswith("n1")
        net, comp, duration, n_group = _queue_setup(spec, single)
        n = 1 if single else n_group
        log = sim.simulate_mlcm(net, comp, duration, seed=spec.seed + index,
                                n_mec=n, p_oul=0.0)
        rates = offload.arrival_rates(net, comp, 0.0)
        spectrum = offload.queue_spectrum(comp, rates.lambda_m)
        if n == 1:
            empirical = log.queue_length_pmf(server_id=1)
        else:
            snapshot = log.extras["mec_queue_snapshot"]
            first = snapshot[log.analysis_mask(), 0]
            empirical = np.bincount(first) / len(first)
        tv = _tv_distance(empirical, spectrum)
        return _vrow(check, 0.0, tv, tv, 0.02)

    if check == "scp_mec_vs_des":
        net, comp, duration, n = _queue_setup(spec, single=False)
        log = sim.simulate_mlcm(net, comp, duration,
                                seed=spec.seed + index, n_mec=n, p_oul=0.0)
        rates = offload.arrival_rates(net, comp, 0.0)
        spectrum = offload.queue_spectrum(comp, rates.lambda_m)
        ana = float(offload.mec_conditional_cdf(
            spectrum, n, offload.mec_cache(comp))[n])
        emp = log.sojourn_cdf(comp.target_latency, mec_only=True)
        return _vrow(check, ana, emp, abs(ana - emp), 0.03)

    if check == "scp_cs_vs_des":
        qcs = dict(spec.sweep.get("queue_cs", {}))
        lam_c = float(qcs.get("lambda_c", 50.0))
        net = _network_for(spec, coverage_radius=0.05, lambda_d=lam_c,
                           network_area=1.0)
        comp = _compute_for(spec, offload_prob=1.0)
        log = sim.simulate_mlcm(net, comp,
                                float(qcs.get("duration_s", 2400.0)),
                                seed=spec.seed + index, n_mec=1, p_oul=0.0)
        ana = offload.scp_cs(comp, lam_c)
        emp = log.sojourn_cdf(comp.target_latency, server_id=0)
        return _vrow(check, ana, emp, abs(ana - emp), 0.02)

    raise SpecError(f"unknown validate check {check!r}")


_EVALUATORS = {
    "scmp_vs_R": _eval_scmp,
    "scp_surface": _eval_scp_surface,
    "secp_surface": _eval_secp_surface,
    "r_threshold": _eval_r_threshold,
    "energy_vs_xi": _eval_energy,
    "validate": _eval_validate,
}


def _eval_point(spec: ExperimentSpec, index: int, point: dict) -> dict:
    return _EVALUATORS[spec.kind](spec, index, point)


# Worker-pool plumbing. Each worker process rebuilds the spec once; rows
# come back through ``map`` so output order equals grid order no matter
# which worker finishes first.
_WORKER_SPEC: ExperimentSpec | None = None


def _init_worker(payload: dict) -> None:
    global _WORKER_SPEC
    _WORKER_SPEC = ExperimentSpec.from_mapping(payload)


def _worker_eval(task: tuple) -> dict:
    index, point = task
    return _eval_point(_WORKER_SPEC, index, point)


def _evaluate(spec: ExperimentSpec, points: list, workers: int) -> list:
    if workers <= 1 or len(points) <= 1:
        return [_eval_point(spec, i, p) for i, p in enumerate(points)]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(spec.resolved(),)) as pool:
        return list(pool.map(_worker_eval, list(enumerate(points))))


# ---------------------------------------------------------------------------
# Run orchestration


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv_rows(path: str, columns: list, rows: list) -> None:
    """RFC 4180 CSV: CRLF line endings, header row, '.' decimals."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])


def write_manifest(path: str, manifest: dict) -> None:
    if manifest["output_csv"] is None:
        # no earlier run's CSV stays next to a run that wrote none
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(os.path.dirname(path),
                                   manifest["label"] + ".csv"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(spec: ExperimentSpec, out_dir: str = ".",
                   workers: int = 1) -> int:
    """Evaluate a spec; write CSV + manifest; return the exit code."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, spec.label + ".csv")
    manifest_path = os.path.join(out_dir, spec.label + ".manifest.json")
    started = datetime.now(timezone.utc)
    t0 = time.monotonic()
    rows = None
    error = None
    code = EXIT_OK
    try:
        rows = _evaluate(spec, _points(spec), workers)
        flags = [row.pop("_infeasible", False) for row in rows]
        if rows and all(flags):
            error = ("InfeasibilityError",
                     "no grid point admits a feasible configuration")
            code = EXIT_INFEASIBLE
    except (InfeasibilityError, StabilityError) as exc:
        error = (type(exc).__name__, str(exc))
        code = EXIT_INFEASIBLE
    except NumericalError as exc:
        error = (type(exc).__name__, str(exc))
        code = EXIT_NUMERICAL
    except SpecError as exc:
        error = (type(exc).__name__, str(exc))
        code = EXIT_USAGE

    if rows is not None:
        write_csv_rows(csv_path, COLUMNS[spec.kind], rows)

    manifest = _manifest(spec.kind, spec.label, spec.resolved(), error, code,
                         started)
    manifest.update(seed=spec.seed, replications=spec.replications,
                    wall_time_s=time.monotonic() - t0)
    if rows is not None:
        manifest.update(output_csv=os.path.basename(csv_path),
                        rows_written=len(rows))
    if spec.kind == "validate" and rows is not None:
        manifest["checks_failed"] = sum(r["status"] == "fail" for r in rows)
    write_manifest(manifest_path, manifest)
    return code


def _manifest(kind, label: str, spec: dict, error, code: int,
              started: datetime) -> dict:
    """Manifest of a run that wrote no CSV; run_experiment fills in the
    rest. error is None or (type name, message)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "label": label,
        "status": "ok" if error is None else "failed",
        "error": None if error is None else {"type": error[0],
                                             "message": error[1]},
        "exit_code": code,
        "spec": spec,
        "seed": None,
        "replications": None,
        "started_utc": started.isoformat(),
        "wall_time_s": 0.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cfedge": __version__,
        },
        "output_csv": None,
        "rows_written": 0,
    }


def _write_spec_error_manifest(out_dir: str, mapping: dict,
                               exc: SpecError) -> None:
    """Failed manifest for a spec that does not validate, with the spec
    echoed as given."""
    os.makedirs(out_dir, exist_ok=True)
    label = _safe_label(mapping)
    write_manifest(os.path.join(out_dir, label + ".manifest.json"),
                   _manifest(mapping.get("kind"), label, mapping,
                             (type(exc).__name__, str(exc)), EXIT_USAGE,
                             datetime.now(timezone.utc)))


def _merge_spec(path: str | None, preset: str | None,
                seed: int | None, reps: int | None) -> dict:
    """The spec mapping: the preset, overridden key by key by the file,
    then by --seed and --reps."""
    merged: dict = {}
    if preset is not None:
        try:
            merged = get_preset(preset)
        except KeyError as exc:
            raise SpecError(str(exc)) from None
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        except OSError as exc:
            raise SpecError(f"cannot read spec file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec file is not valid JSON: {exc}") from None
        if not isinstance(overrides, dict):
            raise SpecError("spec file must contain a JSON object")
        for key, val in overrides.items():
            if isinstance(val, dict) and isinstance(merged.get(key), dict):
                merged[key] = {**merged[key], **val}
            else:
                merged[key] = val
    if not merged:
        raise SpecError("give a spec file, --preset, or both")
    sim_section = dict(merged.get("sim", {}))
    if seed is not None:
        sim_section["seed"] = seed
    if reps is not None:
        sim_section["replications"] = reps
    merged["sim"] = sim_section
    return merged


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cfedge",
        description="Batch evaluation of edge-assisted dense-antenna "
                    "networks: success probabilities, radius thresholds "
                    "and energy minimization.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="evaluate one experiment spec")
    run.add_argument("spec_file", nargs="?", default=None,
                     help="JSON experiment description")
    run.add_argument("--preset", default=None,
                     help="named preset; a spec file overrides it key "
                          "by key")
    run.add_argument("--seed", type=int, default=None,
                     help="override the simulation seed")
    run.add_argument("--reps", type=int, default=None,
                     help="override the replication budget")
    run.add_argument("--out", default=".", help="output directory")
    run.add_argument("--workers", type=int, default=1,
                     help="process count for grid evaluation")

    args = parser.parse_args(argv)
    mapping = None
    try:
        mapping = _merge_spec(args.spec_file, args.preset, args.seed,
                              args.reps)
        spec = ExperimentSpec.from_mapping(mapping)
    except SpecError as exc:
        print(f"cfedge: {exc}", file=sys.stderr)
        if mapping is not None:
            _write_spec_error_manifest(args.out, mapping, exc)
        return EXIT_USAGE
    code = run_experiment(spec, out_dir=args.out, workers=args.workers)
    status, written = ("ok", ".csv") if code == EXIT_OK else (
        f"failed (exit {code})", ".manifest.json")
    print(f"{spec.label}: {status} -> "
          f"{os.path.join(args.out, spec.label + written)}")
    return code


if __name__ == "__main__":
    sys.exit(main())
