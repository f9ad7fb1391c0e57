"""Batch experiment runner behind the ``cfedge`` console script.

``cfedge run`` reads a JSON experiment description (from a file, a named
preset, or a preset with file overrides), evaluates the requested grid
and writes two artifacts next to each other:

- ``<label>.csv``: one row per grid point, RFC 4180, UTF-8
- ``<label>.manifest.json``: config echo, library versions, seed,
  wall time and outcome; written even when the run fails

Exit codes: 0 success, 2 unusable spec, 3 infeasible configuration
(including queue overload), 4 any other failure.

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
import os
import platform
import sys
import time
import traceback
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__, comm, offload, sim
from . import energy as energy_mod
# Direct submodule import; the package attribute `secp` is the function.
from .secp import find_r_threshold as _find_r_threshold
from .secp import secp as _secp_point, secp_splits
from .errors import InfeasibilityError, StabilityError
from .model import ComputeConfig, NetworkConfig, is_real, mean_connected_aps
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
    # each point's configs, built and checked by from_mapping
    configs: tuple = field(default=(), init=False, compare=False, repr=False)

    @classmethod
    def from_mapping(cls, data: dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise SpecError("spec must be a JSON object")
        _check_keys("spec", data, ("kind", "label", *_CONFIGS, "sweep", "sim"))
        kind = data.get("kind")
        if kind not in KINDS:
            raise SpecError(f"unknown kind {kind!r}; expected one of "
                            + ", ".join(KINDS))
        for section in ("sweep", "network", "compute", "energy", "sim"):
            if not isinstance(data.get(section, {}), dict):
                raise SpecError(f"'{section}' must be an object")
        _check_sweep(kind, data.get("sweep", {}))
        if kind != "scmp_vs_R" and not data.get("compute"):
            raise SpecError(f"kind {kind} needs a 'compute' section")
        sim_section = data.get("sim", {})
        _check_keys("sim", sim_section, ("replications", "seed"))
        replications = sim_section.get("replications", 1000)
        seed = sim_section.get("seed", 0)
        if not all(is_real(v) and v == int(v) for v in (replications, seed)) \
                or replications < 1:
            raise SpecError("sim.replications must be an integer of at least "
                            "1 and sim.seed an integer")
        spec = cls(kind, _safe_label(data), *(
            dict(data.get(section, {}))
            for section in ("network", "compute", "energy", "sweep")),
            replications=int(replications), seed=int(seed))
        # the configs own the field rules: a value none of them takes fails
        # here, before any point is evaluated
        configs, nets = [], {}
        for point in _points(spec):
            try:
                configs.append(_configs(spec, point, nets))
            except SpecError as exc:
                where = " and ".join(
                    f"sweep.{_SWEEP_KEYS[key]} entry {value!r}"
                    for key, value in point.items() if key in _SWEEP_KEYS)
                raise SpecError(f"{exc} at {where}" if where else exc) \
                    from None
        if kind == "r_threshold":
            # the rows and areas override these base fields, which must pass
            # all the same; the first row and area fill those not given
            row = {**spec.sweep["rows"][0], "network_area": spec.sweep[
                "areas_km2"][0], **spec.network, **spec.compute}
            _configs(spec, {"row": row, "area": row["network_area"]}, {})
        spec.configs = tuple(configs)
        return spec

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
_CONFIGS = {"network": NetworkConfig, "compute": ComputeConfig,
            "energy": energy_mod.EnergyConfig}
_ROW_KEYS = ("antennas_per_ap", "lambda_b", "target_latency")
# the sweep list each point key is drawn from
_SWEEP_KEYS = {"R": "radii_km", "theta": "theta_grid", "row": "rows",
               "area": "areas_km2"}
# validate's queue checks, in row order: each runs its own queueing
# simulation, sharing no state with the spatial drops or with each other
_QUEUE_CHECKS = ("queue_pmf_tv_n1", "queue_pmf_tv_n4", "scp_mec_vs_des",
                 "scp_cs_vs_des")
# the keys of validate's queue sections, with their defaults: "queue" sets
# the edge checks, "queue_cs" the central one
_QUEUE_DEFAULTS = {
    "queue": {"r_km": 0.1, "n_mec": 4, "lambda_d_n1": 16000.0,
              "duration_n1_s": 2900.0, "lambda_d": 2700.0,
              "duration_s": 4200.0},
    "queue_cs": {"lambda_c": 50.0, "duration_s": 2400.0},
}


def _safe_label(data: dict) -> str:
    """The spec's label (the kind by default) as a file-name stem."""
    kind = str(data.get("kind"))
    label = str(data.get("label", kind))
    return "".join(c if c.isalnum() or c in "-_." else "-"
                   for c in label) or kind


def _check_keys(where: str, section: dict, expected) -> None:
    if unknown := ", ".join(k for k in section if k not in expected):
        raise SpecError(f"unknown key in {where}: {unknown}; expected one of "
                        + ", ".join(expected))


def _check_sweep(kind: str, sweep: dict) -> None:
    """The sweep's keys and shape, and the values that no config takes."""
    _check_keys("sweep", sweep, _SWEEP_GRIDS[kind] + (
        ("r_bounds_km",) if kind in ("r_threshold", "energy_vs_xi") else
        tuple(_QUEUE_DEFAULTS) if kind == "validate" else ()))
    for key in _SWEEP_GRIDS[kind]:
        grid = sweep.get(key)
        if not isinstance(grid, (list, tuple)) or len(grid) == 0:
            raise SpecError(f"kind {kind} needs a non-empty sweep.{key}")
    if kind == "energy_vs_xi" and not all(
            is_real(xi) and 0 < xi < 1 for xi in sweep["xi_grid"]):
        raise SpecError("sweep.xi_grid entries must be numbers strictly "
                        "between 0 and 1")
    if kind == "r_threshold":
        for row in sweep["rows"]:
            if not isinstance(row, dict) or not {*_ROW_KEYS} <= row.keys():
                raise SpecError("sweep.rows entries must be objects with "
                                + ", ".join(_ROW_KEYS))
            _check_keys("sweep.rows entry", row, _ROW_KEYS)
    if kind == "validate":
        for key, defaults in _QUEUE_DEFAULTS.items():
            section = sweep.get(key, {})
            if not isinstance(section, dict) or not all(
                    is_real(value) and value > 0
                    for value in section.values()):
                raise SpecError(f"sweep.{key} must be an object of "
                                "positive numbers")
            _check_keys(f"sweep.{key}", section, defaults)
        n_mec = {**_QUEUE_DEFAULTS["queue"], **sweep.get("queue", {})}["n_mec"]
        if n_mec != int(n_mec):
            raise SpecError("sweep.queue.n_mec must be a positive integer")
    if kind in ("r_threshold", "energy_vs_xi"):
        bounds = sweep.get("r_bounds_km")
        if (not isinstance(bounds, (list, tuple)) or len(bounds) != 2
                or not all(map(is_real, bounds))
                or not 0 < bounds[0] < bounds[1]):
            raise SpecError("sweep.r_bounds_km must be [lo, hi] with "
                            "0 < lo < hi")


def _config(spec: ExperimentSpec, section: str, merged=None, **overrides):
    """The config of a spec section (merged, if given, in its place) with
    overrides: a missing, unknown or out-of-range field is a spec error."""
    if merged is None:
        merged = getattr(spec, section)
    try:
        return _CONFIGS[section](**{**merged, **overrides})
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad {section} section: {exc}") from None


def _network_for(spec: ExperimentSpec, **overrides) -> NetworkConfig:
    """The network config; a SIR threshold in dB wins over a linear one."""
    merged = dict(spec.network)
    for side in ("ul", "dl"):
        db_key = f"sir_threshold_{side}_db"
        if db_key in merged:
            try:
                db = merged.pop(db_key)
                if isinstance(db, bool):
                    raise TypeError
                merged[f"sir_threshold_{side}"] = 10.0 ** (db / 10.0)
            except (TypeError, OverflowError):
                raise SpecError(f"bad network section: {db_key} must be a "
                                "number of dB") from None
    return _config(spec, "network", merged, **overrides)


def _configs(spec: ExperimentSpec, point: dict, nets: dict) -> tuple:
    """The configs point is evaluated on: its network, its compute mix where
    the evaluator reads one, the energy config for energy_vs_xi, and a
    queue check's duration and server count. nets maps a radius entry's id
    to its network: a surface row builds one."""
    if point.get("check") in _QUEUE_CHECKS:
        return _queue_setup(spec, point["check"])
    if spec.kind == "r_threshold":
        row = point["row"]
        return (_network_for(spec, antennas_per_ap=row["antennas_per_ap"],
                             lambda_b=row["lambda_b"],
                             network_area=point["area"]),
                _config(spec, "compute", target_latency=row["target_latency"]))
    if spec.kind == "energy_vs_xi":
        comp, cfg = _config(spec, "compute"), _config(spec, "energy")
        if len(cfg.f_cs_hz) != comp.num_types:
            raise SpecError("bad energy section: f_cs_hz and f_mec_hz need "
                            "one clock per compute task type")
        return _network_for(spec), comp, cfg
    if id(point["R"]) not in nets:
        nets[id(point["R"])] = _network_for(spec, coverage_radius=point["R"])
    net = nets[id(point["R"])]
    if "theta" in point:
        return net, _config(spec, "compute", offload_prob=point["theta"])
    return (net,)


# ---------------------------------------------------------------------------
# Grid construction and per-point evaluation


def _points(spec: ExperimentSpec) -> list:
    """The grid points, their values as the spec gives them: the configs
    they build check and convert them."""
    sweep = spec.sweep
    if spec.kind == "scmp_vs_R":
        return [{"R": r} for r in sweep["radii_km"]]
    if spec.kind in ("scp_surface", "secp_surface"):
        return [{"R": r, "theta": th}
                for r in sweep["radii_km"] for th in sweep["theta_grid"]]
    if spec.kind == "r_threshold":
        return [{"row": row, "area": area}
                for row in sweep["rows"] for area in sweep["areas_km2"]]
    if spec.kind == "energy_vs_xi":
        return [{"xi": float(x)} for x in sweep["xi_grid"]]
    # validate
    pts = [{"check": "uplink_outage", "R": r} for r in sweep["radii_km"]]
    pts += [{"check": "downlink_outage", "R": r} for r in sweep["radii_km"]]
    r0 = sweep["radii_km"][-1]
    return pts + [{"check": "interference_mean", "R": r0},
                  {"check": "interference_var", "R": r0},
                  *({"check": check} for check in _QUEUE_CHECKS),
                  {"check": "uplink_outage_independent", "R": r0}]


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
    (net,) = spec.configs[index]
    R = net.coverage_radius
    p_oul = comm.uplink_outage(net)
    dl = comm.downlink_outage(net)
    ul_sample = _sample(spec, "uplink", R)
    dl_sample = _sample(spec, "per_user", R)
    return {
        "R_km": R,
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


def _eval_surface(spec: ExperimentSpec, indices: list) -> list:
    """The rows of a surface's radius row, its points' indices given. An
    overloaded path, or split of secp_surface, is NaN in its columns: a
    corner of the grid is data, not a run failure."""
    net, comp = spec.configs[indices[0]]
    thetas = [spec.configs[i][1].offload_prob for i in indices]
    scorer = offload.scp_splits if spec.kind == "scp_surface" else secp_splits
    rows = []
    for theta, values in zip(thetas, scorer(net, comp, thetas)):
        if isinstance(values, StabilityError):
            values = (values,) * (len(COLUMNS[spec.kind]) - 2)
        rows.append(dict(zip(COLUMNS[spec.kind], [
            net.coverage_radius, theta, *(math.nan if isinstance(
                v, StabilityError) else v for v in values)])))
    return rows


def _eval_r_threshold(spec: ExperimentSpec, index: int, point: dict) -> dict:
    net, comp = spec.configs[index]
    bounds = tuple(spec.sweep["r_bounds_km"])
    row = {"M": net.antennas_per_ap, "lambda_b": net.lambda_b,
           "t_s": comp.target_latency, "area_km2": net.network_area}
    try:
        best_r, best_theta, best_val = _find_r_threshold(net, comp, bounds)
    except InfeasibilityError:
        return _nan_row("r_threshold", **row, _infeasible=True)
    row.update({"R_th_m": best_r * 1000.0, "theta": best_theta,
                "secp_max": best_val})
    return row


def _eval_energy(spec: ExperimentSpec, index: int, point: dict) -> dict:
    xi = point["xi"]
    net, comp, cfg = spec.configs[index]
    bounds = tuple(spec.sweep["r_bounds_km"])
    try:
        r_star, theta_star, breakdown = energy_mod.minimize_energy(
            net, comp, cfg, xi, r_bounds=bounds)
    except InfeasibilityError:
        return _nan_row("energy_vs_xi", xi=xi, _infeasible=True)
    net_star = _network_for(spec, coverage_radius=r_star)
    comp_star = _config(spec, "compute", offload_prob=theta_star)
    achieved = _secp_point(net_star, comp_star).secp
    return {"xi": xi, "R_star_km": r_star, "theta_star": theta_star,
            "E_comp_J": breakdown.e_comp, "E_comm_J": breakdown.e_comm,
            "E_total_J": breakdown.e_total, "secp_achieved": achieved}


def _queue_setup(spec: ExperimentSpec, check: str) -> tuple:
    """(network, compute, duration, edge server count) of a queue check.

    The central check offloads every task to the central server, at rate
    lambda_c over a 1 km^2 network. The edge checks offload none, at
    synthetic user densities (_QUEUE_DEFAULTS) chosen so that the
    per-server load means something. The single-server run uses a heavier
    load, rho ~ 0.59, than the server-group run: with one queue the
    arrival process is exactly Poisson, so the spectrum math can be
    checked at substantial utilisation, while the group run must stay
    light, rho ~ 0.1, for the independent-queue approximation of
    minimum-load dispatch to hold.
    """
    if check == "scp_cs_vs_des":
        q = {**_QUEUE_DEFAULTS["queue_cs"], **spec.sweep.get("queue_cs", {})}
        return (_network_for(spec, coverage_radius=0.05,
                             lambda_d=q["lambda_c"], network_area=1.0),
                _config(spec, "compute", offload_prob=1.0),
                float(q["duration_s"]), 1)
    q = {**_QUEUE_DEFAULTS["queue"], **spec.sweep.get("queue", {})}
    single = check == "queue_pmf_tv_n1"
    net = _network_for(spec, coverage_radius=q["r_km"],
                       lambda_d=q["lambda_d_n1" if single else "lambda_d"])
    return (net, _config(spec, "compute", offload_prob=0.0),
            float(q["duration_n1_s" if single else "duration_s"]),
            1 if single else int(q["n_mec"]))


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
    if check not in _QUEUE_CHECKS:
        (net,) = spec.configs[index]
        R = net.coverage_radius
        name = f"{check}@R={R:g}km"
        if check == "uplink_outage":
            ana = comm.uplink_outage(net)
            sample = _sample(spec, "uplink", R)
            delta = abs(ana - sample.estimate)
            return _vrow(name, ana, sample.estimate, delta,
                         0.02 + 3.0 * sample.stderr)
        if check == "uplink_outage_independent":
            # the paper's form, exp(-mean APs * per-AP success), treats the
            # APs as decoding independently: a lower bound of the outage on
            # the shared interferer field, so only an excess over it fails
            bound = math.exp(-mean_connected_aps(net)
                             * comm.per_ap_success(net))
            sample = _sample(spec, "uplink", R)
            return _vrow(name, bound, sample.estimate,
                         max(0.0, bound - sample.estimate),
                         3.0 * sample.stderr)
        if check == "downlink_outage":
            out = comm.downlink_outage(net)
            sample = _sample(spec, "per_user", R)
            delta = max(0.0, out.lower - sample.outage,
                        sample.outage - out.upper)
            return _vrow(name, out.point, sample.outage, delta,
                         0.03 + 3.0 * sample.outage_se)
        sample = _sample(spec, "independent", R, [R])
        params = comm.gamma_interference_params(net)
        if check == "interference_mean":
            return _vrow(name, params.mean, sample.i_mean,
                         abs(params.mean - sample.i_mean),
                         3.0 * sample.i_mean_se)
        return _vrow(name, params.variance, sample.i_var,
                     abs(params.variance - sample.i_var),
                     3.0 * sample.i_var_se)

    net, comp, duration, n = spec.configs[index]
    # the closed form first: an overloaded queue fails before the DES
    rates = offload.arrival_rates(net, comp, 0.0)
    if check == "scp_cs_vs_des":
        ana = offload.scp_cs(comp, rates.lambda_c)
    else:
        spectrum = offload.queue_spectrum(comp, rates.lambda_m)
    log = sim.simulate_mlcm(net, comp, duration, seed=spec.seed + index,
                            n_mec=n, p_oul=0.0)
    if check == "scp_cs_vs_des":
        emp = log.sojourn_cdf(comp.target_latency, server_id=0)
        return _vrow(check, ana, emp, abs(ana - emp), 0.02)
    if check == "scp_mec_vs_des":
        ana = float(offload.mec_conditional_cdf(
            (spectrum,), n, offload.mec_cache(comp))[0, n])
        emp = log.sojourn_cdf(comp.target_latency, mec_only=True)
        return _vrow(check, ana, emp, abs(ana - emp), 0.03)
    # the first edge server's length at every arrival after warm-up
    first = log.in_system[log.analysis_mask(), 1]
    tv = _tv_distance(np.bincount(first) / len(first), spectrum)
    return _vrow(check, 0.0, tv, tv, 0.02)


# the surfaces are scored one radius row at a time, by _eval_surface
_EVALUATORS = {
    "scmp_vs_R": _eval_scmp,
    "r_threshold": _eval_r_threshold,
    "energy_vs_xi": _eval_energy,
    "validate": _eval_validate,
}


def _eval_task(spec: ExperimentSpec, task: list) -> list:
    """The rows of a unit of work, [(index, point), ...]."""
    if spec.kind not in _EVALUATORS:
        return _eval_surface(spec, [i for i, _ in task])
    return [_EVALUATORS[spec.kind](spec, i, point) for i, point in task]


def _evaluate(spec: ExperimentSpec, points: list, workers: int) -> list:
    """The rows of points, in order, mapped over units of work by one
    sim.forked call. A surface's radius row (its points are radius-major)
    or another point is a unit, up to `workers` processes sharing them.
    scmp_vs_R, whose rows share the drops, is one unit. validate has three
    in two processes: the rows before the queue checks (the drops), the
    queue checks but the last, and the rest, which start with the shortest
    queue run, the one row that reaches offload.scp_cs: a profile of this
    process sees it. An error is that of the first failing point."""
    indexed = list(enumerate(points))
    width = 1 if spec.kind in _EVALUATORS else len(spec.sweep["theta_grid"])
    units, n = [indexed[i:i + width]
                for i in range(0, len(indexed), width)], workers
    if spec.kind == "scmp_vs_R":
        units, n = [indexed], 1
    elif spec.kind == "validate":
        q = [k for k, point in indexed if point.get("check") in _QUEUE_CHECKS]
        units, n = [indexed[:q[0]], indexed[q[0]:q[-1]], indexed[q[-1]:]], 2
    return [row for rows in sim.forked(lambda u: _eval_task(spec, units[u]),
                                       len(units), n) for row in rows]


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


def run_experiment(spec: ExperimentSpec, out_dir: str = ".",
                   workers: int = 1) -> int:
    """Evaluate a spec; write CSV + manifest; return the exit code."""
    os.makedirs(out_dir, exist_ok=True)
    csv_name = spec.label + ".csv"
    started = datetime.now(timezone.utc)
    t0 = time.monotonic()
    rows, error, code = None, None, EXIT_OK
    try:
        evaluated = _evaluate(spec, _points(spec), workers)
        flags = [row.pop("_infeasible", False) for row in evaluated]
        write_csv_rows(os.path.join(out_dir, csv_name), COLUMNS[spec.kind],
                       evaluated)
        rows = evaluated
        if all(flags):
            raise InfeasibilityError(
                "no grid point admits a feasible configuration")
    except Exception as exc:
        code, error = _failure(exc)

    fields = {} if rows is None else {"output_csv": csv_name,
                                      "rows_written": len(rows)}
    if spec.kind == "validate" and rows is not None:
        fields["checks_failed"] = sum(r["status"] == "fail" for r in rows)
    _write_manifest(out_dir, spec.label, spec.kind, spec.resolved(), started,
                    code, error, seed=spec.seed,
                    replications=spec.replications,
                    wall_time_s=time.monotonic() - t0, **fields)
    return code


def _failure(exc: Exception) -> tuple:
    """The exit code and manifest error of a failed run: a spec error is 2,
    an overloaded queue or an empty feasible set 3, anything else 4, with
    its traceback on stderr."""
    code = (EXIT_USAGE if isinstance(exc, SpecError) else EXIT_INFEASIBLE
            if isinstance(exc, (StabilityError, InfeasibilityError))
            else EXIT_NUMERICAL)
    if code == EXIT_NUMERICAL:
        traceback.print_exc()
    return code, (type(exc).__name__, str(exc))


def _write_manifest(out_dir: str, label: str, kind, spec: dict,
                    started: datetime, code: int, error, **fields) -> None:
    """Write <label>.manifest.json: the spec echo, versions and outcome,
    error being None or (type name, message), and the fields the run got
    to. A run that wrote no CSV leaves no earlier CSV of its label."""
    manifest = {
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
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "cfedge": __version__},
        "output_csv": None,
        "rows_written": 0,
        **fields,
    }
    os.makedirs(out_dir, exist_ok=True)
    if manifest["output_csv"] is None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, label + ".csv"))
    with open(os.path.join(out_dir, label + ".manifest.json"), "w",
              encoding="utf-8") as fh:
        # dumps without indent is the one form json's C encoder writes
        fh.write(json.dumps(manifest, sort_keys=True) + "\n")


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
    if isinstance(merged.get("sim", {}), dict):
        merged["sim"] = {**merged.get("sim", {}), **{
            k: v for k, v in (("seed", seed), ("replications", reps))
            if v is not None}}
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
                     help="most processes that evaluate the grid, and no "
                          "more than the usable CPUs (default 1)")

    args = parser.parse_args(argv)
    if args.workers < 1:
        run.error(f"argument --workers: must be at least 1, not "
                  f"{args.workers}")
    mapping = None
    try:
        mapping = _merge_spec(args.spec_file, args.preset, args.seed,
                              args.reps)
        spec = ExperimentSpec.from_mapping(mapping)
    except Exception as exc:
        code, error = _failure(exc)
        print(f"cfedge: {exc}", file=sys.stderr)
        if mapping is None:
            return code
        label = _safe_label(mapping)   # the manifest echoes the spec as given
        _write_manifest(args.out, label, mapping.get("kind"), mapping,
                        datetime.now(timezone.utc), code, error)
    else:
        label = spec.label
        code = run_experiment(spec, out_dir=args.out, workers=args.workers)
    status, written = ("ok", ".csv") if code == EXIT_OK else (
        f"failed (exit {code})", ".manifest.json")
    print(f"{label}: {status} -> {os.path.join(args.out, label + written)}")
    return code


if __name__ == "__main__":
    sys.exit(main())
