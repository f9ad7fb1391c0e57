"""Output checks for one benchmark op, and the closed-form digest.

An op fails when any of these holds:

- the run exited nonzero, or wrote no manifest or no CSV;
- a probability is non-finite or outside [0, 1] in a row not flagged
  infeasible (the CLI writes an infeasible or unstable point with a NaN
  headline result);
- an energy row's ``secp_achieved`` is below its floor ``xi``;
- an ``r_threshold`` or energy radius lies outside the spec's bounds;
- a ``secp_surface`` row has secp > dl_term * min(comp_term, ul_term).

A failing ``validate`` check is oracle disagreement, not an op failure: it
is counted separately (``sim.checks_failed``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

# Per kind: the headline result, the probability columns and the other
# columns that must be finite. The CLI writes an infeasible or unstable
# point with a NaN headline; such a row is flagged and only its non-NaN
# values are checked.
_HEADLINE = {"scp_surface": "scp", "secp_surface": "secp",
             "r_threshold": "secp_max", "energy_vs_xi": "secp_achieved"}
_PROBS = {
    "scp_surface": ("theta", "scp_cs", "scp_mec", "scp"),
    "secp_surface": ("theta", "secp", "comp_term", "ul_term", "dl_term"),
    "r_threshold": ("theta", "secp_max"),
    "energy_vs_xi": ("theta_star", "secp_achieved"),
}
_FINITE = {
    "r_threshold": ("R_th_m",),
    "energy_vs_xi": ("R_star_km", "E_comp_J", "E_comm_J", "E_total_J"),
}
_PROB_CHECKS = ("uplink_outage@", "downlink_outage@", "queue_pmf_tv",
                "scp_mec_vs_des", "scp_cs_vs_des")


class OpResult:
    def __init__(self):
        self.errors = []
        self.checks_failed = 0
        self.csv_bytes = b""

    @property
    def failed(self) -> bool:
        return bool(self.errors)


def check_op(out_dir: str, label: str, code: int) -> OpResult:
    """Check the CSV and manifest one op wrote."""
    res = OpResult()
    if code != 0:
        res.errors.append(f"exit code {code}")
    try:
        with open(os.path.join(out_dir, label + ".manifest.json"),
                  encoding="utf-8") as fh:
            manifest = json.load(fh)
        with open(os.path.join(out_dir, label + ".csv"), "rb") as fh:
            res.csv_bytes = fh.read()
    except (OSError, ValueError) as exc:
        res.errors.append(f"missing output: {exc}")
        return res
    if manifest.get("exit_code") != 0:
        res.errors.append(f"manifest exit code {manifest.get('exit_code')}")
    spec = manifest["spec"]
    rows = list(csv.DictReader(res.csv_bytes.decode("utf-8").splitlines()))
    if not rows:
        res.errors.append("no rows")
    for i, row in enumerate(rows):
        try:
            errs = _row_errors(spec, row)
        except (KeyError, TypeError, ValueError) as exc:
            errs = [f"unreadable row: {exc!r}"]
        res.errors += [f"row {i}: {err}" for err in errs]
        if spec["kind"] == "validate" and row.get("status") == "fail":
            res.checks_failed += 1
    return res


def _row_errors(spec: dict, row: dict) -> list:
    kind = spec["kind"]
    if kind == "validate":
        return _validate_errors(row)
    vals = {k: float(v) for k, v in row.items()}
    probs = _PROBS[kind]
    if math.isnan(vals[_HEADLINE[kind]]):
        return [f"{c} = {vals[c]!r} outside [0, 1]" for c in probs
                if not math.isnan(vals[c]) and not 0.0 <= vals[c] <= 1.0]
    errs = [f"{c} = {vals[c]!r} outside [0, 1]" for c in probs
            if not 0.0 <= vals[c] <= 1.0]
    errs += [f"{c} = {vals[c]!r} not finite" for c in _FINITE.get(kind, ())
             if not math.isfinite(vals[c])]
    if errs:
        return errs
    lo, hi = spec["sweep"].get("r_bounds_km", (None, None))
    if kind == "r_threshold" and not lo * 1000.0 <= vals["R_th_m"] <= hi * 1000.0:
        errs.append(f"R_th_m = {vals['R_th_m']!r} outside the bounds")
    if kind == "energy_vs_xi":
        if not lo <= vals["R_star_km"] <= hi:
            errs.append(f"R_star_km = {vals['R_star_km']!r} outside the bounds")
        if vals["secp_achieved"] < vals["xi"]:
            errs.append(f"secp_achieved {vals['secp_achieved']!r} below "
                        f"floor {vals['xi']!r}")
    if kind == "secp_surface" and vals["secp"] > vals["dl_term"] * min(
            vals["comp_term"], vals["ul_term"]):
        errs.append("secp exceeds dl_term * min(comp_term, ul_term)")
    return errs


def _validate_errors(row: dict) -> list:
    errs = []
    if row["status"] not in ("pass", "fail"):
        errs.append(f"status {row['status']!r}")
    nums = {k: float(row[k]) for k in ("value_analytic", "value_oracle",
                                       "delta", "tol")}
    errs += [f"{k} = {v!r} not finite" for k, v in nums.items()
             if not math.isfinite(v)]
    if not errs and row["check"].startswith(_PROB_CHECKS):
        errs += [f"{k} = {nums[k]!r} outside [0, 1]"
                 for k in ("value_analytic", "value_oracle")
                 if not 0.0 <= nums[k] <= 1.0]
    return errs


def digest(results: list) -> str:
    """SHA-256 over the CSV bytes of a pass's ops, in op order."""
    h = hashlib.sha256()
    for res in results:
        h.update(len(res.csv_bytes).to_bytes(8, "little"))
        h.update(res.csv_bytes)
    return h.hexdigest()
