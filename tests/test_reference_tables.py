"""The closed-form preset CSVs against reference tables, cell by cell.

test_digests.py pins the bits of each CSV, but only on the build it was
pinned on. This gate runs on any build: each closed-form preset runs
in-process and every cell of its CSV must lie within its column's
tolerance of the table under tests/data/. A cell's tolerance depends on
how the cell is found:

- an input or evaluation cell: rtol 1e-10, with NaN equal to NaN. A bump
  of 4e-16 in the pathloss, the float power and 2F1, a stand-in for
  another libm or scipy, moved such cells by at most 4.5e-14 relative;
- a searched radius or split: the stop width of the search that found
  it. The split and radius of r-threshold come from search.maximize, so
  each may move by search._GOLDEN_TOL (the radius in km: 0.1 m of
  R_th_m). energy.minimize_energy bisects R* to 1e-9 km and theta* to
  1e-5;
- a cell computed at a searched point: rtol 1e-10 plus the most the cell
  moves when one searched coordinate of its row moves by its width,
  summed over the coordinates. The test measures that change at the
  reference point, on either side of each coordinate.

A change that moves a closed form on purpose rewrites the tables with
`cfedge run --preset <name> --out tests/data` and keeps the manifests out,
so the diff shows the moved cells.
"""

import csv
import math
from dataclasses import replace
from pathlib import Path

import pytest

from cfedge import cli, search
from cfedge.energy import energy_breakdown
from cfedge.secp import secp

DATA = Path(__file__).parent / "data"
RTOL = 1e-10

# the bisect widths of energy.minimize_energy: R* in km, then theta*
R_STAR_WIDTH = 1e-9
THETA_STAR_WIDTH = 1e-5


def _r_threshold_at(R_m, theta, net, comp):
    return {"secp_max": secp(replace(net, coverage_radius=R_m / 1000.0),
                             replace(comp, offload_prob=theta)).secp}


def _energy_at(R_km, theta, net, comp, cfg):
    net, comp = (replace(net, coverage_radius=R_km),
                 replace(comp, offload_prob=theta))
    bd = energy_breakdown(net, comp, cfg)
    return {"E_comp_J": bd.e_comp, "E_comm_J": bd.e_comm,
            "E_total_J": bd.e_total, "secp_achieved": secp(net, comp).secp}


# preset -> (its searched radius and split columns with their stop widths,
# the function giving its at-point cells from those two and the row's
# configs)
SEARCHED = {
    "r-threshold": ({"R_th_m": search._GOLDEN_TOL * 1000.0,
                     "theta": search._GOLDEN_TOL}, _r_threshold_at),
    "energy-sweep": ({"R_star_km": R_STAR_WIDTH,
                      "theta_star": THETA_STAR_WIDTH}, _energy_at),
}


def _read(path: Path) -> tuple:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(cell) for cell in row] for row in rows[1:]]


def _at_point_tolerances(preset, configs, ref: dict) -> dict:
    """Column -> tolerance of the cells computed at the row's searched
    point: rtol plus, per searched coordinate, the larger change of the
    cell when the coordinate moves by its width to either side."""
    widths, at = SEARCHED[preset]
    (r_col, r_width), (th_col, th_width) = widths.items()
    R, theta = ref[r_col], ref[th_col]

    def cells(R, theta):
        return at(R, min(1.0, max(0.0, theta)), *configs)

    base = cells(R, theta)
    moves = [[cells(R + sign * r_width, theta) for sign in (-1.0, 1.0)],
             [cells(R, theta + sign * th_width) for sign in (-1.0, 1.0)]]
    return {col: RTOL * abs(ref[col]) + sum(
                max(abs(moved[col] - v) for moved in pair) for pair in moves)
            for col, v in base.items()}


def _close(got: float, want: float, tol: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= tol


@pytest.mark.parametrize("preset", ["scp-surface-mix", "scp-surface-single",
                                    "secp-surface", "r-threshold",
                                    "energy-sweep"])
def test_csv_matches_reference_table(preset, tmp_path):
    spec = cli.ExperimentSpec.from_mapping(
        cli._merge_spec(None, preset, None, None))
    assert cli.run_experiment(spec, out_dir=str(tmp_path)) == cli.EXIT_OK
    header, got = _read(tmp_path / f"{spec.label}.csv")
    ref_header, want = _read(DATA / f"{preset}.csv")
    assert header == ref_header
    assert len(got) == len(want)
    widths = SEARCHED.get(preset, ({}, None))[0]
    for index, (got_row, want_row) in enumerate(zip(got, want)):
        ref = dict(zip(header, want_row))
        tol = {col: RTOL * abs(v) for col, v in ref.items()}
        tol.update(widths)
        # an infeasible row is NaN in every searched cell
        if widths and not math.isnan(ref[next(iter(widths))]):
            tol.update(_at_point_tolerances(preset, spec.configs[index], ref))
        for col, g, w in zip(header, got_row, want_row):
            assert _close(g, w, tol[col]), (
                f"{preset} row {index} {col}: {g!r} against {w!r}, "
                f"tolerance {tol[col]:.3g}")
