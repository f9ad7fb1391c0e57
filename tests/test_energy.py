"""Per-task energy model and the success-constrained minimization."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from cfedge import energy
from cfedge.cli import ExperimentSpec
from cfedge.energy import (EnergyConfig, communication_energy,
                           computation_energy, energy_breakdown,
                           minimize_energy, service_rates, theta_energy_slope)
from cfedge.errors import InfeasibilityError
from cfedge.model import ComputeConfig
from cfedge.presets import get_preset
from cfedge.secp import THETA_GRID, _best_theta, secp, secp_splits

from conftest import MU_C, MU_M, make_net


@pytest.fixture
def single_energy() -> EnergyConfig:
    return EnergyConfig(f_cs_hz=(5e9,), f_mec_hz=(3.4e9,))


def test_service_rates_exact():
    cs, mec = service_rates(EnergyConfig())
    assert cs == MU_C
    assert mec == MU_M


def test_energy_additivity(fig_net, mix_comp):
    bd = energy_breakdown(fig_net, mix_comp, EnergyConfig())
    assert bd.e_total == bd.e_comp + bd.e_comm
    assert bd.e_comm == pytest.approx(bd.p_ul * bd.t_ul + bd.p_dl * bd.t_dl,
                                      rel=1e-15)


def test_airtimes(fig_net):
    cfg = EnergyConfig()
    ce = communication_energy(fig_net, cfg)
    r_u = math.log2(1.0 + fig_net.sir_threshold_ul)
    r_d = math.log2(1.0 + fig_net.sir_threshold_dl)
    assert ce.t_ul == pytest.approx(cfg.task_bits_ul / (r_u * cfg.bandwidth_hz))
    assert ce.t_dl == pytest.approx(cfg.task_bits_dl / (r_d * cfg.bandwidth_hz))


def test_comm_energy_affine_in_antennas():
    cfg = EnergyConfig()
    vals = [communication_energy(make_net(antennas_per_ap=m), cfg).e_comm
            for m in (1, 2, 3, 4)]
    second = np.diff(vals, n=2)
    np.testing.assert_allclose(second, 0.0, atol=1e-12 * max(vals))
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_comm_energy_grows_with_radius():
    cfg = EnergyConfig()
    vals = [communication_energy(make_net(coverage_radius=R), cfg).e_comm
            for R in (0.02, 0.05, 0.1, 0.2)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_comp_energy_affine_in_split(mix_comp):
    cfg = EnergyConfig()
    lo = computation_energy(replace(mix_comp, offload_prob=0.0), cfg)
    hi = computation_energy(replace(mix_comp, offload_prob=1.0), cfg)
    mid = computation_energy(replace(mix_comp, offload_prob=0.5), cfg)
    assert mid == pytest.approx(0.5 * (lo + hi), rel=1e-15)
    assert theta_energy_slope(mix_comp, cfg) == pytest.approx(hi - lo,
                                                              rel=1e-15)


def test_slope_prefers_edge(single_comp, single_energy):
    # the central clock burns far more switching energy per task than the
    # edge clock, so pushing work off the central server is cheaper
    slope = theta_energy_slope(single_comp, single_energy)
    want = (1e-26 * (5e9) ** 3 / MU_C[1] - 1e-27 * (3.4e9) ** 3 / MU_M[1])
    assert slope == pytest.approx(want, rel=1e-12)
    assert slope > 0.0


def test_clock_type_mismatch_rejected(mix_comp, single_energy):
    with pytest.raises(ValueError, match="disagree in length"):
        computation_energy(mix_comp, single_energy)


def test_config_validation():
    with pytest.raises(ValueError):
        EnergyConfig(f_cs_hz=(4e9,), f_mec_hz=(1e9, 3.4e9))
    with pytest.raises(ValueError):
        EnergyConfig(pa_efficiency=0.0)
    with pytest.raises(ValueError):
        EnergyConfig(task_bits_ul=-1.0)
    # a string is not read character by character, and NaN fails no range
    with pytest.raises(ValueError, match="f_cs_hz"):
        EnergyConfig(f_cs_hz="45", f_mec_hz=(1e9, 3.4e9))
    with pytest.raises(ValueError, match="delta"):
        EnergyConfig(delta=float("nan"))
    with pytest.raises(ValueError, match="f_mec_hz"):
        EnergyConfig(f_mec_hz=(1e9, float("inf")))


@pytest.mark.parametrize("name", [
    "p_rf_ap", "p_rf_user", "p_oscillator", "p_coding_w_per_gbps",
    "p_decoding_w_per_gbps", "p_fixed_user", "p_fixed_ap", "energy_per_op"])
def test_negative_energy_constant_rejected(name):
    # a negative power or energy per operation would report negative
    # energy; zero leaves a term out
    with pytest.raises(ValueError, match=f"{name} cannot be negative"):
        EnergyConfig(**{name: -1e-3})
    assert getattr(EnergyConfig(**{name: 0.0}), name) == 0.0


class TestMinimizeEnergy:
    def test_solution_meets_floor_with_slack(self, fig_net, single_comp,
                                             single_energy):
        xi = 0.6
        r_star, th_star, bd = minimize_energy(fig_net, single_comp,
                                              single_energy, xi,
                                              r_bounds=(0.01, 0.25))
        assert 0.01 <= r_star <= 0.25
        achieved = secp(replace(fig_net, coverage_radius=r_star),
                        replace(single_comp, offload_prob=th_star)).secp
        assert achieved >= xi - 1e-6
        assert bd.e_total == pytest.approx(
            energy_breakdown(replace(fig_net, coverage_radius=r_star),
                             replace(single_comp, offload_prob=th_star),
                             single_energy).e_total)

    def test_monotone_frontier(self, fig_net, single_comp, single_energy):
        radii = []
        for xi in (0.45, 0.55, 0.65, 0.75):
            r_star, _, _ = minimize_energy(fig_net, single_comp,
                                           single_energy, xi,
                                           r_bounds=(0.01, 0.25))
            radii.append(r_star)
        assert all(b >= a - 1e-9 for a, b in zip(radii, radii[1:]))

    def test_loose_floor_pins_lower_bound(self, fig_net, single_comp,
                                          single_energy):
        r_star, _, _ = minimize_energy(fig_net, single_comp, single_energy,
                                       0.02, r_bounds=(0.01, 0.25))
        assert r_star == 0.01

    def test_unreachable_floor(self, fig_net, single_comp, single_energy):
        with pytest.raises(InfeasibilityError, match="best achievable"):
            minimize_energy(fig_net, single_comp, single_energy, 0.97,
                            r_bounds=(0.01, 0.25))

    def test_validation(self, fig_net, single_comp, single_energy):
        with pytest.raises(ValueError):
            minimize_energy(fig_net, single_comp, single_energy, 0.0)
        with pytest.raises(ValueError):
            minimize_energy(fig_net, single_comp, single_energy, 1.0)
        with pytest.raises(ValueError):
            minimize_energy(fig_net, single_comp, single_energy, 0.5,
                            r_bounds=(0.2, 0.1))


def test_cheapest_split_walks_then_bisects():
    # from the feasible peak the cheaper (smaller) feasible edge is walked
    # to and bisected, one split per call
    calls = []

    def secp_at(thetas):
        calls.append(list(thetas))
        return [None if th > 0.9 else 1.0 - (th - 0.6) ** 2 for th in thetas]

    theta = energy._cheapest_feasible_theta(secp_at, 0.95, 0.6, 1.0)
    assert theta == pytest.approx(0.6 - math.sqrt(0.05), abs=1e-5)
    assert 1.0 - (theta - 0.6) ** 2 >= 0.95
    assert all(len(thetas) == 1 for thetas in calls)


@pytest.fixture(scope="module")
def energy_sweep():
    # the energy-sweep preset's network, compute and energy configs and
    # its radius bounds
    spec = ExperimentSpec.from_mapping(get_preset("energy-sweep"))
    net, comp, cfg = spec.configs[0]
    return net, comp, cfg, tuple(spec.sweep["r_bounds_km"])


@pytest.mark.parametrize("xi", [0.28, 0.83])
def test_stopped_split_search_keeps_the_floor_verdict(energy_sweep, xi):
    # at minimize_energy's 16 scan radii, the split search that stops at
    # the floor says whether the best split meets it as the full one does
    net, comp, _, (r_lo, r_hi) = energy_sweep
    verdicts = []
    for radius in np.linspace(r_lo, r_hi, 16):
        full = _best_theta(net, comp, radius, THETA_GRID)
        stopped = _best_theta(net, comp, radius, THETA_GRID, stop=xi)
        verdicts.append(full[1] >= xi)
        assert (stopped[1] >= xi) == verdicts[-1], radius
    assert any(verdicts) and not all(verdicts)


def test_floor_search_stops_at_the_first_split_that_meets_it(monkeypatch,
                                                             energy_sweep):
    # the full split search at every radius asks secp_splits 406 times
    # at this floor
    module = sys.modules["cfedge.secp"]
    calls = []

    def counted(*args):
        calls.append(args)
        return secp_splits(*args)

    monkeypatch.setattr(module, "secp_splits", counted)
    net, comp, cfg, bounds = energy_sweep
    minimize_energy(net, comp, cfg, 0.28, r_bounds=bounds)
    assert 0 < len(calls) < 340


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_energy_does_not_fall_as_the_floor_rises(energy_sweep):
    # a tighter success floor cannot have a cheaper minimum; today's answer
    # falls from 5.48 J at 0.38 to 4.61 J at 0.48
    net, comp, cfg, bounds = energy_sweep
    energies = [minimize_energy(net, comp, cfg, xi, r_bounds=bounds)[2]
                .e_total for xi in (0.28, 0.33, 0.38, 0.43, 0.48)]
    assert all(b >= a for a, b in zip(energies, energies[1:])), energies


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_no_grid_point_beats_the_minimum(energy_sweep):
    # no point of an (R, theta) grid that meets the floor costs less than
    # the answer, beyond 0.01 J for the answer's own search stops; today's
    # answer is 5.41 J and the grid's best 0.504 J
    net, comp, cfg, bounds = energy_sweep
    xi = 0.28
    *_, answer = minimize_energy(net, comp, cfg, xi, r_bounds=bounds)
    thetas = [k / 10 for k in range(11)]
    feasible = []
    for radius in np.arange(10, 61, 2) / 1000.0:
        net_r = replace(net, coverage_radius=float(radius))
        for theta, point in zip(thetas, secp_splits(net_r, comp, thetas)):
            if isinstance(point, tuple) and point[0] >= xi:
                feasible.append(energy_breakdown(
                    net_r, replace(comp, offload_prob=theta), cfg).e_total)
    assert feasible
    assert min(feasible) >= answer.e_total - 0.01
