"""Per-task energy model and the constrained energy minimization.

Computation energy depends only on the offload split (it is affine in it);
communication energy depends only on the radius and antenna count and grows
with both. minimize_energy takes the smallest radius whose best split meets
a joint-success floor, then the cheapest split there that meets it. Whether
some split meets the floor at a radius is asked of a split search that
stops at the first split reaching it (search.maximize's stop), which gives
the full search's answer. That is not the least total energy under the
floor when computation energy dominates: a slightly larger radius can let
a cheaper split meet the floor at a fraction of the cost. ROADMAP.md
tracks this gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import search
# Direct submodule import: the package attribute `secp` is the function
# of the same name once cfedge/__init__ has run.
from .secp import THETA_GRID, _split_scorer
from .secp import _best_theta as _secp_best_theta
from .secp import find_r_threshold as _secp_find_r_threshold
from .errors import InfeasibilityError
from .model import (ComputeConfig, NetworkConfig, check_numbers,
                    mean_connected_aps)

# ----------------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyConfig:
    bandwidth_hz: float = 1e6
    task_bits_ul: float = 0.5e6      # uplink task size
    task_bits_dl: float = 0.05e6     # downlink result size
    p_rf_ap: float = 0.01            # RF chain power per AP antenna [W]
    p_rf_user: float = 0.01          # RF chain power at the user [W]
    p_oscillator: float = 2.0        # local oscillator power [W]
    p_coding_w_per_gbps: float = 0.1     # channel coding power [W/(Gbit/s)]
    p_decoding_w_per_gbps: float = 0.8   # channel decoding power [W/(Gbit/s)]
    p_tx_user: float = 0.1           # user transmit power [W]
    p_tx_ap: float = 1.181           # AP transmit power [W]
    p_fixed_user: float = 0.1        # fixed user-side power [W]
    p_fixed_ap: float = 5.0          # fixed AP-side power [W]
    pa_efficiency: float = 0.39      # power amplifier efficiency, in (0, 1]
    energy_per_op: float = 1e-9      # energy per complex operation [J]
    f_cs_hz: tuple = (4e9, 5e9)      # central-server clock per task type
    f_mec_hz: tuple = (1e9, 3.4e9)   # edge-server clock per task type
    kappa_c: float = 1e-26           # central-server switching energy [J/cycle]
    kappa_m: float = 1e-27           # edge-server switching energy [J/cycle]
    cycles_per_bit: float = 330.0
    delta: float = 3.0               # power-frequency exponent

    def __post_init__(self):
        check_numbers(self, ("f_cs_hz", "f_mec_hz"))
        if len(self.f_cs_hz) != len(self.f_mec_hz):
            raise ValueError("f_cs_hz and f_mec_hz must have equal length")
        positives = (self.bandwidth_hz, self.task_bits_ul, self.task_bits_dl,
                     self.p_tx_user, self.p_tx_ap, self.cycles_per_bit,
                     self.kappa_c, self.kappa_m, self.delta)
        if any(v <= 0 for v in positives):
            raise ValueError("bandwidth, task sizes, transmit powers, cycle "
                             "and energy constants must be positive")
        for name in ("p_rf_ap", "p_rf_user", "p_oscillator",
                     "p_coding_w_per_gbps", "p_decoding_w_per_gbps",
                     "p_fixed_user", "p_fixed_ap", "energy_per_op"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        if any(f <= 0 for f in self.f_cs_hz + self.f_mec_hz):
            raise ValueError("clock frequencies must be positive")
        if not 0.0 < self.pa_efficiency <= 1.0:
            raise ValueError("pa_efficiency must lie in (0, 1]")

    @property
    def pa_inverse_efficiency(self) -> float:
        return 1.0 / self.pa_efficiency


def service_rates(cfg: EnergyConfig) -> tuple:
    """Per-type service rates implied by the clocks: 8 f / (cycles_per_bit L_u).

    Returns (central rates, edge rates) in tasks/s.
    """
    denom = cfg.cycles_per_bit * cfg.task_bits_ul
    mu_c = tuple(8.0 * f / denom for f in cfg.f_cs_hz)
    mu_m = tuple(8.0 * f / denom for f in cfg.f_mec_hz)
    return mu_c, mu_m


@dataclass(frozen=True)
class EnergyBreakdown:
    e_comp: float    # per-task computation energy [J]
    e_comm: float    # per-task communication energy [J]
    e_total: float
    p_ul: float      # uplink power draw [W]
    p_dl: float      # downlink power draw [W]
    t_ul: float      # uplink transmission time [s]
    t_dl: float      # downlink transmission time [s]


# ----------------------------------------------------------------------------
# energy terms
# ----------------------------------------------------------------------------


def computation_energy(comp: ComputeConfig, cfg: EnergyConfig) -> float:
    """Expected per-task computation energy, affine in the offload split."""
    if len(cfg.f_cs_hz) != comp.num_types:
        raise ValueError("energy clocks and compute types disagree in length")
    cs = sum(p * f ** cfg.delta / mu
             for p, f, mu in zip(comp.type_probs, cfg.f_cs_hz, comp.mu_c))
    mec = sum(p * f ** cfg.delta / mu
              for p, f, mu in zip(comp.type_probs, cfg.f_mec_hz, comp.mu_m))
    theta = comp.offload_prob
    return theta * cfg.kappa_c * cs + (1.0 - theta) * cfg.kappa_m * mec


def theta_energy_slope(comp: ComputeConfig, cfg: EnergyConfig) -> float:
    """d(computation energy)/d(offload split); positive favors small splits."""
    base = computation_energy(replace(comp, offload_prob=0.0), cfg)
    top = computation_energy(replace(comp, offload_prob=1.0), cfg)
    return top - base


@dataclass(frozen=True)
class CommunicationEnergy:
    p_ul: float
    p_dl: float
    t_ul: float
    t_dl: float
    e_comm: float


def communication_energy(net: NetworkConfig, cfg: EnergyConfig) -> CommunicationEnergy:
    """Per-task transmission energy from the power draws and airtimes."""
    nu = mean_connected_aps(net)
    M = net.antennas_per_ap
    B = cfg.bandwidth_hz
    r_u = math.log2(1.0 + net.sir_threshold_ul)
    r_d = math.log2(1.0 + net.sir_threshold_dl)
    per_gbps_ul = B * r_u / 1e9
    per_gbps_dl = B * r_d / 1e9
    front_end = M * (cfg.p_rf_ap + 2.0 * cfg.energy_per_op * B)
    p_ul = nu * (front_end + per_gbps_ul * cfg.p_decoding_w_per_gbps) \
        + cfg.p_fixed_user + cfg.p_rf_user \
        + per_gbps_ul * cfg.p_coding_w_per_gbps \
        + cfg.p_tx_user * cfg.pa_inverse_efficiency
    p_dl = nu * (cfg.pa_inverse_efficiency * cfg.p_tx_ap + cfg.p_fixed_ap
                 + cfg.p_oscillator + front_end
                 + per_gbps_dl * cfg.p_coding_w_per_gbps) \
        + per_gbps_dl * cfg.p_decoding_w_per_gbps + cfg.p_rf_user
    t_ul = cfg.task_bits_ul / (r_u * B)
    t_dl = cfg.task_bits_dl / (r_d * B)
    return CommunicationEnergy(p_ul=p_ul, p_dl=p_dl, t_ul=t_ul, t_dl=t_dl,
                               e_comm=p_ul * t_ul + p_dl * t_dl)


def energy_breakdown(net: NetworkConfig, comp: ComputeConfig,
                     cfg: EnergyConfig) -> EnergyBreakdown:
    ce = communication_energy(net, cfg)
    ec = computation_energy(comp, cfg)
    return EnergyBreakdown(e_comp=ec, e_comm=ce.e_comm, e_total=ec + ce.e_comm,
                           p_ul=ce.p_ul, p_dl=ce.p_dl, t_ul=ce.t_ul, t_dl=ce.t_dl)


# ----------------------------------------------------------------------------
# constrained minimization
# ----------------------------------------------------------------------------


def minimize_energy(net: NetworkConfig, comp: ComputeConfig, cfg: EnergyConfig,
                    xi: float,
                    r_bounds: tuple = (0.005, 0.3)):
    """Per-task energy at the smallest radius whose best split meets the
    joint success floor xi, and the cheapest split there that meets it.

    Scans 16 radii across r_bounds for the first where some split meets
    xi, then bisects down to it. Each radius runs the split search with
    xi as its stop, so it ends at the first split that meets the floor;
    one full split search at the radius found gives the best split, from
    which the cheapest feasible one is walked to. Not the least energy
    under the floor where a larger radius lets a cheaper split meet it
    (see the module docstring). Returns (radius, split, EnergyBreakdown).
    Raises an infeasibility error naming the best achievable success level
    when the floor cannot be met.
    """
    if not 0.0 < xi < 1.0:
        raise ValueError("xi must lie strictly between 0 and 1")
    r_lo, r_hi = float(r_bounds[0]), float(r_bounds[1])
    if not 0.0 < r_lo < r_hi:
        raise ValueError("need 0 < r_lo < r_hi")

    def meets_floor(R: float) -> bool:
        # exact: the split search stops early only once a split meets xi
        best = _secp_best_theta(net, comp, R, THETA_GRID, stop=xi)
        return best is not None and best[1] >= xi

    scan = [float(R) for R in np.linspace(r_lo, r_hi, 16)]
    first = next((i for i, R in enumerate(scan) if meets_floor(R)), None)
    if first is None:
        best_r, best_th, best_val = _secp_find_r_threshold(
            net, comp, (r_lo, r_hi), THETA_GRID)
        raise InfeasibilityError(
            f"success floor {xi} unreachable: best achievable is "
            f"{best_val:.4f} at R = {best_r * 1000:.1f} m, split = {best_th:.3f}")
    r_star = scan[first]
    if first > 0:
        # run the bracket down to ~1 um: at a looser stop the feasible split
        # interval at R* is sqrt-wide and the chosen endpoint jitters enough
        # to put visible noise on the energy frontier
        r_star = search.bisect(meets_floor, r_star, scan[first - 1], 1e-9)

    net_star = replace(net, coverage_radius=r_star)
    theta_peak, _ = _secp_best_theta(net, comp, r_star, THETA_GRID)
    theta_star = _cheapest_feasible_theta(
        _split_scorer(net_star, comp), xi, theta_peak,
        theta_energy_slope(comp, cfg))
    comp_star = replace(comp, offload_prob=theta_star)
    return r_star, theta_star, energy_breakdown(net_star, comp_star, cfg)


def _cheapest_feasible_theta(secp_at, xi, theta_peak, slope) -> float:
    # The feasible splits form an interval around the peak (the objective is
    # unimodal in the split); energy is affine in the split, so the cheaper
    # feasible endpoint wins. Walk THETA_GRID's spacing outward from the
    # peak in the cheaper direction, then bisect the boundary. secp_at maps
    # a list of splits to their values, None where a split is infeasible.
    # theta_peak must meet xi, as _best_theta's split at the same network.
    direction = -1.0 if slope >= 0.0 else 1.0   # -1: smaller split is cheaper
    step = THETA_GRID[1] - THETA_GRID[0]

    def feasible(theta: float) -> bool:
        v, = secp_at([theta])
        return v is not None and v >= xi

    outer = float(theta_peak)
    while True:
        probe = min(1.0, max(0.0, outer + direction * step))
        if not feasible(probe):
            break
        if probe in (0.0, 1.0):
            return probe
        outer = probe
    return search.bisect(feasible, outer, probe, 1e-5)
