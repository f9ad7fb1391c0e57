"""Monte Carlo oracles for the analytic layers.

Spatial simulations draw Poisson fields in a finite window sized so that
the truncated far-field contributes a negligible fraction of the mean
interference, with counter-based per-replication random streams. The
queueing simulation is a discrete-event model of one central FIFO queue
plus a group of edge FIFO queues fed by minimum-load dispatch.
"""

from __future__ import annotations

import csv
import heapq
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import comm
from .errors import StabilityError
from .model import ComputeConfig, NetworkConfig, mean_connected_aps, pathloss
from .offload import arrival_rates

# ----------------------------------------------------------------------------
# scenario geometry
# ----------------------------------------------------------------------------


def default_guard(net: NetworkConfig, rel_tail: float = 1e-4) -> float:
    """Distance beyond which the truncated far field contributes less than
    rel_tail of the mean interference (Campbell tail of the pathloss)."""
    a = net.alpha
    return net.d0 * (2.0 / (a * rel_tail)) ** (1.0 / (a - 2.0))


@dataclass(frozen=True)
class SpatialScenario:
    half_width: float       # simulated square is [-half_width, half_width]^2 [km]
    guard: float            # far-field truncation margin [km]
    replications: int
    seed: int

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.half_width <= 0 or self.guard < 0:
            raise ValueError("window and guard must be positive")

    @classmethod
    def for_network(cls, net: NetworkConfig, replications: int, seed: int,
                    rel_tail: float = 1e-4) -> "SpatialScenario":
        guard = default_guard(net, rel_tail)
        return cls(half_width=4.0 * net.coverage_radius + guard, guard=guard,
                   replications=replications, seed=seed)


def _check_window(net: NetworkConfig, scenario: SpatialScenario) -> None:
    need = 4.0 * net.coverage_radius + scenario.guard
    if scenario.half_width + 1e-12 < need:
        raise ValueError(
            f"window half-width {scenario.half_width} km below the required "
            f"4 R + guard = {need} km")


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    # counter-based stream: key from the run seed, counter from the
    # replication index, so any replication is reproducible in isolation
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    counter = np.array([0, 0, 0, rep], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


# ----------------------------------------------------------------------------
# uplink outage
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class UplinkSample:
    estimate: float       # outage frequency
    stderr: float
    ap_count_mean: float  # mean connected APs over replications
    ap_count_se: float

    def __iter__(self):
        return iter((self.estimate, self.stderr))


def simulate_uplink_outage(net: NetworkConfig,
                           scenario: SpatialScenario) -> UplinkSample:
    """Outage frequency of best-AP uplink decoding over spatial replications."""
    _check_window(net, scenario)
    R = net.coverage_radius
    W = scenario.half_width
    nu = mean_connected_aps(net)
    gamma_th = net.sir_threshold_ul
    M = net.antennas_per_ap
    user_mean = net.lambda_d * (2.0 * W) ** 2
    outages = 0
    ap_counts = np.empty(scenario.replications)
    for rep in range(scenario.replications):
        rng = _rep_rng(scenario.seed, rep)
        n_ap = rng.poisson(nu)
        ap_counts[rep] = n_ap
        if n_ap == 0:
            outages += 1
            continue
        ap_r = R * np.sqrt(rng.random(n_ap))
        ap_phi = 2.0 * math.pi * rng.random(n_ap)
        ap_xy = np.column_stack((ap_r * np.cos(ap_phi), ap_r * np.sin(ap_phi)))
        n_u = rng.poisson(user_mean)
        if n_u == 0:
            continue   # no interference, any AP succeeds
        u_xy = rng.uniform(-W, W, size=(n_u, 2))
        d = np.sqrt(((ap_xy[:, None, :] - u_xy[None, :, :]) ** 2).sum(axis=2))
        interference = (rng.exponential(size=(n_ap, n_u))
                        * pathloss(d, net)).sum(axis=1)
        signal = rng.gamma(M, size=n_ap) * pathloss(ap_r, net)
        with np.errstate(divide="ignore"):
            sir = np.where(interference > 0.0, signal / interference, np.inf)
        if not np.any(sir >= gamma_th):
            outages += 1
    n = scenario.replications
    p = outages / n
    se = math.sqrt(max(p * (1.0 - p), 1e-300) / n)
    return UplinkSample(estimate=p, stderr=se,
                        ap_count_mean=float(ap_counts.mean()),
                        ap_count_se=float(ap_counts.std(ddof=1) / math.sqrt(n))
                        if n > 1 else 0.0)


# ----------------------------------------------------------------------------
# downlink SIR and interference moments
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class DownlinkSample:
    outage: float
    outage_se: float
    i_mean: float
    i_mean_se: float
    i_var: float
    i_var_se: float

    def __iter__(self):
        return iter((self.outage, self.i_mean, self.i_var))


def simulate_downlink_sir(net: NetworkConfig, scenario: SpatialScenario,
                          beam_placement: str = "per_user") -> DownlinkSample:
    """Downlink outage and beam-interference moments at the typical user.

    beam_placement "per_user" serves the drawn user field (beams cluster at
    serving APs); "independent" scatters beams as their own Poisson field,
    which is the regime where the Gamma moment formulas are exact.
    """
    if beam_placement not in ("per_user", "independent"):
        raise ValueError("beam_placement must be 'per_user' or 'independent'")
    _check_window(net, scenario)
    R = net.coverage_radius
    W = scenario.half_width
    nu = mean_connected_aps(net)
    gamma_th = net.sir_threshold_dl
    M = net.antennas_per_ap
    ap_mean = net.lambda_b * (2.0 * W) ** 2
    beams_per_ap = net.lambda_d * math.pi * R ** 2
    Wu = W + R
    user_mean = net.lambda_d * (2.0 * Wu) ** 2

    n = scenario.replications
    sig = np.empty(n)
    intf = np.empty(n)
    for rep in range(n):
        rng = _rep_rng(scenario.seed, rep)
        # aggregate desired signal from connected APs
        n_con = rng.poisson(nu)
        if n_con > 0:
            r_con = R * np.sqrt(rng.random(n_con))
            sig[rep] = float((rng.gamma(M, size=n_con)
                              * pathloss(r_con, net)).sum())
        else:
            sig[rep] = 0.0
        # interference beams over the full AP window
        if beam_placement == "per_user":
            n_ap = rng.poisson(ap_mean)
            if n_ap == 0:
                intf[rep] = 0.0
                continue
            ap_xy = rng.uniform(-W, W, size=(n_ap, 2))
            ell = pathloss(np.sqrt((ap_xy ** 2).sum(axis=1)), net)
            n_u = rng.poisson(user_mean)
            if n_u == 0:
                intf[rep] = 0.0
                continue
            u_xy = rng.uniform(-Wu, Wu, size=(n_u, 2))
            counts = cKDTree(u_xy).query_ball_point(ap_xy, r=R,
                                                    return_length=True)
            intf[rep] = float((rng.gamma(counts.astype(float)) * ell).sum())
        else:
            # One Poisson field of beams, each at its own location with an
            # Exp(1) gain. Keeping the beams of one AP collocated instead
            # would add a cross-beam term (factor 1 + beams_per_ap/2) to
            # the variance that the moment formulas do not carry.
            n_beam = rng.poisson(ap_mean * beams_per_ap)
            if n_beam == 0:
                intf[rep] = 0.0
                continue
            b_xy = rng.uniform(-W, W, size=(n_beam, 2))
            ell_b = pathloss(np.sqrt((b_xy ** 2).sum(axis=1)), net)
            intf[rep] = float((rng.exponential(size=n_beam) * ell_b).sum())

    out = (sig < gamma_th * intf) | (sig == 0.0)
    p = float(out.mean())
    p_se = math.sqrt(max(p * (1.0 - p), 1e-300) / n)
    i_mean = float(intf.mean())
    i_mean_se = float(intf.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    i_var = float(intf.var(ddof=1)) if n > 1 else 0.0
    if n > 3:
        centered = intf - i_mean
        m4 = float((centered ** 4).mean())
        i_var_se = math.sqrt(max(m4 - i_var ** 2, 0.0) / n)
    else:
        i_var_se = 0.0
    return DownlinkSample(outage=p, outage_se=p_se, i_mean=i_mean,
                          i_mean_se=i_mean_se, i_var=i_var, i_var_se=i_var_se)


# ----------------------------------------------------------------------------
# queueing simulation
# ----------------------------------------------------------------------------


@dataclass
class EventLog:
    """Arrival-stamped record of a queueing run.

    Server id 0 is the central server; ids 1..n_servers are edge servers.
    queue_len_seen is the number in system (including in service) the task
    found on arrival. sojourn_s is NaN for tasks still in service when the
    run was cut off.
    """

    arrival_s: np.ndarray
    server_id: np.ndarray
    queue_len_seen: np.ndarray
    sojourn_s: np.ndarray
    type_idx: np.ndarray
    n_servers: int
    duration: float
    warmup_fraction: float = 0.1
    extras: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.arrival_s)

    def analysis_mask(self, server_id: int | None = None) -> np.ndarray:
        """Post-warmup completed records, optionally for one server."""
        n_warm = int(self.warmup_fraction * len(self))
        mask = np.zeros(len(self), dtype=bool)
        mask[n_warm:] = True
        mask &= ~np.isnan(self.sojourn_s)
        if server_id is not None:
            mask &= self.server_id == server_id
        return mask

    def queue_length_pmf(self, server_id: int | None = None) -> np.ndarray:
        """Arrival-seen queue length frequencies (PASTA sampling)."""
        seen = self.queue_len_seen[self.analysis_mask(server_id)]
        if len(seen) == 0:
            return np.zeros(0)
        return np.bincount(seen) / len(seen)

    def sojourn_cdf(self, t: float, server_id: int | None = None,
                    mec_only: bool = False) -> float:
        mask = self.analysis_mask(server_id)
        if mec_only:
            mask &= self.server_id >= 1
        vals = self.sojourn_s[mask]
        if len(vals) == 0:
            return float("nan")
        return float((vals <= t).mean())

    def littles_law_summary(self, server_id: int) -> dict:
        """Arrival-seen mean occupancy vs arrival rate times mean sojourn."""
        mask = self.analysis_mask(server_id)
        arrivals = self.arrival_s[mask]
        if len(arrivals) < 2:
            return {"n": int(mask.sum())}
        span = float(arrivals[-1] - arrivals[0])
        lam = (len(arrivals) - 1) / span if span > 0 else float("nan")
        w = self.sojourn_s[mask]
        seen = self.queue_len_seen[mask]
        return {
            "n": len(arrivals),
            "l_seen": float(seen.mean()),
            "l_seen_se": float(seen.std(ddof=1) / math.sqrt(len(seen))),
            "lambda_hat": lam,
            "mean_sojourn": float(w.mean()),
            "sojourn_se": float(w.std(ddof=1) / math.sqrt(len(w))),
        }

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["arrival_s", "server_id", "queue_len_seen",
                             "sojourn_s", "type_idx"])
            for i in range(len(self)):
                writer.writerow([repr(float(self.arrival_s[i])),
                                 int(self.server_id[i]),
                                 int(self.queue_len_seen[i]),
                                 repr(float(self.sojourn_s[i])),
                                 int(self.type_idx[i])])


_MAX_QUEUE = 1_000_000


def _type_sampler(rng: np.random.Generator, probs):
    """A draw of a task type index: the value and stream use of
    rng.choice(len(probs), p=probs), with the CDF computed once."""
    cdf = np.asarray(probs, dtype=float).cumsum()
    cdf /= cdf[-1]
    return lambda: int(cdf.searchsorted(rng.random(), side="right"))


def simulate_mlcm(net: NetworkConfig, comp: ComputeConfig, duration: float,
                  seed: int, n_mec: int | None = None,
                  p_oul: float | None = None) -> EventLog:
    """Discrete-event run of the central queue plus an edge-server group.

    The central stream carries the network-wide rate; the edge group
    carries its per-server rate times the group size, dispatched to the
    least-loaded member (ties uniform), so each edge server sees the
    analytic per-server arrival rate. Arrivals stop at `duration`; queued
    work is drained so every admitted task gets a sojourn.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if p_oul is None:
        p_oul = comm.uplink_outage(net)
    rates = arrival_rates(net, comp, p_oul)
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed & 0xFFFFFFFFFFFFFFFF, 1], dtype=np.uint64)))
    if n_mec is None:
        nu = mean_connected_aps(net)
        n_mec = 0
        while n_mec == 0:
            n_mec = int(rng.poisson(nu)) if nu > 0 else 1
    if n_mec < 0:
        raise ValueError("n_mec cannot be negative")

    lam_cs = rates.lambda_c
    lam_group = rates.lambda_m * n_mec
    lam_total = lam_cs + lam_group
    p_cs = lam_cs / lam_total if lam_total > 0 else 0.0
    draw_type = _type_sampler(rng, comp.type_probs)

    arrival_t: list[float] = []
    server_ids: list[int] = []
    seen: list[int] = []
    types: list[int] = []
    sojourns: list[float] = []
    # Edge-queue lengths observed by every admitted arrival. The merged
    # arrival stream is Poisson, so these snapshots sample the stationary
    # state without the selection bias of `seen` (dispatch picks the
    # minimum, so chosen-server lengths are biased low).
    snapshots: list[list[int]] = []

    n_servers = 1 + n_mec
    in_system = [0] * n_servers
    queues = [deque() for _ in range(n_servers)]
    heap: list[tuple] = []
    seq = 0

    def service_time(server: int, type_i: int) -> float:
        mu = comp.mu_c[type_i] if server == 0 else comp.mu_m[type_i]
        return rng.exponential(1.0 / mu)

    def start_service(server: int, task: int, now: float) -> None:
        nonlocal seq
        seq += 1
        heapq.heappush(heap, (now + service_time(server, types[task]), seq,
                              "done", server, task))

    if lam_total > 0:
        seq += 1
        heapq.heappush(heap, (rng.exponential(1.0 / lam_total), seq,
                              "arrival", -1, -1))
    while heap:
        now, _, kind, server, task = heapq.heappop(heap)
        if kind == "arrival":
            if now > duration:
                continue   # stop generating; completions drain the queues
            if rng.random() < p_cs:
                server = 0
            else:
                loads = in_system[1:]
                low = min(loads)
                choices = [i + 1 for i, l in enumerate(loads) if l == low]
                server = choices[rng.integers(len(choices))] \
                    if len(choices) > 1 else choices[0]
            task = len(arrival_t)
            arrival_t.append(now)
            server_ids.append(server)
            seen.append(in_system[server])
            snapshots.append(list(in_system[1:]))
            types.append(draw_type())
            sojourns.append(math.nan)
            if in_system[server] == 0:
                start_service(server, task, now)
            else:
                queues[server].append(task)
            in_system[server] += 1
            if in_system[server] > _MAX_QUEUE:
                raise StabilityError(
                    f"server {server} queue exceeded {_MAX_QUEUE} tasks")
            seq += 1
            heapq.heappush(heap, (now + rng.exponential(1.0 / lam_total), seq,
                                  "arrival", -1, -1))
        else:
            sojourns[task] = now - arrival_t[task]
            in_system[server] -= 1
            if queues[server]:
                start_service(server, queues[server].popleft(), now)

    return EventLog(
        arrival_s=np.asarray(arrival_t),
        server_id=np.asarray(server_ids, dtype=np.int64),
        queue_len_seen=np.asarray(seen, dtype=np.int64),
        sojourn_s=np.asarray(sojourns),
        type_idx=np.asarray(types, dtype=np.int64),
        n_servers=n_servers,
        duration=duration,
        extras={"n_mec": n_mec, "lambda_c": lam_cs,
                "lambda_m": rates.lambda_m, "p_oul": p_oul,
                "mec_queue_snapshot": np.asarray(snapshots,
                                                 dtype=np.int64).reshape(
                                                     len(arrival_t), n_mec)},
    )
