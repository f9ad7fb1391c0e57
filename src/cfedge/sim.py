"""Monte Carlo oracles for the analytic layers.

Spatial simulations draw Poisson fields in a finite window sized so that the
truncated far field contributes a negligible fraction of the mean
interference. Replications are drawn a block at a time from counter-based
streams: the Philox key is (run seed, simulator) and the counter is the
block index. A block's length depends only on the network and the window,
and the blocks, drawn by forked processes (`forked`, one per usable CPU),
are joined in block order, so reruns are byte-identical at any CPU count and
a longer run starts with the blocks of a shorter one. `forked` is the one
fork path: `cfedge run` maps its units of work through it too, in at most
--workers processes. Each block reuses the heap pages the last one freed
(see the package docstring). A spatial run samples strictly increasing
radii from one drop at the largest, thinned to each smaller radius, so its
sample at the largest radius is that of a run at that radius alone. The
queueing simulation runs one central FIFO queue plus a group of edge FIFO
queues fed by minimum-load dispatch, drawing its task stream a chunk at a
time.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import threading
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .errors import StabilityError
from .model import ComputeConfig, NetworkConfig, mean_connected_aps, pathloss
from .offload import arrival_rates

# ----------------------------------------------------------------------------
# scenario geometry
# ----------------------------------------------------------------------------


# Share of the mean interference the truncated far field may leave out.
_FAR_FIELD_SHARE = 1e-4


def default_guard(net: NetworkConfig) -> float:
    """Distance beyond which the truncated far field contributes less than
    _FAR_FIELD_SHARE of the mean interference (Campbell tail of the
    pathloss)."""
    a = net.alpha
    return net.d0 * (2.0 / (a * _FAR_FIELD_SHARE)) ** (1.0 / (a - 2.0))


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
    def for_network(cls, net: NetworkConfig, replications: int,
                    seed: int) -> "SpatialScenario":
        guard = default_guard(net)
        return cls(half_width=4.0 * net.coverage_radius + guard, guard=guard,
                   replications=replications, seed=seed)


def _sweep(net: NetworkConfig, scenario: SpatialScenario, radii) -> tuple:
    """The network at the largest of the radii and the radii as an array;
    ValueError unless they increase strictly and the window fits."""
    radii = np.array((net.coverage_radius,) if radii is None else radii,
                     dtype=float, ndmin=1)
    if len(radii) == 0 or np.any(np.diff(radii) <= 0.0):
        raise ValueError("radii must be strictly increasing")
    net = replace(net, coverage_radius=float(radii[-1]))
    need = 4.0 * net.coverage_radius + scenario.guard
    if scenario.half_width + 1e-12 < need:
        raise ValueError(f"window half-width {scenario.half_width} km below "
                         f"4 R + guard = {need} km")
    return net, radii


# ----------------------------------------------------------------------------
# replication blocks
# ----------------------------------------------------------------------------

# Expected elements (per-replication counts, points, index cells and
# candidate pairs) of one block: keeps block temporaries to a few MB.
_BLOCK_ELEMENTS = 2 ** 15
# Expected elements of one replication above which a run fails before it
# draws: a replication is never split across blocks, and one this large
# would not fit in memory. The largest any preset, test or benchmark
# workload reaches is 2.2e5 (scmp-sweep-m1, per_user at 200 m).
_REPLICATION_ELEMENTS = 2 ** 22

# Philox key word 1 of each spatial simulator; the DES uses 1.
_UPLINK, _DOWNLINK_PER_USER, _DOWNLINK_INDEPENDENT = 2, 3, 4


def _block_rng(seed: int, stream: int, block: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream], dtype=np.uint64)
    counter = np.array([0, 0, 0, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def forked(fn, count: int, n: int) -> list:
    """[fn(i) for i in range(count)]. Item i falls to share i % k, k being
    the least of n, count and the usable CPUs, so no share is empty, and 1
    without os.fork or while a second thread is alive. A forked child
    computes each share but 0 and pipes its items back, or nothing if it
    raises or dies; the caller computes share 0 up to its first failing
    item, then, in item order, each item before that one which no child
    delivered. So an Exception raised is that of the first failing item,
    and with k = 1 no item is computed twice. Each write end is closed
    before the next fork; every child is reaped."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    k = (min(n, count, cpus) if hasattr(os, "fork") and count > 1
         and threading.active_count() == 1 else 1)
    children = {}
    try:
        for j in range(1, k):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    os.write(w, pickle.dumps(
                        {i: fn(i) for i in range(j, count, k)}))
                finally:
                    os._exit(0)
            os.close(w)
            children[pid] = open(r, "rb")
        done, failed = {}, count
        for i in range(0, count, k):
            try:
                done[i] = fn(i)
            except Exception as exc:
                failed, error = i, exc
                break
        # no child item precedes item 0; a failed child sent a cut pickle
        for pipe in children.values() if failed else ():
            with contextlib.suppress(EOFError, pickle.UnpicklingError):
                done.update(pickle.loads(pipe.read()))
        got = [done[i] if i in done else fn(i) for i in range(failed)]
        if failed < count:
            raise error
        return got
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _replicate(scenario: SpatialScenario, stream: int, per_rep: float,
               draw) -> list:
    """Per-replication outcome arrays of a run, drawn by `draw(rng, n)` a
    block at a time. A block holds _BLOCK_ELEMENTS // per_rep replications
    (at least one), per_rep being the expected elements of one; only the
    last block of a run may be shorter. The blocks are mapped by `forked`,
    at most one process per block; joined in block order, the arrays are
    the same at any CPU count.
    ValueError if per_rep exceeds _REPLICATION_ELEMENTS. Each block reuses
    the heap pages the last one freed: see the package docstring."""
    if per_rep > _REPLICATION_ELEMENTS:
        raise ValueError(f"one replication expects {per_rep:.3g} elements, "
                         f"above the {_REPLICATION_ELEMENTS} a drop may hold")
    size = max(1, int(_BLOCK_ELEMENTS // per_rep))
    count = -(-scenario.replications // size)
    blocks = forked(lambda b: draw(_block_rng(scenario.seed, stream, b), min(
        size, scenario.replications - b * size)), count, count)
    return [np.concatenate(column) for column in zip(*blocks)]


def _frequency(flags: np.ndarray) -> tuple:
    """Share of the replications flagged, and its standard error."""
    p = float(flags.mean())
    return p, math.sqrt(max(p * (1.0 - p), 1e-300) / len(flags))


def _mean(values: np.ndarray) -> tuple:
    """Mean over the replications, and its standard error."""
    n = len(values)
    return (float(values.mean()),
            float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0)


def _owner(counts: np.ndarray) -> np.ndarray:
    """Index of the run each flat element belongs to, for runs of
    counts[k] consecutive elements."""
    return np.repeat(np.arange(len(counts)), counts)


def _sums(owner: np.ndarray, weights: list, n: int) -> np.ndarray:
    """Sums over each of n runs, one column per array of weights. Each
    array is summed in element order, whatever the other arrays."""
    return np.column_stack([np.bincount(owner, w, minlength=n)
                            for w in weights])


def _ring_counts(owner, value, bounds, n: int) -> np.ndarray:
    """Elements of each of n runs at most each increasing bound, run-major."""
    k = len(bounds) + 1
    key = owner * k
    for b in bounds:
        key += value > b
    return np.bincount(key, minlength=n * k).reshape(n, k).cumsum(1)[:, :-1]


def _neighbour_counts(ap_xy: np.ndarray, n_ap: np.ndarray, u_xy: np.ndarray,
                      n_u: np.ndarray, radii: np.ndarray,
                      half_width: float) -> np.ndarray:
    """Users within each of the increasing radii (inclusive) of each AP, in
    its replication: one row per radius, one column per AP.

    The points of replication k are the n_ap[k] (n_u[k]) consecutive rows
    of ap_xy (u_xy), all inside [-half_width, half_width]^2. Users are
    keyed by (replication, column, row) in a dense index of square cells
    as wide as the largest radius, padded by one cell on each side so the
    3x3 cells around any AP stay in its replication. The three cells of a
    column are adjacent in key order, so each AP scans three runs of users.
    """
    n = len(n_u)
    # A hair above the radius, so that rounding in the cell arithmetic can
    # never put a pair within the radius two cells apart.
    side = radii[-1] * (1.0 + 1e-9)
    cells = int(2.0 * half_width / side) + 3

    def cell(xy):
        return np.floor((xy + half_width) / side).astype(np.int64) + 1

    u_cell = cell(u_xy)
    u_key = (_owner(n_u) * cells + u_cell[:, 0]) * cells + u_cell[:, 1]
    order = np.argsort(u_key, kind="stable")
    ux, uy = u_xy[order, 0], u_xy[order, 1]
    start = np.zeros(n * cells * cells + 1, dtype=np.int64)
    np.cumsum(np.bincount(u_key, minlength=n * cells * cells), out=start[1:])

    # bottom cell of the three columns around each AP, AP-major
    a_cell = cell(ap_xy)
    column = _owner(n_ap) * cells + a_cell[:, 0]
    first = ((column[:, None] + np.arange(-1, 2)) * cells
             + (a_cell[:, 1] - 1)[:, None]).ravel()
    lo = start[first]
    length = start[first + 3] - lo
    per_ap = length.reshape(-1, 3).sum(axis=1)
    # squared pair distances, AP-major, in place: the same bits as fresh
    # arrays, with fewer pair-length arrays allocated and written
    cand = np.repeat(lo - (np.cumsum(length) - length), length)
    cand += np.arange(len(cand))
    d2, dy = ux[cand], uy[cand]
    del cand
    d2 -= np.repeat(ap_xy[:, 0], per_ap)
    dy -= np.repeat(ap_xy[:, 1], per_ap)
    d2 *= d2
    d2 += np.square(dy, out=dy)
    del dy
    return _ring_counts(_owner(per_ap), d2, radii * radii, len(ap_xy)).T


# ----------------------------------------------------------------------------
# uplink outage
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class UplinkSample:
    estimate: float       # outage frequency
    stderr: float
    ap_count_mean: float  # mean connected APs over replications
    ap_count_se: float


def _uplink_block(net: NetworkConfig, W: float, radii: np.ndarray,
                  rng: np.random.Generator, n: int):
    """Outage flags and connected-AP counts of n replications, one column
    per radius. Every AP in the largest disc is tried against one
    interferer field per replication, so a replication is an outage at R
    when no AP within R decodes. An AP with no interference decodes."""
    R = net.coverage_radius
    n_ap = rng.poisson(mean_connected_aps(net), n)
    n_u = rng.poisson(net.lambda_d * (2.0 * W) ** 2, n)
    ap_rep = _owner(n_ap)
    ap_r = R * np.sqrt(rng.random(len(ap_rep)))
    ap_phi = 2.0 * math.pi * rng.random(len(ap_rep))
    u_xy = rng.uniform(-W, W, size=(int(n_u.sum()), 2))
    # every (AP, user) pair of each replication, AP-major: the j-th pair of
    # an AP in replication k holds user u_first[k] + j
    per_ap = n_u[ap_rep]
    pair_ap = _owner(per_ap)
    u_first = np.cumsum(n_u) - n_u
    pair_first = np.cumsum(per_ap) - per_ap
    pair_u = np.arange(len(pair_ap)) + np.repeat(u_first[ap_rep] - pair_first,
                                                 per_ap)
    dx = (ap_r * np.cos(ap_phi))[pair_ap] - u_xy[pair_u, 0]
    dy = (ap_r * np.sin(ap_phi))[pair_ap] - u_xy[pair_u, 1]
    gains = rng.exponential(size=len(pair_ap))
    interference = np.bincount(
        pair_ap, weights=gains * pathloss(np.sqrt(dx * dx + dy * dy), net),
        minlength=len(ap_rep))
    signal = rng.gamma(net.antennas_per_ap, size=len(ap_rep)) \
        * pathloss(ap_r, net)
    decoded = signal >= net.sir_threshold_ul * interference
    return (_ring_counts(ap_rep[decoded], ap_r[decoded], radii, n) == 0,
            _ring_counts(ap_rep, ap_r, radii, n))


def simulate_uplink_outage(net: NetworkConfig, scenario: SpatialScenario,
                           radii=None) -> tuple:
    """Outage frequency of best-AP uplink decoding over spatial
    replications, one sample per radius."""
    net, radii = _sweep(net, scenario, radii)
    W = scenario.half_width
    nu = mean_connected_aps(net)
    users = net.lambda_d * (2.0 * W) ** 2
    outage, ap_counts = _replicate(
        scenario, _UPLINK, 2.0 + nu + users + nu * users,
        lambda rng, n: _uplink_block(net, W, radii, rng, n))
    return tuple(UplinkSample(*_frequency(out), *_mean(counts))
                 for out, counts in zip(outage.T, ap_counts.T))


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


def _downlink_block(net: NetworkConfig, W: float, radii: np.ndarray,
                    beam_placement: str, rng: np.random.Generator, n: int):
    """Desired signal and beam interference at the typical user in n
    replications, one column per radius. The field of the largest radius
    is drawn and thinned to each smaller one."""
    R = net.coverage_radius
    n_con = rng.poisson(mean_connected_aps(net), n)
    r_con = R * np.sqrt(rng.random(int(n_con.sum())))
    power = rng.gamma(net.antennas_per_ap, size=len(r_con)) \
        * pathloss(r_con, net)
    sig = _sums(_owner(n_con), [power * (r_con <= r) for r in radii], n)
    ap_mean = net.lambda_b * (2.0 * W) ** 2
    if beam_placement == "per_user":
        # each AP in the window sends one Exp(1) beam to every user within
        # R of it, so its gain is Gamma(users served)
        n_ap = rng.poisson(ap_mean, n)
        ap_xy = rng.uniform(-W, W, size=(int(n_ap.sum()), 2))
        Wu = W + R
        n_u = rng.poisson(net.lambda_d * (2.0 * Wu) ** 2, n)
        u_xy = rng.uniform(-Wu, Wu, size=(int(n_u.sum()), 2))
        served = _neighbour_counts(ap_xy, n_ap, u_xy, n_u, radii, Wu)
        # Gamma(a + b) times an independent Beta(a, b) is Gamma(a): from the
        # largest radius down, Beta draws split each gain off the last one
        gains = rng.gamma(served[-1].astype(float))[None]
        inner, outer = served[-2::-1], served[:0:-1]
        steps = np.vstack([gains, inner > 0])
        split = (inner > 0) & (inner < outer)
        steps[1:][split] = rng.beta(inner[split], (outer - inner)[split])
        gains = np.multiply.accumulate(steps)[::-1]
        owner, xy = _owner(n_ap), ap_xy
    else:
        # One Poisson field of beams, each at its own location with an
        # Exp(1) gain. Keeping the beams of one AP collocated instead
        # would add a cross-beam term (factor 1 + beams_per_ap/2) to
        # the variance that the moment formulas do not carry.
        n_beam = rng.poisson(ap_mean * net.lambda_d * math.pi * R ** 2, n)
        xy = rng.uniform(-W, W, size=(int(n_beam.sum()), 2))
        gains = rng.exponential(size=len(xy))
        owner = _owner(n_beam)
        # drawn last: a beam with mark u is in the field at radius r when
        # u <= (r / R)^2, a thinning of the field at R to the one at r
        mark = rng.random(len(xy))
        gains = [gains * (mark <= (r / R) ** 2) for r in radii]
    x, y = xy.T
    ell = pathloss(np.sqrt(x * x + y * y), net)
    return sig, _sums(owner, [g * ell for g in gains], n)


def simulate_downlink_sir(net: NetworkConfig, scenario: SpatialScenario,
                          beam_placement: str = "per_user",
                          radii=None) -> tuple:
    """Downlink outage and beam-interference moments at the typical user,
    one sample per radius.

    beam_placement "per_user" serves the drawn user field (beams cluster at
    serving APs); "independent" scatters beams as their own Poisson field,
    which is the regime where the Gamma moment formulas are exact.
    """
    if beam_placement not in ("per_user", "independent"):
        raise ValueError("beam_placement must be 'per_user' or 'independent'")
    net, radii = _sweep(net, scenario, radii)
    R = net.coverage_radius
    W = scenario.half_width
    nu = mean_connected_aps(net)
    ap_mean = net.lambda_b * (2.0 * W) ** 2
    if beam_placement == "per_user":
        # counts, points, index cells and the users of each AP's 3x3 cells
        Wu = W + R
        cells = (2.0 * Wu / R + 3.0) ** 2
        per_rep = (3.0 + nu + ap_mean + net.lambda_d * (2.0 * Wu) ** 2
                   + cells + ap_mean * net.lambda_d * 9.0 * R ** 2)
        stream = _DOWNLINK_PER_USER
    else:
        per_rep = 2.0 + nu + ap_mean * net.lambda_d * math.pi * R ** 2
        stream = _DOWNLINK_INDEPENDENT
    sig, intf = _replicate(
        scenario, stream, per_rep,
        lambda rng, n: _downlink_block(net, W, radii, beam_placement, rng, n))
    n = scenario.replications
    samples = []
    for s, i in zip(sig.T, intf.T):
        i_var, i_var_se = float(i.var(ddof=1)) if n > 1 else 0.0, 0.0
        if n > 3:
            m4 = float(((i - i.mean()) ** 4).mean())
            i_var_se = math.sqrt(max(m4 - i_var ** 2, 0.0) / n)
        samples.append(DownlinkSample(
            *_frequency((s < net.sir_threshold_dl * i) | (s == 0.0)),
            *_mean(i), i_var, i_var_se))
    return tuple(samples)


# ----------------------------------------------------------------------------
# queueing simulation
# ----------------------------------------------------------------------------


# Leading share of a run's records left out of its statistics as warm-up.
_WARM_UP_SHARE = 0.1


@dataclass
class EventLog:
    """Arrival-stamped record of a queueing run.

    Server id 0 is the central server; ids 1.. are the edge servers.
    in_system[i, s] is the number of tasks at server s (including in
    service) that task i found on arrival. The merged arrival stream is
    Poisson, so each column samples its server's stationary state; the
    entry at a task's own edge server is biased low, as dispatch picks the
    least-loaded. Every sojourn_s is finite: a run drains its queues after
    the last arrival.
    """

    arrival_s: np.ndarray
    server_id: np.ndarray
    sojourn_s: np.ndarray
    in_system: np.ndarray

    def __len__(self) -> int:
        return len(self.arrival_s)

    def analysis_mask(self, server_id: int | None = None) -> np.ndarray:
        """Post-warmup records, optionally for one server."""
        n_warm = int(_WARM_UP_SHARE * len(self))
        mask = np.zeros(len(self), dtype=bool)
        mask[n_warm:] = True
        if server_id is not None:
            mask &= self.server_id == server_id
        return mask

    def sojourn_cdf(self, t: float, server_id: int | None = None,
                    mec_only: bool = False) -> float:
        mask = self.analysis_mask(server_id)
        if mec_only:
            mask &= self.server_id >= 1
        vals = self.sojourn_s[mask]
        if len(vals) == 0:
            return float("nan")
        return float((vals <= t).mean())


_MAX_QUEUE = 1_000_000

# Tasks drawn per chunk of the task stream, and served per _dispatch call:
# a slice's Python lists, not a chunk's, set the run's memory peak.
_CHUNK = 2 ** 16
_SLICE = 2 ** 12


def _dispatch(queues: list, arrival, to_cs, service, tie) -> tuple:
    """Serve tasks in arrival order at FIFO servers.

    queues[s] holds the departure epochs of the tasks still in system at
    server s (0 is the central server, the rest the edge group) and is
    updated in place, so consecutive slices of one stream share it. A task
    with to_cs set joins the central server; any other joins the edge
    server with the fewest tasks in system, ties broken by its tie uniform.
    It starts at its arrival or at its predecessor's departure, whichever
    is later. Returns each task's server and departure epoch.
    """
    central, edge = queues[0], queues[1:]
    servers, departures = [], []
    add_server, add_departure, limit = (servers.append, departures.append,
                                        _MAX_QUEUE)
    for t, cs, x, u in zip(arrival, to_cs, service, tie):
        if cs:
            s, q = 0, central
            while q and q[0] <= t:
                q.popleft()
        else:
            for q in edge:
                while q and q[0] <= t:
                    q.popleft()
            loads = list(map(len, edge))
            low = min(loads)
            ties = loads.count(low)
            if ties == 1:
                s = 1 + loads.index(low)
            elif ties == len(loads):   # the common case at light load
                s = 1 + int(u * ties)
            else:
                s = 1 + [i for i, n in enumerate(loads) if n == low][
                    int(u * ties)]
            q = queues[s]
        if q:
            if len(q) >= limit:
                raise StabilityError(
                    f"server {s} queue exceeded {limit} tasks")
            d = q[-1] + x
        else:
            d = t + x
        q.append(d)
        add_server(s)
        add_departure(d)
    return servers, departures


def _in_system(arrival: np.ndarray, server: np.ndarray,
               departure: np.ndarray, n_servers: int) -> np.ndarray:
    """Tasks in system at each server found by each arrival: the earlier
    tasks of that server less those departed by then. FIFO departure
    epochs are sorted per server, so one np.searchsorted counts the
    departed."""
    counts = np.empty((len(arrival), n_servers), dtype=np.int64)
    for s in range(n_servers):
        at = server == s
        counts[:, s] = np.cumsum(at) - at - np.searchsorted(
            departure[at], arrival, side="right")
    return counts


def simulate_mlcm(net: NetworkConfig, comp: ComputeConfig, duration: float,
                  seed: int, n_mec: int, p_oul: float) -> EventLog:
    """Queueing run of the central server plus a group of n_mec edge
    servers.

    The central stream carries the network-wide rate; the edge group
    carries its per-server rate times n_mec, dispatched to the
    least-loaded member (ties uniform), so each edge server sees the
    analytic per-server arrival rate. Arrivals stop at `duration`; queued
    work is drained so every admitted task gets a sojourn.

    The merged task stream is drawn _CHUNK tasks at a time: gaps, routes,
    types, unit service times and tie uniforms, in that order. Its layout
    depends only on the chunk index and dispatch is causal, so a longer
    run's log starts with the whole log of a shorter one. Each chunk is
    served _SLICE tasks at a time; the queues carry over between slices.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if n_mec < 0:
        raise ValueError("n_mec cannot be negative")
    rates = arrival_rates(net, comp, p_oul)
    rng = _block_rng(seed, 1, 0)

    lam_total = rates.lambda_c + rates.lambda_m * n_mec
    p_cs = rates.lambda_c / lam_total if lam_total > 0 else 0.0
    probs = np.asarray(comp.type_probs)
    # mean service time per task type: edge servers in row 0, central in 1
    scale = 1.0 / np.array([comp.mu_m, comp.mu_c])

    n_servers = 1 + n_mec
    queues = [deque() for _ in range(n_servers)]
    chunks = [(np.zeros(0), np.zeros(0, np.int64), np.zeros(0))]
    epoch, kept = 0.0, _CHUNK
    while lam_total > 0 and kept == _CHUNK:
        gaps = rng.exponential(1.0 / lam_total, _CHUNK)
        gaps[0] += epoch
        arrival = np.cumsum(gaps)
        to_cs = rng.random(_CHUNK) < p_cs
        types = rng.choice(len(probs), size=_CHUNK, p=probs)
        service = rng.exponential(size=_CHUNK) * scale[to_cs.astype(int),
                                                        types]
        tie = rng.random(_CHUNK)
        kept = int(np.searchsorted(arrival, duration, side="right"))
        server = np.empty(kept, dtype=np.int64)
        departure = np.empty(kept)
        for lo in range(0, kept, _SLICE):
            part = slice(lo, min(lo + _SLICE, kept))
            server[part], departure[part] = _dispatch(
                queues, *(a[part].tolist() for a in (arrival, to_cs, service,
                                                     tie)))
        chunks.append((arrival[:kept], server, departure))
        epoch = arrival[-1]

    arrival, server, departure = (np.concatenate(column)
                                  for column in zip(*chunks))
    return EventLog(arrival, server, departure - arrival,
                    _in_system(arrival, server, departure, n_servers))
