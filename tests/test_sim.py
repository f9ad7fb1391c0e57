"""Monte Carlo and discrete-event simulators.

These runs use small replication budgets with wide tolerances; the
tight-budget comparisons against the analytic layer live in the
acceptance suite.
"""

import heapq
import itertools
import math
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from cfedge import comm, sim
from cfedge.errors import StabilityError
from cfedge.model import mean_connected_aps
from cfedge.offload import arrival_rates, queue_spectrum
from cfedge.sim import (SpatialScenario, simulate_downlink_sir,
                        simulate_mlcm, simulate_uplink_outage)

from conftest import make_net


class TestScenario:
    def test_for_network_covers_window(self, fig_net):
        sc = SpatialScenario.for_network(fig_net, 10, 1)
        assert sc.half_width == pytest.approx(
            4.0 * fig_net.coverage_radius + sc.guard)
        assert sc.guard > 0

    def test_window_too_small_raises(self, fig_net):
        sc = SpatialScenario(half_width=0.05, guard=0.0, replications=10,
                             seed=1)
        with pytest.raises(ValueError, match="half-width"):
            simulate_uplink_outage(fig_net, sc)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpatialScenario(half_width=1.0, guard=0.1, replications=0, seed=1)
        with pytest.raises(ValueError):
            SpatialScenario(half_width=-1.0, guard=0.1, replications=5, seed=1)


def _blocks(monkeypatch, run):
    """Block sizes and per-replication outcome arrays of one simulator run,
    read off the block driver."""
    sizes, outcomes = [], []
    real = sim._replicate

    def spy(scenario, stream, per_rep, draw):
        def sized(rng, n):
            sizes.append(n)
            return draw(rng, n)

        out = real(scenario, stream, per_rep, sized)
        outcomes.append(out)
        return out

    monkeypatch.setattr(sim, "_replicate", spy)
    run()
    monkeypatch.undo()
    return sizes, outcomes[0]


_SIMULATORS = {
    "uplink": lambda net, sc: simulate_uplink_outage(net, sc),
    "per_user": lambda net, sc: simulate_downlink_sir(net, sc, "per_user"),
    "independent": lambda net, sc: simulate_downlink_sir(net, sc,
                                                         "independent"),
}


class TestNeighbourCounts:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        radius, half = 0.05, 0.3
        n_ap = rng.poisson(12.0, 5) + 1
        n_u = rng.poisson(25.0, 5) + 1
        n_ap[1] = 0
        n_u[2] = 0
        ap = rng.uniform(-half, half, (n_ap.sum(), 2))
        u = rng.uniform(-half, half, (n_u.sum(), 2))
        # points on cell edges and window corners, and users at exactly
        # the radius from an AP
        ap[::3] = np.clip(np.round(ap[::3] / radius) * radius, -half, half)
        u[::4] = np.clip(np.round(u[::4] / radius) * radius, -half, half)
        ap[0] = u[0] = (-half, -half)
        ap[-1] = u[-1] = (half, half)
        ap_rep = np.repeat(np.arange(5), n_ap)
        u_rep = np.repeat(np.arange(5), n_u)
        for i in range(0, len(u), 5):
            j = np.flatnonzero(ap_rep == u_rep[i])
            if len(j):
                # toward the centre, so the user stays in the window
                y = ap[j[0], 1]
                u[i] = ap[j[0]] - (0.0, math.copysign(radius, y))
        assert np.abs(u).max() <= half
        d = ap[:, None, :] - u[None, :, :]
        within = (d * d).sum(axis=2) <= radius * radius
        want = (within & (ap_rep[:, None] == u_rep[None, :])).sum(axis=1)
        got = sim._neighbour_counts(ap, n_ap, u, n_u, radius, half)
        assert np.array_equal(got, want)
        assert want.sum() > 0

    def test_exact_radius_is_inside(self):
        ap = np.array([[0.0, 0.0]])
        u = np.array([[0.25, 0.0], [0.0, -0.25], [0.25, 1e-6]])
        got = sim._neighbour_counts(ap, np.array([1]), u, np.array([3]),
                                    0.25, 1.0)
        assert got.tolist() == [2]


class TestBlocks:
    @pytest.mark.parametrize("kind", sorted(_SIMULATORS))
    def test_reruns_equal(self, fig_net, kind):
        sc = SpatialScenario.for_network(fig_net, 300, seed=7)
        run = _SIMULATORS[kind]
        assert run(fig_net, sc) == run(fig_net, sc)

    @pytest.mark.parametrize("kind", sorted(_SIMULATORS))
    def test_longer_run_starts_with_shorter(self, fig_net, monkeypatch,
                                            kind):
        run = _SIMULATORS[kind]

        def outcomes(reps):
            sc = SpatialScenario.for_network(fig_net, reps, seed=3)
            return _blocks(monkeypatch, lambda: run(fig_net, sc))

        sizes, _ = outcomes(10_000)
        k = sizes[0]
        assert 1 < k < 10_000
        assert set(sizes[:-1]) == {k}
        one, first = outcomes(k)
        assert one == [k]
        for reps, want in ((2 * k, [k, k]), (k + 3, [k, 3])):
            sizes, out = outcomes(reps)
            assert sizes == want
            for long, short in zip(out, first):
                assert len(long) == reps
                assert np.array_equal(long[:k], short)

    @pytest.mark.parametrize("kind", sorted(_SIMULATORS))
    def test_single_replication(self, fig_net, kind):
        out = _SIMULATORS[kind](
            fig_net, SpatialScenario.for_network(fig_net, 1, seed=2))
        if kind == "uplink":
            assert out.estimate in (0.0, 1.0)
            assert out.ap_count_se == 0.0
        else:
            assert out.outage in (0.0, 1.0)
            assert out.i_var == out.i_var_se == out.i_mean_se == 0.0

    def test_empty_fields(self, monkeypatch):
        # so sparse that whole blocks hold no AP, user or beam
        net = make_net(lambda_b=1e-6, lambda_d=1e-6)
        sc = SpatialScenario.for_network(net, 40_000, seed=4)
        sizes, _ = _blocks(monkeypatch,
                           lambda: simulate_uplink_outage(net, sc))
        assert len(sizes) > 1
        up = simulate_uplink_outage(net, sc)
        assert up.estimate == 1.0 and up.ap_count_mean == 0.0
        for placement in ("per_user", "independent"):
            dl = simulate_downlink_sir(net, sc, placement)
            assert dl.outage == 1.0
            assert dl.i_mean == dl.i_var == 0.0

    def test_no_users_means_success(self, monkeypatch):
        # APs but no interferers: exactly the replications without an AP
        # are outages
        net = make_net(lambda_d=1e-6)
        sc = SpatialScenario.for_network(net, 2000, seed=6)
        _, (outage, ap_count) = _blocks(
            monkeypatch, lambda: simulate_uplink_outage(net, sc))
        assert np.array_equal(outage, ap_count == 0)
        assert 0 < outage.sum() < len(outage)


class TestUplink:
    def test_deterministic(self, fig_net):
        sc = SpatialScenario.for_network(fig_net, 400, seed=7)
        a = simulate_uplink_outage(fig_net, sc)
        b = simulate_uplink_outage(fig_net, sc)
        assert a.estimate == b.estimate
        assert a.ap_count_mean == b.ap_count_mean

    def test_seed_changes_stream(self, fig_net):
        a = simulate_uplink_outage(
            fig_net, SpatialScenario.for_network(fig_net, 400, seed=7))
        b = simulate_uplink_outage(
            fig_net, SpatialScenario.for_network(fig_net, 400, seed=8))
        assert a.ap_count_mean != b.ap_count_mean

    def test_ap_count_calibration(self, fig_net):
        sc = SpatialScenario.for_network(fig_net, 3000, seed=11)
        out = simulate_uplink_outage(fig_net, sc)
        nu = mean_connected_aps(fig_net)
        assert abs(out.ap_count_mean - nu) <= 4.0 * out.ap_count_se

    @pytest.mark.parametrize("radius", [0.03, 0.08])
    def test_matches_analytic(self, radius):
        net = make_net(coverage_radius=radius)
        sc = SpatialScenario.for_network(net, 3000, seed=3)
        est, se = simulate_uplink_outage(net, sc)
        assert abs(est - comm.uplink_outage(net)) <= 0.02 + 4.0 * se


class TestDownlink:
    def test_independent_moments(self, fig_net):
        sc = SpatialScenario.for_network(fig_net, 20000, seed=5)
        out = simulate_downlink_sir(fig_net, sc, beam_placement="independent")
        params = comm.gamma_interference_params(fig_net)
        assert abs(out.i_mean - params.mean) <= 4.0 * out.i_mean_se
        # the variance estimator is heavy-tailed at this budget; its own
        # stderr (fourth-moment based) is the only stable yardstick
        assert abs(out.i_var - params.variance) <= 4.0 * out.i_var_se

    @pytest.mark.parametrize("placement", ["per_user", "independent"])
    def test_outage_bounded(self, fig_net, placement):
        sc = SpatialScenario.for_network(fig_net, 500, seed=9)
        out = simulate_downlink_sir(fig_net, sc, beam_placement=placement)
        assert 0.0 <= out.outage <= 1.0
        assert out.outage_se >= 0.0
        assert math.isfinite(out.i_var)

    def test_rejects_unknown_placement(self, fig_net):
        sc = SpatialScenario.for_network(fig_net, 10, seed=1)
        with pytest.raises(ValueError, match="beam_placement"):
            simulate_downlink_sir(fig_net, sc, beam_placement="grid")


def _littles_law_summary(log, server_id: int) -> dict:
    """Arrival-seen mean occupancy vs arrival rate times mean sojourn."""
    mask = log.analysis_mask(server_id)
    arrivals = log.arrival_s[mask]
    if len(arrivals) < 2:
        return {"n": int(mask.sum())}
    span = float(arrivals[-1] - arrivals[0])
    lam = (len(arrivals) - 1) / span if span > 0 else float("nan")
    w = log.sojourn_s[mask]
    seen = log.queue_len_seen[mask]
    return {
        "n": len(arrivals),
        "l_seen": float(seen.mean()),
        "l_seen_se": float(seen.std(ddof=1) / math.sqrt(len(seen))),
        "lambda_hat": lam,
        "mean_sojourn": float(w.mean()),
        "sojourn_se": float(w.std(ddof=1) / math.sqrt(len(w))),
    }


def _heap_reference(arrival, to_cs, service, tie, n_mec):
    """Event-heap simulation of the same queues fed given task arrays:
    arrival and completion events popped in time order, each service
    started when its server frees up. Returns server ids, tasks found in
    system, edge-queue snapshots and sojourns."""
    n = len(arrival)
    in_system = [0] * (1 + n_mec)
    waiting = [deque() for _ in in_system]
    heap, seq = [], itertools.count()
    servers, seen, snapshots = [], [], []
    sojourns = [math.nan] * n

    def start_service(server, task, now):
        heapq.heappush(heap, (now + service[task], next(seq), "done", server,
                              task))

    if n:
        heapq.heappush(heap, (arrival[0], next(seq), "arrival", -1, 0))
    while heap:
        now, _, kind, server, task = heapq.heappop(heap)
        if kind == "arrival":
            if to_cs[task]:
                server = 0
            else:
                loads = in_system[1:]
                low = min(loads)
                choices = [i + 1 for i, k in enumerate(loads) if k == low]
                server = choices[int(tie[task] * len(choices))]
            servers.append(server)
            seen.append(in_system[server])
            snapshots.append(in_system[1:])
            if in_system[server] == 0:
                start_service(server, task, now)
            else:
                waiting[server].append(task)
            in_system[server] += 1
            if task + 1 < n:
                heapq.heappush(heap, (arrival[task + 1], next(seq), "arrival",
                                      -1, task + 1))
        else:
            sojourns[task] = now - arrival[task]
            in_system[server] -= 1
            if waiting[server]:
                start_service(server, waiting[server].popleft(), now)
    return servers, seen, snapshots, sojourns


class TestQueueRuns:
    def test_deterministic(self, fig_net, mix_comp):
        a = simulate_mlcm(fig_net, mix_comp, 30.0, seed=21, n_mec=2)
        b = simulate_mlcm(fig_net, mix_comp, 30.0, seed=21, n_mec=2)
        assert np.array_equal(a.arrival_s, b.arrival_s)
        assert np.array_equal(a.sojourn_s, b.sojourn_s, equal_nan=True)
        assert np.array_equal(a.server_id, b.server_id)

    @pytest.mark.parametrize("n_mec", [0, 1, 2, 4])
    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("rho", [0.02, 0.7])
    def test_dispatch_matches_event_heap(self, n_mec, theta, rho):
        # Unit-rate task stream; rho is each server's utilisation at even
        # routing, so the light load leaves most edge arrivals a tie
        # among idle servers. Fed in two chunks sharing the queues.
        lam_cs, lam_group = theta, (1.0 - theta) * n_mec
        total = lam_cs + lam_group
        n = 3000 if total > 0 else 0
        rng = np.random.default_rng([n_mec, int(theta * 10), int(rho * 100)])
        arrival = np.cumsum(rng.exponential(1.0 / max(total, 1e-9), n))
        to_cs = rng.random(n) < (lam_cs / total if total > 0 else 0.0)
        mean = np.where(to_cs, rho / max(lam_cs, 1e-9),
                        rho * n_mec / max(lam_group, 1e-9))
        service = rng.exponential(size=n) * mean
        tie = rng.random(n)
        want = _heap_reference(*(a.tolist() for a in (arrival, to_cs,
                                                       service, tie)), n_mec)

        queues = [deque() for _ in range(1 + n_mec)]
        servers, departures = [], []
        for part in (slice(0, n // 3), slice(n // 3, n)):
            got = sim._dispatch(queues, *(a[part].tolist() for a in (
                arrival, to_cs, service, tie)))
            servers += got[0]
            departures += got[1]
        server = np.asarray(servers, dtype=np.int64)
        departure = np.asarray(departures)
        counts = sim._in_system(arrival, server, departure, 1 + n_mec)
        assert servers == want[0]
        assert counts[np.arange(n), server].tolist() == want[1]
        assert counts[:, 1:].tolist() == want[2]
        assert (departure - arrival).tolist() == want[3]
        if rho < 0.1 and lam_group > 0 and n_mec > 1:
            # most edge arrivals find every edge server idle
            idle = counts[~to_cs, 1:].sum(axis=1) == 0
            assert idle.mean() > 0.8

    def test_longer_run_starts_with_shorter(self, mix_comp):
        # both runs cross a chunk boundary
        net = make_net(lambda_d=4000.0, coverage_radius=0.1)
        comp = replace(mix_comp, offload_prob=0.04)
        short = simulate_mlcm(net, comp, 300.0, seed=1, p_oul=0.0)
        long = simulate_mlcm(net, comp, 900.0, seed=1, p_oul=0.0)
        n = len(short)
        assert sim._CHUNK < n < len(long)
        assert long.extras["n_mec"] == short.extras["n_mec"] > 1
        for name in ("arrival_s", "server_id", "queue_len_seen", "sojourn_s",
                     "type_idx"):
            assert np.array_equal(getattr(long, name)[:n],
                                  getattr(short, name))
        assert np.array_equal(long.extras["mec_queue_snapshot"][:n],
                              short.extras["mec_queue_snapshot"])

    def test_drains_and_orders(self, fig_net, mix_comp):
        log = simulate_mlcm(fig_net, mix_comp, 50.0, seed=2, n_mec=3)
        assert not np.any(np.isnan(log.sojourn_s))
        assert np.all(np.diff(log.arrival_s) >= 0.0)
        assert log.arrival_s[-1] <= 50.0
        assert log.server_id.min() >= 0 and log.server_id.max() <= 3
        assert np.all(log.sojourn_s > 0.0)

    def test_snapshot_and_extras(self, fig_net, mix_comp):
        log = simulate_mlcm(fig_net, mix_comp, 20.0, seed=4, n_mec=4)
        snap = log.extras["mec_queue_snapshot"]
        assert snap.shape == (len(log), 4)
        assert log.extras["n_mec"] == 4
        for key in ("lambda_c", "lambda_m", "p_oul"):
            assert key in log.extras

    def test_littles_law_central(self, fig_net, mix_comp):
        log = simulate_mlcm(fig_net, mix_comp, 400.0, seed=6, n_mec=2)
        report = _littles_law_summary(log, server_id=0)
        assert report["n"] > 5000
        predicted = report["lambda_hat"] * report["mean_sojourn"]
        spread = (report["l_seen_se"]
                  + report["lambda_hat"] * report["sojourn_se"])
        assert abs(report["l_seen"] - predicted) <= 6.0 * spread + 0.05

    def test_queue_pmf_near_spectrum(self, mix_comp):
        # moderate load, one edge server, everything offloaded: the
        # arrival-seen pmf should sit near the analytic spectrum
        net = make_net(lambda_d=8100.0, coverage_radius=0.1)
        comp = replace(mix_comp, offload_prob=0.0)
        log = simulate_mlcm(net, comp, 600.0, seed=12, n_mec=1, p_oul=0.0)
        rates = arrival_rates(net, comp, p_oul=0.0)
        spec = queue_spectrum(comp, rates.lambda_m)
        pmf = log.queue_length_pmf(server_id=1)
        tv = 0.5 * sum(abs(pmf[v] - spec.pmf(v)) for v in range(len(pmf)))
        tv += 0.5 * spec.tail(len(pmf))
        assert tv <= 0.12
        assert pmf[0] == pytest.approx(spec.pmf(0), abs=0.1)

    def test_overload_detected(self, mix_comp, monkeypatch):
        monkeypatch.setattr(sim, "_MAX_QUEUE", 200)
        net = make_net(lambda_d=60000.0, coverage_radius=0.1)
        comp = replace(mix_comp, offload_prob=0.0)
        with pytest.raises(StabilityError, match="queue exceeded"):
            simulate_mlcm(net, comp, 100.0, seed=1, n_mec=1, p_oul=0.0)

    def test_overload_memory_bounded(self, mix_comp, monkeypatch):
        # about 1e7 tasks would arrive, but the overload is caught within
        # the first chunk of the stream
        monkeypatch.setattr(sim, "_MAX_QUEUE", 200)
        net = make_net(lambda_d=60000.0, coverage_radius=0.1)
        comp = replace(mix_comp, offload_prob=0.0)
        tracemalloc.start()
        try:
            with pytest.raises(StabilityError, match="queue exceeded"):
                simulate_mlcm(net, comp, 7e4, seed=1, n_mec=1, p_oul=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_validation(self, fig_net, mix_comp):
        with pytest.raises(ValueError):
            simulate_mlcm(fig_net, mix_comp, 0.0, seed=1)
        with pytest.raises(ValueError):
            simulate_mlcm(fig_net, mix_comp, 10.0, seed=1, n_mec=-1)

    def test_warmup_mask(self, fig_net, mix_comp):
        log = simulate_mlcm(fig_net, mix_comp, 30.0, seed=3, n_mec=2)
        mask = log.analysis_mask()
        n_warm = int(0.1 * len(log))
        assert not mask[:n_warm].any()
        assert mask.sum() <= len(log) - n_warm
