"""Monte Carlo and discrete-event simulators.

These runs use small replication budgets with wide tolerances; the
tight-budget comparisons against the analytic layer live in the
acceptance suite.
"""

import hashlib
import heapq
import itertools
import math
import os
import platform
import select
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from collections import deque
from dataclasses import replace
from pathlib import Path

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
    """Block sizes in block order and per-replication outcome arrays of one
    simulator run, read off the block driver. Each block, in whichever
    process draws it, returns one more outcome row: its index, the last
    word of the Philox counter its generator starts from, and its size.
    Those rows are joined like the outcomes, so they must come back in
    block order."""
    drawn, outcomes = [], []
    real = sim._replicate

    def spy(scenario, stream, per_rep, draw):
        def sized(rng, n):
            b = int(rng.bit_generator.state["state"]["counter"][3])
            return (*draw(rng, n), np.array([[b, n]]))

        *out, sizes = real(scenario, stream, per_rep, sized)
        drawn.append(sizes)
        outcomes.append(out)
        return out

    monkeypatch.setattr(sim, "_replicate", spy)
    run()
    monkeypatch.undo()
    index, sizes = drawn[0].T
    assert index.tolist() == list(range(len(index)))
    return sizes.tolist(), outcomes[0]


def _fresh_interpreter(probe: str) -> str:
    """Standard output of the dedented probe, run by a fresh interpreter
    that imports cfedge from this tree, so that the page faults it counts
    come from the probe's work alone, not from this process's history."""
    src = str(Path(sim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(probe)],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=120).stdout


def _forks(monkeypatch) -> list:
    """Calls to os.fork from now on, one entry each."""
    calls, real = [], os.fork

    def fork():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_SIMULATORS = {
    "uplink": lambda net, sc: simulate_uplink_outage(net, sc),
    "per_user": lambda net, sc: simulate_downlink_sir(net, sc, "per_user"),
    "independent": lambda net, sc: simulate_downlink_sir(net, sc,
                                                         "independent"),
}


_SWEEPS = {
    "uplink": lambda net, sc, radii: simulate_uplink_outage(net, sc,
                                                            radii=radii),
    "per_user": lambda net, sc, radii: simulate_downlink_sir(
        net, sc, "per_user", radii=radii),
    "independent": lambda net, sc, radii: simulate_downlink_sir(
        net, sc, "independent", radii=radii),
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
        same = ap_rep[:, None] == u_rep[None, :]
        radii = np.array([0.7 * radius, radius])
        want = np.stack([(((d * d).sum(axis=2) <= r * r) & same).sum(axis=1)
                         for r in radii])
        got = sim._neighbour_counts(ap, n_ap, u, n_u, radii, half)
        assert np.array_equal(got, want)
        assert np.array_equal(
            sim._neighbour_counts(ap, n_ap, u, n_u, radii[1:], half),
            want[1:])
        assert 0 < want[0].sum() < want[1].sum()

    def test_exact_radius_is_inside(self):
        ap = np.array([[0.0, 0.0]])
        u = np.array([[0.25, 0.0], [0.0, -0.25], [0.25, 1e-6]])
        got = sim._neighbour_counts(ap, np.array([1]), u, np.array([3]),
                                    np.array([0.1, 0.25]), 1.0)
        assert got.tolist() == [[0], [2]]


class TestBlocks:
    @pytest.mark.parametrize("kind", sorted(_SIMULATORS))
    def test_oversized_replication_fails_before_drawing(self, monkeypatch,
                                                        kind):
        # d0 = 4 km puts the far-field guard some 600 km out, so that one
        # replication expects 5e8 elements or more; drawing a block fails,
        # and nothing forks
        monkeypatch.setattr(sim, "_block_rng", None)
        forks = _forks(monkeypatch)
        net = make_net(d0=4.0)
        sc = SpatialScenario.for_network(net, 10, seed=1)
        with pytest.raises(ValueError,
                           match=r"expects \d\.\d+e\+0[89] elements"):
            _SIMULATORS[kind](net, sc)
        assert forks == []

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

    @pytest.mark.parametrize("kind, digest", [
        ("independent", "8b932ed0bb8e0bd5e45b5040c8dfa9e4"
                        "44570af56439b80aa9db789967f49f1a"),
        ("per_user", "c432c04b60a3160e20988917cb0cae09"
                     "8b3f41e309a4dd61aad960e5fac43018"),
        ("uplink", "22bed49eaeb669ca267f09b888630a16"
                   "32c2e9d3063c6ea1f641d10867b00471"),
    ])
    def test_single_radius_outcomes_pinned(self, fig_net, monkeypatch, kind,
                                           digest):
        # SHA-256 of the per-replication outcome arrays (dtype, then
        # bytes) of a one-radius run: any change to the stream or to the
        # arithmetic of a one-radius run shows here
        sc = SpatialScenario.for_network(fig_net, 300, seed=7)
        _, outcomes = _blocks(monkeypatch,
                              lambda: _SIMULATORS[kind](fig_net, sc))
        h = hashlib.sha256()
        for column in outcomes:
            assert len(column) == 300
            h.update(column.dtype.str.encode())
            h.update(np.ascontiguousarray(column).tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("kind", sorted(_SIMULATORS))
    def test_single_replication(self, fig_net, kind):
        (out,) = _SIMULATORS[kind](
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
        (up,) = simulate_uplink_outage(net, sc)
        assert up.estimate == 1.0 and up.ap_count_mean == 0.0
        for placement in ("per_user", "independent"):
            (dl,) = simulate_downlink_sir(net, sc, placement)
            assert dl.outage == 1.0
            assert dl.i_mean == dl.i_var == 0.0

    @pytest.mark.parametrize("kind", sorted(_SWEEPS))
    @pytest.mark.parametrize("radii", [None, (0.03, 0.04, 0.05)])
    def test_outputs_equal_at_any_cpu_count(self, fig_net, monkeypatch, kind,
                                            radii):
        # a run forks one child per CPU it may use beyond its own, at most
        # one per block
        sc = SpatialScenario.for_network(fig_net, 300, seed=9)
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(sim.os, "sched_getaffinity",
                                lambda pid, cpus=cpus: set(range(cpus)))
            forks = _forks(monkeypatch)
            runs.append(_blocks(monkeypatch,
                                lambda: _SWEEPS[kind](fig_net, sc, radii)))
            assert len(forks) == min(cpus, len(runs[-1][0])) - 1
        (sizes, first), *rest = runs
        assert len(sizes) > 1
        for other_sizes, other in rest:
            assert other_sizes == sizes
            for a, b in zip(first, other, strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_first_block_comes_first_when_it_finishes_last(self,
                                                           monkeypatch):
        # three blocks, one per CPU: block 0, which the caller draws, waits
        # until the children have finished blocks 1 and 2
        monkeypatch.setattr(sim.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2})
        done_r, done_w = os.pipe()

        def draw(rng, n):
            b = int(rng.bit_generator.state["state"]["counter"][3])
            if b == 0:
                for _ in range(2):
                    assert select.select([done_r], [], [], 30.0)[0]
                    assert os.read(done_r, 1) in (b"1", b"2")
            else:
                os.write(done_w, str(b).encode())
            return np.full(n, b), np.full(n, os.getpid())

        sc = SpatialScenario(half_width=1.0, guard=0.0, replications=6,
                             seed=1)
        try:
            out, pids = sim._replicate(sc, 2, sim._BLOCK_ELEMENTS / 2, draw)
        finally:
            os.close(done_r)
            os.close(done_w)
        assert out.tolist() == [0, 0, 1, 1, 2, 2]
        assert pids[0] == os.getpid()
        assert len({pids[0], pids[2], pids[4]}) == 3
        _no_child_left()

    def test_block_error_reaches_caller(self, monkeypatch):
        # block 1 raises in the child that draws it; the caller draws it
        # again and raises the error itself, which need not pickle
        class Boom(Exception):
            pass

        def draw(rng, n):
            if int(rng.bit_generator.state["state"]["counter"][3]) == 1:
                raise Boom("block 1")
            return (np.zeros(n),)

        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1})
        forks = _forks(monkeypatch)
        sc = SpatialScenario(half_width=1.0, guard=0.0, replications=8,
                             seed=1)
        with pytest.raises(Boom, match="block 1"):
            sim._replicate(sc, 2, sim._BLOCK_ELEMENTS / 2, draw)
        assert len(forks) == 1
        _no_child_left()

    def test_caller_error_kills_children(self, monkeypatch):
        # block 0 raises in the caller while the child drawing block 1
        # would sleep for a minute: the call raises at once, child reaped
        def draw(rng, n):
            if int(rng.bit_generator.state["state"]["counter"][3]) == 1:
                time.sleep(60.0)
            raise KeyboardInterrupt

        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1})
        forks = _forks(monkeypatch)
        sc = SpatialScenario(half_width=1.0, guard=0.0, replications=4,
                             seed=1)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            sim._replicate(sc, 2, sim._BLOCK_ELEMENTS / 2, draw)
        assert time.monotonic() - t0 < 30.0
        assert len(forks) == 1
        _no_child_left()

    def test_failing_first_block_kills_children(self, monkeypatch):
        # block 0 raises in the caller: no child block comes before it, so
        # the call raises at once while the child drawing block 1 sleeps
        def draw(rng, n):
            if int(rng.bit_generator.state["state"]["counter"][3]) == 1:
                time.sleep(60.0)
            raise ValueError("block 0")

        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1})
        sc = SpatialScenario(half_width=1.0, guard=0.0, replications=4,
                             seed=1)
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="block 0"):
            sim._replicate(sc, 2, sim._BLOCK_ELEMENTS / 2, draw)
        assert time.monotonic() - t0 < 30.0
        _no_child_left()

    @pytest.mark.parametrize("kind", sorted(_SIMULATORS))
    def test_killed_child_is_drawn_again(self, fig_net, monkeypatch, kind):
        # the child drawing block 1 dies by SIGKILL: the caller draws its
        # blocks, and the outcomes are those of a run on one CPU
        sc = SpatialScenario.for_network(fig_net, 300, seed=5)
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0})
        _, want = _blocks(monkeypatch, lambda: _SIMULATORS[kind](fig_net, sc))
        caller, real = os.getpid(), sim._replicate

        def replicate(scenario, stream, per_rep, draw):
            def killed(rng, n):
                if (int(rng.bit_generator.state["state"]["counter"][3]) == 1
                        and os.getpid() != caller):
                    os.kill(os.getpid(), signal.SIGKILL)
                return draw(rng, n)

            return real(scenario, stream, per_rep, killed)

        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1})
        forks = _forks(monkeypatch)
        monkeypatch.setattr(sim, "_replicate", replicate)
        _, got = _blocks(monkeypatch, lambda: _SIMULATORS[kind](fig_net, sc))
        assert len(forks) == 1
        for a, b in zip(want, got, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        _no_child_left()

    @pytest.mark.parametrize("kind", sorted(_SIMULATORS))
    def test_no_child_outlives_a_run(self, fig_net, monkeypatch, kind):
        monkeypatch.setattr(sim.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2})
        forks = _forks(monkeypatch)
        _SIMULATORS[kind](fig_net,
                          SpatialScenario.for_network(fig_net, 300, seed=5))
        assert forks
        _no_child_left()

    @pytest.mark.parametrize("count, n, forks", [(0, 2, 0), (1, 2, 0),
                                                 (3, 8, 1)])
    def test_no_child_gets_an_empty_share(self, monkeypatch, count, n,
                                          forks):
        # at 2 CPUs: no item or one item takes no child, whose share
        # would be empty; three items on 8 processes take one child
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1})
        calls = _forks(monkeypatch)
        assert sim.forked(lambda i: i * i, count, n) == [
            i * i for i in range(count)]
        assert len(calls) == forks
        _no_child_left()

    def test_no_fork_while_a_second_thread_runs(self, fig_net, monkeypatch):
        # forking a process that runs threads is unsafe: a caller with a
        # second thread alive draws every block itself, to the same bits
        sc = SpatialScenario.for_network(fig_net, 300, seed=5)
        run = _SIMULATORS["per_user"]
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1})
        forks = _forks(monkeypatch)
        _, want = _blocks(monkeypatch, lambda: run(fig_net, sc))
        assert len(forks) == 1
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(30.0,))
        waiter.start()
        try:
            monkeypatch.setattr(sim.os, "sched_getaffinity",
                                lambda pid: {0, 1})
            forks = _forks(monkeypatch)
            _, got = _blocks(monkeypatch, lambda: run(fig_net, sc))
        finally:
            release.set()
            waiter.join(timeout=30.0)
        assert not waiter.is_alive()
        assert forks == []
        for a, b in zip(want, got, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_no_users_means_success(self, monkeypatch):
        # APs but no interferers: exactly the replications without an AP
        # are outages
        net = make_net(lambda_d=1e-6)
        sc = SpatialScenario.for_network(net, 2000, seed=6)
        _, (outage, ap_count) = _blocks(
            monkeypatch, lambda: simulate_uplink_outage(net, sc))
        assert np.array_equal(outage, ap_count == 0)
        assert 0 < outage.sum() < len(outage)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the allocator thresholds are glibc's")
    def test_blocks_reuse_heap_pages(self, fig_net):
        # Importing cfedge raised glibc's mmap and trim thresholds, so each
        # block of a drop reuses the heap pages its predecessor freed
        # instead of faulting fresh ones in. A process faults in the heap of
        # a drop's largest block once, so each drop is drawn twice and the
        # second draw is counted.
        out = _fresh_interpreter(f"""\
            import resource
            from cfedge import sim
            from cfedge.model import NetworkConfig
            net = {fig_net!r}
            sim.os.sched_getaffinity = lambda pid: {{0}}
            blocks, rng = [], sim._block_rng
            sim._block_rng = lambda *key: blocks.append(key) or rng(*key)
            for kind, reps in (("uplink", 4000), ("per_user", 800),
                               ("independent", 4000)):
                sc = sim.SpatialScenario.for_network(net, reps, seed=5)
                for _ in range(2):
                    blocks.clear()
                    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                    if kind == "uplink":
                        sim.simulate_uplink_outage(net, sc)
                    else:
                        sim.simulate_downlink_sir(net, sc, kind)
                print(kind, len(blocks), resource.getrusage(
                    resource.RUSAGE_SELF).ru_minflt - faults)
            """).split()
        drops = {kind: (int(blocks), int(faults)) for kind, blocks, faults
                 in zip(out[::3], out[1::3], out[2::3])}
        assert sorted(drops) == sorted(_SIMULATORS)
        assert min(blocks for blocks, _ in drops.values()) >= 20, drops
        assert all(faults < blocks for blocks, faults in drops.values()), \
            drops

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the allocator thresholds are glibc's")
    def test_radial_table_growth_reuses_heap_pages(self, fig_net):
        # Each chunk of the uplink radial table (M = 4) allocates megabytes
        # of temporaries, hundreds of pages a chunk were they mapped afresh.
        # Under the thresholds the import raised, a second table grown after
        # a first reuses the heap pages the first faulted in.
        chunks = 32
        faults = int(_fresh_interpreter(f"""\
            import resource
            from dataclasses import replace
            from cfedge import comm
            from cfedge.model import NetworkConfig
            net, n = {fig_net!r}, {chunks} * comm._CHUNK_NODES
            comm._RadialTable(net).values(n)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            other = replace(net, lambda_d=2 * net.lambda_d)
            comm._RadialTable(other).values(n)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
            """))
        assert faults < chunks


class TestSweep:
    """One drop at the largest radius serves every radius of a sweep."""

    @pytest.mark.parametrize("kind", sorted(_SWEEPS))
    def test_largest_radius_is_the_single_radius_run(self, kind,
                                                     monkeypatch):
        net = make_net(coverage_radius=0.06)
        sc = SpatialScenario.for_network(net, 400, seed=7)
        run = _SWEEPS[kind]
        _, single = _blocks(monkeypatch, lambda: run(net, sc, None))
        _, outcomes = _blocks(monkeypatch,
                              lambda: run(net, sc, (0.03, 0.06)))
        half, full = run(net, sc, (0.03, 0.06))
        assert (full,) == _SIMULATORS[kind](net, sc)
        assert half != full
        for sweep, one in zip(outcomes, single, strict=True):
            assert np.array_equal(sweep[:, 1:], one)
        # per replication the larger radius gains APs and beams: the
        # uplink outage does not rise, signal and interference do not fall
        if kind == "uplink":
            outage, ap_count = outcomes
            assert np.all(outage[:, 1] <= outage[:, 0])
            assert np.all(ap_count[:, 0] <= ap_count[:, 1])
            assert np.any(ap_count[:, 0] < ap_count[:, 1])
        else:
            for column in outcomes:
                assert np.all(column[:, 0] <= column[:, 1])
                assert np.any(column[:, 0] < column[:, 1])

    @pytest.mark.parametrize("kind, digest", [
        ("independent", "7807093d7bf29a4073793bacf29e4282"
                        "6680cd7145855233eb81cb8a9574089b"),
        ("per_user", "a1e153cb4f6d2b8d036304143db91693"
                     "e5399345fc4e7539a679f9e4f487f8f7"),
        ("uplink", "5cd5f2c94d7800037c2b540feacf114e"
                   "d3f596d6ae3f282c6bad03162545e1cf"),
    ])
    def test_sweep_outcomes_pinned(self, monkeypatch, kind, digest):
        # SHA-256 of the per-replication outcome arrays of a three-radius
        # sweep, as drawn when each radius step was its own pass: the
        # ring counts and the one Beta draw over all steps keep its bits
        net = make_net(coverage_radius=0.06)
        sc = SpatialScenario.for_network(net, 300, seed=7)
        radii = (0.02, 0.04, 0.06)
        _, outcomes = _blocks(monkeypatch,
                              lambda: _SWEEPS[kind](net, sc, radii))
        h = hashlib.sha256()
        for column in outcomes:
            assert column.shape == (300, 3)
            h.update(column.dtype.str.encode())
            h.update(np.ascontiguousarray(column).tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("kind", sorted(_SWEEPS))
    def test_window_fits_largest_radius(self, kind):
        net = make_net(coverage_radius=0.06)
        sc = SpatialScenario.for_network(make_net(coverage_radius=0.03), 10,
                                         seed=1)
        with pytest.raises(ValueError, match="half-width"):
            _SWEEPS[kind](net, sc, (0.03, 0.06))

    @pytest.mark.parametrize("kind", sorted(_SWEEPS))
    @pytest.mark.parametrize("radii", [(0.06, 0.03), (0.03, 0.03, 0.06),
                                       ()])
    def test_radii_strictly_increasing(self, kind, radii):
        net = make_net(coverage_radius=0.06)
        sc = SpatialScenario.for_network(net, 10, seed=1)
        with pytest.raises(ValueError, match="strictly increasing"):
            _SWEEPS[kind](net, sc, radii)


class TestUplink:
    def test_deterministic(self, fig_net):
        sc = SpatialScenario.for_network(fig_net, 400, seed=7)
        (a,) = simulate_uplink_outage(fig_net, sc)
        (b,) = simulate_uplink_outage(fig_net, sc)
        assert a.estimate == b.estimate
        assert a.ap_count_mean == b.ap_count_mean

    def test_seed_changes_stream(self, fig_net):
        (a,) = simulate_uplink_outage(
            fig_net, SpatialScenario.for_network(fig_net, 400, seed=7))
        (b,) = simulate_uplink_outage(
            fig_net, SpatialScenario.for_network(fig_net, 400, seed=8))
        assert a.ap_count_mean != b.ap_count_mean

    def test_ap_count_calibration(self, fig_net):
        sc = SpatialScenario.for_network(fig_net, 3000, seed=11)
        (out,) = simulate_uplink_outage(fig_net, sc)
        nu = mean_connected_aps(fig_net)
        assert abs(out.ap_count_mean - nu) <= 4.0 * out.ap_count_se

    @pytest.mark.parametrize("radius", [0.03, 0.08])
    def test_matches_analytic(self, radius):
        net = make_net(coverage_radius=radius)
        sc = SpatialScenario.for_network(net, 3000, seed=3)
        (out,) = simulate_uplink_outage(net, sc)
        assert abs(out.estimate - comm.uplink_outage(net)) \
            <= 0.02 + 4.0 * out.stderr


class TestDownlink:
    def test_independent_moments(self, fig_net):
        sc = SpatialScenario.for_network(fig_net, 20000, seed=5)
        (out,) = simulate_downlink_sir(fig_net, sc,
                                       beam_placement="independent")
        params = comm.gamma_interference_params(fig_net)
        assert abs(out.i_mean - params.mean) <= 4.0 * out.i_mean_se
        # the variance estimator is heavy-tailed at this budget; its own
        # stderr (fourth-moment based) is the only stable yardstick
        assert abs(out.i_var - params.variance) <= 4.0 * out.i_var_se

    @pytest.mark.parametrize("placement", ["per_user", "independent"])
    def test_outage_bounded(self, fig_net, placement):
        sc = SpatialScenario.for_network(fig_net, 500, seed=9)
        (out,) = simulate_downlink_sir(fig_net, sc, beam_placement=placement)
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
    seen = log.in_system[mask, server_id]
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
        a = simulate_mlcm(fig_net, mix_comp, 30.0, seed=21, n_mec=2,
                          p_oul=comm.uplink_outage(fig_net))
        b = simulate_mlcm(fig_net, mix_comp, 30.0, seed=21, n_mec=2,
                          p_oul=comm.uplink_outage(fig_net))
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

    @pytest.mark.parametrize("n_mec", [1, 4])
    def test_sliced_dispatch_matches_one_call(self, n_mec):
        # simulate_mlcm serves a chunk _SLICE tasks at a time: slices that
        # share the queues must give the servers, departures and final
        # queues of one call. Each server runs at utilisation 0.9, so
        # backlogs cross the cuts and edge servers often tie in part.
        n = 2000
        rng = np.random.default_rng([17, n_mec])
        arrival = np.cumsum(rng.exponential(size=n))
        to_cs = rng.random(n) < 0.3
        service = rng.exponential(size=n) * np.where(
            to_cs, 0.9 / 0.3, 0.9 * n_mec / 0.7)
        tie = rng.random(n)
        columns = [a.tolist() for a in (arrival, to_cs, service, tie)]

        whole = [deque() for _ in range(1 + n_mec)]
        want = sim._dispatch(whole, *columns)
        cuts = [0, 1, 2, 150, 151, 700, 1333, n]
        queues = [deque() for _ in range(1 + n_mec)]
        got = ([], [])
        for lo, hi in zip(cuts, cuts[1:]):
            part = sim._dispatch(queues, *(c[lo:hi] for c in columns))
            got[0].extend(part[0])
            got[1].extend(part[1])
        assert got == want
        assert [list(q) for q in queues] == [list(q) for q in whole]

        departure = np.array(want[1])
        assert any(departure[:b].max() > arrival[b] for b in cuts[1:-1])
        if n_mec > 1:
            counts = sim._in_system(arrival, np.array(want[0]), departure,
                                    1 + n_mec)[~to_cs, 1:]
            ties = (counts == counts.min(axis=1)[:, None]).sum(axis=1)
            assert ((ties > 1) & (ties < n_mec)).any()

    def test_longer_run_starts_with_shorter(self, mix_comp):
        # both runs cross a chunk boundary
        net = make_net(lambda_d=4000.0, coverage_radius=0.1)
        comp = replace(mix_comp, offload_prob=0.04)
        short = simulate_mlcm(net, comp, 300.0, seed=1, n_mec=20, p_oul=0.0)
        long = simulate_mlcm(net, comp, 900.0, seed=1, n_mec=20, p_oul=0.0)
        n = len(short)
        assert sim._CHUNK < n < len(long)
        for name in ("arrival_s", "server_id", "sojourn_s", "in_system"):
            assert np.array_equal(getattr(long, name)[:n],
                                  getattr(short, name))

    def test_drains_and_orders(self, fig_net, mix_comp):
        log = simulate_mlcm(fig_net, mix_comp, 50.0, seed=2, n_mec=3,
                            p_oul=comm.uplink_outage(fig_net))
        assert not np.any(np.isnan(log.sojourn_s))
        assert np.all(np.diff(log.arrival_s) >= 0.0)
        assert log.arrival_s[-1] <= 50.0
        assert log.server_id.min() >= 0 and log.server_id.max() <= 3
        assert np.all(log.sojourn_s > 0.0)

    def test_in_system_shape(self, fig_net, mix_comp):
        log = simulate_mlcm(fig_net, mix_comp, 20.0, seed=4, n_mec=4,
                            p_oul=comm.uplink_outage(fig_net))
        assert log.in_system.shape == (len(log), 1 + 4)

    def test_littles_law_central(self, fig_net, mix_comp):
        log = simulate_mlcm(fig_net, mix_comp, 400.0, seed=6, n_mec=2,
                            p_oul=comm.uplink_outage(fig_net))
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
        seen = log.in_system[log.analysis_mask(), 1]
        pmf = np.bincount(seen) / len(seen)
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
            simulate_mlcm(fig_net, mix_comp, 0.0, seed=1, n_mec=2,
                          p_oul=comm.uplink_outage(fig_net))
        with pytest.raises(ValueError):
            simulate_mlcm(fig_net, mix_comp, 10.0, seed=1, n_mec=-1,
                          p_oul=comm.uplink_outage(fig_net))

    def test_warmup_mask(self, fig_net, mix_comp):
        log = simulate_mlcm(fig_net, mix_comp, 30.0, seed=3, n_mec=2,
                            p_oul=comm.uplink_outage(fig_net))
        mask = log.analysis_mask()
        n_warm = int(0.1 * len(log))
        assert not mask[:n_warm].any()
        assert mask.sum() <= len(log) - n_warm
