"""The cfedge benchmark: one command per workload.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports cfedge from ``src/`` there
and writes only under ``.perfbench_out/``. Workloads (see workloads.py):
``search``, ``surface`` and ``oracle``.

A pass runs every op of the workload once, in a fresh interpreter
(worker.py). With ``--trace 0`` the run measures set-up in
``SETUP_SAMPLES`` extra fresh interpreters, then runs passes until
``--seconds`` have gone by, and at least ``MIN_PASSES``, and prints the
end-to-end metrics. A run that would overrun its deadline (``DEADLINE_S``,
or ``--seconds`` plus ``DEADLINE_MARGIN_S`` if later) makes fewer passes
instead, at least one, so a slow change is measured rather than aborted;
the pass count is printed.

- ``wall_s``: median over passes of the pass's summed op times, so set-up
  and the checks are excluded;
- ``op_p50_ms``: median op time over all passes;
- ``op_tail_ms``: the tail percentile of op times over all passes. It is
  the highest percentile with ten ops beyond it in ``MIN_PASSES`` passes
  and is fixed per workload (it is printed). A workload with too few ops
  for that (``oracle``, one op per pass) reports its slowest op;
- ``setup_s``: interpreter start, import of cfedge and the lazy set-up of
  the workload's first op, median over the fresh interpreters of the run:
  those of the passes and ``SETUP_SAMPLES`` more;
- ``peak_rss_mb``: median over passes of the pass's peak resident memory.

With ``--trace 1`` it runs one untraced and one traced pass and prints
the per-layer metrics of the traced pass, plus the tracing overhead
(traced minus untraced wall time). Self times of the hot per-n functions
carry that overhead.

Host speed on a shared machine drifts by tens of percent within a
second, so every reported time is scaled to a reference host speed: it is
multiplied by the kernel time on the reference host (``SETUP_REF_S``,
``OP_REF_S``) times the mean host speed the worker sampled while it ran
(worker.HostSpeed: a fixed kernel that runs no cfedge code, timed every
0.1 s and around each op; its own time is subtracted). The unscaled
figures are printed too. Per-layer times, other than the tracing
overhead, are unscaled and include the probe's time.

Every op's output is checked (checks.py), and all passes of a run must
write byte-identical outputs. The line before the result line holds host
facts, the tail percentile, the unscaled times, and for the closed-form
workloads the SHA-256 of all rows of a pass. Compare it with the digest of
the parent commit on the same seed: model fixes change these numbers on
purpose, so it is printed, not checked. The last line is the result
object.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
MIN_PASSES = 3
DEADLINE_S = 170.0
DEADLINE_MARGIN_S = 60.0
# A pass is predicted to take this much longer than the slowest so far.
PASS_MARGIN = 1.25
TAIL_BEYOND = 10
# Host-speed kernel times (worker.calibrate) on the reference host, for
# set-up (worker.python_kernel) and ops (worker.numpy_kernel); reported
# times are scaled to that host speed.
SETUP_REF_S = 0.4e-3
OP_REF_S = 2.0e-3
CLOSED_FORM = ("search", "surface")

# One thread per BLAS / OpenMP pool: the workloads are serial, and thread
# pools sized to the host would make timings depend on the core count.
THREAD_ENV = {key: "1" for key in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

# Per-layer metrics: traced function -> reported call count / self time.
LAYER_CALLS = ("specfun.invert_laplace_cdf", "specfun.gamma_expectation",
               "comm.per_ap_success", "comm.downlink_outage",
               "comm.uplink_outage", "offload.mec_conditional_cdf",
               "offload.poisson_weights", "offload.scp_cs", "offload.scp_mec",
               "offload.queue_spectrum", "secp.secp", "secp._best_theta",
               "energy.minimize_energy")
LAYER_SELF = ("specfun.invert_laplace_cdf", "specfun.gamma_expectation",
              "comm.per_ap_success", "comm.downlink_outage",
              "offload.mec_conditional_cdf", "offload.scp_cs",
              "offload.scp_mec", "offload.queue_spectrum", "secp.secp",
              "secp._best_theta", "secp.find_r_threshold",
              "energy.minimize_energy", "cli.run_experiment")


class BenchError(RuntimeError):
    pass


class Run:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.deadline = self.started + max(DEADLINE_S,
                                           seconds + DEADLINE_MARGIN_S)
        self.env = dict(os.environ, **THREAD_ENV)
        self.env.pop("PYTHONPATH", None)
        self.setup_s = []         # scaled to the reference host speed
        self.setup_raw_s = []

    def _child(self, *extra) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run exceeded its time budget")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed), *extra]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("worker exceeded the run's time budget") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n"
                             + proc.stderr[-2000:])
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError("worker printed no report:\n"
                             + proc.stderr[-2000:]) from None
        setup = report["ready_monotonic"] - spawned - report["setup_probe_s"]
        self.setup_raw_s.append(setup)
        self.setup_s.append(setup * SETUP_REF_S * report["setup_speed"])
        return report

    def setup_only(self) -> None:
        self._child("--out", OUT, "--setup-only")

    def run_pass(self, index: int, trace: bool) -> dict:
        out = os.path.join(OUT, f"pass{index}")
        shutil.rmtree(out, ignore_errors=True)
        started = time.monotonic()
        report = self._child("--out", out, *(["--trace"] if trace else []))
        report["pass_s"] = time.monotonic() - started
        results = [checks.check_op(out, label, code)
                   for label, code in zip(report["labels"], report["codes"])]
        report["errors"] = [f"{label}: {err}" for label, res
                            in zip(report["labels"], results)
                            for err in res.errors]
        report["failed"] = sum(res.failed for res in results)
        report["checks_failed"] = sum(res.checks_failed for res in results)
        report["csv_bytes"] = sum(len(res.csv_bytes) for res in results)
        report["digest"] = checks.digest(results)
        report["scaled_s"] = [t * OP_REF_S * speed for t, speed
                              in zip(report["op_s"], report["op_speed"])]
        report["wall_s"] = sum(report["scaled_s"])
        shutil.rmtree(out, ignore_errors=True)
        return report

    def room_for_pass(self, passes: list) -> bool:
        """Whether another pass, predicted from the slowest so far, ends
        before the deadline."""
        slowest = max(p["pass_s"] for p in passes)
        return time.monotonic() + PASS_MARGIN * slowest < self.deadline


def tail_rank(ops_per_pass: int) -> tuple:
    """The tail percentile, as the fraction (num, den): the highest one
    with TAIL_BEYOND ops beyond it in MIN_PASSES passes, or the slowest op
    where there are not that many. Fixed per workload, so runs with more
    passes stay comparable."""
    n_min = MIN_PASSES * ops_per_pass
    if n_min <= TAIL_BEYOND:
        return n_min, n_min
    return n_min - TAIL_BEYOND, n_min


def tail(op_ms: list, ops_per_pass: int) -> float:
    """Nearest-rank tail percentile of the pooled op times."""
    num, den = tail_rank(ops_per_pass)
    rank = -(-num * len(op_ms) // den)
    return sorted(op_ms)[rank - 1]


def host_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor()
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "loadavg_at_start": list(os.getloadavg()),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "thread_env": THREAD_ENV}


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list, setup_s: list) -> dict:
    op_ms = [t * 1000.0 for p in passes for t in p["scaled_s"]]
    return {
        "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_ms": metric(statistics.median(op_ms), "ms"),
        "op_tail_ms": metric(tail(op_ms, len(passes[0]["op_s"])), "ms"),
        "setup_s": metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": metric(statistics.median(
            p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(untraced: dict, traced: dict, attempted: int,
              failed: int) -> dict:
    stats = traced["trace"]["stats"]
    counters = traced["trace"]["counters"]

    def calls(name):
        return stats[name][0]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = metric(calls(name), "count")
    for name in LAYER_SELF:
        out[f"{name}.self_s"] = metric(stats[name][1], "s")
    out["specfun.doubling_gap_warnings"] = metric(
        counters["specfun.doubling_gap_warnings"], "count")
    out["comm.clamp_warnings"] = metric(counters["comm.clamp_warnings"],
                                        "count")
    out["comm.radius_reuse"] = metric(ratio(
        counters["comm.per_ap_success.distinct_nets"],
        calls("comm.per_ap_success")), "ratio")
    out["offload.poisson_weights.mean_len"] = metric(ratio(
        counters.get("offload.poisson_weights.total_len", 0),
        calls("offload.poisson_weights")), "count")
    lookups = counters["offload.mec_cache.lookups"]
    out["offload.mec_cache.hit_ratio"] = metric(
        1.0 - ratio(counters.get("offload.mec_cache.inversions", 0), lookups)
        if lookups else 0.0, "ratio")
    out["offload.mec_cache.lookups"] = metric(lookups, "count")
    out["secp.evals_per_search"] = metric(ratio(
        counters.get("secp.secp.in_search", 0),
        calls("secp.find_r_threshold")), "count")
    out["energy.evals_per_minimize"] = metric(ratio(
        counters.get("secp.secp.in_minimize", 0),
        calls("energy.minimize_energy")), "count")
    for kind in ("uplink", "downlink_per_user", "downlink_independent"):
        reps = counters.get(f"sim.{kind}.reps", 0)
        out[f"sim.{kind}.reps"] = metric(reps, "count")
        out[f"sim.{kind}.us_per_rep"] = metric(
            1e6 * ratio(counters.get(f"sim.{kind}.s", 0.0), reps), "us")
    tasks = counters.get("sim.des.tasks", 0)
    out["sim.des.tasks"] = metric(tasks, "count")
    out["sim.des.us_per_task"] = metric(
        1e6 * ratio(counters.get("sim.des.s", 0.0), tasks), "us")
    out["sim.checks_failed"] = metric(traced["checks_failed"], "count")
    out["cli.csv_bytes"] = metric(traced["csv_bytes"], "bytes")
    out["ops_attempted"] = metric(attempted, "count")
    out["ops_failed"] = metric(failed, "count")
    out["trace.overhead_s"] = metric(traced["wall_s"] - untraced["wall_s"],
                                     "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cfedge", "__init__.py")):
        print(f"perfbench: no cfedge sources under {ROOT}/src",
              file=sys.stderr)
        return 2

    host = host_facts()
    run = Run(args.workload, args.seed, args.seconds)
    shutil.rmtree(OUT, ignore_errors=True)
    try:
        if args.trace:
            passes = [run.run_pass(0, trace=False), run.run_pass(1, trace=True)]
        else:
            for _ in range(SETUP_SAMPLES):
                run.setup_only()
            measuring = time.monotonic()
            passes = [run.run_pass(0, trace=False)]
            while (len(passes) < MIN_PASSES
                   or time.monotonic() - measuring < args.seconds) \
                    and run.room_for_pass(passes):
                passes.append(run.run_pass(len(passes), trace=False))
        attempted = sum(len(p["op_s"]) for p in passes)
        failed = sum(p["failed"] for p in passes)
        if args.trace:
            metrics = per_layer(passes[0], passes[1], attempted, failed)
        else:
            metrics = end_to_end(passes, run.setup_s)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT, ignore_errors=True)

    digests = sorted({p["digest"] for p in passes})
    num, den = tail_rank(len(passes[0]["op_s"]))
    info = {"workload": args.workload, "seed": args.seed,
            "passes": len(passes), "ops_per_pass": len(passes[0]["op_s"]),
            "op_tail_percentile": 100.0 * num / den,
            "sim_checks_failed": [p["checks_failed"] for p in passes],
            "pass_wall_s": [p["wall_s"] for p in passes],
            "setup_samples_s": run.setup_s,
            "unscaled": {
                "wall_s": statistics.median(sum(p["op_s"]) for p in passes),
                "op_p50_ms": 1000.0 * statistics.median(
                    t for p in passes for t in p["op_s"]),
                "setup_s": statistics.median(run.setup_raw_s),
                "setup_samples_s": run.setup_raw_s,
                "calibration_ms": 1000.0 / statistics.median(
                    v for p in passes for v in p["op_speed"])},
            "errors": [e for p in passes for e in p["errors"]][:20],
            "digest_same_every_pass": len(digests) == 1,
            "host": host}
    if args.workload in CLOSED_FORM:
        info["closed_form_sha256"] = digests[0]
    print(json.dumps({"info": info}))
    # Reruns of one spec and seed must be byte-identical (README), so
    # passes whose outputs differ make the run incorrect.
    print(json.dumps({"correct": failed == 0 and len(digests) == 1,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
