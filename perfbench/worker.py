"""One benchmark pass in a fresh interpreter.

Run by ``run.py``, never imported by it: each pass starts from a fresh
interpreter so module-level state such as ``cfedge.cli._MEC_CACHES``
starts empty. The worker imports cfedge from ``src/`` of the checkout,
runs the lazy set-up, then runs every op of the workload through
``cfedge.cli.run_experiment`` (one worker process) and prints one JSON
report line on stdout.

Host speed on a shared machine changes within a second, so the worker
samples it throughout (``HostSpeed``): a timer signal runs a fixed kernel
every ``HostSpeed.INTERVAL_S``, and once more before and after each op.
For set-up and for each op the report gives the mean host speed over its
samples (1 / kernel seconds) and the time net of the probe's own. run.py
scales times by it.

    python3 perfbench/worker.py --workload search --seed 1 \
        --out .perfbench_out/p0 [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_cfedge():
    sys.path.insert(0, SRC)
    import cfedge.cli
    where = os.path.abspath(sys.modules["cfedge"].__file__)
    if not where.startswith(SRC + os.sep):
        raise SystemExit(f"cfedge imported from {where}, not from {SRC}")
    return cfedge.cli


def _warm_up(workload: str) -> None:
    """Lazy set-up the workload's first op would pay: Gauss-Laguerre rules
    at each antenna count it uses, numpy.polynomial, scipy quadrature, one
    Laplace inversion and, for ``oracle``, the three simulators at two
    replications. Leaves no state behind but those caches;
    ``cli._MEC_CACHES`` stays empty."""
    from cfedge import comm, offload, sim
    from cfedge.model import ComputeConfig, NetworkConfig
    from cfedge.presets import COMPUTE_MIX

    for m in (4,) if workload == "oracle" else (1, 4, 8):
        net = NetworkConfig(lambda_b=400.0, lambda_d=100.0,
                            antennas_per_ap=m, coverage_radius=0.05)
        comm.per_ap_success(net)
        comm.downlink_outage(net)
    comp = ComputeConfig(type_probs=COMPUTE_MIX["type_probs"],
                         mu_c=COMPUTE_MIX["mu_c"], mu_m=COMPUTE_MIX["mu_m"])
    offload.queue_spectrum(comp, 1.0)
    offload.scp_cs(comp, 1.0)
    if workload == "oracle":
        scenario = sim.SpatialScenario.for_network(net, 2, seed=0)
        sim.simulate_uplink_outage(net, scenario)
        sim.simulate_downlink_sir(net, scenario)
        sim.simulate_mlcm(net, comp, 0.05, seed=0, n_mec=2, p_oul=0.0)


def python_kernel(n: int) -> float:
    """Set-up's host-speed kernel: pure Python, so it runs before numpy
    is imported. Over 80 set-ups on a shared 2-core Xeon host it cut the
    spread of set-up time from 25 % to 6 % (coefficient of variation),
    against 17 % for a memory copy and 8 % for a stat() loop."""
    acc = 0.0
    for i in range(n):
        acc += math.exp(-i * 1e-3) * (i % 7)
    return acc


def numpy_kernel(n: int) -> float:
    """The ops' host-speed kernel: interpreter work and small numpy calls,
    like the closed forms. Over repeated search, surface and oracle ops on
    the same host it left a spread of 1-4 % (coefficient of variation,
    against 9-20 % unscaled), against 5-8 % for python_kernel and 7-14 %
    for a 4 MB copy or a 500,000-element numpy sum."""
    import numpy as np

    x = np.linspace(0.1, 1.0, 64)
    acc = 0.0
    for i in range(n):
        acc += math.exp(-i * 1e-3) * float(np.sum(x * i))
    return acc


# Iterations of each kernel in one host-speed sample.
KERNEL_SIZE = {python_kernel: 2000, numpy_kernel: 300}


def calibrate(kernel) -> float:
    """Time of one kernel sample, after a short untimed run that warms
    its code. The kernels run no cfedge code, so no change to the program
    moves them."""
    n = KERNEL_SIZE[kernel]
    kernel(n // 10)
    t0 = time.perf_counter()
    kernel(n)
    return time.perf_counter() - t0


class HostSpeed:
    """Host-speed samples taken while the worker runs."""

    INTERVAL_S = 0.1

    def __init__(self):
        self.kernel = python_kernel
        self.samples = []    # kernel seconds
        self.spent = 0.0     # seconds spent in the timer handler
        self._sampling = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def _on_timer(self, signum, frame) -> None:
        if self._sampling:
            return      # a sample in progress would time this one too
        t0 = time.perf_counter()
        self.sample()
        self.spent += time.perf_counter() - t0

    def sample(self) -> None:
        self._sampling = True
        try:
            self.samples.append(calibrate(self.kernel))
        finally:
            self._sampling = False

    def speed(self, since: int) -> float:
        """Mean host speed, 1 / kernel seconds, over samples[since:]."""
        return statistics.fmean(1.0 / k for k in self.samples[since:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    probe = HostSpeed()
    probe.start()
    try:
        report = _run(args, probe)
    finally:
        probe.stop()
    print(json.dumps(report))
    return 0


def _run(args, probe: HostSpeed) -> dict:
    cli = _import_cfedge()
    _warm_up(args.workload)
    report = {"ready_monotonic": time.monotonic(),
              "setup_probe_s": probe.spent}
    probe.sample()
    report["setup_speed"] = probe.speed(0)
    if args.setup_only:
        return report
    probe.kernel = numpy_kernel

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    specs = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()

    op_s, op_speed, codes, labels = [], [], [], []
    for i, mapping in enumerate(specs):
        if tracer is not None:
            tracer.op = i
        first = len(probe.samples)
        probe.sample()
        spent = probe.spent
        t0 = time.perf_counter()
        try:
            spec = cli.ExperimentSpec.from_mapping(mapping)
            code = cli.run_experiment(spec, out_dir=args.out, workers=1)
        except Exception:
            # What `cfedge run` would exit with on an uncaught exception.
            traceback.print_exc()
            code = 1
        op_s.append(time.perf_counter() - t0 - (probe.spent - spent))
        probe.sample()
        op_speed.append(probe.speed(first))
        codes.append(code)
        labels.append(mapping["label"])

    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
    report.update(op_s=op_s, op_speed=op_speed, codes=codes, labels=labels,
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return report


if __name__ == "__main__":
    sys.exit(main())
