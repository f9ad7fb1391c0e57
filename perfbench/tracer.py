"""Outside-in per-layer tracing of cfedge.

The tracer wraps library functions from outside the package: it replaces
every binding of each traced function in every loaded ``cfedge`` module,
so names imported with ``from .offload import mec_conditional_cdf`` (or
renamed, like ``energy._secp_best_theta``) are traced too. Modules are
reached through ``sys.modules``: ``cfedge.secp`` as an attribute is the
function, which shadows the submodule.

Each wrapped call is a span. Spans are folded into per-name totals as they
close (calls, and self time: the span's duration minus that of its traced
callees), because the per-n offload functions run about a million times a
pass and a span list would not fit in memory. A few probes add counters
read from arguments and results. Wrapping costs a few microseconds per
call, so self times of the hot per-n functions are inflated; the
benchmark reports the traced-minus-untraced wall time as the overhead.
"""

from __future__ import annotations

import functools
import sys
import time
import warnings

# (module, qualified name) of every traced function, by layer.
TRACED = (
    ("specfun", "invert_laplace_cdf"),
    ("specfun", "gamma_expectation"),
    ("comm", "per_ap_success"),
    ("comm", "uplink_outage"),
    ("comm", "downlink_outage"),
    ("offload", "mec_conditional_cdf"),
    ("offload", "poisson_weights"),
    ("offload", "scp_cs"),
    ("offload", "scp_mec"),
    ("offload", "queue_spectrum"),
    ("secp", "secp"),
    ("secp", "find_r_threshold"),
    ("secp", "_best_theta"),
    ("energy", "minimize_energy"),
    ("sim", "simulate_uplink_outage"),
    ("sim", "simulate_downlink_sir"),
    ("sim", "simulate_mlcm"),
    ("cli", "run_experiment"),
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Per-name call counts and times, plus probe counters."""

    def __init__(self):
        self.stats = {}          # "layer.func" -> [calls, self_s]
        self.counters = {}       # probe counters
        self.op = 0              # index of the current op, set by the caller
        self._stack = []         # open spans: [name, traced child time]
        self._radii = set()      # (op, network) pairs seen by per_ap_success
        self._cdf_depth = 0      # > 0 inside MecCdfCache.cdf
        self._patched = []       # (owner, attribute, original)
        self._warnings = None
        self._caught = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "cfedge" or name.startswith("cfedge.")}
        for layer, func in TRACED:
            original = getattr(mods["cfedge." + layer], func)
            wrapper = self._wrap(f"{layer}.{func}", original,
                                 getattr(self, f"_probe_{layer}_{func}",
                                         None))
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        cache_cls = mods["cfedge.offload"].MecCdfCache
        original_cdf = cache_cls.cdf
        self._patched.append((cache_cls, "cdf", original_cdf))
        cache_cls.cdf = self._wrap_cdf(original_cdf)
        self._warnings = warnings.catch_warnings(record=True)
        self._caught = self._warnings.__enter__()
        warnings.simplefilter("always")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self._warnings is not None:
            self._warnings.__exit__(None, None, None)
            self._warnings = None

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, probe):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur - frame[1]
            if probe is not None:
                probe(args, kwargs, result, dur)
            return result

        return traced

    def _wrap_cdf(self, cdf):
        # Counting only: MecCdfCache.cdf runs over a million times a pass,
        # too often for a timed span.
        counters = self.counters
        counters["offload.mec_cache.lookups"] = 0
        tracer = self

        @functools.wraps(cdf)
        def counted(cache, v):
            counters["offload.mec_cache.lookups"] += 1
            tracer._cdf_depth += 1
            try:
                return cdf(cache, v)
            finally:
                tracer._cdf_depth -= 1

        return counted

    def _add(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    # -- probes: _probe_<layer>_<func>(args, kwargs, result, seconds) --------

    def _probe_specfun_invert_laplace_cdf(self, args, kwargs, result, dur):
        if self._cdf_depth:
            self._add("offload.mec_cache.inversions")

    def _probe_comm_per_ap_success(self, args, kwargs, result, dur):
        self._radii.add((self.op, _arg(args, kwargs, 0, "net")))

    def _probe_offload_poisson_weights(self, args, kwargs, result, dur):
        self._add("offload.poisson_weights.total_len", len(result))

    def _probe_secp_secp(self, args, kwargs, result, dur):
        if self.inside("secp.find_r_threshold"):
            self._add("secp.secp.in_search")
        if self.inside("energy.minimize_energy"):
            self._add("secp.secp.in_minimize")

    def _probe_sim_simulate_uplink_outage(self, args, kwargs, result, dur):
        scenario = _arg(args, kwargs, 1, "scenario")
        self._add("sim.uplink.reps", scenario.replications)
        self._add("sim.uplink.s", dur)

    def _probe_sim_simulate_downlink_sir(self, args, kwargs, result, dur):
        scenario = _arg(args, kwargs, 1, "scenario")
        placement = _arg(args, kwargs, 2, "beam_placement", "per_user")
        self._add(f"sim.downlink_{placement}.reps", scenario.replications)
        self._add(f"sim.downlink_{placement}.s", dur)

    def _probe_sim_simulate_mlcm(self, args, kwargs, result, dur):
        self._add("sim.des.tasks", len(result))
        self._add("sim.des.s", dur)

    # -- report --------------------------------------------------------------

    def summary(self) -> dict:
        """Raw totals: per-name [calls, self_s], counters and warning
        counts."""
        caught = self._caught or []
        messages = [str(w.message) for w in caught]
        counters = dict(self.counters)
        counters["comm.per_ap_success.distinct_nets"] = len(self._radii)
        counters["specfun.doubling_gap_warnings"] = sum(
            "doubling gap" in m for m in messages)
        counters["comm.clamp_warnings"] = sum(
            "clamped from" in m for m in messages)
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counters": counters}
