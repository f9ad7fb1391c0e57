"""Task offloading and queueing layer.

Arrival rates at the central server and at a typical edge server follow
from thinning the user field by the uplink success probability and by the
minimum-load dispatch rule. Each edge server is an M/G/1 queue with
hyperexponential service; its stationary queue length is a mixture of
geometric terms, with roots bracketed between the poles of a rational
function and weights from residues in closed form. The latency CDFs come
from numerical transform inversion.

One pass, rate_cdfs, scores a row of offload splits from the arrival rates
and central loads its callers compute once per split: split_cdfs (for
scp_splits, from one per-network cache, radius_terms) and
secp.secp_splits. scp_mec mixes an edge CDF row over the server count.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import comm
from .errors import NumericalError, StabilityError
from .model import ComputeConfig, NetworkConfig, mean_connected_aps
from .specfun import _euler_nodes, brent_root, invert_laplace_cdf

_POISSON_TAIL = 1e-10
_GEO_TAIL = 1e-10
# half the spacing of the doubles in [0.5, 1), the least from 0.5 up: for
# p >= 0.5, p - x rounds to p when |x| is below it
_HALF_ULP_AT_HALF = 2.0 ** -54
# exp(-nu) is a normal float below this mean; above it the pmf recursion
# would start from a subnormal (or zero) value
_POISSON_RECURSION_MAX = 708.0

# ----------------------------------------------------------------------------
# arrival rates
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrivalRates:
    lambda_c: float   # tasks/s entering the central server (network-wide)
    lambda_m: float   # tasks/s actually joining one edge server


def min_dispatch_prob(nu: float) -> float:
    """P[a candidate's server is the minimum-load choice], (1 - e^-nu)/nu."""
    if nu < 0:
        raise ValueError("mean server count cannot be negative")
    if nu < 1e-8:
        return 1.0 - nu / 2.0
    return -math.expm1(-nu) / nu


def arrival_rates(net: NetworkConfig, comp: ComputeConfig,
                  p_oul: float) -> ArrivalRates:
    """Thinned task arrival rates given the uplink outage probability."""
    return ArrivalRates(*split_rates(
        net, comp.offload_prob, 1.0 - p_oul,
        min_dispatch_prob(mean_connected_aps(net))))


def split_rates(net: NetworkConfig, theta: float, success: float,
                dispatch: float) -> tuple:
    """(lambda_c, lambda_m) at offload split theta, given the uplink
    success probability and min_dispatch_prob of the mean server count;
    neither depends on the split, so a split search computes them once per
    radius."""
    return (theta * net.lambda_d * net.network_area * success,
            (1.0 - theta) * net.lambda_d * math.pi * net.coverage_radius ** 2
            * success * dispatch)


# ----------------------------------------------------------------------------
# stationary queue-length spectrum of one edge server
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class QueueSpectrum:
    """Geometric-mixture form of the stationary queue length.

    P[N = v] = sum_i weights[i] * roots[i]^v, with P[N >= v] available in
    closed form because |roots[i]| < 1.
    """

    roots: tuple
    weights: tuple
    rho_m: float

    def pmf(self, v: int) -> float:
        return float(sum(w * r ** v for w, r in zip(self.weights, self.roots)))

    def tail(self, v: int) -> float:
        """P[N >= v]; with one root, the float sum's 0 + x, no generator."""
        if len(self.roots) == 1:
            (w,), (r,) = self.weights, self.roots
            return 0.0 + w * r ** v / (1.0 - r)
        return float(sum(w * r ** v / (1.0 - r)
                         for w, r in zip(self.weights, self.roots)))

    @property
    def max_root(self) -> float:
        return max(abs(r) for r in self.roots)


def edge_load(comp: ComputeConfig, lambda_m: float) -> float:
    """Utilization rho_m of an edge server at arrival rate lambda_m;
    StabilityError if the queue is overloaded (rho_m >= 1)."""
    if lambda_m < 0:
        raise ValueError("arrival rate cannot be negative")
    rho = lambda_m * comp.mean_service_time_mec
    if rho >= 1.0:
        raise StabilityError(f"edge server unstable: rho_m = {rho:.4f} >= 1")
    return rho


def queue_spectrum(comp: ComputeConfig, lambda_m: float) -> QueueSpectrum:
    """Roots and weights of the edge-server queue-length distribution.

    The roots are lam x for the roots x of h(x) = sum_l p_l (mu_l x - 1) /
    ((mu_l + lam)(x - x_l)) = a - lam sum_l p_l x_l^2 / (x - x_l), with one
    pole x_l = 1/(mu_l + lam) per distinct edge rate of a type with p_l > 0.
    h rises from -inf to +inf between consecutive poles and to
    h(1/lam) = 1 - rho past the last: one root per bracket, found by
    specfun.brent_root (NumericalError if it fails) as its offset from the
    pole on its left. Each weight is the residue of the queue-length
    generating function at z = 1/omega.
    """
    rho = edge_load(comp, lambda_m)
    n = comp.num_types
    if n == 1:
        return QueueSpectrum(roots=(rho,), weights=(1.0 - rho,), rho_m=rho)
    if rho < 1e-6:
        # exact at rate 0. Above it the roots sit ever closer to their
        # poles, where the root search starts, and it converges ever more
        # slowly; the queue is empty up to O(rho), which is below every
        # tolerance this value feeds
        return QueueSpectrum(roots=(0.0,) * n,
                             weights=(1.0,) + (0.0,) * (n - 1), rho_m=rho)

    lam = lambda_m
    merged = {}
    for p, mu in zip(comp.type_probs, comp.mu_m):
        if p > 0.0:
            merged[mu] = merged.get(mu, 0.0) + p
    mus = sorted(merged, reverse=True)  # poles ascending
    probs = [merged[mu] for mu in mus]
    poles = [1.0 / (mu + lam) for mu in mus]
    a = sum(p * mu * x for p, mu, x in zip(probs, mus, poles))
    b = [p * x * x for p, x in zip(probs, poles)]
    roots, eps = [], []
    for k, (mu_k, x_k) in enumerate(zip(mus, poles)):
        # x_k - x_l without the cancellation of subtracting the poles
        gaps = [(mu - mu_k) * x_k * x for mu, x in zip(mus, poles)]
        last = k == len(mus) - 1
        # the bracket's right end as an offset: the next pole, with every
        # later pole whose offset rounds onto it, or 1/lam
        w = mu_k * x_k / lam if last else -gaps[k + 1]
        b_next = 0.0 if last else sum(
            b_l for b_l, g_l in zip(b, gaps) if -w <= g_l < 0.0)
        others = [(b_l, g_l) for l, (b_l, g_l) in enumerate(zip(b, gaps))
                  if l != k and (last or not -w <= g_l < 0.0)]

        def cleared(u):
            # h(x_k + u) times u (w - u), or times u in the last bracket:
            # finite, negative at u = 0 and positive at u = w
            v = 1.0 if last else w - u
            far = sum(b_l / (u + g_l) for b_l, g_l in others)
            return u * v * (a - lam * far) - lam * (b[k] * v - b_next * u)

        # an absolute tolerance so small that the relative one decides
        u = brent_root(cleared, 0.0, w, xtol=float(np.finfo(float).tiny))
        omega = lam * (x_k + u)
        # (1 - rho)(1 - omega) / (omega (D - 1)), with D =
        # lam x^2 sum_l p_l mu_l / ((mu_l + lam)(x - x_l))^2
        big_d = lam * (x_k + u) ** 2 * sum(
            p * mu * x * x / (u + g_l) ** 2
            for p, mu, x, g_l in zip(probs, mus, poles, gaps))
        roots.append(omega)
        eps.append((1.0 - rho) * (1.0 - omega) / (omega * (big_d - 1.0)))

    spectrum = QueueSpectrum(roots=tuple(roots), weights=tuple(eps),
                             rho_m=rho)
    _validate_spectrum(spectrum)
    return spectrum


def _validate_spectrum(spec: QueueSpectrum) -> None:
    total = spec.tail(0)
    if abs(total - 1.0) > 1e-9:
        raise NumericalError(f"queue spectrum mass {total!r} differs from 1")
    v = np.arange(0, 200, 7)
    pmf = (np.array(spec.weights) * np.array(spec.roots) ** v[:, None]).sum(axis=1)
    negative = v[pmf < -1e-12]
    if negative.size:
        raise NumericalError(f"queue spectrum pmf negative at v = {negative[0]}")


# ----------------------------------------------------------------------------
# latency CDFs
# ----------------------------------------------------------------------------


def service_transform(rates, weights):
    """Laplace transform of a hyperexponential service time, vectorized in s."""
    r = np.asarray(rates, dtype=float)
    w = np.asarray(weights, dtype=float)

    def transform(s):
        s = np.asarray(s)
        return (w * r / (s[..., None] + r)).sum(axis=-1)

    return transform


@lru_cache(maxsize=64)
def _cs_service_values(mu_c: tuple, type_probs: tuple, t: float) -> np.ndarray:
    # the CS service transform at the Euler nodes invert_laplace_cdf reads
    # at t; it does not depend on the arrival rate
    b = service_transform(mu_c, type_probs)(_euler_nodes(t)[0])
    b.setflags(write=False)
    return b


def central_load(comp: ComputeConfig, lambda_c: float) -> float:
    """Utilization rho_c of the central server at arrival rate lambda_c;
    StabilityError if the queue is overloaded (rho_c >= 1)."""
    if lambda_c < 0:
        raise ValueError("arrival rate cannot be negative")
    rho = lambda_c * comp.mean_service_time_cs
    if rho >= 1.0:
        raise StabilityError(f"central server unstable: rho_c = {rho:.4f} >= 1")
    return rho


def scp_cs(comp: ComputeConfig, lambda_c: float) -> float:
    """P[central-server sojourn <= target latency] from the P-K transform;
    StabilityError if lambda_c overloads the server."""
    return _cs_cdf(comp, lambda_c, central_load(comp, lambda_c))


def _cs_cdf(comp: ComputeConfig, lam, rho):
    # scp_cs at rate lam of checked load rho: floats, or (K, 1) arrays of
    # K rates sharing one inversion, each with its one-rate bits
    b = _cs_service_values(comp.mu_c, comp.type_probs, comp.target_latency)
    return invert_laplace_cdf(lambda s: (1.0 - rho) * s * b
                              / (s - lam + lam * b), comp.target_latency)


class MecCdfCache:
    """Caches CDF values at latency t of (v+1)-fold sums of edge service
    times, whose law is given by type_probs and mu_m."""

    def __init__(self, type_probs: tuple, mu_m: tuple, t: float):
        self.t = t
        self._base = service_transform(mu_m, type_probs)
        self._values: dict[int, float] = {}

    def cdf(self, v: int) -> float:
        got = self._values.get(v)
        if got is None:
            base = self._base
            got = invert_laplace_cdf(lambda s: base(s) ** (v + 1), self.t)
            self._values[v] = got
        return got


_shared_mec_cache = lru_cache(maxsize=32)(MecCdfCache)


def mec_cache(comp: ComputeConfig) -> MecCdfCache:
    """The process-wide MecCdfCache of comp's edge service law and latency
    target; its values depend only on those, so sharing it changes no
    result."""
    return _shared_mec_cache(comp.type_probs, comp.mu_m, comp.target_latency)


def mec_conditional_cdf(spectra, n_max: int,
                        cache: MecCdfCache) -> np.ndarray:
    """P[edge sojourn <= t | n connected servers] for n = 0..n_max under
    each queue spectrum: row i, indexed by n, is summed over the minimum
    queue length v under spectra[i]; n = 0 gives 0.

    The sum for n stops after the first v with P[N >= v+1]^n < _GEO_TAIL,
    or once the geometric tail bound or the service-sum CDF is negligible.
    The first cut-off comes no later as n grows, so the n still summing
    are always 1..active. One walk over v serves every row and reads each
    tail and CDF value once; each row stops on its own cut-offs. The sums
    over v are Python floats, updated in place one v at a time, and become
    an array once at the end: the walk's later steps are short, so
    per-step array calls would cost more than the arithmetic.
    """
    sums = [[0.0] * n_max for _ in spectra]
    # P[N >= v]^n of every row, for n up to the row's count. Python's float
    # power (libm pow), which np.power does not match bit for bit; pow(1.0,
    # n) is 1.0.
    powers = [[1.0] * n_max if tail == 1.0 else
              [tail ** n for n in range(1, n_max + 1)]
              for tail in [spec.tail(0) for spec in spectra]]
    tails = [spec.tail for spec in spectra]
    max_roots = [spec.max_root for spec in spectra]
    active = [n_max] * len(spectra)
    v = 0
    while any(active):
        cdf = cache.cdf(v)
        v += 1
        for row, n in enumerate(active):
            if not n:
                continue
            tail = tails[row](v)
            total, before = sums[row], powers[row]
            if v == 1 and min(before[0], before[n - 1]) >= 0.5:
                # Every sum is still 0.0, and every P[N >= 0]^n is at least
                # 0.5, so a power P[N >= 1]^n below 2^-54, under half its
                # ulp, leaves P[N >= 0]^n - P[N >= 1]^n = P[N >= 0]^n
                # exactly. The powers fall with n, so this holds for every
                # later n too, and those powers, below _GEO_TAIL, are never
                # read again.
                after = []
                for k in range(1, n + 1):
                    power = tail ** k
                    if abs(power) < _HALF_ULP_AT_HALF:
                        total[k - 1:n] = [p * cdf for p in before[k - 1:n]]
                        n = k - 1
                        break
                    after.append(power)
            else:
                after = [tail ** k for k in range(1, n + 1)]
            total[:n] = [t + (p - q) * cdf
                         for t, p, q in zip(total, before, after)]
            powers[row] = after
            # tail ** k falls with k, so the powers >= _GEO_TAIL lead
            while n and after[n - 1] < _GEO_TAIL:
                n -= 1
            max_root = max_roots[row]
            if max_root > 0.0 and \
                    max_root ** (v + 1) / (1.0 - max_root) < _GEO_TAIL:
                n = 0
            active[row] = n
        if cdf < 1e-13 and v > 4:
            # CDF of the service sum is decreasing in v; the remaining terms
            # contribute less than the current CDF value
            break
        if any(active) and v > 100000:
            raise NumericalError("queue-length truncation failed to terminate")
    total = np.array([[0.0] + row for row in sums]).reshape(
        len(spectra), n_max + 1)
    # min(1, max(0, x)) as Python evaluates it: no sum is -0.0 or NaN
    np.maximum(total, 0.0, out=total)
    return np.minimum(total, 1.0, out=total)


def poisson_weights(nu: float):
    """Poisson(nu) pmf values from n = 0 until the mass left is at most
    _POISSON_TAIL."""
    if nu < 0:
        raise ValueError("mean cannot be negative")
    if nu >= _POISSON_RECURSION_MAX:
        # in log space, up to a cutoff 20 standard deviations past the mean
        n = np.arange(int(nu + 20.0 * math.sqrt(nu)))
        log_fact = np.array([math.lgamma(k + 1.0) for k in range(len(n))])
        weights = np.exp(n * math.log(nu) - log_fact - nu)
        done = np.flatnonzero(1.0 - np.cumsum(weights) <= _POISSON_TAIL)
        if len(done) == 0:
            raise NumericalError("Poisson truncation failed to terminate")
        return weights[:done[0] + 1]
    weights = [math.exp(-nu)]
    cum = weights[0]
    n = 0
    while 1.0 - cum > _POISSON_TAIL:
        n += 1
        weights.append(weights[-1] * nu / n)
        cum += weights[-1]
        if n > 10 * (nu + 50):
            raise NumericalError("Poisson truncation failed to terminate")
    return np.array(weights)


def running_sum(terms: np.ndarray) -> float:
    """0.0 + terms[0] + terms[1] + ..., added left to right; np.sum adds
    pairwise and builtin sum may compensate, so neither gives these bits.
    np.cumsum would too, but costs more than this for the once-per-network
    and once-per-SCP-split mixtures over n that pass it."""
    return reduce(operator.add, terms.tolist(), 0.0)


@lru_cache(maxsize=64)
def radius_terms(net: NetworkConfig) -> tuple:
    """(uplink success, min_dispatch_prob, Poisson weights) at net's radius:
    the terms every split there shares, computed once per network. The
    weights, of n = 0..n_max connected servers, are read-only."""
    nu = mean_connected_aps(net)
    weights = poisson_weights(nu)
    weights.setflags(write=False)
    return 1.0 - comm.uplink_outage(net), min_dispatch_prob(nu), weights


def rate_cdfs(comp: ComputeConfig, rates, n_max: int) -> list:
    """(scp_cs, mec_conditional_cdf row over n = 0..n_max) at each split's
    (lambda_c, rho_c, lambda_m) of rates, rho_c being central_load or its
    StabilityError, as is a path the split overloads. One inversion and
    one walk serve every stable path, with the bits of one-split calls."""
    cs, mec, live, spectra = [], [], [], []
    for lam_c, rho_c, lam_m in rates:
        if isinstance(rho_c, StabilityError):
            cs.append(rho_c)
        else:
            cs.append(None)
            live.append((lam_c, rho_c))
        try:
            spectra.append(queue_spectrum(comp, lam_m))
            mec.append(None)
        except StabilityError as exc:
            mec.append(exc)
    # the float form for one rate: the array set-up costs about as much as
    # inverting one rate, and the searches send one split per step
    live = iter(_cs_cdf(comp, *np.array(live).T[:, :, None]).tolist()
                if len(live) > 1 else [_cs_cdf(comp, *pair) for pair in live])
    rows = iter(mec_conditional_cdf(spectra, n_max, mec_cache(comp)))
    return [(next(live) if c is None else c, next(rows) if m is None else m)
            for c, m in zip(cs, mec)]


def split_cdfs(net: NetworkConfig, comp: ComputeConfig, thetas) -> list:
    """rate_cdfs at each offload split of thetas, at one radius: every path
    is scored, one the split never takes at arrival rate 0."""
    success, dispatch, weights = radius_terms(net)
    rates = []
    for theta in thetas:
        lam_c, lam_m = split_rates(net, theta, success, dispatch)
        try:
            rates.append((lam_c, central_load(comp, lam_c), lam_m))
        except StabilityError as exc:
            rates.append((lam_c, exc, lam_m))
    return rate_cdfs(comp, rates, len(weights) - 1)


def scp_mec(net: NetworkConfig, cdf: np.ndarray) -> float:
    """Unconditional P[edge sojourn <= target latency] from an edge CDF row
    of split_cdfs at net's radius: the row mixed over the Poisson number of
    connected servers, whose no-server term is zero."""
    return min(1.0, max(0.0, running_sum(radius_terms(net)[2] * cdf)))


# ----------------------------------------------------------------------------
# successful computation probability
# ----------------------------------------------------------------------------


def scp_splits(net: NetworkConfig, comp: ComputeConfig, thetas) -> list:
    """(scp_cs, scp_mec, scp) at each offload split of thetas, at one radius,
    from split_cdfs. A path whose queue the split overloads is its
    StabilityError, in its own place and in scp's where the split takes it,
    the central one first."""
    points = []
    for theta, (cs, mec) in zip(thetas, split_cdfs(net, comp, thetas)):
        if not isinstance(mec, StabilityError):
            mec = scp_mec(net, mec)
        # the paths the split takes; one it never takes adds nothing
        taken = [(w, part) for w, part in zip((theta, 1.0 - theta), (cs, mec))
                 if w > 0.0]
        failed = [part for _, part in taken
                  if isinstance(part, StabilityError)]
        points.append((cs, mec, failed[0] if failed else
                       sum(w * part for w, part in taken)))
    return points

