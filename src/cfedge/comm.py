"""Analytic communication layer.

Uplink: outage of the best-AP combiner over a Poisson field of APs inside
the cooperation disc, with interference from all other users under bounded
pathloss. All APs hear the same interferers; the outage is a mixture over
the distance from the user to its nearest interferer, held exactly, with
the rest of the field averaged per AP (uplink_mixture). per_ap_success is
the single-AP success with no such conditioning. Downlink: moment-matched
Gamma model for the beam interference, outage bracketed by integer-shape
truncations.

The special functions come from specfun, in numpy: the disc integrals'
2F1 terms from hyp2f1, all orders of one argument array in one call or,
in _power_disc, orders 2 and up by a forward recurrence; the downlink
series' upper incomplete gamma terms from gammaincc.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import NumericalError
from .model import NetworkConfig, mean_connected_aps, pathloss
from .specfun import gamma_expectation, gammaincc, hyp2f1

_CLAMP_WARN = 1e-6

# ----------------------------------------------------------------------------
# the Gamma-gain success sum and the uplink interference transform
# ----------------------------------------------------------------------------


# The uplink closed forms below take s (or r) as a float or as an array of
# them, with the same bits per element: +, -, *, /, np.exp and
# specfun.hyp2f1 give an element of an array the bits they give a float,
# and every power of an array is a repeated product or goes through
# _float_pow.


def _float_pow(x, p: float):
    """x ** p by Python's float power, which is libm's pow: per element for
    an array, a float for a scalar. numpy's array power may differ from it
    in the last bit."""
    if isinstance(x, np.ndarray):
        return np.array([v ** p for v in x.ravel().tolist()]).reshape(x.shape)
    return float(x) ** p


def series_sum(coeffs: list):
    """P[G > s X] for G ~ Gamma(K, 1) independent of X >= 0, X with Laplace
    transform L, from the K scaled log coefficients
    c_j = (-s)^j / j! (d/ds)^j log L(s), j < K.

    The success is sum_{m<K} e_m, where e_m = (-s)^m / m! L^(m)(s) are the
    coefficients of exp(sum_j c_j t^j): e_0 = exp(c_0) and
    e_m = (1/m) sum_{i<m} (m-i) c_(m-i) e_i (Knuth, TAOCP vol. 2, sec. 4.7).
    The entries may be floats or arrays of one shape. A coefficient that
    is not finite gives a sum that is not finite, without numpy's
    warnings: the callers check their sums.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e = [np.exp(coeffs[0])]
        for m in range(1, len(coeffs)):
            e.append(sum((m - i) * coeffs[m - i] * e[i] for i in range(m))
                     / m)
        return sum(e)


def uplink_log_coeffs(s, order: int, net: NetworkConfig) -> list:
    """Scaled log coefficients c_0..c_order of the uplink interference
    transform at s, a float or an array; c_j >= 0 for j >= 1.

    The transform is the product of a near-field factor (interferers on
    the pathloss plateau) and a far-field factor. With A = pi lambda_d d0^2,
    c = d0^-a and y = sc / (1 + sc), the near field gives c_0 = -A y and
    c_j = A y^j (1 - y). For j >= 1 the far field gives
    pi lambda_d s^j int_{d0^2}^inf z^(a/2) (z^(a/2) + s)^(-j-1) dz
    = (2A/a) (sc)^j / (j - 2/a) 2F1(j+1, j-2/a; j+1-2/a; -sc).
    """
    if (s < 0).any() if isinstance(s, np.ndarray) else s < 0:
        raise ValueError("transform argument must be non-negative")
    if order < 0:
        raise ValueError("order must be non-negative")
    a = net.alpha
    sc = s * net.d0 ** (-a)
    y = sc / (1.0 + sc)
    area = math.pi * net.lambda_d * net.d0 ** 2
    # the lead's 2F1 (row 0) and the far field's (row j) in one call
    b = np.maximum(np.arange(order + 1), 1) - 2.0 / a
    f = hyp2f1(np.arange(1.0, order + 2.0), b, b + 1.0, -sc)
    lead = -(2.0 * math.pi * net.lambda_d / a) * s * net.d0 ** (2.0 - a) \
        / (1.0 - 2.0 / a) * f[0]
    out = [-area * y + lead]
    near, far = area * (1.0 - y), 2.0 * area / a
    # (sc)^j may leave the float range, and then c_j is inf or NaN; the
    # callers report it as not finite, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, order + 1):
            near, far = near * y, far * sc
            out.append(near + far / b[j] * f[j])
    return out


def _single_ap_success_at(r, net: NetworkConfig):
    # P[one AP at distance r decodes], r a float or an array: the
    # diversity-order expansion of the Gamma CDF, in which term m carries
    # (threshold / pathloss)**m, not pathloss**-m alone. The Monte Carlo
    # suite pins this form.
    # the pathloss per element: model.pathloss takes numpy's array power
    ell = _float_pow(np.maximum(r, net.d0), -net.alpha)
    s = net.sir_threshold_ul / ell
    return series_sum(uplink_log_coeffs(s, net.antennas_per_ap - 1, net))


@lru_cache(maxsize=4)
def _legendre_rule(nodes: int):
    # Gauss-Legendre nodes and weights on [-1, 1], read-only
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def per_ap_success(net: NetworkConfig) -> float:
    """Success probability of a single AP at uniform distance in the disc.

    Past the pathloss plateau: 12-node Gauss-Legendre on 2n geometric
    panels from d0 to R, n the least count of panels of ratio at most 4.
    The gap to the rule on n panels is its error, NumericalError above 1e-7
    or when either integral is not finite.
    """
    R = net.coverage_radius
    if R <= 0.0:
        return 0.0
    plateau = _single_ap_success_at(0.0, net)
    if R <= net.d0:
        return _clamp_probability(plateau, "per_ap_success")
    inner = plateau * net.d0 ** 2 / 2.0
    x, w = _legendre_rule(12)

    def radial(panels):
        # int_d0^R r q(r) dr, the rule on each of `panels` equal-ratio panels
        edges = np.geomspace(net.d0, R, panels + 1)
        half = np.diff(edges)[:, None] / 2.0
        r = edges[:-1, None] + half * (x + 1.0)
        q = _single_ap_success_at(r.ravel(), net)
        return float((half * w * r).ravel() @ q)

    n = max(1, math.ceil(math.log(R / net.d0) / math.log(4.0)))
    val = radial(2 * n)
    err = abs(val - radial(n))
    if not err <= 1e-7:   # a NaN err fails too
        cause = (f"did not converge (err {err:.2e})" if math.isfinite(err)
                 else "is not finite")
        raise NumericalError(f"radial success integral {cause}")
    return _clamp_probability((inner + val) * 2.0 / R ** 2, "per_ap_success")


# ----------------------------------------------------------------------------
# uplink: outage on the shared interferer field
# ----------------------------------------------------------------------------
#
# Every AP in the disc hears the same interferers, so decode events at
# different APs are correlated, and exp(-mean APs * per_ap_success), which
# treats them as independent, is only the Jensen lower bound of the outage.
# The mixture holds the user's nearest interferer, at distance d1, exactly;
# the rest of the field is a PPP outside the disc of radius d1 around the
# user, averaged per AP. Given d1 the APs decode independently with
# disc-averaged success q(d1), so with t = pi lambda_d d1^2 ~ Exp(1)
#
#   outage = E[exp(-mean APs * q(d1))],
#   P[some AP decodes | n APs] = 1 - E[(1 - q(d1))^n],
#
# and E[q(d1)] = per_ap_success (total expectation). Quadrature:
#
# - t: trapezoid rule in ln t, which converges geometrically for this
#   integrand; the nodes and weights are fixed, the weights positive;
# - AP distance r: success interpolated linearly in ln r between fixed
#   nodes r_i = d0 e^(i h) and integrated exactly against r dr up to R.
#   Every weight is non-negative and non-decreasing in R, so the outage is
#   non-increasing in R by construction;
# - angle between the AP and the nearest interferer: Gauss-Legendre.
#
# The node values do not depend on R or lambda_b: they are built once per
# network, a chunk of radial nodes at a time, and reused across radii.

_LN_R_STEP = 0.01                                   # h, radial node spacing
_LN_T_STEP = 0.5                                    # nearest-interferer nodes
_LN_T_RANGE = (math.log(1e-5), math.log(25.0))      # P[t outside] < 2e-5
_ANGLE_NODES = 12
_ARC_NODES = 24
_CHUNK_NODES = 32

#: Relative quadrature error of the mixture, a bound on
#: |sum_k w_k q_k / per_ap_success - 1|. Measured at most 4e-5 for R from
#: 0.5 m to 300 m, at the preset layouts and with alpha in [2.5, 4.5], the
#: uplink threshold in [0.3, 10], lambda_d in [1e-3, 2e3], M = 12 or d0 = 10 m.
UPLINK_MIXTURE_REL_ERR = 1e-4


@dataclass(frozen=True, eq=False)
class UplinkMixture:
    """Uplink at one radius as a mixture over the nearest-interferer distance.

    success[k] is the disc-averaged AP success q_k given node k and
    weights[k] its probability (they sum to 1); outage is
    sum_k w_k exp(-nu q_k), nu being mean_connected_aps. sum_k w_k q_k
    equals per_ap_success within UPLINK_MIXTURE_REL_ERR.
    """

    success: np.ndarray
    weights: np.ndarray
    outage: float


@lru_cache(maxsize=4)
def _half_turn_rule(nodes: int):
    # Gauss-Legendre on [0, pi], weights summing to 1
    x, w = _legendre_rule(nodes)
    return 0.5 * math.pi * (x + 1.0), 0.5 * w


@lru_cache(maxsize=1)
def _interferer_rule():
    # t = pi lambda_d d1^2 ~ Exp(1): trapezoid nodes in ln t, density t e^-t
    lo, hi = _LN_T_RANGE
    t = np.exp(np.arange(lo, hi + 0.5 * _LN_T_STEP, _LN_T_STEP))
    w = t * np.exp(-t)
    w /= w.sum()
    w.flags.writeable = False
    return t, w


def _power_disc(radius: np.ndarray, orders: int, net: NetworkConfig) -> list:
    # For j < orders, int_0^radius k_j(gamma rho^(-alpha)) 2 pi rho drho in
    # closed form, with k_0(z) = -z / (1 + z) and k_j(z) = z^j / (1 + z)^(j+1).
    # Orders 0 and 1 take their 2F1s from one call. From order 2 on, with
    # u = radius^alpha / gamma, e = 1 + 2/alpha and
    # F_j = 2F1(j + 1, e; e + 1; -u), the forward recurrence
    # F_j = (1 - e/j) F_(j-1) + e (1 + u)^-j / j adds two positive terms
    # (e < 2), so it keeps the relative accuracy of F_1
    a = net.alpha
    g = net.sir_threshold_ul
    x = -radius ** a / g
    e = 1.0 + 2.0 / a
    if orders == 1:
        return [-math.pi * radius ** 2 * hyp2f1(1.0, 2.0 / a, e, x)]
    f = hyp2f1([1.0, 2.0], [2.0 / a, e], [e, 1.0 + e], x)
    out = [-math.pi * radius ** 2 * f[0]]
    lead = (2.0 * math.pi / g) * radius ** (a + 2.0) / (a + 2.0)
    step = 1.0 / (1.0 - x)
    power, f = step, f[1]
    out.append(lead * f)
    for j in range(2, orders):
        power = power * step
        f = (1.0 - e / j) * f + e * power / j
        out.append(lead * f)
    return out


def _disc_log_terms(r: np.ndarray, d1: np.ndarray, orders: int,
                    net: NetworkConfig) -> list:
    # The disc of radius d1[k] around the user, seen from an AP at distance
    # r[i] >= d0 from the user, lengths in units of r. An interferer at
    # distance rho from the AP has z = s ell = gamma max(rho, d0 / r)^(-alpha).
    # Returns, for j < orders, arrays (len r, len d1) of int_disc k_j(z) du
    # (k_j as in _power_disc). Times lambda_d r^2 these are (-s)^j / j! times
    # the j-th derivative of the disc's log interference transform.
    a = net.alpha
    g = net.sir_threshold_ul
    beta = d1[None, :] / r[:, None]
    flat = (net.d0 / r)[:, None]                 # pathloss plateau around the AP
    y_flat = 1.0 / (1.0 + flat ** a / g)         # z / (1 + z) on the plateau
    # full circles around the AP, rho < beta - 1: the plateau part, then the
    # power-law part in closed form
    core = np.maximum(beta - 1.0, 0.0)
    edge = np.minimum(core, flat)
    beyond = core > flat
    rows = np.nonzero(beyond)[0]                 # the row of each beyond entry
    # the power-law disc up to the plateau edge of each row, then up to each
    # beyond entry's core, in one pass
    discs = _power_disc(np.concatenate([flat[:, 0], core[beyond]]), orders,
                        net)
    # arcs, |beta - 1| < rho < beta + 1: rho = mid - half cos(theta)
    th, tw = _half_turn_rule(_ARC_NODES)
    mid = np.maximum(beta, 1.0)[..., None]
    half = np.minimum(beta, 1.0)[..., None]
    rho = mid - half * np.cos(th)
    cos_arc = np.clip((rho * rho + 1.0 - beta[..., None] ** 2) / (2.0 * rho),
                      -1.0, 1.0)
    arc = (2.0 * math.pi) * rho * np.arccos(cos_arc) * half * (np.sin(th) * tw)
    y = 1.0 / (1.0 + np.maximum(rho, flat[..., None]) ** a / g)
    kern, kern_flat = -y, -y_flat
    out = []
    for j in range(orders):
        term = (kern * arc).sum(axis=-1) + math.pi * edge ** 2 * kern_flat
        term[beyond] += discs[j][len(r):] - discs[j][rows]
        out.append(term)
        if j == 0:
            kern, kern_flat = y * (1.0 - y), y_flat * (1.0 - y_flat)
        else:
            kern, kern_flat = kern * y, kern_flat * y_flat
    return out


def _conditional_success_chunk(r: np.ndarray, d1: np.ndarray,
                               net: NetworkConfig) -> np.ndarray:
    # Success of an AP at distance r[i] from the user, averaged over its
    # angle to the nearest interferer at distance d1[k]: shape (len r, len d1).
    M = net.antennas_per_ap
    s = net.sir_threshold_ul / pathloss(r, net)
    full = uplink_log_coeffs(s, M - 1, net)
    disc = _disc_log_terms(r, d1, M, net)
    psi, pw = _half_turn_rule(_ANGLE_NODES)
    dist = np.sqrt(r[:, None, None] ** 2 + d1[None, :, None] ** 2
                   - 2.0 * r[:, None, None] * d1[None, :, None] * np.cos(psi))
    zy = s[:, None, None] * pathloss(dist, net)
    ratio = zy / (1.0 + zy)
    area = net.lambda_d * r[:, None] ** 2
    # the field less the disc, plus the nearest interferer at angle psi
    logs = [(full[j][:, None] - area * disc[j])[:, :, None]
            + (-np.log1p(zy) if j == 0 else ratio ** j / j) for j in range(M)]
    # a coefficient that is not finite makes its success NaN, never a value
    # clipped into [0, 1]
    success = series_sum(logs)
    return np.where(np.isfinite(success), np.clip(success, 0.0, 1.0),
                    np.nan) @ pw


class _RadialTable:
    """Conditional AP success at the radial nodes, grown a chunk at a time."""

    def __init__(self, net: NetworkConfig):
        self.net = net
        t, _ = _interferer_rule()
        self.d1 = np.sqrt(t / (math.pi * net.lambda_d)) \
            if net.lambda_d > 0 else None
        self.table = np.empty((0, len(t)))

    def values(self, n: int) -> np.ndarray:
        """Rows 0..n-1; row i belongs to the node r_i = d0 e^(i h)."""
        while len(self.table) < n:
            idx = np.arange(len(self.table), len(self.table) + _CHUNK_NODES)
            if self.d1 is None:   # no interferers: every AP decodes
                chunk = np.ones((len(idx), self.table.shape[1]))
            else:
                r = self.net.d0 * np.exp(_LN_R_STEP * idx)
                chunk = _conditional_success_chunk(r, self.d1, self.net)
            self.table = np.concatenate([self.table, chunk])
        return self.table[:n]


@lru_cache(maxsize=16)
def _radial_table(net: NetworkConfig) -> _RadialTable:
    return _RadialTable(net)


def _span_weights(width: float) -> tuple:
    # A span [u_i, u_i + width] of ln(r / d0), in units of d0^2 e^(2 u_i):
    # the weights it gives its left and right node, int e^(2v) (1 - v / h)
    # dv and int e^(2v) v / h dv over 0 < v < width
    grow = math.expm1(2.0 * width)
    rise = max(0.0, 2.0 * width + (2.0 * width - 1.0) * grow) / (4.0 * _LN_R_STEP)
    return 0.5 * grow - rise, rise


def _radial_weights(R: float, d0: float) -> np.ndarray:
    # W_i(R) = int_0^R r phi_i(ln r) dr for the hat functions phi_i on the
    # nodes ln(r_i / d0) = i h, with phi_0 extended by 1 below d0.
    h = _LN_R_STEP
    U = math.log(R / d0)
    full = max(0, int(U // h))
    width = U - full * h if U > 0.0 else 0.0
    w = np.zeros(full + 1 + (width > 0.0))
    w[0] = 0.5 * min(R, d0) ** 2
    scale = d0 ** 2 * np.exp(2.0 * h * np.arange(full + 1))
    left, right = _span_weights(h)
    w[:full] += left * scale[:full]
    w[1:full + 1] += right * scale[:full]
    if width > 0.0:
        left, right = _span_weights(width)
        w[full] += left * scale[full]
        w[full + 1] += right * scale[full]
    return w


@lru_cache(maxsize=64)
def uplink_mixture(net: NetworkConfig) -> UplinkMixture:
    """Uplink outage and success given n APs on one shared interferer field.

    Cached per network: the outage, the arrival-rate thinning and the per-n
    uplink term of secp all read the same object at a given radius.
    """
    nu = mean_connected_aps(net)
    _, weights = _interferer_rule()
    R = net.coverage_radius
    if R <= 0.0 or nu == 0.0:
        success = np.zeros_like(weights)
        load = np.zeros_like(weights)
    else:
        key = replace(net, lambda_b=0.0, coverage_radius=0.0, network_area=1.0,
                      sir_threshold_dl=1.0)
        w_r = _radial_weights(R, net.d0)
        table = _radial_table(key).values(len(w_r))
        load = 2.0 * math.pi * net.lambda_b * (w_r @ table)   # nu q_k
        success = load / nu
    outage = _clamp_probability(float(weights @ np.exp(-load)), "uplink_outage")
    success.flags.writeable = False
    return UplinkMixture(success=success, weights=weights, outage=outage)


def uplink_outage(net: NetworkConfig) -> float:
    """P[no connected AP decodes the uplink] on one shared interferer field.

    The nearest-interferer mixture of uplink_mixture. It lies above the
    independent-decoding value exp(-mean APs * per_ap_success), its Jensen
    lower bound.
    """
    return uplink_mixture(net).outage


def _clamp_probability(x: float, label: str) -> float:
    if not math.isfinite(x):
        raise NumericalError(f"{label} produced a non-finite value")
    if x < -_CLAMP_WARN or x > 1.0 + _CLAMP_WARN:
        warnings.warn(f"{label} clamped from {x!r} into [0, 1]", stacklevel=3)
    return min(1.0, max(0.0, float(x)))


# ----------------------------------------------------------------------------
# downlink: Gamma interference model
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaInterferenceParams:
    """Moment-matched Gamma(shape, scale) model of the beam interference."""

    zeta: float   # shape
    eta: float    # scale

    @property
    def mean(self) -> float:
        return self.zeta * self.eta

    @property
    def variance(self) -> float:
        return self.zeta * self.eta ** 2


def gamma_interference_params(net: NetworkConfig) -> GammaInterferenceParams:
    a = net.alpha
    zeta = a * (a - 1.0) / (2.0 * (a - 2.0) ** 2) * net.lambda_b * net.lambda_d \
        * math.pi ** 2 * net.coverage_radius ** 2 * net.d0 ** 2
    eta = 2.0 * net.d0 ** (-a) * (a - 2.0) / (a - 1.0)
    return GammaInterferenceParams(zeta=zeta, eta=eta)


def signal_log_coeffs(s: float, order: int, net: NetworkConfig) -> list:
    """Scaled log coefficients c_0..c_order of the aggregate downlink signal
    transform exp(-2 pi lambda_b rho(s)) at s; c_m >= 0 for m >= 1.

    rho(s) = int_0^R E[1 - exp(-s g ell(r))] r dr with g ~ Gamma(M, 1).
    For m >= 1 the plateau r < d' = min(R, d0) gives 2 pi lambda_b times
    d'^2 / 2 C(M+m-1, m) y^m (1 - y)^M, y = s d0^-a / (1 + s d0^-a), and
    the annulus d0 < r < R gives 2 pi lambda_b times s^(2/a) / a
    Gamma(m - 2/a) / m! E[g^(2/a) (Q(m - 2/a, s g R^-a) - Q(m - 2/a,
    s g d0^-a))], Q the regularised upper incomplete gamma function. Both
    factors in m are running products, as the order may reach 2000.
    """
    if s < 0:
        raise ValueError("transform argument must be non-negative")
    a = net.alpha
    M = net.antennas_per_ap
    R = net.coverage_radius
    d0 = net.d0
    cd = d0 ** (-a)
    cr = max(R, d0) ** (-a)
    two_a = 2.0 / a

    edge = _plateau_edge_q(s, cd, M)

    def annulus(arg, factor):
        # the part d0 < r < R, none when the disc sits on the plateau
        if R <= d0:
            return 0.0

        def integrand(g):
            key = (arg, len(g))
            if key not in edge:
                edge[key] = gammaincc(arg, s * g * cd)
            return g ** two_a * (gammaincc(arg, s * g * cr) - edge[key]) \
                * factor
        return gamma_expectation(integrand, M)

    rho = 0.5 * R ** 2 * (1.0 - (1.0 + s * cr) ** (-M)) \
        + 0.5 * s ** two_a * annulus(1.0 - two_a, math.gamma(1.0 - two_a))
    amp = 2.0 * math.pi * net.lambda_b
    y = s * cd / (1.0 + s * cd)
    plateau = 0.5 * min(R, d0) ** 2 * (1.0 - y) ** M
    ratio = math.gamma(-two_a)                  # Gamma(m - 2/a) / m! at m = 0
    out = [-amp * rho]
    for m in range(1, order + 1):
        plateau *= (M + m - 1) / m * y
        ratio *= (m - 1 - two_a) / m
        out.append(amp * (plateau + s ** two_a / a * annulus(m - two_a, ratio)))
    return out


@lru_cache(maxsize=8)
def _plateau_edge_q(s: float, cd: float, m: int) -> dict:
    # Q(arg, s g d0^-alpha) at the nodes g of a gamma_expectation rule for
    # Gamma(m, 1), keyed by (arg, node count) and filled by
    # signal_log_coeffs: the plateau-edge term of its annulus, which no
    # radius changes. One table holds every order, so a radius at a larger
    # interference shape only adds its new orders.
    return {}


@dataclass(frozen=True)
class DownlinkOutage:
    """Downlink outage bracket and interpolated point estimate."""

    lower: float
    upper: float
    point: float


def _truncated_outage_sum(k0: int, net: NetworkConfig,
                          params: GammaInterferenceParams) -> float:
    # P[aggregate signal < threshold * I] when I has integer shape k0
    if k0 == 0:
        return 0.0
    s_star = 1.0 / (net.sir_threshold_dl * params.eta)
    return series_sum(signal_log_coeffs(s_star, k0 - 1, net))


def downlink_outage(net: NetworkConfig) -> DownlinkOutage:
    """Outage bracket from floor/ceil integer shapes plus a point estimate.

    The truncated series is increasing in the integer shape, so the floor
    truncation is the lower bound and the ceil truncation the upper. The
    point estimate interpolates linearly in the fractional shape.
    """
    params = gamma_interference_params(net)
    zeta = params.zeta
    if zeta > 2000.0:
        raise NumericalError(f"interference shape {zeta:.1f} too large to truncate")
    k_lo = math.floor(zeta)
    k_hi = math.ceil(zeta)
    lower = _clamp_probability(_truncated_outage_sum(k_lo, net, params),
                               "downlink_outage")
    upper = _clamp_probability(_truncated_outage_sum(k_hi, net, params),
                               "downlink_outage")
    frac = zeta - k_lo
    point = (1.0 - frac) * lower + frac * upper
    return DownlinkOutage(lower, upper, min(1.0, max(0.0, point)))

