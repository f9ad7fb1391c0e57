"""Numeric backends used by the analytic layers, in numpy and math only.

Provides the special functions the closed forms need (the Gauss
hypergeometric family 2F1(a, b; b + 1; z) of the disc integrals and the
regularised upper incomplete gamma function), expectations against the
Gamma(M, 1) antenna gain law, numerical inversion of Laplace-transformed
CDFs and a bracketed root solver. No run imports scipy.

The Gamma expectations use generalized Gauss-Laguerre rules built by the
Golub-Welsch method (G. H. Golub and J. H. Welsch, "Calculation of Gauss
quadrature rules", Math. Comp. 23, 1969) with the steps of scipy's
sp.roots_genlaguerre, and its Laguerre polynomial loop, ported; numpy's
symmetric eigensolver stands in for scipy.linalg's.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NumericalError

# ----------------------------------------------------------------------------
# special functions
# ----------------------------------------------------------------------------

# A series of positive terms whose partial sum is at least 1: a term below
# 2^-56 of it stays below half its ulp when rounded, so adding it, or any
# later and smaller term, leaves the sum's bits as they are
_SUM_ULP = 2.0 ** -56
_SERIES_TERMS = 10000
_EXPONENTS = np.arange(_SERIES_TERMS + 1.0)[:, None]
_LOG_FLOOR = -690.0        # exp of it is a normal float, and of 0 exactly 1


@lru_cache(maxsize=1024)
def _series_length(a: float, c: float, step: int) -> int:
    # terms of sum_k (a)_k / (c)_k y^k after which every term is below
    # 2^-56 and falling, for y up to 1 / (1 + 2^(-step / 8))
    y = 1.0 / (1.0 + 2.0 ** (-step / 8.0))
    term, k = 1.0, 0
    while True:
        ratio = (a + k) / (c + k) * y
        term *= ratio
        k += 1
        if ratio < 1.0 and term < _SUM_ULP:
            return k
        if k >= _SERIES_TERMS:
            raise NumericalError(f"series did not converge in {k} terms")


@lru_cache(maxsize=256)
def _series_coefficients(params: tuple, n: int) -> np.ndarray:
    # (a)_k / (c)_k for k <= n, one column per (a, c) of params. At large a
    # a column may overflow: one no element reads does no harm, and one an
    # element reads makes that element inf or NaN, which hyp2f1 reports
    a, c = np.array(params).T
    k = np.arange(n, dtype=float)[:, None]
    with np.errstate(over="ignore"):
        return np.cumprod(np.vstack([np.ones_like(a), (a + k) / (c + k)]),
                          axis=0)


def _sum_terms(terms: np.ndarray) -> np.ndarray:
    # the sums of the columns of a (terms, elements) array, each in term
    # order: np.add.reduce adds row after row along the first axis, but
    # one contiguous column it sums pairwise, so a lone column is a
    # running sum
    if terms.shape[1] > 1:
        return np.add.reduce(terms, axis=0)
    return np.cumsum(terms, axis=0)[-1]


def _ratio_series(params: tuple, group: np.ndarray, y: np.ndarray):
    """sum_k (a)_k / (c)_k y^k per element of the 1-D arrays group and
    0 <= y < 1, (a, c) = params[group] with a, c > 0; a NaN y gives NaN.

    The terms rise to one peak and then fall. Past the count that takes
    them below 2^-56 (_series_length), a term adds nothing to the sum,
    which is at least 1; so an element summed over more terms than it
    needs has the bits it has alone. Each group counts its terms at its
    own largest y, and every element is summed over the largest count:
    the terms (a)_k / (c)_k exp(k log y) form one (terms, elements) array,
    which _sum_terms sums in term order along its first axis."""
    if not len(y):
        return np.empty_like(y)
    tops = np.zeros(len(params))
    np.fmax.at(tops, group, y)
    if tops.max() >= 1.0:
        raise NumericalError("series at y = 1 does not converge")
    n = 0
    for i in np.flatnonzero(np.bincount(group, minlength=len(params))):
        top = tops[i].item()
        # y = 0, below 2^-1000 or NaN: the least y the lengths resolve
        step = max(math.ceil(8.0 * math.log2(top / (1.0 - top))), -8000) \
            if top > 0.0 else -8000
        n = max(n, _series_length(*params[i], step))
    # k log y; below _LOG_FLOOR a term is 0, whatever its coefficient: one
    # up to 1e283 leaves it below 2^-56 there, and past an element's own
    # count a coefficient may have left the float range
    terms = _EXPONENTS[:n + 1] * np.log(np.maximum(y, 1e-300))
    low = terms < _LOG_FLOOR
    np.maximum(terms, _LOG_FLOOR, out=terms)
    np.exp(terms, out=terms)
    terms *= _series_coefficients(params, n)[:, group]
    terms[low] = 0.0
    return _sum_terms(terms)


def _int_powers(base: np.ndarray, exps: tuple) -> np.ndarray:
    # base ** e for each integer e >= 0 of exps, by repeated products:
    # shape (len(exps),) + base.shape
    if max(exps) == 1 and min(exps) == 1:
        return base[None]
    powers = [np.ones_like(base)]
    for _ in range(max(exps)):
        powers.append(powers[-1] * base)
    return np.stack([powers[e] for e in exps])


@lru_cache(maxsize=256)
def _hyp2f1_rows(a: tuple, b: tuple, c: tuple):
    # per-row constants of hyp2f1 for the orders (a, b, c): the cut (none
    # where a <= b, which has no upper form), the series parameters of both
    # forms, b B(b, p) and b / p, and u^-b split as whole and fractional
    # power; ValueError outside the family
    if not all(ai >= 1.0 and ai == math.floor(ai) and bi > 0.0
               and abs(ci - bi - 1.0) <= 1e-12 * ci
               for ai, bi, ci in zip(a, b, c)):
        raise ValueError("hyp2f1 backend only supports c = b + 1, b > 0 "
                         "and integer a >= 1")
    upper = [ai > bi for ai, bi in zip(a, b)]
    cut = [(bi + 1.0) / (ai + 2.0) if up else math.inf
           for ai, bi, up in zip(a, b, upper)]
    params = tuple(pair for ai, bi in zip(a, b)
                   for pair in ((ai, bi + 1.0), (ai, ai - bi + 1.0)))
    # Gamma(a) overflows past a = 171
    scale = [bi * (math.gamma(bi) * math.gamma(ai - bi) / math.gamma(ai)
                   if ai <= 171.0 else
                   math.exp(math.lgamma(bi) + math.lgamma(ai - bi)
                            - math.lgamma(ai)))
             if up else 0.0 for ai, bi, up in zip(a, b, upper)]
    ratio = [bi / (ai - bi) if up else 0.0 for ai, bi, up in zip(a, b, upper)]
    whole = tuple(int(bi) for bi in b)
    column = lambda v: np.array(v)[:, None]     # noqa: E731
    return (column(cut), params, tuple(int(ai) for ai in a), column(scale),
            column(ratio), whole,
            column([bi - wi for bi, wi in zip(b, whole)]))


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric 2F1(a, b; c; z) for c = b + 1 and z <= 0, the
    one family the disc integrals of the closed forms evaluate, with a
    a positive integer and b > 0. a, b and c are floats, or 1-D arrays of
    one length for several orders in one call; z is a float or an array.
    The result is a float, or an array of shape (orders,) + z.shape, each
    element with the bits it has alone. NumericalError where it is not
    finite.

    With u = -z, x = 1 / (1 + u), w = u x and p = a - b,
    2F1 = b u^-b B_w(b, p), an incomplete beta function. Up to the cut
    w* = (b + 1) / (a + 2), at the bulk of Beta(b, p), the Pfaff form
    (DLMF 15.8.1, 8.17.8)
        2F1 = x^a sum_k (a)_k / (b + 1)_k w^k;
    above it, where a > b, the complement (DLMF 8.17.4, 8.17.8)
        2F1 = b B(b, p) u^-b - (b / p) x^a sum_k (a)_k / (p + 1)_k x^k,
    whose two parts cancel by a bounded factor there. Both sums have
    positive terms and converge like geometric series in w <= w* and
    x < 1 - w*.
    """
    orders = np.ndim(a) > 0
    a, b, c = (tuple(np.atleast_1d(v).tolist()) for v in (a, b, c))
    cut, params, powers, scale, ratio, whole, frac = _hyp2f1_rows(a, b, c)
    zs = np.asarray(z, dtype=float)
    u = -zs.ravel()
    if (u < 0.0).any():
        raise ValueError("hyp2f1 backend only supports z <= 0")
    x = 1.0 / (1.0 + u)
    w = u * x
    upper = w > cut
    group = upper + np.arange(0, 2 * len(a), 2)[:, None]
    sums = _ratio_series(params, group.ravel(), np.where(upper, x, w).ravel())
    # a value out of the float range is reported below, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        out = _int_powers(x, powers) * sums.reshape(upper.shape)
        if upper.any():
            safe = np.where(upper.any(axis=0), u, 1.0)     # u > 0 there
            u_b = np.exp(-frac * np.log(safe))
            if max(whole):
                u_b *= _int_powers(1.0 / safe, whole)
            out = np.where(upper, scale * u_b - ratio * out, out)
    if not np.isfinite(out).all():
        row, col = np.argwhere(~np.isfinite(out))[0]
        raise NumericalError(f"hyp2f1({a[row]}, {b[row]}, {c[row]}, "
                             f"{-u[col]}) is not finite")
    out = out.reshape((len(a),) + zs.shape)
    if orders:
        return out
    return out[0] if zs.ndim else float(out[0])


@lru_cache(maxsize=64)
def _rising_logs(a: float, n: int) -> np.ndarray:
    # log((a + 1) ... (a + k)) for k <= n, as a column
    logs = np.cumsum(np.log(a + np.arange(1.0, n + 1.0)))
    return np.concatenate([[0.0], logs])[:, None]


def gammaincc(a: float, x):
    """Regularised upper incomplete gamma function Q(a, x) for a > 0 and an
    array x >= 0: the series of P = 1 - Q below x = a + 1 (DLMF 8.7.1),
    Lentz's evaluation of the continued fraction of Q above it (DLMF
    8.9.2; Numerical Recipes, 3rd ed., sec. 6.2). Relative error about
    eps * (a |log x| + x) from the prefactor x^a e^-x / Gamma(a).
    NumericalError where a part does not converge in _SERIES_TERMS
    steps."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    low = x < a + 1.0
    lgam = math.lgamma(a)
    xs = x[low]
    if len(xs):
        # P = x^a e^-x / Gamma(a + 1) sum_n x^n / ((a + 1) ... (a + n)), the
        # terms as exp(n log x - log((a + 1) ... (a + n))), floored at
        # _LOG_FLOOR: the coefficient is inside the exponent, so a floored
        # term is e^-690
        top = float(xs.max())
        term, n = 1.0, 0
        while term >= _SUM_ULP:
            n += 1
            term *= top / (a + n)
            if n >= _SERIES_TERMS:
                raise NumericalError(f"gammaincc({a}) series did not converge")
        logs = np.log(np.maximum(xs, 1e-300))
        terms = _EXPONENTS[:n + 1] * logs - _rising_logs(a, n)
        np.maximum(terms, _LOG_FLOOR, out=terms)
        total = _sum_terms(np.exp(terms, out=terms))
        with np.errstate(divide="ignore"):      # x = 0 gives P = 0
            pre = np.exp(a * np.log(xs) - xs - lgam - math.log(a))
        out[low] = 1.0 - pre * total
    xs = x[~low]
    if len(xs):     # modified Lentz on b_1 + a_2 / (b_2 + a_3 / (b_3 + ...))
        tiny = 1e-300
        bn = xs + 1.0 - a
        cn = np.full_like(xs, 1.0 / tiny)
        dn = 1.0 / bn
        frac = dn.copy()
        live = np.ones(len(xs), dtype=bool)
        for n in range(1, _SERIES_TERMS):
            an = -n * (n - a)
            bn = bn + 2.0
            dn = an * dn + bn
            dn = np.where(np.abs(dn) < tiny, tiny, dn)
            cn = bn + an / cn
            cn = np.where(np.abs(cn) < tiny, tiny, cn)
            dn = 1.0 / dn
            step = dn * cn
            frac = np.where(live, frac * step, frac)    # done ones stay put
            live &= np.abs(step - 1.0) > 2.0 ** -52
            if not live.any():
                break
        else:
            raise NumericalError(f"gammaincc({a}) fraction did not converge")
        out[~low] = np.exp(a * np.log(xs) - xs - lgam) * frac
    return out


# ----------------------------------------------------------------------------
# expectations against the Gamma(M, 1) antenna gain
# ----------------------------------------------------------------------------


def _binom_n(n: int, a: float) -> float:
    # binom(n + a, n) for an integer a >= 0 as scipy.special.binom gives it
    # for a < 20: its product formula, operation for operation; from a = 20
    # (where scipy goes through its beta function) the correctly rounded
    # integer
    if a >= 20:
        return float(math.comb(n + int(a), n))
    num = den = 1.0
    top = n + a
    for i in range(1, int(a) + 1):
        num *= i + top - a
        den *= i
        if abs(num) > 1e50:
            num /= den
            den = 1.0
    return num / den


def _genlaguerre(n: int, a: float, x: np.ndarray) -> np.ndarray:
    # the generalized Laguerre polynomial L_n^(a)(x), n >= 2, by the loop of
    # scipy.special.eval_genlaguerre, operation for operation
    d = -x / (a + 1)
    p = d + 1
    for kk in range(n - 1):
        k = kk + 1.0
        d = -x / (k + a + 1) * p + (k / (k + a + 1)) * d
        p = p + d
    return _binom_n(n, a) * p


@lru_cache(maxsize=64)
def _laguerre_rule(nodes: int, m: int):
    """Gauss-Laguerre nodes and weights for E[f(G)], G ~ Gamma(m, 1).

    Golub-Welsch on the Jacobi matrix of the weight x^a e^(-x), a = m - 1,
    with scipy's sp.roots_genlaguerre steps in its operation order: one
    Newton step from the eigenvalues x0 to the nodes x, log-normalised
    weights 1/(L_(n-1)(x) L_n'(x0)) scaled to sum to Gamma(m), then divided
    by Gamma(m) for the mean. np.linalg.eigvalsh stands in for
    scipy.linalg.eigvals_banded and _genlaguerre for
    scipy.special.eval_genlaguerre, so the bits are scipy's for m <= 20;
    from m = 21 the binomial scale of the polynomials is rounded otherwise.
    """
    a = m - 1
    k = np.arange(nodes, dtype=float)
    jacobi = (np.diag(2 * k + a + 1)
              + np.diag(-np.sqrt(k[1:] * (k[1:] + a)), -1))
    x = np.linalg.eigvalsh(jacobi)
    y = _genlaguerre(nodes, a, x)
    dy = (nodes * y - (nodes + a) * _genlaguerre(nodes - 1, a, x)) / x
    x -= y / dy
    fm = _genlaguerre(nodes - 1, a, x)
    for v in (fm, dy):
        logs = np.log(np.abs(v))
        v /= np.exp((logs.max() + logs.min()) / 2.0)
    w = 1.0 / (fm * dy)
    if m >= 172:                     # Gamma(m) overflows
        return x, w / w.sum()
    gamma_m = math.gamma(m)
    w *= gamma_m / w.sum()
    return x, w / gamma_m


# Gauss-Laguerre nodes of the coarse rule; the check rule has twice as many
_LAGUERRE_NODES = 64


def gamma_expectation(f: Callable, m: int) -> float:
    """E[f(G)] for G ~ Gamma(m, 1) by generalized Gauss-Laguerre quadrature.

    The node count is doubled once and the two estimates compared; a gap
    beyond 1e-9 triggers a warning. `f` maps an array of nodes to the array
    of its values.
    """
    if m < 1 or int(m) != m:
        raise ValueError("m must be a positive integer")

    def apply(n):
        x, w = _laguerre_rule(n, int(m))
        return float(w @ np.asarray(f(x), dtype=float))

    coarse = apply(_LAGUERRE_NODES)
    fine = apply(2 * _LAGUERRE_NODES)
    if not math.isfinite(fine):
        raise NumericalError("gamma_expectation produced a non-finite value")
    if abs(fine - coarse) > 1e-9 + 1e-12 * abs(fine):
        warnings.warn(
            f"gamma_expectation doubling gap {abs(fine - coarse):.3e} "
            f"at {_LAGUERRE_NODES} nodes; integrand may be under-resolved",
            stacklevel=2,
        )
    return fine


# ----------------------------------------------------------------------------
# Laplace-transform CDF inversion
# ----------------------------------------------------------------------------


# Abate-Whitt Euler summation: _EULER_TERMS series terms, then binomial
# averaging of the last _EULER_AVG + 1 partial sums; _EULER_A ~ 18.4 keeps
# the aliasing error of a bounded function near 1e-8
_EULER_TERMS = 18
_EULER_AVG = 11
_EULER_A = 18.4
# absolute error target on CDF values; an estimate that moves by more than
# 50 times it when the series loses its last term has not settled
_EULER_TOLERANCE = 1e-7


@lru_cache(maxsize=64)
def _euler_nodes(t):
    """Nodes s_k = _EULER_A/(2t) + i pi k/t of the Euler summation at t, the
    signs of their terms (the first halved) and the averaging weights
    C(_EULER_AVG, j) / 2^_EULER_AVG. Read-only and shared by every
    inversion at t, so a transform may cache its values at these nodes."""
    k = np.arange(_EULER_TERMS + _EULER_AVG + 1)
    s = _EULER_A / (2.0 * t) + 1j * math.pi * k / t
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    signs[0] = 0.5
    w = np.array([math.comb(_EULER_AVG, j) for j in range(_EULER_AVG + 1)])
    w = w / 2.0 ** _EULER_AVG
    for a in (s, signs, w):
        a.setflags(write=False)
    return s, signs, w


def invert_laplace_cdf(transform: Callable, t: float):
    """CDF value F(t) from the Laplace transform of the density.

    `transform` maps (complex arrays of) s to E[exp(-s T)]; the CDF transform
    transform(s)/s is inverted at t by Euler summation and clamped into
    [0, 1]. t <= 0 returns 0. A transform giving one row of values per law,
    shape (K, len(s)), gives an array of the K CDF values, each as its own
    1-D inversion would. NumericalError if a value is not finite or moves
    by more than 50 * _EULER_TOLERANCE when the series loses its last term.
    """
    if t <= 0.0:
        return 0.0
    s, signs, w = _euler_nodes(t)
    partial = (signs * (np.asarray(transform(s)) / s).real).cumsum(axis=-1)
    scale = math.exp(_EULER_A / 2.0) / t
    lo, hi = _EULER_TERMS, _EULER_TERMS + _EULER_AVG + 1
    est, err = [], []
    for row in partial if partial.ndim > 1 else (partial,):
        # a 1-D dot per row: a matrix product may add in another order
        value = scale * float(w @ row[lo:hi])
        prev = scale * float(w @ row[lo - 1:hi - 1])
        est.append(value)
        err.append(abs(value - prev))
    if not all(map(math.isfinite, est)):
        raise NumericalError("Laplace inversion produced a non-finite value")
    if max(err, default=0.0) > _EULER_TOLERANCE * 50.0:
        raise NumericalError(
            f"Laplace inversion did not settle at t={t}: change "
            f"{max(err):.3e} between consecutive estimates"
        )
    cdf = [min(1.0, max(0.0, x)) for x in est]
    return np.array(cdf) if partial.ndim > 1 else cdf[0]


# ----------------------------------------------------------------------------
# bracketed root finding
# ----------------------------------------------------------------------------

_BRENT_RTOL = 4.0 * 2.0 ** -52     # 4 eps


def brent_root(f: Callable, a: float, b: float, xtol: float) -> float:
    """Root of f between a and b by Brent's method (Brent 1973, ch. 4):
    scipy's brentq.c ported operation for operation, at its rtol = 4 eps and
    100 iterations, so it returns scipy.optimize.brentq's float. Raises
    NumericalError on a bracket without sign change, NaN or no convergence."""
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if not (fpre < 0.0 < fcur or fcur < 0.0 < fpre):   # NaN fails both
        raise NumericalError(f"root search: no sign change on [{a}, {b}]")
    for _ in range(100):    # the first pass sets xblk, fblk, spre and scur
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        short = abs(spre) > delta and abs(fcur) < abs(fpre)
        try:    # where C divides by 0, its inf or NaN step bisects
            if short and xpre == xblk:      # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            elif short:                     # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = short and 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
        except ZeroDivisionError:
            short = False
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise NumericalError(f"root search: f({xcur}) is NaN")
    raise NumericalError("root search did not converge in 100 iterations")
