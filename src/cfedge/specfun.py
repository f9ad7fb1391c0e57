"""Numeric backends used by the analytic layers.

Wraps the Gauss hypergeometric function the closed forms need, provides
expectations against the Gamma(M, 1) antenna gain law, numerical
inversion of Laplace-transformed CDFs and a bracketed root solver.

The Gamma expectations use generalized Gauss-Laguerre rules built by the
Golub-Welsch method (G. H. Golub and J. H. Welsch, "Calculation of Gauss
quadrature rules", Math. Comp. 23, 1969) with the steps of scipy's
sp.roots_genlaguerre, whose nodes and weights they reproduce, but with
numpy's symmetric eigensolver, so scipy.linalg is never imported.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.special as sp

from .errors import NumericalError

# ----------------------------------------------------------------------------
# special function wrappers
# ----------------------------------------------------------------------------


def hyp2f1(a: float, b: float, c: float, z):
    """Gauss hypergeometric 2F1(a, b; c; z) for z <= 0: a float for a
    float z, an array for an array, with the same bits per element.

    The analytic layer only ever calls this with non-positive argument,
    where scipy's implementation is accurate to near machine precision
    even for |z| as large as 1e9.
    """
    array = isinstance(z, np.ndarray)
    if (z > 0).any() if array else z > 0:
        raise ValueError("hyp2f1 backend only supports z <= 0")
    out = sp.hyp2f1(a, b, c, z)
    if not (np.isfinite(out).all() if array else math.isfinite(out)):
        bad = z[~np.isfinite(out)][0] if array else z
        raise NumericalError(f"hyp2f1({a}, {b}, {c}, {bad}) is not finite")
    return out if array else float(out)


# ----------------------------------------------------------------------------
# expectations against the Gamma(M, 1) antenna gain
# ----------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _laguerre_rule(nodes: int, m: int):
    """Gauss-Laguerre nodes and weights for E[f(G)], G ~ Gamma(m, 1).

    Golub-Welsch on the Jacobi matrix of the weight x^a e^(-x), a = m - 1,
    with scipy's sp.roots_genlaguerre steps in its operation order, so the
    bits are the same: one Newton step from the eigenvalues x0 to the nodes
    x, log-normalised weights 1/(L_(n-1)(x) L_n'(x0)) scaled to sum to
    Gamma(m), then divided by Gamma(m) for the mean. np.linalg.eigvalsh
    stands in for scipy.linalg.eigvals_banded.
    """
    a = m - 1
    k = np.arange(nodes, dtype=float)
    jacobi = (np.diag(2 * k + a + 1)
              + np.diag(-np.sqrt(k[1:] * (k[1:] + a)), -1))
    x = np.linalg.eigvalsh(jacobi)
    y = sp.eval_genlaguerre(nodes, a, x)
    dy = (nodes * y - (nodes + a) * sp.eval_genlaguerre(nodes - 1, a, x)) / x
    x -= y / dy
    fm = sp.eval_genlaguerre(nodes - 1, a, x)
    for v in (fm, dy):
        logs = np.log(np.abs(v))
        v /= np.exp((logs.max() + logs.min()) / 2.0)
    w = 1.0 / (fm * dy)
    gamma_m = sp.gamma(m)
    if not math.isfinite(gamma_m):   # m >= 172: Gamma(m) overflows
        return x, w / w.sum()
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
