"""Numeric backends used by the analytic layers.

Wraps the Gauss hypergeometric function the closed forms need, provides
expectations against the Gamma(M, 1) antenna gain law, numerical inversion
of Laplace-transformed CDFs, and real roots of small polynomials.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import scipy.special as sp

from .errors import NumericalError

# ----------------------------------------------------------------------------
# special function wrappers
# ----------------------------------------------------------------------------


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for z <= 0.

    The analytic layer only ever calls this with non-positive argument,
    where scipy's implementation is accurate to near machine precision
    even for |z| as large as 1e9.
    """
    if z > 0:
        raise ValueError("hyp2f1 backend only supports z <= 0")
    out = sp.hyp2f1(a, b, c, z)
    if not np.isfinite(out):
        raise NumericalError(f"hyp2f1({a}, {b}, {c}, {z}) is not finite")
    return float(out)


# ----------------------------------------------------------------------------
# expectations against the Gamma(M, 1) antenna gain
# ----------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _laguerre_rule(nodes: int, m: int):
    # weight x^(m-1) e^(-x) on (0, inf); divide by Gamma(m) for the mean
    x, w = sp.roots_genlaguerre(nodes, m - 1)
    return x, w / sp.gamma(m)


def gamma_expectation(f: Callable, m: int, nodes: int = 64) -> float:
    """E[f(G)] for G ~ Gamma(m, 1) by generalized Gauss-Laguerre quadrature.

    The node count is doubled once and the two estimates compared; a gap
    beyond 1e-9 triggers a warning. `f` should accept numpy arrays.
    """
    if m < 1 or int(m) != m:
        raise ValueError("m must be a positive integer")
    if nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")

    def apply(n):
        x, w = _laguerre_rule(n, int(m))
        y = np.asarray(f(x), dtype=float)
        if y.shape != x.shape:
            y = np.array([f(xi) for xi in x], dtype=float)
        return float(w @ y)

    coarse = apply(nodes)
    fine = apply(2 * nodes)
    if not math.isfinite(fine):
        raise NumericalError("gamma_expectation produced a non-finite value")
    if abs(fine - coarse) > 1e-9 + 1e-12 * abs(fine):
        warnings.warn(
            f"gamma_expectation doubling gap {abs(fine - coarse):.3e} "
            f"at {nodes} nodes; integrand may be under-resolved",
            stacklevel=2,
        )
    return fine


# ----------------------------------------------------------------------------
# Laplace-transform CDF inversion
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class LaplaceInversionSettings:
    method: str = "euler"    # "euler" (Abate-Whitt) or "talbot" (fixed Talbot)
    terms: int = 18          # series terms before averaging / Talbot node pairs
    tolerance: float = 1e-7  # absolute error target on CDF values

    def __post_init__(self):
        if self.method not in ("euler", "talbot"):
            raise ValueError("method must be 'euler' or 'talbot'")
        if self.terms < 10:
            raise ValueError("terms must be at least 10")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


DEFAULT_INVERSION = LaplaceInversionSettings()


# Abate-Whitt Euler summation: binomial averaging of the last _EULER_AVG + 1
# partial sums; _EULER_A ~ 18.4 keeps the aliasing error of a bounded
# function near 1e-8
_EULER_AVG = 11
_EULER_A = 18.4


@lru_cache(maxsize=64)
def _euler_nodes(t, terms):
    """Nodes s_k = _EULER_A/(2t) + i pi k/t of the Euler summation at t, the
    signs of their terms (the first halved) and the averaging weights
    C(_EULER_AVG, j) / 2^_EULER_AVG. Read-only and shared by every
    inversion at t, so a transform may cache its values at these nodes."""
    k = np.arange(terms + _EULER_AVG + 1)
    s = _EULER_A / (2.0 * t) + 1j * math.pi * k / t
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    signs[0] = 0.5
    w = np.array([math.comb(_EULER_AVG, j) for j in range(_EULER_AVG + 1)])
    w = w / 2.0 ** _EULER_AVG
    for a in (s, signs, w):
        a.setflags(write=False)
    return s, signs, w


def _euler_values(transform, t, terms):
    """Euler estimate at t and its change from one term fewer. Transform
    values of shape (K, nodes) give two lists of K, one entry per row."""
    s, signs, w = _euler_nodes(t, terms)
    partial = (signs * np.asarray(transform(s)).real).cumsum(axis=-1)
    scale = math.exp(_EULER_A / 2.0) / t
    est, err = [], []
    for row in partial if partial.ndim > 1 else (partial,):
        # a 1-D dot per row: a matrix product may add in another order
        value = scale * float(w @ row[terms:terms + _EULER_AVG + 1])
        prev = scale * float(w @ row[terms - 1:terms + _EULER_AVG])
        est.append(value)
        err.append(abs(value - prev))
    return (est, err) if partial.ndim > 1 else (est[0], err[0])


def _talbot_values(transform, t, terms):
    # fixed Talbot contour (Abate-Valko), 2*terms nodes
    n = 2 * terms
    k = np.arange(1, n)
    theta = k * math.pi / n
    cot = 1.0 / np.tan(theta)
    delta = np.empty(n, dtype=complex)
    delta[0] = 2.0 * n / 5.0
    delta[1:] = (2.0 * math.pi / 5.0) * k * (cot + 1j)
    gamma = np.empty(n, dtype=complex)
    gamma[0] = 0.5 * np.exp(delta[0])
    gamma[1:] = (1.0 + 1j * theta * (1.0 + cot ** 2) - 1j * cot) * np.exp(delta[1:])
    vals = np.asarray(transform(delta / t))
    est = (2.0 / (5.0 * t)) * np.sum((gamma * vals).real, axis=-1)
    # error proxy: drop the last (most oscillatory) node pair
    est_short = (2.0 / (5.0 * t)) * np.sum(
        (gamma[:-2] * vals[..., :-2]).real, axis=-1)
    err = np.abs(est - est_short)
    return (est.tolist(), err.tolist()) if vals.ndim > 1 \
        else (float(est), float(err))


def invert_laplace_cdf(transform: Callable, t: float,
                       settings: LaplaceInversionSettings = DEFAULT_INVERSION) -> float:
    """CDF value F(t) from the Laplace transform of the density.

    `transform` maps (complex arrays of) s to E[exp(-s T)]; the CDF transform
    transform(s)/s is inverted at t and clamped into [0, 1]. t <= 0 returns 0.
    A transform giving one row of values per law, shape (K, len(s)), gives
    an array of the K CDF values, each as its own 1-D inversion would.
    """
    if t <= 0.0:
        return 0.0
    cdf_transform = lambda s: np.asarray(transform(s)) / s
    if settings.method == "euler":
        est, err = _euler_values(cdf_transform, t, settings.terms)
    else:
        est, err = _talbot_values(cdf_transform, t, settings.terms)
    rows = isinstance(est, list)
    if not rows:
        est, err = (est,), (err,)
    if not all(map(math.isfinite, est)):
        raise NumericalError("Laplace inversion produced a non-finite value")
    if max(err, default=0.0) > max(settings.tolerance, 1e-7) * 50.0:
        raise NumericalError(
            f"Laplace inversion did not settle at t={t}: change "
            f"{max(err):.3e} between consecutive estimates"
        )
    if rows:
        return np.array([min(1.0, max(0.0, x)) for x in est])
    return min(1.0, max(0.0, est[0]))


# ----------------------------------------------------------------------------
# real polynomial roots
# ----------------------------------------------------------------------------


def poly_roots_real(coeffs: Sequence[float]):
    """Real roots of a real polynomial, ascending coefficient order.

    Returns (roots, residuals) with residuals |p(root)| scaled by the largest
    coefficient magnitude. Degree is capped at 16; a scaled residual beyond
    1e-6 raises a numerical error.
    """
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), trim="b")
    if c.size == 0:
        raise ValueError("zero polynomial has no well-defined roots")
    if c.size - 1 > 16:
        raise ValueError("polynomial degree above 16 is not supported")
    if c.size == 1:
        return np.empty(0), np.empty(0)
    roots = np.polynomial.polynomial.polyroots(c)
    scale = np.max(np.abs(c))
    real_mask = np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots.real))
    real_roots = np.sort(roots[real_mask].real)
    residuals = np.abs(np.polynomial.polynomial.polyval(real_roots, c)) / scale
    if np.any(residuals > 1e-6):
        raise NumericalError(
            f"ill-conditioned polynomial: scaled root residual "
            f"{residuals.max():.3e} exceeds 1e-6"
        )
    return real_roots, residuals
