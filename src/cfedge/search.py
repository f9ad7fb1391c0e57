"""The one-dimensional searches of the split, radius and energy problems."""

from __future__ import annotations

import math

_GOLDEN_TOL = 1e-4
_GOLDEN_STEPS = 30
_BISECT_STEPS = 60


def maximize(f, grid, stop=None):
    """(argmax, max) of a function over the span of grid, or None if it is
    None (infeasible) at every grid point.

    f maps a list of points to the list of their values, so a caller can
    score several points in one pass: the grid goes in one call, the first
    golden-section pair in one call, then one point per step. The best grid
    point, the first on ties, is refined by golden-section search between
    its grid neighbours; None loses every comparison.

    With a stop value, the search returns the best point seen as soon as a
    value reaches stop, before the next call. Golden-section search keeps
    the better of its pair, so the best value seen is always the grid's or
    the pair's: result[1] >= stop exactly when the full search's is, after
    a prefix of its calls, and below stop the two results are the same.
    """
    xs = [float(x) for x in grid]
    values = f(xs)
    feasible = [i for i, v in enumerate(values) if v is not None]
    if not feasible:
        return None
    best = max(feasible, key=values.__getitem__)
    best_x, best_val = xs[best], values[best]

    def score(v):
        return -math.inf if v is None else v

    def reached(*vals):
        return stop is not None and max(map(score, vals)) >= stop

    if reached(best_val):
        return best_x, best_val

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = xs[max(best - 1, 0)], xs[min(best + 1, len(xs) - 1)]
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f([c, d])
    for _ in range(_GOLDEN_STEPS):
        if b - a < _GOLDEN_TOL or reached(fc, fd):
            break
        if score(fc) >= score(fd):
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc, = f([c])
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd, = f([d])
    for x, v in ((c, fc), (d, fd)):
        if v is not None and v > best_val:
            best_x, best_val = x, v
    return best_x, best_val


def bisect(pred, good: float, bad: float, tol: float) -> float:
    """Last point found where pred holds, narrowing [good, bad] (either
    order; pred holds at good, fails at bad) to a width below tol."""
    for _ in range(_BISECT_STEPS):
        if abs(bad - good) < tol:
            break
        mid = 0.5 * (good + bad)
        if pred(mid):
            good = mid
        else:
            bad = mid
    return good
