"""Grid + golden-section maximization and bisection."""

import pytest

from cfedge.search import bisect, maximize


def _pointwise(g):
    # maximize's f maps a list of points to the list of their values
    return lambda xs: [g(x) for x in xs]


def test_no_feasible_point():
    assert maximize(_pointwise(lambda x: None), [0.0, 0.5, 1.0]) is None


def test_peak_at_grid_edge():
    # increasing on [0, 1]: the bracket is [0.75, 1] and the edge wins
    x, val = maximize(_pointwise(lambda x: x), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert x == 1.0
    assert val == 1.0


def test_infeasible_neighbour_of_best_point():
    # f is infeasible above 0.55, next to the best grid point 0.5; the
    # search must stay on the feasible side and still move off the grid
    def f(x):
        return None if x > 0.55 else -(x - 0.54) ** 2

    x, val = maximize(_pointwise(f), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert 0.5 < x <= 0.55
    assert val == f(x)
    assert val > f(0.5)


def test_unimodal_peak_within_tolerance():
    peak = 0.3713
    x, val = maximize(_pointwise(lambda x: 1.0 - (x - peak) ** 2),
                      [i / 20 for i in range(21)])
    assert x == pytest.approx(peak, abs=1e-4)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_ties_pick_the_first_grid_point():
    # equal values everywhere: the first grid point wins and no golden
    # step beats it
    x, val = maximize(_pointwise(lambda x: 0.5), [0.0, 0.5, 1.0])
    assert (x, val) == (0.0, 0.5)


def test_calls_grid_then_pair_then_single_points():
    peak = 0.3713
    calls = []

    def f(xs):
        calls.append(list(xs))
        return [1.0 - (x - peak) ** 2 for x in xs]

    grid = [i / 20 for i in range(21)]
    x, val = maximize(f, grid)
    assert calls[0] == grid
    assert len(calls[1]) == 2
    c, d = calls[1]
    assert 0.3 < c < d < 0.4        # the golden pair inside the bracket
    assert len(calls) > 3
    assert all(len(xs) == 1 for xs in calls[2:])
    evaluated = [p for xs in calls for p in xs]
    assert x in evaluated
    assert val == 1.0 - (x - peak) ** 2


def test_calls_with_infeasible_points():
    # None is passed through per point, in the order the points were sent
    calls = []

    def f(xs):
        calls.append(list(xs))
        return [None if x > 0.55 else -(x - 0.54) ** 2 for x in xs]

    x, val = maximize(f, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert 0.5 < x <= 0.55
    assert [len(xs) for xs in calls[:2]] == [5, 2]
    assert all(len(xs) == 1 for xs in calls[2:])


@pytest.mark.parametrize("good,bad", [(0.0, 1.0), (1.0, 0.0)])
def test_bisect_returns_feasible_side(good, bad):
    edge = 0.437
    if good < bad:
        def pred(x):
            return x <= edge
    else:
        def pred(x):
            return x >= edge
    got = bisect(pred, good, bad, 1e-9)
    assert pred(got)
    assert got == pytest.approx(edge, abs=1e-9)
