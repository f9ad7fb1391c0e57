"""Grid + golden-section maximization and bisection."""

import math

import pytest
from hypothesis import given, settings, strategies as st

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


def _golden_reference(f, grid):
    # the search without a stop, step for step: grid, pair, one point a step
    xs = [float(x) for x in grid]
    values = f(xs)
    feasible = [i for i, v in enumerate(values) if v is not None]
    if not feasible:
        return None
    best = max(feasible, key=values.__getitem__)
    best_x, best_val = xs[best], values[best]

    def score(v):
        return -math.inf if v is None else v

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = xs[max(best - 1, 0)], xs[min(best + 1, len(xs) - 1)]
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f([c, d])
    for _ in range(30):
        if b - a < 1e-4:
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


def _recorded(g):
    # a list-of-points f that logs each call
    calls = []

    def f(xs):
        calls.append(list(xs))
        return [g(x) for x in xs]

    return f, calls


@settings(max_examples=300, deadline=None)
@given(grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=25)
       .map(sorted),
       freq=st.floats(0.0, 40.0), phase=st.floats(0.0, 2 * math.pi),
       gap=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.5)),
       digits=st.sampled_from([1, 3, 16]), data=st.data())
def test_stop_is_a_prefix_with_the_same_verdict(grid, freq, phase, gap,
                                                digits, data):
    # a deterministic, multimodal f, None on one interval, rounded so that
    # some values tie (16 digits: next to none)
    def g(x):
        if gap[0] <= x <= gap[0] + gap[1]:
            return None
        return round(math.sin(freq * x + phase), digits)

    f_full, full_calls = _recorded(g)
    full = maximize(f_full, grid)
    f_ref, ref_calls = _recorded(g)
    assert full == _golden_reference(f_ref, grid)
    assert full_calls == ref_calls

    seen = [v for xs in full_calls for v in map(g, xs) if v is not None]
    # a stop at a value the search meets, or anywhere around the values
    stop = data.draw(st.sampled_from(seen or [0.0]) | st.floats(-1.5, 1.5))
    f_stop, stop_calls = _recorded(g)
    stopped = maximize(f_stop, grid, stop=stop)
    # the calls up to and including the first that returns a value >= stop
    reaching = [k for k, xs in enumerate(full_calls)
                if any(v is not None and v >= stop for v in map(g, xs))]
    assert stop_calls == full_calls[:reaching[0] + 1 if reaching else None]

    def meets(result):
        return result is not None and result[1] >= stop

    assert meets(stopped) == meets(full)
    if not meets(full):
        assert stopped == full
    else:
        assert g(stopped[0]) == stopped[1] <= full[1]


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
