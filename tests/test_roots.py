import math

import pytest

from qdiv._roots import BISECT_TOL, RESIDUAL_TOL, BracketError, bisect_decreasing


class Recorder:
    """Nonincreasing test function that records every point it is asked for."""

    def __init__(self, fn):
        self.fn = fn
        self.points = []

    def __call__(self, x):
        self.points.append(x)
        return self.fn(x)


def linear(root):
    return Recorder(lambda x: root - x)


@pytest.mark.parametrize("root, start", [(3.3, 0.0), (-7.25, 0.0), (0.1, 0.1), (41.7, -5.0)])
def test_certified_lower_endpoint(root, start):
    f = linear(root)
    x, fx = bisect_decreasing(f, start, -200.0, 200.0)
    assert root - BISECT_TOL <= x <= root
    assert fx >= 0.0
    assert fx == f.fn(x)


def test_no_point_evaluated_twice():
    for root in (3.3, -7.25, 0.0, 150.0):
        f = linear(root)
        bisect_decreasing(f, 0.0, -200.0, 200.0)
        assert len(f.points) == len(set(f.points))


def test_walks_by_doubling_steps_from_start():
    up = linear(5.5)
    bisect_decreasing(up, 1.0, -200.0, 200.0)
    assert up.points[:4] == [1.0, 2.0, 4.0, 8.0]
    down = linear(-5.5)
    bisect_decreasing(down, 1.0, -200.0, 200.0)
    assert down.points[:4] == [1.0, 0.0, -2.0, -6.0]
    # the bracket is the last two walk points, not [-6, start]
    assert -6.0 < down.points[4] < -2.0
    # a step function is bisected, from the midpoint of that bracket
    up_step = Recorder(lambda x: 1.0 if x <= 5.5 else -1.0)
    bisect_decreasing(up_step, 1.0, -200.0, 200.0)
    assert up_step.points[:5] == [1.0, 2.0, 4.0, 8.0, 6.0]
    down_step = Recorder(lambda x: 1.0 if x <= -5.5 else -1.0)
    bisect_decreasing(down_step, 1.0, -200.0, 200.0)
    assert down_step.points[:5] == [1.0, 0.0, -2.0, -6.0, -4.0]


def test_none_when_still_nonnegative_at_ceiling():
    f = Recorder(lambda x: 1.0)
    assert bisect_decreasing(f, 0.0, -200.0, 60.0) is None
    assert f.points[-1] == 60.0
    assert bisect_decreasing(linear(60.0), 0.0, -200.0, 60.0) is None


def test_bracket_error_below_floor():
    with pytest.raises(BracketError):
        bisect_decreasing(Recorder(lambda x: -1.0), 0.0, -220.0, 220.0)
    with pytest.raises(BracketError):
        bisect_decreasing(Recorder(lambda x: float("nan")), 0.0, -220.0, 220.0)


def test_step_function_root():
    f = Recorder(lambda x: 1.0 if x <= 2.0 else -1.0)
    x, fx = bisect_decreasing(f, 0.0, -200.0, 200.0)
    assert 2.0 - BISECT_TOL <= x <= 2.0
    assert fx == 1.0


def evaluations_after_walk(f):
    """Evaluations made after the walk's first point with the other sign."""
    first = f.fn(f.points[0]) >= 0.0
    k = next(i for i, x in enumerate(f.points) if (f.fn(x) >= 0.0) != first)
    return len(f.points) - k - 1


@pytest.mark.parametrize("root", [3.3, -7.25, 0.1, 41.7, 150.0, -120.0])
def test_interpolation_budget_once_bracketed(root):
    # plain bisection took 37-45 evaluations here after the walk
    f = linear(root)
    bisect_decreasing(f, 0.0, -200.0, 200.0)
    assert evaluations_after_walk(f) <= 3
    g = Recorder(lambda x: math.expm1(root - x))
    x, _ = bisect_decreasing(g, 0.0, -200.0, 200.0)
    assert root - BISECT_TOL <= x <= root
    assert evaluations_after_walk(g) <= 13


def signed_sqrt(x):
    return math.copysign(math.sqrt(abs(x)), x)


# (f, evaluations plain bisection of [start, walk end] took), start 0
STRESS = {
    "step": (lambda x: 1.0 if x <= 2.0 else -1.0, 56),
    "cube": (lambda x: (1.7 - x) ** 3, 42),
    "ninth power": (lambda x: (1.7 - x) ** 9, 42),
    "signed sqrt": (lambda x: signed_sqrt(1.7 - x), 55),
    "kink, flat above": (lambda x: (1.7 - x) * (1.0 if x < 1.7 else 1e-6), 42),
    "kink, flat below": (lambda x: (1.7 - x) * (1e-6 if x < 1.7 else 1.0), 42),
    "noisy linear": (lambda x: 1.7 - x + (1e-13 if int(x * 1e12) % 2 else -1e-13), 42),
}


@pytest.mark.parametrize("name", sorted(STRESS))
def test_stress_functions_stay_within_bisection_budget(name):
    fn, bisection_evals = STRESS[name]
    f = Recorder(fn)
    x, fx = bisect_decreasing(f, 0.0, -200.0, 200.0)
    assert fx >= 0.0
    hi = min(p for p in f.points if p > x and fn(p) < 0.0)
    assert hi - x <= BISECT_TOL
    assert len(f.points) <= bisection_evals + 2
    assert len(f.points) == len(set(f.points))


def plain_bisection_evaluations(fn, good, bad):
    """Evaluations plain bisection of the bracket [good, bad] makes under `bisect_decreasing`'s stopping rules."""
    evaluations = 0
    while True:
        left, right = min(good, bad), max(good, bad)
        mid = 0.5 * (left + right)
        if not left < mid < right or right - left <= 2.0**-52 * max(1.0, abs(left), abs(right)):
            return evaluations
        f_mid = fn(mid)
        evaluations += 1
        if f_mid >= 0.0:
            good = mid
        else:
            bad = mid
        if abs(bad - good) <= BISECT_TOL and abs(f_mid) <= RESIDUAL_TOL:
            return evaluations


# nonincreasing functions of (root, x) with f >= 0 exactly where x <= root; all but the jump are continuous
FAMILIES = {
    "affine": (lambda r, x: r - x, True),
    "cube": (lambda r, x: (r - x) ** 3, True),
    "kink, flat above": (lambda r, x: (r - x) * (1.0 if x < r else 1e-6), True),
    "kink, flat below": (lambda r, x: (r - x) * (1e-6 if x < r else 1.0), True),
    "unit jump": (lambda r, x: 0.5 if x <= r else -0.5, False),
}


def test_drawn_roots_keep_the_bisection_contract():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=400, deadline=None)
    @hypothesis.given(
        family=st.sampled_from(sorted(FAMILIES)),
        root=st.floats(-50.0, 50.0),
        start=st.floats(-60.0, 60.0),
        first_step=st.floats(1e-9, 1.0),
    )
    def check(family, root, start, first_step):
        fn, continuous = FAMILIES[family]
        f = Recorder(lambda x: fn(root, x))
        x, fx = bisect_decreasing(f, start, -200.0, 200.0, first_step)
        assert fx >= 0.0 and fx == f.fn(x)
        assert len(f.points) == len(set(f.points))
        if continuous:
            assert root - BISECT_TOL <= x <= root
        # the walk ends at its first point of the other sign, and its last two points are the bracket
        first = f.fn(start) >= 0.0
        walk = next(i for i, p in enumerate(f.points) if (f.fn(p) >= 0.0) != first) + 1
        last, other = f.points[walk - 2], f.points[walk - 1]
        good, bad = (last, other) if first else (other, last)
        assert len(f.points) <= walk + plain_bisection_evaluations(f.fn, good, bad) + 2

    check()
