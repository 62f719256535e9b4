import pytest

from qdiv._roots import BISECT_TOL, BracketError, bisect_decreasing


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
    assert down.points[:5] == [1.0, 0.0, -2.0, -6.0, -2.5]


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
