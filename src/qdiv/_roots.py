"""The one root-finder contract for continuous thresholds.

Every continuous threshold in the package (the induced-divergence
threshold, the induced-D_2 channel objective and the information-spectrum
divergence) is the largest x with f(x) >= 0 for a nonincreasing f, and is
found by ``bisect_decreasing``: one evaluation at a start point, a walk by
doubling steps to bracket the sign change, then bisection to an absolute
width of 1e-11 on the unknown and a residual of at most 1e-10, with a hard
cap of 200 steps.  No point is evaluated twice.

The Neyman-Pearson multiplier search in ``divergences.d_hypothesis`` is
separate and shares only the constants.  Its condition is a step function of
the multiplier: it looks for the jump, stops on bracket width alone and
returns the upper endpoint, so folding it in would need a mode flag.
"""

from __future__ import annotations

from typing import Callable

BISECT_TOL = 1e-11
BISECT_MAX_ITER = 200
RESIDUAL_TOL = 1e-10


class BracketError(RuntimeError):
    """No sign change could be bracketed above the floor."""


def bisect_decreasing(
    f: Callable[[float], float], start: float, floor: float, ceiling: float
) -> tuple[float, float] | None:
    """Largest x with f(x) >= 0 for nonincreasing f, as the pair (x, f(x)).

    Evaluates ``f(start)`` once, then walks up (while f >= 0) or down (while
    f < 0) by steps of 1, 2, 4, ...; ``start`` stays the other end of the
    bracket.  The upward walk is clamped at ``ceiling`` and gives None if f
    is still >= 0 there; the downward walk raises ``BracketError`` once a
    point at or below ``floor`` still has f < 0.  Bisection then stops when
    the bracket is at most ``BISECT_TOL`` wide and the last residual is at
    most ``RESIDUAL_TOL`` (or after ``BISECT_MAX_ITER`` steps) and returns
    the certified lower endpoint, where f >= 0.
    """
    lo = hi = start
    f_lo = val = f(start)
    step = 1.0
    while val >= 0.0:
        if hi >= ceiling:
            return None
        hi = min(ceiling, hi + step)
        step *= 2.0
        val = f(hi)
    while f_lo < 0.0:
        if lo <= floor:
            raise BracketError(f"no point with f >= 0 above {floor}")
        lo -= step
        step *= 2.0
        f_lo = f(lo)
    if not lo < hi:  # f(start) is NaN: neither walk moved
        raise BracketError(f"f is not a number at {start}")
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        val = f(mid)
        if val >= 0.0:
            lo, f_lo = mid, val
        else:
            hi = mid
        if hi - lo <= BISECT_TOL and abs(val) <= RESIDUAL_TOL:
            break
    return lo, f_lo
