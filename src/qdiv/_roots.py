"""The one root-finder contract for continuous thresholds.

Every continuous threshold in the package (the induced-divergence
threshold, the channel value, whose f maximizes the channel's collision
margin over input distributions at each point (`info.channel_mutual_info`),
the information-spectrum divergence, and the Neyman-Pearson multiplier of
the hypothesis-testing divergence where it lies between two jumps of the
pass probability) is the largest x with f(x) >= 0 for a nonincreasing f,
and is found by ``bisect_decreasing``: one evaluation at a start point, a
walk by doubling steps to bracket the sign change, then a safeguarded
inverse-quadratic search inside that bracket (Chandrupatla, Adv. Eng.
Softw. 28, 145, 1997) to an absolute width of 1e-11 on the unknown and a
residual of at most 1e-10, with a hard cap of 200 steps.  No point is
evaluated twice.  The walk's first step is 1, except in the induced
mirror descent (`info.induced_mutual_info_2`): it starts each solve after
the first at the last solve's tangent, below the new root, and its first
step is the move that tangent predicts.

The function keeps its bisection name because it keeps bisection's
contract: every step keeps a bracket with f >= 0 at its lower end, the
result is that certified lower end, and the bracket never lags plain
bisection of the same bracket by more than two halvings.  Smooth thresholds
take a few steps instead of about 38.  A margin that jumps across zero at
its threshold never meets the residual test, so its search runs on to the
float resolution of 1 or of the bracket's ends, whichever is coarser (about
55 steps from a unit bracket), or to the step cap.  Thresholds known in
closed form skip the search: ``d_hypothesis`` reads a multiplier at a jump
from the pencil rho^(-1/2) sigma rho^(-1/2) and searches only between two
jumps or upward from the first one, or over the full range when rho is
rank-deficient, and the induced
D_min and D_max thresholds are D + log(eps/(1-eps)).
"""

from __future__ import annotations

from typing import Callable

BISECT_TOL = 1e-11
BISECT_MAX_ITER = 200
RESIDUAL_TOL = 1e-10


class BracketError(RuntimeError):
    """No sign change could be bracketed above the floor."""


def bisect_decreasing(
    f: Callable[[float], float],
    start: float,
    floor: float,
    ceiling: float,
    first_step: float = 1.0,
) -> tuple[float, float] | None:
    """Largest x with f(x) >= 0 for nonincreasing f, as the pair (x, f(x)).

    Evaluates ``f(start)`` once, then walks up (while f >= 0) or down (while
    f < 0) by steps of s, 2s, 4s, ..., s = ``first_step``; the bracket is
    the last two points of the walk.  A caller whose start is already close
    to the root passes the distance it expects as ``first_step``, so the
    bracket is about that narrow; every other caller walks from steps of 1.
    The upward walk is clamped at ``ceiling`` and gives None if f is still
    >= 0 there; the downward walk raises ``BracketError`` once a point at or
    below ``floor`` still has f < 0.

    The bracket is then searched as Chandrupatla does: each new point is
    the inverse-quadratic interpolant through the last three points when
    Chandrupatla's test finds it monotone there, and the midpoint otherwise
    or after two consecutive steps that did not halve the bracket.  The
    point is then moved toward the midpoint as far as needed to keep the
    bracket within four times the width plain bisection would have left,
    so the search never falls more than two halvings behind bisection (the
    projection of the ITP method, Oliveira & Takahashi, ACM Trans. Math.
    Softw. 47, 5, 2020).  Each point lies at least ``BISECT_TOL / 2``
    inside the bracket, so a step next to a converged endpoint closes the
    bracket from the other side.  The search stops when the bracket is at
    most ``BISECT_TOL`` wide and the last residual is at most
    ``RESIDUAL_TOL``, once the bracket is no wider than 2^-52 times
    max(1, |left|, |right|), or after ``BISECT_MAX_ITER`` steps, and returns
    the certified lower endpoint, where f >= 0.
    """
    # a: the newest point, b: the other end of the bracket, c: the point
    # dropped last, beyond a (Chandrupatla's notation).  The walk leaves its
    # last three points there; after a one-step walk c == a, which gives
    # xi = phi = 1 and so a midpoint.
    a = b = c = start
    fa = fb = fc = f(start)
    step = first_step
    if fa >= 0.0:
        while fb >= 0.0:
            if b >= ceiling:
                return None
            c, fc, a, fa = a, fa, b, fb
            b = min(ceiling, b + step)
            step *= 2.0
            fb = f(b)
    else:
        while fb < 0.0:
            if b <= floor:
                raise BracketError(f"no point with f >= 0 above {floor}")
            c, fc, a, fa = a, fa, b, fb
            b -= step
            step *= 2.0
            fb = f(b)
    if a == b:  # f(start) is NaN: neither walk moved
        raise BracketError(f"f is not a number at {start}")

    goal = abs(b - a)  # the width plain bisection would leave
    missed = 0  # consecutive steps that did not halve the bracket
    for _ in range(BISECT_MAX_ITER):
        left, right = min(a, b), max(a, b)
        width = right - left
        goal *= 0.5
        t = 0.5
        if missed < 2 and width > BISECT_TOL and fc != fb:
            xi = (a - b) / (c - b)
            phi = (fa - fb) / (fc - fb)
            if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
                t = fa / (fb - fa) * fc / (fb - fc)
                t += (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
        # new bracket <= width / 2 + |x - mid| <= 4 * goal
        mid = 0.5 * (left + right)
        reach = 4.0 * goal - 0.5 * width
        x = min(max(a + t * (b - a), mid - reach), mid + reach)
        if width > BISECT_TOL:
            x = min(max(x, left + 0.5 * BISECT_TOL), right - 0.5 * BISECT_TOL)
        if not left < x < right or width <= 2.0**-52 * max(1.0, abs(left), abs(right)):
            break
        fx = f(x)
        if (fx >= 0.0) == (fa >= 0.0):
            c, fc = a, fa
        else:
            c, fc, b, fb = b, fb, a, fa
        a, fa = x, fx
        new_width = abs(b - a)
        if new_width <= BISECT_TOL and abs(fx) <= RESIDUAL_TOL:
            break
        missed = 0 if t == 0.5 or new_width <= 0.5 * width else missed + 1
    return (a, fa) if fa >= 0.0 else (b, fb)
