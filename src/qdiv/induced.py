"""The induced divergence of a parent relative entropy.

For a parent D and smoothing parameter eps in (0,1), the induced divergence
is the largest lambda with D(rho || rho + 2^lambda sigma) >= log(1-eps); its
normalized version adds log((1-eps)/eps) so that equal arguments give zero.
The map t -> D(rho || rho + t sigma) is nonincreasing (Loewner monotonicity
of any relative entropy), so the threshold is found by bracketed bisection;
the D_min and D_max parents have it in closed form, lam* = D + log(eps/(1-eps)).

Renyi parents dispatch on the order: alpha > 1 uses the condition
Q_alpha >= (1-eps)^(alpha-1), alpha = 1 the Umegaki condition, and
alpha in [0, 1) the reversed condition Q_alpha <= (1-eps)^(alpha-1).  Every
alpha = 2 threshold, those of `info` too, solves one margin (`_q2_margin`).
The other orders and the Umegaki parent read X = rho + t sigma in rho's
eigenbasis, where sigma is rotated once per solve; at alpha = 1/2 an
evaluation is a single eigvalsh (`ParentDivergence.margin_factory`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _roots
from .divergences import (
    INF,
    _is_contained,
    _is_orthogonal,
    _log_cross,
    _support_leak,
    _xlogx_sum,
    canon_alpha,
    d_alpha,
    d_max,
    d_min,
    d_umegaki,
)
from .linalg import (
    DensityOperator,
    PositiveOperator,
    ValidationError,
    _ascending_support,
    _eigh,
    _eigvalsh,
    _positive_sum,
    _q2_eigenbasis,
    as_density,
    as_matrix,
    as_positive,
)


LAMBDA_CEILING = 60.0  # condition still holding at t = 2^60 means +inf
LAMBDA_FLOOR = -200.0


@dataclass(frozen=True)
class ParentDivergence:
    """A relative entropy usable as the parent of an induced divergence.

    ``kind`` is one of renyi/umegaki/min/max for the built-in parents.  A
    custom parent sets ``fn``, an evaluation (rho, sigma) -> extended real
    that is continuous and nonincreasing under scaling of the second
    argument; every evaluation goes through ``fn`` and ``kind`` is only its
    name, whatever that name is.
    """

    kind: str
    alpha: float | None = None
    fn: Callable | None = None

    def __post_init__(self):
        if self.fn is None and self.kind not in ("renyi", "umegaki", "min", "max"):
            raise ValidationError(f"unknown parent kind {self.kind!r}")

    @classmethod
    def renyi(cls, alpha) -> "ParentDivergence":
        a = canon_alpha(alpha)
        if a == 0.0:
            return cls.min_()
        if a == 1.0:
            return cls.umegaki()
        if math.isinf(a):
            return cls.max_()
        return cls("renyi", alpha=a)

    @classmethod
    def umegaki(cls) -> "ParentDivergence":
        return cls("umegaki")

    @classmethod
    def min_(cls) -> "ParentDivergence":
        return cls("min")

    @classmethod
    def max_(cls) -> "ParentDivergence":
        return cls("max")

    @classmethod
    def custom(cls, fn: Callable, name: str = "custom") -> "ParentDivergence":
        return cls(name, fn=fn)

    def evaluate(self, rho, sigma) -> float:
        """Parent value D(rho || sigma)."""
        if self.fn is not None:
            return float(self.fn(rho, sigma))
        if self.kind == "renyi":
            return d_alpha(rho, sigma, self.alpha).value
        if self.kind == "umegaki":
            return d_umegaki(rho, sigma).value
        if self.kind == "min":
            return d_min(rho, sigma).value
        return d_max(rho, sigma).value

    def margin_limit(self, rho: DensityOperator, sigma: PositiveOperator, eps: float) -> float:
        """Limit of the margin as t -> infinity.

        Nonnegative limit means the defining condition holds for every t and
        the induced divergence is +inf.  Evaluated in closed form per parent
        (a direct probe at huge t is outside double-precision eigenvalue
        resolution): for Renyi orders above 1 the limit of Q_alpha is the
        weight of rho outside the support of sigma.  A custom parent has no
        closed form and reads -inf: its search alone finds a +inf threshold.
        """
        if self.fn is not None:
            return -math.inf
        log_1me = math.log2(1.0 - eps)
        if self.kind == "min":
            on_support = sigma.trace - _support_leak(sigma, rho)  # Tr[sigma Pi_rho]
            return -log_1me if on_support <= 1e-12 * max(1.0, sigma.trace) else -math.inf
        if self.kind == "max":
            return -math.inf if _is_contained(rho, sigma) else -log_1me
        if self.kind == "umegaki":
            return -log_1me if _is_orthogonal(rho, sigma) else -math.inf
        a = self.alpha  # renyi
        threshold = (1.0 - eps) ** (a - 1.0)
        if a > 1.0:
            return _support_leak(rho, sigma) - threshold
        coupled = 1.0 - _support_leak(rho, sigma)
        return (threshold - 1.0) if coupled <= 1e-12 else -math.inf

    def margin_factory(
        self, rho: DensityOperator, sigma: PositiveOperator, eps: float
    ) -> Callable[[float], float]:
        """Nonincreasing lam -> margin with margin >= 0 iff condition holds.

        Umegaki and Renyi alpha != 2 read X = rho + t sigma as diag(r) + t S,
        with S = U^dag sigma U rotated once into rho's eigenbasis.  Umegaki takes
        Tr[rho log X] = sum_i w_i log2 lambda_i, w = r |V|^2; Renyi sums mu^alpha
        over the eigenvalues mu of rho^1/2 X^p rho^1/2 on supp rho, p = (1-alpha)/alpha.
        At alpha = 1/2 that sandwich is diag(r^2) + t diag(r^1/2) S diag(r^1/2):
        one eigvalsh per evaluation and no eigh.  alpha = 2 is `_q2_margin`.  A
        custom parent gets X as a `PositiveOperator` from one eigh and no
        check (`linalg._positive_sum`), as rho and sigma were checked.
        """
        r_mat = rho.mat
        s_mat = sigma.mat
        log_1me = math.log2(1.0 - eps)

        if self.fn is not None:
            fn = self.fn

            def margin(lam: float) -> float:
                x = _positive_sum(r_mat + (2.0**lam) * s_mat)
                return float(fn(rho, x)) - log_1me

            return margin

        if self.kind in ("min", "max"):
            return _ratio_margin(self.evaluate(rho, sigma), eps)
        if self.kind == "renyi" and self.alpha == 2.0:
            return _q2_margin([(r_mat, s_mat)], eps)[0]

        # sigma rotated once into rho's eigenbasis, where rho is diag(r) and X = rho + t sigma is diag(r) + t S
        r, u = rho.eigenvalues, rho.eigenvectors
        s_rot = u.conj().T @ s_mat @ u
        base = np.diag(r + 0j)

        if self.kind == "umegaki":
            ent_r = _xlogx_sum(r)

            def margin(lam: float) -> float:
                evals, vecs = _eigh(base + (2.0**lam) * s_rot)
                return ent_r - _log_cross(r @ (vecs.conj() * vecs).real, evals) - log_1me

            return margin

        a = self.alpha  # renyi
        threshold = (1.0 - eps) ** (a - 1.0)
        sign = 1.0 if a > 1.0 else -1.0  # the condition is Q_alpha >= threshold above order 1, <= below
        k = _ascending_support(r)[1]  # supp rho is the block from k on
        root = np.sqrt(r[k:])
        power = (1.0 - a) / a
        if power == 1.0:  # alpha = 1/2: diag(r^2) + t C is affine in t, so X needs no decomposition
            squares = np.diag(r[k:] ** 2 + 0j)
            cross = root[:, None] * s_rot[k:, k:] * root

            def sandwich(t: float) -> np.ndarray:
                return squares + t * cross

        else:

            def sandwich(t: float) -> np.ndarray:
                evals, vecs = _eigh(base + t * s_rot)
                j = _ascending_support(evals)[1]  # the kernel of X never enters
                g = root[:, None] * vecs[k:, j:] * evals[j:] ** (0.5 * power)  # rho^1/2 X^(p/2), X's eigenbasis
                # g g^dag and g^dag g share their nonzero eigenvalues: the smaller one holds no rounded kernel,
                # and g^dag g is graded by X's spectrum, so its small eigenvalues keep their relative accuracy
                return g @ g.conj().T if g.shape[0] < g.shape[1] else g.conj().T @ g

        def margin(lam: float) -> float:
            mu = np.maximum(_eigvalsh(sandwich(2.0**lam)), 0.0)
            return sign * (float((mu**a).sum()) - threshold)

        return margin


def _ratio_margin(value: float, eps: float) -> Callable[[float], float]:
    """The margin of the D_min and D_max parents, whose parent value is ``value``.

    Both are -log2(1 + t 2^-value) - log2(1 - eps), t = 2^lam: D_min(rho || rho + t sigma)
    = -log2(1 + t Tr[sigma Pi_rho]) and D_max(rho || rho + t sigma) = -log2(1 + t / r*)
    with r* = 2^D_max(rho || sigma).  The zero is lam* = value + log2(eps / (1 - eps)).
    """
    log_1me = math.log1p(-eps)

    def margin(lam: float) -> float:
        return -(math.log1p(2.0 ** min(lam - value, 1000.0)) + log_1me) / math.log(2.0)

    return margin


def _decompose(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(evals, vecs) of a positive operator; a vector is a diagonal, with vecs None."""
    return (x, None) if x.ndim == 1 else _eigh(x)


def _q2_decomposed(c: np.ndarray, evals: np.ndarray, vecs: np.ndarray | None) -> float:
    """Q_2(c || X) from X's decomposition (`_decompose`)."""
    if vecs is None:
        on = evals > 0.0
        return float(np.sum(c[on] ** 2 / evals[on]))
    return _q2_eigenbasis(c, evals, vecs)[0]


def _q2_margin(blocks: list, eps: float) -> tuple[Callable[[float], float], dict]:
    """The collision margin lam -> sum_x Q_2(a_x || X_x) - (1 - eps), X_x = a_x + 2^lam b_x.

    ``blocks`` holds pairs (a_x, b_x) of positive operators, or of vectors
    read as diagonals.  With t = 2^lam, a = X - t b gives Q_2(a || X) =
    Tr a - t Tr b + t^2 Q_2(b || X).  While t sum Tr b_x <= 1 - eps, the
    margin is eps - (1 - sum Tr a_x) - t (sum Tr b_x - t sum Q_2(b_x || X_x)),
    with 1 - sum Tr a_x summed exactly: terms of the order of eps, where the
    direct sum cancels against 1 - eps as eps -> 0.  Beyond, where that form
    cancels in turn, it is the direct sum minus 1 - eps.  Returns the margin
    and the decompositions (`_decompose`) of each X_x it made, keyed by lam.
    A single matrix block, as in every `induced` solve and the induced
    mirror descent, takes its one `_eigh` and `_q2_eigenbasis` directly.
    """
    target = 1.0 - eps
    diagonals = [(m if m.ndim == 1 else np.diagonal(m).real).tolist() for pair in blocks for m in pair]
    deficit = math.fsum([1.0, *(-x for a in diagonals[::2] for x in a)])  # 1 - sum Tr a_x
    mass = math.fsum(x for b in diagonals[1::2] for x in b)
    evaluated: dict = {}
    single = len(blocks) == 1 and blocks[0][0].ndim == 2
    a1, b1 = blocks[0] if single else (None, None)

    def margin(lam: float) -> float:
        t = 2.0**lam
        small = t * mass <= target
        if single:
            dec = _eigh(a1 + t * b1)
            evaluated[lam] = [dec]
            total = _q2_eigenbasis(b1 if small else a1, *dec)[0]
        else:
            evaluated[lam] = decomposed = [_decompose(a + t * b) for a, b in blocks]
            total = sum(_q2_decomposed(b if small else a, *dec) for (a, b), dec in zip(blocks, decomposed))
        if small:
            return eps - deficit - t * (mass - t * total)
        return total - target

    return margin, evaluated


@dataclass(frozen=True)
class InducedResult:
    """Threshold of the induced divergence and the derived values.

    ``raw`` is the optimizer lambda* itself and ``normalized`` adds
    log((1-eps)/eps).  ``residual`` is |margin| at the returned lambda*, in
    the margin's own scale: Q_alpha for the Renyi orders, bits for the
    others and the parent's own value for a custom one.  It can exceed the
    root-finder's ``RESIDUAL_TOL`` (1e-10) when the search stops on float
    resolution instead: at rank-1 sigma with d = 2, the Umegaki parent and
    eps = 0.5, a threshold near lambda* = 29 leaves about 1e-9, as the
    margin's rounding at t = 2^29 is larger than that tolerance.  It does
    not bound the error in lambda*, which also depends on the margin's
    slope there.
    At alpha = 2 the margin keeps its relative accuracy at every eps, so
    lambda* is a lower bound to rounding; other orders lose it as eps -> 0.
    """

    lambda_star: float
    t_star: float
    raw: float
    normalized: float
    epsilon: float
    residual: float
    parent: str

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.raw)


def _infinite_result(eps: float, parent: str) -> InducedResult:
    return InducedResult(INF, INF, INF, INF, eps, 0.0, parent)


def _parent_tag(parent: ParentDivergence) -> str:
    if parent.fn is None and parent.kind == "renyi":
        return f"renyi({parent.alpha:g})"
    return parent.kind


def induced(parent: ParentDivergence, rho, sigma, eps: float) -> InducedResult:
    """Induced divergence of ``parent`` evaluated by bracketed bisection.

    The D_min and D_max parents skip the search: lambda* is their closed
    form D(rho || sigma) + log(eps/(1-eps)), moved down by a few units in
    the last place until their margin holds there (`_closed_threshold`).
    The result is +inf (a value, not an error) when the defining condition
    holds for every t, which happens when sigma misses too much of rho's
    support.  A built-in parent detects this from the closed-form limit of
    its margin as t -> infinity (``margin_limit``).  A custom parent is
    searched as the built-in ones are, from the D_min guess; a condition
    still holding at the search ceiling t = 2^60 reads as +inf, which is
    how a custom parent's +inf is found.  ``residual`` is |margin| at the
    returned lambda*, the certified lower end of the final bracket, in the
    margin's own scale.  It can exceed ``_roots.RESIDUAL_TOL`` when the
    search stops on float resolution (see `InducedResult`), and it does not
    bound the error in lambda*.
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps must be in (0, 1), got {eps}")
    r = as_density(rho)
    s = as_positive(sigma)
    if r.dim != s.dim:
        raise ValidationError(f"dimension mismatch: {r.dim} vs {s.dim}")
    tag = _parent_tag(parent)
    if parent.fn is None:
        if parent.margin_limit(r, s, eps) >= 0.0:
            return _infinite_result(eps, tag)
        if parent.kind in ("min", "max"):
            value = parent.evaluate(r, s)
            return _closed_threshold(_ratio_margin(value, eps), value + math.log2(eps / (1.0 - eps)), eps, tag)
    margin = parent.margin_factory(r, s, eps)
    dm = d_min(r, s).value
    guess = dm + math.log2(eps / (1.0 - eps)) if math.isfinite(dm) else 0.0
    return _threshold(margin, guess, eps, tag)


def _closed_threshold(margin: Callable[[float], float], lam: float, eps: float, tag: str) -> InducedResult:
    """The threshold at its closed form ``lam``, moved down until the margin holds there.

    Each step down is twice the last, from one unit in the last place of
    max(1, |lam|); a closed form that needs more than the search's bracket
    (``BISECT_TOL``), or lies outside the search range, is searched instead.
    """
    step = np.spacing(max(1.0, abs(lam)))
    while LAMBDA_FLOOR < lam < LAMBDA_CEILING and step <= _roots.BISECT_TOL:
        value = margin(lam)
        if value >= 0.0:
            normalized = lam + math.log2((1.0 - eps) / eps)
            return InducedResult(lam, 2.0**lam, lam, normalized, eps, abs(value), tag)
        lam -= step
        step *= 2.0
    return _threshold(margin, lam, eps, tag)


def _threshold(
    margin: Callable[[float], float], start: float, eps: float, tag: str, first_step: float = 1.0
) -> InducedResult:
    """The threshold of a nonincreasing margin, searched from ``start`` by a walk whose first step is ``first_step``.

    The start is clamped inside the search range; a margin still >= 0 at
    the ceiling gives +inf (``induced`` rules out the closed-form +inf cases
    first).  ``induced`` starts from a D_min guess with a unit step; the
    induced mirror descent from the tangent prediction of the last solve,
    with a step of the predicted move (`info.induced_mutual_info_2`).
    """
    start = min(max(start, LAMBDA_FLOOR + 1.0), LAMBDA_CEILING - 1.0)
    found = _roots.bisect_decreasing(margin, start, LAMBDA_FLOOR, LAMBDA_CEILING, first_step)
    if found is None:
        return _infinite_result(eps, tag)
    lam, value = found
    normalized = lam + math.log2((1.0 - eps) / eps)
    return InducedResult(lam, 2.0**lam, lam, normalized, eps, abs(value), tag)


def induced_renyi(rho, sigma, alpha, eps: float) -> InducedResult:
    """Induced sandwiched-Renyi divergence; alpha 0 and inf use min/max."""
    return induced(ParentDivergence.renyi(alpha), rho, sigma, eps)


@dataclass(frozen=True)
class BlockReport:
    """Both sides of the direct-sum identity for the induced divergence."""

    lhs: float
    rhs: float
    gap: float
    ok: bool


def induced_block_property(
    rho, sigma, omega, t: float, eps: float, parent: ParentDivergence, base: InducedResult | None = None
) -> BlockReport:
    """Check D_ind(rho (+) 0 || t sigma (+) (1-t) omega) = D_ind(rho||sigma) - log t.

    ``base`` is ``induced(parent, rho, sigma, eps)`` when the caller already
    holds it; otherwise it is solved here.
    """
    if not 0.0 < t <= 1.0:
        raise ValidationError(f"t must be in (0, 1], got {t}")
    r = as_matrix(rho)
    s = as_matrix(sigma)
    w = as_matrix(omega)
    da, db = r.shape[0], w.shape[0]
    big_rho = np.zeros((da + db, da + db), dtype=np.complex128)
    big_rho[:da, :da] = r
    big_sigma = np.zeros_like(big_rho)
    big_sigma[:da, :da] = t * s
    big_sigma[da:, da:] = (1.0 - t) * w
    lhs = induced(parent, DensityOperator(big_rho), PositiveOperator(big_sigma), eps).raw
    if base is None:
        base = induced(parent, rho, sigma, eps)
    rhs = base.raw - math.log2(t)
    if math.isinf(lhs) and math.isinf(rhs):
        return BlockReport(lhs, rhs, 0.0, True)
    gap = abs(lhs - rhs)
    return BlockReport(lhs, rhs, gap, gap <= 1e-8)
