"""Parent quantum divergences with full support-case analysis.

Implements the sandwiched Renyi family Q_alpha / D_alpha (all branches and
the alpha in {0, 1, inf} closed forms), the hypothesis-testing divergence via
an exact quantum Neyman-Pearson construction, the information-spectrum
divergence, the pinching lower bound on the measured relative entropy, and
the direct-sum identity check.  All logarithms are base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _roots
from .linalg import (
    PositiveOperator,
    ValidationError,
    _ascending_support,
    _eigh,
    _eigvalsh,
    _sandwiched_q,
    _spectral_positive,
    as_density,
    as_matrix,
    as_positive,
    spectral_fn,
)

INF = math.inf

_EPS = np.finfo(np.float64).eps


def canon_alpha(alpha) -> float:
    """Validate a Renyi order; values within 1e-9 of {0, 1} snap exactly."""
    a = float(alpha)
    if math.isnan(a):
        raise ValidationError("alpha is NaN")
    if -1e-9 <= a < 0.0:
        a = 0.0
    if a < 0.0:
        raise ValidationError(f"alpha must be >= 0, got {a}")
    if math.isinf(a):
        return INF
    for special in (0.0, 1.0):
        if abs(a - special) <= 1e-9:
            return special
    return a


@dataclass(frozen=True)
class DivergenceValue:
    """Extended-real divergence value and the definition branch that fired."""

    value: float
    support_case: str

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)

    def __float__(self) -> float:
        return self.value


def _check_dims(a: PositiveOperator, b: PositiveOperator) -> None:
    if a.dim != b.dim:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _is_orthogonal(rho: PositiveOperator, sigma: PositiveOperator) -> bool:
    overlap = float(np.vdot(sigma.mat, rho.mat).real)  # Tr[rho sigma], sigma Hermitian
    scale = max(1.0, float(rho.eigenvalues[-1])) * max(1.0, float(sigma.eigenvalues[-1]))
    return overlap <= 1e-12 * scale


def _support_leak(rho: PositiveOperator, sigma: PositiveOperator) -> float:
    """Weight of rho outside the support of sigma."""
    cut, k = _ascending_support(sigma.eigenvalues)
    if not k:
        return 0.0
    v = sigma.eigenvectors[:, sigma.eigenvalues <= cut]  # a mask's copy: einsum's summation order follows its layout
    return float(np.einsum("ij,jk,ki->", v.conj().T, rho.mat, v).real)


def _is_contained(rho: PositiveOperator, sigma: PositiveOperator) -> bool:
    return _support_leak(rho, sigma) <= 1e-10 * max(1.0, rho.trace)


def _xlogx_sum(evals: np.ndarray) -> float:
    """Tr[X log X] over the support of X (minus the entropy of a state), from its ascending eigenvalues."""
    return float(sum(x * math.log2(x) for x in evals[_ascending_support(evals)[1] :]))


def _log_cross(weights: np.ndarray, evals: np.ndarray) -> float:
    """Tr[rho log X] over the support of X, from X's ascending eigenvalues and rho's weight on each eigenvector.

    ``weights`` is contiguous: np.dot sums a strided vector in another order.
    """
    k = _ascending_support(evals)[1]
    return float(np.dot(weights[k:], np.log2(evals[k:])))


def q_alpha(rho, sigma, alpha) -> float:
    """Q_alpha(rho || sigma) = Tr (sigma^((1-a)/2a) rho sigma^((1-a)/2a))^a.

    Computed on supports.  The first argument may be any positive operator
    (normalization is not required).  alpha = 0 uses the limit convention
    Q_0(rho || sigma) = Tr[sigma Pi_rho], consistent with D_0 = D_min;
    alpha = 1 gives the pinched overlap Tr[Pi_sigma rho].
    """
    a = canon_alpha(alpha)
    if math.isinf(a):
        raise ValidationError("q_alpha requires finite alpha")
    r = as_positive(rho)
    s = as_positive(sigma)
    _check_dims(r, s)
    if a == 0.0:
        cut, k = _ascending_support(r.eigenvalues)
        if not k:  # Pi_rho = I
            return s.trace
        v = r.eigenvectors[:, r.eigenvalues > cut]  # a mask's copy, as in `_support_leak`
        return float(np.einsum("ij,jk,ki->", v.conj().T, s.mat, v).real)
    return _sandwiched_q(r.mat, s.eigenvalues, s.eigenvectors, a, (r.eigenvalues, r.eigenvectors))


def d_min(rho, sigma) -> DivergenceValue:
    """Min relative entropy -log Tr[sigma Pi_rho]."""
    r = as_density(rho)
    s = as_positive(sigma)
    _check_dims(r, s)
    overlap = q_alpha(r, s, 0.0)
    if overlap <= 0.0 or _is_orthogonal(r, s):
        return DivergenceValue(INF, "orthogonal")
    return DivergenceValue(-math.log2(overlap), "min")


def d_max(rho, sigma) -> DivergenceValue:
    """Max relative entropy log min{t : t sigma >= rho}."""
    r = as_density(rho)
    s = as_positive(sigma)
    _check_dims(r, s)
    if not _is_contained(r, s):
        return DivergenceValue(INF, "not_contained")
    half = spectral_fn(s.eigenvalues, s.eigenvectors, -0.5, s.cutoff)
    inner = half @ r.mat @ half
    top = float(_eigvalsh(0.5 * (inner + inner.conj().T))[-1])
    if top <= 0.0:
        return DivergenceValue(-INF, "max")
    return DivergenceValue(math.log2(top), "max")


def d_umegaki(rho, sigma) -> DivergenceValue:
    """Umegaki relative entropy Tr[rho log rho] - Tr[rho log sigma]."""
    r = as_density(rho)
    s = as_positive(sigma)
    _check_dims(r, s)
    if not _is_contained(r, s):
        return DivergenceValue(INF, "not_contained")
    ent = _xlogx_sum(r.eigenvalues)
    vecs = s.eigenvectors
    cross = _log_cross((vecs.conj() * (r.mat @ vecs)).sum(axis=0).real.copy(), s.eigenvalues)
    return DivergenceValue(ent - cross, "umegaki")


def d_alpha(rho, sigma, alpha) -> DivergenceValue:
    """Sandwiched Renyi relative entropy with the full case table.

    Branches: alpha in [1/2, 1) or alpha > 1 use Q_alpha(rho||sigma); alpha
    in [0, 1/2) uses the dual Q_(1-alpha)(sigma||rho); alpha in {0, 1, inf}
    dispatch to D_min, Umegaki, and D_max.  Support violations return +inf,
    never raise.
    """
    a = canon_alpha(alpha)
    if a == 0.0:
        return d_min(rho, sigma)
    if a == 1.0:
        return d_umegaki(rho, sigma)
    if math.isinf(a):
        return d_max(rho, sigma)
    r = as_density(rho)
    s = as_positive(sigma)
    _check_dims(r, s)
    if a > 1.0:
        if not _is_contained(r, s):
            return DivergenceValue(INF, "not_contained")
        q = q_alpha(r, s, a)
        if q <= 0.0:
            return DivergenceValue(INF, "degenerate")
        return DivergenceValue(math.log2(q) / (a - 1.0), "renyi_primary")
    if _is_orthogonal(r, s):
        return DivergenceValue(INF, "orthogonal")
    if a >= 0.5:
        q = q_alpha(r, s, a)
        case = "renyi_primary"
    else:
        q = q_alpha(s, r, 1.0 - a)
        case = "renyi_dual"
    if q <= 0.0:
        return DivergenceValue(INF, "degenerate")
    return DivergenceValue(math.log2(q) / (a - 1.0), case)


@dataclass(frozen=True)
class NeymanPearsonTest:
    """Optimal effect for the hypothesis-testing divergence."""

    mu: float
    effect: PositiveOperator
    alpha_err: float  # Tr[rho Lambda], >= 1 - eps at return
    beta: float  # Tr[sigma Lambda]


def d_hypothesis(rho, sigma, eps: float) -> tuple[DivergenceValue, NeymanPearsonTest]:
    """Hypothesis-testing divergence, exact via quantum Neyman-Pearson.

    The optimal effect is the projector onto the positive part of
    mu*rho - sigma plus a fractional weight on its kernel, where mu is the
    smallest multiplier whose pass probability f(mu) = Tr[rho P_+(mu)]
    reaches 1 - eps; the kernel weight makes Tr[rho Lambda] = 1 - eps.

    f is nondecreasing and jumps where an eigenvalue of mu*rho - sigma
    crosses zero.  For full-rank rho, mu*rho - sigma is congruent to
    mu - rho^(-1/2) sigma rho^(-1/2) (Sylvester's law of inertia), so the
    jumps are the eigenvalues mu_k of that pencil, from one ``eigvalsh``.
    A binary search over the sorted mu_k reads f just below and just above
    a probed mu_k from one eigendecomposition of mu_k*rho - sigma: its
    positive part and its kernel.  If 1 - eps falls inside that jump, mu is
    mu_k exactly.  Otherwise f is continuous between the two neighbouring
    probes, and one ``bisect_decreasing`` search over x = -log2 mu runs
    between them, starting at the upper probe from f's limit from below
    there (the positive part alone, without the jump).  When f already
    reaches 1 - eps just below the first (smallest) jump mu_0 (sigma is
    rank-deficient, as f(0+) is rho's weight on ker sigma, the leak), the
    search walks up from x_0 = -log2 mu_0, where the margin is >= 0; above
    it the margin tends to the leak minus 1 - eps < 0.  For rank-deficient
    rho the pencil is singular and the jump list is empty; then the search
    runs over the full range.  Eigenvalues within 128 eps_mach
    |mu*rho - sigma| + delta lambda_max(rho) of zero are kernel, where delta
    is mu's uncertainty: 0 at a search's probe, its bracket at the searched
    mu, and at a jump the pencil eigenvalue's own error, or the bracket if
    that is smaller.  The searched margin is f just above mu, rho's weight
    on the eigenvalues at or above -band, so a jump the search meets ends
    inside the final kernel.  If rho puts weight 1 - eps or more on the
    kernel of sigma, the value is +inf and the effect is a multiple of that
    kernel's projector.
    """
    if not 0.0 <= eps < 1.0:
        raise ValidationError(f"eps must be in [0, 1), got {eps}")
    r = as_density(rho)
    s = as_positive(sigma)
    _check_dims(r, s)

    if eps == 0.0:
        v = r.eigenvectors[:, _ascending_support(r.eigenvalues)[1] :]
        proj = v @ v.conj().T
        beta = float(np.trace(s.mat @ proj).real)
        alpha_pass = float(np.trace(r.mat @ proj).real)
        test = NeymanPearsonTest(INF, PositiveOperator(proj), alpha_pass, beta)
        if beta <= 0.0:
            return DivergenceValue(INF, "orthogonal"), test
        return DivergenceValue(-math.log2(beta), "hypothesis"), test

    target = 1.0 - eps
    leak = _support_leak(r, s)
    if leak >= target:  # a test on the kernel of sigma passes rho at zero cost
        ker = s.eigenvectors[:, : _ascending_support(s.eigenvalues)[1]]
        effect = PositiveOperator((target / leak) * (ker @ ker.conj().T))
        alpha_pass = float(np.trace(r.mat @ effect.mat).real)
        beta = float(np.trace(s.mat @ effect.mat).real)
        return DivergenceValue(INF, "not_contained"), NeymanPearsonTest(INF, effect, alpha_pass, beta)

    top = float(r.eigenvalues[-1])
    splits: dict = {}  # x = -log2 mu -> (mu, its uncertainty, eigh of mu rho - sigma, rho's weights, rounding)

    def split(x: float, mu: float, mu_err: float) -> None:
        mat = mu * r.mat - s.mat
        evals, vecs = _eigh(mat)
        weights = (vecs.conj() * (r.mat @ vecs)).sum(axis=0).real  # rho's weight on each eigenvector
        splits[x] = (mu, mu_err, evals, vecs, weights, 128.0 * _EPS * max(1.0, float(np.max(np.abs(mat)))))

    def parts(x: float, mu_err: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """rho's weights at x, and masks of the positive part and the kernel under the band rule."""
        _, _, evals, _, weights, rounding = splits[x]
        band = rounding + mu_err * top
        return weights, evals > band, np.abs(evals) <= band

    def margin(x: float) -> float:  # f just above mu = 2^-x, minus 1 - eps: nonincreasing in x
        if x not in splits:
            split(x, 2.0**-x, 0.0)
        weights, pos, ker = parts(x, splits[x][1])
        return float(np.sum(weights[pos | ker])) - target

    jumps, pencil_err = np.empty(0), 0.0
    if r.eigenvalues[0] > r.cutoff:
        half = (r.eigenvectors * r.eigenvalues**-0.5) @ r.eigenvectors.conj().T
        pencil = half @ s.mat @ half
        jumps = _eigvalsh(0.5 * (pencil + pencil.conj().T))
        pencil_err = max(r.dim, 8) * _EPS * float(jumps[-1])
        jumps = jumps[jumps > pencil_err]  # a zero is the kernel of sigma, which the leak weighs
    xs = -np.log2(jumps)
    lo, hi = -1, jumps.size  # margin(xs[lo]) < 0 <= margin(xs[hi]); -1 and size are unprobed
    while hi - lo > 1:
        mid = (lo + hi) // 2
        split(float(xs[mid]), float(jumps[mid]), min(pencil_err, 4.0 * _roots.BISECT_TOL * float(jumps[mid])))
        if margin(float(xs[mid])) >= 0.0:
            hi = mid
        else:
            lo = mid

    at_jump = False
    if hi < jumps.size:
        x = float(xs[hi])
        weights, pos, _ = parts(x, splits[x][1])
        at_jump = np.sum(weights[pos]) < target  # 1 - eps lies inside the jump at jumps[hi]
    if at_jump:
        mu_err = splits[x][1]
    else:  # f is continuous between the probes, or they do not bracket 1 - eps
        if hi < jumps.size and lo >= 0:
            # at x = -log2 mu_hi the margin holds the jump's kernel; inside (mu_lo, mu_hi) f tends to the
            # positive part alone, so the search starts from that one-sided limit and sees no kink there
            x_hi, limit = x, float(np.sum(weights[pos])) - target
            found = _roots.bisect_decreasing(lambda y: limit if y == x_hi else margin(y), x, x, float(xs[lo]))
        elif hi == 0 < jumps.size:  # below the first jump; the margin tends to the leak - (1 - eps) < 0 as mu -> 0
            found = _roots.bisect_decreasing(margin, x, x, 120.0)
        else:  # at mu = 2^-120 the margin is about the leak minus 1 - eps, so the walk up stops
            start = -math.log2(max(1.0, float(s.eigenvalues[-1])))
            try:
                found = _roots.bisect_decreasing(margin, start, -120.0, 120.0)
            except _roots.BracketError:
                found = None
        if found is None:
            raise ValidationError("Neyman-Pearson multiplier bracketing failed")
        x = found[0]
        mu_err = 4.0 * _roots.BISECT_TOL * splits[x][0]  # the bracket on x, in mu
    weights, pos, ker = parts(x, mu_err)
    mu, vecs = splits[x][0], splits[x][3]
    a_pos, a_ker = float(np.sum(weights[pos])), float(np.sum(weights[ker]))
    w = min(max((target - a_pos) / a_ker, 0.0), 1.0) if a_ker > 1e-15 else 0.0
    # the effect's spectrum, 0 below the kernel, w on it and 1 above, is ascending as the eigenvalues are
    effect = _spectral_positive(np.where(pos, 1.0, np.where(ker, w, 0.0)), vecs)
    alpha_pass = a_pos + w * a_ker
    beta = float(np.trace(s.mat @ effect.mat).real)
    test = NeymanPearsonTest(mu, effect, alpha_pass, beta)
    if beta <= 0.0:
        return DivergenceValue(INF, "orthogonal"), test
    return DivergenceValue(-math.log2(beta), "hypothesis"), test


def d_tilde_max(rho, sigma, eps: float) -> DivergenceValue:
    """Information-spectrum divergence inf{lam : Tr(rho - 2^lam sigma)_+ <= eps}."""
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps must be in (0, 1), got {eps}")
    r = as_density(rho)
    s = as_positive(sigma)
    _check_dims(r, s)
    if s.trace <= 0.0:
        raise ValidationError("sigma is zero; no finite threshold exists")
    if _support_leak(r, s) > eps:  # Tr(rho - t sigma)_+ falls to this weight as t grows
        return DivergenceValue(INF, "not_contained")

    def margin(lam: float) -> float:  # Tr(rho - t sigma)_+ - eps; both operands are Hermitian
        evals = _eigvalsh(r.mat - (2.0**lam) * s.mat)
        return float(np.sum(evals[evals > 0.0])) - eps

    found = _roots.bisect_decreasing(margin, 0.0, -220.0, 220.0)
    if found is None:
        return DivergenceValue(INF, "not_contained")
    return DivergenceValue(found[0], "ispec")


def sigma_pinching_projectors(sigma) -> list[np.ndarray]:
    """Spectral projectors of sigma, one per (numerically) distinct eigenvalue."""
    s = as_positive(sigma)
    evals, vecs = s.eigenvalues, s.eigenvectors
    tol = 16.0 * max(s.dim, 8) * _EPS * max(float(evals[-1]), _EPS)
    projectors = []
    start = 0
    for i in range(1, s.dim + 1):
        if i == s.dim or evals[i] - evals[start] > tol:
            block = vecs[:, start:i]
            projectors.append(block @ block.conj().T)
            start = i
    return projectors


class PinchedBound(NamedTuple):
    value: DivergenceValue
    spectrum_size: int
    pinched: np.ndarray


def pinched_measured_lower_bound(rho, sigma, alpha) -> PinchedBound:
    """D_alpha of the sigma-pinched rho against sigma, plus |spec(sigma)|.

    Pinching block-diagonalizes rho in the eigenspaces of sigma; the result
    commutes with sigma, so this is a measured-relative-entropy lower bound.
    """
    a = canon_alpha(alpha)
    if not (0.0 <= a <= 2.0):
        raise ValidationError(f"pinched bound is defined for alpha in [0, 2], got {a}")
    r = as_density(rho)
    s = as_positive(sigma)
    _check_dims(r, s)
    projectors = sigma_pinching_projectors(s)
    pinched = np.zeros_like(r.mat)
    for p in projectors:
        pinched = pinched + p @ r.mat @ p
    value = d_alpha(as_density(pinched), s, a)
    return PinchedBound(value, len(projectors), pinched)


@dataclass(frozen=True)
class DirectSumReport:
    lhs: float
    rhs: float
    gap: float
    ok: bool


def check_direct_sum(probs, rhos: Sequence, sigmas: Sequence, alpha) -> DirectSumReport:
    """Verify Q_alpha(rho^XA || sigma^XA) = sum_x p_x Q_alpha(rho_x || sigma_x)."""
    p = np.asarray(probs, dtype=np.float64)
    if len(rhos) != p.size or len(sigmas) != p.size:
        raise ValidationError("probability vector and block lists must match")
    rho_blocks = [as_matrix(r) for r in rhos]
    sigma_blocks = [as_matrix(s) for s in sigmas]
    d = rho_blocks[0].shape[0]
    k = p.size
    big_rho = np.zeros((k * d, k * d), dtype=np.complex128)
    big_sigma = np.zeros_like(big_rho)
    for x in range(k):
        sl = slice(x * d, (x + 1) * d)
        big_rho[sl, sl] = p[x] * rho_blocks[x]
        big_sigma[sl, sl] = p[x] * sigma_blocks[x]
    lhs = q_alpha(PositiveOperator(big_rho), PositiveOperator(big_sigma), alpha)
    rhs = float(
        sum(
            p[x] * q_alpha(PositiveOperator(rho_blocks[x]), PositiveOperator(sigma_blocks[x]), alpha)
            for x in range(k)
            if p[x] > 0.0
        )
    )
    gap = abs(lhs - rhs)
    return DirectSumReport(lhs, rhs, gap, gap <= 1e-9)
