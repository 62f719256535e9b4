"""Mutual-information layer built on the divergences.

I_alpha minimizes the parent divergence over the second marginal; the inner
problem is convex in the reference state for alpha in {1, 2}, so it is
solved by matrix exponentiated-gradient (mirror descent) with analytic
gradients obtained from the closed-form (Daleckii-Krein) Frechet derivative
of the inverse square root.  Channel quantities maximize over input
distributions with multi-start projected gradient ascent; the reported value
is always attained by a feasible point, hence a certified lower bound on the
supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _roots
from .divergences import _log_cross, _xlogx_sum, canon_alpha, d_umegaki
from .induced import InducedResult, induced_renyi
from .linalg import (
    DensityOperator,
    PositiveOperator,
    ValidationError,
    as_density,
    _ptrace,
    _sandwiched_q,
    permute_systems,
    spectral_fn,
    support_cutoff,
    trace_distance,
)
from .states import Channel, rng_from_seed, random_probability

_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Frechet machinery for x -> x^(-1/2)
# ---------------------------------------------------------------------------


def _invsqrt_adjoint(evals: np.ndarray, vecs: np.ndarray, cut: float, w: np.ndarray) -> np.ndarray:
    """G with Tr[G dX] = Tr[W dK] for K = X^(-1/2) on the support of X = V diag(evals) V^dag.

    Daleckii-Krein: dK = V (L o V^dag dX V) V^dag, where L is the Loewner
    matrix of first divided differences of x^(-1/2).  With s = sqrt(x) it is
    -1/(s_i s_j (s_i + s_j)) in closed form; s = inf on the kernel makes its
    rows and columns zero.
    """
    s = np.sqrt(np.where(evals > cut, evals, np.inf))
    loewner = -1.0 / (np.outer(s, s) * (s[:, None] + s[None, :]))
    g = vecs @ (loewner * (vecs.conj().T @ w @ vecs)) @ vecs.conj().T
    return 0.5 * (g + g.conj().T)


def q2_and_gradient(rho_mat: np.ndarray, x_mat: np.ndarray) -> tuple[float, np.ndarray]:
    """Q_2(rho || X) and G with dQ_2 = Tr[G dX] (gradient in the 2nd slot)."""
    evals, vecs = np.linalg.eigh(x_mat)
    cut = support_cutoff(evals, x_mat.shape[0])
    k = spectral_fn(evals, vecs, -0.5, cut)
    g = _invsqrt_adjoint(evals, vecs, cut, 2.0 * (rho_mat @ k @ rho_mat))
    return _sandwiched_q(rho_mat, evals, vecs, 2.0), g


def _max_and_gradient(rho_mat: np.ndarray, x_mat: np.ndarray) -> tuple[float, np.ndarray]:
    """Top eigenvalue m of K rho K (K = X^(-1/2)) and G with dm = Tr[G dX]."""
    evals, vecs = np.linalg.eigh(x_mat)
    cut = support_cutoff(evals, x_mat.shape[0])
    k = spectral_fn(evals, vecs, -0.5, cut)
    m = k @ rho_mat @ k
    m_evals, m_vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    v = m_vecs[:, -1:]
    w = rho_mat @ k @ (v @ v.conj().T)
    return float(m_evals[-1]), _invsqrt_adjoint(evals, vecs, cut, w + w.conj().T)


def _contract_first(g: np.ndarray, rho_a: np.ndarray, da: int, db: int) -> np.ndarray:
    """M with Tr[G (rho_A (x) H)] = Tr[M H] for every H on the second factor."""
    g4 = g.reshape(da, db, da, db)
    return np.einsum("abcd,ca->bd", g4, rho_a)


def _contract_second(g: np.ndarray, rho_b: np.ndarray, da: int, db: int) -> np.ndarray:
    """M with Tr[G (H (x) rho_B)] = Tr[M H] for every H on the first factor."""
    g4 = g.reshape(da, db, da, db)
    return np.einsum("abcd,db->ac", g4, rho_b)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


_ITERATE_FLOOR = 1e-8


def _expm_density(l_mat: np.ndarray) -> np.ndarray:
    evals, vecs = np.linalg.eigh(l_mat)
    e = np.exp(evals - evals[-1])
    mat = (vecs * e) @ vecs.conj().T
    mat = mat / np.trace(mat).real
    # keep iterates strictly inside the state space: objectives built on
    # support-projected inverse powers lose accuracy at singular arguments
    dim = mat.shape[0]
    return (1.0 - _ITERATE_FLOOR) * mat + _ITERATE_FLOOR * np.eye(dim) / dim


_DESCENT_TOL = 1e-7  # residual at which minimize_density stops before its cap


def minimize_density(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    dim: int,
    max_iter: int = 500,
    tol: float = _DESCENT_TOL,
    sigma0: np.ndarray | None = None,
) -> tuple[np.ndarray, float, int, float]:
    """Exponentiated-gradient descent over density operators.

    Each iteration tries step 0.5 and halves it until the value does not rise.
    Returns (sigma, value, iterations, residual) where the residual is the
    trace-norm displacement of the last accepted step divided by its step
    size (a gradient-mapping surrogate on the matrix simplex).
    """
    if sigma0 is None:
        l_mat = np.zeros((dim, dim), dtype=np.complex128)
    else:
        evals, vecs = np.linalg.eigh(np.asarray(sigma0, dtype=np.complex128))
        evals = np.clip(evals, 1e-14, None)
        l_mat = (vecs * np.log(evals)) @ vecs.conj().T
    sigma = _expm_density(l_mat)
    value, grad = value_and_grad(sigma)
    iterations = 0
    residual = math.inf
    for it in range(max_iter):
        iterations = it + 1
        eta = 0.5
        accepted = False
        for _ in range(40):
            l_try = l_mat - eta * grad
            l_try = l_try - (np.trace(l_try).real / dim) * np.eye(dim)
            sig_try = _expm_density(l_try)
            val_try, grad_try = value_and_grad(sig_try)
            if val_try <= value + 1e-12:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            residual = 0.0
            break
        diff = np.linalg.eigvalsh(sig_try - sigma)
        residual = float(np.sum(np.abs(diff))) / eta
        l_mat, sigma, value, grad = l_try, sig_try, val_try, grad_try
        if residual <= tol:
            break
    return sigma, value, iterations, residual


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0
    r = int(np.nonzero(cond)[0][-1]) + 1
    theta = css[r - 1] / r
    return np.clip(v - theta, 0.0, None)


def maximize_simplex(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    starts: Sequence[np.ndarray],
) -> tuple[float, np.ndarray]:
    """Multi-start projected gradient ascent over the simplex, 200 steps per start."""
    best_val = -math.inf
    best_p = None
    for p0 in starts:
        p = project_simplex(np.asarray(p0, dtype=np.float64))
        val, grad = value_and_grad(p)
        for _ in range(200):
            moved = False
            eta = 1.0
            for _ in range(40):
                cand = project_simplex(p + eta * grad)
                if float(np.max(np.abs(cand - p))) < 1e-15:
                    break
                val_c, grad_c = value_and_grad(cand)
                if val_c > val + 1e-12:
                    p, val, grad = cand, val_c, grad_c
                    moved = True
                    break
                eta *= 0.5
            if not moved:
                break
        if val > best_val:
            best_val, best_p = val, p
    return best_val, best_p


# ---------------------------------------------------------------------------
# Mutual information
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MutualInfoResult:
    """``converged`` is False when mirror descent stopped at its iteration
    cap with ``gradient_residual`` above its tolerance, 1e-7."""

    value: float
    optimal_sigma: DensityOperator
    iterations: int
    gradient_residual: float
    converged: bool


def _split_dims(rho: DensityOperator, dims: tuple[int, int]) -> tuple[int, int]:
    da, db = int(dims[0]), int(dims[1])
    if da * db != rho.dim:
        raise ValidationError(f"bipartition {dims} does not match dim {rho.dim}")
    return da, db


def mutual_info(rho, dims: tuple[int, int], alpha) -> MutualInfoResult:
    """I_alpha(A:B) = min over sigma on B of D_alpha(rho || rho_A (x) sigma).

    alpha = 1 has the closed-form minimizer sigma = rho_B; alpha = 2 and
    alpha = inf run mirror descent over the reference state.
    """
    a = canon_alpha(alpha)
    r = as_density(rho)
    da, db = _split_dims(r, dims)
    rho_a = _ptrace(r.mat, [da, db], [0])
    rho_b = _ptrace(r.mat, [da, db], [1])

    if a == 1.0:
        value = d_umegaki(r, PositiveOperator(np.kron(rho_a, rho_b))).value
        return MutualInfoResult(value, DensityOperator(rho_b), 0, 0.0, True)

    if a == 2.0:
        quantity = q2_and_gradient
    elif math.isinf(a):
        quantity = _max_and_gradient
    else:
        raise ValidationError(f"mutual_info supports alpha in {{1, 2, inf}}, got {a}")

    def value_grad(sigma: np.ndarray) -> tuple[float, np.ndarray]:
        q, g = quantity(r.mat, np.kron(rho_a, sigma))
        grad = _contract_first(g, rho_a, da, db) / (q * _LN2)
        return math.log2(q), 0.5 * (grad + grad.conj().T)

    sigma, value, iters, res = minimize_density(value_grad, db, sigma0=rho_b)
    return MutualInfoResult(value, DensityOperator(sigma), iters, res, res <= _DESCENT_TOL)


class InducedMutualInfo(NamedTuple):
    value: float  # raw induced divergence at the optimal reference state
    optimal_sigma: DensityOperator
    result: InducedResult
    iterations: int
    gradient_residual: float
    converged: bool  # as in MutualInfoResult


def induced_mutual_info_2(rho, dims: tuple[int, int], eps: float) -> InducedMutualInfo:
    """min over sigma on A of the raw induced D_2(rho^AB || sigma^A (x) rho^B).

    The threshold t*(sigma) is differentiated implicitly through the defining
    equation Q_2(rho || rho + t sigma (x) rho_B) = 1 - eps.
    """
    r = as_density(rho)
    da, db = _split_dims(r, dims)
    rho_b = _ptrace(r.mat, [da, db], [1])

    def value_grad(sigma: np.ndarray) -> tuple[float, np.ndarray]:
        tau = np.kron(sigma, rho_b)
        res = induced_renyi(r, PositiveOperator(tau), 2.0, eps)
        if not res.is_finite:
            return math.inf, np.zeros((da, da), dtype=np.complex128)
        t = res.t_star
        x = r.mat + t * tau
        _, g = q2_and_gradient(r.mat, x)
        df_dlam = _LN2 * t * float(np.trace(g @ tau).real)
        m = _contract_second(g, rho_b, da, db)
        if abs(df_dlam) < 1e-300:
            return res.raw, np.zeros((da, da), dtype=np.complex128)
        grad = -(t * m) / df_dlam
        return res.raw, 0.5 * (grad + grad.conj().T)

    sigma, _, iters, res_grad = minimize_density(value_grad, da)
    final = induced_renyi(r, PositiveOperator(np.kron(sigma, rho_b)), 2.0, eps)
    return InducedMutualInfo(
        final.raw, DensityOperator(sigma), final, iters, res_grad, res_grad <= _DESCENT_TOL
    )


@dataclass(frozen=True)
class SmoothedResult:
    value: float
    smoothing_state: DensityOperator
    distance_used: float
    is_upper_bound: bool
    candidate: str


_LADDER = tuple(0.5**j for j in range(1, 11))


def _truncated_renormalized(rho: DensityOperator, quantile: float) -> np.ndarray | None:
    evals = rho.eigenvalues
    cum = np.cumsum(evals)
    drop = int(np.searchsorted(cum, quantile + 1e-15, side="right"))
    drop = min(drop, rho.dim - 1)
    if drop == 0:
        return None
    kept = evals.copy()
    kept[:drop] = 0.0
    mass = kept.sum()
    if mass <= 0.0:
        return None
    v = rho.eigenvectors
    return (v * (kept / mass)) @ v.conj().T


def smoothed_mutual_info_2(rho, dims: tuple[int, int], eps: float) -> SmoothedResult:
    """Upper bound on the smoothed I_2 from a nested candidate family.

    Candidates inside the eps-ball: rho itself, depolarized mixtures toward
    the maximally mixed state, and eigenvalue-truncated renormalizations,
    both taken at a fixed dyadic ladder of trace distances (so a larger ball
    can only lower the bound).  The true minimum over the ball can be lower;
    the flag records that this is an upper bound.
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps must be in (0, 1), got {eps}")
    r = as_density(rho)
    _split_dims(r, dims)
    uniform = np.eye(r.dim, dtype=np.complex128) / r.dim
    td_uniform = trace_distance(r.mat, uniform)

    candidates: list[tuple[str, np.ndarray]] = [("rho", r.mat)]
    for d in _LADDER:
        if d > eps + 1e-12:
            continue
        if td_uniform > 1e-14:
            s = min(1.0, d / td_uniform)
            candidates.append((f"depolarized@{d:g}", (1.0 - s) * r.mat + s * uniform))
        trunc = _truncated_renormalized(r, d)
        if trunc is not None:
            candidates.append((f"truncated@{d:g}", trunc))

    best: tuple[str, np.ndarray, float, MutualInfoResult] | None = None
    for name, mat in candidates:
        dist = trace_distance(mat, r.mat)
        if dist > eps + 1e-10:
            continue
        mi = mutual_info(mat, dims, 2.0)
        if best is None or mi.value < best[3].value:
            best = (name, mat, dist, mi)
    name, mat, dist, mi = best
    return SmoothedResult(mi.value, DensityOperator(mat), dist, True, name)


# ---------------------------------------------------------------------------
# Channel mutual information
# ---------------------------------------------------------------------------

MAX_CHANNEL_INPUTS = 8


class ChannelMutualInfo(NamedTuple):
    value: float
    best_p: np.ndarray
    alpha: float | None
    epsilon: float | None


def _diagonal_q2(a: np.ndarray, x: np.ndarray) -> float:
    """Q_2(a || x) for commuting diagonals given as vectors."""
    mask = x > 0.0
    return float(np.sum(a[mask] ** 2 / x[mask]))


def _diagonal_q2_and_gradient(a: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Diagonal Q_2(a || x) and its gradient in x."""
    mask = x > 0.0
    grad = np.zeros_like(x)
    grad[mask] = -(a[mask] ** 2) / x[mask] ** 2
    return _diagonal_q2(a, x), grad


def _matrix_q2(a: np.ndarray, x: np.ndarray) -> float:
    return _sandwiched_q(a, *np.linalg.eigh(x), 2.0)


def _induced_channel_value_grad(chan: Channel, eps: float) -> Callable:
    """Objective p -> raw induced D_2 of the cq state, with implicit gradient.

    The direct-sum identity reduces the defining condition to blocks of size
    |B|: g(p, t) = sum_x p_x Q_2(sigma_x || sigma_x + t sigma_bar) = 1 - eps,
    and d lambda / dp = -(dg/dp) / (dg/dlambda).  Classical channels keep
    their outputs as diagonal vectors; only the per-block (Q_2, dQ_2)
    evaluation depends on that.
    """
    if chan.is_classical():
        outs = [np.diag(o.mat).real.copy() for o in chan.outputs]
        q2, q2_grad, pair = _diagonal_q2, _diagonal_q2_and_gradient, np.dot
    else:
        outs = [o.mat for o in chan.outputs]
        q2, q2_grad = _matrix_q2, q2_and_gradient

        def pair(g: np.ndarray, h: np.ndarray) -> float:
            return np.trace(g @ h).real

    k = chan.input_size
    target = 1.0 - eps

    def value_grad(p: np.ndarray) -> tuple[float, np.ndarray]:
        sbar = sum(p[x] * outs[x] for x in range(k))

        def margin(lam: float) -> float:
            t = 2.0**lam
            total = 0.0
            for x in range(k):
                if p[x] > 0.0:
                    total += p[x] * q2(outs[x], outs[x] + t * sbar)
            return total - target

        # g falls to -(1 - eps) as t grows (each live sigma_x lies in the
        # support of sbar), so the ceiling always brackets the root.
        lam, _ = _roots.bisect_decreasing(margin, math.log2(eps / (1.0 - eps)), -200.0, 200.0)
        t = 2.0**lam

        grads = [q2_grad(outs[x], outs[x] + t * sbar) for x in range(k)]
        live = [y for y in range(k) if p[y] > 0.0]
        dgdp = np.zeros(k)
        for x in range(k):
            cross = sum(p[y] * float(pair(grads[y][1], outs[x])) for y in live)
            dgdp[x] = grads[x][0] + t * cross
        dgdt = sum(p[y] * float(pair(grads[y][1], sbar)) for y in live)
        dgdlam = _LN2 * t * dgdt
        if abs(dgdlam) < 1e-300:
            return lam, np.zeros(k)
        return lam, -dgdp / dgdlam

    return value_grad


def _holevo_value_grad(chan: Channel) -> Callable:
    mats = [o.mat for o in chan.outputs]
    k = chan.input_size
    entropies = [-_xlogx_sum(np.linalg.eigvalsh(m)) for m in mats]

    def value_grad(p: np.ndarray) -> tuple[float, np.ndarray]:
        sbar = sum(p[x] * mats[x] for x in range(k))
        eig = np.linalg.eigh(sbar)
        value = 0.0
        grad = np.zeros(k)
        for x in range(k):
            grad[x] = -_log_cross(mats[x], *eig) - entropies[x]
            if p[x] > 0.0:
                value += p[x] * grad[x]
        return value, grad

    return value_grad


def _collision_channel_value_grad(chan: Channel) -> Callable:
    mats = [o.mat for o in chan.outputs]
    k = chan.input_size
    db = chan.output_dim

    def value_grad(p: np.ndarray) -> tuple[float, np.ndarray]:
        sbar = sum(p[x] * mats[x] for x in range(k))

        def inner(sigma: np.ndarray) -> tuple[float, np.ndarray]:
            total = 0.0
            grad = np.zeros((db, db), dtype=np.complex128)
            for x in range(k):
                q2x, gx = q2_and_gradient(mats[x], sigma)
                if p[x] > 0.0:
                    total += p[x] * q2x
                    grad = grad + p[x] * gx
            return math.log2(total), grad / (total * _LN2)

        sigma, value, _, _ = minimize_density(inner, db, sigma0=sbar)
        eig = np.linalg.eigh(sigma)
        total = 0.0
        qs = np.zeros(k)
        for x in range(k):
            qs[x] = _sandwiched_q(mats[x], *eig, 2.0)
            if p[x] > 0.0:
                total += p[x] * qs[x]
        return value, qs / (total * _LN2)

    return value_grad


def channel_mutual_info(
    chan: Channel,
    alpha=1.0,
    eps: float | None = None,
    seed: int = 0,
) -> ChannelMutualInfo:
    """Maximize the (induced) mutual information over input distributions.

    With ``eps`` given, the objective is the raw induced collision divergence
    of the cq state against the product of its marginals; otherwise it is
    I_alpha for alpha in {1, 2}.  Multi-start projected gradient ascent with
    20 seeded random starts plus the uniform start.
    """
    k = chan.input_size
    if k > MAX_CHANNEL_INPUTS:
        raise ValidationError(f"channel input size {k} exceeds {MAX_CHANNEL_INPUTS}")
    if eps is not None:
        if not 0.0 < eps < 1.0:
            raise ValidationError(f"eps must be in (0, 1), got {eps}")
        vg = _induced_channel_value_grad(chan, eps)
        a = None
    else:
        a = canon_alpha(alpha)
        if a == 1.0:
            vg = _holevo_value_grad(chan)
        elif a == 2.0:
            vg = _collision_channel_value_grad(chan)
        else:
            raise ValidationError("channel_mutual_info supports alpha in {1, 2}")
    rng = rng_from_seed(seed)
    starts = [np.full(k, 1.0 / k)]
    for _ in range(20):
        starts.append(random_probability(k, rng))
    value, best_p = maximize_simplex(vg, starts)
    return ChannelMutualInfo(value, best_p, a, eps)


# ---------------------------------------------------------------------------
# Conditional combination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CondMutualInfo:
    """Smoothed conditional mutual information of order 2.

    value = I_2^{delta0}(RB:A) - induced I_2^{delta1}(B:A), assembled exactly
    from the recorded sub-results.
    """

    delta0: float
    delta1: float
    smoothed_term: SmoothedResult
    induced_term: float
    value: float
    induced_detail: InducedMutualInfo


def cond_mutual_info(
    rho_rab, dims: tuple[int, int, int], delta0: float, delta1: float
) -> CondMutualInfo:
    r = as_density(rho_rab)
    dr, da, db = (int(d) for d in dims)
    if dr * da * db != r.dim:
        raise ValidationError(f"tripartition {dims} does not match dim {r.dim}")
    mat_rba = permute_systems(r.mat, [dr, da, db], [0, 2, 1])
    smoothed = smoothed_mutual_info_2(DensityOperator(mat_rba), (dr * db, da), delta0)
    mat_ab = _ptrace(r.mat, [dr, da, db], [1, 2])
    ind = induced_mutual_info_2(DensityOperator(mat_ab), (da, db), delta1)
    return CondMutualInfo(
        delta0, delta1, smoothed, ind.value, smoothed.value - ind.value, ind
    )
