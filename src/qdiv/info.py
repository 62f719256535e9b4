"""Mutual-information layer built on the divergences.

I_1 has a closed-form minimizer.  I_2 and the induced I_2 minimize over a
reference state; both problems are convex in that state, so they are solved
by matrix exponentiated-gradient (mirror descent) with analytic gradients
obtained from the closed-form (Daleckii-Krein) Frechet derivative of the
inverse square root; each descent takes Barzilai-Borwein first steps and
stops on its Frank-Wolfe gap, which bounds its distance to the minimum.
I_2 reads X = rho_A (x) sigma in the eigenbasis of its factors, on
supp rho_A (x) B only (`_product_q2`): rho_A's eigenvalues and rho there come
from one SVD of a factor of rho, the kernel of rho_A enters in closed form,
and each objective call decomposes only sigma.  Both I_2 starts minimize
a quadratic form on one factor's operators, built by `_quadratic_form`.
For I_2 it is Q_2 in sigma^(-1/2), on supp c_B where the marginal c_B has
a kernel; each descent starts at its minimizer over states, found by a
fixed point that never calls the objective (`_quadratic_start`), and
stops there when its Frank-Wolfe gap already certifies it.  The smoothed
I_2 descends its top depolarized candidate, then every other candidate,
unless its Frank-Wolfe lower bound at the first optimum shows it cannot
win; rho and its depolarized candidates share one SVD, and the result
reports the winning descent's convergence.  The channel quantity, the raw
induced D_2 of the cq state maximized over inputs, is one root search in
lambda over the maximum of an explicit margin; its value is attained by a
feasible input, hence a certified lower bound on the supremum.  Both
induced margins are `induced._q2_margin`, with gradients read from its
decompositions.  The induced I_2 descent starts at the minimizer
of the collision margin's small-eps model, a quadratic form in sigma on
the trace-one plane (`_collision_start`, `_trace_plane_minimizer`), its
first threshold solve at that model's root, and its first trial is the
model's Newton point, taken with the true gradient; where the model does
not apply (rho with a kernel, a minimizer that is not positive definite,
no model root), at I/d_A and log2(eps / (1 - eps)).  Every descent is
evaluated first at the state its caller hands over, as given
(`minimize_density`): the start changes the descent's length, not its
certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _roots
from .divergences import canon_alpha, d_umegaki
from .induced import LAMBDA_CEILING, LAMBDA_FLOOR, InducedResult, _decompose, _q2_decomposed, _q2_margin, _threshold
from .linalg import (
    DensityOperator,
    PositiveOperator,
    ValidationError,
    _ascending_support,
    _eigh,
    _eigvalsh,
    _kron,
    as_density,
    _ptrace,
    _q2_eigenbasis,
    _q2_rotated,
    _spectral_positive,
    _svd,
    _vouched,
    spectral_fn,
    support_cutoff,
)
from .states import Channel, rng_from_seed, random_probability

_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Frechet machinery for x -> x^(-1/2)
# ---------------------------------------------------------------------------


def _q2_gradient_eigenbasis(
    evals: np.ndarray, r_eig: np.ndarray, k_vals: np.ndarray, full: bool = False
) -> np.ndarray:
    """V^dag G V: the gradient of Q_2(rho || X) in X's eigenbasis.

    dQ_2 = Tr[M dK] with K = X^(-1/2) on the support of X = V diag(evals) V^dag
    and M = 2 rho K rho, which is 2 r_eig diag(k_vals) r_eig in the eigenbasis.
    Daleckii-Krein: dK = V (L o V^dag dX V) V^dag, where L is the Loewner
    matrix of first divided differences of x^(-1/2).  With s = sqrt(x) it is
    -1/(s_i s_j (s_i + s_j)) in closed form; s = inf on the kernel makes its
    rows and columns zero.  The kernel is where ``k_vals`` (from `_q2_rotated`)
    is zero, so the gradient keeps the support cut its Q_2 was taken with;
    a caller that knows X has full support (``full``) skips that mask.
    """
    s = np.sqrt(evals) if full else np.sqrt(np.where(k_vals > 0.0, evals, np.inf))
    col = s[:, None]
    loewner = -1.0 / (col * s * (col + s))
    return loewner * (2.0 * ((r_eig * k_vals) @ r_eig))


def _q2_and_gradient(a: np.ndarray, evals: np.ndarray, vecs: np.ndarray | None) -> tuple[float, np.ndarray]:
    """Q_2(a || X) and G with dQ_2 = Tr[G dX], from X's decomposition; a vector X has a diagonal G."""
    if vecs is None:  # -(a / x)^2 on the support of x
        return _q2_decomposed(a, evals, vecs), -np.divide(a, evals, out=np.zeros_like(evals), where=evals > 0.0) ** 2
    q, r_eig, k_vals = _q2_eigenbasis(a, evals, vecs)
    # evals ascend, so a kernel is a prefix where k_vals is 0: X has full support when k_vals[0] is not
    g = vecs @ _q2_gradient_eigenbasis(evals, r_eig, k_vals, k_vals[0] > 0.0) @ vecs.conj().T
    return q, 0.5 * (g + g.conj().T)


def _marginal_support(
    evals: np.ndarray, vecs: np.ndarray, da: int, db: int
) -> tuple[np.ndarray, np.ndarray]:
    """(a, rho_u): rho_A's eigenvalues on its support, and rho there, for rho = V diag(evals) V^dag on A B.

    rho = F F^dag with the factor F = V_on diag(evals_on)^(1/2) on the
    eigenvalues above the support cutoff.  The rows of F regrouped as
    F_A[a, (b, m)] = F[(a, b), m] give rho_A = F_A F_A^dag, so one thin SVD
    F_A = U S V^dag gives rho_A = U diag(S^2) U^dag.  Its support is the k
    singular values whose squares lie above rho_A's `support_cutoff`, and
    U_k^dag F_A = S_k V_k^dag is F rotated into U_k (x) I, so rho_u =
    (U_k (x) I)^dag rho (U_k (x) I) is read from it at dimension k d_B
    without U.  rho vanishes on ker rho_A (x) B, so rho_u is all of rho in
    that basis.
    """
    j = _ascending_support(evals)[1]
    factor = vecs[:, j:] * np.sqrt(evals[j:])
    _, sv, vh = _svd(factor.reshape(da, -1), full_matrices=False)
    a = sv**2
    k = int(np.count_nonzero(a > support_cutoff(a, da)))
    g = (sv[:k, None] * vh[:k]).reshape(k * db, -1)
    return a[:k], g @ g.conj().T


def _quadratic_form(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """M with vec(E)^dag M vec(F) = Tr[(I (x) E^dag) p (I (x) F) r] for p, r on C^n (x) C^d as (n, d, n, d) arrays.

    vec is row-major, and mat(M vec(F)) = Tr_1[p (I (x) F) r], from one
    matmul over the first factor.  Every caller's form is Hermitian, up to
    rounding, and maps Hermitian F to Hermitian G.
    """
    n, d = p.shape[:2]
    m = p.transpose(1, 3, 0, 2).reshape(d * d, n * n) @ r.transpose(2, 0, 3, 1).reshape(n * n, d * d)
    return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _product_q2(
    support: tuple[np.ndarray, np.ndarray], da: int, db: int, shift: float = 0.0
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """sigma -> (Q_2(c || c_A (x) sigma), Tr_A[(c_A (x) I) G]) for c = (1 - shift) rho + shift I/(d_A d_B).

    G is the gradient in X = c_A (x) sigma.  ``support`` is rho's
    `_marginal_support` (a, rho_u), which every depolarized candidate of rho
    shares: c_A = U diag(a') U^dag with a' = (1 - shift) a + shift/d_A on
    supp rho_A and a_ker = shift/d_A on its d_A - k kernel directions.  X
    has the eigenbasis U (x) W and the eigenvalues a'_i b_j of its factors,
    and c is block diagonal there: (1 - shift) rho_u + c0 I on supp rho_A
    (x) B, with c0 = shift/(d_A d_B), and c0 I on ker rho_A (x) B.  Each call
    decomposes only sigma = W diag(b) W^dag (unless the caller passes (b, W)
    as ``spectrum``) and conjugates the support block with I (x) W; there
    (c_A (x) I) G is (diag(a') (x) I) G' with G' = `_q2_gradient_eigenbasis`,
    so its partial trace over A is W (sum_i a'_i G'_ii) W^dag, G'_ii the
    d_B x d_B diagonal blocks.  The kernel block is in closed form: it adds
    (d_A - k) c0^2 sum_j 1/(a_ker b_j) to Q_2 and
    diag_j(-(d_A - k) c0^2 / (a_ker b_j^2)) to the contracted gradient in
    sigma's eigenbasis.  Eigenvalues are cut at `support_cutoff` of the
    whole spectrum at dimension d_A d_B, as the full-dimension objective
    cuts them, so nothing of dimension d_A d_B is decomposed, built or
    rotated; with shift 0 the kernel adds nothing.

    Q_2 is a quadratic form in K = sigma^(-1/2): with c' = (c_A^(-1/2) (x) I)
    c (c_A^(-1/2) (x) I) it is Tr[(I (x) K) c' (I (x) K) c].  ``gram()``
    gives (M, None), M the `_quadratic_form` of (c', c) plus (d_A - k) c0^2 /
    a_ker I from the kernel block (Tr sigma^(-1) = ||vec(K)||^2), built only
    when asked for (`_quadratic_start`).  Where c_B has a kernel (shift 0),
    pinching onto supp c_B leaves c unchanged, so it cannot raise D_2 (Frank
    & Lieb 2013): there ``gram()`` gives (T^dag M T, V), T = V (x) conj(V)
    for c_B's support eigenvectors V, from c and c' rotated by I (x) V.
    """
    a, rho_u = support
    k = a.size
    dim = k * db
    c0, a_ker = shift / (da * db), shift / da
    a_on = (1.0 - shift) * a + a_ker
    kernel = (da - k) * c0 * c0  # weight of the kernel block's terms
    cand_u = ((1.0 - shift) * rho_u + c0 * np.eye(dim)).reshape(k, db, dim)

    def q2_and_contracted_gradient(sigma: np.ndarray, spectrum=None) -> tuple[float, np.ndarray]:
        b, w = _eigh(sigma) if spectrum is None else spectrum
        evals = (a_on[:, None] * b).ravel()  # the eigenvalues a'_i b_j, as np.outer(a_on, b)
        cut = support_cutoff(evals, da * db)  # a'_i >= a_ker: the top of the whole spectrum is here
        r_eig = (np.matmul(w.conj().T, cand_u).reshape(-1, db) @ w).reshape(dim, dim)
        q, k_vals = _q2_rotated(r_eig, evals, cut)
        g = _q2_gradient_eigenbasis(evals, r_eig, k_vals).reshape(k, db, k, db)
        m = np.einsum("i,ijik->jk", a_on, g)
        if kernel > 0.0:
            inv = spectral_fn(a_ker * b, None, -1.0, cut)  # 1 / (a_ker b_j) above the cut
            q += kernel * float(inv.sum())
            m -= np.diag(kernel * a_ker * inv * inv)
        return q, w @ m @ w.conj().T

    def gram() -> tuple[np.ndarray, np.ndarray | None]:
        c, v, n = cand_u.reshape(dim, dim), None, db
        if shift == 0.0:  # a depolarized c_B is at least shift/d_B I
            b_vals, b_vecs = _eigh(cand_u.reshape(k, db, k, db).trace(axis1=0, axis2=2))
            j = _ascending_support(b_vals)[1]
            if j:  # c_B has a kernel: rotate c onto supp c_B
                v, n = b_vecs[:, j:], db - j
                u = _kron(np.eye(k), v)
                c = u.conj().T @ c @ u
        scale = np.repeat(a_on**-0.5, n)
        m = _quadratic_form((scale[:, None] * c * scale).reshape(k, n, k, n), c.reshape(k, n, k, n))
        if kernel > 0.0:  # Tr sigma^(-1) = ||vec(K)||^2
            m.reshape(-1)[:: n * n + 1] += kernel / a_ker
        return 0.5 * (m + m.conj().T), v

    q2_and_contracted_gradient.gram = gram
    return q2_and_contracted_gradient


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


def _frank_wolfe_gap(grad: np.ndarray, sigma: np.ndarray) -> float:
    """Tr[G sigma] - lambda_min(G) for a Hermitian gradient G at ``sigma``.

    A convex objective lies above its linearization at sigma, whose minimum
    over density operators is value - gap, so value - gap bounds the
    minimum from below (Jaggi 2013).
    """
    return float((grad @ sigma).trace().real) - float(_eigvalsh(grad)[0])


_ITERATE_FLOOR = 1e-8
_DESCENT_TOL = 1e-7  # Frank-Wolfe gap at which minimize_density stops: a convex minimum is at most this below
_REFERENCE_STEP = 0.5  # the first trial step
_MIN_STEP, _MAX_STEP = 1e-3, 64.0  # the range of a first trial after the first iteration
_SLACK = 1e-12  # a trial may raise the value by this much and still be accepted


def _mirror_step(l_mat: np.ndarray, grad: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """The log-iterate L - eta G (trace-centred on the diagonal of the new array, in place) and its density operator."""
    l_new = l_mat - eta * grad
    l_new.reshape(-1)[:: len(l_new) + 1] -= l_new.trace().real / len(l_new)
    evals, vecs = _eigh(l_new)
    mat = (vecs * np.exp(evals - evals[-1])) @ vecs.conj().T
    # keep iterates strictly inside the state space: objectives built on
    # support-projected inverse powers lose accuracy at singular arguments;
    # the floor's I/d is added on the diagonal of the new array in place
    mat = (1.0 - _ITERATE_FLOOR) * (mat / mat.trace().real)
    mat.reshape(-1)[:: len(mat) + 1] += _ITERATE_FLOOR / len(mat)
    return l_new, mat


def _centred_log(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """log ``mat`` minus (Tr log mat / d) I, its eigenvalues clipped at 1e-14, and its least eigenvalue."""
    evals, vecs = _eigh(np.asarray(mat, dtype=np.complex128))
    logs = np.log(np.clip(evals, 1e-14, None))
    return (vecs * (logs - logs.mean())) @ vecs.conj().T, float(evals[0])


def minimize_density(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    start: np.ndarray,
    max_iter: int = 500,
    tol: float = _DESCENT_TOL,
    slack: float = _SLACK,
    first_trial: Callable[[np.ndarray, float, np.ndarray], np.ndarray | None] | None = None,
) -> tuple[np.ndarray, float, int, float]:
    """Exponentiated-gradient descent over density operators, from ``start``.

    The first call is at ``start`` as given, a trace-one array that is
    positive definite, or positive on a support known to hold a minimizer
    (`_mutual_info_2` on supp c_B); the Frank-Wolfe gap certifies any start,
    so none is moved.  When that gap is already at most ``tol``, the descent
    returns at once, after that one call and with 0 iterations.  Otherwise
    the log-iterate L starts at log start minus (Tr L / d) I, eigenvalues
    clipped at 1e-14 (`_centred_log`): E(L) ignores a multiple of I, so only
    the centred L is a point of the exponentiated-gradient geometry (Tsuda,
    Ratsch & Warmuth 2005), and every later iterate is centred too.  Each mirror step keeps every
    eigenvalue above the iterate floor 1e-8/d (`_mirror_step`).  Each
    iteration tries a step and halves it until the value does not rise by
    more than ``slack`` (1e-12; a caller whose values carry more noise than
    that passes their resolution).  The first iteration's first trial is
    0.5, unless ``first_trial`` maps the start's (sigma, value, gradient)
    to a trace-one point that is positive definite: that point is tried
    first, under the same acceptance rule, and its log-iterate is its
    trace-centred log.  A rejected point costs one objective call, and the
    iteration then runs from 0.5 as without it.  After an accepted step,
    with s and y the changes of the log-iterate and of the gradient, the
    next first trial is the
    Barzilai-Borwein step <s, s>/<s, y> (Barzilai & Borwein 1988), clipped
    to [1e-3, 64], when <s, y> > 0.  Otherwise (no curvature along s, as on
    a linear objective) it is twice the last step (at most 64) when that
    step was accepted at its first trial and lowered the value by more than
    ``slack``, and 0.5 if not.  Returns (sigma, value, iterations,
    residual): sigma is the array the objective was called with at the
    returned iterate, so a caller can match it with ``is`` to what it
    computed there, and the residual is the Frank-Wolfe gap there
    (`_frank_wolfe_gap`), 0 only at a minimum; value - residual bounds a
    convex objective's minimum from below.  The descent stops once the gap
    is at most ``tol`` (at the start too), after ``max_iter`` iterations, or
    when 40 halvings all raise the value (a stalled line search).
    """
    sigma = start
    value, grad = value_and_grad(sigma)
    iterations = 0
    residual = _frank_wolfe_gap(grad, sigma)
    if residual <= tol:
        return sigma, value, 0, residual
    l_mat = _centred_log(sigma)[0]
    first = _REFERENCE_STEP
    point = None if first_trial is None else first_trial(sigma, value, grad)
    if point is not None:  # (its log-iterate, the point), or None where it is not positive definite
        l_point, least = _centred_log(point)
        point = (l_point, point) if least > 0.0 else None
    for it in range(max_iter):
        iterations = it + 1
        eta = first
        for trial in range(0 if point is None else -1, 40):  # trial -1 is the first trial's point
            l_try, sig_try = point if trial < 0 else _mirror_step(l_mat, grad, eta)
            val_try, grad_try = value_and_grad(sig_try)
            if val_try <= value + slack:
                break
            if trial >= 0:
                eta *= 0.5
        else:  # a stalled line search: the residual is still the gap at sigma
            break
        s, y = l_try - l_mat, grad_try - grad
        sy = float(np.vdot(s, y).real)
        if sy > 0.0:  # Barzilai-Borwein: the step of the secant model along s
            first = min(max(float(np.vdot(s, s).real) / sy, _MIN_STEP), _MAX_STEP)
        elif trial == 0 and val_try < value - slack:
            first = min(2.0 * eta, _MAX_STEP)
        else:
            first = _REFERENCE_STEP
        point = None
        l_mat, sigma, value, grad = l_try, sig_try, val_try, grad_try
        residual = _frank_wolfe_gap(grad, sigma)
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


_ASCENT_TOL = 1e-13  # the Frank-Wolfe gap at which maximize_simplex stops


def maximize_simplex(value_and_grad: Callable, p: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Projected gradient ascent over the simplex from ``p``: (value, p, Frank-Wolfe gap) at its last point.

    A trial `project_simplex`(p + eta a), a = grad - <grad, p>, is accepted
    when the value rises by more than 1e-4 <a, step> (Armijo), else eta
    halves.  eta starts at 1, then is the Barzilai-Borwein <s, s> / -<s, y>
    where <s, y> < 0, else twice the last.  It stops once the gap max a,
    which bounds a concave objective's distance to its maximum (Jaggi 2013),
    is at most 1e-13, or when 40 halvings all fail (a stall at rounding).
    """
    value, grad = value_and_grad(p)
    eta = 1.0
    while (gap := float((ascent := grad - grad @ p).max())) > _ASCENT_TOL:  # a keeps p + eta a near the simplex
        for _ in range(40):
            cand = project_simplex(p + eta * ascent)
            rise = float(ascent @ (cand - p))
            if rise > 0.0 and (trial := value_and_grad(cand))[0] - value > 1e-4 * rise:
                break
            eta *= 0.5
        else:
            break
        s, y = cand - p, trial[1] - grad
        sy = float(s @ y)
        eta = float(s @ s) / -sy if sy < 0.0 else 2.0 * eta
        p, (value, grad) = cand, trial
    return value, p, gap


# ---------------------------------------------------------------------------
# Mutual information
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MutualInfoResult:
    """``gradient_residual`` is the Frank-Wolfe gap of log2 Q_2 at ``optimal_sigma``; Q_2 is convex in
    sigma, so I_2 >= value + log2(1 - gap ln 2).  ``converged`` is False when the gap is above 1e-7:
    mirror descent stopped at its iteration cap or on a stalled line search."""

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

    alpha = 1 has the closed-form minimizer sigma = rho_B; alpha = 2 runs
    mirror descent over the reference state, started at the minimizer of
    its quadratic form in sigma^(-1/2) (`_quadratic_start` from rho_B).
    """
    a = canon_alpha(alpha)
    r = as_density(rho)
    da, db = _split_dims(r, dims)
    rho_b = _ptrace(r.mat, [da, db], [1])

    if a == 1.0:
        rho_a = _ptrace(r.mat, [da, db], [0])
        value = d_umegaki(r, PositiveOperator(_kron(rho_a, rho_b))).value
        return MutualInfoResult(value, DensityOperator(rho_b), 0, 0.0, True)

    if a != 2.0:
        raise ValidationError(f"mutual_info supports alpha in {{1, 2}}, got {a}")
    support = _marginal_support(r.eigenvalues, r.eigenvectors, da, db)
    return _mutual_info_2(_product_q2(support, da, db), rho_b)


_FIXED_POINT_STEPS = 16  # the most fixed-point steps `_quadratic_start` takes
_FIXED_POINT_TOL = 1e-9  # the estimated distance to the fixed point at which it stops


def _quadratic_start(gram: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The minimizer of Q_2 = vec(K)^dag M vec(K) over states, by a fixed point from ``sigma``.

    K = sigma^(-1/2) and M is a `_product_q2` objective's ``gram`` matrix.
    Minimizing the form under Tr K^(-2) = 1 gives the KKT condition G = Q_2
    sigma^(3/2), G = mat(M vec(K)), so a minimizer is a fixed point of sigma
    <- G^(2/3) / Tr G^(2/3).  One `_eigh` of G per step gives that state and
    the next K, G^(-1/3) up to a scale, which the map ignores; the objective
    is never called.  The steps stop when the estimated distance to the
    fixed point, m^2 / (m' - m) for the last two moves m' and m (the largest
    entry of the change of sigma), is at most 1e-9, or after 16 steps.  A
    singular ``sigma`` is mixed half and half with I/d first.  Where a G is
    not positive definite the steps stop at the last state, which is.
    """
    db = len(sigma)
    evals, vecs = _eigh(sigma)
    if _ascending_support(evals)[1]:  # a singular start: from (sigma + I/d) / 2, on sigma's eigenvectors
        sigma, evals = 0.5 * (sigma + np.eye(db) / db), 0.5 * (evals + 1.0 / db)
    k_vec = ((vecs * evals**-0.5) @ vecs.conj().T).reshape(-1)
    last = 0.0  # the last move: no estimate before the second step
    for _ in range(_FIXED_POINT_STEPS):
        g_vals, g_vecs = _eigh((gram @ k_vec).reshape(db, db))
        if _ascending_support(g_vals)[1]:
            break
        power = g_vals ** (2.0 / 3.0)
        new = (g_vecs * (power / power.sum())) @ g_vecs.conj().T
        k_vec = ((g_vecs * g_vals ** (-1.0 / 3.0)) @ g_vecs.conj().T).reshape(-1)
        moved = float(np.max(np.abs(new - sigma)))
        sigma = new
        if moved * moved <= _FIXED_POINT_TOL * (last - moved):
            break
        last = moved
    return sigma


def _mutual_info_2(q2_and_contracted_gradient: Callable, warm: np.ndarray) -> MutualInfoResult:
    """I_2 by mirror descent on a `_product_q2` objective, from the minimizer of its quadratic form.

    The descent starts at `_quadratic_start` from ``warm`` (at V tau V^dag,
    tau from V^dag warm V renormalized, where ``gram()`` is on supp c_B),
    and stops there after one objective call when the Frank-Wolfe gap is
    already at most 1e-7.
    """
    spectra = []  # (sigma, its eigendecomposition) of each call

    def value_grad(sigma: np.ndarray) -> tuple[float, np.ndarray]:
        spectra.append((sigma, _eigh(sigma)))
        q, m = q2_and_contracted_gradient(sigma, spectra[-1][1])
        grad = m / (q * _LN2)
        return math.log2(q), 0.5 * (grad + grad.conj().T)

    gram, v = q2_and_contracted_gradient.gram()
    if v is None:
        start = _quadratic_start(gram, warm)
    else:
        sub = v.conj().T @ warm @ v
        start = v @ _quadratic_start(gram, sub / sub.trace().real) @ v.conj().T
    sigma, value, iters, res = minimize_density(value_grad, start)
    evals, vecs = next(spectrum for s, spectrum in reversed(spectra) if s is sigma)
    optimal = _vouched(sigma, np.maximum(evals, 0.0), vecs)  # a start on supp c_B has rounding on its kernel
    return MutualInfoResult(value, optimal, iters, res, res <= _DESCENT_TOL)


class InducedMutualInfo(NamedTuple):
    value: float  # raw induced divergence at the optimal reference state
    optimal_sigma: DensityOperator
    result: InducedResult
    iterations: int
    gradient_residual: float  # the Frank-Wolfe gap of lambda* at optimal_sigma
    converged: bool  # the gap is at most 1e-7, so the minimum is within 1e-7 below value
    certified_lower: float  # value minus the gap: a lower bound on the minimum (lambda* is convex)


class _CollisionModel(NamedTuple):
    """A frozen collision model's minimizer over trace-one Hermitian sigma, its value q = vec(sigma)^dag M
    vec(sigma) there, and M^-1, M the model's `_quadratic_form` on sigma's factor."""

    sigma: np.ndarray
    q: float
    m_inv: np.ndarray


def _trace_plane_minimizer(m_inv: np.ndarray, g: np.ndarray, total: float) -> np.ndarray:
    """The Hermitian x of trace ``total`` minimizing vec(x)^dag M vec(x) + Tr[g x], from M^-1 of a positive definite
    `_quadratic_form`: the KKT system 2 M vec(x) + vec(g) = mu w, w = vec(I), gives x = (total + w^dag z / 2) y /
    (w^dag y) - z / 2 with y = M^-1 w and z = M^-1 vec(g), Hermitian up to rounding."""
    d = len(g)
    y = m_inv[:, :: d + 1].sum(axis=1)  # w marks every (d + 1)-th entry
    z = m_inv @ g.reshape(-1)
    return (y * ((total + 0.5 * z[:: d + 1].sum().real) / y[:: d + 1].sum().real) - 0.5 * z).reshape(d, d)


def _collision_model_step(
    r_mat: np.ndarray, rho_b: np.ndarray, sigma: np.ndarray, t_hat: float, da: int, db: int
) -> _CollisionModel | None:
    """The minimum over trace-one Hermitian sigma' of Q_2(sigma' (x) rho_B || X), X = rho + t_hat sigma (x) rho_B.

    With X frozen, the model is the `_quadratic_form` of p = r = (I (x)
    rho_B) X^(-1/2) on A, from one `_eigh` of X, and its minimizer is
    `_trace_plane_minimizer` with g = 0 and total 1, with the value q = 1 /
    (w^dag M^-1 w), w = vec(I).  M^-1 comes from one `_eigh` of M and is kept
    (`_collision_newton_step`).  None when X has a kernel (the model is not
    finite), or M or sigma' is not positive definite.
    """
    evals, vecs = _eigh(r_mat + t_hat * _kron(sigma, rho_b))
    if _ascending_support(evals)[1]:
        return None
    p = rho_b @ ((vecs * evals**-0.5) @ vecs.conj().T).reshape(da, db, -1)  # (I (x) rho_B) X^(-1/2)
    p = p.reshape(da, db, da, db).transpose(1, 0, 3, 2)  # B first: A is the form's factor
    m = _quadratic_form(p, p)
    m_vals, m_vecs = _eigh(m)
    if not m_vals[0] > 0.0:
        return None
    m_inv = (m_vecs / m_vals) @ m_vecs.conj().T
    sigma_new = _trace_plane_minimizer(m_inv, np.zeros((da, da)), 1.0)
    if not _eigvalsh(sigma_new)[0] > 0.0:
        return None
    return _CollisionModel(sigma_new, 1.0 / float(m_inv[:: da + 1, :: da + 1].sum().real), m_inv)


def _collision_newton_step(model: _CollisionModel, grad: np.ndarray, eps: float) -> np.ndarray:
    """Delta: the Newton step on the trace-zero plane of lambda_m = log2(2 eps / (1 + s)), s = sqrt(1 - 4 eps q),
    at the model's minimizer, with the gradient ``grad`` (Tr[G dsigma]) in place of the model's.

    q = vec(sigma)^dag M vec(sigma), and at the minimizer M vec(sigma) is a
    multiple of vec(I), so on the trace-zero plane lambda_m's Hessian is 2
    lambda_m'(q) M, lambda_m' = 2 eps / (ln 2 s (1 + s)): the step is
    `_trace_plane_minimizer` with g = G / lambda_m' and total 0.
    """
    s = math.sqrt(1.0 - 4.0 * eps * model.q)
    slope = 2.0 * eps / (_LN2 * s * (1.0 + s))  # lambda_m'(q)
    return _trace_plane_minimizer(model.m_inv, grad / slope, 0.0)


_START_STEPS = 2  # frozen-model steps from I/d_A
_NEWTON_BRANCH = 0.75  # 4 eps q above which the model's Newton step is not tried: s = sqrt(1 - 4 eps q) < 1/2


def _collision_start(
    r: DensityOperator, rho_b: np.ndarray, da: int, db: int, eps: float
) -> tuple[_CollisionModel, float] | None:
    """(model, lambda_0): the last model step, whose minimizer is the induced descent's start, and its first threshold guess; or None for I/d_A.

    `_START_STEPS` model steps (`_collision_model_step`) from I/d_A with
    t_hat = eps / (1 - eps); lambda_0 is log2 of the model root 2 eps / (1 +
    sqrt(1 - 4 eps q)) at the last one, whose factorization gives the
    descent's first trial (`_collision_newton_step`).  None when rho has a
    kernel, a step fails or 4 eps q >= 1 (`induced_mutual_info_2`).
    """
    if r.rank < r.dim:
        return None
    t_hat = eps / (1.0 - eps)
    sigma = np.eye(da, dtype=np.complex128) / da
    for _ in range(_START_STEPS):
        model = _collision_model_step(r.mat, rho_b, sigma, t_hat, da, db)
        if model is None:
            return None
        sigma = model.sigma
    if 4.0 * eps * model.q >= 1.0:
        return None
    return model, math.log2(2.0 * eps / (1.0 + math.sqrt(1.0 - 4.0 * eps * model.q)))


def induced_mutual_info_2(rho, dims: tuple[int, int], eps: float) -> InducedMutualInfo:
    """min over sigma on A of the raw induced D_2(rho^AB || sigma^A (x) rho^B).

    The threshold lambda*(sigma) is differentiated implicitly through the
    defining equation Q_2(rho || rho + t sigma (x) rho_B) = 1 - eps.
    lambda* is convex in sigma: 1/t* is the concave gauge of the sublevel
    set of u -> Q_2(rho || rho + u (x) rho_B), which is convex (joint
    convexity of Q_2, Frank & Lieb 2013).  So each threshold solve after the
    first starts at the last solve's tangent, lambda*_k + Tr[G_k (sigma -
    sigma_k)], which lies below the new root, and its walk's first step is
    that predicted move, kept within [1e-9, 1]; the descent accepts a step
    within the solves' bracket width (`_roots.BISECT_TOL`) of the last
    value, until the Frank-Wolfe gap at the iterate is at most 1e-7.  The
    result is the solve made at the returned iterate, and value minus that
    gap is a lower bound on the minimum (``certified_lower``; Jaggi 2013).
    A margin still >= 0 at the search ceiling gives +inf (`_threshold`).

    The descent starts at the minimizer of the margin's small-eps model
    (`_collision_start`): with tau = sigma (x) rho_B the margin is eps - t +
    t^2 Q_2(tau || rho + t tau), so t* = eps + eps^2 Q_2(tau || rho) +
    O(eps^3), and to first order the best sigma minimizes Q_2(tau || X), a
    convex quadratic form in sigma for a frozen X, solved in closed form.
    X is frozen at rho + t_hat tau, t_hat = eps / (1 - eps), which keeps the
    start near I/d_A at large eps; two such steps go from I/d_A.  The first
    solve starts at that model's root 2 eps / (1 + sqrt(1 - 4 eps q)), q the
    model's value there, and its first step is a tenth of the move the
    model predicts from log2(eps / (1 - eps)).  The descent's first trial is
    the model's Newton point, taken with the gradient of the first solve
    (`_collision_newton_step`), under the descent's acceptance rule; it is
    not tried where the model's root lies near its branch point, 4 eps q >
    3/4 (there the model's curvature, which grows like 1/sqrt(1 - 4 eps q),
    made the step 4 to 16 times too short), or where the first solve lies
    farther from lambda_0 than half of |lambda_0 - log2(eps / (1 - eps))|.
    Where the model does not
    apply, the descent starts at I/d_A and the first solve at log2(eps / (1
    - eps)) with a unit step: rho has a kernel (the margin then has a 1/t
    term from it, and the start lengthened such descents), X has one, the
    model's minimizer is not positive definite, or 4 eps q >= 1.  lambda*
    is convex and the descent still stops on its Frank-Wolfe gap, so the
    start changes how long the descent runs, not what it certifies.
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps must be in (0, 1), got {eps}")
    r = as_density(rho)
    da, db = _split_dims(r, dims)
    rho_b = _ptrace(r.mat, [da, db], [1])
    solves: list[tuple[np.ndarray, InducedResult]] = []  # (sigma, result) of each call
    last = None  # the latest finite solve and its gradient, whose tangent predicts the next
    guess = math.log2(eps / (1.0 - eps))  # lambda* when rho is sigma (x) rho_B
    start = _collision_start(r, rho_b, da, db, eps)
    if start is None:  # from I/d_A, the first solve at the guess with a unit step
        origin, lam0, step0, newton = np.eye(da, dtype=np.complex128) / da, guess, 1.0, None
    else:  # at the model's root, with a tenth of its move from the guess
        model, lam0 = start
        origin = model.sigma
        step0 = min(1.0, max(0.1 * abs(lam0 - guess), 1e-9))

        def newton(sigma: np.ndarray, value: float, grad: np.ndarray) -> np.ndarray | None:
            # the model's Newton point, unless its root is near the branch point 4 eps q = 1 or the first solve
            # is far from that root
            if 4.0 * eps * model.q > _NEWTON_BRANCH or not abs(value - lam0) <= 0.5 * abs(lam0 - guess):
                return None
            return sigma + _collision_newton_step(model, grad, eps)

    def value_grad(sigma: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal last
        grad = np.zeros((da, da), dtype=np.complex128)
        tau = _kron(sigma, rho_b)
        margin, evaluated = _q2_margin([(r.mat, tau)], eps)
        if last is None:
            res = _threshold(margin, lam0, eps, "renyi(2)", step0)
        else:
            move = float(np.vdot(sigma - last[0], last[2]).real)  # Tr[G_k (sigma - sigma_k)]
            res = _threshold(margin, last[1].lambda_star + move, eps, "renyi(2)", min(1.0, max(abs(move), 1e-9)))
        if res.is_finite:
            t = res.t_star
            _, g = _q2_and_gradient(r.mat, *evaluated[res.lambda_star][0])  # the margin was evaluated at lambda*
            df_dlam = _LN2 * t * float((g @ tau).trace().real)
            if abs(df_dlam) >= 1e-300:
                # M with Tr[G (H (x) rho_B)] = Tr[M H] for every H on A
                grad = -(t * np.einsum("abcd,db->ac", g.reshape(da, db, da, db), rho_b)) / df_dlam
                grad = 0.5 * (grad + grad.conj().T)
            last = (sigma, res, grad)
        solves.append((sigma, res))
        return res.raw, grad

    sigma, _, iters, gap = minimize_density(value_grad, origin, slack=_roots.BISECT_TOL, first_trial=newton)
    final = next(res for s, res in reversed(solves) if s is sigma)
    optimal = _vouched(sigma, *_eigh(sigma))
    return InducedMutualInfo(final.raw, optimal, final, iters, gap, gap <= _DESCENT_TOL, final.raw - gap)


@dataclass(frozen=True)
class SmoothedResult:
    """The best candidate's I_2 and its descent: ``iterations``, ``gradient_residual`` (the
    Frank-Wolfe gap of log2 Q_2 there) and ``converged`` (the gap is at most 1e-7), as in
    `MutualInfoResult`."""

    value: float
    smoothing_state: DensityOperator
    distance_used: float
    is_upper_bound: bool
    candidate: str
    iterations: int
    gradient_residual: float
    converged: bool


_LADDER = tuple(0.5**j for j in range(1, 11))
_PRUNE_MARGIN = 1e-12  # a pruned candidate's lower bound exceeds the incumbent by more than rounding


class _Spectrum(NamedTuple):
    """A state V diag(eigenvalues) V^dag that its caller vouches for, carried without its matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _smoothing_candidates(
    r: DensityOperator | _Spectrum, dims: tuple[int, int], eps: float
) -> tuple[np.ndarray, list[tuple[str, np.ndarray, float, Callable]]]:
    """rho_B, and (name, spectrum, trace distance to rho, `_product_q2` objective) of the candidates inside the eps-ball, rho first.

    ``rho`` is ``r``, of which only the eigenpairs are read; rho_B is the
    partial trace of rho's `_marginal_support` state rho_u.  Every
    candidate is diagonal in r's eigenvectors, so it is carried as its
    spectrum there, at a distance read from r's spectrum; no candidate's
    state is built (`_candidate_state` builds the winner's).  A depolarized
    candidate (1 - s) rho + s I/d has eigenvalues (1 - s) lambda + s/d and
    lies at s times rho's distance T to I/d, which is the rung d itself when
    s = d/T < 1 (so no rounding of s enters); its objective is rho's with
    shift s, on rho's `_marginal_support`.  A truncation drops the lowest
    eigenvalues (mass at most d), renormalizes and lies at the dropped mass;
    its objective reads its own marginal from one SVD of its support factor.
    It is left out when it drops nothing above rho's support cutoff, as it
    is then rho renormalized by rounding.
    """
    da, db = dims
    lam, vecs = r.eigenvalues, r.eigenvectors
    dim, start = lam.size, _ascending_support(lam)[1]  # lam ascends: rho's support is lam[start:]
    support = _marginal_support(lam, vecs, da, db)
    k = support[0].size
    rho_b = support[1].reshape(k, db, k, db).trace(axis1=0, axis2=2)
    td_uniform = 0.5 * float(np.sum(np.abs(lam - 1.0 / dim)))
    cum = np.cumsum(lam)
    candidates = [("rho", lam, 0.0, _product_q2(support, da, db))]
    for d in _LADDER:
        if d > eps + 1e-12:
            continue
        if td_uniform > 1e-14:
            s = min(1.0, d / td_uniform)
            depolarized = (1.0 - s) * lam + s / dim
            candidates.append((f"depolarized@{d:g}", depolarized, min(d, td_uniform), _product_q2(support, da, db, s)))
        drop = min(int(np.searchsorted(cum, d + 1e-15, side="right")), dim - 1)
        if drop > start:  # it drops an eigenvalue above the cut
            kept = np.where(np.arange(dim) < drop, 0.0, lam)
            kept /= kept.sum()
            objective = _product_q2(_marginal_support(kept, vecs, da, db), da, db)
            candidates.append((f"truncated@{d:g}", kept, float(cum[drop - 1]), objective))
    return rho_b, [cand for cand in candidates if cand[2] <= eps + 1e-10]


def _candidate_state(r: DensityOperator | _Spectrum, name: str, spectrum: np.ndarray) -> DensityOperator:
    """A `_smoothing_candidates` entry's state: ``r`` for rho when it is an operator, else built on r's eigenvectors by `_spectral_positive`."""
    if name == "rho" and isinstance(r, DensityOperator):
        return r
    return _spectral_positive(spectrum, r.eigenvectors)


def smoothed_mutual_info_2(rho, dims: tuple[int, int], eps: float) -> SmoothedResult:
    """Upper bound on the smoothed I_2 from a nested candidate family.

    Candidates inside the eps-ball: rho itself, depolarized mixtures toward
    the maximally mixed state, and eigenvalue-truncated renormalizations,
    both taken at a fixed dyadic ladder of trace distances (so a larger ball
    can only lower the bound).  The true minimum over the ball can be lower;
    the flag records that this is an upper bound.

    Only ``rho`` is validated: the candidates come from its spectrum.  Each
    candidate's I_2 is a mirror descent in the product eigenbasis of
    rho_A (x) sigma restricted to supp rho_A (x) B (`_product_q2`), at
    dimension rank(rho_A) d_B: rho and its depolarized candidates share one
    SVD of rho's support factor, and the kernel of rho_A enters in closed
    form.  The top depolarized candidate (the largest rung inside the ball)
    is descended first, as it usually wins and its bounds then prune the
    rest; then rho and the other candidates, in `_smoothing_candidates`
    order.  Each descent starts at the minimizer of its candidate's
    quadratic form in sigma^(-1/2) (`_quadratic_start`), whose fixed point
    runs from rho_B for the first and from the first one's optimum sigma*
    for the others, on supp c_B where a candidate's marginal c_B has a
    kernel (`_product_q2`).  Each objective is convex in sigma
    (Frank & Lieb 2013), so the start changes the length of a descent, not
    the minimum it certifies.  By the same convexity, the Frank-Wolfe bound
    Q - (Tr[G sigma*] - lambda_min(G)) at sigma* is below a candidate's
    minimum Q_2; a candidate whose bound lies above the best value so far
    (by more than rounding) cannot win and is not descended.  With no
    depolarized candidate in the ball (rho is I/d), rho goes first.  The
    winner is the first of the lowest values in that order, except that rho
    (distance 0) is kept when no other candidate is lower by more than
    rounding; it, its value and every reported field are those of a run
    that descends every candidate in that order.  The result carries the
    winning descent's iterations, Frank-Wolfe gap and converged flag.

    The order is tuned for small eps (the state-redistribution bound's
    0.005), where the top rung's bounds prune every other candidate.  At
    eps near 0.2 they can prune less than bounds at rho's optimum, and a
    source may then take more descents than in a rho-first order.
    """
    r = as_density(rho)
    return _smoothed_mutual_info_2(r, _split_dims(r, dims), eps)


def _smoothed_mutual_info_2(r: DensityOperator | _Spectrum, dims: tuple[int, int], eps: float) -> SmoothedResult:
    """`smoothed_mutual_info_2` of rho = ``r`` on checked ``dims``, from r's eigenpairs only.

    rho_B, the first descent's start, comes with the candidates, and a
    `_Spectrum`'s state is built only when rho wins (`_candidate_state`).
    The pruning reads every objective at sigma* with sigma*'s cached
    eigenpairs, so sigma* is decomposed once.
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps must be in (0, 1), got {eps}")
    warm, candidates = _smoothing_candidates(r, dims, eps)  # rho_B, then the first descent's optimum
    warm_spectrum = None  # the first optimum's cached eigenpairs, which the pruning reads
    top = next((i for i, cand in enumerate(candidates) if cand[0].startswith("depolarized@")), 0)
    candidates.insert(0, candidates.pop(top))
    best: tuple[str, np.ndarray, float, MutualInfoResult] | None = None
    unsmoothed = None  # rho's entry, when it is descended
    for name, spectrum, dist, objective in candidates:
        if best is not None:
            q, m = objective(warm, warm_spectrum)
            lower = q - _frank_wolfe_gap(0.5 * (m + m.conj().T), warm)
            if lower > 0.0 and math.log2(lower) > best[3].value + _PRUNE_MARGIN:
                continue
        mi = _mutual_info_2(objective, warm)
        if best is None:
            warm, warm_spectrum = mi.optimal_sigma.mat, (mi.optimal_sigma.eigenvalues, mi.optimal_sigma.eigenvectors)
        if name == "rho":
            unsmoothed = (name, spectrum, dist, mi)
        if best is None or mi.value < best[3].value:
            best = (name, spectrum, dist, mi)
    if unsmoothed is not None and unsmoothed[3].value <= best[3].value + _PRUNE_MARGIN:
        best = unsmoothed
    name, spectrum, dist, mi = best
    state = _candidate_state(r, name, spectrum)
    return SmoothedResult(mi.value, state, dist, True, name, mi.iterations, mi.gradient_residual, mi.converged)


# ---------------------------------------------------------------------------
# Channel mutual information
# ---------------------------------------------------------------------------

MAX_CHANNEL_INPUTS = 8


class ChannelMutualInfo(NamedTuple):
    value: float
    best_p: np.ndarray
    epsilon: float
    converged: bool  # the ascent's Frank-Wolfe gap at best_p and value is at most 1e-7


def _channel_margin(chan: Channel, eps: float) -> Callable[[np.ndarray, float], tuple[float, np.ndarray]]:
    """(p, lam) -> (g(p, 2^lam) - (1 - eps), grad_p g), g(p, t) = sum_x p_x Q_2(sigma_x || sigma_x + t sigma_bar).

    g - (1 - eps) is the collision margin (`_q2_margin`) over the blocks (p_x
    sigma_x, p_x sigma_bar), p_x > 0, and dg/dp_z = Q_2(sigma_z || X_z) + t
    Tr[sum_x p_x G_x sigma_z], G_x the gradient of Q_2(sigma_x || .) at X_x =
    sigma_x + t sigma_bar, is read from its decompositions (one more where
    p_z = 0).  Classical outputs are kept as diagonal vectors.
    """
    outs = [np.diag(o.mat).real.copy() for o in chan.outputs] if chan.is_classical() else [o.mat for o in chan.outputs]

    def value_grad(p: np.ndarray, lam: float) -> tuple[float, np.ndarray]:
        t = 2.0**lam
        sbar = sum(px * o for px, o in zip(p, outs))
        live = [x for x, px in enumerate(p) if px > 0.0]
        blocks = [(p[x] * outs[x], p[x] * sbar) for x in live]
        margin, evaluated = _q2_margin(blocks, eps)
        value = margin(lam)
        # Q_2(p a || p X) = p Q_2(a || X), and the gradient in X does not scale
        grads = {x: _q2_and_gradient(a, *dec) for x, (a, _), dec in zip(live, blocks, evaluated[lam])}
        gsum = sum(p[x] * grads[x][1] for x in live)
        q = [grads[z][0] / p[z] if z in grads else _q2_decomposed(o, *_decompose(o + t * sbar)) for z, o in enumerate(outs)]
        return value, np.array(q) + t * np.array([np.vdot(o, gsum).real for o in outs])

    return value_grad


def channel_mutual_info(chan: Channel, eps: float, seed: int = 0) -> ChannelMutualInfo:
    """max over inputs p of the raw induced D_2 lambda*(p) of the cq state, from below.

    lambda*(p) >= lam iff g(p, 2^lam) >= 1 - eps (`_channel_margin`), so the
    maximum is the root of h(lam) = max_p g(p, 2^lam) - (1 - eps) (Dinkelbach
    1967), searched from log2(eps / (1 - eps)) by `maximize_simplex` ascents,
    each from the last maximizer (the uniform input first); h < 0 at t = 2^60,
    where g < k / t.  g is not concave in p: 20 seeded inputs are then
    ascended at the root + `BISECT_TOL`, and one with h >= 0 there restarts
    the search.  The value is the search's lower end, where g(best_p) >= 1 -
    eps: lambda*(best_p) >= value.
    """
    k = chan.input_size
    if k > MAX_CHANNEL_INPUTS:
        raise ValidationError(f"channel input size {k} exceeds {MAX_CHANNEL_INPUTS}")
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps must be in (0, 1), got {eps}")
    rng = rng_from_seed(seed)
    margin = _channel_margin(chan, eps)
    found, p = {}, np.full(k, 1.0 / k)  # lam -> (maximizer, gap) of each evaluation of h; the warm start

    def h(lam: float, start: np.ndarray | None = None) -> float:
        nonlocal p
        value, p, gap = maximize_simplex(lambda q: margin(q, lam), p if start is None else start)
        found[lam] = (p, gap)
        return value

    lam = _roots.bisect_decreasing(h, math.log2(eps / (1.0 - eps)), LAMBDA_FLOOR, LAMBDA_CEILING)[0]
    for _ in range(20):
        above = lam + _roots.BISECT_TOL
        if h(above, random_probability(k, rng)) >= 0.0:
            lam = _roots.bisect_decreasing(h, above, LAMBDA_FLOOR, LAMBDA_CEILING)[0]
    return ChannelMutualInfo(lam, found[lam][0], eps, found[lam][1] <= _DESCENT_TOL)


# ---------------------------------------------------------------------------
# Conditional combination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CondMutualInfo:
    """Smoothed conditional mutual information of order 2.

    value = I_2^{delta0}(RB:A) - induced I_2^{delta1}(B:A), assembled exactly
    from the recorded sub-results.  Both terms are bounds on the side that
    keeps ``value`` an upper bound: the smoothed term is the best candidate
    of an explicit family, and ``induced_term`` is the certified lower bound
    on the induced minimum (``InducedMutualInfo.certified_lower``).
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
    """I_2^{delta0}(RB:A) - induced I_2^{delta1}(B:A) of rho on R A B, validated once, here.

    A `DensityOperator` is taken as it is: `eqsr_cost_bound` hands over its
    marginal with a spectrum it vouches for.  Reordering R A B to R B A
    permutes the rows of rho's eigenvectors, so the smoothed term reads
    rho's spectrum and those rows (`_Spectrum`), and the reordered rho is
    built only when it is the reported smoothing state.
    """
    r = as_density(rho_rab)
    dr, da, db = (int(d) for d in dims)
    if dr * da * db != r.dim:
        raise ValidationError(f"tripartition {dims} does not match dim {r.dim}")
    vecs_rba = r.eigenvectors.reshape(dr, da, db, -1).transpose(0, 2, 1, 3).reshape(r.dim, -1)
    smoothed = _smoothed_mutual_info_2(_Spectrum(r.eigenvalues, vecs_rba), (dr * db, da), delta0)
    ind = induced_mutual_info_2(_ptrace(r.mat, [dr, da, db], [1, 2]), (da, db), delta1)
    return CondMutualInfo(
        delta0, delta1, smoothed, ind.certified_lower, smoothed.value - ind.certified_lower, ind
    )
