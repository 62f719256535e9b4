"""Decoding protocols and one-shot coding bounds.

Covers position-based decoding with the pretty good measurement, read as
the one success Q_2(tau_0 || eta) of a pairwise index-symmetric family that
is never built, the Choi-distance upper bound and distillation lower bound
for cq channels (with an exact brute-force oracle for classical channels),
the equality-based convex-split check, and the assembled quantum state
redistribution cost bound.  When the slots are qubits, the decoder and the
convex split read their spectra from the spin-j blocks of Schur-Weyl
duality instead of at the family dimension, both from one generator
(`_spin_blocks`) that yields each block's slot operators as a closed-form
factor.  The convex split takes no eigendecomposition of its mixture: its
fidelity is the nuclear norm of a factor of it, one singular-value
computation per block.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _roots
from .divergences import d_hypothesis
from .induced import InducedResult, _q2_margin, induced_renyi
from .info import CondMutualInfo, channel_mutual_info, cond_mutual_info
from .linalg import (
    DensityOperator,
    RECON_TOL,
    ValidationError,
    _ascending_support,
    _eigh,
    _kron,
    as_density,
    support_cutoff,
    _EPS,
    _fidelity_and_purified,
    _ptrace,
    _sandwiched_q,
    _svd,
    _svdvals,
    _vouched,
)
from .states import Channel, _power_exceeds, _slot_products, check_dim_cap, dim_cap


class InfeasibleError(ValueError):
    """Protocol parameters violate a feasibility condition."""


@dataclass(frozen=True)
class DecodingReport:
    n: int
    success_probs: tuple[float, ...]
    min_success: float
    mean_success: float
    divergence_used: InducedResult
    n_old_bound: float
    hypothesis_value: float
    aborted: bool = False


def _t_bracket(t: float) -> float:
    """Width in t = 2^lambda of a threshold's final bracket, ``BISECT_TOL`` wide in lambda.

    A threshold that close to an integer may be that integer, so family
    sizes and message counts are rounded across this width and no wider.
    """
    return abs(t) * math.expm1(_roots.BISECT_TOL * math.log(2.0))


def _ceil_guarded(x: float) -> int:
    # rounding down is always safe for the decoding guarantee (n - 1 < t*)
    return max(1, int(math.ceil(x - _t_bracket(x))))


@functools.lru_cache(maxsize=None)
def _spin_table(slots: int) -> tuple[tuple, ...]:
    """Everything of `_spin_blocks` at N = slots that does not depend on the weights, one entry per block.

    Each entry is (m_j, k_min, k_max, shape of F_j, pattern, singletons).
    The pattern holds read-only arrays over F_j's paired entries: their
    flat positions, the integer-derived factors num and den (sqrt(k+1) and
    1 in F_j[0]; r_k and sqrt(k_min (N+1-k_min)) over sqrt(k+1) in F_j[1])
    and the index k of the weight w_k that each entry scales, so that an
    entry is (sqrt(w_k) num) / den.  The singletons are (flat position,
    index of w) for (0, k_min) and (1, k_max), empty at k_min = 0.
    """
    table = []
    for k_min in range(slots // 2 + 1):
        k_max = slots - k_min
        size = k_max - k_min + 1
        shape = (2, size, 2 * size if k_min else size - 1)
        mult = math.comb(slots, k_min) - (math.comb(slots, k_min - 1) if k_min else 0)
        pair = np.arange(size - 1)
        k = k_min + pair
        root_p = np.sqrt(k + 1.0)
        index = [(0, pair + 1, pair), (1, pair, pair)]
        num = [root_p, np.sqrt((k_max - k) * (k - k_min + 1.0))]
        den = [np.ones(size - 1), root_p]
        singletons = ()
        if k_min:
            index.append((1, pair, size - 1 + pair))
            num.append(np.full(size - 1, np.sqrt(k_min * (slots + 1.0 - k_min))))
            den.append(root_p)
            singletons = (
                (np.ravel_multi_index((0, 0, shape[2] - 2), shape), k_min - 1),
                (np.ravel_multi_index((1, size - 1, shape[2] - 1), shape), k_max),
            )
        pattern = (
            np.concatenate([np.ravel_multi_index(i, shape) for i in index]),
            np.concatenate(num),
            np.concatenate(den),
            np.tile(k, len(index)),
        )
        for arr in pattern:
            arr.flags.writeable = False
        table.append((mult, k_min, k_max, shape, pattern, singletons))
    return tuple(table)


def _spin_blocks(b: np.ndarray, slots: int):
    """Spin-j blocks of diag(b)^(x N) and a factor of T_ac = sum_x |a><c|_x (x) diag(b)^(x rest), N = slots.

    Both commute with permutations of the slots, so by Schur-Weyl duality
    (Bacon, Chuang & Harrow, PRL 97, 170502, 2006) each acts as A_j (x) I on
    the spin-j irreps, which occur m_j = C(N, N/2-j) - C(N, N/2-j-1) times.
    In the basis |j,m> with k = N/2 + m slots in state 0, from k_min = N/2 - j
    to k_max = N/2 + j:
    D_j = diag(b0^k b1^(N-k)), T_00 = diag(k b0^(k-1) b1^(N-k)),
    T_11 = diag((N-k) b0^k b1^(N-k-1)), T_01 |j,m> = sqrt((j-m)(j+m+1))
    b0^k b1^(N-k-1) |j,m+1> (the raising operator times the weight of the
    other N-1 slots) and T_10 = T_01^T.

    Indexed by (a, k), T^j pairs (0, k+1) with (1, k) in 2x2 blocks
    w_k [[k+1, r_k], [r_k, N-k]], w_k = b0^k b1^(N-k-1), r_k^2 = (k_max-k)(k-k_min+1),
    all of the integer determinant k_min (N+1-k_min); (0, k_min) and (1, k_max)
    are the singletons k_min w_(k_min-1) and k_min w_(k_max).  So T^j = F_j F_j^T
    in closed form: per pair sqrt(w_k) times the exact Cholesky columns
    (sqrt(k+1), r_k/sqrt(k+1)) and (0, sqrt(det/(k+1))), then the singletons'
    square roots.  At k_min = 0 the determinant and the singletons vanish and
    their columns are dropped, which leaves 2j columns, the rank of T^j;
    otherwise F_j has 2(2j+1).  Yields (m_j, D_j, F_j), F_j[a] of shape
    (2j+1, columns), for j = N/2, N/2 - 1, ..., down to 0 or 1/2, every block
    a slice of one weight table.  Everything but the weights is cached per
    N (`_spin_table`), so a call forms the weights once and fills each F_j
    from that cache.
    """
    b0, b1 = b
    p0, p1 = b0 ** np.arange(slots + 1), b1 ** np.arange(slots + 1)
    weights, w = p0 * p1[::-1], p0[:-1] * p1[-2::-1]  # b0^k b1^(N-k) and w_k = b0^k b1^(N-k-1)
    root_w = np.sqrt(w)
    for mult, k_min, k_max, shape, (pos, num, den, k), singletons in _spin_table(slots):
        f = np.zeros(shape)
        flat = f.reshape(-1)
        flat[pos] = root_w[k] * num / den
        for at, i in singletons:
            flat[at] = math.sqrt(k_min * w[i])
        yield mult, weights[k_min : k_max + 1], f


def _pbd_block_success(rho: DensityOperator, sigma_a: DensityOperator, d_r: int, n: int) -> float:
    """Q_2(tau_0 || eta) of the family of size n on R (x) (C^2)^(x n), from spin-j blocks.

    In sigma_A's eigenbasis, sigma_A = diag(b) and rho' = (I (x) w^dag) rho (I (x) w)
    = sum_ac C_ac (x) |a><c|.  Splitting off slot 0, tau_0 = rho' (x) diag(b)^(x N)
    and sum_(x>0) tau_x = sum_ac C_ac (x) diag(b) (x) T_ac with N = n - 1 (see
    `_spin_blocks`), so on each spin j, tau_0^j = rho' (x) D_j and
    eta^j = tau_0^j + sum_ac C_ac (x) diag(b) (x) T_ac^j, of dimension
    2 d_r (2j + 1), and Q_2(tau_0 || eta) = sum_j m_j Q_2(tau_0^j || eta^j).
    The sum over (a, c) is one matrix product: the C_ac (x) diag(b), laid
    out once per call as columns over (a, c), times T^j = F_j F_j^T as rows
    over (a, c).  With eta^j = V diag(lambda) V^dag and W = V lambda^(-1/4)
    on the support, Q_2(tau_0^j || eta^j) = ||W^dag tau_0^j W||_F^2.  The
    support cut is taken on the whole spectrum at dimension d_r 2^n, as one
    eigendecomposition of eta would take it.
    """
    b, w = sigma_a.eigenvalues, sigma_a.eigenvectors
    v = _kron(np.eye(d_r), w)
    rho_w = v.conj().T @ rho.mat @ v
    # [(p, e, q, f), (a, c)] = C_ac[p, q] b_e delta_ef
    c_pq = rho_w.reshape(d_r, 2, d_r, 2).transpose(0, 2, 1, 3)
    cross_ops = (c_pq[:, None, :, None] * np.diag(b)[:, None, :, None, None]).reshape(-1, 4)
    blocks = []
    for mult, dj, f in _spin_blocks(b, n - 1):
        s = dj.size
        f2 = f.reshape(2 * s, -1)
        t = (f2 @ f2.T).reshape(2, s, 2, s).transpose(0, 2, 1, 3).reshape(4, s * s)
        cross = (cross_ops @ t).reshape(d_r, 2, d_r, 2, s, s).transpose(0, 1, 4, 2, 3, 5)
        tau0 = _kron(rho_w, np.diag(dj))
        blocks.append((mult, tau0, *_eigh(tau0 + cross.reshape(tau0.shape))))
    cut = support_cutoff(np.concatenate([evals for _, _, evals, _ in blocks]), d_r * 2**n)
    q = 0.0
    for mult, tau0, evals, vecs in blocks:
        j = int(evals.searchsorted(cut, side="right"))
        root = vecs[:, j:] * evals[j:] ** -0.25
        g = root.conj().T @ tau0 @ root
        q += mult * np.vdot(g, g).real
    return float(q)


def pbd_simulate(rho_ra, sigma_ra, dims: tuple[int, int], eps: float) -> DecodingReport:
    """Position-based decoding at n = ceil(2^induced-D2) with the pretty good measurement.

    The pairwise index-symmetric family tau_x of rho_RA against rho_R (x)
    Tr_R sigma_RA (for n >= 2, sigma_ra must equal it) is never built: every
    index succeeds with Q_2(tau_0 || eta), eta the family sum, which is read
    without building any effect, and is reported next to the comparison
    against the hypothesis-testing bound ceil(eps 2^DH).  With d_A = 2 it
    comes from the spin-j blocks of eta (`_pbd_block_success`); otherwise
    from one eigendecomposition of eta at the family dimension.  If that
    dimension exceeds the cap, the decoder is not run but the divergence
    values are still returned.
    """
    rho = as_density(rho_ra)
    sigma = as_density(sigma_ra)
    d_r, d_a = dims
    if rho.dim != d_r * d_a or sigma.dim != d_r * d_a:
        raise ValidationError(f"states do not match bipartition {dims}")
    res = induced_renyi(rho, sigma, 2.0, eps)
    if not res.is_finite:
        raise ValidationError("induced divergence is infinite; no finite family size")
    n = _ceil_guarded(res.t_star)
    sigma_a = _ptrace(sigma.mat, [d_r, d_a], [1])
    dev = float(np.max(np.abs(_kron(_ptrace(rho.mat, [d_r, d_a], [0]), sigma_a) - sigma.mat)))
    if n >= 2 and dev > RECON_TOL:
        raise ValidationError(f"sigma_RA deviates from rho_R (x) sigma_A by {dev:.3e}")
    dh, _ = d_hypothesis(rho, sigma, eps)
    n_old = math.ceil(eps * 2.0**dh.value) if dh.is_finite else math.inf

    if _power_exceeds(d_r, d_a, n, dim_cap()):
        return DecodingReport(n, (), math.nan, math.nan, res, n_old, dh.value, aborted=True)

    # tau_x is a slot permutation of rho (x) sigma_A^(x (n-1)), so its marginals hold by
    # construction; `dev` above checked the one condition that depends on the input.
    # Tr[E_x tau_x] with E_x = eta^(-1/2) tau_x eta^(-1/2) is Q_2(tau_x || eta) on
    # eta's support; completing the effects to a POVM adds only operators on
    # ker eta, which is orthogonal to every tau_x, so it moves no success probability.
    # Every index succeeds with Q_2(tau_0 || eta): the swap P_x of A-slots 0 and x maps
    # tau_0 to tau_x, fixes every other tau_y (sigma_A sits in both slots), so fixes
    # eta, and Q_2 is unitarily invariant
    # sigma_A = Tr_R sigma_RA of a validated state: one eigh, its rounding clipped, no re-check
    evals, vecs = _eigh(sigma_a)
    sigma_a = _vouched(sigma_a, np.clip(evals, 0.0, None), vecs)
    if d_a == 2:
        q = _pbd_block_success(rho, sigma_a, d_r, n)
    else:
        products = _slot_products(rho.mat, sigma_a.mat, d_r, d_a, n)
        tau0 = next(products)
        q = _sandwiched_q(tau0, *_eigh(sum(products, tau0)), 2.0)
    return DecodingReport(n, (q,) * n, q, q, res, n_old, dh.value)


def tc_upper(chan: Channel, m: int, probs) -> float:
    """Upper bound on the Choi conversion distance to the size-m dephaser.

    1 - Q_2(sigma_p || sigma_p + (m-1) sigma_p^X (x) sigma_p^B), evaluated
    blockwise through the direct-sum property: minus the collision margin
    (`_q2_margin`) at eps = 0 over the blocks (p_x sigma_x, p_x sigma_bar).
    """
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    cq = chan.cq_state(probs)
    sbar = cq.marginal_b()
    margin, _ = _q2_margin([(p * out.mat, p * sbar) for p, out in zip(cq.probs, cq.outputs) if p > 0.0], 0.0)
    return max(0.0, -margin(math.log2(m - 1))) if m > 1 else 0.0


@dataclass(frozen=True)
class CommBound:
    """Assembled one-shot distillable-communication lower bound."""

    epsilon: float
    best_p: np.ndarray
    induced_value: float  # raw induced collision divergence at best_p
    bound_bits: float  # relaxed line: induced_value + log2(eps/(1-eps))
    floor_bits: float  # exact line: log2(1 + floor(2^induced_value))
    floor_m: int
    tc_upper_curve: tuple[tuple[int, float], ...]
    converged: bool  # the input ascent's Frank-Wolfe gap at best_p is at most 1e-7 (`ChannelMutualInfo`)

    def assembly_gap(self) -> float:
        """Deviation of bound_bits from its defining arithmetic."""
        return abs(
            self.bound_bits
            - (self.induced_value + math.log2(self.epsilon / (1.0 - self.epsilon)))
        )


def distill_lower_bound(chan: Channel, eps: float, seed: int = 0) -> CommBound:
    """Lower bound on one-shot distillable communication.

    Takes the raw induced collision divergence of the cq state at its best
    input distribution (`channel_mutual_info`: one root search in lambda
    whose evaluations maximize an explicit function of the input), a value
    attained by ``best_p``, then records both the exact floor form log(1 +
    floor(2^raw)), whose m is the largest family size the decoding
    guarantee covers, and the relaxed additive line raw + log(eps/(1-eps)).
    """
    cm = channel_mutual_info(chan, eps=eps, seed=seed)
    best_p = cm.best_p
    t_raw = 2.0**cm.value
    floor_m = 1 + int(math.floor(t_raw + _t_bracket(t_raw)))
    floor_bits = math.log2(floor_m)
    bound_bits = cm.value + math.log2(eps / (1.0 - eps))
    curve = tuple(
        (m, tc_upper(chan, m, best_p)) for m in range(1, min(floor_m + 2, 64) + 1)
    )
    return CommBound(eps, best_p, cm.value, bound_bits, floor_bits, floor_m, curve, cm.converged)


def _stochastic_matrix(chan_or_matrix) -> np.ndarray:
    if isinstance(chan_or_matrix, Channel):
        return chan_or_matrix.stochastic_matrix()
    mat = np.asarray(chan_or_matrix, dtype=np.float64)
    if mat.ndim == 2 and not np.all(np.isfinite(mat)):
        raise ValidationError("classical channel has non-finite entries")
    if mat.ndim != 2 or np.any(mat < -1e-12):
        raise ValidationError("classical channel must be a nonnegative matrix")
    if np.max(np.abs(mat.sum(axis=1) - 1.0)) > 1e-9:
        raise ValidationError("classical channel rows must sum to 1")
    return mat


MAX_CODEBOOKS = 10**5


def brute_force_tc(chan_or_matrix, m: int, return_codebook: bool = False):
    """Exact Choi conversion distance for a classical channel.

    Enumerates all k^m codebooks and applies the MAP decoder, which is
    optimal for the average error on classical channels.
    """
    mat = _stochastic_matrix(chan_or_matrix)
    k = mat.shape[0]
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    if m > MAX_CODEBOOKS or _power_exceeds(1, k, m, MAX_CODEBOOKS):
        raise ValidationError(f"{k}^{m} codebooks of {m} messages exceed the enumeration limit")
    best_err = math.inf
    best_cb = None
    chunk: list[tuple[int, ...]] = []

    def flush(chunk_cbs):
        nonlocal best_err, best_cb
        if not chunk_cbs:
            return
        idx = np.array(chunk_cbs, dtype=np.intp)
        rows = mat[idx]  # (C, m, nb)
        success = rows.max(axis=1).sum(axis=1) / m
        j = int(np.argmax(success))
        err = 1.0 - float(success[j])
        if err < best_err - 1e-15:
            best_err = err
            best_cb = chunk_cbs[j]

    for cb in itertools.product(range(k), repeat=m):
        chunk.append(cb)
        if len(chunk) >= 8192:
            flush(chunk)
            chunk = []
    flush(chunk)
    if return_codebook:
        return best_err, best_cb
    return best_err


@dataclass(frozen=True)
class ExpurgationReport:
    m: int
    m_half: int
    avg_error: float  # T_c of the best size-m codebook
    max_error_kept: float  # worst kept message after expurgation
    codebook: tuple[int, ...]
    kept: tuple[int, ...]
    ok: bool


def expurgate_check(chan_or_matrix, m: int) -> ExpurgationReport:
    """Expurgation: best half of the best codebook has max error <= 2 T_c."""
    mat = _stochastic_matrix(chan_or_matrix)
    tc, cb = brute_force_tc(mat, m, return_codebook=True)
    rows = mat[list(cb)]  # (m, nb)
    winners = np.argmax(rows, axis=0)  # MAP decision per output, ties to low z
    errors = np.array(
        [1.0 - rows[z, winners == z].sum() for z in range(m)]
    )
    order = np.argsort(errors, kind="stable")
    m_half = max(1, m // 2)
    kept = tuple(int(z) for z in order[:m_half])
    lhs = float(errors[list(kept)].max())
    rhs = 2.0 * tc
    return ExpurgationReport(m, m_half, tc, lhs, tuple(cb), kept, lhs <= rhs + 1e-12)


@dataclass(frozen=True)
class ConvexSplitReport:
    """``ok`` reads actual_p = sqrt(1 - F^2) at F + ``fidelity_error``, the edge of F's rounding bound.

    On a product extension F = 1 in exact arithmetic; an error of a few
    eps_mach in F alone puts actual_p near 1e-7, above epsilon_n + 1e-8.
    ``mu`` and F both come from the one factor y of rho_ext
    (`convex_split_check`); ``fidelity_error`` counts each block by its
    dimension, whichever side of its factor the SVD reads.
    """

    n: int
    mu: float
    epsilon_n: float
    actual_p: float
    fidelity_error: float  # rounding bound on the fidelity behind actual_p

    @property
    def ok(self) -> bool:
        fid = math.sqrt(max(0.0, 1.0 - self.actual_p**2))
        return _fidelity_and_purified(fid + self.fidelity_error)[1] <= self.epsilon_n + 1e-8


def convex_split_check(rho_ext, dims: tuple[int, int], sigma_bp, n: int) -> ConvexSplitReport:
    """Equality-based convex-split inequality on an explicit construction.

    rho_ext is any extension on RB (x) B'; the uniform position mixture tau of
    rho_ext against sigma on the remaining n-1 slots is compared with the
    product X = rho^RB (x) sigma^(x n): purified distance <= sqrt(mu/(mu+n))
    with mu = Q_2(rho_ext || rho^RB (x) sigma) - 1.  The fidelity is read on
    the support of X from its factors' eigendecompositions, as Tr sqrt of the
    slot mixture, with no eigendecomposition of the mixture: rho_ext's cached
    support eigenpairs give G = y y^dag, so the mixture is Z Z^dag / n and
    Tr sqrt is the sum of Z's singular values over sqrt(n).  When sigma has
    rank 2, that is a sum over the mixture's spin-j blocks, each with
    Z_j = sum_a y_a (x) F_j[a] from the closed-form factor T^j = F_j F_j^T of
    `_spin_blocks`, built transposed as one product of y with
    F_j.reshape(2, -1), and nothing of X's dimension is built; otherwise Z
    sets the slot products of y side by side, with the dimension of rho^RB's
    support at rank 1 and X's at rank 3 or more.  Each SVD reads the tall
    side of its factor (Z or Z^T, which share their singular values), where
    LAPACK is faster.  mu comes from the same y: rho^RB (x) sigma = P diag(x)
    P^dag, so Q_2 = ||(Dy)^dag (Dy)||_F^2 with D = diag(x^(-3/4)) on the cut
    of X's whole spectrum, and rho_ext is never rotated into X's eigenbasis.

    F's rounding bound (``fidelity_error``) is the sum over the blocks of
    m^2 eps_mach Tr sqrt(block), m the block's dimension: each Tr sqrt sums
    at most m singular values, each accurate to about m eps_mach times the
    largest, which is at most their sum.
    """
    rho = as_density(rho_ext)
    sigma = as_density(sigma_bp)
    d_rb, d_bp = dims
    if rho.dim != d_rb * d_bp:
        raise ValidationError(f"extension does not match bipartition {dims}")
    if sigma.dim != d_bp:
        raise ValidationError(f"sigma dimension {sigma.dim} != {d_bp}")
    if n < 1:
        raise ValidationError("n must be >= 1")
    if _power_exceeds(d_rb, d_bp, n, dim_cap()):
        raise ValidationError(f"composite dimension {d_rb}*{d_bp}^{n} exceeds cap {dim_cap()}")

    a, u = _eigh(np.trace(rho.mat.reshape(d_rb, d_bp, d_rb, d_bp), axis1=1, axis2=3))
    b, w = sigma.eigenvalues, sigma.eigenvectors

    # X = M M^dag, M = r (x) s^(x n) with r = u a^(1/2), s = w b^(1/2) on the supports; M
    # commutes with slot swaps, so M^dag tau M mixes G = (r (x) s)^dag rho_ext (r (x) s) = y y^dag
    # with beta = b^2 on the n slots, and F = Tr sqrt of that mixture = sum sigma(Z) / sqrt(n)
    # over factors Z with Z Z^dag = n mixture (on each spin block when sigma has rank 2)
    ja, jb, j = _ascending_support(a)[1], _ascending_support(b)[1], _ascending_support(rho.eigenvalues)[1]
    h = _kron(u[:, ja:] * np.sqrt(a[ja:]), w[:, jb:] * np.sqrt(b[jb:]))
    y = h.conj().T @ (rho.eigenvectors[:, j:] * np.sqrt(rho.eigenvalues[j:]))
    # rho_RB (x) sigma = P diag(x) P^dag with P = u (x) w, and rho_ext = R R^dag with P^dag R = x^(-1/2) y,
    # so X^(-1/4) rho_ext X^(-1/4) = P (Dy)(Dy)^dag P^dag with D = x^(-3/4) on the cut of X's whole spectrum
    x = _kron(a[ja:], b[jb:])
    on = x > support_cutoff(x, a.size * b.size)
    dy = y[on] * x[on, None] ** -0.75
    gram = dy.conj().T @ dy
    mu = max(float(np.vdot(gram, gram).real) - 1.0, 0.0)

    r_a, r_b, rank = a.size - ja, b.size - jb, y.shape[1]
    if r_b == 2:
        # the mixture is (1/n) sum_ac G_ac (x) T_ac^j on each spin block, G_ac = y_a y_c^dag and
        # T_ac^j = F_j[a] F_j[c]^T (`_spin_blocks` at weights beta), so Z_j = sum_a y_a (x) F_j[a];
        # its transpose, rows over (column of y, column of F_j) and columns over (row of y_a, row of
        # F_j), is one product over a, rearranged in memory
        y_t = y.reshape(r_a, 2, rank).transpose(2, 0, 1).reshape(-1, 2)
        factors = []
        for mult, dj, f in _spin_blocks(b[jb:] ** 2, n):
            s, cols = f.shape[1:]
            z_t = (y_t @ f.reshape(2, -1)).reshape(rank, r_a, s, cols).transpose(0, 3, 1, 2)
            factors.append((mult, z_t.reshape(rank * cols, r_a * s), r_a * s))
    else:
        # slot x's term P_x (G (x) diag(beta)^(x (n-1))) P_x^T is A_x A_x^dag with A_x =
        # P_x (y (x) diag(b)^(x (n-1))) P_x^T once y is square (a wide y becomes R^dag of
        # y^dag = QR, with the same G): permute_systems permutes rows and columns alike, and
        # the column permutation cancels in A_x A_x^dag, so the A_x side by side are Z
        if y.shape[1] > y.shape[0]:
            y = np.linalg.qr(y.conj().T, mode="r").conj().T
        y = np.pad(y, ((0, 0), (0, y.shape[0] - y.shape[1])))
        z = np.hstack(list(_slot_products(y, np.diag(b[jb:]), r_a, r_b, n)))
        factors = [(1, z, z.shape[0])]
    fid = fid_error = 0.0
    for mult, z, dim in factors:
        # LAPACK is faster on the tall side, and Z^T has Z's singular values
        part = mult * float(np.sum(_svdvals(z if z.shape[0] >= z.shape[1] else z.T))) / math.sqrt(n)
        fid += part
        fid_error += dim**2 * _EPS * part
    _, pd = _fidelity_and_purified(fid)
    eps_n = math.sqrt(mu / (mu + n))
    return ConvexSplitReport(n, mu, eps_n, pd, fid_error)


@dataclass(frozen=True)
class EqsrBound:
    """Assembled cost bound for entanglement-assisted state redistribution."""

    delta0: float
    delta1: float
    delta_prime: float
    cond_mi: CondMutualInfo
    q_bound: float

    def assembly_gap(self) -> float:
        expected = 0.5 * self.cond_mi.value + math.log2(1.0 / self.delta_prime)
        return abs(self.q_bound - expected)


def eqsr_feasibility(eps: float, delta0: float, delta1: float) -> float:
    """delta' = eps - sqrt(2(d0+d1)) - sqrt(2 d0); must be positive."""
    return eps - math.sqrt(2.0 * (delta0 + delta1)) - math.sqrt(2.0 * delta0)


def eqsr_cost_bound(
    rho_aab,
    dims: tuple[int, int, int],
    eps: float,
    delta0: float,
    delta1: float,
) -> EqsrBound:
    """Quantum communication cost bound q <= (1/2) cond-MI + log(1/delta').

    Evaluates the smoothed conditional mutual information on the R A' B
    marginal of the source's purification (|R| = rank rho): with
    psi[i, a, k] = sqrt(lambda_i) v_i[a, k] on rho's support eigenpairs,
    normalized by their mass as `purify` does, the marginal is phi phi^dag
    for the (|R| d_A' d_B) x d_A factor phi[(i, k), a] = psi[i, a, k], so it
    has rank at most d_A.  One full SVD of phi gives its eigenpairs: U is a
    complete basis and the squared singular values, ascending, the
    spectrum.  The marginal is handed on with them (`linalg._vouched`), so
    nothing on R A A' B is built and nothing at the marginal's dimension is
    decomposed or validated.  Refuses with a diagnostic when the smoothing
    budget is infeasible.
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps must be in (0, 1), got {eps}")
    if not (0.0 < delta0 < 1.0 and 0.0 < delta1 < 1.0):
        raise ValidationError("delta0 and delta1 must be in (0, 1)")
    dp = eqsr_feasibility(eps, delta0, delta1)
    if dp <= 0.0:
        raise InfeasibleError(
            "infeasible smoothing budget: eps - sqrt(2(delta0+delta1)) - sqrt(2 delta0)"
            f" = {dp:.6g} <= 0"
        )
    rho = as_density(rho_aab)
    d_a, d_ap, d_b = dims
    if rho.dim != d_a * d_ap * d_b:
        raise ValidationError(f"state does not match tripartition {dims}")
    j = _ascending_support(rho.eigenvalues)[1]
    lam, d_r = rho.eigenvalues[j:], rho.dim - j
    check_dim_cap(d_r * d_ap * d_b)  # the marginal on R A' B is the largest thing built
    psi = (rho.eigenvectors[:, j:] * np.sqrt(lam / lam.sum())).T.reshape(d_r, d_a, d_ap * d_b)
    phi = psi.transpose(0, 2, 1).reshape(d_r * d_ap * d_b, d_a)  # phi[(i, k), a] = psi[i, a, k]
    u, sv, _ = _svd(phi)
    evals = np.zeros(phi.shape[0])
    evals[: sv.size] = sv**2
    marginal = _vouched(phi @ phi.conj().T, evals[::-1].copy(), u[:, ::-1].copy())
    cmi = cond_mutual_info(marginal, (d_r, d_ap, d_b), delta0, delta1)
    q_bound = 0.5 * cmi.value + math.log2(1.0 / dp)
    return EqsrBound(delta0, delta1, dp, cmi, q_bound)
