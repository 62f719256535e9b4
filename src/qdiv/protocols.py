"""Decoding protocols and one-shot coding bounds.

Covers the pretty good measurement, position-based decoding over pairwise
index-symmetric families, the Choi-distance upper bound and distillation
lower bound for cq channels (with an exact brute-force oracle for classical
channels), the equality-based convex-split check, and the assembled quantum
state redistribution cost bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .divergences import d_hypothesis
from .induced import InducedResult, induced_renyi
from .info import CondMutualInfo, channel_mutual_info, cond_mutual_info
from .linalg import (
    DensityOperator,
    PositiveOperator,
    RECON_TOL,
    ValidationError,
    as_density,
    as_positive,
    _fidelity_and_purified,
    _ptrace,
    _sandwiched_q,
    spectral_fn,
    support_cutoff,
)
from .states import Channel, _slot_products, check_dim_cap, pairwise_tensor_family, purify


class InfeasibleError(ValueError):
    """Protocol parameters violate a feasibility condition."""


@dataclass(frozen=True)
class Povm:
    effects: tuple[PositiveOperator, ...]

    @property
    def dim(self) -> int:
        return self.effects[0].dim


def pgm(states: Sequence) -> Povm:
    """Pretty good measurement of a state family, completed to a POVM.

    Effects are eta^(-1/2) tau_x eta^(-1/2) with eta the family sum, taken
    on the support of eta; the identity deficit on the kernel of eta is
    assigned to effect 0.
    """
    mats = [as_positive(s).mat for s in states]
    if not mats:
        raise ValidationError("pgm needs at least one state")
    dim = mats[0].shape[0]
    if any(m.shape[0] != dim for m in mats):
        raise ValidationError("pgm states must share one dimension")
    eta = sum(mats)
    evals, vecs = np.linalg.eigh(eta)
    half = spectral_fn(evals, vecs, -0.5, support_cutoff(evals, dim))
    effects = [half @ m @ half for m in mats]
    deficit = np.eye(dim, dtype=np.complex128) - sum(effects)
    effects[0] = effects[0] + 0.5 * (deficit + deficit.conj().T)
    # an ill-conditioned eta leaves half @ m @ half visibly non-Hermitian
    povm = Povm(tuple(PositiveOperator(0.5 * (e + e.conj().T)) for e in effects))
    total = sum(e.mat for e in povm.effects)
    if float(np.max(np.abs(total - np.eye(dim)))) > RECON_TOL:
        raise ValidationError("pgm completion does not sum to the identity")
    return povm


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

    @property
    def improved(self) -> bool:
        return self.n <= self.n_old_bound


def _ceil_guarded(x: float) -> int:
    # nudge guards against root-finder noise at exactly-integer thresholds;
    # rounding down is always safe for the decoding guarantee (n - 1 < t*)
    return max(1, int(math.ceil(x - 1e-9 * (1.0 + abs(x)))))


def pbd_simulate(
    rho_ra,
    sigma_ra,
    dims: tuple[int, int],
    eps: float,
    cap: int | None = None,
) -> DecodingReport:
    """Position-based decoding at n = ceil(2^induced-D2) with the PGM.

    Builds the pairwise index-symmetric family against rho_R (x) Tr_R sigma_RA
    (for n >= 2, sigma_ra must equal it), verifies its marginals, and reports
    each index's PGM success Q_2(tau_x || eta), eta the family sum, plus the
    comparison against the hypothesis-testing bound ceil(eps 2^DH).  If the
    family dimension exceeds the cap, construction is aborted but the
    divergence values are still returned.
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
    dev = float(np.max(np.abs(np.kron(_ptrace(rho.mat, [d_r, d_a], [0]), sigma_a) - sigma.mat)))
    if n >= 2 and dev > RECON_TOL:
        raise ValidationError(f"sigma_RA deviates from rho_R (x) sigma_A by {dev:.3e}")
    dh, _ = d_hypothesis(rho, sigma, eps)
    n_old = math.ceil(eps * 2.0**dh.value) if dh.is_finite else math.inf

    total_dim = d_r * d_a**n
    try:
        check_dim_cap(total_dim, cap)
    except ValidationError:
        return DecodingReport(n, (), math.nan, math.nan, res, n_old, dh.value, aborted=True)

    family = pairwise_tensor_family(rho, (d_r, d_a), DensityOperator(sigma_a), n, cap=cap)
    family.verify_marginals()

    # Tr[E_x tau_x] with E_x = eta^(-1/2) tau_x eta^(-1/2) is Q_2(tau_x || eta) on
    # eta's support (the cutoff pgm uses); pgm's completion lies in ker eta,
    # which is orthogonal to every tau_x, so it moves no success probability
    evals, vecs = np.linalg.eigh(sum(m.mat for m in family.members))
    succ = tuple(_sandwiched_q(m.mat, evals, vecs, 2.0) for m in family.members)
    return DecodingReport(n, succ, min(succ), sum(succ) / n, res, n_old, dh.value)


def tc_upper(chan: Channel, m: int, probs) -> float:
    """Upper bound on the Choi conversion distance to the size-m dephaser.

    1 - Q_2(sigma_p || sigma_p + (m-1) sigma_p^X (x) sigma_p^B), evaluated
    blockwise through the direct-sum property.
    """
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    cq = chan.cq_state(probs)
    sbar = cq.marginal_b()
    total = 0.0
    for p, out in zip(cq.probs, cq.outputs):
        if p <= 0.0:
            continue
        total += p * _sandwiched_q(out.mat, *np.linalg.eigh(out.mat + (m - 1) * sbar), 2.0)
    return max(0.0, 1.0 - total)


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
    induced_detail: InducedResult = field(repr=False, default=None)

    def assembly_gap(self) -> float:
        """Deviation of bound_bits from its defining arithmetic."""
        return abs(
            self.bound_bits
            - (self.induced_value + math.log2(self.epsilon / (1.0 - self.epsilon)))
        )


def distill_lower_bound(chan: Channel, eps: float, seed: int = 0) -> CommBound:
    """Lower bound on one-shot distillable communication.

    Maximizes the raw induced collision divergence over input distributions,
    then records both the exact floor form log(1 + floor(2^raw)), whose m is
    the largest family size the decoding guarantee covers, and the relaxed
    additive line raw + log(eps/(1-eps)).
    """
    cm = channel_mutual_info(chan, eps=eps, seed=seed)
    best_p = cm.best_p
    cq = chan.cq_state(best_p)
    full = cq.density()
    product = PositiveOperator(np.kron(cq.marginal_x(), cq.marginal_b()))
    res = induced_renyi(full, product, 2.0, eps)
    t_raw = res.t_star
    floor_m = 1 + int(math.floor(t_raw + 1e-9 * (1.0 + abs(t_raw))))
    floor_bits = math.log2(floor_m)
    bound_bits = res.raw + math.log2(eps / (1.0 - eps))
    curve = tuple(
        (m, tc_upper(chan, m, best_p)) for m in range(1, min(floor_m + 2, 64) + 1)
    )
    return CommBound(
        eps, best_p, res.raw, bound_bits, floor_bits, floor_m, curve, res
    )


def _stochastic_matrix(chan_or_matrix) -> np.ndarray:
    if isinstance(chan_or_matrix, Channel):
        return chan_or_matrix.stochastic_matrix()
    mat = np.asarray(chan_or_matrix, dtype=np.float64)
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
    if k**m > MAX_CODEBOOKS:
        raise ValidationError(f"{k}^{m} codebooks exceed the enumeration limit")
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
    n: int
    mu: float
    epsilon_n: float
    actual_p: float

    @property
    def ok(self) -> bool:
        return self.actual_p <= self.epsilon_n + 1e-8


def convex_split_check(
    rho_ext, dims: tuple[int, int], sigma_bp, n: int, cap: int | None = None
) -> ConvexSplitReport:
    """Equality-based convex-split inequality on an explicit construction.

    rho_ext is any extension on RB (x) B'; the uniform position mixture of
    rho_ext against sigma on the remaining n-1 slots is compared with the
    product rho^RB (x) sigma^(x n): purified distance <= sqrt(mu/(mu+n))
    with mu = Q_2(rho_ext || rho^RB (x) sigma) - 1.
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
    check_dim_cap(d_rb * d_bp**n, cap)

    rho_rb = _ptrace(rho.mat, [d_rb, d_bp], [0])
    mu = _sandwiched_q(rho.mat, *np.linalg.eigh(np.kron(rho_rb, sigma.mat)), 2.0) - 1.0
    mu = max(mu, 0.0)

    # a mixture of slot-permuted products of validated states: no re-validation
    tau = sum(_slot_products(rho.mat, sigma.mat, d_rb, d_bp, n)) / n
    product = rho_rb
    for _ in range(n):
        product = np.kron(product, sigma.mat)
    _, pd = _fidelity_and_purified(tau, DensityOperator(product))
    eps_n = math.sqrt(mu / (mu + n))
    return ConvexSplitReport(n, mu, eps_n, pd)


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
    cap: int | None = None,
) -> EqsrBound:
    """Quantum communication cost bound q <= (1/2) cond-MI + log(1/delta').

    Purifies the source to expose the reference system R, then evaluates the
    smoothed conditional mutual information on the (R, A', B) partition.
    Refuses with a diagnostic when the smoothing budget is infeasible.
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
    psi, d_r, _ = purify(rho)
    check_dim_cap(psi.dim, cap)
    marginal = _ptrace(psi.mat, [d_r, d_a, d_ap, d_b], [0, 2, 3])
    cmi = cond_mutual_info(DensityOperator(marginal), (d_r, d_ap, d_b), delta0, delta1)
    q_bound = 0.5 * cmi.value + math.log2(1.0 / dp)
    return EqsrBound(delta0, delta1, dp, cmi, q_bound)
