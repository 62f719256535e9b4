"""The benchmark's workloads: seeded inputs, the ops of one pass, output checks.

A workload builds one *pass*: a fixed list of ops, each one top-level call
into the public API of ``qdiv``.  The inputs come only from the run's seed;
the library receives the generated matrices and parameters and nothing else.
Each op carries a check that uses the acceptance gate's tolerances, so a
faster solver that moves the last digits still passes.

Checks run outside the timed phase.  Some of them call ``qdiv`` again
(``d_min``, ``d_max``, ``brute_force_tc``, margin functions); where a closed
form exists in plain NumPy the check uses that instead.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Tolerances of the acceptance gate (tests/test_acceptance.py) and of the
# decoding/comm/qsr suites.
SELF_INDUCED_TOL = 1e-8  # criterion 2: induced min/max vs closed form
DECODING_TOL = 1e-8  # min_success >= 1 - eps - 1e-8; actual_p <= eps_n + 1e-8
ORACLE_TOL = 1e-9  # brute_force_tc(m) <= eps + 1e-9
ASSEMBLY_TOL = 1e-12  # assembly_gap() <= 1e-12
RECON_TOL = 1e-8  # family marginals (qdiv.linalg.RECON_TOL)
PROB_TOL = 1e-8  # Neyman-Pearson / information-spectrum probabilities
VALUE_TOL = 1e-10  # residual tolerance of the induced-threshold bisection
# "Just above" a threshold lambda* means lambda* (1 + 1e-6), the gate's
# inequality tolerance.  A smaller step drowns in the margin's own rounding
# noise: ~1e-11 where it is flat, ~1e-7 at t = 2^30, where eigh resolves the
# small eigenvalues of rho + t sigma only to ~1e-16 t.
ABOVE_STEP = 1e-6
MAX_CODEBOOKS = 10**5  # enumeration limit of brute_force_tc


@dataclass(frozen=True)
class Op:
    """One top-level API call.

    ``call`` performs it and returns the result.  ``summary`` maps a result
    to a tuple of floats that repeats of the same op must reproduce to
    ``SELF_INDUCED_TOL``.  ``check`` returns None when the result is right,
    otherwise a one-line reason (a ``KnownDefect`` for a wrong output that
    is already on record).
    """

    label: str
    call: Callable[[], object]
    summary: Callable[[object], tuple]
    check: Callable[[object], str | None]


class KnownDefect(str):
    """A check result for a wrong output of a defect already on record.

    The op is counted apart from failures, so the defect stays visible in
    every run without failing it; a fix turns these into passes.
    """


@dataclass(frozen=True)
class Pass:
    ops: list[Op]
    warmup: list[int]  # op indices run once, untimed, during set-up
    digest: str  # fingerprint of the generated inputs


def random_density(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """G G^dag / Tr with G a dim x rank complex Ginibre matrix."""
    g = (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))) / math.sqrt(2.0)
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=np.complex128)).tobytes())
    return h.hexdigest()[:16]


def same(a: float, b: float, tol: float) -> bool:
    """Equal within ``tol``; infinities only equal themselves."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def _ptrace_first(mat: np.ndarray, da: int, db: int) -> np.ndarray:
    """Keep the first factor of a (da x db) bipartite operator."""
    return np.trace(mat.reshape(da, db, da, db), axis1=1, axis2=3)


def _pos_part_trace(mat: np.ndarray) -> float:
    ev = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
    return float(np.sum(ev[ev > 0.0]))


# ---------------------------------------------------------------------------
# induced-sweep
# ---------------------------------------------------------------------------

SWEEP_DIMS = (2, 4, 8, 16)
SWEEP_PAIRS_PER_DIM = 7
SWEEP_DEFICIENT = 2  # pairs per dimension whose sigma has rank d // 2
SWEEP_EPS = (0.1, 0.3, 0.5)
SWEEP_PARENTS = (("renyi", 0.5), ("renyi", 1.5), ("renyi", 2.0), ("umegaki", None), ("min", None), ("max", None))
LARGE_LAMBDA = 20.0  # probe for +inf thresholds, inside eigenvalue resolution


def _parent(qdiv, kind: str, alpha):
    pd = qdiv.ParentDivergence
    return {"renyi": lambda: pd.renyi(alpha), "umegaki": pd.umegaki, "min": pd.min_, "max": pd.max_}[kind]()


def _check_threshold(qdiv, kind, alpha, rho, sigma, eps):
    log_ratio = math.log2(eps / (1.0 - eps))

    def check(res) -> str | None:
        if kind in ("min", "max"):
            fn = qdiv.d_min if kind == "min" else qdiv.d_max
            expected = fn(rho, sigma).value + log_ratio
            if not same(res.raw, expected, SELF_INDUCED_TOL):
                return f"raw {res.raw!r} != D_{kind} + log(eps/(1-eps)) = {expected!r}"
        margin = _parent(qdiv, kind, alpha).margin_factory(rho, sigma, eps)
        if math.isinf(res.raw):
            if res.raw < 0 or margin(LARGE_LAMBDA) < 0.0:
                return f"+inf threshold but the condition fails at lambda={LARGE_LAMBDA}"
            return None
        lam = res.raw
        if margin(lam) < 0.0:
            return f"condition fails at lambda*={lam!r}"
        if margin(lam + ABOVE_STEP * max(1.0, abs(lam))) >= VALUE_TOL:
            return f"condition still holds just above lambda*={lam!r}"
        return None

    return check


def _kernel_weight(rho_m: np.ndarray, sigma_m: np.ndarray) -> float:
    """Tr[rho P] with P the projector onto the kernel of sigma."""
    evals, vecs = np.linalg.eigh(sigma_m)
    cut = max(sigma_m.shape[0], 8) * np.finfo(np.float64).eps * max(float(evals[-1]), 1e-300)
    ker = vecs[:, evals <= cut]
    return float(np.trace(ker.conj().T @ rho_m @ ker).real)


def _check_hypothesis(rho_m, sigma_m, eps):
    # D_H = +inf exactly when a test on ker(sigma) passes rho with 1 - eps.
    infinite = _kernel_weight(rho_m, sigma_m) >= 1.0 - eps

    def check(out) -> str | None:
        value, test = out
        ev = np.linalg.eigvalsh(test.effect.mat)
        if ev[0] < -PROB_TOL or ev[-1] > 1.0 + PROB_TOL:
            return "Neyman-Pearson effect is not between 0 and 1"
        passed = float(np.trace(rho_m @ test.effect.mat).real)
        if passed < 1.0 - eps - PROB_TOL:
            return f"Neyman-Pearson pass probability {passed!r} < 1 - eps"
        if infinite and math.isfinite(value.value):
            return KnownDefect(f"D_H = {value.value:.6g} where the value is +inf")
        return None

    return check


def _check_ispec(rho_m, sigma_m, eps):
    # Tr(rho - t sigma)_+ falls to Tr[rho P_ker(sigma)] as t grows, so the
    # threshold is +inf exactly when that weight exceeds eps.
    infinite = _kernel_weight(rho_m, sigma_m) > eps

    def check(value) -> str | None:
        lam = value.value
        if infinite:
            return None if lam == math.inf else KnownDefect(f"D_s = {lam:.6g} where the value is +inf")
        if not math.isfinite(lam):
            return f"threshold {lam!r} where a finite value exists"
        at = _pos_part_trace(rho_m - 2.0**lam * sigma_m)
        above = _pos_part_trace(rho_m - 2.0 ** (lam + ABOVE_STEP * max(1.0, abs(lam))) * sigma_m)
        if at < eps - PROB_TOL or above > eps + PROB_TOL:
            return f"Tr(rho - 2^lam sigma)_+ = {at!r} at lambda, {above!r} just above; eps {eps}"
        return None

    return check


def build_induced_sweep(qdiv, rng: np.random.Generator) -> Pass:
    ops: list[Op] = []
    mats = []
    for dim in SWEEP_DIMS:
        for j in range(SWEEP_PAIRS_PER_DIM):
            rank = max(1, dim // 2) if j >= SWEEP_PAIRS_PER_DIM - SWEEP_DEFICIENT else dim
            rho_m = random_density(rng, dim, dim)
            sigma_m = random_density(rng, dim, rank)
            mats += [rho_m, sigma_m]
            rho = qdiv.DensityOperator(rho_m)
            sigma = qdiv.DensityOperator(sigma_m)
            tag = f"d={dim},pair={j},rank={rank}"
            for kind, alpha in SWEEP_PARENTS:
                name = kind if alpha is None else f"renyi({alpha:g})"
                parent = _parent(qdiv, kind, alpha)
                for eps in SWEEP_EPS:
                    ops.append(
                        Op(
                            f"induced[{name},{tag},eps={eps}]",
                            lambda p=parent, r=rho, s=sigma, e=eps: qdiv.induced(p, r, s, e),
                            lambda res: (res.raw,),
                            _check_threshold(qdiv, kind, alpha, rho, sigma, eps),
                        )
                    )
            for eps in SWEEP_EPS:
                ops.append(
                    Op(
                        f"d_hypothesis[{tag},eps={eps}]",
                        lambda r=rho, s=sigma, e=eps: qdiv.d_hypothesis(r, s, e),
                        lambda out: (out[0].value, out[1].alpha_err),
                        _check_hypothesis(rho_m, sigma_m, eps),
                    )
                )
                ops.append(
                    Op(
                        f"d_tilde_max[{tag},eps={eps}]",
                        lambda r=rho, s=sigma, e=eps: qdiv.d_tilde_max(r, s, e),
                        lambda v: (v.value,),
                        _check_ispec(rho_m, sigma_m, eps),
                    )
                )
    per_pair = len(ops) // (len(SWEEP_DIMS) * SWEEP_PAIRS_PER_DIM)
    return Pass(ops, list(range(per_pair)), _digest(*mats))


# ---------------------------------------------------------------------------
# qsr-bound
# ---------------------------------------------------------------------------

QSR_STATES = 2
QSR_DIMS = (2, 2, 2)
QSR_EPS, QSR_DELTA0, QSR_DELTA1 = 0.5, 0.005, 0.005  # the qsr suite's parameters


def _check_qsr(bound) -> str | None:
    if not math.isfinite(bound.q_bound):
        return f"bound is not finite: {bound.q_bound!r}"
    if not bound.delta_prime > 0.0:
        return f"delta' = {bound.delta_prime!r} is not positive"
    gap = bound.assembly_gap()
    return None if gap <= ASSEMBLY_TOL else f"assembly gap {gap!r} > {ASSEMBLY_TOL}"


def build_qsr_bound(qdiv, rng: np.random.Generator) -> Pass:
    ops = []
    mats = []
    for i in range(QSR_STATES):
        state_m = random_density(rng, 8, 8)
        mats.append(state_m)
        state = qdiv.DensityOperator(state_m)
        ops.append(
            Op(
                f"eqsr_cost_bound[state={i}]",
                lambda s=state: qdiv.eqsr_cost_bound(s, QSR_DIMS, QSR_EPS, QSR_DELTA0, QSR_DELTA1),
                lambda b: (b.q_bound, b.cond_mi.value),
                _check_qsr,
            )
        )
    return Pass(ops, [0], _digest(*mats))


# ---------------------------------------------------------------------------
# comm-bound
# ---------------------------------------------------------------------------

# The random channels are drawn once from this fixed seed with the comm
# suite's recipe.  Their draw sets an op's cost (900 to 4,200 simplex
# objective calls), so a per-run draw would make the run-to-run spread of
# every timing larger than its bound.  The run's seed sets the restart
# points of each call instead, which moves the work by a few percent.
COMM_CHANNEL_SEED = 0
COMM_PASS = (("noiseless2", 0.2), ("bsc0.1", 0.4), ("constant2", 0.2), ("random2x2", 0.4), ("random3x3", 0.2))


def comm_channels() -> dict[str, np.ndarray]:
    rng = np.random.Generator(np.random.PCG64(COMM_CHANNEL_SEED))
    chans = {
        "noiseless2": np.eye(2),
        "bsc0.1": np.array([[0.9, 0.1], [0.1, 0.9]]),
        "constant2": np.full((2, 2), 0.5),
    }
    for k in (2, 3):
        mat = rng.random((k, k)) + 0.05
        chans[f"random{k}x{k}"] = mat / mat.sum(axis=1, keepdims=True)
    return chans


def _check_comm(qdiv, mat: np.ndarray, eps: float):
    def check(bound) -> str | None:
        gap = bound.assembly_gap()
        if gap > ASSEMBLY_TOL:
            return f"assembly gap {gap!r} > {ASSEMBLY_TOL}"
        if bound.floor_bits + ORACLE_TOL < bound.bound_bits:
            return f"floor line {bound.floor_bits!r} below relaxed line {bound.bound_bits!r}"
        k = mat.shape[0]
        for m in range(1, bound.floor_m + 1):
            if k**m > MAX_CODEBOOKS:
                break
            tc = qdiv.brute_force_tc(mat, m)
            if tc > eps + ORACLE_TOL:
                return f"exact T_c({m}) = {tc!r} > eps {eps}"
        return None

    return check


def build_comm_bound(qdiv, rng: np.random.Generator) -> Pass:
    chans = comm_channels()
    ops = []
    seeds = []
    for name, eps in COMM_PASS:
        chan = qdiv.classical_channel(chans[name])
        seed = int(rng.integers(2**31))
        seeds.append(seed)
        ops.append(
            Op(
                f"distill_lower_bound[{name},eps={eps}]",
                lambda c=chan, e=eps, s=seed: qdiv.distill_lower_bound(c, e, seed=s),
                lambda b: (b.induced_value, b.bound_bits),
                _check_comm(qdiv, chans[name], eps),
            )
        )
    return Pass(ops, [2], _digest(np.array(seeds, dtype=float), *chans.values()))


# ---------------------------------------------------------------------------
# pbd-decode
# ---------------------------------------------------------------------------

PBD_SIZES = (6, 7)
SPLIT_SIZES = range(1, 7)


def conditioned_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank state mixed 15% toward I/d, as in the suites.

    Families of size 6-7 multiply up to six copies of sigma_A; without the
    mixing, its small eigenvalues make the PGM so ill-conditioned that
    ``pgm`` rejects its own effects as non-Hermitian (defect above 1e-10).
    """
    return 0.85 * random_density(rng, dim, dim) + 0.15 * np.eye(dim) / dim


def _pbd_instance(qdiv, rng: np.random.Generator, n: int):
    """Seeded (rho_RA, sigma_A) and the eps that puts t* at n - 0.5.

    t*(eps) of the induced collision divergence rises continuously with eps,
    so bisection on eps sets the family size ceil(t*) to n.
    """
    rho_m = conditioned_density(rng, 4)
    sigma_a = conditioned_density(rng, 2)
    sigma_ra = np.kron(_ptrace_first(rho_m, 2, 2), sigma_a)
    lo, hi = 1e-3, 1.0 - 1e-3
    for _ in range(60):
        eps = 0.5 * (lo + hi)
        t_star = qdiv.induced_renyi(rho_m, sigma_ra, 2.0, eps).t_star
        if abs(t_star - (n - 0.5)) <= 0.25:
            return rho_m, sigma_a, sigma_ra, eps
        lo, hi = (eps, hi) if t_star < n - 0.5 else (lo, eps)
    raise RuntimeError(f"no eps puts the family size at {n}")


def _check_pbd(qdiv, rho, sigma_a, n: int, eps: float):
    def check(rep) -> str | None:
        if rep.aborted or rep.n != n:
            return f"family size {rep.n} (aborted={rep.aborted}), expected {n}"
        if rep.min_success < 1.0 - eps - DECODING_TOL:
            return f"min success {rep.min_success!r} < 1 - eps"
        family = qdiv.pairwise_tensor_family(rho, (2, 2), sigma_a, n)
        dev = family.verify_marginals()
        return None if dev <= RECON_TOL else f"family marginals deviate by {dev!r}"

    return check


def _check_split(rep) -> str | None:
    if rep.actual_p > rep.epsilon_n + DECODING_TOL:
        return f"purified distance {rep.actual_p!r} > eps_n {rep.epsilon_n!r}"
    return None


def build_pbd_decode(qdiv, rng: np.random.Generator) -> Pass:
    ops = []
    mats = []
    for n in PBD_SIZES:
        rho_m, sigma_a_m, sigma_ra_m, eps = _pbd_instance(qdiv, rng, n)
        mats += [rho_m, sigma_a_m]
        rho = qdiv.DensityOperator(rho_m)
        sigma_ra = qdiv.DensityOperator(sigma_ra_m)
        sigma_a = qdiv.DensityOperator(sigma_a_m)
        ops.append(
            Op(
                f"pbd_simulate[n={n},eps={eps:.4f}]",
                lambda r=rho, s=sigma_ra, e=eps: qdiv.pbd_simulate(r, s, (2, 2), e),
                lambda rep: (float(rep.n), rep.min_success),
                _check_pbd(qdiv, rho, sigma_a, n, eps),
            )
        )
    ext_m = random_density(rng, 8, 8)
    s = 0.2 + 0.6 * float(rng.random())
    sigma_bp_m = np.diag([s, 1.0 - s]).astype(np.complex128)
    mats += [ext_m, sigma_bp_m]
    ext = qdiv.DensityOperator(ext_m)
    sigma_bp = qdiv.DensityOperator(sigma_bp_m)
    for n in SPLIT_SIZES:
        ops.append(
            Op(
                f"convex_split_check[n={n}]",
                lambda n=n: qdiv.convex_split_check(ext, (4, 2), sigma_bp, n),
                lambda rep: (rep.actual_p, rep.epsilon_n),
                _check_split,
            )
        )
    return Pass(ops, [0, len(ops) - 1], _digest(*mats))


@dataclass(frozen=True)
class Workload:
    name: str
    index: int  # salts the seed so workloads draw independent inputs
    build: Callable  # (qdiv, rng) -> Pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload("induced-sweep", 1, build_induced_sweep),
        Workload("qsr-bound", 2, build_qsr_bound),
        Workload("comm-bound", 3, build_comm_bound),
        Workload("pbd-decode", 4, build_pbd_decode),
    )
}


def build(qdiv, name: str, seed: int) -> Pass:
    wl = WORKLOADS[name]
    rng = np.random.Generator(np.random.PCG64([int(seed), wl.index]))
    return wl.build(qdiv, rng)
