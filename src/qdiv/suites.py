"""Seeded property suites for the inequality web and protocol guarantees.

Each suite turns the package's mathematical guarantees into per-instance
assertion rows (suite, assertion, instance, seed, lhs, rhs, margin, pass).
Rows are fully determined by (instances, base seed), so reports are
reproducible byte for byte.  All assertions are of the form lhs <= rhs with
the tolerance already folded into rhs.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .divergences import (
    d_alpha,
    d_hypothesis,
    d_max,
    d_min,
    d_tilde_max,
    d_umegaki,
    pinched_measured_lower_bound,
    q_alpha,
)
from .induced import ParentDivergence, induced, induced_block_property, induced_renyi
from .linalg import DensityOperator, HermitianOperator, PositiveOperator, _eigvalsh, _kron, op_meet, spectral_fn
from .protocols import (
    brute_force_tc,
    convex_split_check,
    distill_lower_bound,
    eqsr_cost_bound,
    expurgate_check,
    pbd_simulate,
    tc_upper,
    InfeasibleError,
)
from .states import (
    apply_kraus,
    classical_channel,
    random_density,
    random_isometry_channel,
    random_probability,
    rng_from_seed,
)

LOG2 = math.log2


def conditioned_density(dim: int, seed: int) -> DensityOperator:
    """Random full-rank state bounded away from singularity.

    The finite-eps proxies of the eps -> 0 limit need spectral scales well
    above eps; mixing toward the maximally mixed state keeps the smallest
    eigenvalue above 0.15/dim without losing randomness.
    """
    rho = random_density(dim, dim, seed)
    return DensityOperator(0.85 * rho.mat + 0.15 * np.eye(dim) / dim)


@dataclass(frozen=True)
class Row:
    suite: str
    assertion: str
    instance: int
    seed: int
    lhs: float
    rhs: float
    margin: float
    passed: bool


def _row(suite: str, assertion: str, instance: int, seed: int, lhs: float, rhs: float) -> Row:
    if math.isinf(rhs) and rhs > 0:
        ok = True
        margin = math.inf
    elif math.isinf(lhs) and lhs > 0:
        ok = False
        margin = -math.inf
    else:
        margin = rhs - lhs
        ok = bool(margin >= 0.0)
    return Row(suite, assertion, instance, seed, float(lhs), float(rhs), float(margin), ok)


def derived_seed(suite: str, base_seed: int, instance: int) -> int:
    digest = hashlib.sha256(f"{suite}:{base_seed}:{instance}:".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


# ---------------------------------------------------------------------------
# lemma1: scaling property and Loewner monotonicity of the parents
# ---------------------------------------------------------------------------

_PARENT_FNS = (
    ("min", d_min),
    ("max", d_max),
    ("umegaki", d_umegaki),
    ("renyi2", lambda r, s: d_alpha(r, s, 2.0)),
    ("renyi0.7", lambda r, s: d_alpha(r, s, 0.7)),
    ("renyi0.3", lambda r, s: d_alpha(r, s, 0.3)),
)


def _suite_lemma1(instance: int, base_seed: int) -> list[Row]:
    seed = derived_seed("lemma1", base_seed, instance)
    rng = rng_from_seed(seed)
    dim = 2 + instance % 2
    rho = random_density(dim, dim, seed)
    sigma = random_density(dim, dim, seed + 1)
    t = 0.05 + 3.95 * rng.random()
    perturb = random_density(dim, dim, seed + 2)
    sigma_big = PositiveOperator(sigma.mat + (0.1 + rng.random()) * perturb.mat)
    rows = []
    for name, fn in _PARENT_FNS:
        base = fn(rho, sigma).value
        scaled = fn(rho, PositiveOperator(t * sigma.mat)).value
        rows.append(
            _row("lemma1", f"scaling[{name}]", instance, seed, abs(scaled - (base - LOG2(t))), 1e-9)
        )
        bigger = fn(rho, sigma_big).value
        rows.append(_row("lemma1", f"loewner[{name}]", instance, seed, bigger, base + 1e-10))
    return rows


# ---------------------------------------------------------------------------
# lemma2 suite: Q_alpha(rho || rho + sigma) >= Tr(rho - sigma)_+ for alpha in [0, 2]
# ---------------------------------------------------------------------------


def _random_positive(dim: int, rank: int, seed: int, scale: float) -> PositiveOperator:
    return PositiveOperator(scale * random_density(dim, rank, seed).mat)


def _suite_lemma2(instance: int, base_seed: int) -> list[Row]:
    seed = derived_seed("lemma2", base_seed, instance)
    rng = rng_from_seed(seed)
    dim = 2 + instance % 3
    rank_r = 1 + int(rng.integers(dim))
    rank_s = 1 + int(rng.integers(dim))
    rho = _random_positive(dim, rank_r, seed, 0.2 + 2.0 * rng.random())
    sigma = _random_positive(dim, rank_s, seed + 1, 0.2 + 2.0 * rng.random())
    total = PositiveOperator(rho.mat + sigma.mat)
    ptp = float(
        np.sum(np.clip(_eigvalsh(rho.mat - sigma.mat), 0.0, None))
    )
    rows = []
    for alpha in (0.0, 0.5, 0.999, 1.5, 2.0):
        q = q_alpha(rho, total, alpha)
        rows.append(_row("lemma2", f"positive_part[alpha={alpha:g}]", instance, seed, ptp, q + 1e-9))
    return rows


# ---------------------------------------------------------------------------
# cheng: Tr[rho ^ sigma] >= Tr[rho L sigma L], L = (rho+sigma)^(-1/2)
# ---------------------------------------------------------------------------


def _suite_cheng(instance: int, base_seed: int) -> list[Row]:
    seed = derived_seed("cheng", base_seed, instance)
    rng = rng_from_seed(seed)
    dim = 2 + instance % 3
    rho = _random_positive(dim, dim, seed, 0.3 + 1.5 * rng.random())
    sigma = _random_positive(dim, 1 + int(rng.integers(dim)), seed + 1, 0.3 + 1.5 * rng.random())
    lam = PositiveOperator(rho.mat + sigma.mat)
    half = HermitianOperator(spectral_fn(lam.eigenvalues, lam.eigenvectors, -0.5, lam.cutoff)).mat
    rhs_val = float(np.trace(rho.mat @ half @ sigma.mat @ half).real)
    meet = float(np.trace(op_meet(rho, sigma).mat).real)
    rows = [
        _row("cheng", "meet_lower_bound", instance, seed, rhs_val, meet + 1e-9),
        _row(
            "cheng",
            "meet_vs_traces",
            instance,
            seed,
            meet,
            min(rho.trace, sigma.trace) + 1e-9,
        ),
    ]
    return rows


# ---------------------------------------------------------------------------
# induced-web: the inequality web of the induced divergence
# ---------------------------------------------------------------------------

_WEB_EPS = (0.1, 0.3, 0.6)


def _pinched_bound_offset(alpha: float, eps: float) -> float:
    # inner logarithm natural: provable form of the bound's offset
    beta = 1.0 - alpha
    return LOG2(beta * math.log(1.0 / (1.0 - eps))) / beta


def _suite_induced_web(instance: int, base_seed: int) -> list[Row]:
    seed = derived_seed("induced-web", base_seed, instance)
    rng = rng_from_seed(seed)
    dim = 2 + instance % 2
    eps = _WEB_EPS[instance % 3]
    rho = random_density(dim, dim, seed)
    sigma = random_density(dim, dim, seed + 1)
    rows: list[Row] = []
    s = seed

    # induced() is a pure function: each parent is solved once for (rho, sigma, eps)
    solve = functools.cache(lambda parent: induced(parent, rho, sigma, eps))
    raws = {alpha: solve(ParentDivergence.renyi(alpha)) for alpha in (0.0, 0.5, 1.0, 2.0)}

    # normalization at sigma = rho
    self_res = induced_renyi(rho, rho, 2.0, eps)
    rows.append(_row("induced-web", "self_normalization", instance, s, abs(self_res.normalized), 1e-9))

    # self-induced parents (engine vs parent value)
    for name, parent, fn in (
        ("min", ParentDivergence.min_(), d_min),
        ("max", ParentDivergence.max_(), d_max),
    ):
        eng = solve(parent)
        rows.append(
            _row(
                "induced-web",
                f"self_induced[{name}]",
                instance,
                s,
                abs(eng.normalized - fn(rho, sigma).value),
                1e-8,
            )
        )

    # normalized induced value never exceeds parent + log2(1/eps)
    for name, parent in (
        ("renyi2", ParentDivergence.renyi(2.0)),
        ("umegaki", ParentDivergence.umegaki()),
        ("min", ParentDivergence.min_()),
        ("max", ParentDivergence.max_()),
    ):
        res = solve(parent)
        bound = parent.evaluate(rho, sigma) + LOG2(1.0 / eps)
        rows.append(_row("induced-web", f"parent_upper[{name}]", instance, s, res.normalized, bound + 1e-6))

    # raw induced value <= hypothesis-testing divergence + log2(eps)
    dh = d_hypothesis(rho, sigma, eps)[0].value
    for alpha in (0.0, 0.5, 1.0, 2.0):
        rows.append(
            _row(
                "induced-web",
                f"hypothesis_upper[alpha={alpha:g}]",
                instance,
                s,
                raws[alpha].raw,
                dh + LOG2(eps) + 1e-6,
            )
        )

    # raw induced value >= information-spectrum and hypothesis-testing lower bounds
    for alpha in (1.5, 2.0):
        res = solve(ParentDivergence.renyi(alpha))
        mu = 1.0 - (1.0 - eps) ** (alpha - 1.0)
        ispec = d_tilde_max(rho, sigma, 1.0 - mu).value
        rows.append(
            _row("induced-web", f"ispec_lower[alpha={alpha:g}]", instance, s, ispec - 1e-6, res.raw)
        )
        for frac in (0.25, 0.75):
            delta = frac * mu
            dh_delta = d_hypothesis(rho, sigma, delta)[0].value
            rows.append(
                _row(
                    "induced-web",
                    f"hypothesis_lower[alpha={alpha:g},frac={frac:g}]",
                    instance,
                    s,
                    dh_delta + LOG2(mu - delta) - 1e-6,
                    res.raw,
                )
            )

    # normalized induced value sandwiched between D_min and D_max
    dmin_v = d_min(rho, sigma).value
    dmax_v = d_max(rho, sigma).value
    for name, parent in (
        ("renyi0.5", ParentDivergence.renyi(0.5)),
        ("renyi2", ParentDivergence.renyi(2.0)),
        ("umegaki", ParentDivergence.umegaki()),
    ):
        res = solve(parent)
        rows.append(_row("induced-web", f"minmax_sandwich_lower[{name}]", instance, s, dmin_v - 1e-8, res.normalized))
        rows.append(_row("induced-web", f"minmax_sandwich_upper[{name}]", instance, s, res.normalized, dmax_v + 1e-8))

    # monotonicity in alpha
    grid = (0.0, 0.5, 1.0, 2.0)
    for a1, a2 in zip(grid, grid[1:]):
        rows.append(
            _row(
                "induced-web",
                f"alpha_monotone[{a1:g}<={a2:g}]",
                instance,
                s,
                raws[a1].raw,
                raws[a2].raw + 1e-9,
            )
        )

    # direct-sum block identity
    omega = random_density(2, 2, seed + 3)
    t = 0.1 + 0.85 * rng.random()
    for name, parent in (("renyi2", ParentDivergence.renyi(2.0)), ("min", ParentDivergence.min_())):
        rep = induced_block_property(rho, sigma, omega, t, eps, parent, solve(parent))
        rows.append(_row("induced-web", f"block_identity[{name}]", instance, s, rep.gap, 1e-8))

    # induced Umegaki >= pinched Renyi bound + offset
    umb = solve(ParentDivergence.umegaki())
    for alpha in (0.3, 0.7):
        pb = pinched_measured_lower_bound(rho, sigma, alpha)
        c = _pinched_bound_offset(alpha, eps)
        rows.append(
            _row(
                "induced-web",
                f"pinched_lower[alpha={alpha:g}]",
                instance,
                s,
                pb.value.value + c - 1e-6,
                umb.raw,
            )
        )

    # finite-eps proxies for the two limits, on well-conditioned instances
    rho_c2 = conditioned_density(dim, seed + 5)
    sigma_c2 = conditioned_density(dim, seed + 6)
    near_one = induced_renyi(rho_c2, sigma_c2, 2.0, 0.999)
    d2 = d_alpha(rho_c2, sigma_c2, 2.0).value
    rows.append(_row("induced-web", "limit_eps_to_1", instance, s, abs(near_one.normalized - d2), 2e-2))
    dmin_c = d_min(rho_c2, sigma_c2).value
    for alpha in (0.0, 0.5, 1.0, 2.0):
        near_zero = induced_renyi(rho_c2, sigma_c2, alpha, 1e-4)
        rows.append(
            _row(
                "induced-web",
                f"limit_eps_to_0[alpha={alpha:g}]",
                instance,
                s,
                abs(near_zero.normalized - dmin_c),
                5e-2,
            )
        )

    # DPI under a random isometry-then-partial-trace channel
    kraus = random_isometry_channel(dim, dim, 2, seed + 4)
    rho_out = DensityOperator(apply_kraus(rho, kraus))
    sigma_out = PositiveOperator(apply_kraus(sigma, kraus))
    for name, parent in (
        ("renyi2", ParentDivergence.renyi(2.0)),
        ("umegaki", ParentDivergence.umegaki()),
        ("min", ParentDivergence.min_()),
        ("max", ParentDivergence.max_()),
    ):
        before = solve(parent)
        after = induced(parent, rho_out, sigma_out, eps)
        rows.append(_row("induced-web", f"dpi[{name}]", instance, s, after.raw, before.raw + 1e-8))

    # AEP trend on a commuting qubit pair
    p = random_probability(2, rng)
    q = random_probability(2, rng)
    p = 0.8 * p + 0.1
    q = 0.8 * q + 0.1
    rho_c = np.diag(p.astype(np.complex128))
    sigma_c = np.diag(q.astype(np.complex128))
    dvg = float(np.sum(p * (np.log2(p) - np.log2(q))))
    gaps = []
    rho_n = rho_c.copy()
    sigma_n = sigma_c.copy()
    for n in range(1, 7):
        if n > 1:
            rho_n = _kron(rho_n, rho_c)
            sigma_n = _kron(sigma_n, sigma_c)
        res = induced_renyi(DensityOperator(rho_n), PositiveOperator(sigma_n), 2.0, 0.3)
        gaps.append(abs(res.raw / n - dvg))
    rows.append(_row("induced-web", "aep_endpoint", instance, s, gaps[-1], gaps[0] + 1e-12))
    monotone = all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
    rows.append(_row("induced-web", "aep_monotone_flag", instance, s, 0.0 if monotone else 1.0, math.inf))
    return rows


def _summary_induced_web(rows: list[Row]) -> list[Row]:
    flags = [r for r in rows if r.assertion == "aep_monotone_flag"]
    if not flags:
        return []
    frac = sum(1 for r in flags if r.lhs == 0.0) / len(flags)
    return [_row("induced-web", "aep_monotone_fraction", -1, 0, 0.9, frac + 1e-12)]


# ---------------------------------------------------------------------------
# pbd: enhanced position-based decoding
# ---------------------------------------------------------------------------


def _pbd_instance(seed: int, eps: float, max_n: int = 8):
    for attempt in range(64):
        s = seed + 1000 * attempt
        rho = random_density(4, 4, s)
        sigma_a = random_density(2, 2, s + 1)
        res = induced_renyi(
            rho,
            PositiveOperator(
                _kron(
                    np.asarray(
                        _rho_marginal(rho), dtype=np.complex128
                    ),
                    sigma_a.mat,
                )
            ),
            2.0,
            eps,
        )
        if res.is_finite and res.t_star <= max_n - 0.5:
            return rho, sigma_a, s
    raise RuntimeError("could not draw a pbd instance under the size cap")


def _rho_marginal(rho: DensityOperator) -> np.ndarray:
    from .linalg import _ptrace

    return _ptrace(rho.mat, [2, 2], [0])


def _suite_pbd(instance: int, base_seed: int) -> list[Row]:
    seed = derived_seed("pbd", base_seed, instance)
    eps = (0.3, 0.5)[instance % 2]
    rho, sigma_a, s = _pbd_instance(seed, eps)
    rho_r = _rho_marginal(rho)
    sigma_ra = DensityOperator(_kron(rho_r, sigma_a.mat))
    report = pbd_simulate(rho, sigma_ra, (2, 2), eps)
    rows = [
        _row("pbd", "decoding_guarantee", instance, s, 1.0 - eps - 1e-8, report.min_success),
        _row("pbd", "n_improvement", instance, s, report.n, report.n_old_bound),
        _row("pbd", "success_le_one", instance, s, max(report.success_probs), 1.0 + 1e-9),
    ]
    return rows


# ---------------------------------------------------------------------------
# comm: distillation bound vs the exact classical oracle
# ---------------------------------------------------------------------------


def _comm_channel(instance: int, seed: int):
    kind = instance % 5
    if kind == 0:
        return classical_channel(np.eye(2)), "noiseless2"
    if kind == 1:
        return classical_channel([[0.9, 0.1], [0.1, 0.9]]), "bsc0.1"
    if kind == 2:
        return classical_channel([[0.5, 0.5], [0.5, 0.5]]), "constant2"
    rng = rng_from_seed(seed)
    k = 2 if kind == 3 else 3
    nb = 2 if kind == 3 else 3
    mat = rng.random((k, nb)) + 0.05
    mat /= mat.sum(axis=1, keepdims=True)
    return classical_channel(mat), f"random{k}x{nb}"


def _suite_comm(instance: int, base_seed: int) -> list[Row]:
    seed = derived_seed("comm", base_seed, instance)
    chan, name = _comm_channel(instance, seed)
    eps = (0.2, 0.4)[instance % 2]
    bound = distill_lower_bound(chan, eps, seed=seed)
    rows = [
        _row("comm", f"assembly[{name}]", instance, seed, bound.assembly_gap(), 1e-12),
        _row(
            "comm",
            f"floor_ge_relaxed[{name}]",
            instance,
            seed,
            bound.bound_bits,
            bound.floor_bits + 1e-9,
        ),
        _row("comm", f"tc_upper_m1[{name}]", instance, seed, tc_upper(chan, 1, bound.best_p), 1e-12),
    ]
    mat = chan.stochastic_matrix()
    k = mat.shape[0]
    max_m = bound.floor_m
    while k**max_m > 10**5:
        max_m -= 1
    for m in range(1, max_m + 1):
        tc = brute_force_tc(mat, m)
        rows.append(_row("comm", f"bound_vs_oracle[{name},m={m}]", instance, seed, tc, eps + 1e-9))
        upper = tc_upper(chan, m, bound.best_p)
        rows.append(_row("comm", f"oracle_le_upper[{name},m={m}]", instance, seed, tc, upper + 1e-9))
    m_exp = min(4, max_m) if max_m >= 2 else 2
    rep = expurgate_check(mat, m_exp)
    rows.append(
        _row(
            "comm",
            f"expurgation[{name},m={m_exp}]",
            instance,
            seed,
            rep.max_error_kept,
            2.0 * rep.avg_error + 1e-12,
        )
    )
    return rows


# ---------------------------------------------------------------------------
# qsr: convex split and the redistribution cost bound
# ---------------------------------------------------------------------------


def _correlated_extension(seed: int, d_rb: int = 4):
    rng = rng_from_seed(seed)
    q = random_probability(2, rng)
    q = 0.8 * q + 0.1
    blocks = [random_density(d_rb, d_rb, seed + 1 + i) for i in range(2)]
    ext = np.zeros((d_rb * 2, d_rb * 2), dtype=np.complex128)
    for i in range(2):
        block = q[i] * blocks[i].mat
        idx = np.arange(d_rb) * 2 + i
        ext[np.ix_(idx, idx)] = block
    s = 0.2 + 0.6 * rng.random()
    sigma = DensityOperator(np.diag([s, 1.0 - s]).astype(np.complex128))
    return DensityOperator(ext), sigma


def _suite_qsr(instance: int, base_seed: int) -> list[Row]:
    seed = derived_seed("qsr", base_seed, instance)
    rows: list[Row] = []

    if instance % 2 == 0:
        ext, sigma = _correlated_extension(seed)
    else:
        ext = random_density(8, 8, seed)
        rng = rng_from_seed(seed + 7)
        s = 0.2 + 0.6 * rng.random()
        sigma = DensityOperator(np.diag([s, 1.0 - s]).astype(np.complex128))
    prev = math.inf
    for n in range(1, 6):
        rep = convex_split_check(ext, (4, 2), sigma, n)
        rows.append(
            _row("qsr", f"convex_split[n={n}]", instance, seed, rep.actual_p, rep.epsilon_n + 1e-8)
        )
        rows.append(_row("qsr", f"convex_split_sweep[n={n}]", instance, seed, rep.actual_p, prev + 1e-8))
        prev = rep.actual_p

    state = random_density(8, 8, seed + 11)
    eps, d0, d1 = 0.5, 0.005, 0.005
    bound = eqsr_cost_bound(state, (2, 2, 2), eps, d0, d1)
    rows.append(_row("qsr", "eqsr_finite", instance, seed, abs(bound.q_bound), math.inf))
    rows.append(_row("qsr", "eqsr_assembly", instance, seed, bound.assembly_gap(), 1e-12))
    rows.append(
        _row(
            "qsr",
            "eqsr_feasibility_value",
            instance,
            seed,
            1e-12,
            bound.delta_prime,
        )
    )
    try:
        eqsr_cost_bound(state, (2, 2, 2), 0.1, 0.05, 0.05)
        refused = 0.0
    except InfeasibleError:
        refused = 1.0
    rows.append(_row("qsr", "eqsr_refusal", instance, seed, 1.0, refused))
    return rows


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    instance_fn: Callable[[int, int], list[Row]]
    summary_fn: Callable[[list[Row]], list[Row]] | None = None


SUITES: dict[str, SuiteSpec] = {
    "lemma1": SuiteSpec("lemma1", _suite_lemma1),
    "lemma2": SuiteSpec("lemma2", _suite_lemma2),
    "cheng": SuiteSpec("cheng", _suite_cheng),
    "induced-web": SuiteSpec("induced-web", _suite_induced_web, _summary_induced_web),
    "pbd": SuiteSpec("pbd", _suite_pbd),
    "comm": SuiteSpec("comm", _suite_comm),
    "qsr": SuiteSpec("qsr", _suite_qsr),
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(name: str, instances: int, seed: int) -> list[Row]:
    if name == "all":
        rows: list[Row] = []
        for sub in SUITES:
            rows.extend(run_suite(sub, instances, seed))
        return rows
    spec = SUITES[name]
    rows = [row for i in range(instances) for row in spec.instance_fn(i, seed)]
    if spec.summary_fn is not None:
        rows.extend(spec.summary_fn(rows))
    return rows
