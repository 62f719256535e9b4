import math

import numpy as np
import pytest

from oracles import bloch_grid_beta, classical_np_beta, classical_q_alpha, q2_trace_form

from qdiv import (
    DensityOperator,
    PositiveOperator,
    ValidationError,
    check_direct_sum,
    d_alpha,
    d_hypothesis,
    d_max,
    d_min,
    d_tilde_max,
    d_umegaki,
    fidelity_and_purified,
    op_meet,
    pinched_measured_lower_bound,
    q_alpha,
)
from qdiv.states import (
    apply_kraus,
    basis_state,
    maximally_mixed,
    random_density,
    random_isometry_channel,
    rng_from_seed,
)
from qdiv import _roots
from qdiv.divergences import _sandwiched_q

PLUS = DensityOperator(np.full((2, 2), 0.5, dtype=complex))


def diag_density(*probs):
    return DensityOperator(np.diag(probs).astype(complex))


# ---------------------------------------------------------------------------
# Q_alpha
# ---------------------------------------------------------------------------


def test_q2_normalization():
    rho = random_density(3, 3, 0)
    assert abs(q_alpha(rho, rho, 2.0) - 1.0) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_q2_core_matches_trace_form_on_rank_deficient(seed):
    dim = 2 + seed % 3
    rho = random_density(dim, dim, seed)
    x = PositiveOperator(1.7 * random_density(dim, max(1, dim // 2), seed + 40).mat)
    expected = q2_trace_form(rho.mat, x.mat)
    evals, vecs = np.linalg.eigh(x.mat)
    for got in (_sandwiched_q(rho.mat, evals, vecs, 2.0), q_alpha(rho, x, 2.0)):
        assert abs(got - expected) <= 1e-13 * max(1.0, expected)


def test_q_alpha_commuting_matches_classical():
    p = (0.5, 0.5)
    q = (0.25, 0.75)
    got = q_alpha(diag_density(*p), diag_density(*q), 2.0)
    assert abs(got - classical_q_alpha(p, q, 2.0)) < 1e-14
    assert abs(got - 4.0 / 3.0) < 1e-14


@pytest.mark.parametrize("alpha", [0.5, 0.8, 2.0, 3.0])
def test_q_alpha_multiplicative(alpha):
    rho1, sig1 = random_density(2, 2, 1), random_density(2, 2, 2)
    rho2, sig2 = random_density(2, 2, 3), random_density(2, 2, 4)
    joint = q_alpha(
        DensityOperator(np.kron(rho1.mat, rho2.mat)),
        PositiveOperator(np.kron(sig1.mat, sig2.mat)),
        alpha,
    )
    split = q_alpha(rho1, sig1, alpha) * q_alpha(rho2, sig2, alpha)
    assert abs(joint - split) < 1e-10


# ---------------------------------------------------------------------------
# D_alpha case table and the special orders
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, math.inf])
def test_normalization_condition(alpha):
    half_identity = PositiveOperator(np.eye(2, dtype=complex) / 2)
    assert abs(d_alpha(basis_state(0, 2), half_identity, alpha).value - 1.0) <= 1e-10


def test_d_alpha_zero_on_equal():
    rho = random_density(3, 3, 5)
    assert abs(d_alpha(rho, rho, 2.0).value) < 1e-12


def test_d2_plus_state():
    # Q_2(|+><+| || u_2) = 2 Tr[rho^2] = 2
    assert abs(d_alpha(PLUS, maximally_mixed(2), 2.0).value - 1.0) < 1e-12


def test_d_alpha_support_cases():
    zero, one = basis_state(0, 2), basis_state(1, 2)
    assert not d_alpha(zero, one, 2.0).is_finite  # rho not << sigma
    assert d_alpha(zero, one, 2.0).support_case == "not_contained"
    assert not d_alpha(zero, one, 0.5).is_finite  # orthogonal
    assert not d_min(zero, one).is_finite
    assert not d_umegaki(zero, one).is_finite
    assert not d_max(zero, one).is_finite


def test_d_alpha_low_branch_matches_classical():
    # alpha < 1/2 goes through the dual Q_(1-alpha)(sigma || rho)
    p = (0.3, 0.7)
    q = (0.6, 0.4)
    alpha = 0.25
    expected = math.log2(classical_q_alpha(q, p, 1.0 - alpha)) / (alpha - 1.0)
    got = d_alpha(diag_density(*p), diag_density(*q), alpha).value
    assert abs(got - expected) < 1e-12


def test_q0_reads_the_trace_on_full_support():
    # Pi_rho = I for full-rank rho; a rank-deficient rho still projects
    sigma = PositiveOperator(2.0 * random_density(3, 2, 72).mat)
    assert q_alpha(random_density(3, 3, 71), sigma, 0.0) == sigma.trace
    rho = random_density(3, 2, 73)
    v = rho.eigenvectors[:, rho.eigenvalues > rho.cutoff]
    assert abs(q_alpha(rho, sigma, 0.0) - np.trace(v.conj().T @ sigma.mat @ v).real) <= 1e-15


@pytest.mark.parametrize("m", range(2, 9))
def test_d_min_log_m(m):
    assert abs(d_min(basis_state(0, m), maximally_mixed(m)).value - math.log2(m)) < 1e-12


def test_d_max_self_zero():
    rho = random_density(3, 2, 6)
    assert abs(d_max(rho, rho).value) < 1e-9


def test_d_umegaki_pointer_state():
    rho = diag_density(0.2, 0.5, 0.3)
    assert abs(d_umegaki(basis_state(1, 3), rho).value + math.log2(0.5)) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_alpha_monotonicity(seed):
    rho = random_density(3, 3, seed)
    sigma = random_density(3, 3, seed + 40)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 5.0, math.inf]
    values = [d_alpha(rho, sigma, a).value for a in grid]
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi + 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_scaling_property(seed):
    rng = rng_from_seed(seed)
    rho = random_density(3, 3, seed)
    sigma = random_density(3, 3, seed + 60)
    t = 0.05 + 3.95 * rng.random()
    scaled = PositiveOperator(t * sigma.mat)
    for fn in (d_min, d_max, d_umegaki, lambda r, s: d_alpha(r, s, 2.0), lambda r, s: d_alpha(r, s, 0.3)):
        base = fn(rho, sigma).value
        assert abs(fn(rho, scaled).value - (base - math.log2(t))) < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_loewner_monotonicity(seed):
    rho = random_density(3, 3, seed)
    sigma = random_density(3, 3, seed + 70)
    bigger = PositiveOperator(sigma.mat + 0.5 * random_density(3, 3, seed + 80).mat)
    for fn in (d_min, d_max, d_umegaki, lambda r, s: d_alpha(r, s, 2.0)):
        assert fn(rho, bigger).value <= fn(rho, sigma).value + 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_dpi_under_random_channels(seed):
    rho = random_density(3, 3, seed)
    sigma = random_density(3, 3, seed + 90)
    kraus = random_isometry_channel(3, 3, 2, seed)
    rho_out = DensityOperator(apply_kraus(rho, kraus))
    sigma_out = PositiveOperator(apply_kraus(sigma, kraus))
    for fn in (
        d_min,
        d_max,
        d_umegaki,
        lambda r, s: d_alpha(r, s, 2.0),
        lambda r, s: d_alpha(r, s, 0.6),
        lambda r, s: d_hypothesis(r, s, 0.2)[0],
        lambda r, s: d_tilde_max(r, s, 0.2),
    ):
        assert fn(rho_out, sigma_out).value <= fn(rho, sigma).value + 1e-8


# ---------------------------------------------------------------------------
# Hypothesis testing divergence
# ---------------------------------------------------------------------------


def test_hypothesis_equal_states():
    rho = random_density(3, 3, 8)
    for eps in (0.1, 0.3, 0.7):
        dv, test = d_hypothesis(rho, rho, eps)
        assert abs(dv.value + math.log2(1.0 - eps)) < 1e-9
        assert test.alpha_err >= 1.0 - eps - 1e-9


def test_hypothesis_equal_states_stops_at_float_resolution(monkeypatch):
    # equal rank-2 states have no pencil, so their multiplier is searched; the
    # pass probability jumps at x = -log2 mu = 0 (here about 1e-13), where
    # floats are far finer than the bracket needs; the search stops at the
    # resolution of 1 instead of halving toward 0
    calls = []
    search = _roots.bisect_decreasing

    def counted(f, *args):
        def recorded(x):
            calls.append(x)
            return f(x)

        return search(recorded, *args)

    monkeypatch.setattr(_roots, "bisect_decreasing", counted)
    rho = random_density(3, 2, 1)
    dv, _ = d_hypothesis(rho, rho, 0.3)
    assert abs(dv.value + math.log2(0.7)) < 1e-9
    assert 0 < len(calls) <= 60


def _count_searches(monkeypatch) -> list:
    """Record every root-finder call from here on."""
    searches = []
    search = _roots.bisect_decreasing

    def searched(*args):
        searches.append(1)
        return search(*args)

    monkeypatch.setattr(_roots, "bisect_decreasing", searched)
    return searches


def test_hypothesis_equal_states_jump_at_one(monkeypatch, count_kernel_calls):
    # every eigenvalue of the pencil rho^(-1/2) rho rho^(-1/2) is 1: the whole
    # space is the kernel of mu rho - rho there, and no search runs
    rho = random_density(4, 4, 8)
    searches, kernel_calls = _count_searches(monkeypatch), count_kernel_calls()
    for eps in (0.1, 0.3, 0.7):
        dv, test = d_hypothesis(rho, rho, eps)
        assert abs(test.mu - 1.0) <= 1e-14
        assert abs(dv.value + math.log2(1.0 - eps)) <= 1e-12
        assert abs(test.alpha_err - (1.0 - eps)) <= 1e-14
    assert not searches
    assert kernel_calls()  # the pencil is decomposed


@pytest.mark.parametrize("seed", range(12))
def test_hypothesis_classical_multiplier_is_a_likelihood_ratio(seed, monkeypatch, count_kernel_calls):
    # on commuting pairs the pass probability is a step function, so the
    # multiplier is a jump q_i / p_i, read from the pencil without a search
    rng = rng_from_seed(seed)
    d = 2 + seed % 4
    p = rng.random(d) + 1e-3
    p /= p.sum()
    q = rng.random(d) + 1e-3
    eps = 0.05 + 0.9 * rng.random()
    rho, sigma = diag_density(*p), PositiveOperator(np.diag(q).astype(complex))
    searches, kernel_calls = _count_searches(monkeypatch), count_kernel_calls()
    dv, test = d_hypothesis(rho, sigma, eps)
    assert not searches
    assert 1 <= len(kernel_calls()) <= math.ceil(math.log2(d)) + 2
    assert np.min(np.abs(test.mu / (q / p) - 1.0)) <= 1e-14
    assert abs(dv.value + math.log2(classical_np_beta(p, q, eps))) < 1e-9


def test_hypothesis_classical_example():
    # rho = diag(1,0), sigma = u_2, eps = 1/4: optimal effect diag(3/4, 0)
    dv, test = d_hypothesis(basis_state(0, 2), maximally_mixed(2), 0.25)
    assert abs(dv.value + math.log2(3.0 / 8.0)) < 1e-10
    assert abs(test.beta - 3.0 / 8.0) < 1e-10


def test_hypothesis_eps_zero_is_min():
    rho = random_density(3, 2, 9)
    sigma = random_density(3, 3, 10)
    dv, _ = d_hypothesis(rho, sigma, 0.0)
    assert abs(dv.value - d_min(rho, sigma).value) < 1e-9


@pytest.mark.parametrize("seed", range(12))
def test_hypothesis_matches_classical_oracle(seed):
    rng = rng_from_seed(seed)
    d = 2 + seed % 3
    p = rng.random(d) + 1e-3
    p /= p.sum()
    q = rng.random(d) + 1e-3
    eps = 0.05 + 0.9 * rng.random()
    dv, test = d_hypothesis(diag_density(*p), PositiveOperator(np.diag(q).astype(complex)), eps)
    beta = classical_np_beta(p, q, eps)
    assert abs(dv.value + math.log2(beta)) < 1e-9
    assert test.alpha_err >= 1.0 - eps - 1e-9
    evals = np.linalg.eigvalsh(test.effect.mat)
    assert evals.min() >= -1e-9 and evals.max() <= 1.0 + 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hypothesis_matches_bloch_grid(seed):
    rho = random_density(2, 2, seed)
    sigma = random_density(2, 2, seed + 50)
    eps = 0.1
    dv, _ = d_hypothesis(rho, sigma, eps)
    beta = bloch_grid_beta(rho.mat, sigma.mat, eps)
    assert abs(dv.value + math.log2(beta)) < 1e-3


def test_hypothesis_infinite_when_kernel_of_sigma_passes():
    # rank-2 sigma on C^4: rho puts weight 0.61 >= 1 - eps on its kernel
    rho = random_density(4, 4, 3)
    sigma = random_density(4, 2, 4)
    eps = 0.5
    dv, test = d_hypothesis(rho, sigma, eps)
    assert dv.value == math.inf
    assert test.alpha_err >= 1.0 - eps - 1e-9
    assert float(np.trace(rho.mat @ test.effect.mat).real) >= 1.0 - eps - 1e-9
    evals = np.linalg.eigvalsh(test.effect.mat)
    assert evals.min() >= -1e-9 and evals.max() <= 1.0 + 1e-9


def test_hypothesis_eps_validation():
    rho = random_density(2, 2, 0)
    with pytest.raises(ValidationError):
        d_hypothesis(rho, rho, 1.0)
    with pytest.raises(ValidationError):
        d_hypothesis(rho, rho, -0.1)


def _hypothesis_pairs():
    for seed in range(13):
        for dim in range(2, 6):
            sigma = random_density(dim, dim if seed % 2 else dim // 2, seed + 500)
            yield random_density(dim, dim, seed), sigma


HYPOTHESIS_EPS = (0.05, 0.1, 0.3, 0.5, 0.8)


def test_hypothesis_optimality_certificate_on_noncommuting_pairs():
    # the dual point Y = (mu rho - sigma)_+ bounds beta from below; an
    # absolute 1e-11 bracket on mu left gaps up to 2.1e-8 where mu < 2e-3
    # (random_density(3, 3, 5) against random_density(3, 3, 505), eps 0.8)
    checked = 0
    for rho, sigma in _hypothesis_pairs():
        for eps in HYPOTHESIS_EPS:
            _, test = d_hypothesis(rho, sigma, eps)
            if not math.isfinite(test.mu):  # the kernel of sigma passes rho
                continue
            checked += 1
            assert abs(test.alpha_err - (1.0 - eps)) <= 1e-10
            evals = np.linalg.eigvalsh(test.effect.mat)
            assert evals[0] >= -1e-12 and evals[-1] <= 1.0 + 1e-12
            positive = np.linalg.eigvalsh(test.mu * rho.mat - sigma.mat)
            dual = test.mu * (1.0 - eps) - float(np.sum(positive[positive > 0.0]))
            assert (test.beta - dual) / test.beta <= 1e-9
    assert checked >= 200


def test_hypothesis_takes_few_eigendecompositions(count_kernel_calls):
    pairs = list(_hypothesis_pairs())
    kernel_calls = count_kernel_calls()
    solves = 0
    for rho, sigma in pairs:
        for eps in HYPOTHESIS_EPS:
            solves += math.isfinite(d_hypothesis(rho, sigma, eps)[1].mu)
    # a jump takes about log2(d) + 1, a search between two jumps about 12
    assert 1 <= len(kernel_calls("eigh")) <= 12 * solves


def test_hypothesis_jump_solves_take_log_d_eigendecompositions(monkeypatch, count_kernel_calls):
    pairs = list(_hypothesis_pairs())
    searches, kernel_calls = _count_searches(monkeypatch), count_kernel_calls()
    jumps = 0
    for rho, sigma in pairs:
        for eps in HYPOTHESIS_EPS:
            eighs, searched = len(kernel_calls()), len(searches)
            _, test = d_hypothesis(rho, sigma, eps)
            if math.isfinite(test.mu) and len(searches) == searched:
                jumps += 1
                # one eigvalsh of the pencil, then a binary search over its d eigenvalues
                assert 1 <= len(kernel_calls()) - eighs <= math.ceil(math.log2(rho.dim)) + 2
    assert jumps >= 80


def test_hypothesis_below_the_first_jump_walks_up_from_it(monkeypatch):
    # a rank-deficient sigma can put 1 - eps below the pencil's first jump mu_0; the
    # search then walks up from x_0 = -log2 mu_0 and never falls back to the full range
    ranges = []
    bisect = _roots.bisect_decreasing

    def recording(f, start, floor, ceiling, *args, **kwargs):
        ranges.append((start, floor, ceiling))
        return bisect(f, start, floor, ceiling, *args, **kwargs)

    monkeypatch.setattr(_roots, "bisect_decreasing", recording)
    for rho, sigma in _hypothesis_pairs():  # every rho has full rank, so the pencil has jumps
        for eps in HYPOTHESIS_EPS:
            d_hypothesis(rho, sigma, eps)
    assert not [r for r in ranges if r[1:] == (-120.0, 120.0)]
    below = [r for r in ranges if r[2] == 120.0]
    assert len(below) >= 40  # 45 of these solves lie below the first jump
    assert all(start == floor for start, floor, _ in below)


def test_hypothesis_between_two_jumps_starts_from_the_upper_jumps_limit(monkeypatch):
    # 1 - eps lies between two jumps mu_lo < mu_hi; at x = -log2 mu_hi the margin holds the jump's
    # kernel, which f inside (mu_lo, mu_hi) does not. Started from that kinked value, this search
    # took 17 evaluations and gave 1.555447450721051; from the one-sided limit it takes 10
    searches = []
    bisect = _roots.bisect_decreasing

    def counted(f, start, floor, ceiling, *args, **kwargs):
        searches.append([start, floor, ceiling, 0])

        def g(x):
            searches[-1][3] += 1
            return f(x)

        return bisect(g, start, floor, ceiling, *args, **kwargs)

    monkeypatch.setattr(_roots, "bisect_decreasing", counted)
    eps = 0.1
    value, test = d_hypothesis(random_density(4, 4, 1), random_density(4, 4, 101), eps)
    [(start, floor, ceiling, evals)] = searches
    assert start == floor and ceiling < 120.0  # between two jumps of the pencil
    assert evals < 17
    assert test.alpha_err >= 1.0 - eps - 1e-8
    assert abs(value.value - 1.555447450721051) <= 1e-11


def _full_range_hypothesis(rho, sigma, eps) -> float:
    """D_H from one search over the whole multiplier range, with no pencil."""
    target = 1.0 - eps
    eps_m = np.finfo(np.float64).eps

    def margin(x):
        mat = 2.0**-x * rho.mat - sigma.mat
        evals, vecs = np.linalg.eigh(mat)
        sel = vecs[:, evals > 64.0 * eps_m * max(1.0, np.max(np.abs(mat)))]
        return float(np.trace(sel.conj().T @ rho.mat @ sel).real) - target

    x, _ = _roots.bisect_decreasing(margin, 0.0, -120.0, 120.0)
    mu = 2.0**-x
    mat = mu * rho.mat - sigma.mat
    band = 128.0 * eps_m * max(1.0, np.max(np.abs(mat))) + 4.0 * _roots.BISECT_TOL * mu * rho.eigenvalues[-1]
    evals, vecs = np.linalg.eigh(mat)
    pos, ker = vecs[:, evals > band], vecs[:, np.abs(evals) <= band]
    a_pos = float(np.trace(pos.conj().T @ rho.mat @ pos).real)
    a_ker = float(np.trace(ker.conj().T @ rho.mat @ ker).real)
    w = min(max((target - a_pos) / a_ker, 0.0), 1.0) if a_ker > 1e-15 else 0.0
    beta = float(np.trace(pos.conj().T @ sigma.mat @ pos).real + w * np.trace(ker.conj().T @ sigma.mat @ ker).real)
    return -math.log2(beta)


@pytest.mark.parametrize("seed", range(6))
def test_hypothesis_rank_deficient_rho_matches_full_range_search(seed):
    # the pencil of a rank-2 rho on C^4 is singular: no jumps, one search
    rho, sigma = random_density(4, 2, seed), random_density(4, 4, seed + 500)
    for eps in HYPOTHESIS_EPS:
        dv, _ = d_hypothesis(rho, sigma, eps)
        assert abs(dv.value - _full_range_hypothesis(rho, sigma, eps)) <= 1e-10


# ---------------------------------------------------------------------------
# Information-spectrum divergence
# ---------------------------------------------------------------------------


def test_ispec_hand_example():
    # Tr(rho - 2^lam u_2)_+ = 1 - 2^lam / 2 = eps at lam = 0 for eps = 1/2
    dv = d_tilde_max(basis_state(0, 2), maximally_mixed(2), 0.5)
    assert abs(dv.value) < 1e-9


def test_ispec_self_bounds():
    rho = random_density(3, 3, 11)
    for eps in (0.2, 0.5, 0.8):
        v = d_tilde_max(rho, rho, eps).value
        assert v <= 1e-9
        assert v >= math.log2(1.0 - eps) - 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_ispec_monotone_in_eps(seed):
    rho = random_density(3, 3, seed)
    sigma = random_density(3, 3, seed + 30)
    v1 = d_tilde_max(rho, sigma, 0.2).value
    v2 = d_tilde_max(rho, sigma, 0.6).value
    assert v1 >= v2 - 1e-10


def test_ispec_infinite_when_kernel_weight_exceeds_eps():
    # pure sigma on C^2: rho puts weight 0.81 > eps outside its support
    dv = d_tilde_max(random_density(2, 2, 0), random_density(2, 1, 500), 0.1)
    assert dv.value == math.inf


def test_ispec_rejects_zero_sigma():
    rho = random_density(2, 2, 1)
    with pytest.raises(ValidationError):
        d_tilde_max(rho, PositiveOperator(np.zeros((2, 2))), 0.3)


def test_ispec_hypothesis_identity_pair():
    # both identities relating the two smoothed divergences, on delta grids
    for seed in range(3):
        rho = random_density(2, 2, seed)
        sigma = random_density(2, 2, seed + 30)
        eps = 0.2 + 0.1 * seed

        lo, hi, best, best_d = eps, 1.0, -math.inf, None
        for _ in range(3):
            for d in np.linspace(lo, hi, 51)[1:]:
                val = d_hypothesis(rho, sigma, 1.0 - d)[0].value + math.log2(d - eps)
                if val > best:
                    best, best_d = val, d
            w = (hi - lo) / 50
            lo, hi = max(eps, best_d - 2 * w), min(1.0, best_d + 2 * w)
        assert abs(d_tilde_max(rho, sigma, eps).value - best) < 1e-2

        lo, hi, best, best_d = 0.0, eps, math.inf, None
        for _ in range(3):
            for d in np.linspace(lo, hi, 51)[:-1]:
                v = d_tilde_max(rho, sigma, d).value if d > 0 else d_max(rho, sigma).value
                val = v - math.log2(eps - d)
                if val < best:
                    best, best_d = val, d
            w = (hi - lo) / 50
            lo, hi = max(0.0, best_d - 2 * w), min(eps, best_d + 2 * w)
        assert abs(d_hypothesis(rho, sigma, 1.0 - eps)[0].value - best) < 1e-2


# ---------------------------------------------------------------------------
# Pinching bound, direct sum, and the two trace inequalities
# ---------------------------------------------------------------------------


def test_pinched_commuting_is_identity():
    rho = diag_density(0.3, 0.7)
    sigma = diag_density(0.6, 0.4)
    pb = pinched_measured_lower_bound(rho, sigma, 1.5)
    assert abs(pb.value.value - d_alpha(rho, sigma, 1.5).value) < 1e-10
    assert pb.spectrum_size == 2


def test_pinched_uniform_sigma():
    rho = random_density(3, 3, 13)
    pb = pinched_measured_lower_bound(rho, maximally_mixed(3), 1.0)
    assert pb.spectrum_size == 1
    assert np.max(np.abs(pb.pinched - rho.mat)) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_pinched_dpi_direction(seed):
    rho = random_density(2, 2, seed)
    sigma = random_density(2, 2, seed + 20)
    pb = pinched_measured_lower_bound(rho, sigma, 1.0)
    assert pb.value.value <= d_umegaki(rho, sigma).value + 1e-10


def test_direct_sum_property():
    single = check_direct_sum([1.0], [random_density(2, 2, 1)], [random_density(2, 2, 2)], 2.0)
    assert single.ok
    for alpha in (0.5, 2.0):
        rhos = [random_density(2, 2, s) for s in (3, 4)]
        sigmas = [random_density(2, 2, s) for s in (5, 6)]
        rep = check_direct_sum([0.4, 0.6], rhos, sigmas, alpha)
        assert rep.ok, rep


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.999, 1.5, 2.0])
def test_positive_part_inequality(seed, alpha):
    rng = rng_from_seed(seed)
    rho = PositiveOperator((0.2 + 2 * rng.random()) * random_density(3, 2 + seed % 2, seed).mat)
    sigma = PositiveOperator((0.2 + 2 * rng.random()) * random_density(3, 3, seed + 10).mat)
    total = PositiveOperator(rho.mat + sigma.mat)
    ptp = float(np.sum(np.clip(np.linalg.eigvalsh(rho.mat - sigma.mat), 0.0, None)))
    assert q_alpha(rho, total, alpha) >= ptp - 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_cheng_inequality(seed):
    rng = rng_from_seed(seed + 500)
    rho = PositiveOperator((0.2 + 2 * rng.random()) * random_density(3, 3, seed).mat)
    sigma = PositiveOperator((0.2 + 2 * rng.random()) * random_density(3, 2, seed + 10).mat)
    lam = PositiveOperator(rho.mat + sigma.mat)
    evals, vecs = np.linalg.eigh(lam.mat)
    inv_sqrt = np.where(evals > 1e-12, np.where(evals > 1e-12, evals, 1.0) ** -0.5, 0.0)
    half = (vecs * inv_sqrt) @ vecs.conj().T
    rhs = float(np.trace(rho.mat @ half @ sigma.mat @ half).real)
    lhs = float(np.trace(op_meet(rho, sigma).mat).real)
    assert lhs >= rhs - 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_collision_vs_purified_distance(seed):
    rho = random_density(3, 3, seed)
    sigma = random_density(3, 3, seed + 200)
    _, p = fidelity_and_purified(rho, sigma)
    assert d_alpha(rho, sigma, 2.0).value >= -math.log2(1.0 - p * p) - 1e-9
