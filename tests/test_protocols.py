import math

import numpy as np
import numpy.testing as npt
import pytest

from qdiv import (
    DensityOperator,
    InfeasibleError,
    PositiveOperator,
    ValidationError,
    brute_force_tc,
    convex_split_check,
    distill_lower_bound,
    eqsr_cost_bound,
    eqsr_feasibility,
    expurgate_check,
    fidelity_and_purified,
    pbd_simulate,
    permute_systems,
    pgm,
    q_alpha,
    tc_upper,
)
from qdiv.linalg import _ptrace
from qdiv.states import (
    basis_state,
    channel,
    classical_channel,
    pairwise_tensor_family,
    random_density,
)
from qdiv.suites import _correlated_extension, conditioned_density


# ---------------------------------------------------------------------------
# pretty good measurement
# ---------------------------------------------------------------------------


def test_pgm_single_state_completes_to_identity():
    rho = random_density(3, 2, 1)
    povm = pgm([rho])
    total = sum(e.mat for e in povm.effects)
    npt.assert_allclose(total, np.eye(3), atol=1e-10)


def test_pgm_orthogonal_states():
    povm = pgm([basis_state(0, 2).mat, basis_state(1, 2).mat])
    assert abs(np.trace(povm.effects[0].mat @ basis_state(0, 2).mat).real - 1.0) < 1e-12
    assert abs(np.trace(povm.effects[1].mat @ basis_state(1, 2).mat).real - 1.0) < 1e-12


def test_pgm_identical_states_split():
    rho = random_density(2, 2, 2)
    povm = pgm([rho.mat, rho.mat])
    for e in povm.effects:
        assert abs(np.trace(e.mat @ rho.mat).real - 0.5) < 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_pgm_valid_povm(seed):
    states = [random_density(3, 2, seed * 10 + j).mat for j in range(3)]
    povm = pgm(states)
    total = sum(e.mat for e in povm.effects)
    npt.assert_allclose(total, np.eye(3), atol=1e-8)
    for e in povm.effects:
        evals = np.linalg.eigvalsh(e.mat)
        assert evals.min() >= -1e-9 and evals.max() <= 1.0 + 1e-9


@pytest.mark.parametrize(
    "state",
    [
        [[0.5, 0.4], [0.0, 0.5]],  # not Hermitian
        np.diag([1.0, -0.5]),  # not positive semidefinite
    ],
)
def test_pgm_rejects_invalid_states(state):
    with pytest.raises(ValidationError):
        pgm([state])


# ---------------------------------------------------------------------------
# position-based decoding
# ---------------------------------------------------------------------------


def test_pgm_ill_conditioned_family_decodes():
    # unconditioned draw: the PGM of its size-6 family used to come out
    # non-Hermitian at the 1e-9 level and was rejected by its own validation
    rho = random_density(4, 4, 0)
    sigma_a = random_density(2, 2, 1)
    sigma_ra = DensityOperator(np.kron(_ptrace(rho.mat, [2, 2], [0]), sigma_a.mat))
    eps = 0.414234375  # puts t* near 5.5
    rep = pbd_simulate(rho, sigma_ra, (2, 2), eps)
    assert rep.n == 6 and not rep.aborted
    assert rep.min_success >= 1.0 - eps - 1e-8


def test_pbd_equal_states():
    rho = random_density(4, 4, 3)
    rep = pbd_simulate(rho, rho, (2, 2), 0.5)
    assert rep.n == 1
    assert rep.min_success >= 1.0 - 1e-10


def test_pbd_classical_correlated():
    # perfectly correlated bit pair against product of marginals, eps = 0.4
    joint = np.zeros((4, 4), dtype=complex)
    joint[0, 0] = joint[3, 3] = 0.5
    rho = DensityOperator(joint)
    sigma = DensityOperator(np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex))
    rep = pbd_simulate(rho, sigma, (2, 2), 0.4)
    assert rep.min_success >= 0.6 - 1e-10
    assert rep.n <= rep.n_old_bound


def test_pbd_random_instance():
    rho = random_density(4, 4, 21)
    rho_r = _ptrace(rho.mat, [2, 2], [0])
    sigma = DensityOperator(np.kron(rho_r, random_density(2, 2, 22).mat))
    rep = pbd_simulate(rho, sigma, (2, 2), 0.3)
    assert rep.min_success >= 0.7 - 1e-8
    assert rep.n <= rep.n_old_bound
    assert max(rep.success_probs) <= 1.0 + 1e-9


def test_pbd_cap_abort_keeps_divergences():
    rho = random_density(4, 1, 5)  # pure, large divergence
    mixed = DensityOperator(0.9 * rho.mat + 0.1 * np.eye(4) / 4)
    rho_r = _ptrace(mixed.mat, [2, 2], [0])
    sigma = DensityOperator(np.kron(rho_r, random_density(2, 2, 6).mat))
    rep = pbd_simulate(mixed, sigma, (2, 2), 0.3, cap=8)
    assert rep.aborted
    assert rep.n >= 1 and rep.divergence_used.is_finite
    assert rep.success_probs == ()


def _pbd_draw(kind, seed):
    """(rho_RA, sigma_A, sigma_RA = rho_R (x) sigma_A) from a plain or conditioned draw."""
    if kind == "plain":
        rho, sigma_a = random_density(4, 4, seed), random_density(2, 2, seed + 1)
    else:
        rho, sigma_a = conditioned_density(4, seed), conditioned_density(2, seed + 1)
    sigma_ra = DensityOperator(np.kron(_ptrace(rho.mat, [2, 2], [0]), sigma_a.mat))
    return rho, sigma_a, sigma_ra


# (draw, seed, eps, family size); plain seed 0 at n = 6 is the ill-conditioned
# family of test_pgm_ill_conditioned_family_decodes
PBD_DRAWS = [
    ("plain", 0, 0.414234375, 6),
    ("plain", 0, 0.43, 7),
    ("plain", 3, 0.531, 6),
    ("plain", 3, 0.555, 7),
    ("conditioned", 10, 0.703, 6),
    ("conditioned", 11, 0.796, 7),
]


@pytest.mark.parametrize("kind,seed,eps,n", PBD_DRAWS)
def test_pbd_success_is_pgm_success(kind, seed, eps, n):
    rho, sigma_a, sigma_ra = _pbd_draw(kind, seed)
    rep = pbd_simulate(rho, sigma_ra, (2, 2), eps)
    assert rep.n == n and len(rep.success_probs) == n
    family = pairwise_tensor_family(rho, (2, 2), sigma_a, n)
    povm = pgm([m.mat for m in family.members])
    for x in range(n):
        direct = np.trace(povm.effects[x].mat @ family.members[x].mat).real
        assert abs(rep.success_probs[x] - direct) <= 1e-11


def test_pbd_makes_one_eigh_at_family_dimension(monkeypatch):
    kind, seed, eps, n = PBD_DRAWS[0]
    rho, _, sigma_ra = _pbd_draw(kind, seed)
    dims = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        dims.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    rep = pbd_simulate(rho, sigma_ra, (2, 2), eps)
    assert rep.n == n
    assert dims.count(2 * 2**n) == 1


def test_pbd_rejects_sigma_that_is_not_rho_r_tensor_sigma_a():
    # the family is built against rho_R (x) Tr_R sigma_RA, so a sigma_RA of
    # another form would set n from a divergence the family does not realise
    with pytest.raises(ValidationError, match="rho_R"):
        pbd_simulate(random_density(4, 4, 0), random_density(4, 4, 1), (2, 2), 0.5)


# ---------------------------------------------------------------------------
# conversion-distance bounds
# ---------------------------------------------------------------------------


def test_tc_upper_m1_is_zero():
    chan = classical_channel([[0.8, 0.2], [0.3, 0.7]])
    assert tc_upper(chan, 1, [0.5, 0.5]) <= 1e-12


def test_tc_upper_replacement():
    omega = random_density(2, 2, 7)
    chan = channel([omega, omega])
    for m in (2, 4, 8):
        assert abs(tc_upper(chan, m, [0.5, 0.5]) - (1.0 - 1.0 / m)) < 1e-10


def test_tc_upper_matches_direct_4x4():
    # orthogonal-output binary channel, m = 2, uniform input
    chan = channel([basis_state(0, 2), basis_state(1, 2)])
    cq = chan.cq_state([0.5, 0.5])
    full = cq.density()
    product = np.kron(cq.marginal_x(), cq.marginal_b())
    direct = 1.0 - q_alpha(full, PositiveOperator(full.mat + 1.0 * product), 2.0)
    assert abs(tc_upper(chan, 2, [0.5, 0.5]) - direct) < 1e-12


def test_distill_replacement_channel():
    omega = random_density(2, 2, 8)
    chan = channel([omega, omega])
    eps = 0.3
    bound = distill_lower_bound(chan, eps)
    assert abs(bound.bound_bits - 2.0 * math.log2(eps / (1.0 - eps))) < 1e-7
    assert bound.floor_m == 1  # zero distillable bits
    assert bound.assembly_gap() <= 1e-12


def test_distill_noiseless_bit():
    chan = classical_channel(np.eye(2))
    bound = distill_lower_bound(chan, 0.5)
    # commuting closed form: 1/(1 + t/2) = 1/2 so t* = 2, floor m = 3
    assert abs(bound.bound_bits - 1.0) < 1e-8
    assert bound.floor_m == 3
    assert abs(bound.floor_bits - math.log2(3)) < 1e-12
    for m, val in bound.tc_upper_curve:
        assert val <= 0.5 + 1e-9 or m > bound.floor_m


# ---------------------------------------------------------------------------
# brute force oracle and expurgation
# ---------------------------------------------------------------------------


def test_brute_force_noiseless():
    assert brute_force_tc(np.eye(2), 2) == 0.0


def test_brute_force_constant():
    for m in (2, 3, 4):
        assert abs(brute_force_tc([[0.5, 0.5], [0.5, 0.5]], m) - (1.0 - 1.0 / m)) < 1e-12


def test_brute_force_bsc():
    assert abs(brute_force_tc([[0.9, 0.1], [0.1, 0.9]], 2) - 0.1) < 1e-12


def test_brute_force_limits():
    with pytest.raises(ValidationError):
        brute_force_tc(np.eye(10), 6)
    with pytest.raises(ValidationError):
        brute_force_tc([[0.5, 0.6], [0.5, 0.4]], 2)


def test_expurgate_noiseless():
    rep = expurgate_check(np.eye(2), 2)
    assert rep.avg_error == 0.0 and rep.max_error_kept == 0.0 and rep.ok


def test_expurgate_constant():
    rep = expurgate_check([[0.5, 0.5], [0.5, 0.5]], 4)
    assert rep.max_error_kept <= 2.0 * 0.75 + 1e-12
    assert rep.ok


def test_expurgate_four_letter():
    rng = np.random.default_rng(0)
    mat = rng.random((4, 4)) + 0.1
    mat /= mat.sum(axis=1, keepdims=True)
    rep = expurgate_check(mat, 4)
    assert rep.ok
    assert rep.m_half == 2 and len(rep.kept) == 2


# ---------------------------------------------------------------------------
# convex split
# ---------------------------------------------------------------------------


def test_convex_split_product_extension():
    rb = random_density(4, 4, 9)
    sigma = random_density(2, 2, 10)
    ext = DensityOperator(np.kron(rb.mat, sigma.mat))
    rep = convex_split_check(ext, (4, 2), sigma, 3)
    assert rep.mu <= 1e-10
    assert rep.actual_p <= 1e-6
    assert rep.ok


def test_convex_split_correlated_n2():
    # classical-correlated extension, explicit 16-dimensional computation
    blocks = [random_density(4, 4, 11), random_density(4, 4, 12)]
    q = [0.6, 0.4]
    ext = np.zeros((8, 8), dtype=complex)
    for i in range(2):
        idx = np.arange(4) * 2 + i
        ext[np.ix_(idx, idx)] = q[i] * blocks[i].mat
    sigma = DensityOperator(np.diag([0.55, 0.45]).astype(complex))
    rep = convex_split_check(DensityOperator(ext), (4, 2), sigma, 2)
    assert rep.ok
    assert rep.mu > 0.0


@pytest.mark.parametrize("seed", range(3))
def test_convex_split_sweep_nonincreasing(seed):
    ext = random_density(8, 8, seed + 30)
    sigma = DensityOperator(np.diag([0.6, 0.4]).astype(complex))
    prev = math.inf
    for n in range(1, 6):
        rep = convex_split_check(ext, (4, 2), sigma, n)
        assert rep.ok
        assert rep.actual_p <= prev + 1e-8
        prev = rep.actual_p


def _split_reference(ext, sigma, n):
    """Purified distance of the convex split, every operator built and validated."""
    base = ext.mat
    for _ in range(n - 1):
        base = np.kron(base, sigma.mat)
    tau = np.zeros_like(base)
    for x in range(n):
        order = list(range(n + 1))
        order[1], order[1 + x] = order[1 + x], order[1]
        tau += permute_systems(base, [4] + [2] * n, order)
    tau /= n
    product = _ptrace(ext.mat, [4, 2], [0])
    for _ in range(n):
        product = np.kron(product, sigma.mat)
    return fidelity_and_purified(DensityOperator(tau), DensityOperator(product))[1]


@pytest.mark.parametrize("source", ["qsr_correlated", "random8"])
@pytest.mark.parametrize("n", range(1, 6))
def test_convex_split_matches_validated_reference(source, n):
    if source == "qsr_correlated":
        ext, sigma = _correlated_extension(1234)
    else:
        ext = random_density(8, 8, 77)
        sigma = DensityOperator(np.diag([0.35, 0.65]).astype(complex))
    rep = convex_split_check(ext, (4, 2), sigma, n)
    assert rep.actual_p == _split_reference(ext, sigma, n)


def test_convex_split_cap():
    ext = random_density(8, 8, 40)
    sigma = random_density(2, 2, 41)
    with pytest.raises(ValidationError):
        convex_split_check(ext, (4, 2), sigma, 5, cap=32)


# ---------------------------------------------------------------------------
# eQSR cost bound
# ---------------------------------------------------------------------------


def test_eqsr_feasibility_formula():
    assert eqsr_feasibility(0.5, 0.005, 0.005) > 0
    assert eqsr_feasibility(0.1, 0.05, 0.05) < 0


def test_eqsr_uncorrelated_pure_aprime():
    # A' pure and uncorrelated: both terms reduce to their normalizers
    a = random_density(2, 2, 50)
    b = random_density(2, 2, 51)
    rho = DensityOperator(np.kron(np.kron(a.mat, basis_state(0, 2).mat), b.mat))
    d1 = 0.005
    bound = eqsr_cost_bound(rho, (2, 2, 2), 0.5, 0.005, d1)
    assert abs(bound.cond_mi.smoothed_term.value) < 1e-6
    assert abs(bound.cond_mi.induced_term - math.log2(d1 / (1.0 - d1))) < 1e-4
    expected = 0.5 * bound.cond_mi.value + math.log2(1.0 / bound.delta_prime)
    assert abs(bound.q_bound - expected) < 1e-12


def test_eqsr_infeasible_refused():
    rho = random_density(8, 8, 52)
    with pytest.raises(InfeasibleError):
        eqsr_cost_bound(rho, (2, 2, 2), 0.1, 0.05, 0.05)


def test_eqsr_random_state_assembly():
    rho = random_density(8, 8, 53)
    bound = eqsr_cost_bound(rho, (2, 2, 2), 0.5, 0.005, 0.005)
    assert math.isfinite(bound.q_bound)
    assert bound.assembly_gap() <= 1e-12
    assert bound.delta_prime > 0
