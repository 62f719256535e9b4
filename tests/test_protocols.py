import math

import numpy as np
import numpy.testing as npt
import pytest
from oracles import _mp_hermitian, pgm

from qdiv import (
    DensityOperator,
    HermitianOperator,
    InfeasibleError,
    PositiveOperator,
    ValidationError,
    brute_force_tc,
    convex_split_check,
    distill_lower_bound,
    eqsr_cost_bound,
    eqsr_feasibility,
    expurgate_check,
    pbd_simulate,
    permute_systems,
    q_alpha,
    tc_upper,
)
from qdiv.induced import induced_renyi
from qdiv.linalg import _ptrace, _sandwiched_q
from qdiv.protocols import ConvexSplitReport, _pbd_block_success, _spin_blocks, _spin_table
import qdiv.protocols as qdiv_protocols
import qdiv.states as qdiv_states
from qdiv.states import (
    PairwiseFamily,
    basis_state,
    channel,
    classical_channel,
    pairwise_tensor_family,
    purify,
    random_density,
)
from qdiv.suites import _comm_channel, _correlated_extension, conditioned_density


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


def test_pbd_cap_abort_keeps_divergences(monkeypatch):
    monkeypatch.setenv("QDIV_DIM_CAP", "8")
    rho = random_density(4, 1, 5)  # pure, large divergence
    mixed = DensityOperator(0.9 * rho.mat + 0.1 * np.eye(4) / 4)
    rho_r = _ptrace(mixed.mat, [2, 2], [0])
    sigma = DensityOperator(np.kron(rho_r, random_density(2, 2, 6).mat))
    rep = pbd_simulate(mixed, sigma, (2, 2), 0.3)
    assert rep.aborted
    assert rep.n >= 1 and rep.divergence_used.is_finite
    assert rep.success_probs == ()


def test_pbd_cap_is_checked_without_building_the_dimension():
    # eps near 1 puts t* at 4.48e10 slots: the check must stop multiplying
    # once d_R d_A^n passes the cap, not build 2^n first
    rho, sigma_a = random_density(4, 4, 0), random_density(2, 2, 1)
    sigma = DensityOperator(np.kron(_ptrace(rho.mat, [2, 2], [0]), sigma_a.mat))
    rep = pbd_simulate(rho, sigma, (2, 2), 1.0 - 1e-9)
    assert rep.aborted and rep.success_probs == ()
    assert abs(rep.divergence_used.t_star / 44_802_796_159.6 - 1.0) <= 1e-10
    assert rep.n == qdiv_protocols._ceil_guarded(rep.divergence_used.t_star)


def test_pbd_family_size_is_the_ceiling_of_a_large_threshold():
    # the rounding guard is the threshold's own bracket (7e-12 relative in t),
    # so at t* = 44,802,796,159.6 the family size is the ceiling, not 45 below it
    rho, sigma_a = random_density(4, 4, 0), random_density(2, 2, 1)
    sigma = DensityOperator(np.kron(_ptrace(rho.mat, [2, 2], [0]), sigma_a.mat))
    rep = pbd_simulate(rho, sigma, (2, 2), 1.0 - 1e-9)
    assert rep.n == math.ceil(rep.divergence_used.t_star) == 44_802_796_160


def _pbd_draw(kind, seed):
    """(rho_RA, sigma_A, sigma_RA = rho_R (x) sigma_A) with d_R = 2; d_A = 3 for "qutrit", else 2."""
    if kind == "plain":
        rho, sigma_a = random_density(4, 4, seed), random_density(2, 2, seed + 1)
    elif kind == "rank1":
        rho, sigma_a = random_density(4, 4, seed), random_density(2, 1, seed + 1)
    elif kind == "qutrit":
        rho, sigma_a = random_density(6, 6, seed), random_density(3, 3, seed + 1)
    else:
        rho, sigma_a = conditioned_density(4, seed), conditioned_density(2, seed + 1)
    sigma_ra = DensityOperator(np.kron(_ptrace(rho.mat, [2, sigma_a.dim], [0]), sigma_a.mat))
    return rho, sigma_a, sigma_ra


# (draw, seed, eps, family size); plain seed 0 at n = 6 is the ill-conditioned
# family of test_pgm_ill_conditioned_family_decodes; qutrit slots keep the
# full-dimension path
PBD_DRAWS = [
    ("plain", 0, 0.414234375, 6),
    ("plain", 0, 0.43, 7),
    ("plain", 3, 0.531, 6),
    ("plain", 3, 0.555, 7),
    ("conditioned", 10, 0.703, 6),
    ("conditioned", 11, 0.796, 7),
    ("qutrit", 0, 0.35, 2),
    ("qutrit", 0, 0.43, 3),
    ("qutrit", 5, 0.33, 2),
    ("qutrit", 5, 0.38, 3),
]


@pytest.mark.parametrize("kind,seed,eps,n", PBD_DRAWS)
def test_pbd_success_is_pgm_success(kind, seed, eps, n):
    rho, sigma_a, sigma_ra = _pbd_draw(kind, seed)
    dims = (2, sigma_a.dim)
    rep = pbd_simulate(rho, sigma_ra, dims, eps)
    assert rep.n == n and len(rep.success_probs) == n
    family = pairwise_tensor_family(rho, dims, sigma_a, n)
    povm = pgm([m.mat for m in family.members])
    for x in range(n):
        direct = np.trace(povm.effects[x].mat @ family.members[x].mat).real
        assert abs(rep.success_probs[x] - direct) <= 1e-11


def test_pbd_makes_no_eigh_at_family_dimension(monkeypatch, count_kernel_calls):
    # with d_A = 2, Q_2(tau_x || eta) is read from eta's spin-j blocks: no eigh
    # or eigvalsh runs at the family dimension, and no member of the family is
    # built; on any slot dimension its marginals are never re-checked, and
    # sigma_A = Tr_R sigma_RA of a validated sigma_RA is not validated again
    calls = {"permute_systems": 0, "verify_marginals": 0, "validated": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    kernel_calls = count_kernel_calls()
    monkeypatch.setattr(qdiv_states, "permute_systems", counting("permute_systems", permute_systems))
    monkeypatch.setattr(
        PairwiseFamily, "verify_marginals", counting("verify_marginals", PairwiseFamily.verify_marginals)
    )
    (kind, seed, eps, n), (_, seed3, eps3, n3) = PBD_DRAWS[0], PBD_DRAWS[-1]
    (rho, _, sigma_ra), (rho3, _, sigma3) = _pbd_draw(kind, seed), _pbd_draw("qutrit", seed3)
    monkeypatch.setattr(HermitianOperator, "__init__", counting("validated", HermitianOperator.__init__))
    rep = pbd_simulate(rho, sigma_ra, (2, 2), eps)
    assert rep.n == n
    assert kernel_calls("eigh") and kernel_calls("eigh").count(2 * 2**n) == 0
    assert kernel_calls("eigvalsh").count(2 * 2**n) == 0
    assert calls == {"permute_systems": 0, "verify_marginals": 0, "validated": 0}

    assert pbd_simulate(rho3, sigma3, (2, 3), eps3).n == n3
    assert calls["verify_marginals"] == 0 and calls["validated"] == 0


@pytest.mark.parametrize("kind", ["plain", "conditioned", "rank1"])
@pytest.mark.parametrize("n", range(1, 8))
def test_pbd_blocks_match_full_dimension(kind, n):
    # every index's Q_2(tau_x || eta), read from one eigh of eta at the family
    # dimension, equals the one value of the spin-j blocks
    for seed in (0, 3):
        rho, sigma_a, _ = _pbd_draw(kind, seed)
        block = _pbd_block_success(rho, sigma_a, 2, n)
        family = pairwise_tensor_family(rho, (2, 2), sigma_a, n)
        evals, vecs = np.linalg.eigh(sum(m.mat for m in family.members))
        for m in family.members:
            assert abs(block - _sandwiched_q(m.mat, evals, vecs, 2.0)) <= 1e-13


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


def _distill_channels():
    for instance in range(5):  # noiseless2, bsc0.1, constant2, random2x2, random3x3
        yield _comm_channel(instance, 1000 + instance)[0]
    yield channel([random_density(2, 2, 31), random_density(2, 2, 32)])
    yield channel([basis_state(0, 2), random_density(2, 1, 33)])


@pytest.mark.parametrize("index", range(7))
def test_distill_value_is_the_full_cq_threshold(index):
    # the channel objective's own threshold at best_p against a direct
    # solve on the k * d_B cq state (the direct-sum identity)
    chan = list(_distill_channels())[index]
    eps = 0.2 + 0.1 * index
    bound = distill_lower_bound(chan, eps, seed=index)
    cq = chan.cq_state(bound.best_p)
    product = PositiveOperator(np.kron(cq.marginal_x(), cq.marginal_b()))
    full = induced_renyi(cq.density(), product, 2.0, eps)
    assert abs(bound.induced_value - full.raw) <= 1e-9
    assert bound.floor_m == 1 + math.floor(full.t_star + qdiv_protocols._t_bracket(full.t_star))


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
    for k in (1, 2):  # one input has a single codebook, but of 10^12 messages
        with pytest.raises(ValidationError, match="enumeration limit"):
            brute_force_tc(np.eye(k), 10**12)
    with pytest.raises(ValidationError):
        brute_force_tc([[0.5, 0.6], [0.5, 0.4]], 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_classical_channel_with_non_finite_entry_is_refused(bad):
    # NaN fails every comparison, so the sign and row-sum checks alone let it
    # through to a brute_force_tc of inf and an expurgate_check with no codebook
    mat = [[bad, 1.0], [0.5, 0.5]]
    with pytest.raises(ValidationError, match="non-finite"):
        brute_force_tc(mat, 2)
    with pytest.raises(ValidationError, match="non-finite"):
        expurgate_check(mat, 2)


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


def _split_reference(ext, sigma, n, dims=(4, 2)):
    """Purified distance of the convex split on RB (x) B' of ``dims``, every operator built and validated.

    The fidelity is read on the support of X from X's own full eigendecomposition:
    on a rank-deficient X, eigvalsh of the full sandwich returns kernel eigenvalues
    of about +-1e-17, and summing their square roots would put the fidelity up
    to 1.1e-8 off the mpmath value on the sources below.
    """
    d_rb, d_bp = dims
    base = ext.mat
    for _ in range(n - 1):
        base = np.kron(base, sigma.mat)
    tau = np.zeros_like(base)
    for x in range(n):
        order = list(range(n + 1))
        order[1], order[1 + x] = order[1 + x], order[1]
        tau += permute_systems(base, [d_rb] + [d_bp] * n, order)
    tau /= n
    product = _ptrace(ext.mat, [d_rb, d_bp], [0])
    for _ in range(n):
        product = np.kron(product, sigma.mat)
    tau, x = DensityOperator(tau), DensityOperator(product)
    on = x.eigenvalues > x.cutoff
    root = x.eigenvectors[:, on] * np.sqrt(x.eigenvalues[on])
    inner = root.conj().T @ tau.mat @ root
    fid = float(np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(0.5 * (inner + inner.conj().T)), 0.0, None))))
    return math.sqrt(max(0.0, 1.0 - min(fid, 1.0) ** 2))


def _split_reference_mp(ext, sigma, n, on_support=False):
    """The purified distance of `_split_reference` at 40 digits, from the same stored matrices.

    With ``on_support``, rho_ext is rebuilt in mpmath from its support
    eigenpairs (eigenvalues above its cutoff), so its rank is exact, as
    `oracles.mp_fidelity` reads a rank-deficient argument.
    """
    from mpmath import mp

    with mp.workdps(40):
        if on_support:
            on = ext.eigenvalues > ext.cutoff
            vecs = mp.matrix(ext.eigenvectors[:, on].tolist())
            e = np.array((vecs * mp.diag(ext.eigenvalues[on].tolist()) * vecs.H).tolist(), dtype=object)
        else:
            e = np.array(_mp_hermitian(ext.mat).tolist(), dtype=object)
        s = np.array(_mp_hermitian(sigma.mat).tolist(), dtype=object)
        base, product = e, np.array(
            [[e[2 * i, 2 * j] + e[2 * i + 1, 2 * j + 1] for j in range(4)] for i in range(4)]
        )
        for _ in range(n - 1):
            base = np.kron(base, s)
        dims, d = [4] + [2] * n, 4 * 2**n
        tau = 0
        for x in range(n):
            order = list(range(n + 1))
            order[1], order[1 + x] = order[1 + x], order[1]
            perm = order + [n + 1 + k for k in order]
            tau = tau + base.reshape(dims + dims).transpose(perm).reshape(d, d)
        for _ in range(n):
            product = np.kron(product, s)
        evals, vecs = mp.eighe(mp.matrix(product.tolist()))
        root = vecs * mp.diag([mp.sqrt(max(v, 0)) for v in evals]) * vecs.H
        inner = root * mp.matrix((tau / n).tolist()) * root
        fid = sum(mp.sqrt(max(v, 0)) for v in mp.eighe((inner + inner.H) / 2, eigvals_only=True))
        return float(mp.sqrt(max(1 - fid**2, 0)))


def _split_inputs(source):
    if source == "qsr_correlated":
        return _correlated_extension(1234)
    if source == "random8":
        return random_density(8, 8, 77), DensityOperator(np.diag([0.35, 0.65]).astype(complex))
    if source == "rank1_sigma":
        return random_density(8, 8, 78), DensityOperator(np.diag([1.0, 0.0]).astype(complex))
    # an extension supported on two of the four RB dimensions: rho^RB has rank 2.
    # sigma's eigenvalues are 0.27 and 0.73: with a smaller one the sandwich at
    # n = 3 has eigenvalues near 1e-11, whose square roots magnify eigvalsh's
    # 1e-17 absolute error past 1e-13 on any float path
    cut = np.kron(np.diag([1.0, 0.0, 1.0, 0.0]), np.eye(2))
    ext = cut @ random_density(8, 8, 79).mat @ cut
    sigma = DensityOperator(np.array([[0.45, 0.2 - 0.1j], [0.2 + 0.1j, 0.55]]))
    return DensityOperator(ext / np.trace(ext).real), sigma


SPLIT_SOURCES = ["qsr_correlated", "random8", "rank1_sigma", "rank2_rb"]


@pytest.mark.parametrize("source", SPLIT_SOURCES)
@pytest.mark.parametrize("n", range(1, 7))
def test_convex_split_matches_validated_reference(source, n):
    # the fidelity is read from the factors' eigendecompositions; the
    # reference builds tau and X at full dimension and validates both
    ext, sigma = _split_inputs(source)
    rep = convex_split_check(ext, (4, 2), sigma, n)
    assert abs(rep.actual_p - _split_reference(ext, sigma, n)) <= 1e-13


@pytest.mark.parametrize("source", SPLIT_SOURCES)
@pytest.mark.parametrize("n", range(1, 4))
def test_convex_split_matches_mpmath_reference(source, n):
    pytest.importorskip("mpmath")
    ext, sigma = _split_inputs(source)
    rep = convex_split_check(ext, (4, 2), sigma, n)
    assert abs(rep.actual_p - _split_reference_mp(ext, sigma, n)) <= 1e-13


@pytest.mark.parametrize("seed", [82, 83])
@pytest.mark.parametrize("n", range(1, 4))
def test_convex_split_of_a_pure_extension_matches_the_exact_rank_reference(seed, n):
    # G = y y^dag from rho_ext's support eigenpairs: the square roots of the
    # mixture's rounded kernel eigenvalues once put actual_p 1.1e-9 to 4.3e-9 off
    pytest.importorskip("mpmath")
    ext, sigma = random_density(8, 1, seed), DensityOperator(np.diag([0.35, 0.65]).astype(complex))
    rep = convex_split_check(ext, (4, 2), sigma, n)
    assert abs(rep.actual_p - _split_reference_mp(ext, sigma, n, on_support=True)) <= 1e-13


def _spin_block_t(b, slots, k_min):
    """T[a, c] = T_ac^j of the spin block at k_min, entry by entry from `_spin_blocks`' docstring."""
    b0, b1 = b
    k_max = slots - k_min
    ks = range(k_min, k_max + 1)
    t = np.zeros((2, 2, len(ks), len(ks)))
    for i, k in enumerate(ks):
        if k:
            t[0, 0, i, i] = k * b0 ** (k - 1) * b1 ** (slots - k)
        if slots - k:
            t[1, 1, i, i] = (slots - k) * b0**k * b1 ** (slots - k - 1)
        if k < k_max:
            t[0, 1, i + 1, i] = t[1, 0, i, i + 1] = math.sqrt((k_max - k) * (k - k_min + 1)) * b0**k * b1 ** (
                slots - k - 1
            )
    return t


@pytest.mark.parametrize("b", [(0.5, 0.5), (0.35, 0.65), (0.9, 0.1), (1e-3, 1.0 - 1e-3), (0.0, 1.0), (1.0 - 1e-9, 1e-9)])
@pytest.mark.parametrize("slots", range(1, 13))
def test_spin_block_factor_reproduces_t(b, slots):
    # T_ac^j = F_j[a] F_j[c]^T entry by entry; F_j has 2j columns, the rank of
    # T^j at positive weights, at k_min = 0 (every 2x2 pair has determinant
    # k_min (N + 1 - k_min) = 0) and 2 (2j + 1), full rank, otherwise
    blocks = list(_spin_blocks(np.array(b), slots))
    assert len(blocks) == slots // 2 + 1
    for k_min, (mult, dj, f) in enumerate(blocks):
        size = slots - 2 * k_min + 1
        assert mult == math.comb(slots, k_min) - (math.comb(slots, k_min - 1) if k_min else 0)
        assert f.shape == (2, size, 2 * size if k_min else size - 1)
        ks = np.arange(k_min, slots - k_min + 1)
        npt.assert_allclose(dj, b[0] ** ks * b[1] ** (slots - ks), rtol=1e-15, atol=0.0)
        t = _spin_block_t(b, slots, k_min)
        assert np.all(np.abs(np.einsum("aix,clx->acil", f, f) - t) <= 1e-14 * np.abs(t))
        if b[0] == b[1]:  # equal weights keep the rank test well conditioned
            rank = np.linalg.matrix_rank(t.transpose(0, 2, 1, 3).reshape(2 * size, -1))
            assert rank == f.shape[2]


def _spin_blocks_direct(b, slots):
    """(m_j, D_j, F_j) built block by block from N and the weights alone, with no table."""
    b0, b1 = b
    p0, p1 = b0 ** np.arange(slots + 1), b1 ** np.arange(slots + 1)
    weights, w = p0 * p1[::-1], p0[:-1] * p1[-2::-1]
    for k_min in range(slots // 2 + 1):
        k_max = slots - k_min
        size = k_max - k_min + 1
        mult = math.comb(slots, k_min) - (math.comb(slots, k_min - 1) if k_min else 0)
        pair = np.arange(size - 1)
        k = k_min + pair
        root_w, root_p = np.sqrt(w[k_min:k_max]), np.sqrt(k + 1.0)
        f = np.zeros((2, size, 2 * size if k_min else size - 1))
        f[0, pair + 1, pair] = root_w * root_p
        f[1, pair, pair] = root_w * np.sqrt((k_max - k) * (k - k_min + 1.0)) / root_p
        if k_min:
            f[1, pair, size - 1 + pair] = root_w * np.sqrt(k_min * (slots + 1.0 - k_min)) / root_p
            f[0, 0, -2] = math.sqrt(k_min * w[k_min - 1])
            f[1, -1, -1] = math.sqrt(k_min * w[k_max])
        yield mult, weights[k_min : k_max + 1], f


@pytest.mark.parametrize("b", [(0.5, 0.5), (0.35, 0.65), (1.0 - 1e-9, 1e-9), (0.0, 1.0)])
@pytest.mark.parametrize("slots", range(1, 13))
def test_spin_blocks_from_the_table_are_bitwise_the_direct_construction(b, slots):
    blocks, direct = list(_spin_blocks(np.array(b), slots)), list(_spin_blocks_direct(np.array(b), slots))
    assert len(blocks) == len(direct)
    for (mult, dj, f), (mult_d, dj_d, f_d) in zip(blocks, direct):
        assert mult == mult_d
        assert dj.shape == dj_d.shape and dj.tobytes() == dj_d.tobytes()
        assert f.shape == f_d.shape and f.tobytes() == f_d.tobytes()


def test_spin_table_is_cached_per_slot_count_and_read_only():
    table = _spin_table(5)
    assert _spin_table(5) is table and _spin_table(6) is not table
    for *_, pattern, _singletons in table:
        for arr in pattern:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]


def test_convex_split_makes_no_eigh_or_validation_at_full_dimension(monkeypatch, count_kernel_calls):
    n, total = 5, 4 * 2**5
    ext, sigma = _split_inputs("random8")
    dims = {"validated": []}
    kernel_calls = count_kernel_calls()
    init = HermitianOperator.__init__

    def validating(self, mat):
        dims["validated"].append(np.shape(mat)[-1])
        init(self, mat)

    monkeypatch.setattr(HermitianOperator, "__init__", validating)
    monkeypatch.setattr(np.linalg, "svd", None)  # every SVD goes through the linalg kernels
    convex_split_check(ext, (4, 2), sigma, n)
    assert kernel_calls("svdvals") and kernel_calls("svd") == []
    assert kernel_calls("eigh").count(total) == 0
    assert kernel_calls("eigvalsh").count(total) == 0
    assert dims["validated"].count(total) == 0
    # at sigma of rank 2 the fidelity is read from singular values of the spin
    # blocks' factors: rho^RB's eigh is the split's only eigendecomposition
    assert kernel_calls("eigh") == [4] and kernel_calls("eigvalsh") == []


def _mu_inputs(kind):
    """(rho_ext, sigma) for the mu checks: a random and a rank-2 extension, a product one, sigma of rank 1."""
    sigma = random_density(2, 2, 85)
    if kind == "random":
        return random_density(8, 8, 84), sigma
    if kind == "rank2_ext":
        return random_density(8, 2, 86), sigma
    if kind == "product":
        return DensityOperator(np.kron(random_density(4, 4, 87).mat, sigma.mat)), sigma
    return random_density(8, 8, 88), DensityOperator(np.diag([0.0, 1.0]).astype(complex))


@pytest.mark.parametrize("kind", ["random", "rank2_ext", "product", "rank1_sigma"])
def test_convex_split_mu_is_the_dense_collision_quantity(kind):
    # mu is read from the factor y of rho_ext as ||(Dy)^dag (Dy)||_F^2 - 1; the
    # reference builds rho_RB (x) sigma densely and evaluates Q_2 on its support
    ext, sigma = _mu_inputs(kind)
    q = q_alpha(ext, np.kron(_ptrace(ext.mat, [4, 2], [0]), sigma.mat), 2)
    for n in (1, 3):
        rep = convex_split_check(ext, (4, 2), sigma, n)
        assert abs(rep.mu - max(q - 1.0, 0.0)) <= 1e-13 * q
    if kind == "product":
        assert q - 1.0 <= 1e-13


@pytest.mark.parametrize(
    "ext, sigma, dims",
    [
        (random_density(8, 8, 77), DensityOperator(np.diag([0.35, 0.65]).astype(complex)), (4, 2)),
        (random_density(8, 1, 82), DensityOperator(np.diag([0.35, 0.65]).astype(complex)), (4, 2)),
        (random_density(8, 8, 78), DensityOperator(np.diag([1.0, 0.0]).astype(complex)), (4, 2)),
        (random_density(6, 6, 80), random_density(3, 3, 81), (2, 3)),
    ],
    ids=["spin_blocks", "pure_extension", "rank1_sigma", "qutrit_rank3"],
)
def test_convex_split_takes_every_svd_on_the_tall_side(ext, sigma, dims, count_kernel_calls):
    for n in range(1, 6 if dims == (4, 2) else 4):
        kernel_calls = count_kernel_calls()
        convex_split_check(ext, dims, sigma, n)
        shapes = kernel_calls("svdvals")
        assert shapes and all(m >= k for m, k in shapes), (n, shapes)


def _block_fidelity_error(ext, sigma, n):
    """sum over the spin blocks of (r_a (2j + 1))^2 eps_mach Tr sqrt(block), each Z_j built in the block's orientation."""
    a, u = np.linalg.eigh(_ptrace(ext.mat, [4, 2], [0]))
    b, w = np.linalg.eigh(sigma.mat)
    on_a, on_b, on = a > 8 * np.finfo(float).eps, b > 8 * np.finfo(float).eps, ext.eigenvalues > ext.cutoff
    h = np.kron(u[:, on_a] * np.sqrt(a[on_a]), w[:, on_b] * np.sqrt(b[on_b]))
    y = h.conj().T @ (ext.eigenvectors[:, on] * np.sqrt(ext.eigenvalues[on]))
    r_a = int(on_a.sum())
    err = 0.0
    for mult, dj, f in _spin_blocks(b[on_b] ** 2, n):
        z = np.einsum("par,aix->pirx", y.reshape(r_a, 2, -1), f).reshape(r_a * dj.size, -1)
        err += z.shape[0] ** 2 * np.finfo(float).eps * mult * np.sum(np.linalg.svd(z, compute_uv=False)) / math.sqrt(n)
    return err


@pytest.mark.parametrize("seed, rank", [(77, 8), (82, 1)])
@pytest.mark.parametrize("n", range(1, 6))
def test_convex_split_fidelity_error_counts_the_block_dimension(seed, rank, n):
    # m in m^2 eps_mach Tr sqrt(block) stays the block's dimension r_a (2j + 1)
    # whichever side of the factor the SVD reads; a pure extension's blocks have
    # fewer factor columns than rows, so there the dimension is the larger side
    ext, sigma = random_density(8, rank, seed), DensityOperator(np.diag([0.35, 0.65]).astype(complex))
    rep = convex_split_check(ext, (4, 2), sigma, n)
    assert rep.fidelity_error == pytest.approx(_block_fidelity_error(ext, sigma, n), rel=1e-12)
    ext3, sigma3 = random_density(6, 6, 80), random_density(3, 3, 81)
    rep3 = convex_split_check(ext3, (2, 3), sigma3, min(n, 3))
    fid = math.sqrt(1.0 - rep3.actual_p**2)
    assert rep3.fidelity_error == pytest.approx((2 * 3 ** min(n, 3)) ** 2 * np.finfo(float).eps * fid, rel=1e-12)


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("n", range(1, 5))
def test_convex_split_qutrit_slot_matches_validated_reference(rank, n):
    # d_B' = 3: sigma of rank 3 keeps the full-dimension mixture, rank 2 takes the spin blocks
    ext, sigma = random_density(6, 6, 80), random_density(3, rank, 81)
    rep = convex_split_check(ext, (2, 3), sigma, n)
    assert abs(rep.actual_p - _split_reference(ext, sigma, n, (2, 3))) <= 1e-13


@pytest.mark.parametrize("n", range(1, 6))
def test_convex_split_product_extension_reads_fidelity_one(n):
    # tau = X on rho_ext = rho_RB (x) sigma, so F = 1; actual_p = sqrt(1 - F^2) <= 1.5e-7
    # means |1 - F| <= 1.1e-14 (a plain eigvalsh of the graded mixture put actual_p at 5.5e-5).
    # ok reads F at the edge of its rounding bound; compared as computed, 103 of
    # these 250 reports were not ok.
    for seed in range(50):
        rb, sigma = random_density(4, 4, seed), random_density(2, 2, seed + 1000)
        ext = DensityOperator(np.kron(rb.mat, sigma.mat))
        rep = convex_split_check(ext, (4, 2), sigma, n)
        assert rep.actual_p <= 1.5e-7
        assert rep.ok, rep


def test_convex_split_ok_refuses_a_distance_its_fidelity_resolves():
    sigma = DensityOperator(np.diag([0.6, 0.4]).astype(complex))
    rep = convex_split_check(random_density(8, 8, 30), (4, 2), sigma, 3)
    assert 0.0 < rep.fidelity_error <= 1e-12
    for eps_n in (0.0, rep.epsilon_n):
        assert not ConvexSplitReport(3, rep.mu, eps_n, eps_n + 1e-6, rep.fidelity_error).ok
        assert ConvexSplitReport(3, rep.mu, eps_n, eps_n + 1e-9, rep.fidelity_error).ok


def test_convex_split_cap(monkeypatch):
    monkeypatch.setenv("QDIV_DIM_CAP", "32")
    ext = random_density(8, 8, 40)
    sigma = random_density(2, 2, 41)
    with pytest.raises(ValidationError):
        convex_split_check(ext, (4, 2), sigma, 5)


def test_huge_slot_counts_are_refused_without_building_the_dimension():
    ext, sigma = random_density(8, 8, 40), random_density(2, 2, 41)
    with pytest.raises(ValidationError, match="exceeds cap"):
        convex_split_check(ext, (4, 2), sigma, 10**12)
    with pytest.raises(ValidationError, match="exceeds cap"):
        pairwise_tensor_family(random_density(4, 4, 0), (2, 2), sigma, 10**12)


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


def test_eqsr_checks_the_cap_on_the_marginal_it_builds(monkeypatch, count_kernel_calls):
    # a full-rank 8 x 8 source has its R A' B marginal at 8 * 4 = 32, the largest thing
    # the bound builds: a cap of 31 refuses it before any decomposition at 32, a cap of 32 runs it
    rho = random_density(8, 8, 53)
    kernel_calls = count_kernel_calls()
    monkeypatch.setenv("QDIV_DIM_CAP", "31")
    with pytest.raises(ValidationError, match="exceeds cap 31"):
        eqsr_cost_bound(rho, (2, 2, 2), 0.5, 0.005, 0.005)
    assert all(d < 32 for d in kernel_calls()) and kernel_calls("svd", "svdvals") == []
    monkeypatch.setenv("QDIV_DIM_CAP", "32")
    assert math.isfinite(eqsr_cost_bound(rho, (2, 2, 2), 0.5, 0.005, 0.005).q_bound)


@pytest.mark.parametrize("rank", [1, 3, 8])
@pytest.mark.parametrize("seed", range(2))
def test_eqsr_marginal_is_that_of_the_purification(monkeypatch, rank, seed):
    rho = random_density(8, rank, seed)
    handed, cond_mutual_info = [], qdiv_protocols.cond_mutual_info
    monkeypatch.setattr(qdiv_protocols, "cond_mutual_info", lambda *a: handed.append(a) or cond_mutual_info(*a))
    eqsr_cost_bound(rho, (2, 2, 2), 0.5, 0.005, 0.005)
    ((marginal, (d_r, d_ap, d_b), _, _),) = handed
    psi = purify(rho)
    assert (d_r, d_ap, d_b) == (psi.dim_ref, 2, 2) and psi.dim_ref == rank
    reference = _ptrace(psi.state.mat, [d_r, 2, 2, 2], [0, 2, 3])
    assert np.max(np.abs(marginal.mat - reference)) <= 1e-15
    # handed on with its spectrum from one SVD of its factor: unitary eigenvectors, rank <= d_A
    vecs, evals = marginal.eigenvectors, marginal.eigenvalues
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(marginal.dim))) <= 1e-14
    assert np.all(np.diff(evals) >= 0.0) and np.count_nonzero(evals) <= 2
    assert np.max(np.abs((vecs * evals) @ vecs.conj().T - reference)) <= 1e-15


def test_eqsr_decomposes_nothing_at_the_purification_dimension(monkeypatch, count_kernel_calls):
    # the purification of a full-rank 8 x 8 source lives at 64 and its R A' B marginal at 32; the
    # marginal's spectrum comes from an SVD of its 32 x 2 factor, and the smoothed term works on
    # supp rho_RB (x) A', so nothing is decomposed at 64, 32 or 16
    rho = random_density(8, 8, 11)
    kernel_calls = count_kernel_calls()
    monkeypatch.setattr(np.linalg, "svd", None)  # every SVD goes through the linalg kernels
    eqsr_cost_bound(rho, (2, 2, 2), 0.5, 0.005, 0.005)
    assert max(kernel_calls()) <= 4
    # the marginal's factor, and rho_RB's factor regrouped for the smoothed term's rho_RB
    assert kernel_calls("svd") == [(16, 4), (32, 2)] and kernel_calls("svdvals") == []
