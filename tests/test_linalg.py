import importlib
import math
import warnings
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

from qdiv import (
    DensityOperator,
    HermitianOperator,
    PositiveOperator,
    ValidationError,
    fidelity_and_purified,
    mat_fn,
    op_meet,
    partial_trace,
    permute_systems,
    positive_part_trace,
    q_alpha,
    spectral_fn,
    support_projector,
    tensor,
    trace_distance,
)
from qdiv import _roots, divergences, info, linalg, protocols, states, suites
from qdiv.divergences import _log_cross, _xlogx_sum, d_hypothesis
from qdiv.info import smoothed_mutual_info_2
from qdiv.linalg import (
    KERNEL_CALLS,
    RECON_TOL,
    _ascending_support,
    _eigh,
    _eigvalsh,
    _kron,
    _positive_sum,
    _q2_rotated,
    _sandwiched_q,
    _svd,
    _svdvals,
    support_cutoff,
)
from qdiv.protocols import eqsr_cost_bound, pbd_simulate
from qdiv.states import (
    basis_state,
    maximally_entangled,
    maximally_mixed,
    pairwise_tensor_family,
    random_density,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_eig_identity():
    pos = PositiveOperator(np.eye(2))
    npt.assert_allclose(pos.eigenvalues, [1.0, 1.0])


def test_eig_diag_ascending():
    pos = PositiveOperator(np.diag([3.0, 1.0]).astype(complex))
    npt.assert_allclose(pos.eigenvalues, [1.0, 3.0])


def test_eig_pauli_x():
    # char poly of X + I: (lambda - 1)^2 - 1 = 0, so lambda in {0, 2}
    pos = PositiveOperator(PAULI_X + np.eye(2))
    npt.assert_allclose(pos.eigenvalues, [0.0, 2.0], atol=1e-14)


@pytest.mark.parametrize("seed", range(8))
def test_eig_reconstruction_roundtrip(seed):
    rho = random_density(4, 4, seed)
    pos = PositiveOperator(rho.mat)
    rebuilt = spectral_fn(pos.eigenvalues, pos.eigenvectors, 1.0, pos.cutoff)
    assert np.max(np.abs(rebuilt - rho.mat)) <= RECON_TOL
    # eigenvector matrix unitary
    v = pos.eigenvectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= RECON_TOL


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        PositiveOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_fn_support_only_on_rank_deficient():
    # rank-2 state on C^3: negative powers invert on the support only
    v = np.linalg.qr(random_density(3, 3, 11).mat)[0]
    pos = PositiveOperator((v * np.array([0.0, 0.25, 0.75])) @ v.conj().T)
    inv = spectral_fn(pos.eigenvalues, pos.eigenvectors, -1.0, pos.cutoff)
    npt.assert_allclose(inv, (v * np.array([0.0, 4.0, 4.0 / 3.0])) @ v.conj().T, atol=1e-12)
    proj = spectral_fn(pos.eigenvalues, pos.eigenvectors, 0.0, pos.cutoff)
    npt.assert_allclose(proj, support_projector(pos).projector.mat, atol=1e-12)
    npt.assert_allclose(
        spectral_fn(pos.eigenvalues, None, -0.5, pos.cutoff), [0.0, 2.0, 0.75**-0.5], atol=1e-12
    )


def test_spectral_fn_clips_negative_for_positive_power():
    evals = np.array([-0.5, 0.0, 4.0])
    npt.assert_array_equal(spectral_fn(evals, None, 0.5, 1e-12), [0.0, 0.0, 2.0])
    npt.assert_allclose(spectral_fn(evals, np.eye(3), 2.0, 1e-12), np.diag([0.0, 0.0, 16.0]))


def test_spectral_fn_positive_part_of_pauli_x():
    evals, vecs = np.linalg.eigh(PAULI_X)
    part = spectral_fn(evals, vecs, 1.0, 0.0)
    npt.assert_allclose(part, 0.5 * (np.eye(2) + PAULI_X), atol=1e-14)
    assert abs(np.trace(part).real - positive_part_trace(PAULI_X)) < 1e-14


def test_mat_fn_sqrt_identity():
    out = mat_fn(np.eye(2), math.sqrt)
    npt.assert_allclose(out.mat, np.eye(2))


def test_mat_fn_pseudo_inverse_on_support():
    out = mat_fn(np.diag([4.0, 0.0]).astype(complex), lambda x: x**-0.5, support_only=True)
    npt.assert_allclose(out.mat, np.diag([0.5, 0.0]), atol=1e-14)


def test_mat_fn_quarter_root():
    out = mat_fn(np.diag([0.5, 0.5]).astype(complex), lambda x: x**-0.25)
    npt.assert_allclose(out.mat, 2.0**0.25 * np.eye(2), atol=1e-14)


def test_mat_fn_rejects_negative():
    with pytest.raises(ValidationError):
        mat_fn(np.diag([1.0, -0.5]), math.sqrt)


def test_tensor_cases():
    npt.assert_allclose(tensor(np.eye(2), np.eye(2)).mat, np.eye(4))
    out = tensor(basis_state(0, 2), basis_state(1, 2))
    npt.assert_allclose(out.mat, np.diag([0.0, 1.0, 0.0, 0.0]), atol=1e-14)
    npt.assert_allclose(tensor(maximally_mixed(2), maximally_mixed(2)).mat, np.eye(4) / 4)


def test_partial_trace_product():
    rho = random_density(2, 2, 0)
    sigma = random_density(3, 3, 1)
    prod = np.kron(rho.mat, sigma.mat)
    npt.assert_allclose(partial_trace(prod, [2, 3], [0]).mat, rho.mat, atol=1e-12)
    npt.assert_allclose(partial_trace(prod, [2, 3], [1]).mat, sigma.mat, atol=1e-12)


def test_partial_trace_bell():
    bell = maximally_entangled(2)
    npt.assert_allclose(partial_trace(bell, [2, 2], [0]).mat, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_all_and_errors():
    rho = random_density(4, 4, 2)
    out = partial_trace(rho, [2, 2], [])
    assert out.mat.shape == (1, 1)
    npt.assert_allclose(out.mat[0, 0], 1.0)
    with pytest.raises(ValidationError):
        partial_trace(rho, [3, 2], [0])


@pytest.mark.parametrize("seed", range(5))
def test_partial_trace_preserves_trace_and_psd(seed):
    rho = random_density(8, 5, seed)
    out = partial_trace(rho, [2, 4], [1])
    assert abs(np.trace(out.mat).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(out.mat).min() > -1e-9


def test_permute_systems_roundtrip():
    rho = random_density(12, 12, 3)
    perm = permute_systems(rho, [2, 3, 2], [2, 0, 1])
    back = permute_systems(perm, [2, 2, 3], [1, 2, 0])
    npt.assert_allclose(back, rho.mat, atol=1e-14)


def test_trace_distance_cases():
    rho = random_density(3, 3, 4)
    assert trace_distance(rho, rho) == 0.0
    assert abs(trace_distance(basis_state(0, 2), basis_state(1, 2)) - 1.0) < 1e-14
    assert abs(trace_distance(basis_state(0, 2), maximally_mixed(2)) - 0.5) < 1e-14


@pytest.mark.parametrize("seed", range(10))
def test_trace_distance_triangle(seed):
    a = random_density(3, 3, seed)
    b = random_density(3, 3, seed + 100)
    c = random_density(3, 3, seed + 200)
    assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10


def test_fidelity_cases():
    rho = random_density(3, 3, 5)
    f, p = fidelity_and_purified(rho, rho)
    assert abs(f - 1.0) < 1e-10 and p < 1e-5
    f, p = fidelity_and_purified(basis_state(0, 2), basis_state(1, 2))
    assert f < 1e-10 and abs(p - 1.0) < 1e-10
    f, p = fidelity_and_purified(basis_state(0, 2), maximally_mixed(2))
    assert abs(f - 1.0 / math.sqrt(2)) < 1e-12
    assert abs(p - 1.0 / math.sqrt(2)) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_fuchs_van_de_graaf(seed):
    a = random_density(4, 4, seed)
    b = random_density(4, 4, seed + 50)
    _, p = fidelity_and_purified(a, b)
    assert p <= math.sqrt(2.0 * trace_distance(a, b)) + 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_fidelity_is_sandwiched_q_one_half(seed):
    # one evaluator: F = Q_1/2(rho || sigma) clamped to [0, 1], bit for bit;
    # every other seed draws sigma of rank 2 in dimension 4
    rho = random_density(4, 4, seed)
    sigma = random_density(4, 4 if seed % 2 else 2, seed + 300)
    fid, _ = fidelity_and_purified(rho, sigma)
    assert fid == min(max(q_alpha(rho, sigma, 0.5), 0.0), 1.0)


@pytest.mark.parametrize(
    "dim, ranks, seeds",
    [(4, (1, 2), range(6)), (8, (2, 3, 4), range(6)), (16, (4, 8), range(2))],
    ids=["d4", "d8", "d16"],
)
def test_fidelity_of_a_rank_deficient_sigma_matches_mpmath(dim, ranks, seeds):
    # sigma of rank dim/4..dim/2: the kernel eigenvalues of about +-1e-17 that
    # eigh returns for sigma must not enter the sandwich; summing their square
    # roots puts F up to 1.1e-8 off the 40-digit value on these inputs
    pytest.importorskip("mpmath")
    from oracles import mp_fidelity

    for rank in ranks:
        for seed in seeds:
            rho = random_density(dim, dim, seed)
            sigma = random_density(dim, rank, seed + 100)
            fid, _ = fidelity_and_purified(rho, sigma)
            assert abs(fid - mp_fidelity(rho.mat, sigma.mat)) <= 1e-13


@pytest.mark.parametrize("instance", [1, 2])
def test_mpmath_fidelity_is_symmetric_on_rank_deficient_arguments(instance):
    # the lemma2 states of `qdiv verify --seed 7`: rho of rank 2 in d = 3 and 4 and X = rho + sigma; a rounded
    # kernel eigenvalue (~1e-17) of either argument enters under a square root and moves F by ~1e-9
    pytest.importorskip("mpmath")
    from oracles import mp_fidelity
    from qdiv.states import rng_from_seed
    from qdiv.suites import _random_positive, derived_seed

    seed = derived_seed("lemma2", 7, instance)
    rng = rng_from_seed(seed)
    dim = 2 + instance % 3
    rank_r, rank_s = 1 + int(rng.integers(dim)), 1 + int(rng.integers(dim))
    rho = _random_positive(dim, rank_r, seed, 0.2 + 2.0 * rng.random()).mat
    x_mat = rho + _random_positive(dim, rank_s, seed + 1, 0.2 + 2.0 * rng.random()).mat
    assert (rank_r, dim) == (2, 2 + instance)
    forward, backward = mp_fidelity(rho, x_mat), mp_fidelity(x_mat, rho)
    assert abs(forward - backward) <= 1e-14 * forward


def _eigvalsh_q2(r_mat, evals, vecs):
    """Q_2(rho || X) as the sum of squared eigenvalues of K rho K, K = X^(-1/4) on the support."""
    k = spectral_fn(evals, vecs, -0.25, support_cutoff(evals, evals.size))
    inner = k @ r_mat @ k
    return float(np.sum(np.clip(np.linalg.eigvalsh(0.5 * (inner + inner.conj().T)), 0.0, None) ** 2))


def _unitary(dim, seed):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return u


def _spectral(u, evals):
    mat = (u * np.asarray(evals, dtype=float)) @ u.conj().T
    return 0.5 * (mat + mat.conj().T)


def _conditioned_pair(cond, seed):
    return random_density(6, 6, seed + 10).mat, _spectral(_unitary(6, seed), np.geomspace(1.0, 1.0 / cond, 6))


def _rank_deficient_pair(seed):
    x = _spectral(_unitary(6, seed), [1.0, 0.5, 0.1, 1e-3, 0.0, 0.0])
    return random_density(6, 6, seed + 10).mat, x


def _near_orthogonal_pair(delta, t, seed):
    # rho lies within delta of the kernel of sigma; X = rho + t sigma, the
    # argument of every Renyi-2 threshold margin
    u = _unitary(4, seed)
    v = u[:, 2] + delta * u[:, 0]
    v = v / np.linalg.norm(v)
    rho = 0.7 * np.outer(v, v.conj()) + 0.3 * np.outer(u[:, 3], u[:, 3].conj())
    rho = 0.5 * (rho + rho.conj().T)
    return rho, rho + t * _spectral(u, [0.8, 0.2, 0.0, 0.0])


def _weak_overlap_pair(delta, seed):
    # the same rho against a full-rank sigma with eigenvalues 1e-9 on rho's (near) support
    rho, _ = _near_orthogonal_pair(delta, 0.0, seed)
    return rho, _spectral(_unitary(4, seed), [1.0, 0.6, 1e-9, 1e-9])


def _random_pair(dim, rank, seed):
    # the dimensions of the benchmark's induced solves; X of rank < dim has a rounded kernel of either sign
    return random_density(dim, dim, seed + 20).mat, random_density(dim, rank, seed + 30).mat


def _at_cut_pair(above):
    # X = diag(c, 0.3, 0.7), whose eigh is exact: c is the spectrum's support cut 8 eps_mach 0.7, which is
    # kernel, or the next float above it, which is support
    cut = support_cutoff(np.array([0.3, 0.7]), 3)
    return random_density(3, 3, 40).mat, np.diag([np.nextafter(cut, 1.0) if above else cut, 0.3, 0.7]).astype(complex)


Q2_FORM_CASES = (
    [
        pytest.param(_conditioned_pair, (c, s), id=f"cond={c:g},seed={s}")
        for c in (1e3, 1e5, 1e7, 1e9, 1e11)
        for s in range(3)
    ]
    + [pytest.param(_rank_deficient_pair, (s,), id=f"rank4of6,seed={s}") for s in range(3)]
    + [
        pytest.param(_near_orthogonal_pair, (d, t, s), id=f"orth={d:g},t={t:g},seed={s}")
        for d in (1e-3, 1e-6, 1e-9)
        for t in (1e-6, 1.0, 1e6)
        for s in range(2)
    ]
    + [
        pytest.param(_weak_overlap_pair, (d, s), id=f"overlap={d:g},seed={s}")
        for d in (1e-3, 1e-6, 1e-9)
        for s in range(2)
    ]
    + [
        pytest.param(_random_pair, (d, r, s), id=f"d={d},rank={r},seed={s}")
        for d in (2, 4, 8, 16)
        for r in (d, d // 2)
        for s in range(2)
    ]
    + [pytest.param(_at_cut_pair, (above,), id=f"at_cut,above={above}") for above in (False, True)]
)


@pytest.mark.parametrize("make, args", Q2_FORM_CASES)
def test_q2_eigenbasis_form_matches_eigvalsh_form(make, args):
    # both forms read the same (evals, vecs), so the float eigh of X, which
    # dominates the error against an exact oracle at high condition, cancels
    rho, x = make(*args)
    evals, vecs = np.linalg.eigh(x)
    expected = _eigvalsh_q2(rho, evals, vecs)
    assert abs(_sandwiched_q(rho, evals, vecs, 2.0) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("make, args", Q2_FORM_CASES)
def test_support_read_from_the_spectrum_ends_is_bitwise_the_masked_form(make, args):
    # every site that reads an ascending spectrum's support from its ends (`_ascending_support`) gives the
    # floats, compared with ==, of the support_cutoff and spectral_fn masks, np.outer and the masked
    # sqrt it replaced
    rho, x = make(*args)
    evals, vecs = _eigh(x)
    cut = support_cutoff(evals, evals.size)
    on = evals > cut
    assert _ascending_support(evals) == (cut, int(np.count_nonzero(~on)))
    pos = PositiveOperator(x)
    assert pos.cutoff == support_cutoff(pos.eigenvalues, pos.dim)
    assert pos.rank == int(np.count_nonzero(pos.eigenvalues > support_cutoff(pos.eigenvalues, pos.dim)))
    r_eig = vecs.conj().T @ rho @ vecs
    k_masked = spectral_fn(evals, None, -0.5, cut)
    q, k_vals = _q2_rotated(r_eig, evals)
    assert np.array_equal(k_vals, k_masked)
    assert q == float(k_masked @ (r_eig.real**2 + r_eig.imag**2) @ k_masked)
    s = np.sqrt(np.where(k_masked > 0.0, evals, np.inf))
    masked_grad = -1.0 / (np.outer(s, s) * (s[:, None] + s[None, :])) * (2.0 * ((r_eig * k_masked) @ r_eig))
    assert np.array_equal(info._q2_gradient_eigenbasis(evals, r_eig, k_vals, bool(on.all())), masked_grad)
    assert np.array_equal(info._q2_gradient_eigenbasis(evals, r_eig, k_vals), masked_grad)
    weights = np.einsum("ji,jk,ki->i", vecs.conj(), rho, vecs).real.copy()  # contiguous, as both callers pass it
    assert _log_cross(weights, evals) == float(np.dot(weights[on], np.log2(evals[on])))
    assert _xlogx_sum(evals) == float(sum(v * math.log2(v) for v in evals if v > cut))
    for alpha in (0.5, 1.5):
        h = vecs[:, on] * evals[on] ** ((1.0 - alpha) / (2.0 * alpha))
        r_vals, r_vecs = _eigh(rho)
        k = int(np.count_nonzero(r_vals <= support_cutoff(r_vals, r_vals.size)))
        if alpha <= 0.5 and k:
            g = np.sqrt(r_vals[k:])[:, None] * (r_vecs[:, k:].conj().T @ h)
            inner = g @ g.conj().T if g.shape[0] < g.shape[1] else g.conj().T @ g
        else:
            inner = h.conj().T @ rho @ h
        masked_q = float(np.sum(np.clip(_eigvalsh(0.5 * (inner + inner.conj().T)), 0.0, None) ** alpha))
        assert _sandwiched_q(rho, evals, vecs, alpha) == masked_q


@pytest.mark.parametrize("above", (False, True))
def test_an_eigenvalue_at_the_cut_is_kernel_and_the_next_float_support(above):
    _, x = _at_cut_pair(above)
    evals, _ = _eigh(x)
    assert np.array_equal(evals, np.diag(x).real)
    cut, start = _ascending_support(evals)
    assert (evals[0] > cut, start) == (above, 0 if above else 1)


@pytest.mark.parametrize("make, args", Q2_FORM_CASES)
def test_positive_sum_is_the_constructor_without_its_checks(make, args):
    rho, x = make(*args)
    for mat in (x, rho + 1e3 * x):
        got, ref = _positive_sum(mat), PositiveOperator(mat)
        assert type(got) is PositiveOperator
        for a, b in ((got.mat, ref.mat), (got.eigenvalues, ref.eigenvalues), (got.eigenvectors, ref.eigenvectors)):
            assert a.tobytes() == b.tobytes() and not a.flags.writeable


def test_positive_sum_clips_and_rebuilds_as_the_constructor():
    # rank 2 in d = 4: the rounded kernel of rho + t sigma comes out negative at some t, and both clip it
    rho, sigma = random_density(4, 1, 23).mat, random_density(4, 1, 24).mat
    clipped = 0
    for lam in np.linspace(-8.0, 8.0, 33):
        mat = rho + 2.0**lam * sigma
        clipped += _eigh(0.5 * (mat + mat.conj().T))[0][0] < 0.0
        got, ref = _positive_sum(mat), PositiveOperator(mat)
        assert got.mat.tobytes() == ref.mat.tobytes() and got.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
    assert clipped


def _local_rotation(diag, seed):
    """diag on A B (d_A = d_B = 2) in the product basis of two seeded unitaries."""
    u = np.kron(_unitary(2, seed), _unitary(2, seed + 1))
    return DensityOperator(_spectral(u, diag))


ASCENDING_PATHS = {
    "eqsr_full_rank": lambda: eqsr_cost_bound(random_density(8, 8, 11), (2, 2, 2), 0.5, 0.005, 0.005),
    "eqsr_rank3": lambda: eqsr_cost_bound(random_density(8, 3, 12), (2, 2, 2), 0.5, 0.005, 0.005),
    "smoothed_truncated_winner": lambda: smoothed_mutual_info_2(
        _local_rotation([0.985, 0.003, 0.002, 0.01], 3), (2, 2), 0.05
    ),
    "hypothesis_at_jump": lambda: d_hypothesis(random_density(2, 2, 3), random_density(2, 2, 3), 0.3),
    "hypothesis_searched": lambda: d_hypothesis(random_density(2, 1, 5), random_density(2, 2, 4), 0.3),
    "pbd": lambda: pbd_simulate(
        random_density(4, 4, 0),
        DensityOperator(np.kron(partial_trace(random_density(4, 4, 0), [2, 2], [0]).mat, random_density(2, 2, 1).mat)),
        (2, 2),
        0.414234375,
    ),
}


@pytest.mark.parametrize("path", ASCENDING_PATHS)
def test_every_vouched_or_cut_spectrum_ascends(monkeypatch, path):
    # the support is read from the ends of a spectrum (`_ascending_support`), so every spectrum handed to it,
    # or to the constructors that cache a spectrum without an eigh, must ascend
    seen = Counter()

    def ascending(name, fn, at):  # fn, checking that its argument at position ``at`` ascends
        def checked(*args):
            assert np.all(np.diff(args[at]) >= 0.0), f"{name} got {args[at]}"
            seen[name] += 1
            return fn(*args)

        return checked

    checks = {"_ascending_support": 0, "_spectral_positive": 0, "_vouched": 1}  # where the spectrum is passed
    originals = {name: getattr(linalg, name) for name in checks}
    for module in (linalg, divergences, importlib.import_module("qdiv.induced"), info, protocols, states):
        for name, at in checks.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, ascending(name, originals[name], at))
    search = _roots.bisect_decreasing
    monkeypatch.setattr(_roots, "bisect_decreasing", lambda *args: seen.update(["search"]) or search(*args))
    out = ASCENDING_PATHS[path]()
    assert seen["_ascending_support"]
    if path == "smoothed_truncated_winner":
        assert out.candidate.startswith("truncated@")
    if path.startswith("hypothesis"):  # equal states stop at the pencil's jump mu = 1; a rank-1 rho is searched
        assert out[1].alpha_err >= 0.7 - 1e-8 and seen["search"] == (path == "hypothesis_searched")
    if path.startswith("eqsr") or path == "pbd":
        assert seen["_vouched"]


def test_q2_eigenbasis_form_on_ill_conditioned_pbd_family():
    # the plain seed-0 family at n = 6: its sum eta has condition number 1.9e11
    family = pairwise_tensor_family(random_density(4, 4, 0), (2, 2), random_density(2, 2, 1), 6)
    evals, vecs = np.linalg.eigh(sum(m.mat for m in family.members))
    assert evals[-1] / evals[0] > 1e11
    for m in family.members:
        expected = _eigvalsh_q2(m.mat, evals, vecs)
        assert abs(_sandwiched_q(m.mat, evals, vecs, 2.0) - expected) <= 1e-12 * expected


def test_positive_part_trace():
    assert positive_part_trace(np.diag([1.0, -1.0])) == 1.0
    rho = random_density(3, 3, 6)
    assert abs(positive_part_trace(rho) - 1.0) < 1e-12
    assert abs(positive_part_trace(np.diag([0.7, -0.2, 0.5])) - 1.2) < 1e-14


def test_op_meet_cases():
    rho = random_density(3, 3, 7)
    npt.assert_allclose(op_meet(rho, rho).mat, rho.mat, atol=1e-12)
    out = op_meet(np.diag([3.0, 1.0]).astype(complex), np.diag([1.0, 3.0]).astype(complex))
    npt.assert_allclose(out.mat, np.eye(2), atol=1e-14)


@pytest.mark.parametrize("seed", range(10))
def test_op_meet_trace_bound(seed):
    a = PositiveOperator(1.4 * random_density(2, 2, seed).mat)
    b = PositiveOperator(0.8 * random_density(2, 2, seed + 10).mat)
    meet_tr = float(np.trace(op_meet(a, b).mat).real)
    assert meet_tr <= min(a.trace, b.trace) + 1e-10


def test_support_projector():
    sp = support_projector(np.diag([0.5, 0.0, 0.3]).astype(complex))
    assert sp.rank == 2
    proj = sp.projector.mat
    npt.assert_allclose(proj @ proj, proj, atol=RECON_TOL)


def test_positive_operator_clamps_roundoff():
    mat = np.diag([1.0, -1e-12]).astype(complex)
    pos = PositiveOperator(mat)
    assert pos.eigenvalues.min() == 0.0


def test_positive_operator_rejects_negative():
    with pytest.raises(ValidationError):
        PositiveOperator(np.diag([1.0, -1e-3]))


def test_density_operator_trace_check():
    with pytest.raises(ValidationError):
        DensityOperator(np.diag([0.5, 0.4]))


def test_hermitian_validation():
    with pytest.raises(ValidationError):
        HermitianOperator(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValidationError):
        HermitianOperator(np.zeros((2, 3)))


@pytest.mark.parametrize("cls", [HermitianOperator, PositiveOperator, DensityOperator])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_operators_reject_non_finite_entries(cls, bad):
    # every comparison with NaN is false, so without a finiteness check a
    # NaN diagonal passes the Hermiticity, positivity and trace checks
    mat = np.diag([bad, 0.5]).astype(complex)
    with pytest.raises(ValidationError, match="non-finite"):
        cls(mat)
    with pytest.raises(ValidationError, match="non-finite"):
        cls(np.array([[0.5, complex(0.0, bad)], [complex(0.0, -bad), 0.5]]))


# ---------------------------------------------------------------------------
# the decomposition kernel
# ---------------------------------------------------------------------------


def _kernel_inputs(dtype, d):
    """Full-rank, rank-deficient and zero Hermitian matrices of one dtype and dimension, and a transposed view."""
    rng = np.random.default_rng(100 + d)
    g = rng.standard_normal((d, d))
    if dtype == np.complex128:
        g = g + 1j * rng.standard_normal((d, d))
    full = g @ g.conj().T
    low = g[:, : max(1, d // 2)]
    yield "full", full
    yield "rank_deficient", low @ low.conj().T
    yield "zero", np.zeros((d, d), dtype=dtype)
    yield "transposed", full.T  # an F-ordered view, Hermitian as full is
    nan = full.copy()
    nan[-1, 0] = math.nan  # in the lower triangle, which LAPACK reads
    yield "nan", nan


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 16, 64])
def test_kernel_is_bitwise_numpy(dtype, d):
    for name, mat in _kernel_inputs(dtype, d):
        for kernel, reference in ((_eigh, np.linalg.eigh), (_eigvalsh, np.linalg.eigvalsh)):
            try:
                ref = reference(mat)
            except np.linalg.LinAlgError:
                # LAPACK fails on a NaN at some dimensions (d >= 3 here), and the kernel raises numpy's
                # error, also where the suite turns the gufunc's RuntimeWarning into an error
                assert name == "nan"
                with pytest.raises(np.linalg.LinAlgError):
                    kernel(mat)
                continue
            out = kernel(mat)  # no warning either: the suite turns a RuntimeWarning into an error
            for got, want in zip(out, ref) if kernel is _eigh else [(out, ref)]:
                assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True), name


def test_kernel_counts_each_call_by_kind_and_dimension():
    mat = random_density(3, 3, 4).mat
    before = Counter(KERNEL_CALLS)
    _eigh(mat)
    assert Counter(KERNEL_CALLS) - before == Counter({("eigh", 3): 1})
    _eigvalsh(mat)
    _eigvalsh(mat[:2, :2])
    assert Counter(KERNEL_CALLS) - before == Counter({("eigh", 3): 1, ("eigvalsh", 3): 1, ("eigvalsh", 2): 1})


@pytest.mark.parametrize("kernel", [_eigh, _eigvalsh])
def test_kernel_failure_raises_linalg_error_in_every_error_state(kernel):
    mat = np.eye(3, dtype=np.complex128)
    mat[2, 0] = math.inf  # LAPACK does not converge
    with pytest.raises(np.linalg.LinAlgError):  # the suite's RuntimeWarning-as-error filter
        kernel(mat)
    with np.errstate(invalid="raise"), pytest.raises(np.linalg.LinAlgError):
        kernel(mat)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for state in ("ignore", "warn"):
            with np.errstate(invalid=state), pytest.raises(np.linalg.LinAlgError):
                kernel(mat)
    # unlike np.linalg, the kernel leaves the invalid flag to the caller's state: numpy's default warns first
    with np.errstate(invalid="warn"), pytest.warns(RuntimeWarning), pytest.raises(np.linalg.LinAlgError):
        kernel(mat)


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
@pytest.mark.parametrize("shape", [(8, 8), (4, 16), (16, 4), (32, 2), (2, 32), (28, 80), (1, 3)])
def test_svd_kernels_are_bitwise_numpy_and_counted(dtype, shape):
    # the shapes of qdiv's factors: the qsr-bound marginal (32 x 2, 16 x 4), the convex split's (up to 28 x 80)
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    mat = rng.standard_normal(shape)
    if dtype == np.complex128:
        mat = mat + 1j * rng.standard_normal(shape)
    low = mat[:, :1] @ mat[:1, :]  # rank 1
    for name, m in (("full", mat), ("rank1", low), ("zero", np.zeros(shape, dtype=dtype)), ("f_ordered", np.asfortranarray(mat))):
        before = Counter(KERNEL_CALLS)
        for full in (True, False):
            got, want = _svd(m, full_matrices=full), np.linalg.svd(m, full_matrices=full)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), (name, full)
        got, want = _svdvals(m), np.linalg.svd(m, compute_uv=False)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert Counter(KERNEL_CALLS) - before == Counter({("svd", shape): 2, ("svdvals", shape): 1})


def test_kernels_without_the_private_module_call_numpy_and_count(monkeypatch):
    # a numpy without numpy.linalg._umath_linalg: every kernel takes the public np.linalg call
    monkeypatch.setattr(linalg, "_umath_linalg", None)
    rng = np.random.default_rng(31)
    herm = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    herm = herm + herm.conj().T
    rect = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    before = Counter(KERNEL_CALLS)
    for m in (herm, herm.real.copy()):
        for got, want in zip(_eigh(m), np.linalg.eigh(m)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        got, want = _eigvalsh(m), np.linalg.eigvalsh(m)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for full in (True, False):
        for got, want in zip(_svd(rect, full_matrices=full), np.linalg.svd(rect, full_matrices=full)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    got, want = _svdvals(rect), np.linalg.svd(rect, compute_uv=False)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert Counter(KERNEL_CALLS) - before == Counter(
        {("eigh", 4): 2, ("eigvalsh", 4): 2, ("svd", (3, 5)): 2, ("svdvals", (3, 5)): 1}
    )


def test_verify_rows_are_the_same_through_the_public_numpy_calls(monkeypatch):
    # every suite row, bit for bit, and every kernel count, with and without the private LAPACK gufuncs
    before = Counter(KERNEL_CALLS)
    rows = [repr(row) for row in suites.run_suite("all", 1, 7)]
    counted = Counter(KERNEL_CALLS) - before
    monkeypatch.setattr(linalg, "_umath_linalg", None)
    before = Counter(KERNEL_CALLS)
    assert [repr(row) for row in suites.run_suite("all", 1, 7)] == rows
    assert Counter(KERNEL_CALLS) - before == counted


def test_svd_kernels_take_numpy_1_gufunc_names_by_orientation(monkeypatch):
    # numpy 1.x has no orientation-free svd gufuncs: svd_m* serves m < n and svd_n* the rest
    real, called = linalg._umath_linalg, []

    def gufunc(name):
        def call(mat, signature):
            called.append(name)
            target = getattr(real, name, None) or getattr(real, name.replace("_m", "").replace("_n", ""))
            return target(mat, signature=signature)

        return call

    names = ["eigh_lo", "eigvalsh_lo"] + [f"svd_{o}{s}" for o in "mn" for s in ("", "_s", "_f")]
    monkeypatch.setattr(linalg, "_umath_linalg", type("Numpy1", (), {n: staticmethod(gufunc(n)) for n in names}))
    rng = np.random.default_rng(5)
    for shape, orient in (((2, 3), "m"), ((3, 2), "n"), ((3, 3), "n")):
        mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        called.clear()
        for got, want in zip(_svd(mat), np.linalg.svd(mat)):
            assert np.array_equal(got, want)
        for got, want in zip(_svd(mat, full_matrices=False), np.linalg.svd(mat, full_matrices=False)):
            assert np.array_equal(got, want)
        assert np.array_equal(_svdvals(mat), np.linalg.svd(mat, compute_uv=False))
        assert called == [f"svd_{orient}_f", f"svd_{orient}_s", f"svd_{orient}"]


@pytest.mark.parametrize("kernel", [_svd, _svdvals])
def test_svd_kernel_failure_raises_linalg_error_in_every_error_state(kernel):
    mat = np.ones((3, 4), dtype=np.complex128)
    mat[2, 0] = math.nan  # LAPACK does not converge
    with pytest.raises(np.linalg.LinAlgError):  # the suite's RuntimeWarning-as-error filter
        kernel(mat)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for state in ("ignore", "warn", "raise"):
            with np.errstate(invalid=state), pytest.raises(np.linalg.LinAlgError):
                kernel(mat)


def test_kron_is_bitwise_numpy():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    for x, y in [(a, b), (b, a), (np.eye(3), b), (a.real, b), (a[0], b[:, 0]), (a[0].real, b[1])]:
        out = _kron(x, y)
        assert out.dtype == np.kron(x, y).dtype and np.array_equal(out, np.kron(x, y))
