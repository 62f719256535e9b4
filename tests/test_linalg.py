import math

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
from qdiv.linalg import RECON_TOL
from qdiv.states import basis_state, maximally_entangled, maximally_mixed, random_density

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
