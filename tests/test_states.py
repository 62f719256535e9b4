import math

import numpy as np
import numpy.testing as npt
import pytest

from qdiv import (
    DensityOperator,
    HermitianOperator,
    PositiveOperator,
    ValidationError,
    cq_state,
    d_alpha,
    load_channel,
    load_state,
    pairwise_tensor_family,
    partial_trace,
    permute_systems,
    purify,
    random_density,
    save_channel,
    save_state,
)
from qdiv.states import basis_state, classical_channel, maximally_entangled, maximally_mixed, dim_cap


def test_random_density_pure_has_unit_purity():
    rho = random_density(2, 1, 11)
    assert abs(np.trace(rho.mat @ rho.mat).real - 1.0) < 1e-10


def test_random_density_full_rank_trace():
    rho = random_density(4, 4, 12)
    assert abs(rho.trace - 1.0) < 1e-12
    assert rho.rank == 4


def test_random_density_deterministic():
    a = random_density(3, 2, 99)
    b = random_density(3, 2, 99)
    npt.assert_array_equal(a.mat, b.mat)


def test_random_density_rank_range():
    with pytest.raises(ValidationError):
        random_density(2, 3, 0)
    with pytest.raises(ValidationError):
        random_density(2, 0, 0)


def test_cq_state_single_block():
    sigma = random_density(3, 3, 1)
    cq = cq_state([1.0], [sigma])
    npt.assert_allclose(cq.matrix(), sigma.mat)


def test_cq_state_basis_blocks():
    cq = cq_state([0.5, 0.5], [basis_state(0, 2), basis_state(1, 2)])
    npt.assert_allclose(cq.matrix(), np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-15)


def test_cq_state_marginals():
    outs = [random_density(2, 2, s) for s in (3, 4, 5)]
    p = [0.2, 0.5, 0.3]
    cq = cq_state(p, outs)
    expected = sum(pi * o.mat for pi, o in zip(p, outs))
    npt.assert_allclose(cq.marginal_b(), expected, atol=1e-14)
    marg = partial_trace(cq.density(), [3, 2], [0]).mat
    npt.assert_allclose(marg, np.diag(p), atol=1e-14)


def test_cq_state_validation():
    with pytest.raises(ValidationError):
        cq_state([0.7, 0.7], [basis_state(0, 2), basis_state(1, 2)])
    with pytest.raises(ValidationError):
        cq_state([0.5, 0.5], [basis_state(0, 2)])


@pytest.mark.parametrize("probs", [[np.nan, np.nan], [np.inf, 0.5], [0.5, np.nan]])
def test_cq_state_rejects_non_finite_probs(probs):
    with pytest.raises(ValidationError, match="non-finite"):
        cq_state(probs, [basis_state(0, 2), basis_state(1, 2)])


def test_purify_pure_state():
    psi, d_ref, d_sys = purify(basis_state(0, 2))
    assert d_ref == 1
    npt.assert_allclose(psi.mat, basis_state(0, 2).mat, atol=1e-14)


def test_purify_maximally_mixed():
    psi, d_ref, d_sys = purify(maximally_mixed(2))
    assert (d_ref, d_sys) == (2, 2)
    marg = partial_trace(psi, [2, 2], [1]).mat
    npt.assert_allclose(marg, np.eye(2) / 2, atol=1e-12)


def test_purify_roundtrip():
    rho = DensityOperator(np.diag([0.75, 0.25]).astype(complex))
    psi, d_ref, _ = purify(rho)
    marg = partial_trace(psi, [d_ref, 2], [1]).mat
    npt.assert_allclose(marg, rho.mat, atol=1e-12)
    assert psi.rank == 1


def test_pairwise_family_n1():
    rho = random_density(4, 4, 7)
    fam = pairwise_tensor_family(rho, (2, 2), random_density(2, 2, 8), 1)
    npt.assert_allclose(fam.members[0].mat, rho.mat)


def test_pairwise_family_degenerate_product():
    rho_r = random_density(2, 2, 9)
    sigma = random_density(2, 2, 10)
    rho = DensityOperator(np.kron(rho_r.mat, sigma.mat))
    fam = pairwise_tensor_family(rho, (2, 2), sigma, 2)
    npt.assert_allclose(fam.members[0].mat, fam.members[1].mat, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3])
def test_pairwise_family_marginals(n):
    rho = random_density(4, 4, 20 + n)
    rho_r = partial_trace(rho, [2, 2], [0]).mat
    sigma = random_density(2, 2, 30 + n)
    fam = pairwise_tensor_family(rho, (2, 2), sigma, n)
    assert fam.verify_marginals() <= 1e-12
    expected = np.kron(rho_r, sigma.mat)
    npt.assert_allclose(fam.marginal(0, n - 1), expected, atol=1e-12)


def _permuted_products(rho, sigma, n):
    """tau_x written out: kron(rho, sigma, ..., sigma) with slots 1 and 1+x swapped."""
    base = rho
    for _ in range(n - 1):
        base = np.kron(base, sigma)
    out = []
    for x in range(n):
        order = list(range(n + 1))
        order[1], order[1 + x] = order[1 + x], order[1]
        out.append(permute_systems(base, [2] + [2] * n, order))
    return out


def test_pairwise_family_members_are_exact_products():
    n = 3
    rho = random_density(4, 4, 50)
    sigma = random_density(2, 2, 51)
    fam = pairwise_tensor_family(rho, (2, 2), sigma, n)
    for member, expected in zip(fam.members, _permuted_products(rho.mat, sigma.mat, n), strict=True):
        assert isinstance(member, HermitianOperator)
        npt.assert_array_equal(member.mat, expected)


def _clamped_density(dim, seed):
    """A rank-deficient state pushed 1e-12 below zero on its kernel, so validation clamps it."""
    base = random_density(dim, dim - 1, seed)
    kernel = base.eigenvectors[:, :1]
    rho = DensityOperator(base.mat - 1e-12 * (kernel @ kernel.conj().T))
    assert rho.eigenvalues[0] == 0.0
    return rho


FAMILY_INPUTS = {
    "complex": lambda: (random_density(4, 4, 60), random_density(2, 2, 61)),
    "rank_deficient": lambda: (random_density(4, 2, 62), random_density(2, 1, 63)),
    "psd_clamped": lambda: (_clamped_density(4, 64), _clamped_density(2, 65)),
}


@pytest.mark.parametrize("kind", sorted(FAMILY_INPUTS))
def test_pairwise_family_members_are_bitwise_hermitian(kind, monkeypatch):
    # products of exactly Hermitian factors are exactly Hermitian, so the
    # members skip the constructor's check and symmetrizing copy
    n = 4
    rho, sigma = FAMILY_INPUTS[kind]()
    checked = []
    init = HermitianOperator.__init__

    def recording(self, mat):
        checked.append(np.shape(mat)[-1])
        init(self, mat)

    monkeypatch.setattr(HermitianOperator, "__init__", recording)
    fam = pairwise_tensor_family(rho, (2, 2), sigma, n)
    assert 2 * 2**n not in checked
    for member in fam.members:
        assert isinstance(member, HermitianOperator) and member.dim == 2 * 2**n
        assert np.array_equal(member.mat, member.mat.conj().T)
        assert not member.mat.flags.writeable


def test_pairwise_family_skips_full_dimension_eigh(count_kernel_calls):
    n, total = 3, 2 * 2**3
    rho = random_density(4, 4, 52)
    sigma = random_density(2, 2, 53)
    kernel_calls = count_kernel_calls()
    fam = pairwise_tensor_family(rho, (2, 2), sigma, n)
    assert len(fam.members) == n
    assert kernel_calls() and total not in kernel_calls()


def test_pairwise_family_rank_deficient_inputs():
    # basis-state inputs: every member is a rank-1 projector on 16 dimensions
    fam = pairwise_tensor_family(basis_state(1, 4), (2, 2), basis_state(0, 2), 3)
    assert fam.verify_marginals() == 0.0
    # a full-rank sigma, so that D_1/2 between members is finite
    sigma = DensityOperator(np.diag([0.7, 0.3]).astype(complex))
    fam = pairwise_tensor_family(maximally_entangled(2), (2, 2), sigma, 3)
    assert fam.verify_marginals() <= 1e-15
    m0, m1 = fam.members[0], fam.members[1]
    assert not isinstance(m0, PositiveOperator)
    got = d_alpha(m0, m1, 0.5)
    want = d_alpha(DensityOperator(m0.mat), DensityOperator(m1.mat), 0.5)
    assert got == want and math.isfinite(got.value)
    # d_alpha validates the member at its entry: a non-state is refused there
    with pytest.raises(ValidationError):
        d_alpha(HermitianOperator(2.0 * m0.mat), m1, 0.5)


def test_pairwise_family_cap(monkeypatch):
    monkeypatch.setenv("QDIV_DIM_CAP", "16")
    rho = random_density(4, 4, 40)
    with pytest.raises(ValidationError):
        pairwise_tensor_family(rho, (2, 2), random_density(2, 2, 41), 4)


def test_state_file_roundtrip(tmp_path):
    rho = maximally_mixed(2)
    path = tmp_path / "u2.json"
    save_state(rho, path, label="u2")
    rec = load_state(path)
    assert np.max(np.abs(rec.state.mat - rho.mat)) <= 1e-15
    assert rec.label == "u2"


def test_state_file_roundtrip_random(tmp_path):
    rho = random_density(4, 4, 55)
    path = tmp_path / "r.json"
    save_state(rho, path, dims=[2, 2])
    rec = load_state(path)
    assert rec.dims == (2, 2)
    assert np.max(np.abs(rec.state.mat - rho.mat)) <= 1e-15


def test_state_file_rejects_bad_trace(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": [2], "re": [[0.5, 0.0], [0.0, 0.4]], "im": [[0,0],[0,0]]}')
    with pytest.raises(ValidationError):
        load_state(path)


def test_state_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"re": [[1.0]]}')
    with pytest.raises(ValidationError):
        load_state(path)
    path.write_text("not json")
    with pytest.raises(ValidationError):
        load_state(path)


def test_state_file_dims_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": [3], "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0,0],[0,0]]}')
    with pytest.raises(ValidationError):
        load_state(path)


def test_channel_file_roundtrip(tmp_path):
    chan = classical_channel([[0.9, 0.1], [0.2, 0.8]])
    path = tmp_path / "chan.json"
    save_channel(chan, path)
    loaded = load_channel(path)
    assert loaded.input_size == 2
    npt.assert_allclose(loaded.stochastic_matrix(), [[0.9, 0.1], [0.2, 0.8]], atol=1e-15)


def test_dim_cap_env(monkeypatch):
    monkeypatch.setenv("QDIV_DIM_CAP", "64")
    assert dim_cap() == 64
    monkeypatch.setenv("QDIV_DIM_CAP", "zero")
    with pytest.raises(ValidationError):
        dim_cap()
