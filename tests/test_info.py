import functools
import math

import numpy as np
import pytest

from oracles import grid_i2_classical, grid_induced_mi_classical

from qdiv import (
    DensityOperator,
    ValidationError,
    channel_mutual_info,
    cond_mutual_info,
    induced_mutual_info_2,
    mutual_info,
    partial_trace,
    smoothed_mutual_info_2,
    trace_distance,
)
from qdiv import _roots, info, linalg
from qdiv.divergences import q_alpha
from qdiv.induced import induced_renyi
from qdiv.info import InducedMutualInfo, minimize_density
from qdiv.linalg import _ptrace, permute_systems
from qdiv.states import (
    apply_kraus,
    channel,
    classical_channel,
    maximally_entangled,
    purify,
    random_density,
    random_isometry_channel,
)


def product_state(seed_a, seed_b, da=2, db=2):
    a = random_density(da, da, seed_a)
    b = random_density(db, db, seed_b)
    return DensityOperator(np.kron(a.mat, b.mat))


def classical_joint(pmf, da, db):
    return DensityOperator(np.diag(np.asarray(pmf, dtype=float)).astype(complex)), (da, db)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def q2_and_gradient(rho, x):
    """Q_2(rho || X) and its gradient in X, from one eigendecomposition of X."""
    return info._q2_and_gradient(rho, *np.linalg.eigh(x))


@pytest.mark.parametrize("seed", range(4))
def test_q2_gradient_finite_differences(seed):
    rho = random_density(4, 4, seed).mat
    x = (1.0 + 0.3 * seed) * random_density(4, 4, seed + 40).mat
    _, grad = q2_and_gradient(rho, x)
    direction = random_density(4, 4, seed + 80).mat - np.eye(4) / 4
    t = 1e-6
    fd = (q2_and_gradient(rho, x + t * direction)[0] - q2_and_gradient(rho, x - t * direction)[0]) / (2 * t)
    analytic = float(np.trace(grad @ direction).real)
    assert abs(fd - analytic) < 1e-6 * max(1.0, abs(fd))


def _hermitian(mat):
    return 0.5 * (mat + mat.conj().T)  # exactly Hermitian in floating point


def _near_degenerate_x(gap, seed):
    """4x4 X = U diag(0.2, 0.5, 0.5 (1 + gap), 1.3) U^dag with a seeded unitary U."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return _hermitian((u * np.array([0.2, 0.5, 0.5 * (1.0 + gap), 1.3])) @ u.conj().T)


def _rank_deficient_x(seed):
    """X = A (+) 0 with a full-rank 3x3 A: the kernel is exactly e_4."""
    x = np.zeros((4, 4), dtype=np.complex128)
    x[:3, :3] = 1.7 * random_density(3, 3, seed + 60).mat
    return x


@pytest.mark.parametrize(
    "gap, seed",
    [pytest.param(gap, seed, id=f"gap={gap:g},seed={seed}") for gap in (1e-4, 1e-6, 3e-8) for seed in range(6)]
    + [pytest.param(None, seed, id=f"rank3,seed={seed}") for seed in (0, 1)],
)
def test_q2_gradient_matches_mpmath_oracle(gap, seed):
    # gap None: X = A (+) 0 of rank 3, with the direction kept on its support
    pytest.importorskip("mpmath")
    from oracles import mp_q2, mp_q2_directional_derivative

    rho = random_density(4, 4, seed).mat
    direction = random_density(4, 4, seed + 80).mat - np.eye(4) / 4
    if gap is None:
        x = _rank_deficient_x(seed)
        direction[3, :] = direction[:, 3] = 0.0  # stay on the support of X
    else:
        x = _near_degenerate_x(gap, seed)
    q2, grad = q2_and_gradient(rho, x)
    exact = mp_q2(rho, x)
    assert abs(q2 - exact) <= 1e-13 * exact
    oracle = mp_q2_directional_derivative(rho, x, direction)
    analytic = float(np.trace(grad @ direction).real)
    assert abs(analytic - oracle) <= 1e-12 * abs(oracle)


@pytest.mark.parametrize("dim", (2, 4, 8, 16))
def test_mirror_step_adds_the_identity_in_place_bitwise(dim):
    # the trace-centring and the iterate floor add a multiple of I on the diagonal in place; compared with
    # ==, they give the floats of the np.eye forms they replaced
    rng = np.random.default_rng(dim)

    def hermitian():
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return 0.5 * (a + a.conj().T)

    l_mat, grad = hermitian(), hermitian()
    l_new, sigma = info._mirror_step(l_mat, grad, 0.3)
    expected = l_mat - 0.3 * grad
    expected = expected - (np.trace(expected).real / dim) * np.eye(dim)
    assert np.array_equal(l_new, expected)
    evals, vecs = np.linalg.eigh(expected)
    mat = (vecs * np.exp(evals - evals[-1])) @ vecs.conj().T
    mat = mat / np.trace(mat).real
    floor = info._ITERATE_FLOOR
    assert np.array_equal(sigma, (1.0 - floor) * mat + floor * np.eye(dim) / dim)


def test_minimize_density_quadratic():
    # minimize Tr[sigma^2] over density operators: optimum is maximally mixed; the residual is the
    # Frank-Wolfe gap at the returned iterate, and Tr[sigma^2] is convex, so value minus it is below 1/3
    def vg(sigma):
        return float(np.trace(sigma @ sigma).real), 2.0 * sigma

    for sigma0 in (None, np.diag([0.7, 0.2, 0.1])):
        sigma, value, iters, res = minimize_density(vg, 3, sigma0=sigma0)
        assert abs(value - 1.0 / 3.0) < 1e-8
        assert np.max(np.abs(sigma - np.eye(3) / 3)) < 1e-6
        assert res == info._frank_wolfe_gap(2.0 * sigma, sigma) <= 1e-7
        assert value - res <= 1.0 / 3.0 <= value


def test_minimize_density_reports_a_stalled_line_search():
    # a value that is pure noise: once the current value is a low draw, 40
    # halvings in a row all rise, and the stall must not read as converged
    rng = np.random.default_rng(0)

    def vg(sigma):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        return float(rng.random()), g + g.conj().T

    _, _, iters, res = minimize_density(vg, 3)
    assert iters < 500
    assert res > 1e-7


def test_minimize_density_grows_its_step_on_a_linear_objective():
    # Tr[G sigma] falls at every step along -G; with step 0.5 at every
    # iteration the descent took 35 steps to reach the residual tolerance
    g = np.diag([0.0, 1.0, 2.0]).astype(complex)

    def vg(sigma):
        return float(np.trace(g @ sigma).real), g

    _, value, iters, res = minimize_density(vg, 3)
    assert res <= 1e-7
    assert iters <= 15
    assert value < 1e-7


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------


def test_mutual_info_product_zero():
    rho = product_state(1, 2)
    for alpha in (1.0, 2.0):
        mi = mutual_info(rho, (2, 2), alpha)
        assert abs(mi.value) < 1e-6


def test_mutual_info_bell_alpha1():
    mi = mutual_info(maximally_entangled(2), (2, 2), 1.0)
    assert abs(mi.value - 2.0) < 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_mutual_info_alpha_ordering(seed):
    rho = random_density(4, 4, seed)
    v1 = mutual_info(rho, (2, 2), 1.0).value
    v2 = mutual_info(rho, (2, 2), 2.0).value
    assert v2 >= v1 - 1e-7
    assert v1 >= -1e-7


def test_mutual_info_objective_reproduction():
    from qdiv.divergences import q_alpha
    from qdiv import PositiveOperator
    from qdiv.linalg import _ptrace

    rho = random_density(4, 4, 17)
    mi = mutual_info(rho, (2, 2), 2.0)
    rho_a = _ptrace(rho.mat, [2, 2], [0])
    val = math.log2(q_alpha(rho, PositiveOperator(np.kron(rho_a, mi.optimal_sigma.mat)), 2.0))
    assert abs(val - mi.value) <= 1e-7


def test_mutual_info_matches_diag_grid():
    # classical correlated pmf on 2x2; grid over diagonal sigma at 1e-3
    pmf = [0.4, 0.1, 0.15, 0.35]
    rho, dims = classical_joint(pmf, 2, 2)
    mi = mutual_info(rho, dims, 2.0)
    oracle = grid_i2_classical(pmf, 2, 2)
    assert abs(mi.value - oracle) < 1e-3


def test_mutual_info_rejects_bad_alpha():
    for alpha in (1.7, math.inf):
        with pytest.raises(ValidationError, match=r"supports alpha in \{1, 2\}"):
            mutual_info(product_state(3, 4), (2, 2), alpha)
    with pytest.raises(ValidationError):
        mutual_info(product_state(3, 4), (3, 2), 2.0)


def _eqsr_smoothing_input(seed, dims=(2, 2, 2)):
    """The (RB, A') state whose I_2 `eqsr_cost_bound` smooths, for random_density(8, 8, seed) on A A' B.

    The global state on R A A' B is pure, so rho_RB has rank at most d_A d_A': 4 of 16 at
    dims (2, 2, 2), and all 8 of 8 at dims (4, 2, 1).
    """
    d_a, d_ap, d_b = dims
    psi, d_r, _ = purify(random_density(8, 8, seed))
    marginal = _ptrace(psi.mat, [d_r, d_a, d_ap, d_b], [0, 2, 3])
    return DensityOperator(permute_systems(marginal, [d_r, d_ap, d_b], [0, 2, 1])), (d_r * d_b, d_ap)


def _objective(rho, dims):
    """rho's `_product_q2` objective, on the marginal support read from its support eigenpairs."""
    support = info._marginal_support(rho.eigenvalues, rho.eigenvectors, *dims)
    return info._product_q2(support, *dims)


def _product_basis_cases():
    for seed in range(3):
        yield pytest.param(random_density(4, 4, seed), (2, 2), id=f"4x4,seed={seed}")
        yield pytest.param(random_density(8, 8, seed), (4, 2), id=f"8x8,(4,2),seed={seed}")
        yield pytest.param(random_density(8, 8, seed), (2, 4), id=f"8x8,(2,4),seed={seed}")
        yield pytest.param(*_eqsr_smoothing_input(seed), id=f"eqsr_marginal,seed={seed}")


@pytest.mark.parametrize("rho, dims", _product_basis_cases())
def test_product_basis_q2_matches_the_kronecker_form(rho, dims):
    da, db = dims
    rho_a = _ptrace(rho.mat, [da, db], [0])
    q2_and_contracted_gradient = _objective(rho, dims)
    rho_b = _ptrace(rho.mat, [da, db], [1])
    for sigma in (rho_b, random_density(db, db, 5).mat, random_density(db, db, 6).mat):
        q, m = q2_and_contracted_gradient(sigma)
        q_ref, g = q2_and_gradient(rho.mat, np.kron(rho_a, sigma))
        m_ref = np.einsum("abcd,ca->bd", g.reshape(da, db, da, db), rho_a)  # Tr_A[(rho_A (x) I) G]
        assert abs(q - q_ref) <= 1e-12 * q_ref
        assert np.max(np.abs(m - m_ref)) <= 1e-12 * np.max(np.abs(m_ref))


def _richardson_derivative(f, h):
    """f'(0) from central differences at h, h/2 and h/4, extrapolated twice (error O(h^6))."""
    d = [(f(h / 2**i) - f(-h / 2**i)) / (2.0 * h / 2**i) for i in range(3)]
    r = [(4.0 * d[i + 1] - d[i]) / 3.0 for i in range(2)]
    return (16.0 * r[1] - r[0]) / 15.0


@pytest.mark.parametrize(
    "rho, dims",
    [
        pytest.param(*_eqsr_smoothing_input(0), id="rank_deficient_rho_A,seed=0"),
        pytest.param(*_eqsr_smoothing_input(1), id="rank_deficient_rho_A,seed=1"),
        pytest.param(*_eqsr_smoothing_input(13, (4, 2, 1)), id="full_support_rho_A,seed=13"),
    ],
)
def test_restricted_objective_matches_q_alpha_and_finite_differences(rho, dims):
    # the objective lives on supp rho_A (x) B and adds ker rho_A in closed form; each candidate
    # c is checked against Q_2(c || c_A (x) sigma) at the full dimension, and its contracted
    # gradient M (dQ_2 = Tr[M dsigma]) against a central difference of its own Q_2
    da, db = dims
    rank = np.linalg.matrix_rank(_ptrace(rho.mat, [da, db], [0]), hermitian=True, tol=1e-12)
    assert rank == (4 if da == 16 else da)  # ker rho_A is empty at dims (4, 2, 1)
    assert info._marginal_support(rho.eigenvalues, rho.eigenvectors, da, db)[0].size == rank
    kinds = set()
    for name, spectrum, _, objective in info._smoothing_candidates(rho, dims, 0.5)[1]:
        kinds.add(name.split("@")[0])
        cand = info._candidate_state(rho, name, spectrum)
        cand_a = _ptrace(cand.mat, [da, db], [0])
        for seed in (5, 6):
            sigma = random_density(db, db, seed).mat
            q, m = objective(sigma)
            q_ref = q_alpha(cand, np.kron(cand_a, sigma), 2)
            assert abs(q - q_ref) <= 1e-12 * q_ref
            direction = random_density(db, db, seed + 10).mat - np.eye(db) / db
            fd = _richardson_derivative(lambda t: objective(sigma + t * direction)[0], 1e-2)
            analytic = float(np.trace(m @ direction).real)
            assert abs(fd - analytic) <= 1e-12 * np.linalg.norm(m) * np.linalg.norm(direction)
    assert kinds == {"rho", "depolarized", "truncated"}


def _kernel_source(db, seed):
    """A random state on C^2 (x) C^db embedded in C^3 (x) C^db: rho_A has rank 2 of 3, so its kernel block is not empty."""
    inner = random_density(2 * db, 2 * db, seed).mat.reshape(2, db, 2, db)
    mat = np.zeros((3, db, 3, db), dtype=np.complex128)
    mat[:2, :, :2, :] = inner
    return DensityOperator(mat.reshape(3 * db, 3 * db)), (3, db)


def _degenerate_product(da, db, seed):
    """I/d_A (x) rho_B: its truncated candidates drop degenerate pairs, so their B marginal can have a kernel."""
    return DensityOperator(np.kron(np.eye(da) / da, random_density(db, db, seed).mat)), (da, db)


def _gram_cases():
    for db in (2, 3, 4):  # at db = 3 the candidate truncated at 0.5 keeps one eigenvector: its c_B has rank 2
        yield pytest.param(random_density(2 * db, 2 * db, db), (2, db), int(db == 3), id=f"full,db={db}")
        yield pytest.param(*_kernel_source(db, db + 10), 0, id=f"kernel,db={db}")
    yield pytest.param(*_eqsr_smoothing_input(0), 0, id="eqsr_marginal,db=2")
    yield pytest.param(*_degenerate_product(2, 4, 900), 5, id="truncated_on_supp_c_B,db=4")


@pytest.mark.parametrize("rho, dims, restricted", _gram_cases())
def test_gram_matrix_gives_q2_as_a_quadratic_form_in_sigma_to_the_minus_half(rho, dims, restricted):
    # Q_2(c || c_A (x) sigma) = vec(K)^dag M vec(K), K = sigma^(-1/2), for every kind of candidate; with k < d_A the
    # depolarized candidates' kernel block adds a multiple of the identity to M.  Where a truncated candidate's
    # marginal c_B has a kernel, M is the form on supp c_B = range(V), and K there is (V^dag sigma V)^(-1/2)
    da, db = dims
    candidates = info._smoothing_candidates(rho, dims, 0.5)[1]
    assert {name.split("@")[0] for name, *_ in candidates} == {"rho", "depolarized", "truncated"}
    assert (info._marginal_support(rho.eigenvalues, rho.eigenvectors, da, db)[0].size < da) == (da != 2)
    supports = []
    for name, _, _, objective in candidates:
        m, v = objective.gram()
        assert np.array_equal(m, m.conj().T)
        if v is not None:
            assert name.startswith("truncated@") and np.allclose(v.conj().T @ v, np.eye(v.shape[1]), atol=1e-14)
            supports.append(v.shape[1])
        n = db if v is None else v.shape[1]
        for seed in (5, 6, 7):
            sub = random_density(n, n, seed).mat
            evals, vecs = np.linalg.eigh(sub)
            k = ((vecs * evals**-0.5) @ vecs.conj().T).reshape(-1)
            q = objective(sub if v is None else v @ sub @ v.conj().T)[0]
            assert abs(np.vdot(k, m @ k).real - q) <= 1e-12 * q
    assert len(supports) == restricted and all(0 < n < db for n in supports)


def test_mutual_info_objective_decomposes_only_sigma(monkeypatch, count_kernel_calls):
    rho, dims = _eqsr_smoothing_input(0)
    assert dims == (16, 2)
    inside, eigh_dims, kron_calls = [False], [], []
    md = info.minimize_density

    def recording_kron(kron):
        def recorded(*args, **kwargs):
            if inside[0]:
                kron_calls.append(1)
            return kron(*args, **kwargs)

        return recorded

    def flagging_md(value_and_grad, *args, **kwargs):
        def flagged(sigma):
            inside[0], kernel_calls = True, count_kernel_calls()
            try:
                return value_and_grad(sigma)
            finally:
                inside[0] = False
                eigh_dims.extend(kernel_calls("eigh"))

        return md(flagged, *args, **kwargs)

    for module in (linalg, info):  # every Kronecker product in qdiv goes through linalg._kron
        monkeypatch.setattr(module, "_kron", recording_kron(module._kron))
    monkeypatch.setattr(info, "minimize_density", flagging_md)
    out = mutual_info(rho, dims, 2.0)
    assert out.converged
    assert eigh_dims and max(eigh_dims) == 2  # one eigh of sigma per call, none of dimension 32
    assert not kron_calls


# ---------------------------------------------------------------------------
# induced mutual information
# ---------------------------------------------------------------------------


def test_induced_mi_product():
    rho = product_state(5, 6)
    eps = 0.3
    out = induced_mutual_info_2(rho, (2, 2), eps)
    assert abs(out.value - math.log2(eps / (1.0 - eps))) < 1e-7


def test_induced_mi_matches_diag_grid():
    pmf = [0.45, 0.05, 0.05, 0.45]  # nearly perfectly correlated bits
    rho, dims = classical_joint(pmf, 2, 2)
    eps = 0.3
    out = induced_mutual_info_2(rho, dims, eps)
    oracle = grid_induced_mi_classical(pmf, 2, 2, eps)
    assert out.value <= oracle + 1e-6  # optimizer at least as good as the grid
    assert abs(out.value - oracle) < 1e-3


def _seeded_marginal():
    return DensityOperator(partial_trace(random_density(8, 8, 6), [2, 2, 2], [1, 2]).mat)


def test_induced_mi_reports_whether_descent_converged(monkeypatch):
    assert induced_mutual_info_2(product_state(5, 6), (2, 2), 0.3).converged
    # a descent cut at a 1-step cap reports it; at eps = 0.9 the model's Newton trial is skipped and the
    # descent takes 5 iterations (at 0.005 the trial converges in 1)
    monkeypatch.setattr(info, "minimize_density", functools.partial(minimize_density, max_iter=1))
    out = induced_mutual_info_2(_seeded_marginal(), (2, 2), 0.9)
    assert out.iterations == 1
    assert out.gradient_residual > 1e-7
    assert out.converged is False


def test_induced_mi_converges_well_before_its_cap():
    # with step 0.5 at every iteration this input stopped at the 500-step
    # cap, at value -7.635639951541963 and residual 7.3e-5
    out = induced_mutual_info_2(_seeded_marginal(), (2, 2), 0.005)
    assert out.converged
    assert out.iterations <= 200
    assert out.value <= -7.635639951541963


def test_induced_mi_solves_start_at_the_tangent_prediction(monkeypatch):
    # each solve after the first starts at lambda*_k + Tr[G_k (sigma - sigma_k)], below the new root since
    # lambda* is convex in sigma, and walks from a first step of that move; the result is the solve made at
    # the returned iterate, so there are as many solves as objective calls (the parent solved once more)
    solves, calls, returned = [], [], []
    search, descend = _roots.bisect_decreasing, info.minimize_density

    def recording_search(f, start, floor, ceiling, first_step=1.0):
        found = search(f, start, floor, ceiling, first_step)
        solves.append((start, first_step, found[0]))
        return found

    def recording_descent(value_and_grad, *args, **kwargs):
        def recorded(sigma):
            value, grad = value_and_grad(sigma)
            calls.append((sigma, value, grad))
            return value, grad

        out = descend(recorded, *args, **kwargs)
        returned.append(out[0])
        return out

    monkeypatch.setattr(_roots, "bisect_decreasing", recording_search)
    monkeypatch.setattr(info, "minimize_density", recording_descent)
    rho = _seeded_marginal()
    out = induced_mutual_info_2(rho, (2, 2), 0.005)
    assert len(solves) == len(calls) >= 2
    # the first solve starts at the collision model's root, with a tenth of its move from log2(eps / (1 - eps))
    _, lam0 = info._collision_start(rho, _ptrace(rho.mat, [2, 2], [1]), 2, 2, 0.005)
    assert solves[0][:2] == (lam0, 0.1 * abs(lam0 - math.log2(0.005 / 0.995)))
    assert abs(solves[0][2] - lam0) < 1e-5
    for (start, first_step, root), (sigma_k, lam_k, g_k), (sigma, lam, _) in zip(solves[1:], calls, calls[1:]):
        move = float(np.vdot(sigma - sigma_k, g_k).real)
        assert start == lam_k + move
        assert first_step == min(1.0, max(abs(move), 1e-9))
        assert start <= root == lam
    assert out.value == next(lam for sigma, lam, _ in calls if sigma is returned[0])


@pytest.mark.parametrize("seed", range(3))
def test_induced_mi_certified_lower_bounds_every_reference_state(seed):
    rho = random_density(4, 4, seed)
    eps = 0.1
    out = induced_mutual_info_2(rho, (2, 2), eps)
    assert out.certified_lower <= out.value
    assert out.value - out.certified_lower < 1e-4
    rho_b = partial_trace(rho, [2, 2], [1]).mat
    for s in range(20):
        sigma = random_density(2, 1 + s % 2, 100 * seed + s).mat
        sigma = 0.999 * sigma + 0.0005 * np.eye(2)
        lam = induced_renyi(rho, np.kron(sigma, rho_b), 2.0, eps).raw
        assert lam >= out.certified_lower - 1e-10


@pytest.mark.parametrize("seeds", [(5, 6), (3, 4)], ids=["5,6", "3,4"])
def test_induced_mi_of_a_product_with_a_pure_marginal_is_finite_at_eps_near_one(seeds):
    # rho_A (x) rho_B at sigma = rho_A gives log2(eps / (1 - eps)), finite for every eps < 1; rho's weight
    # outside supp(I/d_A (x) rho_B) is rounding, which can exceed 1 - eps = 2^-53, so it cannot decide +inf
    eps = 1.0 - 2.0**-53
    rho = DensityOperator(np.kron(random_density(2, 2, seeds[0]).mat, random_density(2, 1, seeds[1]).mat))
    out = induced_mutual_info_2(rho, (2, 2), eps)
    assert out.converged
    assert abs(out.value - math.log2(eps / (1.0 - eps))) <= 1e-9


def test_induced_mi_monotone_in_eps():
    rho = random_density(4, 4, 23)
    v_small = induced_mutual_info_2(rho, (2, 2), 0.2).value
    v_large = induced_mutual_info_2(rho, (2, 2), 0.5).value
    assert v_large >= v_small - 1e-8


@pytest.mark.parametrize(
    "n, rank, dims, seed",
    [(4, 4, (2, 2), 3), (8, 8, (2, 4), 4), (9, 9, (3, 3), 3), (4, 2, (2, 2), 501)],
    ids=["full-2x2", "full-2x4", "full-3x3", "rank2-2x2"],
)
def test_collision_model_step_meets_its_kkt_condition(n, rank, dims, seed):
    # the frozen model q(sigma) = Q_2(sigma (x) rho_B || X) has the sigma-gradient G = 2 Tr_B[(K tau K)(I (x) rho_B)],
    # K = X^(-1/2); at the minimum over trace-one sigma, G is Tr[G sigma] I (and Tr[G sigma] = 2 q)
    rho = random_density(n, rank, seed)
    da, db = dims
    eps = 0.005
    rho_b = _ptrace(rho.mat, [da, db], [1])
    t_hat = eps / (1.0 - eps)
    for sigma in (np.eye(da) / da, random_density(da, da, seed + 1).mat):
        sigma0, q = info._collision_model_step(rho.mat, rho_b, sigma, t_hat, da, db)[:2]
        x = rho.mat + t_hat * np.kron(sigma, rho_b)
        evals, vecs = np.linalg.eigh(x)
        k = (vecs * evals**-0.5) @ vecs.conj().T
        tau = np.kron(sigma0, rho_b)
        g = 2.0 * np.einsum("abcd,db->ac", (k @ tau @ k).reshape(da, db, da, db), rho_b)
        mu = float(np.trace(g @ sigma0).real)
        assert np.linalg.norm(g - mu * np.eye(da)) <= 1e-10 * np.linalg.norm(g)
        assert abs(q - q_alpha(tau, x, 2)) <= 1e-12 * q and abs(mu - 2.0 * q) <= 1e-10 * q
        assert abs(np.trace(sigma0) - 1.0) <= 1e-14 and np.linalg.eigvalsh(sigma0)[0] > 0.0


def test_collision_start_is_two_model_steps_from_the_maximally_mixed_state():
    rho = random_density(4, 4, 3)
    rho_b = _ptrace(rho.mat, [2, 2], [1])
    eps = 0.005
    sigma, t_hat = np.eye(2) / 2, eps / (1.0 - eps)
    for _ in range(2):
        sigma, q = info._collision_model_step(rho.mat, rho_b, sigma, t_hat, 2, 2)[:2]
    model, lam0 = info._collision_start(rho, rho_b, 2, 2, eps)
    assert np.array_equal(model.sigma, sigma)
    assert lam0 == math.log2(2.0 * eps / (1.0 + math.sqrt(1.0 - 4.0 * eps * q)))
    # the model's root is the root of eps - t + t^2 q
    t = 2.0**lam0
    assert abs(eps - t + t * t * q) <= 1e-15
    # no start: rho of rank 2 (the margin's small-eps form has a 1/t term from its kernel), or a model without a root
    rank2 = random_density(4, 2, 501)
    assert info._collision_start(rank2, _ptrace(rank2.mat, [2, 2], [1]), 2, 2, eps) is None
    assert info._collision_start(rho, rho_b, 2, 2, 0.5) is None  # 4 eps q >= 1
    # or a model minimizer that is not positive definite
    full = random_density(8, 8, 3)
    full_b = _ptrace(full.mat, [2, 4], [1])
    assert info._collision_model_step(full.mat, full_b, np.eye(2) / 2, t_hat, 2, 4) is None
    assert info._collision_start(full, full_b, 2, 4, eps) is None


def _induced_descent_calls(monkeypatch, rho, dims, eps, start) -> tuple[InducedMutualInfo, int]:
    calls = [0]
    descend = info.minimize_density

    def counting(value_and_grad, *args, **kwargs):
        def counted(sigma):
            calls[0] += 1
            return value_and_grad(sigma)

        return descend(counted, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(info, "minimize_density", counting)
        if not start:
            m.setattr(info, "_collision_start", lambda *args: None)
        out = induced_mutual_info_2(rho, dims, eps)
    return out, calls[0]


@pytest.mark.parametrize(
    "n, rank, dims, seed, eps",
    [
        *((n, n, dims, seed, eps) for n, dims, seed in [(4, (2, 2), 500), (8, (2, 4), 501), (9, (3, 3), 502)]
          for eps in (0.005, 0.2, 0.9)),
        (4, 2, (2, 2), 503, 0.05),
    ],
)
def test_collision_start_shortens_the_induced_descent(monkeypatch, n, rank, dims, seed, eps):
    # per source this is not a law: random_density(4, 4, 502) at eps = 0.005 takes 16 calls from the start and
    # 12 from I/d; over eight sources per class, 10 of 30 classes take fewer calls and one takes 2 more
    rho = random_density(n, rank, seed)
    warm, warm_calls = _induced_descent_calls(monkeypatch, rho, dims, eps, True)
    cold, cold_calls = _induced_descent_calls(monkeypatch, rho, dims, eps, False)
    assert warm.converged and cold.converged
    assert warm_calls <= cold_calls
    assert abs(warm.certified_lower - cold.certified_lower) <= 1e-7


def test_induced_mi_newton_trial_converges_in_one_step(monkeypatch):
    # the first trial is the collision model's Newton point, taken with the true gradient at the model's minimizer;
    # here it takes the Frank-Wolfe gap below 1e-7 at once (from 4.1e-6), so the descent makes two solves
    out, calls = _induced_descent_calls(monkeypatch, _seeded_marginal(), (2, 2), 0.005, True)
    assert out.converged
    assert (out.iterations, calls) == (1, 2)


def test_induced_mi_skips_the_newton_trial_where_the_model_mispredicts(monkeypatch):
    # at eps = 0.9 the model's root is far from its branch point, but the first solve lies farther from that root
    # than half the root's distance to log2(eps / (1 - eps)): no Newton step is taken, and the descent makes the
    # 6 calls it made before the trial existed
    rho, eps = _seeded_marginal(), 0.9
    model, _ = info._collision_start(rho, _ptrace(rho.mat, [2, 2], [1]), 2, 2, eps)
    assert 4.0 * eps * model.q < info._NEWTON_BRANCH
    steps = []
    monkeypatch.setattr(info, "_collision_newton_step", lambda *args: steps.append(args))
    out, calls = _induced_descent_calls(monkeypatch, rho, (2, 2), eps, True)
    assert not steps
    assert out.converged and calls == 6


def _quadratic_objective(target: np.ndarray, calls: list):
    def value_grad(sigma):
        calls.append(sigma)
        diff = sigma - target
        return float(np.vdot(diff, diff).real), 2.0 * diff

    return value_grad


def test_a_rejected_first_trial_costs_one_call_and_changes_nothing():
    target = random_density(3, 3, 41).mat
    calls = []
    plain = minimize_density(_quadratic_objective(target, calls), 3)
    n = len(calls)
    far = np.diag([0.98, 0.01, 0.01]).astype(np.complex128)
    seen = []

    def trial(sigma, value, grad):
        seen.append(value)
        return far

    tried = minimize_density(_quadratic_objective(target, calls), 3, first_trial=trial)
    assert len(calls) == 2 * n + 1
    assert calls[n + 1] is far and np.vdot(far - target, far - target).real > seen[0]  # tried, and it rose
    assert np.array_equal(tried[0], plain[0]) and tried[1:] == plain[1:]
    # a point that is not positive definite is not tried
    calls.clear()
    skipped = minimize_density(_quadratic_objective(target, calls), 3, first_trial=lambda *_: np.diag([1.5, -0.25, -0.25]))
    assert len(calls) == n
    assert np.array_equal(skipped[0], plain[0]) and skipped[1:] == plain[1:]


def test_an_accepted_first_trial_is_the_next_iterate():
    target = random_density(3, 3, 41).mat
    calls = []
    sigma, value, iterations, residual = minimize_density(_quadratic_objective(target, calls), 3, first_trial=lambda *_: target)
    assert sigma is target and len(calls) == 2
    assert (value, iterations, residual) == (0.0, 1, 0.0)


def test_a_certified_start_costs_one_call_and_no_iteration():
    # an exact start is evaluated as given, with no iterate floor, and returned when its Frank-Wolfe gap is at most tol
    target = random_density(3, 3, 41).mat
    calls = []
    sigma, value, iterations, residual = minimize_density(_quadratic_objective(target, calls), 3, sigma0=target, exact_start=True)
    assert sigma is target and len(calls) == 1 and calls[0] is target
    assert (value, iterations, residual) == (0.0, 0, 0.0)
    # the floored start E(log sigma0) is certified too when its gap is: Tr[sigma^2] is minimal at I/3
    calls.clear()
    sigma, value, iterations, residual = minimize_density(_quadratic_objective(np.eye(3) / 3, calls), 3)
    assert len(calls) == 1 and iterations == 0 and residual <= 1e-7
    # an uncertified exact start descends from its centred log
    calls.clear()
    start = np.diag([0.5, 0.3, 0.2]).astype(np.complex128)
    sigma, value, iterations, residual = minimize_density(_quadratic_objective(target, calls), 3, sigma0=start, exact_start=True)
    assert calls[0] is start and iterations >= 1 and residual <= 1e-7


def _hermitian_basis(d):
    """An orthonormal basis of the d x d Hermitian matrices, the d diagonal units first: real coefficients c give
    the Hermitian sum_i c_i E_i, of trace c[:d].sum()."""
    basis = [np.diag(np.eye(d)[a]).astype(np.complex128) for a in range(d)]
    for a in range(d):
        for b in range(a + 1, d):
            unit = np.zeros((d, d), dtype=np.complex128)
            unit[a, b] = 1.0
            basis += [(unit + unit.T) / math.sqrt(2.0), 1j * (unit - unit.T) / math.sqrt(2.0)]
    return np.array(basis)


@pytest.mark.parametrize(
    "n, dims, seed", [(4, (2, 2), 3), (8, (2, 4), 4), (9, (3, 3), 3), (8, (4, 2), 2)], ids=["2x2", "2x4", "3x3", "4x2"]
)
def test_collision_newton_step_solves_the_model_kkt_system(n, dims, seed):
    # Delta minimizes g^T Delta + lambda_m' Delta^T M Delta on the trace-zero plane; here M is built densely from
    # K = X^(-1/2) and the KKT system is solved as one linear system
    rho = random_density(n, n, seed)
    da, db = dims
    eps = 0.005
    rho_b = _ptrace(rho.mat, [da, db], [1])
    t_hat = eps / (1.0 - eps)
    sigma = info._collision_model_step(rho.mat, rho_b, np.eye(da) / da, t_hat, da, db).sigma
    model = info._collision_model_step(rho.mat, rho_b, sigma, t_hat, da, db)
    evals, vecs = np.linalg.eigh(rho.mat + t_hat * np.kron(sigma, rho_b))
    k = (vecs * evals**-0.5) @ vecs.conj().T
    basis = _hermitian_basis(da)
    images = [k @ np.kron(e, rho_b) for e in basis]
    m = np.array([[np.trace(a @ b).real for b in images] for a in images])
    c0 = np.array([np.trace(model.sigma @ e).real for e in basis])
    assert abs(c0 @ m @ c0 - model.q) <= 1e-12 * model.q
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da))
    grad = a + a.conj().T
    g = np.array([np.trace(grad @ e).real for e in basis])
    w = (np.arange(da * da) < da).astype(float)
    s = math.sqrt(1.0 - 4.0 * eps * model.q)
    slope = 2.0 * eps / (math.log(2.0) * s * (1.0 + s))
    kkt = np.block([[2.0 * slope * m, w[:, None]], [w[None, :], np.zeros((1, 1))]])
    dense = np.einsum("i,ijk->jk", np.linalg.solve(kkt, np.append(-g, 0.0))[:-1], basis)
    delta = info._collision_newton_step(model, grad, eps)
    assert np.linalg.norm(delta - dense) <= 1e-12 * np.linalg.norm(dense)
    assert abs(np.trace(delta)) <= 1e-12 * np.linalg.norm(dense)


# ---------------------------------------------------------------------------
# smoothed mutual information
# ---------------------------------------------------------------------------


def test_smoothed_tiny_eps_equals_i2():
    rho = random_density(4, 4, 29)
    sm = smoothed_mutual_info_2(rho, (2, 2), 5e-4)
    mi = mutual_info(rho, (2, 2), 2.0)
    assert abs(sm.value - mi.value) < 1e-9
    assert sm.candidate == "rho"


def test_smoothed_pure_state_improves():
    rho = random_density(4, 1, 31)
    sm = smoothed_mutual_info_2(rho, (2, 2), 0.25)
    mi = mutual_info(rho, (2, 2), 2.0)
    assert sm.value < mi.value - 1e-3
    assert sm.candidate != "rho"


@pytest.mark.parametrize("seed", range(4))
def test_smoothed_upper_bound_and_ball(seed):
    rho = random_density(4, 4, seed + 60)
    eps = 0.2
    sm = smoothed_mutual_info_2(rho, (2, 2), eps)
    assert sm.is_upper_bound
    assert sm.value <= mutual_info(rho, (2, 2), 2.0).value + 1e-12
    assert sm.distance_used <= eps + 1e-10
    assert trace_distance(sm.smoothing_state, rho) <= eps + 1e-10


def test_smoothed_monotone_in_eps():
    rho = random_density(4, 4, 71)
    v1 = smoothed_mutual_info_2(rho, (2, 2), 0.1).value
    v2 = smoothed_mutual_info_2(rho, (2, 2), 0.2).value
    assert v2 <= v1 + 1e-12  # nested dyadic candidate ladder


def _product_source(seed=0):
    """rho_RB (x) rho_A on (RB, A) = (4, 2): rho's I_2 is 0, and no Frank-Wolfe bound prunes a smoothing candidate."""
    return DensityOperator(np.kron(random_density(4, 4, seed + 5).mat, random_density(2, 2, seed + 6).mat)), (4, 2)


def _warm_and_cold_descents(monkeypatch, rho, dims, eps):
    """The smoothed results and each descent's (result, objective calls) by candidate name: as
    `smoothed_mutual_info_2` runs them, each from the minimizer of its candidate's quadratic form (warm), and with
    that start left out, the first from rho_B and the others from the first one's optimum (cold)."""
    helper, candidates, descend = info._mutual_info_2, info._smoothing_candidates, info.minimize_density
    runs = {"warm": {}, "cold": {}}
    names, calls = {}, [0]

    def listing(r, *args):
        out = candidates(r, *args)
        names.update((id(objective), name) for name, _, _, objective in out[1])
        return out

    def counting(value_and_grad, *args, **kwargs):
        def counted(sigma):
            calls[0] += 1
            return value_and_grad(sigma)

        return descend(counted, *args, **kwargs)

    def recording(kind):
        def run(objective, db, sigma0):
            calls[0] = 0
            out = helper(objective, db, sigma0)
            runs[kind][names[id(objective)]] = (out, calls[0])
            return out

        return run

    with monkeypatch.context() as m:
        m.setattr(info, "_smoothing_candidates", listing)
        m.setattr(info, "minimize_density", counting)
        m.setattr(info, "_mutual_info_2", recording("warm"))
        warm = smoothed_mutual_info_2(rho, dims, eps)
        m.setattr(info, "_mutual_info_2", recording("cold"))
        m.setattr(info, "_quadratic_start", lambda *args: None)
        cold = smoothed_mutual_info_2(rho, dims, eps)
    assert runs["warm"].keys() == runs["cold"].keys()
    return warm, cold, runs


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("eps", [0.005, 0.05])
def test_smoothed_warm_starts_reach_the_cold_start_values(monkeypatch, seed, eps):
    # every candidate starts at the minimizer of its quadratic form in sigma^(-1/2), where its Frank-Wolfe gap is
    # already at most 1e-7: one objective call and no iteration.  Each objective is convex in sigma, so the start
    # changes the length of a descent, not its minimum.  On a product source every candidate is descended
    rho, dims = _product_source(seed)
    warm, cold, runs = _warm_and_cold_descents(monkeypatch, rho, dims, eps)
    assert len(runs["warm"]) >= 2
    assert all(mi.converged for kind in runs for mi, _ in runs[kind].values())
    assert all(mi.iterations == 0 and calls == 1 for mi, calls in runs["warm"].values())
    assert abs(warm.value - cold.value) <= 1e-12
    assert warm.candidate == cold.candidate
    for name, (w, _) in runs["warm"].items():
        assert abs(w.value - runs["cold"][name][0].value) <= 1e-12


def test_smoothed_warm_starts_shorten_the_descents(monkeypatch):
    # full-rank 8x8 sources at (2, 4) with a wide ball, where the top rung's bounds leave several candidates to
    # descend: all 60 descents stop at their start, after one objective call each, where the descents from rho_B and
    # the first optimum take 486 calls and 423 iterations
    warm_calls = cold_calls = descents = 0
    for seed in range(300, 320):
        _, _, runs = _warm_and_cold_descents(monkeypatch, random_density(8, 8, seed), (2, 4), 0.2)
        assert all(mi.iterations == 0 and calls == 1 for mi, calls in runs["warm"].values())
        assert sum(calls for _, calls in runs["warm"].values()) <= sum(calls for _, calls in runs["cold"].values())
        descents += len(runs["warm"])
        warm_calls += sum(calls for _, calls in runs["warm"].values())
        cold_calls += sum(calls for _, calls in runs["cold"].values())
    assert (descents, warm_calls) == (60, 60)
    assert cold_calls > 400


def test_smoothed_descent_certifies_its_start_on_the_support_of_a_marginal_with_a_kernel(monkeypatch):
    # the truncated candidates of I/2 (x) rho_B drop degenerate pairs, so their B marginal c_B has a kernel and the
    # form in sigma^(-1/2) is singular on all of B: the fixed point runs on supp c_B, and each descent stops at its
    # start, of c_B's rank, after one call (from rho_B with the iterate floor, these descents cap at 500)
    rho, dims = _degenerate_product(2, 4, 900)
    rho_b, candidates = info._smoothing_candidates(rho, dims, 0.2)
    restricted = [(name, objective) for name, _, _, objective in candidates if objective.gram()[1] is not None]
    assert [name.split("@")[0] for name, _ in restricted] == ["truncated"] * 3
    calls = [0]
    descend = info.minimize_density

    def counting(value_and_grad, *args, **kwargs):
        def counted(sigma):
            calls[0] += 1
            return value_and_grad(sigma)

        return descend(counted, *args, **kwargs)

    monkeypatch.setattr(info, "minimize_density", counting)
    for _, objective in restricted:
        calls[0] = 0
        out = info._mutual_info_2(objective, 4, rho_b)
        assert out.converged and out.iterations == 0 and calls[0] == 1
        rank = objective.gram()[1].shape[1]
        assert np.sum(out.optimal_sigma.eigenvalues > 1e-12) == rank < 4
        with monkeypatch.context() as m:  # the plain descent from rho_B, cut at 20 iterations, lies above it
            m.setattr(info, "_quadratic_start", lambda *args: None)
            m.setattr(info, "minimize_density", functools.partial(minimize_density, max_iter=20))
            assert out.value < info._mutual_info_2(objective, 4, rho_b).value


def _top_rung_first(candidates):
    """The listed candidates with the first depolarized one moved to the front, as `smoothed_mutual_info_2` descends them."""
    top = next(cand for cand in candidates if cand[0].startswith("depolarized@"))
    return [top] + [cand for cand in candidates if cand is not top]


def _unpruned_smoothed(rho, dims, eps):
    """(candidate, operator, listed distance, MutualInfoResult) of the winner when every candidate is descended.

    Each descent runs on the candidate's own listed objective, as `smoothed_mutual_info_2` does: the top
    depolarized candidate from rho_B, then the others from its optimum; rho is kept when no candidate is
    lower by more than the pruning margin.
    """
    db = dims[1]
    rho_b, candidates = info._smoothing_candidates(rho, dims, eps)
    warm = best = unsmoothed = None
    for name, spectrum, dist, objective in _top_rung_first(candidates):
        cand = info._candidate_state(rho, name, spectrum)
        mi = info._mutual_info_2(objective, db, rho_b if warm is None else warm)
        if warm is None:
            warm = mi.optimal_sigma.mat
        if name == "rho":
            unsmoothed = (name, cand, dist, mi)
        if best is None or mi.value < best[3].value:
            best = (name, cand, dist, mi)
    return unsmoothed if unsmoothed[3].value <= best[3].value + info._PRUNE_MARGIN else best


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("eps", [0.005, 0.05, 0.2])
def test_smoothed_pruning_keeps_the_unpruned_result(monkeypatch, seed, eps):
    rho, dims = _eqsr_smoothing_input(seed)
    name, cand, dist, mi = _unpruned_smoothed(rho, dims, eps)
    descended = []
    helper = info._mutual_info_2

    def recording(*args):
        descended.append(1)
        return helper(*args)

    monkeypatch.setattr(info, "_mutual_info_2", recording)
    out = smoothed_mutual_info_2(rho, dims, eps)
    assert out.value == mi.value
    assert (out.iterations, out.gradient_residual, out.converged) == (mi.iterations, mi.gradient_residual, mi.converged)
    assert out.candidate == name
    assert out.distance_used == dist
    assert np.array_equal(out.smoothing_state.mat, cand.mat)
    assert len(descended) < len(info._smoothing_candidates(rho, dims, eps)[1])


@pytest.mark.parametrize("seed", [300, 308, 312])
def test_smoothed_pruning_reads_the_first_optimums_cached_spectrum(monkeypatch, seed):
    # every pruning bound is read at sigma* with the eigenpairs its descent cached, so no bound decomposes sigma*
    # again; the result, and which candidates are descended, are bitwise those where each bound decomposes sigma*
    rho, dims = random_density(8, 8, seed), (2, 4)
    helper, candidates = info._mutual_info_2, info._smoothing_candidates
    descents, bounds = [], []

    def descending(*args):
        descents.append(None)  # a call of an objective inside a descent is not a pruning bound
        descents[-1] = helper(*args)
        return descents[-1]

    def listing(decompose):
        def bounded(objective):
            def call(sigma, spectrum=None):
                if descents and descents[-1] is not None:
                    bounds.append(spectrum)
                    spectrum = None if decompose else spectrum
                return objective(sigma, spectrum)

            call.gram = objective.gram
            return call

        def listed(*args):
            rho_b, out = candidates(*args)
            return rho_b, [(name, spectrum, dist, bounded(objective)) for name, spectrum, dist, objective in out]

        return listed

    monkeypatch.setattr(info, "_mutual_info_2", descending)
    runs = []
    for decompose in (False, True):
        descents.clear(), bounds.clear()
        monkeypatch.setattr(info, "_smoothing_candidates", listing(decompose))
        out = smoothed_mutual_info_2(rho, dims, 0.2)
        first = descents[0].optimal_sigma
        assert bounds and all(b[0] is first.eigenvalues and b[1] is first.eigenvectors for b in bounds)
        runs.append((out.value, out.candidate, out.iterations, out.gradient_residual, out.smoothing_state.mat.tobytes(),
                     [mi.optimal_sigma.mat.tobytes() for mi in descents]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("eps", [0.005, 0.05, 0.2])
def test_smoothed_first_descended_candidate_can_lose(monkeypatch, eps):
    # rho is a product, so its I_2 is 0 and no depolarized or truncated candidate's bound prunes
    rho, dims = _product_source()
    helper, candidates = info._mutual_info_2, info._smoothing_candidates
    names, descended = {}, []

    def listing(r, *args):
        out = candidates(r, *args)
        names.update((id(objective), name) for name, _, _, objective in out[1])
        return out

    def recording(objective, *args):
        descended.append(names[id(objective)])
        return helper(objective, *args)

    monkeypatch.setattr(info, "_smoothing_candidates", listing)
    monkeypatch.setattr(info, "_mutual_info_2", recording)
    out = smoothed_mutual_info_2(rho, dims, eps)
    assert descended[0] == f"depolarized@{max(d for d in info._LADDER if d <= eps):g}"
    assert out.candidate == "rho"
    assert out.distance_used == 0
    assert out.smoothing_state is rho
    assert abs(out.value) <= 1e-12


@pytest.mark.parametrize("da, db, seed", [(2, 2, 1), (2, 4, 2), (4, 2, 3), (3, 3, 4)])
@pytest.mark.parametrize("eps", [0.005, 0.05, 0.2])
def test_smoothed_keeps_rho_when_a_candidate_ties_it(da, db, seed, eps):
    # I/d_A (x) rho_B: every depolarized candidate is a product as well, so its I_2 is 0 as rho's
    # is and only rounding orders them; rho, at distance 0, is reported
    rho = DensityOperator(np.kron(np.eye(da) / da, random_density(db, db, seed).mat))
    out = smoothed_mutual_info_2(rho, (da, db), eps)
    assert out.candidate == "rho"
    assert out.distance_used == 0
    assert out.smoothing_state is rho
    assert abs(out.value) <= 1e-12


@pytest.mark.parametrize("seed", range(2))
def test_frank_wolfe_bound_is_below_every_candidate_minimum(seed):
    rho, (da, db) = _eqsr_smoothing_input(seed)
    sigma_star = None
    for name, spectrum, _, q2_and_contracted_gradient in info._smoothing_candidates(rho, (da, db), 0.2)[1]:
        cand = info._candidate_state(rho, name, spectrum)
        mi = info._mutual_info_2(q2_and_contracted_gradient, db, _ptrace(cand.mat, [da, db], [1]))
        assert mi.converged
        if sigma_star is None:  # rho's optimum, where the pruning reads the bound
            sigma_star = mi.optimal_sigma.mat
        for sigma in (sigma_star, np.eye(db) / db, random_density(db, db, seed + 7).mat):
            q, m = q2_and_contracted_gradient(sigma)
            lower = q - info._frank_wolfe_gap(0.5 * (m + m.conj().T), sigma)
            assert lower <= 0.0 or math.log2(lower) <= mi.value + 1e-12


@pytest.mark.parametrize(
    "rho, dims",
    [(random_density(4, 4, 3), (2, 2)), _eqsr_smoothing_input(0), _eqsr_smoothing_input(1)],
    ids=["4x4,seed=3", "eqsr_marginal,seed=0", "eqsr_marginal,seed=1"],
)
def test_smoothing_candidate_distances_are_read_from_the_spectrum(rho, dims):
    rho_b, candidates = info._smoothing_candidates(rho, dims, 0.5)
    assert np.max(np.abs(rho_b - _ptrace(rho.mat, list(dims), [1]))) <= 1e-14
    assert len(candidates) > 10
    for name, spectrum, dist, _ in candidates:
        assert abs(dist - trace_distance(info._candidate_state(rho, name, spectrum).mat, rho.mat)) <= 1e-14


# ---------------------------------------------------------------------------
# descent length
# ---------------------------------------------------------------------------


def _induced_sweep_states(seed):
    yield random_density(4, 4, seed)
    yield product_state(seed, seed + 1000)
    yield DensityOperator(_ptrace(random_density(8, 8, seed).mat, [2, 2, 2], [1, 2]))


def test_induced_mi_sweep_converges_in_few_iterations():
    # 48 solves; with the gated step doubling in place of the Barzilai-Borwein
    # step, 46 of them converged, in 834 iterations in all.  Every one converges:
    # the descent accepts a step within the threshold's bracket width of the last value
    solves = [
        induced_mutual_info_2(rho, (2, 2), eps)
        for seed in range(4)
        for rho in _induced_sweep_states(seed)
        for eps in (0.005, 0.1, 0.3, 0.5)
    ]
    assert all(out.converged for out in solves)
    assert sum(out.iterations for out in solves) <= 834 // 2
    # the descent stops on the Frank-Wolfe gap, so each value is within 1e-7 of its certified lower bound
    assert all(out.value - out.certified_lower <= 1e-7 for out in solves)


@pytest.mark.parametrize("eps", [0.005, 0.05, 0.2])
def test_smoothed_descent_of_a_pure_source_starts_at_its_form_minimizer(monkeypatch, eps):
    # a pure source's rho_B is singular at (2, 3), while its top depolarized candidate's form is on all of B:
    # the fixed point runs from (rho_B + I/3) / 2, and from rho_B itself, floored, the descent took 8-16 iterations
    iterations = []
    descend = info.minimize_density

    def recording(*args, **kwargs):
        out = descend(*args, **kwargs)
        iterations.append(out[2])
        return out

    monkeypatch.setattr(info, "minimize_density", recording)
    out = smoothed_mutual_info_2(random_density(6, 1, 600), (2, 3), eps)
    assert out.candidate.startswith("depolarized@")
    assert iterations[0] <= 1


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("eps", [0.005, 0.05, 0.2])
def test_smoothed_descents_accept_every_first_trial(monkeypatch, seed, eps):
    # the log-iterate starts trace-centred, so the first secant pair carries no multiple of I and the
    # Barzilai-Borwein step fits the objective's curvature; from an uncentred start 8-12 calls took 3-5 iterations
    rho, dims = _eqsr_smoothing_input(seed)
    runs = []
    descend = info.minimize_density

    def counting(value_and_grad, *args, **kwargs):
        calls = []

        def counted(sigma):
            calls.append(1)
            return value_and_grad(sigma)

        out = descend(counted, *args, **kwargs)
        runs.append((len(calls), out[2]))
        return out

    monkeypatch.setattr(info, "minimize_density", counting)
    smoothed_mutual_info_2(rho, dims, eps)
    assert runs
    assert all(calls == iterations + 1 for calls, iterations in runs)


@pytest.mark.parametrize("seed", range(3))
def test_mutual_info_descent_takes_barzilai_borwein_steps(seed):
    # with the gated step doubling these took 17-18 iterations (25-26 objective calls)
    out = mutual_info(random_density(8, 8, seed), (2, 4), 2.0)
    assert out.converged
    assert out.iterations <= 10


# ---------------------------------------------------------------------------
# channel mutual information
# ---------------------------------------------------------------------------


def test_channel_replacement():
    omega = random_density(2, 2, 81)
    chan = channel([omega, omega])
    cm = channel_mutual_info(chan, eps=0.3)
    assert abs(cm.value - math.log2(0.3 / 0.7)) < 1e-8


@pytest.mark.parametrize("k", [2, 3, 4])
def test_channel_classical_identity(k):
    # k orthogonal outputs: the uniform input gives t* = k eps / (1 - eps)
    eps = 0.3
    chan = classical_channel(np.eye(k))
    assert abs(channel_mutual_info(chan, eps=eps).value - math.log2(k * eps / (1.0 - eps))) < 1e-9


def test_channel_permutation_invariance():
    outs = [random_density(2, 2, 90 + j) for j in range(3)]
    v1 = channel_mutual_info(channel(outs), eps=0.3).value
    v2 = channel_mutual_info(channel(outs[::-1]), eps=0.3).value
    assert abs(v1 - v2) < 1e-6


@pytest.mark.parametrize("eps", [0.3])
def test_channel_dpi_post_processing(eps):
    outs = [random_density(2, 2, 100 + j) for j in range(2)]
    chan = channel(outs)
    kraus = random_isometry_channel(2, 2, 2, 7)
    degraded = channel([DensityOperator(apply_kraus(o, kraus)) for o in outs])
    before = channel_mutual_info(chan, eps=eps).value
    after = channel_mutual_info(degraded, eps=eps).value
    assert after <= before + 1e-6


def test_channel_objective_has_a_strict_local_maximum_on_a_face():
    # g(p, t) is not concave in p: at eps 0.4 the ascents from the uniform input stop at a local maximum
    # (0.272327), and only the seeded inputs ascended at the root reach the interior maximum
    chan = channel([random_density(3, r, 7760 + x) for x, r in enumerate([2, 3, 1])])
    assert channel_mutual_info(chan, 0.7).value >= 2.1393689685 - 1e-9
    face = channel_mutual_info(chan, 0.4)
    assert face.value >= 0.27514087790 - 1e-9
    assert face.converged  # the ascent's Frank-Wolfe gap at the returned input is at most 1e-7


def _concave_quadratic(center, weights):
    # -sum_i w_i (p_i - c_i)^2 and its gradient
    def value_grad(p):
        d = p - center
        return -float(weights @ d**2), -2.0 * weights * d

    return value_grad


@pytest.mark.parametrize(
    "center, weights, maximizer",
    [
        ([0.2, 0.5, 0.3], [1.0, 3.0, 0.5], [0.2, 0.5, 0.3]),  # interior
        ([0.7, 0.5, -0.2], [1.0, 2.0, 1.0], [1.7 / 3.0, 1.3 / 3.0, 0.0]),  # on the face p_3 = 0, by KKT
    ],
)
def test_maximize_simplex_reaches_the_maximizer(center, weights, maximizer):
    objective = _concave_quadratic(np.array(center), np.array(weights))
    _, p, gap = info.maximize_simplex(objective, np.full(3, 1.0 / 3.0))
    assert gap <= 1e-13
    assert np.max(np.abs(p - maximizer)) <= 1e-9


def test_maximize_simplex_stops_when_no_halving_raises_the_value():
    calls = []

    def flat(p):
        calls.append(p)
        return 1.0, np.array([1e-9, 0.0, 0.0])

    value, p, gap = info.maximize_simplex(flat, np.full(3, 1.0 / 3.0))
    assert len(calls) <= 45
    assert value == 1.0 and p is calls[0] and gap > 1e-13


def test_channel_input_size_cap():
    outs = [random_density(2, 2, s) for s in range(9)]
    with pytest.raises(ValidationError):
        channel_mutual_info(channel(outs), eps=0.3)


# ---------------------------------------------------------------------------
# conditional combination
# ---------------------------------------------------------------------------


def test_cond_mutual_info_product():
    # rho = rho^R (x) rho^A (x) rho^B: smoothed term vanishes, induced term
    # collapses to its raw normalizer, value is the normalizer difference
    a = random_density(2, 2, 112)
    r = random_density(2, 2, 113)
    b = random_density(2, 2, 114)
    rho = DensityOperator(np.kron(np.kron(r.mat, a.mat), b.mat))
    out = cond_mutual_info(rho, (2, 2, 2), 0.01, 0.01)
    assert abs(out.smoothed_term.value) < 1e-6
    assert abs(out.induced_term - math.log2(0.01 / 0.99)) < 1e-6
    assert abs(out.value - (out.smoothed_term.value - out.induced_term)) < 1e-15
    assert out.induced_term == out.induced_detail.certified_lower


def test_cond_mutual_info_delta0_monotone():
    rho = random_density(8, 8, 121)
    a = cond_mutual_info(rho, (2, 2, 2), 0.05, 0.01)
    b = cond_mutual_info(rho, (2, 2, 2), 0.2, 0.01)
    assert b.smoothed_term.value <= a.smoothed_term.value + 1e-12


@pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, -0.2, math.nan])
@pytest.mark.parametrize("solve", ["induced_mutual_info_2", "cond_mutual_info", "channel_mutual_info"])
def test_induced_mi_eps_is_validated(solve, eps):
    with pytest.raises(ValidationError, match=r"eps must be in \(0, 1\)"):
        if solve == "induced_mutual_info_2":
            induced_mutual_info_2(random_density(4, 4, 121), (2, 2), eps)
        elif solve == "cond_mutual_info":
            cond_mutual_info(random_density(8, 8, 121), (2, 2, 2), 0.05, eps)
        else:
            channel_mutual_info(classical_channel(np.eye(2)), eps=eps)


def test_cond_mutual_info_validates_dims():
    rho = random_density(8, 8, 122)
    with pytest.raises(ValidationError):
        cond_mutual_info(rho, (2, 2, 3), 0.1, 0.1)
