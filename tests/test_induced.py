import importlib
import math

import numpy as np
import pytest

from oracles import classical_induced_collision_t

from qdiv import (
    DensityOperator,
    ParentDivergence,
    PositiveOperator,
    ValidationError,
    d_alpha,
    d_max,
    d_min,
    d_umegaki,
    fidelity_and_purified,
    induced,
    induced_block_property,
    induced_renyi,
    q_alpha,
)
from qdiv import _roots
from qdiv.induced import _q2_margin
from qdiv.states import basis_state, maximally_mixed, random_density, rng_from_seed


def diag_density(*probs):
    return DensityOperator(np.diag(probs).astype(complex))


def test_normalized_zero_on_equal():
    rho = random_density(3, 3, 0)
    for parent in (
        ParentDivergence.renyi(2.0),
        ParentDivergence.renyi(0.5),
        ParentDivergence.umegaki(),
        ParentDivergence.min_(),
        ParentDivergence.max_(),
    ):
        res = induced(parent, rho, rho, 0.3)
        assert abs(res.normalized) < 1e-9
        assert abs(res.raw - math.log2(0.3 / 0.7)) < 1e-9
        # built-in parents evaluate to zero on equal arguments
        assert abs(parent.evaluate(rho, rho)) < 1e-9


@pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("seed", range(5))
def test_self_induced_min_max(eps, seed):
    dim = 2 + seed % 2
    rho = random_density(dim, dim, seed)
    sigma = random_density(dim, dim, seed + 100)
    res_min = induced(ParentDivergence.min_(), rho, sigma, eps)
    assert abs(res_min.normalized - d_min(rho, sigma).value) <= 1e-8
    res_max = induced(ParentDivergence.max_(), rho, sigma, eps)
    assert abs(res_max.normalized - d_max(rho, sigma).value) <= 1e-8


@pytest.mark.parametrize("seed", range(20))
def test_closed_forms_match_engine(seed):
    rho = random_density(2, 2, seed)
    sigma = random_density(2, 2, seed + 300)
    eps = 0.05 + 0.9 * (seed / 20.0)
    # self-induced closed form: raw threshold = D_min / D_max + log(eps/(1-eps))
    for parent_value, parent in (
        (d_min(rho, sigma).value, ParentDivergence.min_()),
        (d_max(rho, sigma).value, ParentDivergence.max_()),
    ):
        res = induced(parent, rho, sigma, eps)
        assert abs(res.raw - (parent_value + math.log2(eps / (1.0 - eps)))) <= 1e-8
        assert res.residual <= 1e-9


@pytest.mark.parametrize("seed", range(12))
def test_min_max_thresholds_need_no_search(seed, monkeypatch):
    # lambda* is the closed form moved down by at most the search's bracket,
    # to where the parent's own margin holds; the root-finder never runs
    def no_search(*args):
        raise AssertionError("bisect_decreasing called")

    dim = 2 + seed % 3
    rho = random_density(dim, dim, seed)
    sigma = random_density(dim, dim if seed % 3 else 1, seed + 300)  # rank-1 sigma on every third seed
    monkeypatch.setattr(_roots, "bisect_decreasing", no_search)
    for eps in (0.01, 0.3, 0.9):
        for parent in (ParentDivergence.min_(), ParentDivergence.max_()):
            res = induced(parent, rho, sigma, eps)
            if not res.is_finite:
                continue
            closed = parent.evaluate(rho, sigma) + math.log2(eps / (1.0 - eps))
            assert closed - 2e-11 <= res.raw <= closed
            assert parent.margin_factory(rho, sigma, eps)(res.raw) >= 0.0


def test_closed_form_pure_vs_uniform():
    for m in (2, 3, 5):
        res = induced(ParentDivergence.min_(), basis_state(0, m), maximally_mixed(m), 0.3)
        expected = math.log2(m) + math.log2(0.3 / 0.7)
        assert abs(res.raw - expected) < 1e-12


def test_renyi2_commuting_threshold():
    eps = 0.3
    res = induced_renyi(basis_state(0, 2), maximally_mixed(2), 2.0, eps)
    assert abs(res.t_star - 2.0 * eps / (1.0 - eps)) < 1e-9
    assert abs(res.normalized - 1.0) < 1e-9


def test_renyi2_equal_states_threshold():
    rho = random_density(3, 3, 7)
    eps = 0.4
    res = induced_renyi(rho, rho, 2.0, eps)
    assert abs(res.t_star - eps / (1.0 - eps)) < 1e-9


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_renyi_commuting_matches_scalar_solver(alpha):
    # classical instance: collision case cross-checked against a scalar
    # bisection on the explicit formula; alpha 0.5 and 1 via the parent value
    p = (0.85, 0.15)
    q = (0.35, 0.65)
    eps = 0.25
    rho, sigma = diag_density(*p), diag_density(*q)
    res = induced_renyi(rho, sigma, alpha, eps)
    if alpha == 2.0:
        t_expected = classical_induced_collision_t(p, q, eps)
        assert abs(res.t_star - t_expected) < 1e-7
    cond = d_alpha(rho, PositiveOperator(rho.mat + res.t_star * sigma.mat), alpha).value
    assert abs(cond - math.log2(1.0 - eps)) < 1e-8


def test_residual_invariant():
    rho = random_density(3, 3, 9)
    sigma = random_density(3, 3, 10)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        res = induced_renyi(rho, sigma, alpha, 0.3)
        assert res.residual <= 1e-9
        assert abs((res.normalized - res.raw) - math.log2(0.7 / 0.3)) < 1e-15


_ORACLE_EPS = (1e-9, 1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999, 0.999999)


def _collision_oracle_pairs():
    """(id, rho, sigma): full-rank pairs, and sigma of rank 1 or 2, which the oracle reads with an exact kernel."""
    for d, s in ((2, 0), (2, 1), (3, 2), (3, 3), (4, 4), (4, 5)):
        yield f"d={d},s={s}", random_density(d, d, s), random_density(d, d, s + 500)
    v = np.array([0.6, 0.8j])
    for s in (3, 5, 7):
        yield f"rank1,s={s}", random_density(2, 2, s), PositiveOperator(np.outer(v, v.conj()))
    w = np.array([0.6, 0.0, 0.8])
    for s in (4, 6):
        sigma = 0.5 * np.outer(w, w) + 0.5 * np.diag([0.0, 1.0, 0.0])
        yield f"rank2,s={s}", random_density(3, 3, s), PositiveOperator(sigma.astype(complex))


@pytest.mark.parametrize(
    "rho, sigma, eps",
    [
        pytest.param(rho, sigma, eps, id=f"{name},eps={eps:g}")
        for name, rho, sigma in _collision_oracle_pairs()
        for eps in _ORACLE_EPS
    ],
)
def test_renyi2_threshold_matches_mpmath_oracle(rho, sigma, eps):
    # the returned lambda* is the certified lower end of a 1e-11 bracket: it may
    # sit below the root by the bracket, and above it only by rounding
    pytest.importorskip("mpmath")
    from oracles import mp_induced_collision

    raw = induced_renyi(rho, sigma, 2.0, eps).raw
    reference = mp_induced_collision(rho.mat, sigma.mat, eps, raw)
    if math.isinf(reference):
        assert raw == math.inf
    else:
        assert reference - 1e-11 <= raw <= reference + 1e-13


def _padded(block, dim=4):
    """``block`` in the top-left corner of a dim x dim state: its kernel is exact, not a rounding."""
    mat = np.zeros((dim, dim), dtype=complex)
    mat[: block.shape[0], : block.shape[0]] = block
    return DensityOperator(mat)


def _margin_pairs():
    """(id, rho, sigma): rho of rank 1, 2 and 4 in d = 4 against sigma of rank 1 and 4, and a near-orthogonal pair."""
    rhos = {
        "rho1": _padded(np.full((2, 2), 0.5)),  # the projector onto (|0> + |1>) / sqrt 2
        "rho2": _padded(random_density(2, 2, 61).mat),
        "rho4": random_density(4, 4, 62),
    }
    sigmas = {"sigma1": PositiveOperator(random_density(4, 1, 63).mat), "sigma4": random_density(4, 4, 64)}
    for rn, rho in rhos.items():
        for sn, sigma in sigmas.items():
            yield f"{rn},{sn}", rho, sigma
    v = np.array([1e-6, 1.0, 0.0, 0.0], dtype=complex)
    yield "near-orthogonal", basis_state(0, 4), PositiveOperator(np.outer(v, v.conj()) / np.vdot(v, v).real)


_MARGIN_LAMBDAS = (-30.0, -10.0, 0.0, 10.0, 25.0)


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 1.5, 1.9])
@pytest.mark.parametrize("rho, sigma", [pytest.param(r, s, id=name) for name, r, s in _margin_pairs()])
def test_rotated_margins_match_the_dense_route(rho, sigma, alpha):
    # the margin reads X = rho + t sigma in rho's eigenbasis; the public routes build X and decompose it.
    # Order 1/2 is read as Q_1/2(X || rho), the fidelity being symmetric.  The margin's
    # scale is the sum of its terms' sizes; eigh resolves the small eigenvalues of X only to eps_mach
    # |X|, so where X is ill-conditioned on its support both routes carry eps_mach cond(X).
    eps = 0.3
    parent = ParentDivergence.renyi(alpha)
    margin = parent.margin_factory(rho, sigma, eps)
    log_1me = math.log2(1.0 - eps)
    ent = float(sum(x * math.log2(x) for x in rho.eigenvalues if x > rho.cutoff))
    threshold = (1.0 - eps) ** (alpha - 1.0)
    for lam in _MARGIN_LAMBDAS:
        x = PositiveOperator(rho.mat + 2.0**lam * sigma.mat)
        if alpha == 1.0:
            value = d_umegaki(rho, x).value
            expected, scale = value - log_1me, abs(ent) + abs(ent - value) + abs(log_1me)
        else:
            q = q_alpha(x, rho, alpha) if alpha == 0.5 else q_alpha(rho, x, alpha)
            expected, scale = math.copysign(1.0, alpha - 1.0) * (q - threshold), q + threshold
        on = x.eigenvalues[x.eigenvalues > x.cutoff]
        cond = on[-1] / on[0]
        assert abs(margin(lam) - expected) <= (1e-10 + 8.0 * np.finfo(float).eps * cond) * scale, lam


@pytest.mark.parametrize("rho, sigma", [pytest.param(r, s, id=name) for name, r, s in _margin_pairs()])
def test_fidelity_margin_matches_mpmath(rho, sigma):
    # Q_1/2(rho || rho + t sigma) from the margin is no further from a 40-digit reference than the dense
    # route is, to twice its error plus rounding
    pytest.importorskip("mpmath")
    from oracles import mp_fidelity

    threshold = 0.7**-0.5
    margin = ParentDivergence.renyi(0.5).margin_factory(rho, sigma, 0.3)
    for lam in _MARGIN_LAMBDAS:
        x_mat = rho.mat + 2.0**lam * sigma.mat
        reference = mp_fidelity(rho.mat, x_mat)
        dense = q_alpha(rho, x_mat, 0.5)
        got = threshold - margin(lam)
        assert abs(got - reference) <= 2.0 * abs(dense - reference) + 1e-14 * reference, lam


@pytest.mark.parametrize(
    "rho, sigma", [pytest.param(r, s, id=name) for name, r, s in _margin_pairs() if name.startswith(("rho1", "rho2"))]
)
def test_fidelity_of_a_rank_deficient_rho_matches_mpmath(rho, sigma):
    # the dense route keeps the kernel of a rank-deficient rho out of the sandwich, as the margin does;
    # reading h^dag rho h put q_alpha(rho, X, 1/2) up to 1.5e-8 off the 40-digit value on these pairs
    pytest.importorskip("mpmath")
    from oracles import mp_fidelity

    for lam in _MARGIN_LAMBDAS:
        x_mat = rho.mat + 2.0**lam * sigma.mat
        reference = mp_fidelity(rho.mat, x_mat)
        assert abs(q_alpha(rho, x_mat, 0.5) - reference) <= 1e-12 * reference, lam
    mixture = 0.5 * (rho.mat + sigma.mat)
    reference = mp_fidelity(rho.mat, mixture)
    assert abs(fidelity_and_purified(rho, mixture)[0] - reference) <= 1e-12 * reference


def test_fidelity_margin_takes_one_eigvalsh(count_kernel_calls):
    rho = random_density(4, 4, 65)
    sigma = random_density(4, 2, 66)
    margin = ParentDivergence.renyi(0.5).margin_factory(rho, sigma, 0.3)
    kernel_calls = count_kernel_calls()
    margin(1.5)
    assert kernel_calls("eigh") == [] and len(kernel_calls("eigvalsh")) == 1


def test_infinite_when_sigma_orthogonal():
    res = induced_renyi(basis_state(0, 2), basis_state(1, 2), 2.0, 0.3)
    assert not res.is_finite
    assert res.raw == math.inf


def test_eps_validation():
    rho = random_density(2, 2, 0)
    with pytest.raises(ValidationError):
        induced_renyi(rho, rho, 2.0, 0.0)
    with pytest.raises(ValidationError):
        induced_renyi(rho, rho, 2.0, 1.0)


def test_custom_parent_matches_builtin():
    rho = random_density(2, 2, 21)
    sigma = random_density(2, 2, 22)
    custom = ParentDivergence.custom(lambda r, s: d_umegaki(r, s).value, name="umegaki-fn")
    a = induced(custom, rho, sigma, 0.3)
    b = induced(ParentDivergence.umegaki(), rho, sigma, 0.3)
    assert abs(a.raw - b.raw) < 1e-9


class CountingParent:
    """Umegaki parent as a custom function; records each second argument."""

    def __init__(self):
        self.seen = []

    def __call__(self, r, s):
        self.seen.append(s.mat.tobytes())
        return d_umegaki(r, s).value


def test_custom_parent_named_like_builtin_uses_its_function():
    rho = random_density(2, 2, 21)
    sigma = random_density(2, 2, 22)
    fn = CountingParent()
    parent = ParentDivergence.custom(fn, name="max")
    res = induced(parent, rho, sigma, 0.3)
    assert fn.seen
    assert res.parent == "max"
    assert res.raw == induced(ParentDivergence.custom(fn), rho, sigma, 0.3).raw
    assert parent.evaluate(rho, sigma) == d_umegaki(rho, sigma).value


def test_named_custom_parent_orthogonal_is_inf_at_the_search_ceiling():
    # a custom parent has no closed-form limit: its walk up from the D_min guess reaches the ceiling t = 2^60
    fn = CountingParent()
    parent = ParentDivergence.custom(fn, name="umegaki-fn")
    res = induced(parent, basis_state(0, 2), basis_state(1, 2), 0.3)
    assert res.raw == math.inf
    assert 0 < len(fn.seen) <= 7


def test_custom_parents_match_the_builtin_parents_on_rank_deficient_pairs():
    # rank-deficient pairs where the built-in lambda* is below 20 or +inf; above 20 the margin is flat and
    # its own rounding moves lambda*
    parents = [(ParentDivergence.umegaki(), lambda r, x: d_umegaki(r, x).value)]
    parents += [(ParentDivergence.renyi(a), lambda r, x, a=a: d_alpha(r, x, a).value) for a in (2.0, 1.5)]
    found = {}
    for builtin, fn in parents:
        custom = ParentDivergence.custom(fn)
        # rank-1 pairs whose custom margin reads +inf at lambda = 45, where the cut of X = rho + t sigma
        # leaves part of rho outside its support
        cases = [(random_density(d, 1, seed), random_density(d, 1, seed + 1), 0.3) for d, seed in ((4, 20), (2, 23))]
        for d in (2, 3, 4):
            for rank_rho in range(1, d):
                for rank_sigma in range(1, d + 1):
                    rho, sigma = random_density(d, rank_rho, 40), random_density(d, rank_sigma, 50)
                    cases += [(rho, sigma, eps) for eps in (0.1, 0.5, 0.9)]
        for rho, sigma, eps in cases:
            want = induced(builtin, rho, sigma, eps).raw
            if 20.0 <= want < math.inf:
                continue
            got = induced(custom, rho, sigma, eps).raw
            assert got == want or abs(got - want) <= 1e-9, (builtin, rho.dim, rho.rank, sigma.rank, eps)
            found[math.isinf(want)] = found.get(math.isinf(want), 0) + 1
    assert found[True] and found[False] > 50


def test_custom_parent_sees_the_validating_constructors_operator(monkeypatch):
    # the custom margin wraps X = rho + t sigma from one eigh, without the constructor's checks; at every
    # evaluation it is PositiveOperator(X) byte for byte, clip and rebuild included (rank 2 in d = 4)
    module = importlib.import_module("qdiv.induced")
    wrap, wrapped, clipped = module._positive_sum, [], []

    def checked(mat):
        got, ref = wrap(mat), PositiveOperator(mat)
        assert type(got) is PositiveOperator
        assert got.mat.tobytes() == ref.mat.tobytes() and got.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        wrapped.append(got.mat.tobytes())
        clipped.append(not np.array_equal(got.mat, 0.5 * (mat + mat.conj().T)))
        return got

    monkeypatch.setattr(module, "_positive_sum", checked)
    fn = CountingParent()
    # the last pair's X has rank 2 in d = 4, and the search clips its rounded kernel
    pairs = [(random_density(d, r, seed), random_density(d, r, seed + 1)) for d, r, seed in ((2, 2, 21), (2, 1, 20), (4, 1, 20))]
    for rho, sigma in pairs:
        induced(ParentDivergence.custom(fn), rho, sigma, 0.3)
    assert fn.seen == wrapped and len(wrapped) > 10 and any(clipped)


@pytest.mark.parametrize("dim, rank", [(d, r) for d in (2, 4, 8, 16) for r in (d, max(1, d // 2))])
def test_collision_margin_single_block_is_the_block_sum(dim, rank):
    # one matrix block takes its eigh and Q_2 directly; a zero second block sends the same pair through the
    # block sum, which adds 0.0 to it, so margins and decompositions agree bitwise
    a, b = random_density(dim, dim, 50 + dim).mat, random_density(dim, rank, 60 + dim).mat
    zero = np.zeros_like(a)
    for eps in (1e-9, 0.3, 0.999999):
        single, by_lam = _q2_margin([(a, b)], eps)
        summed, by_lam_sum = _q2_margin([(a, b), (zero, zero)], eps)
        for lam in (-30.0, -4.0, -0.5, 0.0, 3.0, 20.0):
            assert single(lam) == summed(lam)
            (evals, vecs), = by_lam[lam]
            assert np.array_equal(evals, by_lam_sum[lam][0][0]) and np.array_equal(vecs, by_lam_sum[lam][0][1])


def test_induced_evaluates_each_lambda_once():
    rho = random_density(3, 3, 23)
    sigma = random_density(3, 2, 24)
    for eps in (0.05, 0.5, 0.95):
        fn = CountingParent()
        res = induced(ParentDivergence.custom(fn), rho, sigma, eps)
        assert res.is_finite
        assert len(fn.seen) == len(set(fn.seen))


def test_induced_takes_few_margin_evaluations(monkeypatch):
    evaluated = []
    factory = ParentDivergence.margin_factory

    def counting_factory(self, *args):
        margin = factory(self, *args)

        def counted(lam):
            evaluated.append(lam)
            return margin(lam)

        return counted

    monkeypatch.setattr(ParentDivergence, "margin_factory", counting_factory)
    parents = [ParentDivergence.renyi(a) for a in (0.5, 1.5, 2.0, 3.0)]
    parents += [ParentDivergence.umegaki(), ParentDivergence.min_(), ParentDivergence.max_()]
    solves = 0
    for dim in (2, 4, 8):
        for seed in range(3):
            rho = random_density(dim, dim, 300 + 10 * dim + seed)
            sigma = random_density(dim, dim if seed else dim // 2, 400 + 10 * dim + seed)
            for parent in parents:
                for eps in (0.1, 0.3, 0.5):
                    # a +inf threshold comes from a closed-form limit, unsolved
                    solves += induced(parent, rho, sigma, eps).is_finite
    assert len(evaluated) <= 10 * solves


def test_unknown_builtin_kind_is_rejected():
    with pytest.raises(ValidationError):
        ParentDivergence("umegaki-fn")


def test_epsilon_near_one_proxy():
    rho = random_density(2, 2, 31)
    sigma = random_density(2, 2, 32)
    res = induced_renyi(rho, sigma, 2.0, 0.999)
    assert abs(res.normalized - d_alpha(rho, sigma, 2.0).value) <= 2e-2


def test_epsilon_near_zero_proxy():
    from qdiv.suites import conditioned_density

    rho = conditioned_density(2, 33)
    sigma = conditioned_density(2, 34)
    target = d_min(rho, sigma).value
    for alpha in (0.0, 0.5, 1.0, 2.0):
        res = induced_renyi(rho, sigma, alpha, 1e-4)
        assert abs(res.normalized - target) <= 5e-2


def test_parent_plus_log_inv_eps_upper_bound():
    rho = random_density(3, 3, 41)
    sigma = random_density(3, 3, 42)
    for eps in (0.2, 0.6):
        for parent in (ParentDivergence.renyi(2.0), ParentDivergence.umegaki()):
            res = induced(parent, rho, sigma, eps)
            assert res.normalized <= parent.evaluate(rho, sigma) + math.log2(1.0 / eps) + 1e-6


def test_block_property_trivial_t():
    rho = random_density(2, 2, 51)
    sigma = random_density(2, 2, 52)
    omega = random_density(2, 2, 53)
    rep = induced_block_property(rho, sigma, omega, 1.0, 0.3, ParentDivergence.renyi(2.0))
    assert rep.ok and rep.gap <= 1e-8


@pytest.mark.parametrize("parent_name", ["renyi2", "min", "umegaki"])
def test_block_property_random(parent_name):
    parent = {
        "renyi2": ParentDivergence.renyi(2.0),
        "min": ParentDivergence.min_(),
        "umegaki": ParentDivergence.umegaki(),
    }[parent_name]
    rho = random_density(2, 2, 61)
    sigma = random_density(2, 2, 62)
    omega = random_density(3, 3, 63)
    rep = induced_block_property(rho, sigma, omega, 1.0 / 3.0, 0.4, parent)
    assert rep.ok, rep
    # a caller that already holds D_ind(rho || sigma) gets the same report
    base = induced(parent, rho, sigma, 0.4)
    assert induced_block_property(rho, sigma, omega, 1.0 / 3.0, 0.4, parent, base) == rep


def test_block_property_validates_t():
    rho = random_density(2, 2, 71)
    with pytest.raises(ValidationError):
        induced_block_property(rho, rho, rho, 0.0, 0.3, ParentDivergence.min_())


@pytest.mark.parametrize("seed", range(4))
def test_aep_commuting_trend(seed):
    rng = rng_from_seed(seed + 900)
    p = 0.8 * (rng.random(2) + 0.1)
    p /= p.sum()
    q = 0.8 * (rng.random(2) + 0.1)
    q /= q.sum()
    dvg = float(np.sum(p * (np.log2(p) - np.log2(q))))
    rho_c = np.diag(p.astype(complex))
    sigma_c = np.diag(q.astype(complex))
    gaps = []
    rho_n, sigma_n = rho_c, sigma_c
    for n in range(1, 7):
        if n > 1:
            rho_n = np.kron(rho_n, rho_c)
            sigma_n = np.kron(sigma_n, sigma_c)
        res = induced_renyi(DensityOperator(rho_n), PositiveOperator(sigma_n), 2.0, 0.3)
        gaps.append(abs(res.raw / n - dvg))
    assert gaps[-1] <= gaps[0] + 1e-12
