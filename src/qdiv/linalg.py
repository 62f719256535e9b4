"""Dense Hermitian/positive operator algebra.

Everything downstream (divergences, induced divergences, decoding bounds)
reduces to eigendecompositions of small dense Hermitian matrices.  The
classes here validate structural invariants once, at construction, and cache
spectral data so the functional layer stays pure and cheap.

Conventions: logarithms elsewhere in the package are base 2; matrix
functions with a pole at zero always act on the support only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

try:  # numpy's private LAPACK gufuncs; without them every kernel calls the public np.linalg function
    from numpy.linalg import _umath_linalg
except ImportError:
    _umath_linalg = None

HERM_TOL = 1e-10
PSD_TOL = 1e-9
TRACE_TOL = 1e-9
RECON_TOL = 1e-8
DEFAULT_DIM_CAP = 2**13

_EPS = np.finfo(np.float64).eps


class ValidationError(ValueError):
    """An operator or argument failed a structural invariant."""


KERNEL_CALLS: dict = {}
"""Every matrix decomposition qdiv makes through `_lapack`: calls by (kind, key).

The kinds are ``eigh`` and ``eigvalsh``, keyed by the dimension, and
``svd`` and ``svdvals``, keyed by the shape (m, n).  The counts only grow;
read the difference of two snapshots.  No report reads them.  The QR
decompositions are not counted: the convex split's ``np.linalg.qr`` of a
wide factor and the one in each seeded generator of `qdiv.states`.
"""


def _lapack(kind: str, key, mat: np.ndarray, name: str, complex_sig: str, real_sig: str, spectrum=None, options=None):
    """The one LAPACK call behind `_eigh`, `_eigvalsh`, `_svd` and `_svdvals`, counted in `KERNEL_CALLS` as (kind, key).

    It calls numpy's gufunc ``name`` with signature ``complex_sig`` on a
    complex128 ``mat`` and ``real_sig`` on a float64 one: the call that the
    public ``np.linalg`` function named by the prefix of ``name`` (``eigh``,
    ``eigvalsh`` or ``svd``) makes once its wrapper has coerced and checked
    the input, so the output is bitwise numpy's.  The wrapper's coercion,
    type dispatch and error-state context cost more than LAPACK itself at
    d <= 4.  numpy 1.x keeps one SVD gufunc per orientation: ``svd_m...``
    for m < n and ``svd_n...`` otherwise, as its ``np.linalg.svd`` picks them.

    A LAPACK failure (an infinite entry, or a NaN one at most dimensions)
    fills the output with NaN and sets the invalid flag, which the caller's
    error state reports: under numpy's default a RuntimeWarning is printed,
    under a raising state the gufunc raises.  Either way (a NaN first value
    of the output, or of its entry ``spectrum`` when it is a tuple, or the
    raised error) the public function is called with the keyword ``options``;
    it raises `numpy.linalg.LinAlgError` on a failure and otherwise returns
    the same NaNs.  A numpy without the private module
    ``numpy.linalg._umath_linalg`` gets the public function on every call,
    still counted.
    """
    KERNEL_CALLS[kind, key] = KERNEL_CALLS.get((kind, key), 0) + 1
    if _umath_linalg is not None:
        gufunc = getattr(_umath_linalg, name, None)
        if gufunc is None:
            gufunc = getattr(_umath_linalg, name.replace("svd", "svd_m" if key[0] < key[1] else "svd_n", 1))
        try:
            out = gufunc(mat, signature=complex_sig if mat.dtype.kind == "c" else real_sig)
            vals = out if spectrum is None else out[spectrum]
            if not (vals.size and math.isnan(vals[0])):
                return out
        except (FloatingPointError, RuntimeWarning):
            pass
    return getattr(np.linalg, name.partition("_")[0])(mat, **(options or {}))


def _eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(mat)`` for one complex128 or float64 matrix (lower triangle), through `_lapack`."""
    return _lapack("eigh", len(mat), mat, "eigh_lo", "D->dD", "d->dd", 0)


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(mat)`` for one complex128 or float64 matrix, through `_lapack`."""
    return _lapack("eigvalsh", len(mat), mat, "eigvalsh_lo", "D->d", "d->d")


def _svd(mat: np.ndarray, full_matrices: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.linalg.svd(mat, full_matrices)``, (U, S, V^dag), for one complex128 or float64 matrix, through `_lapack`."""
    name = "svd_f" if full_matrices else "svd_s"
    return _lapack("svd", mat.shape, mat, name, "D->DdD", "d->ddd", 1, {"full_matrices": full_matrices})


def _svdvals(mat: np.ndarray) -> np.ndarray:
    """``np.linalg.svd(mat, compute_uv=False)`` for one complex128 or float64 matrix, through `_lapack`."""
    return _lapack("svdvals", mat.shape, mat, "svd", "D->d", "d->d", options={"compute_uv": False})


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two vectors or two matrices as one broadcast product, bitwise np.kron's without its generic reshaping."""
    if a.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def as_matrix(op) -> np.ndarray:
    """Coerce an operator wrapper or array-like to a square complex matrix."""
    mat = np.asarray(getattr(op, "mat", op), dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def support_cutoff(eigenvalues: np.ndarray, dim: int) -> float:
    """Eigenvalue threshold below which spectrum is treated as kernel."""
    top = float(eigenvalues.max()) if eigenvalues.size else 0.0
    return max(dim, 8) * _EPS * max(top, _EPS)


def _ascending_support(evals: np.ndarray) -> tuple[float, int]:
    """(cut, start) of an ascending spectrum, such as `_eigh` returns: its support is ``evals[start:]``.

    The cut is `support_cutoff` at the spectrum's size, read from the last
    eigenvalue, which is the maximum, so it is the same float; start is the
    index of the first eigenvalue above it.
    """
    cut = max(evals.size, 8) * _EPS * max(float(evals[-1]) if evals.size else 0.0, _EPS)
    return cut, int(evals.searchsorted(cut, side="right"))


class HermitianOperator:
    """A validated dense Hermitian matrix.

    Instances are immutable: the stored matrix is symmetrized once and its
    buffer is marked read-only, so they are safe to share across threads.
    """

    __slots__ = ("mat", "dim")

    def __init__(self, mat):
        mat = as_matrix(mat)
        if not np.all(np.isfinite(mat)):
            raise ValidationError("matrix has non-finite entries")
        scale = max(1.0, float(np.max(np.abs(mat), initial=0.0)))
        defect = float(np.max(np.abs(mat - mat.conj().T), initial=0.0))
        if defect > HERM_TOL * scale:
            raise ValidationError(f"matrix is not Hermitian (defect {defect:.3e})")
        herm = 0.5 * (mat + mat.conj().T)
        herm.setflags(write=False)
        self.mat = herm
        self.dim = herm.shape[0]

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"

    @property
    def trace(self) -> float:
        return float(np.trace(self.mat).real)


class PositiveOperator(HermitianOperator):
    """Hermitian operator with spectrum >= -PSD_TOL, clamped to >= 0.

    Eigenvalues in [-PSD_TOL, 0) come from round-off (tensor products,
    partial traces) and are clamped to zero; anything lower is an error.
    The spectral decomposition is computed once and cached.  Its
    eigenvalues always ascend, as `_eigh` returns them, also when a caller
    hands them over (`_vouched`, `_spectral_positive`): the cut and the
    support are read from the spectrum's ends (`_ascending_support`).
    """

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, mat):
        super().__init__(mat)
        evals, evecs = _eigh(self.mat)
        scale = max(1.0, float(evals[-1]) if evals.size else 1.0)
        if evals.size and evals[0] < -PSD_TOL * scale:
            raise ValidationError(
                f"matrix is not positive semidefinite (min eigenvalue {evals[0]:.3e})"
            )
        self._keep_spectrum(evals, evecs)

    def _keep_spectrum(self, evals: np.ndarray, evecs: np.ndarray) -> None:
        """Cache the eigendecomposition of ``self.mat``; a negative eigenvalue is clipped to 0 and the matrix rebuilt."""
        if evals.size and evals[0] < 0.0:
            evals = np.clip(evals, 0.0, None)
            rebuilt = (evecs * evals) @ evecs.conj().T
            rebuilt = 0.5 * (rebuilt + rebuilt.conj().T)
            rebuilt.setflags(write=False)
            self.mat = rebuilt
        evals.setflags(write=False)
        evecs.setflags(write=False)
        self.eigenvalues = evals
        self.eigenvectors = evecs

    @property
    def cutoff(self) -> float:
        return _ascending_support(self.eigenvalues)[0]

    @property
    def rank(self) -> int:
        return self.dim - _ascending_support(self.eigenvalues)[1]


class DensityOperator(PositiveOperator):
    """Positive operator with unit trace."""

    __slots__ = ()

    def __init__(self, mat):
        super().__init__(mat)
        tr = self.trace
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace is {tr!r}, expected 1")


def as_herm(op) -> HermitianOperator:
    return op if isinstance(op, HermitianOperator) else HermitianOperator(op)


def as_positive(op) -> PositiveOperator:
    return op if isinstance(op, PositiveOperator) else PositiveOperator(op)


def as_density(op) -> DensityOperator:
    return op if isinstance(op, DensityOperator) else DensityOperator(op)


def _exact_herm(mat: np.ndarray) -> HermitianOperator:
    """Wrap ``mat``, which the caller vouches is exactly Hermitian, with no check or copy."""
    op = object.__new__(HermitianOperator)
    mat.setflags(write=False)
    op.mat, op.dim = mat, mat.shape[0]
    return op


def _vouched(mat: np.ndarray, evals: np.ndarray, vecs: np.ndarray) -> PositiveOperator:
    """``mat`` with an eigendecomposition the caller vouches for, with no eigh or check.

    ``evals`` must be ascending and >= 0 and ``vecs`` unitary; they become
    the operator's cached spectrum.  The stored matrix is (mat + mat^dag) / 2,
    as the constructors store it.  The operator is a `DensityOperator` when
    ``evals`` sum to 1 within ``TRACE_TOL``, the constructor's own test.
    """
    unit = abs(float(evals.sum()) - 1.0) <= TRACE_TOL
    op = object.__new__(DensityOperator if unit else PositiveOperator)
    mat = 0.5 * (mat + mat.conj().T)
    for arr in (mat, evals, vecs):
        arr.setflags(write=False)
    op.mat, op.dim, op.eigenvalues, op.eigenvectors = mat, mat.shape[0], evals, vecs
    return op


def _spectral_positive(evals: np.ndarray, vecs: np.ndarray) -> PositiveOperator:
    """V diag(evals) V^dag from an eigendecomposition the caller vouches for (`_vouched`)."""
    return _vouched((vecs * evals) @ vecs.conj().T, evals, vecs)


def _positive_sum(mat: np.ndarray) -> PositiveOperator:
    """``PositiveOperator(mat)`` for a complex ``mat`` that the caller vouches is a sum of positive operators.

    The constructor's symmetrization, one `_eigh` and its clip of negative
    eigenvalues, without its checks.
    """
    op = object.__new__(PositiveOperator)
    herm = 0.5 * (mat + mat.conj().T)
    herm.setflags(write=False)
    op.mat, op.dim = herm, herm.shape[0]
    op._keep_spectrum(*_eigh(herm))
    return op


@dataclass(frozen=True)
class SupportProjector:
    projector: PositiveOperator
    rank: int
    cutoff: float


def spectral_fn(evals: np.ndarray, vecs: np.ndarray | None, power: float, cut: float) -> np.ndarray:
    """V diag(evals**power) V^dag from an eigendecomposition (values if vecs is None).

    Powers <= 0 act on the support only: eigenvalues at or below ``cut`` map
    to zero (pseudo-inverse).  Positive powers clip negative eigenvalues to
    zero first, which makes power 1 the positive part.
    """
    if power <= 0.0:
        vals = np.where(evals > cut, np.where(evals > cut, evals, 1.0) ** power, 0.0)
    else:
        vals = np.clip(evals, 0.0, None) ** power
    if vecs is None:
        return vals
    return (vecs * vals) @ vecs.conj().T


def _q2_eigenbasis(
    r_mat: np.ndarray, evals: np.ndarray, vecs: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """(Q_2(rho || X), r_eig, k_vals) from the eigendecomposition X = V diag(evals) V^dag.

    r_eig = V^dag rho V is rho in the eigenbasis of X, and k_vals are the
    eigenvalues of K = X^(-1/2) on the support of X.  Q_2 = Tr[(rho K)^2] =
    sum_ij k_i k_j |r_eig_ij|^2: a sum of nonnegative terms, with no
    eigendecomposition beyond X's.  ``evals`` ascend, as `_eigh` returns them.
    """
    r_eig = vecs.conj().T @ r_mat @ vecs
    q, k_vals = _q2_rotated(r_eig, evals)
    return q, r_eig, k_vals


def _q2_rotated(
    r_eig: np.ndarray, evals: np.ndarray, cut: float | None = None
) -> tuple[float, np.ndarray]:
    """(Q_2, k_vals) from rho already rotated into the eigenbasis of X, whose eigenvalues are ``evals``.

    Without a ``cut``, ``evals`` ascend and the support is read from their
    ends (`_ascending_support`): on full support k_vals = evals^(-1/2), with
    no mask.  A block of a block-diagonal X, or a spectrum in no order,
    passes the cut of the whole spectrum.  Such a spectrum, or one with a
    kernel, takes the masked `spectral_fn`, whose floats on the support
    are the same.
    """
    start = None
    if cut is None:
        cut, start = _ascending_support(evals)
    k_vals = evals**-0.5 if start == 0 else spectral_fn(evals, None, -0.5, cut)
    return float(k_vals @ (r_eig.real**2 + r_eig.imag**2) @ k_vals), k_vals


def _sandwiched_q(
    r_mat: np.ndarray, evals: np.ndarray, vecs: np.ndarray, alpha: float, r_eig: tuple | None = None
) -> float:
    """Q_alpha(rho || X) for finite alpha > 0, from the eigendecomposition of X, its eigenvalues ascending.

    The evaluator of `q_alpha` and the fidelity; the induced margins read
    Q_alpha in rho's eigenbasis (`ParentDivergence.margin_factory`).  alpha = 2
    is read in the eigenbasis of X (`_q2_eigenbasis`): two matrix products and
    a sum of nonnegative terms, so it needs no second eigendecomposition.
    Other orders take h = V_on diag(lambda_on^((1-a)/2a)) on the support of X
    and Q = sum of a-th powers of the eigenvalues of h^dag rho h (rank x
    rank): the kernel of X never enters, so no round-off eigenvalue of it is
    raised to a power below 1.  That route keeps the fidelity (a = 1/2) at
    exactly 1 on equal states.  At orders <= 1/2 the kernel of rho is kept
    out too, as the induced margins do: with rho = U diag(r) U^dag from
    ``r_eig`` (rho's ascending eigendecomposition, computed here when not
    given) and g = diag(r_on^1/2) U_on^dag h, Q sums the a-th powers of the
    eigenvalues of the smaller of g g^dag and g^dag g, which share their
    nonzero eigenvalues with h^dag rho h.  A rho of full support keeps
    h^dag rho h.
    """
    if alpha == 2.0:
        return _q2_eigenbasis(r_mat, evals, vecs)[0]
    j = _ascending_support(evals)[1]
    h = vecs[:, j:] * evals[j:] ** ((1.0 - alpha) / (2.0 * alpha))
    k = 0
    if alpha <= 0.5:
        r_vals, r_vecs = _eigh(r_mat) if r_eig is None else r_eig
        k = _ascending_support(r_vals)[1]  # supp rho is the block from k on
    if k:
        g = np.sqrt(r_vals[k:])[:, None] * (r_vecs[:, k:].conj().T @ h)
        inner = g @ g.conj().T if g.shape[0] < g.shape[1] else g.conj().T @ g
    else:
        inner = h.conj().T @ r_mat @ h
    ev = np.clip(_eigvalsh(0.5 * (inner + inner.conj().T)), 0.0, None)
    return float(np.sum(ev**alpha))


def mat_fn(op, f: Callable[[float], float], support_only: bool = False) -> HermitianOperator:
    """Apply a scalar function to the spectrum of a positive operator.

    With ``support_only`` set, eigenvalues at or below the support cutoff map
    to zero without evaluating ``f`` there; this is how negative powers such
    as x**-1/2 are taken as pseudo-inverses on the support.
    """
    pos = as_positive(op)
    evals = pos.eigenvalues
    if support_only:
        cut = pos.cutoff
        out = np.array([f(x) if x > cut else 0.0 for x in evals], dtype=np.float64)
    else:
        out = np.array([f(x) for x in evals], dtype=np.float64)
    v = pos.eigenvectors
    return HermitianOperator((v * out) @ v.conj().T)


def support_projector(op) -> SupportProjector:
    """Projector onto the support (eigenvalues above the cutoff)."""
    pos = as_positive(op)
    cut = pos.cutoff
    mask = pos.eigenvalues > cut
    v = pos.eigenvectors[:, mask]
    proj = v @ v.conj().T
    return SupportProjector(PositiveOperator(proj), int(mask.sum()), cut)


def tensor(*ops) -> HermitianOperator:
    """Kronecker product of Hermitian operators."""
    if not ops:
        raise ValidationError("tensor() needs at least one operator")
    out = as_herm(ops[0]).mat
    for op in ops[1:]:
        out = _kron(out, as_herm(op).mat)
    return HermitianOperator(out)


def _ptrace(mat: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    dims = list(dims)
    n = len(dims)
    if math.prod(dims) != mat.shape[0]:
        raise ValidationError(f"dims {dims} do not multiply to {mat.shape[0]}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValidationError(f"keep indices {keep} out of range for {n} systems")
    # a traced system carries the same label on both sides, so einsum sums a diagonal view
    cols = [n + i if i in keep else i for i in range(n)]
    t = np.einsum(mat.reshape(dims + dims), list(range(n)) + cols, keep + [n + k for k in keep])
    d_keep = math.prod(dims[k] for k in keep)
    return t.reshape(d_keep, d_keep)


def partial_trace(op, dims: Sequence[int], keep: Iterable[int]) -> HermitianOperator:
    """Trace out every subsystem not listed in ``keep`` (order preserved)."""
    mat = as_herm(op).mat
    return HermitianOperator(_ptrace(mat, dims, list(keep)))


def permute_systems(op, dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors so input subsystem order[i] lands at slot i."""
    mat = as_matrix(op)
    dims = list(dims)
    n = len(dims)
    order = list(order)
    if sorted(order) != list(range(n)):
        raise ValidationError(f"order {order} is not a permutation of {n} systems")
    if int(np.prod(dims)) != mat.shape[0]:
        raise ValidationError(f"dims {dims} do not multiply to {mat.shape[0]}")
    t = mat.reshape(dims + dims)
    perm = order + [n + k for k in order]
    t = np.transpose(t, perm)
    d = int(np.prod(dims))
    return np.ascontiguousarray(t.reshape(d, d))


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of rho - sigma."""
    a, b = as_matrix(rho), as_matrix(sigma)
    if a.shape != b.shape:
        raise ValidationError("trace_distance needs equal dimensions")
    evals = _eigvalsh(a - b)
    return 0.5 * float(np.sum(np.abs(evals)))


def fidelity_and_purified(rho, sigma) -> tuple[float, float]:
    """Fidelity ||sqrt(rho) sqrt(sigma)||_1 and purified distance sqrt(1-F^2)."""
    r = as_positive(rho)
    s = as_positive(sigma)
    if r.dim != s.dim:
        raise ValidationError("fidelity needs equal dimensions")
    q_half = _sandwiched_q(r.mat, s.eigenvalues, s.eigenvectors, 0.5, (r.eigenvalues, r.eigenvectors))
    return _fidelity_and_purified(q_half)


def _fidelity_and_purified(q_half: float) -> tuple[float, float]:
    """(F, sqrt(1 - F^2)) from the sandwiched Q_1/2(rho || sigma), F clamped to [0, 1]."""
    fid = min(max(q_half, 0.0), 1.0)
    return fid, math.sqrt(max(0.0, 1.0 - fid * fid))


def positive_part_trace(op) -> float:
    """Sum of the positive eigenvalues, i.e. Tr of the positive part."""
    evals = _eigvalsh(as_herm(op).mat)
    return float(np.sum(evals[evals > 0.0]))


def op_meet(rho, sigma) -> HermitianOperator:
    """Operator meet (rho + sigma - |rho - sigma|) / 2."""
    a = as_positive(rho).mat
    b = as_positive(sigma).mat
    if a.shape != b.shape:
        raise ValidationError("op_meet needs equal dimensions")
    diff = a - b
    evals, evecs = _eigh(diff)
    absdiff = (evecs * np.abs(evals)) @ evecs.conj().T
    return HermitianOperator(0.5 * (a + b - absdiff))
