"""State and channel construction, random generation, and file IO.

Random states come from a seeded Ginibre construction with Box-Muller
normals drawn from a PCG64 uniform stream, so every report is reproducible
from its seed alone.  Files use a dense JSON schema with separate real and
imaginary parts (see `save_state`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import (
    DEFAULT_DIM_CAP,
    RECON_TOL,
    TRACE_TOL,
    DensityOperator,
    HermitianOperator,
    ValidationError,
    _ascending_support,
    _kron,
    as_density,
    as_matrix,
    partial_trace,
    permute_systems,
    _exact_herm,
)


def dim_cap() -> int:
    """Composite-dimension cap; override with the QDIV_DIM_CAP env var."""
    raw = os.environ.get("QDIV_DIM_CAP")
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValidationError(f"QDIV_DIM_CAP must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise ValidationError("QDIV_DIM_CAP must be positive")
    return cap


def check_dim_cap(dim: int) -> None:
    limit = dim_cap()
    if dim > limit:
        raise ValidationError(f"composite dimension {dim} exceeds cap {limit}")


def _power_exceeds(base: int, factor: int, power: int, limit: int) -> bool:
    """Whether base * factor**power > limit, multiplying only until the product passes the limit."""
    for _ in range(power if factor > 1 else 0):
        if base > limit:
            break
        base *= factor
    return base > limit


def rng_from_seed(seed: int) -> np.random.Generator:
    if int(seed) < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(np.random.PCG64(int(seed)))


def _box_muller(rng: np.random.Generator, shape) -> np.ndarray:
    u1 = 1.0 - rng.random(shape)  # in (0, 1]
    u2 = rng.random(shape)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def complex_ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    re = _box_muller(rng, (rows, cols))
    im = _box_muller(rng, (rows, cols))
    return (re + 1j * im) / math.sqrt(2.0)


def random_density(dim: int, rank: int, seed: int) -> DensityOperator:
    """Seeded random density operator G G^dag / Tr with G of shape dim x rank."""
    if not 1 <= rank <= dim:
        raise ValidationError(f"rank {rank} out of range for dim {dim}")
    rng = rng_from_seed(seed)
    g = complex_ginibre(rng, dim, rank)
    mat = g @ g.conj().T
    return DensityOperator(mat / np.trace(mat).real)


def random_probability(k: int, rng: np.random.Generator) -> np.ndarray:
    w = np.abs(_box_muller(rng, k)) + 1e-12
    return w / w.sum()


def basis_state(index: int, dim: int) -> DensityOperator:
    vec = np.zeros(dim, dtype=np.complex128)
    vec[index] = 1.0
    return DensityOperator(np.outer(vec, vec.conj()))


def maximally_mixed(dim: int) -> DensityOperator:
    return DensityOperator(np.eye(dim, dtype=np.complex128) / dim)


def maximally_entangled(dim: int) -> DensityOperator:
    vec = np.zeros(dim * dim, dtype=np.complex128)
    for i in range(dim):
        vec[i * dim + i] = 1.0 / math.sqrt(dim)
    return DensityOperator(np.outer(vec, vec.conj()))


def _validate_probs(probs) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError("probability vector must be a nonempty 1-D array")
    if not np.all(np.isfinite(p)):
        raise ValidationError("probability vector has non-finite entries")
    if np.any(p < -TRACE_TOL):
        raise ValidationError("probability vector has negative entries")
    if abs(p.sum() - 1.0) > TRACE_TOL:
        raise ValidationError(f"probabilities sum to {p.sum()!r}, expected 1")
    return np.clip(p, 0.0, None)


@dataclass(frozen=True)
class CqState:
    """Classical-quantum state sum_x p_x |x><x| (x) sigma_x."""

    probs: np.ndarray
    outputs: tuple[DensityOperator, ...]

    @property
    def k(self) -> int:
        return len(self.outputs)

    @property
    def output_dim(self) -> int:
        return self.outputs[0].dim

    def matrix(self) -> np.ndarray:
        d = self.output_dim
        out = np.zeros((self.k * d, self.k * d), dtype=np.complex128)
        for x, (p, s) in enumerate(zip(self.probs, self.outputs)):
            out[x * d : (x + 1) * d, x * d : (x + 1) * d] = p * s.mat
        return out

    def density(self) -> DensityOperator:
        return DensityOperator(self.matrix())

    def marginal_x(self) -> np.ndarray:
        return np.diag(self.probs.astype(np.complex128))

    def marginal_b(self) -> np.ndarray:
        d = self.output_dim
        out = np.zeros((d, d), dtype=np.complex128)
        for p, s in zip(self.probs, self.outputs):
            out += p * s.mat
        return out


def cq_state(probs, outputs: Sequence) -> CqState:
    p = _validate_probs(probs)
    ops = tuple(as_density(o) for o in outputs)
    if len(ops) != p.size:
        raise ValidationError("probability vector and output list lengths differ")
    dims = {o.dim for o in ops}
    if len(dims) != 1:
        raise ValidationError(f"cq outputs have mixed dimensions {sorted(dims)}")
    return CqState(p, ops)


@dataclass(frozen=True)
class Channel:
    """Classical-quantum channel x -> sigma_x given as a list of outputs."""

    outputs: tuple[DensityOperator, ...]

    @property
    def input_size(self) -> int:
        return len(self.outputs)

    @property
    def output_dim(self) -> int:
        return self.outputs[0].dim

    def cq_state(self, probs) -> CqState:
        return cq_state(probs, self.outputs)

    def is_classical(self) -> bool:
        for out in self.outputs:
            off = out.mat - np.diag(np.diag(out.mat))
            if np.max(np.abs(off), initial=0.0) > 1e-12:
                return False
        return True

    def stochastic_matrix(self) -> np.ndarray:
        if not self.is_classical():
            raise ValidationError("channel outputs are not diagonal")
        return np.stack([np.diag(o.mat).real for o in self.outputs])


def channel(outputs: Sequence) -> Channel:
    ops = tuple(as_density(o) for o in outputs)
    if not ops:
        raise ValidationError("channel needs at least one output state")
    dims = {o.dim for o in ops}
    if len(dims) != 1:
        raise ValidationError(f"channel outputs have mixed dimensions {sorted(dims)}")
    return Channel(ops)


def classical_channel(stochastic) -> Channel:
    """Channel whose outputs are diagonal states given by the rows."""
    mat = np.asarray(stochastic, dtype=np.float64)
    if mat.ndim != 2:
        raise ValidationError("stochastic matrix must be 2-D")
    outs = [DensityOperator(np.diag(row.astype(np.complex128))) for row in mat]
    return channel(outs)


class Purification(NamedTuple):
    state: DensityOperator  # pure state on R (x) A
    dim_ref: int
    dim_sys: int


def purify(rho) -> Purification:
    """Rank-1 dilation on R (x) A with |R| = rank(rho)."""
    dens = as_density(rho)
    j = _ascending_support(dens.eigenvalues)[1]
    evals = dens.eigenvalues[j:]
    evecs = dens.eigenvectors[:, j:]
    r = evals.size
    d = dens.dim
    vec = np.zeros(r * d, dtype=np.complex128)
    for i in range(r):
        vec[i * d : (i + 1) * d] = math.sqrt(evals[i]) * evecs[:, i]
    vec /= np.linalg.norm(vec)
    return Purification(DensityOperator(np.outer(vec, vec.conj())), r, d)


def _slot_products(first: np.ndarray, other: np.ndarray, d_first: int, d_slot: int, n: int):
    """Yield first (x) other^(x)(n-1) on F A^n with first's A factor moved to slot x = 0..n-1."""
    base = first
    for _ in range(n - 1):
        base = _kron(base, other)
    sys_dims = [d_first] + [d_slot] * n
    for x in range(n):
        order = list(range(n + 1))
        order[1], order[1 + x] = order[1 + x], order[1]
        yield permute_systems(base, sys_dims, order)


@dataclass(frozen=True)
class PairwiseFamily:
    """States tau_x on R A^n whose RA_y marginals are rho (y=x) or sigma.

    Members are `HermitianOperator`s: slot permutations of products of
    validated states are states, and exactly Hermitian, so they skip the
    check and the symmetrizing copy; a function that needs a state
    validates a member at its own entry.
    """

    rho: DensityOperator  # on R (x) A
    sigma: DensityOperator  # on R (x) A
    dims: tuple[int, int]
    n: int
    members: tuple[HermitianOperator, ...]

    def marginal(self, x: int, y: int) -> np.ndarray:
        d_r, d_a = self.dims
        dims = [d_r] + [d_a] * self.n
        return partial_trace(self.members[x], dims, [0, 1 + y]).mat

    def verify_marginals(self) -> float:
        """Largest deviation from the defining marginal conditions."""
        worst = 0.0
        for x in range(self.n):
            for y in range(self.n):
                target = self.rho.mat if x == y else self.sigma.mat
                dev = float(np.max(np.abs(self.marginal(x, y) - target), initial=0.0))
                worst = max(worst, dev)
        if worst > RECON_TOL:
            raise ValidationError(f"pairwise marginals deviate by {worst:.3e}")
        return worst


def pairwise_tensor_family(rho_ra, dims: tuple[int, int], sigma_a, n: int) -> PairwiseFamily:
    """tau_x = rho on (R, A_x) tensored with sigma on every other slot."""
    rho = as_density(rho_ra)
    sigma = as_density(sigma_a)
    d_r, d_a = dims
    if rho.dim != d_r * d_a:
        raise ValidationError(f"rho dimension {rho.dim} != {d_r}*{d_a}")
    if sigma.dim != d_a:
        raise ValidationError(f"sigma dimension {sigma.dim} != {d_a}")
    if n < 1:
        raise ValidationError("n must be >= 1")
    if _power_exceeds(d_r, d_a, n, dim_cap()):
        raise ValidationError(f"composite dimension {d_r}*{d_a}^{n} exceeds cap {dim_cap()}")
    members = tuple(_exact_herm(m) for m in _slot_products(rho.mat, sigma.mat, d_r, d_a, n))
    rho_r = partial_trace(rho, [d_r, d_a], [0]).mat
    sigma_ra = DensityOperator(_kron(rho_r, sigma.mat))
    return PairwiseFamily(rho, sigma_ra, (d_r, d_a), n, members)


def random_isometry_channel(
    dim_in: int, dim_out: int, dim_env: int, seed: int
) -> list[np.ndarray]:
    """Kraus operators of a random isometry-then-partial-trace channel."""
    rng = rng_from_seed(seed)
    g = complex_ginibre(rng, dim_out * dim_env, dim_in)
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r).real + 1e-300)
    return [q[e * dim_out : (e + 1) * dim_out, :] for e in range(dim_env)]


def apply_kraus(op, kraus: Sequence[np.ndarray]) -> np.ndarray:
    mat = as_matrix(op)
    out = np.zeros((kraus[0].shape[0], kraus[0].shape[0]), dtype=np.complex128)
    for k in kraus:
        out += k @ mat @ k.conj().T
    return out


# ---------------------------------------------------------------------------
# File schema: {"dims": [...], "re": [[...]], "im": [[...]], "label": "..."}
# Channels: {"k": k, "outputs": [state-dict, ...]}.  17 significant digits.
# ---------------------------------------------------------------------------


def _sig17(x: float) -> float:
    return float(f"{float(x):.17g}")


def _matrix_payload(mat: np.ndarray) -> dict:
    return {
        "re": [[_sig17(v) for v in row] for row in mat.real],
        "im": [[_sig17(v) for v in row] for row in mat.imag],
    }


def _matrix_from_payload(obj: dict) -> np.ndarray:
    try:
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj["im"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed state payload: {exc}") from exc
    if re.ndim != 2 or re.shape != im.shape or re.shape[0] != re.shape[1]:
        raise ValidationError(f"state payload is not square: re {re.shape}, im {im.shape}")
    return re + 1j * im


@dataclass(frozen=True)
class StateRecord:
    state: DensityOperator
    dims: tuple[int, ...]
    label: str | None = None


def state_payload(rho, dims: Sequence[int] | None = None, label: str | None = None) -> dict:
    dens = as_density(rho)
    if dims is None:
        dims = [dens.dim]
    dims = [int(d) for d in dims]
    if int(np.prod(dims)) != dens.dim:
        raise ValidationError(f"dims {dims} do not multiply to {dens.dim}")
    payload = {"dims": dims}
    payload.update(_matrix_payload(dens.mat))
    if label is not None:
        payload["label"] = label
    return payload


def record_from_payload(obj: dict) -> StateRecord:
    if not isinstance(obj, dict):
        raise ValidationError("state file must contain a JSON object")
    mat = _matrix_from_payload(obj)
    dims = obj.get("dims", [mat.shape[0]])
    if not isinstance(dims, list) or not all(isinstance(d, int) and d > 0 for d in dims):
        raise ValidationError(f"invalid dims field {dims!r}")
    if int(np.prod(dims)) != mat.shape[0]:
        raise ValidationError(f"dims {dims} do not match matrix of size {mat.shape[0]}")
    return StateRecord(DensityOperator(mat), tuple(dims), obj.get("label"))


def save_state(rho, path, dims: Sequence[int] | None = None, label: str | None = None) -> None:
    payload = state_payload(rho, dims=dims, label=label)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_state(path) -> StateRecord:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read state file {path}: {exc}") from exc
    return record_from_payload(obj)


def save_channel(chan: Channel, path, label: str | None = None) -> None:
    payload = {
        "k": chan.input_size,
        "outputs": [state_payload(o) for o in chan.outputs],
    }
    if label is not None:
        payload["label"] = label
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_channel(path) -> Channel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read channel file {path}: {exc}") from exc
    if not isinstance(obj, dict) or "outputs" not in obj:
        raise ValidationError("channel file must contain an 'outputs' list")
    outs = [record_from_payload(o).state for o in obj["outputs"]]
    chan = channel(outs)
    if "k" in obj and obj["k"] != chan.input_size:
        raise ValidationError(f"channel file k={obj['k']} but has {chan.input_size} outputs")
    return chan
