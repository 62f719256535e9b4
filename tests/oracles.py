"""Independent test-only oracles.

Everything here recomputes expected values through a route that shares no
code with the package internals: greedy classical Neyman-Pearson, dense grid
searches over effects and reference states, and scalar bisections on
classical formulas.  The one exception is `pgm`, the pretty good measurement
built effect by effect: it takes the package's validated operators and
support cutoff, so that its effects live on the same support of eta as
`pbd_simulate`'s success probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from qdiv.linalg import (
    RECON_TOL,
    PositiveOperator,
    ValidationError,
    as_positive,
    spectral_fn,
    support_cutoff,
)


def classical_np_beta(p, q, eps: float) -> float:
    """Exact classical Neyman-Pearson optimum by likelihood-ratio greedy."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    target = 1.0 - eps
    order = sorted(
        range(p.size),
        key=lambda i: -(p[i] / q[i] if q[i] > 0 else math.inf),
    )
    got = beta = 0.0
    for i in order:
        if got >= target - 1e-15:
            break
        if p[i] <= 0.0:
            continue
        take = min(1.0, (target - got) / p[i])
        got += take * p[i]
        beta += take * q[i]
    return beta


def bloch_grid_beta(rho_mat, sigma_mat, eps: float, n: int = 40, zooms: int = 6) -> float:
    """Brute-force qubit hypothesis test over discretized effects.

    Effects are V diag(a, b) V^dag; the third Euler angle of V cancels in
    that product, so the basis grid is two angles.  Grid refinement zooms
    around the incumbent to reach ~1e-3 accuracy in -log2(beta).
    """
    target = 1.0 - eps
    r = np.asarray(rho_mat)
    s = np.asarray(sigma_mat)
    tr_s = float(np.trace(s).real)
    th_lo, th_hi, ph_lo, ph_hi = 0.0, math.pi, 0.0, 2 * math.pi
    a_lo, a_hi, b_lo, b_hi = 0.0, 1.0, 0.0, 1.0
    best_beta = math.inf
    best_pt = None
    for _ in range(zooms):
        th = np.linspace(th_lo, th_hi, n)
        ph = np.linspace(ph_lo, ph_hi, n)
        tt, pp = np.meshgrid(th, ph, indexing="ij")
        v0 = np.cos(tt / 2)
        v1 = np.exp(1j * pp) * np.sin(tt / 2)
        x = (
            np.abs(v0) ** 2 * r[0, 0].real
            + np.abs(v1) ** 2 * r[1, 1].real
            + 2 * np.real(np.conj(v0) * v1 * r[1, 0])
        ).ravel()
        y = (
            np.abs(v0) ** 2 * s[0, 0].real
            + np.abs(v1) ** 2 * s[1, 1].real
            + 2 * np.real(np.conj(v0) * v1 * s[1, 0])
        ).ravel()
        a = np.linspace(a_lo, a_hi, n)
        b = np.linspace(b_lo, b_hi, n)
        aa, bb = np.meshgrid(a, b, indexing="ij")
        aa = aa.ravel()
        bb = bb.ravel()
        pass_prob = np.outer(aa, x) + np.outer(bb, 1.0 - x)
        beta = np.outer(aa, y) + np.outer(bb, tr_s - y)
        beta[pass_prob < target - 1e-12] = np.inf
        flat = int(np.argmin(beta))
        i_ab, i_v = divmod(flat, x.size)
        if beta.flat[flat] < best_beta:
            best_beta = float(beta.flat[flat])
            best_pt = (aa[i_ab], bb[i_ab], tt.ravel()[i_v], pp.ravel()[i_v])
        a_c, b_c, t_c, p_c = best_pt
        da, db = (a_hi - a_lo) / 6, (b_hi - b_lo) / 6
        dt, dp = (th_hi - th_lo) / 6, (ph_hi - ph_lo) / 6
        a_lo, a_hi = max(0.0, a_c - da), min(1.0, a_c + da)
        b_lo, b_hi = max(0.0, b_c - db), min(1.0, b_c + db)
        th_lo, th_hi = max(0.0, t_c - dt), min(math.pi, t_c + dt)
        ph_lo, ph_hi = p_c - dp, p_c + dp
    return best_beta


def classical_q_alpha(p, q, alpha: float) -> float:
    """sum_x p_x^alpha q_x^(1-alpha) over the support of p."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi <= 0.0:
            continue
        total += pi**alpha * qi ** (1.0 - alpha)
    return total


def classical_induced_collision_t(p, q, eps: float, tol: float = 1e-13) -> float:
    """Solve sum_x p_x^2 / (p_x + t q_x) = 1 - eps for t by scalar bisection."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    target = 1.0 - eps

    def value(t: float) -> float:
        mask = p > 0
        return float(np.sum(p[mask] ** 2 / (p[mask] + t * q[mask])))

    lo, hi = 0.0, 1.0
    while value(hi) > target:
        hi *= 2.0
        if hi > 2.0**200:
            raise RuntimeError("no finite threshold")
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if value(mid) >= target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def q2_trace_form(rho_mat, x_mat, cut: float = 1e-12) -> float:
    """Q_2(rho || X) = Tr[rho K rho K] with K = X^(-1/2) on the support of X."""
    ev, v = np.linalg.eigh(x_mat)
    inv_sqrt = np.array([e**-0.5 if e > cut else 0.0 for e in ev])
    k = (v * inv_sqrt) @ v.conj().T
    return float(np.trace(rho_mat @ k @ rho_mat @ k).real)


def _mp_hermitian(mat):
    """Exact mpmath copy of a Hermitian float matrix, symmetrized in mpmath.

    ``mp.eighe`` reads one triangle only, so the copy is made exactly
    Hermitian first; float entries convert to mpmath without rounding.
    """
    from mpmath import mp

    a = np.asarray(mat, dtype=np.complex128)
    n = a.shape[0]
    out = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            out[i, j] = (mp.mpc(complex(a[i, j])) + mp.conj(mp.mpc(complex(a[j, i])))) / 2
    return out


def _mp_q2(r, x):
    """Tr[rho K rho K] with K = X^(-1/2) on the support of X, in the current precision."""
    from mpmath import mp

    evals, vecs = mp.eighe(x)
    n = x.rows
    top = max(evals[i] for i in range(n))
    k = mp.matrix(n, n)
    for i in range(n):
        if evals[i] > mp.mpf("1e-30") * top:  # kernel eigenvalues sit at the working precision
            col = vecs[:, i]
            k += (col * col.H) / mp.sqrt(evals[i])
    kr = k * r
    kr2 = kr * kr
    return mp.re(sum(kr2[i, i] for i in range(n)))


def mp_q2(rho_mat, x_mat, dps: int = 60) -> float:
    """Q_2(rho || X) at ``dps`` significant digits, by mpmath eigendecomposition."""
    from mpmath import mp

    with mp.workdps(dps):
        return float(_mp_q2(_mp_hermitian(rho_mat), _mp_hermitian(x_mat)))


def mp_induced_collision(
    rho_mat, sigma_mat, eps: float, near: float, half_width: float = 2e-11, dps: int = 50, cut: float = 1e-12
) -> float:
    """The raw induced D_2: the lambda where Q_2(rho || rho + 2^lambda sigma) falls to 1 - eps.

    sigma is read as the rounding of a state whose kernel is exact, as in
    `mp_fidelity`.  The margin decreases to the weight of rho on the kernel
    of sigma, so the value is +inf when that weight is at least 1 - eps.
    Otherwise the root is bisected inside [near - half_width, near +
    half_width] to a width below 5e-15, after the margin is
    checked to be >= 0 at its lower end and < 0 at its upper end; a root
    outside the bracket raises ValueError.
    """
    from mpmath import mp

    with mp.workdps(dps):
        r, s = _mp_hermitian(rho_mat), _mp_hermitian(sigma_mat)
        evals, vecs = mp.eighe(s)
        floor = cut * max(evals)
        s = vecs * mp.diag([v if v > floor else 0 for v in evals]) * vecs.H
        kernel = [i for i in range(s.rows) if evals[i] <= floor]
        leak = mp.re(sum(((vecs[:, i].H * r * vecs[:, i])[0] for i in kernel), mp.mpf(0)))
        target = 1 - mp.mpf(eps)
        if leak >= target:
            return math.inf
        if not math.isfinite(near):
            raise ValueError(f"the reference threshold is finite: weight {float(leak)} off supp sigma")

        def margin(lam):
            return _mp_q2(r, r + mp.mpf(2) ** lam * s) - target

        lo, hi = mp.mpf(near) - mp.mpf(half_width), mp.mpf(near) + mp.mpf(half_width)
        if margin(lo) < 0:
            raise ValueError(f"the reference threshold is below {near} - {half_width}")
        if margin(hi) >= 0:
            raise ValueError(f"the reference threshold is above {near} + {half_width}")
        while hi - lo > 5e-15:
            mid = (lo + hi) / 2
            if margin(mid) >= 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def mp_fidelity(rho_mat, sigma_mat, dps: int = 40, cut: float = 1e-12) -> float:
    """||sqrt(rho) sqrt(sigma)||_1 = Tr sqrt(sqrt(sigma) rho sqrt(sigma)) at ``dps`` digits.

    Both arguments are read as the roundings of states whose kernels are
    exact: their eigenvalues at most ``cut`` times the largest are dropped,
    so the reference is symmetric in them.  The kernel of the sandwich then
    sits at the working precision, so the square roots of its eigenvalues
    are far below double precision.
    """
    from mpmath import mp

    def on_support(mat, fn):  # fn of the eigenvalues above the cut, 0 on the rest
        evals, vecs = mp.eighe(_mp_hermitian(mat))
        floor = cut * max(evals)
        return vecs * mp.diag([fn(v) if v > floor else 0 for v in evals]) * vecs.H

    with mp.workdps(dps):
        r, root = on_support(rho_mat, lambda v: v), on_support(sigma_mat, mp.sqrt)
        inner = root * r * root
        return float(sum(mp.sqrt(max(v, 0)) for v in mp.eighe((inner + inner.H) / 2, eigvals_only=True)))


def mp_q2_directional_derivative(rho_mat, x_mat, h_mat, dps: int = 60, step: str = "1e-20") -> float:
    """d/dt Q_2(rho || X + tH) at t = 0 by an mpmath central difference.

    At 60 digits a step of 1e-20 leaves a truncation error of order 1e-40
    and about 40 correct digits after the cancellation.
    """
    from mpmath import mp

    with mp.workdps(dps):
        r, x, h = (_mp_hermitian(a) for a in (rho_mat, x_mat, h_mat))
        t = mp.mpf(step)
        return float((_mp_q2(r, x + t * h) - _mp_q2(r, x - t * h)) / (2 * t))


def grid_i2_classical(joint, da: int, db: int, step: float = 1e-3) -> float:
    """I_2 for a classical (diagonal) bipartite pmf by grid over diagonal sigma."""
    joint = np.asarray(joint, dtype=float).reshape(da, db)
    pa = joint.sum(axis=1)
    best = math.inf
    if db != 2:
        raise ValueError("grid oracle written for |B| = 2")
    for s in np.arange(step, 1.0, step):
        sig = np.array([s, 1.0 - s])
        total = 0.0
        for a in range(da):
            for b in range(db):
                if joint[a, b] > 0:
                    total += joint[a, b] ** 2 / (pa[a] * sig[b])
        best = min(best, math.log2(total))
    return best


def grid_induced_mi_classical(joint, da: int, db: int, eps: float, tol: float = 1e-9) -> float:
    """Raw induced collision MI for a classical pmf, minimized over diagonal sigma^A.

    sigma^A = diag(s, 1 - s); log2 t*(s) is convex in s (lambda* is convex in
    sigma), so a golden-section search over s in (0, 1) finds its minimum.
    The search stops once the bracket is narrower than ``tol``: that is
    tighter in s than a grid of step 1e-4, and it never evaluates an
    endpoint, where sigma^A is singular.
    """
    joint = np.asarray(joint, dtype=float).reshape(da, db)
    pb = joint.sum(axis=0)
    if da != 2:
        raise ValueError("oracle written for |A| = 2")
    flat = joint.ravel()

    def value(s: float) -> float:
        tau = np.outer([s, 1.0 - s], pb).ravel()
        return math.log2(classical_induced_collision_t(flat, tau, eps))

    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    left, right = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    f_left, f_right = value(left), value(right)
    while hi - lo > tol:
        if f_left <= f_right:
            hi, right, f_right = right, left, f_left
            left = hi - shrink * (hi - lo)
            f_left = value(left)
        else:
            lo, left, f_left = left, right, f_right
            right = lo + shrink * (hi - lo)
            f_right = value(right)
    return min(f_left, f_right)


@dataclass(frozen=True)
class Povm:
    effects: tuple[PositiveOperator, ...]

    @property
    def dim(self) -> int:
        return self.effects[0].dim


def pgm(states: Sequence) -> Povm:
    """Pretty good measurement of a state family, completed to a POVM.

    Effects are eta^(-1/2) tau_x eta^(-1/2) with eta the family sum, taken
    on the support of eta; the identity deficit on the kernel of eta is
    assigned to effect 0.
    """
    mats = [as_positive(s).mat for s in states]
    if not mats:
        raise ValidationError("pgm needs at least one state")
    dim = mats[0].shape[0]
    if any(m.shape[0] != dim for m in mats):
        raise ValidationError("pgm states must share one dimension")
    eta = sum(mats)
    evals, vecs = np.linalg.eigh(eta)
    half = spectral_fn(evals, vecs, -0.5, support_cutoff(evals, dim))
    effects = [half @ m @ half for m in mats]
    deficit = np.eye(dim, dtype=np.complex128) - sum(effects)
    effects[0] = effects[0] + 0.5 * (deficit + deficit.conj().T)
    # an ill-conditioned eta leaves half @ m @ half visibly non-Hermitian
    povm = Povm(tuple(PositiveOperator(0.5 * (e + e.conj().T)) for e in effects))
    total = sum(e.mat for e in povm.effects)
    if float(np.max(np.abs(total - np.eye(dim)))) > RECON_TOL:
        raise ValidationError("pgm completion does not sum to the identity")
    return povm
