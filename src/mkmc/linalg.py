"""Dense symmetric-matrix primitives on float64 arrays kept exactly symmetric.

Every log det and inverse of a PD matrix is taken here, from one Cholesky factor: of the
matrix itself, or of the q x q capacitance matrix of W W^T + diag(d). LAPACK ``dpotrf``
factors A^T, a Fortran-ordered view of A when A is C-ordered, so every matrix factored here
must be exactly symmetric. Eigenpairs come from ``dsyevr`` or certified subspace iteration;
an eigenvalue count comes from the inertia of one LDL^T factor.

``scipy.linalg`` is imported inside the functions that call LAPACK or BLAS, not here: only a
solve factors or eigensolves, so ``import mkmc``, ``mkmc mask``, ``mkmc evaluate`` and
``mkmc --help`` never load scipy, and a solve loads it at its first factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, NotPositiveDefiniteError, NumericalError


def symmetrize(raw) -> np.ndarray:
    """Return the symmetric part (A + A^T)/2 of a square matrix."""
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    out = a + a.T
    out *= 0.5
    return out


@dataclass(frozen=True)
class EigenDecomposition:
    """Leading eigenpairs with eigenvalues sorted non-increasing.

    Columns of ``eigenvectors`` are orthonormal and aligned with
    ``eigenvalues``; each column's largest-magnitude entry is positive so the
    decomposition is deterministic up to degenerate eigenspaces.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _signed(vals: np.ndarray, vecs: np.ndarray) -> EigenDecomposition:
    """The pairs with each eigenvector's largest-magnitude entry made positive."""
    lead = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[lead, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return EigenDecomposition(eigenvalues=vals, eigenvectors=vecs * signs)


def eigh_sorted(a: np.ndarray, top: int) -> EigenDecomposition:
    """The ``top`` = q largest eigenpairs of a symmetric matrix, eigenvalues sorted descending.

    Only those are computed (LAPACK ``dsyevr`` on an index range); the tridiagonal reduction
    costs O(ell^3) whatever q is.
    """
    import scipy.linalg as sla

    ell = a.shape[0]
    try:
        vals, vecs = sla.eigh(a, subset_by_index=(ell - top, ell - 1))
    except (np.linalg.LinAlgError, ValueError) as exc:  # scipy refuses NaN and inf
        raise NumericalError(f"eigensolver failed on {ell}x{ell} matrix "
                             f"(fro norm {np.linalg.norm(a):.3e})") from exc
    return _signed(vals[::-1].copy(), vecs[:, ::-1].copy())


def count_above(a: np.ndarray, threshold: float) -> int:
    """How many eigenvalues of a symmetric ``a`` exceed ``threshold`` = t, by Sylvester's law
    of inertia: A - t I = L D L^T (LAPACK ``dsytrf``, ell^3 / 3 flops) and D have as many, one
    per positive 1 x 1 pivot and one per 2 x 2 Bunch-Kaufman block (its determinant is < 0)."""
    import scipy.linalg as sla

    shifted = np.array(a, dtype=float)
    shifted.flat[::len(shifted) + 1] -= threshold
    if not np.isfinite(shifted).all():
        raise NumericalError(f"cannot count the eigenvalues of a non-finite {shifted.shape} "
                             "matrix")
    lwork = int(sla.lapack.dsytrf_lwork(len(shifted), lower=1)[0])  # the blocked code's workspace
    ldu, ipiv, _ = sla.lapack.dsytrf(shifted.T, lower=1, lwork=lwork, overwrite_a=1)
    one = ipiv > 0  # both rows of a 2 x 2 block are marked negative
    return int(np.count_nonzero(np.diagonal(ldu)[one] > 0) + np.count_nonzero(~one) // 2)


# A warm solve stops once every Ritz pair's residual is at most this times |lambda_1|.
WARM_TOL = 1e-13


def eigh_warm(a: np.ndarray, start: np.ndarray) -> EigenDecomposition:
    """The q largest eigenpairs of a symmetric matrix, as :func:`eigh_sorted` gives them, found
    by block subspace iteration from the span of the ell x q ``start``.

    Each step makes one product Y = A V, O(ell^2 q), takes the Rayleigh-Ritz pairs
    (theta_j, x_j) of V^T Y and orthonormalizes the rotated Y by QR (Saad, *Numerical Methods
    for Large Eigenvalue Problems*, ch. 5). It stops when every residual ||A x_j - theta_j x_j||
    is at most ``WARM_TOL`` |theta_1|. With R the residual block, the compression B of A to the
    complement of the Ritz vectors has ||B||_2 <= beta = sqrt(||A||_F^2 - sum_j theta_j^2
    + ell eps ||A||_F^2) (the last term allows for rounding), so by Weyl's theorem the pairs
    are the top q if theta_q - ||R||_F > beta + ||R||_F.

    Otherwise the answer is :func:`eigh_sorted`'s: when A or the start is not finite or the
    start's columns are dependent, when the residual's contraction predicts more steps than
    the budget, or when the certificate fails. The budget, max(12, ell / (3 q)) steps, is what
    one ``dsyevr`` costs (README).
    """
    ell, q = start.shape
    eps = np.finfo(float).eps
    fro2 = float(np.vdot(a, a))
    norms = np.linalg.norm(start, axis=0)
    if not (np.isfinite(fro2) and np.isfinite(norms).all() and np.all(norms > 0)):
        return eigh_sorted(a, top=q)
    v, r = np.linalg.qr(start / norms)
    if not np.all(np.abs(np.diagonal(r)) > ell * eps):
        return eigh_sorted(a, top=q)
    budget = max(12, ell // (3 * q))
    last = np.inf
    for step in range(1, budget + 1):
        y = a @ v
        theta, z = np.linalg.eigh(symmetrize(v.T @ y))
        theta, z = theta[::-1], z[:, ::-1]
        x, ax = v @ z, y @ z
        res = ax - x * theta
        worst = float(np.linalg.norm(res, axis=0).max())
        target = WARM_TOL * float(np.abs(theta).max())
        if worst <= target:
            res_fro = float(np.linalg.norm(res))
            beta = np.sqrt(max(0.0, fro2 - float(np.sum(theta ** 2))) + ell * eps * fro2)
            if theta[-1] - res_fro > beta + res_fro:
                return _signed(theta.copy(), x)
            break
        rate = worst / last  # 0 at step 1
        if rate >= 1.0 or worst * rate ** (budget - step) > target:
            break
        last = worst
        v = np.linalg.qr(ax)[0]
    return eigh_sorted(a, top=q)


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of an exactly symmetric ``a``; raises if it is not positive
    definite, NaN or inf entries included (they pass the pivot test, not the finite diagonal)."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    import scipy.linalg as sla

    chol, info = sla.lapack.dpotrf(a.T, lower=1, clean=1)
    if info != 0 or not np.isfinite(np.diagonal(chol)).all():
        raise NotPositiveDefiniteError(f"matrix of dim {a.shape[0]} is not positive definite")
    return chol


def _logdet_of_factor(chol: np.ndarray) -> float:
    """log det of L L^T."""
    return float(2.0 * np.sum(np.log(np.diagonal(chol))))


def logdet(a: np.ndarray) -> float:
    """log det of a positive definite matrix, via Cholesky."""
    return _logdet_of_factor(cholesky_lower(a))


def logdet_and_inverse(a: np.ndarray) -> tuple[float, np.ndarray]:
    """log det and full symmetric inverse of a PD matrix, from one Cholesky (``dpotri``, which
    fills only the lower triangle: the factor's upper one stays zero)."""
    import scipy.linalg as sla

    chol = cholesky_lower(a)
    value = _logdet_of_factor(chol)
    low, info = sla.lapack.dpotri(chol, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"inverting a matrix of dim {a.shape[0]} failed (dpotri info={info})")
    inv = low + low.T
    inv.flat[::len(inv) + 1] *= 0.5
    return value, inv


@dataclass(frozen=True)
class LowRankInverse:
    """The inverse of M = W W^T + diag(d), kept in factored form.

    With F = W^T D^{-1} and the q x q capacitance matrix C = I + F W = L L^T
    (``chol`` = L), the Woodbury identity gives

        M^{-1} = D^{-1} - F^T C^{-1} F.

    Nothing of size ell x ell is stored.
    """

    w: np.ndarray
    d: np.ndarray
    f: np.ndarray  # W^T D^{-1}, q x ell
    chol: np.ndarray
    logdet_c: float

    def solve_c(self, b: np.ndarray) -> np.ndarray:
        """C^{-1} b, by LAPACK ``dpotrs`` on L."""
        import scipy.linalg as sla

        return sla.lapack.dpotrs(self.chol, b, lower=1)[0]

    def w_t_inverse(self) -> np.ndarray:
        """W^T M^{-1} = F - (C - I) C^{-1} F = C^{-1} F, in O(ell q^2)."""
        return self.solve_c(self.f)

    def inner(self, s) -> float:
        """<M^{-1}, S> = sum_i S_ii / d_i - <C^{-1}, F S F^T>, in O(ell^2 q); ``s`` is read only
        through ``s @ x`` and ``s.diagonal()``."""
        fsf = self.f @ (s @ self.f.T)
        return float(np.sum(s.diagonal() / self.d) - np.trace(self.solve_c(fsf)))

    def dense(self) -> np.ndarray:
        """M^{-1} as an ell x ell array: one ell x q x ell product, then D^{-1} added in place."""
        out = self.f.T @ -self.solve_c(self.f)
        out.flat[::len(out) + 1] += 1.0 / self.d
        return out


def low_rank_logdet_and_inverse(w: np.ndarray, d: np.ndarray) -> tuple[float, LowRankInverse]:
    """log det and factored inverse of M = W W^T + diag(d), from one q x q Cholesky factor.

    The determinant lemma gives log det M = sum_i log d_i + log det C, and
    :class:`LowRankInverse` holds M^{-1}, both in O(ell q^2) for an ell x q
    ``w``. Every entry of ``d`` must be positive.
    """
    ell = w.shape[0]
    if not np.all(d > 0):  # NaN included
        raise NotPositiveDefiniteError(
            f"matrix of dim {ell} has a diagonal part that is not positive"
        )
    if not (np.isfinite(d).all() and np.isfinite(w).all()):
        raise NotPositiveDefiniteError(f"matrix of dim {ell} is not positive definite")
    f = w.T * (1.0 / d)
    chol = cholesky_lower(symmetrize(np.eye(w.shape[1]) + f @ w))  # C >= I
    logdet_c = _logdet_of_factor(chol)
    inv = LowRankInverse(w=w, d=d, f=f, chol=chol, logdet_c=logdet_c)
    return float(np.sum(np.log(d))) + logdet_c, inv


def logdet_divergences(qs: Sequence[np.ndarray], m: np.ndarray) -> list[float]:
    """LogDet (Stein-type) Bregman divergence of each PD Q in ``qs`` from one PD M.

    0.5 * (logdet M - logdet Q + <M^{-1}, Q> - ell); nonnegative, zero iff Q == M.
    M is factored once: K divergences take 1 + K Cholesky factorizations."""
    for q in qs:
        if q.shape != m.shape:
            raise DimensionError(f"dimension mismatch: {q.shape} vs {m.shape}")
    logdet_m, m_inv = logdet_and_inverse(m)
    return [0.5 * (logdet_m - logdet(q) + float(np.vdot(m_inv, q)) - q.shape[0]) for q in qs]


def logdet_divergence(q: np.ndarray, m: np.ndarray) -> float:
    """LogDet divergence of one PD Q from a PD M (:func:`logdet_divergences`)."""
    return logdet_divergences([q], m)[0]
