"""Dense symmetric-matrix primitives.

Everything downstream (views, completion engines, evaluation) works with
plain float64 ndarrays that are kept exactly symmetric via :func:`symmetrize`.
Every log det and inverse of a PD matrix is taken here, from one Cholesky factor;
the full eigendecomposition is reserved for model updates and diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import DimensionError, NotPositiveDefiniteError, NumericalError


def symmetrize(raw) -> np.ndarray:
    """Return the symmetric part (A + A^T)/2 of a square matrix."""
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return (a + a.T) / 2.0


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition with eigenvalues sorted non-increasing.

    Columns of ``eigenvectors`` are orthonormal and aligned with
    ``eigenvalues``; each column's largest-magnitude entry is positive so the
    decomposition is deterministic up to degenerate eigenspaces.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh_sorted(a: np.ndarray) -> EigenDecomposition:
    """Symmetric eigendecomposition, eigenvalues sorted descending."""
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed on {a.shape[0]}x{a.shape[0]} matrix "
            f"(fro norm {np.linalg.norm(a):.3e})"
        ) from exc
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    lead = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[lead, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    vecs *= signs
    return EigenDecomposition(eigenvalues=vals, eigenvectors=vecs)


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; raises if ``a`` is not positive definite."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"matrix of dim {a.shape[0]} is not positive definite"
        ) from exc


def _logdet_of_factor(chol: np.ndarray) -> float:
    """log det of L L^T; NaN or inf entries pass the pivot test but leave it non-finite."""
    value = float(2.0 * np.sum(np.log(np.diag(chol))))
    if not np.isfinite(value):
        raise NotPositiveDefiniteError(f"matrix of dim {chol.shape[0]} is not positive definite")
    return value


def logdet(a: np.ndarray) -> float:
    """log det of a positive definite matrix, via Cholesky."""
    return _logdet_of_factor(cholesky_lower(a))


def logdet_and_inverse(a: np.ndarray) -> tuple[float, np.ndarray]:
    """log det and full symmetric inverse of a PD matrix, from one Cholesky (``dpotri``)."""
    chol = cholesky_lower(a)
    inv, info = sla.lapack.dpotri(chol, lower=1)
    if info != 0:
        raise NumericalError(f"inverting a matrix of dim {a.shape[0]} failed (dpotri info={info})")
    inv = np.tril(inv)
    inv += np.tril(inv, -1).T
    return _logdet_of_factor(chol), inv


def logdet_divergence(q: np.ndarray, m: np.ndarray) -> float:
    """LogDet (Stein-type) Bregman divergence between PD matrices.

    0.5 * (logdet M - logdet Q + <M^{-1}, Q> - ell); nonnegative, zero iff Q == M.
    """
    if q.shape != m.shape:
        raise DimensionError(f"dimension mismatch: {q.shape} vs {m.shape}")
    logdet_m, m_inv = logdet_and_inverse(m)
    return 0.5 * (logdet_m - logdet(q) + float(np.vdot(m_inv, q)) - q.shape[0])
