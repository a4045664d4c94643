"""Completion engines: full-covariance, PPCA, and factor-analysis models.

All three share the same block coordinate descent driver: impute the hidden
blocks of every view from the current model matrix, average the completed
kernels, refit the model, and repeat until the objective (a sum of LogDet
divergences) stops moving.

The driver never factors a block of M. Let P = M_old^{-1}, the inverse of the
model M_old that every view is imputed from in an iteration. For a view with
visible objects v and hidden objects h, the partitioned inverse gives

    X := M_vv^{-1} M_vh = -P_vh P_hh^{-1},    M_hh - M_hv M_vv^{-1} M_vh = P_hh^{-1}

(the Schur complement of M_vv). One Cholesky factorization of P_hh yields
log det P_hh and, by ``dpotri``, P_hh^{-1}; then X is one product with it,
Q_vh = Q_vv X and Q_hh = P_hh^{-1} + X^T Q_vh. :func:`impute_view` is the
dense reference. Imputing leaves the Schur complement of Q_vv in Q^(k) equal
to P_hh^{-1}, hence

    log det Q^(k) = log det Q^(k)_vv - log det P_hh

with log det Q^(k)_vv fixed for the run, and for the new model M

    sum_k tr(M^{-1} Q^(k)) = K tr(M^{-1} S),  S the unregularized average.

All of this holds only while P is the inverse of the model every Q^(k) was
imputed from; each iteration therefore factors M once and keeps its inverse
as the next P. :func:`objective` is the dense reference.
"""

from __future__ import annotations

import numbers
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.linalg as sla

from .errors import ConfigError, DimensionError, NotPositiveDefiniteError, NumericalError
from .linalg import cholesky_lower, eigh_sorted, logdet_divergence, symmetrize
from .views import (Fill, PartitionedView, VisibilityPattern, apply_mask, is_integer,
                    visible_indices)

METHOD_FC = "fc"
METHOD_PCA = "pca"
METHOD_FA = "fa"
METHODS = (METHOD_FC, METHOD_PCA, METHOD_FA)

CRITERION_GK = "gk"
CRITERION_KAISER = "kaiser"
RANK_CRITERIA = (CRITERION_GK, CRITERION_KAISER)

# Relative floor keeping noise variances strictly positive in the FA update.
PSI_FLOOR_REL = 1e-10


@dataclass(frozen=True)
class FullModel:
    """Unrestricted model matrix."""

    matrix: np.ndarray

    def materialize(self) -> np.ndarray:
        return self.matrix


@dataclass(frozen=True)
class PcaModel:
    """Low-rank plus isotropic noise: W W^T + sigma2 I."""

    W: np.ndarray
    sigma2: float

    def materialize(self) -> np.ndarray:
        return symmetrize(self.W @ self.W.T + self.sigma2 * np.eye(self.W.shape[0]))


@dataclass(frozen=True)
class FaModel:
    """Low-rank plus diagonal noise: W W^T + diag(psi)."""

    W: np.ndarray
    psi: np.ndarray

    def materialize(self) -> np.ndarray:
        return symmetrize(self.W @ self.W.T + np.diag(self.psi))


ModelParams = Union[FullModel, PcaModel, FaModel]


@dataclass(frozen=True)
class CompletionConfig:
    """Driver settings; ``rank``/``rank_criterion`` apply to pca/fa only.

    Each setting is checked here, by type and value, for the library and the
    CLI alike; :func:`degrees_of_freedom` checks that ``rank`` fits the data.
    A NaN ``tol`` never stops the run early. The driver never reads ``seed``:
    only :func:`mkmc.recovery.compare_methods` does, as the seed of the mask it draws.
    """

    method: str = METHOD_FC
    rank: Optional[int] = None
    rank_criterion: Optional[str] = None
    tol: float = 1e-8
    max_iters: int = 500
    reg_epsilon: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        for name, valid, rule in (
            ("method", self.method in METHODS, f"one of {METHODS}"),
            ("rank", self.rank is None or is_integer(self.rank), "an integer"),
            ("rank_criterion", self.rank_criterion in (None, *RANK_CRITERIA),
             f"one of {RANK_CRITERIA}"),
            ("tol", _is_real(self.tol) and not self.tol <= 0, "a number > 0"),
            ("max_iters", is_integer(self.max_iters) and self.max_iters >= 1, "an integer >= 1"),
            ("reg_epsilon", _is_real(self.reg_epsilon)
             and 0 <= self.reg_epsilon <= sys.float_info.max, "a finite number >= 0"),
        ):
            if not valid:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class CompletionResult:
    completed: list[np.ndarray]
    model: ModelParams
    trace: list[float]
    iterations: int
    converged: bool
    dof: int
    rank: Optional[int] = None
    iter_ms: list[float] = field(default_factory=list)


def average_kernel(qs: Sequence[np.ndarray]) -> np.ndarray:
    """Entrywise mean of K same-sized symmetric matrices."""
    if len(qs) < 1:
        raise ValueError("need at least one matrix")
    shape = qs[0].shape
    for q in qs[1:]:
        if q.shape != shape:
            raise DimensionError(f"dimension mismatch: {shape} vs {q.shape}")
    out = np.zeros(shape)
    for q in qs:
        out += q
    return out / len(qs)


def regularize(s: np.ndarray, n_views: int, eps: float) -> np.ndarray:
    """Numerical-stability transform (K*S + eps*I) / (K + eps)."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0:
        return s
    return (n_views * s + eps * np.eye(s.shape[0])) / (n_views + eps)


def impute_view(q_vv: np.ndarray, m_parts: PartitionedView) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian conditional-moment re-estimation of one view's hidden blocks.

    The dense reference for the driver, which imputes from M^{-1} instead.
    With the model blocks M_vv, M_vh, M_hh of this view:

        Q_vh = Q_vv M_vv^{-1} M_vh
        Q_hh = M_hh - M_hv M_vv^{-1} M_vh + M_hv M_vv^{-1} Q_vv M_vv^{-1} M_vh

    Inverses are realized by Cholesky solves, and M_hv M_vv^{-1} Q_vv M_vv^{-1}
    M_vh reuses Q_vh; Q_hh is symmetrized.
    """
    if q_vv.shape != m_parts.q_vv.shape:
        raise DimensionError(
            f"visible block {q_vv.shape} does not match model block {m_parts.q_vv.shape}"
        )
    try:
        chol = cholesky_lower(m_parts.q_vv)
        x = sla.cho_solve((chol, True), m_parts.q_vh)  # M_vv^{-1} M_vh
    except NotPositiveDefiniteError as exc:
        raise NumericalError(f"model visible block is numerically singular: {exc}") from exc
    q_vh = q_vv @ x
    q_hh = m_parts.q_hh - m_parts.q_vh.T @ x + x.T @ q_vh
    return q_vh, symmetrize(q_hh)


def fc_model_update(s_reg: np.ndarray) -> FullModel:
    """Full-covariance M-step: the model matrix is the average kernel itself.

    The driver's factorization of M, not this step, rejects a non-PD ``s_reg``."""
    return FullModel(matrix=s_reg)


def pca_model_update(s_reg: np.ndarray, q: int) -> PcaModel:
    """Closed-form joint optimum of (W, sigma2) for the PPCA model.

    sigma2 is the mean of the trailing ell-q eigenvalues of the average
    kernel; W spans the top-q eigenvectors scaled by sqrt(lambda_j - sigma2),
    with the arbitrary rotation fixed to the identity.
    """
    ell = s_reg.shape[0]
    if not 1 <= q <= ell - 1:
        raise ValueError(f"rank q={q} out of range [1, {ell - 1}]")
    eig = eigh_sorted(s_reg)
    sigma2 = float(np.mean(eig.eigenvalues[q:]))
    gap = np.clip(eig.eigenvalues[:q] - sigma2, 0.0, None)
    w = eig.eigenvectors[:, :q] * np.sqrt(gap)
    return PcaModel(W=w, sigma2=sigma2)


def fa_estep(s: np.ndarray, w: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Latent second moments (S_xz, S_zz) given current FA parameters.

    Uses the Woodbury form of (W W^T + diag(psi))^{-1} so only a q x q system
    is factored.
    """
    q = w.shape[1]
    psi_inv = 1.0 / psi
    f = w.T * psi_inv  # W^T diag(psi)^{-1}
    c = np.eye(q) + f @ w
    try:
        c_chol = cholesky_lower(symmetrize(c))
        b = f - (f @ w) @ sla.cho_solve((c_chol, True), f)  # W^T M^{-1}
    except NotPositiveDefiniteError as exc:
        raise NumericalError("FA E-step capacitance matrix is singular") from exc
    s_xz = s @ b.T
    s_zz = np.eye(q) - b @ w + b @ s_xz
    return s_xz, s_zz


def fa_model_update(s_reg: np.ndarray, prev: FaModel) -> FaModel:
    """One EM step for the factor-analysis model.

    W_new = S_xz S_zz^{-1}, psi_new = diag(S - S_xz S_zz^{-1} S_xz^T); the
    noise variances are floored to stay strictly positive.
    """
    if np.any(prev.psi <= 0):
        raise ValueError("previous noise variances must be positive")
    ell = s_reg.shape[0]
    s_xz, s_zz = fa_estep(s_reg, prev.W, prev.psi)
    try:
        w_new = np.linalg.solve(s_zz.T, s_xz.T).T  # S_xz S_zz^{-1}
    except np.linalg.LinAlgError as exc:
        raise NumericalError("FA M-step latent covariance is singular") from exc
    psi_new = np.diag(s_reg) - np.einsum("ij,ij->i", s_xz, w_new)
    floor = PSI_FLOOR_REL * np.trace(s_reg) / ell
    psi_new = np.maximum(psi_new, floor)
    return FaModel(W=w_new, psi=psi_new)


def objective(qs: Sequence[np.ndarray], model: ModelParams) -> float:
    """Sum over views of LogDet(Q^(k), M) with the model matrix materialized."""
    m = model.materialize()
    return float(sum(logdet_divergence(q, m) for q in qs))


def _factor(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Log det and full symmetric inverse of a PD matrix, from one Cholesky."""
    chol = cholesky_lower(a)
    inv, info = sla.lapack.dpotri(chol, lower=1)
    if info != 0:
        raise NumericalError(f"inverting a matrix of dim {a.shape[0]} failed (dpotri info={info})")
    inv = np.tril(inv)
    inv += np.tril(inv, -1).T
    return float(2.0 * np.sum(np.log(np.diag(chol)))), inv


def _impute_from_inverse(q_vv: np.ndarray, model_inv: np.ndarray, vis: np.ndarray,
                         hid: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """log det P_hh, Q_vh and Q_hh of one view, from P = M^{-1} (module docstring)."""
    try:
        logdet_p_hh, schur = _factor(model_inv[np.ix_(hid, hid)])
    except NotPositiveDefiniteError as exc:
        raise NumericalError(
            f"hidden block of the model inverse is numerically singular: {exc}") from exc
    x = -model_inv[np.ix_(vis, hid)] @ schur  # M_vv^{-1} M_vh
    q_vh = q_vv @ x
    return logdet_p_hh, q_vh, symmetrize(schur + x.T @ q_vh)


def select_rank(s: np.ndarray, criterion: str) -> int:
    """Guttman-Kaiser (above the spectrum mean) or Kaiser (above one) count.

    The raw count is clamped into [1, ell-1].
    """
    vals = eigh_sorted(s).eigenvalues
    ell = len(vals)
    if criterion == CRITERION_GK:
        count = int(np.sum(vals > np.mean(vals)))
    elif criterion == CRITERION_KAISER:
        count = int(np.sum(vals > 1.0))
    else:
        raise ValueError(f"unknown rank criterion {criterion!r}")
    return max(1, min(count, ell - 1))


def degrees_of_freedom(method: str, ell: int, q: Optional[int] = None) -> int:
    """Parameter count of each covariance model."""
    if method == METHOD_FC:
        return (ell + 1) * ell // 2
    if q is None or not 1 <= q <= ell - 1:
        raise DimensionError(f"rank q={q} out of range [1, {ell - 1}]")
    if method == METHOD_PCA:
        return ell * q + 1 - (q - 1) * q // 2
    if method == METHOD_FA:
        return ell * q + ell - (q - 1) * q // 2
    raise ValueError(f"unknown method {method!r}")


def _model_update(method: str, s_reg: np.ndarray, q: Optional[int],
                  prev: Optional[ModelParams]) -> ModelParams:
    if method == METHOD_FC:
        return fc_model_update(s_reg)
    if method == METHOD_PCA:
        return pca_model_update(s_reg, q)
    return fa_model_update(s_reg, prev)


def run_completion(
    qs_masked: Sequence[np.ndarray],
    pattern: VisibilityPattern,
    cfg: CompletionConfig,
    on_iteration: Optional[Callable[[int, list[np.ndarray], ModelParams], None]] = None,
) -> CompletionResult:
    """Block coordinate descent completing all K views against one model.

    Hidden blocks are zero-initialized, the model starts from the (regularized)
    average kernel, and each iteration imputes every view from the current
    model matrix before a single model update. Stops when the relative change
    of the objective drops below ``cfg.tol``, or after the first iteration
    when nothing is hidden. Visible entries of the inputs are never modified.
    ``on_iteration`` is invoked after every model update with (iteration,
    completed matrices, model) for inspection.
    """
    pattern.check(qs_masked)
    n_views, ell = pattern.n_views, pattern.ell

    # Zero-initialize hidden blocks (also validates the visible blocks).
    completed = [apply_mask(q, h, Fill.ZERO) for q, h in zip(qs_masked, pattern.hidden)]
    # Fixed for the run: sum_k log det Q^(k)_vv, and (k, vis, hid, Q_vv) of each view hiding objects
    logdet_vv = 0.0
    views = []
    for k, (c, h) in enumerate(zip(completed, pattern.hidden)):
        vis, hid = visible_indices(ell, h), np.array(h, dtype=int)
        q_vv = c[np.ix_(vis, vis)]
        try:
            # NaN/inf would pass through the factorization without an error
            if not np.isfinite(q_vv).all():
                raise NotPositiveDefiniteError("non-finite entries")
            chol_vv = cholesky_lower(q_vv)
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError(
                f"view {k}: visible block is not positive definite") from exc
        logdet_vv += float(2.0 * np.sum(np.log(np.diag(chol_vv))))
        if hid.size:
            views.append((k, vis, hid, q_vv))

    s0 = average_kernel(completed)
    s0_reg = regularize(s0, n_views, cfg.reg_epsilon)

    rank: Optional[int] = None
    if cfg.method in (METHOD_PCA, METHOD_FA):
        if cfg.rank is not None:
            rank = int(cfg.rank)
        else:
            criterion = cfg.rank_criterion or CRITERION_GK
            rank = select_rank(s0_reg, criterion)
    dof = degrees_of_freedom(cfg.method, ell, rank)

    model: Optional[ModelParams] = None  # fc/pca refit from s_reg alone
    if cfg.method == METHOD_FA:
        # FA has no closed-form fit; seed its EM with the PPCA optimum.
        pca = pca_model_update(s0_reg, rank)
        model = FaModel(W=pca.W, psi=np.full(ell, pca.sigma2))
    try:  # Algorithm start: model matrix = average kernel
        _, model_inv = _factor(s0_reg)
    except NotPositiveDefiniteError as exc:
        raise NumericalError(f"initial model matrix: {exc}") from exc

    trace: list[float] = []
    iter_ms: list[float] = []
    converged = False
    for it in range(1, cfg.max_iters + 1):
        t0 = time.perf_counter()
        try:
            # sum_k log det Q^(k) after imputing from the current model
            logdet_q = logdet_vv
            for k, vis, hid, q_vv in views:
                try:
                    logdet_p_hh, q_vh, q_hh = _impute_from_inverse(q_vv, model_inv, vis, hid)
                except NumericalError as exc:
                    raise NumericalError(f"view {k}: {exc}") from exc
                logdet_q -= logdet_p_hh
                completed[k][np.ix_(vis, hid)] = q_vh
                completed[k][np.ix_(hid, vis)] = q_vh.T
                completed[k][np.ix_(hid, hid)] = q_hh

            s = average_kernel(completed)
            s_reg = regularize(s, n_views, cfg.reg_epsilon)
            model = _model_update(cfg.method, s_reg, rank, model)
            logdet_m, model_inv = _factor(model.materialize())
            trace_term = n_views * float(np.vdot(model_inv, s))  # sum_k tr(M^{-1} Q^(k))
            j = 0.5 * (n_views * (logdet_m - ell) - logdet_q + trace_term)
        except (NumericalError, NotPositiveDefiniteError) as exc:
            raise NumericalError(f"iteration {it}: {exc}") from exc
        iter_ms.append((time.perf_counter() - t0) * 1e3)
        trace.append(j)
        if on_iteration is not None:
            on_iteration(it, completed, model)
        # With nothing hidden the imputation is vacuous: one model fit is the answer.
        if not views or (
            len(trace) >= 2 and abs(j - trace[-2]) / max(1.0, abs(trace[-2])) < cfg.tol
        ):
            converged = True
            break

    return CompletionResult(
        completed=completed,
        model=model,
        trace=trace,
        iterations=len(trace),
        converged=converged,
        dof=dof,
        rank=rank,
        iter_ms=iter_ms,
    )
