"""Completion engines: full-covariance, PPCA, and factor-analysis models.

All three share the same block coordinate descent driver. One map evaluation
F (an "iteration") imputes the hidden blocks of every view from one model
matrix, averages the completed kernels and refits the model. The driver
repeats it until the objective stops moving:

    J = sum_k LogDet(Q^(k), M) + eps LogDet(I, M),

with eps = ``reg_epsilon``. The model update (K S + eps I)/(K + eps) fits the
views and eps copies of I, so this augmented sum is what every plain step
descends; its eps term is eps/2 (log det M + tr M^{-1} - ell).

The map converges linearly at a rate near 1, like EM, so the driver
accelerates it by SQUAREM (Varadhan & Roland 2008, *Scand. J. Stat.*) over the
model parameters theta: M for ``fc``, (W, log sigma2) for ``pca`` and
(W, log psi) for ``fa`` (the logs keep the noise positive). From the model
after iteration 1 on, evaluations run in cycles. From theta0, two plain
steps give theta1 = F(theta0) and theta2 = F(theta1); with
r = theta1 - theta0, v = theta2 - 2 theta1 + theta0 and the step length
alpha = -||r|| / ||v|| (capped at -1), the third evaluation is F at
theta0 - 2 alpha r + alpha^2 v. Its result is kept only if J does not rise
above the last kept value; otherwise, or if the point cannot be factored or
imputed from, the evaluation is rejected and the next one is the plain step
F(theta2), which always descends and starts the next cycle. So a rejection
costs one evaluation and is never followed by another. Rejected evaluations
count toward ``max_iters`` but never reach the trace, the hook or the result.
With ``max_iters`` <= 3 no point is extrapolated.

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
as the next P, and an extrapolated evaluation also factors its starting
point. :func:`objective` is the dense reference. The log dets and inverses of
PD matrices used here all come from :mod:`mkmc.linalg`.

The driver holds P in one of two forms, each with its own per-view step.
:class:`_DenseInverse` holds the whole ell x ell P, as above: it serves ``fc``
(O(ell^3) per iteration for M, plus O(n_h^3 + n_v^2 n_h) per view; only views
sharing a hidden set could share that per-view work), iteration 1 of every
method (imputed from the average kernel S_0), and ``pca``/``fa`` when
:func:`_low_rank` fails (16 q > ell).

``pca`` and ``fa`` models are low rank plus diagonal, M = W W^T + D with
D = diag(d) (``pca``: d = sigma2 * 1). When 16 q <= ell, :class:`_FactoredInverse`
holds M^{-1} as W, d and the Cholesky factor of C = I + W^T D^{-1} W
(Woodbury identity, determinant lemma; O(ell q^2)), and P is never formed.
For a view, C_v = I + W_v^T D_v^{-1} W_v >= I is the capacitance matrix of
M_vv, A = D_v^{-1} W_v C_v^{-1} = M_vv^{-1} W_v, so X = A W_h^T, and the Schur
complement is D_h + W_h C_v^{-1} W_h^T:

    Q_vh = (Q_vv A) W_h^T,    Q_hh = D_h + W_h (C_v^{-1} + A^T Q_vv A) W_h^T,
    log det P_hh = log det C_v - log det D_h - log det C,

with only q x q systems, O(n_v^2 q) per view. The trace term is
<M^{-1}, S> = sum_i S_ii / d_i - <C^{-1}, (D^{-1} W)^T S (D^{-1} W)>, O(ell^2 q),
and tr M^{-1} = sum_i 1 / d_i - <C^{-1} F, F> with F = W^T D^{-1}, O(ell q^2).
Extrapolating (W, log d) is O(ell q) and factoring the point O(ell q^2), so
the model is never materialized there either;
:func:`fa_model_update` reuses the held factorization, so after iteration 1
an ``fa`` iteration has no O(ell^3) step. :func:`pca_model_update` computes
only the top q eigenpairs, but their solver (LAPACK ``dsyevr``) still reduces
S to tridiagonal form in O(ell^3). The dense path is the test oracle of the
factored one.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np
import scipy.linalg as sla

from .errors import ConfigError, DimensionError, NotPositiveDefiniteError, NumericalError
from .linalg import (LowRankInverse, cholesky_lower, eigenvalues, eigh_sorted, logdet,
                     logdet_and_inverse, logdet_divergence, low_rank_logdet_and_inverse,
                     symmetrize)
from .views import (Fill, PartitionedView, VisibilityPattern, apply_mask, is_integer, is_real,
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

# pca/fa take the low-rank path (factored inverse, top-q eigenpairs) when
# LOW_RANK_RATIO * q <= ell. Time of each low-rank step over its dense
# counterpart, on the average of 4 synthetic kernels of signal rank 5 (the
# benchmark's), one BLAS thread, best of 6-30 calls on a 2-core Xeon:
#
#   ell                                         50    100   200   400   800
#   factored inverse and trace, q = ell/16     0.55  0.22  0.08  0.07  0.07
#   per-view step, n_h = ell/5, q = ell/16     0.79  1.06  0.50  0.41  0.35
#   dsyevr top-q over full eigh, q = ell/16    0.57  0.60  0.45  0.53  0.54
#   q where the top-q eigensolve ties          ~13   ~9    ~33   ~88   ~226
#
# The top-q eigensolve still reduces S to tridiagonal form in O(ell^3); at
# q = 5 it takes 0.41-0.55 of a full eigh. The ratio stays at 16, so a
# rank-40 model at ell = 400 (the benchmark's cli workload) stays dense.
LOW_RANK_RATIO = 16


@dataclass(frozen=True)
class FullModel:
    """Unrestricted model matrix."""

    matrix: np.ndarray

    def materialize(self) -> np.ndarray:
        return self.matrix

    def parameters(self) -> tuple[np.ndarray, ...]:
        """The point the driver extrapolates: M itself (a reference)."""
        return (self.matrix,)

    @classmethod
    def from_parameters(cls, theta: tuple[np.ndarray, ...]) -> "FullModel":
        return cls(matrix=theta[0])


@dataclass(frozen=True)
class PcaModel:
    """Low-rank plus isotropic noise: W W^T + sigma2 I.

    The driver never materializes it when :func:`_low_rank` holds: it inverts
    it from W and the noise diagonal alone, by the Woodbury identity.
    """

    W: np.ndarray
    sigma2: float

    @property
    def noise(self) -> np.ndarray:
        """The noise diagonal, sigma2 * 1."""
        return np.full(self.W.shape[0], self.sigma2)

    def materialize(self) -> np.ndarray:
        return symmetrize(self.W @ self.W.T + self.sigma2 * np.eye(self.W.shape[0]))

    def parameters(self) -> tuple[np.ndarray, ...]:
        """The point the driver extrapolates: W and log sigma2."""
        return (self.W, np.log([self.sigma2]))

    @classmethod
    def from_parameters(cls, theta: tuple[np.ndarray, ...]) -> "PcaModel":
        return cls(W=theta[0], sigma2=float(np.exp(theta[1][0])))


@dataclass(frozen=True)
class FaModel:
    """Low-rank plus diagonal noise: W W^T + diag(psi).

    The driver never materializes it when :func:`_low_rank` holds: it inverts
    it from W and the noise diagonal alone, by the Woodbury identity.
    """

    W: np.ndarray
    psi: np.ndarray

    @property
    def noise(self) -> np.ndarray:
        """The noise diagonal, psi."""
        return self.psi

    def materialize(self) -> np.ndarray:
        return symmetrize(self.W @ self.W.T + np.diag(self.psi))

    def parameters(self) -> tuple[np.ndarray, ...]:
        """The point the driver extrapolates: W and log psi."""
        return (self.W, np.log(self.psi))

    @classmethod
    def from_parameters(cls, theta: tuple[np.ndarray, ...]) -> "FaModel":
        return cls(W=theta[0], psi=np.exp(theta[1]))


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
            ("tol", is_real(self.tol) and not self.tol <= 0, "a number > 0"),
            ("max_iters", is_integer(self.max_iters) and self.max_iters >= 1, "an integer >= 1"),
            ("reg_epsilon", is_real(self.reg_epsilon)
             and 0 <= self.reg_epsilon <= sys.float_info.max, "a finite number >= 0"),
        ):
            if not valid:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")


STOP_TOL = "tol"
STOP_MAX_ITERS = "max_iters"
STOP_NO_HIDDEN = "no_hidden"


@dataclass
class CompletionResult:
    """What :func:`run_completion` returns.

    ``iterations`` counts map evaluations, rejected ones included; ``trace``,
    ``iter_ms``, ``residual`` and ``step_length`` hold one entry per accepted
    evaluation, so each has ``iterations - rejected`` entries. ``residual`` is
    None for iteration 1 and ``step_length`` None for a plain step.
    """

    completed: list[np.ndarray]
    model: ModelParams
    trace: list[float]
    iterations: int
    stop: str
    dof: int
    rank: Optional[int] = None
    iter_ms: list[float] = field(default_factory=list)
    residual: list[Optional[float]] = field(default_factory=list)
    step_length: list[Optional[float]] = field(default_factory=list)
    rejected: int = 0

    @property
    def converged(self) -> bool:
        return self.stop != STOP_MAX_ITERS


def average_kernel(qs: Sequence[np.ndarray]) -> np.ndarray:
    """Entrywise mean of K same-sized symmetric matrices.

    The checks serve public callers (``mkmc`` exports it); the driver never trips them."""
    if len(qs) < 1:
        raise ValueError("need at least one matrix")
    shape = qs[0].shape
    for q in qs[1:]:
        if q.shape != shape:
            raise DimensionError(f"dimension mismatch: {shape} vs {q.shape}")
    out = np.array(qs[0], dtype=float)
    for q in qs[1:]:
        out += q
    out /= len(qs)
    return out


def regularize(s: np.ndarray, n_views: int, eps: float) -> np.ndarray:
    """Numerical-stability transform (K*S + eps*I) / (K + eps).

    The eps check serves public callers (``mkmc`` exports it); the driver never trips it."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0:
        return s
    out = n_views * s
    out.flat[::len(out) + 1] += eps
    out /= n_views + eps
    return out


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


def _low_rank(ell: int, q: Optional[int]) -> bool:
    """Whether a rank-q pca/fa model of dimension ell takes the low-rank path."""
    return q is not None and LOW_RANK_RATIO * q <= ell


def pca_model_update(s_reg: np.ndarray, q: int) -> PcaModel:
    """Closed-form joint optimum of (W, sigma2) for the PPCA model.

    sigma2 is the mean of the trailing ell-q eigenvalues of the average
    kernel; W spans the top-q eigenvectors scaled by sqrt(lambda_j - sigma2),
    with the arbitrary rotation fixed to the identity. When :func:`_low_rank`
    holds, only the top q eigenpairs are computed and the trailing mean is
    (tr S - sum of the top q) / (ell - q) (Tipping & Bishop 1999).
    """
    ell = s_reg.shape[0]
    if not 1 <= q <= ell - 1:
        raise ValueError(f"rank q={q} out of range [1, {ell - 1}]")
    if _low_rank(ell, q):
        eig = eigh_sorted(s_reg, top=q)
        sigma2 = float(np.trace(s_reg) - np.sum(eig.eigenvalues)) / (ell - q)
    else:
        eig = eigh_sorted(s_reg)
        sigma2 = float(np.mean(eig.eigenvalues[q:]))
    gap = np.clip(eig.eigenvalues[:q] - sigma2, 0.0, None)
    w = eig.eigenvectors[:, :q] * np.sqrt(gap)
    return PcaModel(W=w, sigma2=sigma2)


def fa_estep(s: np.ndarray, w: np.ndarray, psi: np.ndarray,
             inverse: Optional[LowRankInverse] = None) -> tuple[np.ndarray, np.ndarray]:
    """Latent second moments (S_xz, S_zz) given current FA parameters.

    W^T M^{-1} comes from the factored inverse of M = W W^T + diag(psi), so
    only a q x q system is factored; ``inverse`` is that factorization when
    the caller already holds it.
    """
    if inverse is None:
        try:
            _, inverse = low_rank_logdet_and_inverse(w, psi)
        except NotPositiveDefiniteError as exc:
            raise NumericalError("FA E-step capacitance matrix is singular") from exc
    b = inverse.w_t_inverse()
    s_xz = s @ b.T
    s_zz = np.eye(w.shape[1]) - b @ w + b @ s_xz
    return s_xz, s_zz


def fa_model_update(s_reg: np.ndarray, prev: FaModel,
                    inverse: Optional[LowRankInverse] = None) -> FaModel:
    """One EM step for the factor-analysis model.

    W_new = S_xz S_zz^{-1}, psi_new = diag(S - S_xz S_zz^{-1} S_xz^T); the
    noise variances are floored to stay strictly positive. ``inverse`` is
    passed on to :func:`fa_estep`.
    """
    if np.any(prev.psi <= 0):
        raise ValueError("previous noise variances must be positive")
    ell = s_reg.shape[0]
    s_xz, s_zz = fa_estep(s_reg, prev.W, prev.psi, inverse)
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


class _View(NamedTuple):
    """A view hiding objects: its index, Q_vv (fixed for the run) and its blocks' indices."""

    k: int
    vis: np.ndarray
    hid: np.ndarray
    q_vv: np.ndarray
    vh: tuple  # np.ix_(vis, hid)
    hv: tuple
    hh: tuple

    @classmethod
    def of(cls, k: int, vis: np.ndarray, hid: np.ndarray, q_vv: np.ndarray) -> "_View":
        return cls(k, vis, hid, q_vv, np.ix_(vis, hid), np.ix_(hid, vis), np.ix_(hid, hid))


class _DenseInverse:
    """P = M^{-1} held whole: fc, iteration 1 of every method, pca/fa off the low-rank path."""

    factors: Optional[LowRankInverse] = None  # no low-rank factorization is held

    def __init__(self, p: np.ndarray):
        self.p = p

    def impute(self, view: _View) -> tuple[float, np.ndarray, np.ndarray]:
        """log det P_hh, Q_vh and Q_hh of one view (module docstring)."""
        logdet_p_hh, schur = logdet_and_inverse(self.p[view.hh])
        x = -self.p[view.vh] @ schur  # M_vv^{-1} M_vh
        q_vh = view.q_vv @ x
        return logdet_p_hh, q_vh, symmetrize(schur + x.T @ q_vh)

    def inner(self, s: np.ndarray) -> float:
        """<M^{-1}, S>."""
        return float(np.vdot(self.p, s))

    def trace(self) -> float:
        """tr M^{-1}."""
        return float(np.trace(self.p))


class _FactoredInverse:
    """M^{-1} of a low-rank model W W^T + diag(d), held as W, d and chol C (module docstring)."""

    def __init__(self, factors: LowRankInverse):
        self.factors: Optional[LowRankInverse] = factors

    def impute(self, view: _View) -> tuple[float, np.ndarray, np.ndarray]:
        """log det P_hh, Q_vh and Q_hh of one view from q x q systems, O(n_v^2 q)."""
        m = self.factors
        f_v, w_h, d_h = m.f[:, view.vis], m.w[view.hid], m.d[view.hid]
        # C_v = I + W_v^T D_v^{-1} W_v >= I, the capacitance matrix of M_vv
        c_v = symmetrize(np.eye(len(f_v)) + f_v @ m.w[view.vis])
        logdet_c_v, c_v_inv = logdet_and_inverse(c_v)
        a = f_v.T @ c_v_inv  # D_v^{-1} W_v C_v^{-1} = M_vv^{-1} W_v
        qa = view.q_vv @ a
        q_hh = w_h @ (c_v_inv + a.T @ qa) @ w_h.T
        q_hh.flat[::len(d_h) + 1] += d_h
        logdet_p_hh = logdet_c_v - float(np.sum(np.log(d_h))) - m.logdet_c
        return logdet_p_hh, qa @ w_h.T, symmetrize(q_hh)

    def inner(self, s: np.ndarray) -> float:
        """<M^{-1}, S>, O(ell^2 q)."""
        return self.factors.inner(s)

    def trace(self) -> float:
        """tr M^{-1}, O(ell q^2)."""
        return self.factors.trace()


def select_rank(s: np.ndarray, criterion: str) -> int:
    """Guttman-Kaiser (above the spectrum mean) or Kaiser (above one) count.

    The raw count is clamped into [1, ell-1].
    """
    vals = eigenvalues(s)
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


def _model_logdet_and_inverse(
        model: ModelParams, low_rank: bool) -> tuple[float, Union[_DenseInverse, _FactoredInverse]]:
    """log det M and the held M^{-1}: factored from W and the noise diagonal when ``low_rank``."""
    if not low_rank:
        logdet_m, p = logdet_and_inverse(model.materialize())
        return logdet_m, _DenseInverse(p)
    logdet_m, factors = low_rank_logdet_and_inverse(model.W, model.noise)
    return logdet_m, _FactoredInverse(factors)


def _model_update(method: str, s_reg: np.ndarray, q: Optional[int],
                  prev: Optional[ModelParams],
                  prev_inv: Union[_DenseInverse, _FactoredInverse]) -> ModelParams:
    if method == METHOD_FC:
        return fc_model_update(s_reg)
    if method == METHOD_PCA:
        return pca_model_update(s_reg, q)
    # The factorization the driver holds, if any, is always that of prev.
    return fa_model_update(s_reg, prev, prev_inv.factors)


def _sq_norm(theta: tuple[np.ndarray, ...]) -> float:
    return sum(float(np.vdot(part, part)) for part in theta)


def _relative_change(diff: tuple[np.ndarray, ...], theta_sq: float, theta_new_sq: float) -> float:
    """||diff|| over the larger of the two norms, given squared; 0 when nothing moved."""
    dd = _sq_norm(diff)
    return float(np.sqrt(dd / max(theta_sq, theta_new_sq))) if dd else 0.0


def _step_length(r: tuple[np.ndarray, ...], v: tuple[np.ndarray, ...]) -> Optional[float]:
    """SQUAREM's -||r|| / ||v|| when below -1; None for -1, the plain step from theta2."""
    rr, vv = _sq_norm(r), _sq_norm(v)
    return -float(np.sqrt(rr / vv)) if rr > vv > 0.0 else None


def _extrapolate(theta2, r, v, alpha: float) -> tuple[np.ndarray, ...]:
    """theta0 - 2 alpha r + alpha^2 v, written from theta2 = theta0 + 2 r + v."""
    return tuple(t - 2.0 * (1.0 + alpha) * a + (alpha * alpha - 1.0) * b
                 for t, a, b in zip(theta2, r, v))


def run_completion(
    qs_masked: Sequence[np.ndarray],
    pattern: VisibilityPattern,
    cfg: CompletionConfig,
    on_iteration: Optional[Callable[[int, list[np.ndarray], ModelParams], None]] = None,
) -> CompletionResult:
    """Block coordinate descent completing all K views against one model, SQUAREM-accelerated.

    Hidden blocks are zero-initialized, the model starts from the (regularized)
    average kernel, and each map evaluation imputes every view from one model
    matrix before a single model update. From the model after iteration 1 on,
    the evaluations run in cycles of three (module docstring): two plain steps,
    then one from the extrapolated point, kept only if the objective does not
    rise. Stops when the relative change of the objective drops below
    ``cfg.tol``, after ``cfg.max_iters`` evaluations, or after the first
    iteration when nothing is hidden. Visible entries of the inputs are never
    modified. ``on_iteration`` is invoked after every accepted evaluation with
    (iteration, completed matrices, model) for inspection; iteration counts
    evaluations, rejected ones included.
    """
    pattern.check(qs_masked)
    n_views, ell = pattern.n_views, pattern.ell
    eps = cfg.reg_epsilon

    # Zero-initialize hidden blocks (also validates the visible blocks).
    completed = [apply_mask(q, h, Fill.ZERO) for q, h in zip(qs_masked, pattern.hidden)]
    # Fixed for the run: sum_k log det Q^(k)_vv, and each view hiding objects
    logdet_vv = 0.0
    views = []
    for k, (c, h) in enumerate(zip(completed, pattern.hidden)):
        vis, hid = visible_indices(ell, h), np.array(h, dtype=int)
        q_vv = c[np.ix_(vis, vis)]
        try:
            logdet_vv += logdet(q_vv)
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError(
                f"view {k}: visible block is not positive definite") from exc
        if hid.size:
            views.append(_View.of(k, vis, hid, q_vv))

    s0 = average_kernel(completed)
    s0_reg = regularize(s0, n_views, eps)

    rank: Optional[int] = None
    if cfg.method in (METHOD_PCA, METHOD_FA):
        rank = (int(cfg.rank) if cfg.rank is not None
                else select_rank(s0_reg, cfg.rank_criterion or CRITERION_GK))
    dof = degrees_of_freedom(cfg.method, ell, rank)
    low_rank = _low_rank(ell, rank)

    model: Optional[ModelParams] = None  # fc/pca refit from s_reg alone
    if cfg.method == METHOD_FA:
        # FA has no closed-form fit; seed its EM with the PPCA optimum.
        pca = pca_model_update(s0_reg, rank)
        model = FaModel(W=pca.W, psi=np.full(ell, pca.sigma2))
    try:  # Algorithm start: model matrix = average kernel
        model_inv = _DenseInverse(logdet_and_inverse(s0_reg)[1])
    except NotPositiveDefiniteError as exc:
        raise NumericalError(f"initial model matrix: {exc}") from exc

    def write(view: _View, q_vh: np.ndarray, q_hh: np.ndarray) -> None:
        c = completed[view.k]
        c[view.vh] = q_vh
        c[view.hv] = q_vh.T
        c[view.hh] = q_hh

    def evaluate(prev: Optional[ModelParams], prev_inv):
        """F at ``prev`` (inverse ``prev_inv``): impute every view, refit; J of the result."""
        logdet_q = logdet_vv  # sum_k log det Q^(k) after imputing from prev
        for view in views:
            try:
                logdet_p_hh, q_vh, q_hh = prev_inv.impute(view)
            except NotPositiveDefiniteError as exc:
                raise NumericalError(f"view {view.k}: hidden block of the model inverse is "
                                     f"numerically singular: {exc}") from exc
            logdet_q -= logdet_p_hh
            write(view, q_vh, q_hh)
        s = average_kernel(completed)
        new = _model_update(cfg.method, regularize(s, n_views, eps), rank, prev, prev_inv)
        logdet_m, new_inv = _model_logdet_and_inverse(new, low_rank)
        trace_term = n_views * new_inv.inner(s)  # sum_k tr(M^{-1} Q^(k))
        j = 0.5 * (n_views * (logdet_m - ell) - logdet_q + trace_term)
        j += 0.5 * eps * (logdet_m + new_inv.trace() - ell)  # eps * LogDet(I, M)
        return j, new, new_inv

    trace: list[float] = []
    iter_ms: list[float] = []
    residual: list[Optional[float]] = []
    step_length: list[Optional[float]] = []
    theta = theta_sq = None  # parameters of the accepted model and ||theta||^2
    diffs: list = []  # F(theta) - theta of this cycle's plain steps
    alpha: Optional[float] = None  # step length of the next evaluation, if extrapolated
    rejected, stop, t0 = 0, STOP_MAX_ITERS, None
    for it in range(1, cfg.max_iters + 1):
        if t0 is None:  # a rejected evaluation's time goes to the next accepted one
            t0 = time.perf_counter()
        if alpha is None:
            point = theta
            try:
                j, new, new_inv = evaluate(model, model_inv)
            except (NumericalError, NotPositiveDefiniteError) as exc:
                raise NumericalError(f"iteration {it}: {exc}") from exc
        else:
            saved = [(completed[view.k][view.vh], completed[view.k][view.hh]) for view in views]
            try:
                with np.errstate(all="raise"):
                    point = _extrapolate(theta, *diffs, alpha)
                    trial = type(model).from_parameters(point)
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    j, new, new_inv = evaluate(trial, _model_logdet_and_inverse(trial, low_rank)[1])
                accepted = j <= trace[-1]
            except (NumericalError, NotPositiveDefiniteError, FloatingPointError):
                accepted = False
            if not accepted:  # back to the last accepted completions; next, the plain step
                rejected += 1
                for view, blocks in zip(views, saved):
                    write(view, *blocks)
                alpha = None
                continue

        model, model_inv = new, new_inv
        point_sq = theta_sq if alpha is None else _sq_norm(point)
        step_length.append(alpha)
        alpha = None
        theta = model.parameters()
        theta_sq = _sq_norm(theta)
        if point is None:  # iteration 1 starts from S_0, outside the parameter space
            residual.append(None)
        else:
            diff = tuple(a - b for a, b in zip(theta, point))
            residual.append(_relative_change(diff, point_sq, theta_sq))
        # A cycle starts at the model of iteration 1 and after each third evaluation.
        if point is None or len(diffs) == 2:
            diffs = []
        else:
            diffs.append(diff)
            if len(diffs) == 2:
                for r, d in zip(*diffs):
                    d -= r  # v = (theta2 - theta1) - (theta1 - theta0)
                alpha = _step_length(*diffs)
        iter_ms.append((time.perf_counter() - t0) * 1e3)
        t0 = None
        trace.append(j)
        if on_iteration is not None:
            on_iteration(it, completed, model)
        # With nothing hidden the imputation is vacuous: one model fit is the answer.
        if not views:
            stop = STOP_NO_HIDDEN
            break
        if len(trace) >= 2 and abs(j - trace[-2]) / max(1.0, abs(trace[-2])) < cfg.tol:
            stop = STOP_TOL
            break

    return CompletionResult(
        completed=completed,
        model=model,
        trace=trace,
        iterations=it,
        stop=stop,
        dof=dof,
        rank=rank,
        iter_ms=iter_ms,
        residual=residual,
        step_length=step_length,
        rejected=rejected,
    )
