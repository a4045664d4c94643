"""Completion engines: full-covariance (``fc``), PPCA (``pca``) and factor-analysis (``fa``) models.

One block coordinate descent driver, :func:`run_completion`, serves all three. A map
evaluation F imputes the hidden blocks of every view Q^(k) from one model M, then refits M to
S_reg = (K S + eps I)/(K + eps), with S the average of the completed views and
eps = ``reg_epsilon``. That refit fits the views and eps copies of I, so a plain step descends

    J = sum_k LogDet(Q^(k), M) + eps LogDet(I, M)
      = ((K + eps)(log det M + <M^{-1}, S_reg> - ell) - sum_k log det Q^(k)) / 2,

as sum_k Q^(k) + eps I = (K + eps) S_reg. For ``fc``, M = S_reg, so <M^{-1}, S_reg> = ell; so
too for ``pca``, whose refit M = sigma2 I + sum_{j<=p} (theta_j - sigma2) u_j u_j^T has orthonormal
u_j, u_j^T S_reg u_j = theta_j and sigma2 = (tr S_reg - sum_{j<=p} theta_j) / (ell - p), its other
columns zero (:func:`_pca_fit`): <M^{-1}, S_reg> = (ell - p) + p. Only ``fa`` reads the term.

Imputation. Let P = M^{-1}. For a view with visible objects v and hidden objects h, the
partitioned inverse gives X := M_vv^{-1} M_vh = -P_vh P_hh^{-1}, and the Schur complement of
M_vv in M is P_hh^{-1}. The imputed Q_vh = Q_vv X and Q_hh = P_hh^{-1} + X^T Q_vv X leave the
Schur complement of Q_vv in Q^(k) equal to P_hh^{-1}, so

    log det Q^(k) = log det Q^(k)_vv - log det P_hh,

with log det Q^(k)_vv fixed for the run; one Cholesky factor of P_hh gives log det P_hh and
P_hh^{-1}. This holds only while P is the inverse of the model every view was imputed from,
so each evaluation factors its new model once and keeps the inverse as the next P. ``fc``
holds P whole: O(ell^3) per evaluation for M, plus O(n_h^3 + n_v^2 n_h) per view. ``pca``
and ``fa`` hold M^{-1} of M = W W^T + D, D = diag(d), in Woodbury form
(:class:`~mkmc.linalg.LowRankInverse`, O(ell q^2)). With C_v = I + W_v^T D_v^{-1} W_v, the
capacitance matrix of M_vv, and A = D_v^{-1} W_v C_v^{-1} = M_vv^{-1} W_v, X = A W_h^T and

    Q_vh = (Q_vv A) W_h^T,    Q_hh = D_h + W_h G_v W_h^T,    G_v = C_v^{-1} + A^T Q_vv A,
    log det P_hh = log det C_v - log det D_h - log det C,

O(n_v^2 q) per view, so a ``pca``/``fa`` run factors no ell x ell matrix.

Start. Every method starts at one M_0 = W W^T + sigma2 I, the ``pca`` refit of S_0_reg from its
q top-variance columns (:func:`pca_model_update`): one Rayleigh-Ritz step, as in every ``pca``
evaluation, so no run with 2q < ell eigensolves an ell x ell matrix (at 2q >= ell the step's
basis spans R^ell, and its Q^T S Q is an ell x ell eigensolve). ``fa`` takes it as W and
psi = sigma2 1, as a Ritz fit's diag(S_0_reg - W W^T) can fall to the floor. Iteration 1 imputes
in Woodbury form, so no set-up factors an ell x ell matrix; ``fc``'s refit then makes M whole.

S_reg. No evaluation writes or averages a view: S_reg is the set-up's S_0_reg, the same
transform of the zero-filled views' average, plus the imputed blocks over K + eps. ``fc``
adds each hiding view's row block [Q_hv | Q_hh / 2] into the hidden rows of a zero U:
S_reg = C + C^T with C = S_0_reg / 2 + U / (K + eps), exactly symmetric, in
O(ell^2 + sum_k n_h ell). ``pca`` and ``fa`` read S_reg from two ell x Kq factors stacked
over the hiding views, built once per evaluation:

    S_reg = S_0_reg + (Z~ Y^T + Y Z~^T + diag(d o n)) / (K + eps),

with Z~_k = Q_vv A on view k's visible rows and W_h G_v / 2 on its hidden rows, Y_k = W on
its hidden rows, both zero elsewhere, and n_i the number of views hiding object i; on the
hidden rows Z~_k Y_k^T + Y_k Z~_k^T = W_h G_v W_h^T. Their refits and the trace term read
only the products S_reg X = S_0_reg X + (Z~ (Y^T X) + Y (Z~^T X) + (d o n) o X) / (K + eps),
O(ell^2 p + ell K q p) for an ell x p X, and diag S_reg = diag S_0_reg + (2 rowsum(Z~ o Y)
+ d o n) / (K + eps), O(ell K q): no ``pca`` or ``fa`` evaluation forms S_reg whole.

Restricted refit, a generalized EM step (Dempster, Laird & Rubin 1977; Meng & Rubin 1993). A
``pca`` evaluation refits (W, sigma2) by one Rayleigh-Ritz step (:func:`pca_model_update`); an
``fa`` one refits the loadings given psi by one (:func:`fa_loadings_step`), then takes one EM
step from them (:func:`fa_model_update`; ECME, Liu & Rubin 1998, *Statistica Sinica*). With
psi = sigma2 1 for ``pca`` and S~ = Psi^{-1/2} S_reg Psi^{-1/2}, the loadings whose columns
Psi^{-1/2} W lie in a subspace give at best (Joreskog 1967, *Psychometrika*)

    J = c + (K + eps) / 2 sum_j (log theta_j - theta_j + 1),    c fixed by psi and S_reg,

over the top q Ritz values theta_j > 1 of S~ on that subspace, at W = Psi^{1/2} U
diag(sqrt(theta - 1)) with U their Ritz vectors (a Ritz value <= 1 gives a zero column); each
term falls as theta_j grows. ``pca`` frees sigma2 too: its joint optimum on the subspace is
:func:`_pca_fit` of the Ritz pairs of S_reg. The j-th Ritz value on a subspace containing
span(V), V = Psi^{-1/2} W_prev, is at least the j-th on span(V) (Courant-Fischer), and the
previous model has its columns in span(V). So the step, which takes the subspace
span[V, S~ V], cannot raise J, nor can the EM step after it: a plain step still descends.
Householder QR gives the basis Q of [V, S~ V] at any rank of the block (:func:`_ritz_pairs`);
S~ V and S~ Q are products of q and 2q columns, O(ell^2 q). At 2q >= ell the step is exact:
the PPCA optimum, and FA's given psi.

SQUAREM (Varadhan & Roland 2008, *Scand. J. Stat.*). F converges linearly at a rate near 1,
like EM. From the model of evaluation 1 on, evaluations run in cycles over the parameters
theta: P = M^{-1} for ``fc``, (W, log sigma2) for ``pca``, (W, log psi) for ``fa``, the logs
keeping the noise positive. Two plain steps give theta1 = F(theta0) and theta2 = F(theta1);
with r = theta1 - theta0, v = theta2 - 2 theta1 + theta0 and alpha = -||r|| / ||v||
(extrapolated only below -1, and for ``fa`` no further than its adaptive bound), the third
evaluates F at theta0 - 2 alpha r + alpha^2 v. ``fc`` imputes straight from that P', O(ell^2),
and factors no ell x ell trial matrix: the log det identity above needs only each P'_hh to be
PD, so J is still that of real completions and their refit M. ``pca`` and ``fa`` factor the
point's model, O(ell q^2). The safeguard keeps the result only if J does not rise above the
last kept value; otherwise, or if the point cannot be imputed from (for ``fc``, a P'_hh is not
PD), the evaluation is rejected and the next is the plain step F(theta2), which always descends.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, DimensionError, NotPositiveDefiniteError, NumericalError
from .linalg import (EigenDecomposition, LowRankInverse, _signed, count_above, eigh_sorted,
                     logdet, logdet_and_inverse, logdet_divergences, low_rank_logdet_and_inverse,
                     symmetrize)
from .views import (Fill, PartitionedView, VisibilityPattern, apply_mask, is_integer, is_real,
                    partition)

METHOD_FC = "fc"
METHOD_PCA = "pca"
METHOD_FA = "fa"
METHODS = (METHOD_FC, METHOD_PCA, METHOD_FA)

CRITERION_GK = "gk"
CRITERION_KAISER = "kaiser"
RANK_CRITERIA = (CRITERION_GK, CRITERION_KAISER)

# Relative floor keeping noise variances strictly positive in the FA update.
PSI_FLOOR_REL = 1e-10
# ``fa``'s bound on the SQUAREM |alpha| starts at FA_STEP_MAX0 and is multiplied by
# FA_STEP_GROWTH when a step reaches it and holds, divided when such a step is rejected (the
# defaults of Varadhan's SQUAREM package). Where a noise variance tends to 0 (a Heywood case)
# log psi_i falls by about the same amount each evaluation, so ||r|| / ||v|| has no bound, and an
# unbounded step scales the iterates' rounding by up to alpha^2.
FA_STEP_MAX0 = 1.0
FA_STEP_GROWTH = 4.0


@dataclass(frozen=True)
class FullModel:
    """Unrestricted model matrix. No solve calls :meth:`materialize`; it stays for
    :func:`objective`, the tests and perfbench's tracer, which wraps it by name."""

    matrix: np.ndarray

    def materialize(self) -> np.ndarray:
        return self.matrix

    def logdet_and_inverse(self) -> tuple[float, np.ndarray]:
        """log det M and the whole M^{-1}, the point the driver extrapolates."""
        return logdet_and_inverse(self.matrix)


@dataclass(frozen=True)
class PcaModel:
    """Low-rank plus isotropic noise: W W^T + sigma2 I; :meth:`materialize` as in FullModel."""

    W: np.ndarray
    sigma2: float

    def materialize(self) -> np.ndarray:
        return symmetrize(self.W @ self.W.T + self.sigma2 * np.eye(self.W.shape[0]))

    def logdet_and_inverse(self) -> tuple[float, LowRankInverse]:
        """log det M and M^{-1} factored from W and sigma2 * 1."""
        return low_rank_logdet_and_inverse(self.W, np.full(self.W.shape[0], self.sigma2))

    def parameters(self) -> tuple[np.ndarray, ...]:
        """The point the driver extrapolates: W and log sigma2."""
        return (self.W, np.log([self.sigma2]))

    @classmethod
    def from_parameters(cls, theta: tuple[np.ndarray, ...]) -> "PcaModel":
        return cls(W=theta[0], sigma2=float(np.exp(theta[1][0])))


@dataclass(frozen=True)
class FaModel:
    """Low-rank plus diagonal noise: W W^T + diag(psi); :meth:`materialize` as in FullModel."""

    W: np.ndarray
    psi: np.ndarray

    def materialize(self) -> np.ndarray:
        return symmetrize(self.W @ self.W.T + np.diag(self.psi))

    def logdet_and_inverse(self) -> tuple[float, LowRankInverse]:
        """log det M and M^{-1} factored from W and psi."""
        return low_rank_logdet_and_inverse(self.W, self.psi)

    def parameters(self) -> tuple[np.ndarray, ...]:
        """The point the driver extrapolates: W and log psi."""
        return (self.W, np.log(self.psi))

    @classmethod
    def from_parameters(cls, theta: tuple[np.ndarray, ...]) -> "FaModel":
        return cls(W=theta[0], psi=np.exp(theta[1]))


ModelParams = Union[FullModel, PcaModel, FaModel]


@dataclass(frozen=True)
class CompletionConfig:
    """Driver settings; ``rank``/``rank_criterion`` fix q of every method's start and of the
    pca/fa model, and at most one of them may be set (with neither, ``gk`` picks the rank). A
    criterion counts on each view's visible block, and q is the counts' lower median (README).

    Each setting is checked here, by type and value, for the library and the
    CLI alike; :func:`degrees_of_freedom` checks that ``rank`` fits the data.
    A NaN ``tol`` never stops the run early.
    """

    method: str = METHOD_FC
    rank: Optional[int] = None
    rank_criterion: Optional[str] = None
    tol: float = 1e-8
    max_iters: int = 500
    reg_epsilon: float = 1e-3

    def __post_init__(self):
        for name, valid, rule in (
            ("method", self.method in METHODS, f"one of {METHODS}"),
            ("rank", self.rank is None or is_integer(self.rank), "an integer"),
            ("rank_criterion", self.rank_criterion in (None, *RANK_CRITERIA),
             f"one of {RANK_CRITERIA}"),
            ("rank_criterion", self.rank is None or self.rank_criterion is None,
             "None when rank is set"),
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
    """What :func:`run_completion` returns: the completed views, the model and the fields of
    README's trace file, with ``trace`` for its ``objective`` and None for its ``null``."""

    completed: list[np.ndarray]
    model: ModelParams
    trace: list[float]
    iterations: int
    stop: str
    dof: int
    rank: int
    iter_ms: list[float] = field(default_factory=list)
    residual: list[float] = field(default_factory=list)
    step_length: list[Optional[float]] = field(default_factory=list)
    rejected: int = 0
    setup_ms: float = 0.0

    @property
    def converged(self) -> bool:
        return self.stop != STOP_MAX_ITERS


def average_kernel(qs: Sequence[np.ndarray]) -> np.ndarray:
    """Entrywise mean of K same-sized symmetric matrices.

    The tests' oracle of the set-up's in-loop sum, which adds the views in this order; the
    checks serve public callers (``mkmc`` exports it)."""
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
    """Numerical-stability transform (K*S + eps*I) / (K + eps), a new array unless eps is 0.

    The set-up calls it on S_0; ``eps`` follows :class:`CompletionConfig`'s ``reg_epsilon`` rule."""
    if not (is_real(eps) and 0 <= eps <= sys.float_info.max):
        raise ConfigError(f"eps must be a finite number >= 0, got {eps!r}")
    if eps == 0:
        return s
    out = n_views * s
    out.flat[::len(out) + 1] += eps
    out /= n_views + eps
    return out


def fc_model_update(s_reg: np.ndarray) -> FullModel:
    """Full-covariance M-step: the model matrix is the average kernel itself.

    The driver's factorization of M, not this step, rejects a non-PD ``s_reg``."""
    return FullModel(matrix=s_reg)


def pca_model_update(s_reg: np.ndarray, q: int, start: Optional[np.ndarray] = None) -> PcaModel:
    """The PPCA refit of (W, sigma2) (Tipping & Bishop 1999) from q pairs (theta_j, u_j) of
    S_reg (:func:`_pca_fit`): W = U diag(sqrt(max(theta_j - sigma2, 0))), rotation fixed to I.

    With no ``start`` they are the top q eigenpairs from ``dsyevr``, O(ell^3): the closed-form
    joint optimum. From an ell x q ``start``, at the set-up S_0_reg's top-variance columns and
    in an evaluation the W being refit, they are the top q Ritz pairs on span[start,
    S_reg start], O(ell^2 q) (module docstring), and ``s_reg``, in an evaluation a
    :class:`_FactoredAverage`, is read only through ``s_reg @ x`` and its diagonal.
    """
    diag = s_reg.diagonal()
    ell = len(diag)
    degrees_of_freedom(METHOD_PCA, ell, q)  # the rank rule
    if start is None:
        return _pca_fit(diag, eigh_sorted(s_reg, top=q))
    if start.shape != (ell, q):
        raise ValueError(f"start must have shape {(ell, q)}, got {start.shape}")
    return _pca_fit(diag, _ritz_pairs(lambda x: s_reg @ x, start, "PPCA refit"))


def _pca_fit(diag: np.ndarray, eig: EigenDecomposition) -> PcaModel:
    """sigma2 = (tr S_reg - theta_1 - ... - theta_p) / (ell - p) and W from diag S_reg and q pairs,
    p the number of leading pairs with theta_j above the sigma2 of the first j: each such pair
    lowers J and any later one would raise it. Eigenpairs keep all q but at ties."""
    ell, q = eig.eigenvectors.shape
    theta, trace = eig.eigenvalues, diag.sum()
    kept = int(np.count_nonzero(theta > (trace - np.cumsum(theta)) / (ell - np.arange(1, q + 1))))
    sigma2 = float(trace - np.sum(theta[:kept])) / (ell - kept)
    gap = np.clip(theta - sigma2, 0.0, None)
    return PcaModel(W=eig.eigenvectors * np.sqrt(gap), sigma2=sigma2)


def _ritz_pairs(product: Callable[[np.ndarray], np.ndarray], v: np.ndarray,
                step: str) -> EigenDecomposition:
    """The top q Ritz pairs of a symmetric A, read only through ``product(x)`` = A x, on the span
    of [V, A V] for an ell x q ``v``, sign-fixed by :func:`~mkmc.linalg._signed`. Householder
    QR gives the basis Q at any rank of the block (at 2q >= ell, of R^ell); then A Q and the
    eigenpairs of Q^T A Q. A non-finite Q^T A Q raises a NumericalError naming ``step``."""
    ell, q = v.shape
    basis = np.linalg.qr(np.hstack([v, product(v)[:, :ell - q]]))[0]
    h = symmetrize(basis.T @ product(basis))
    if not np.isfinite(h).all():
        raise NumericalError(f"{step}: S_reg or the model is not finite")
    theta, z = np.linalg.eigh(h)
    return _signed(theta[::-1][:q], basis @ z[:, ::-1][:, :q])


def fa_estep(s: np.ndarray, w: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Latent second moments S_xz = S B^T and S_zz = I - B W + B S_xz, B = W^T M^{-1}.

    B comes from the Woodbury form of M = W W^T + diag(psi), so ``s`` is read only through one
    product: O(ell^2 q + ell q^2).
    """
    try:
        _, inverse = low_rank_logdet_and_inverse(w, psi)
    except NotPositiveDefiniteError as exc:
        raise NumericalError("FA E-step capacitance matrix is singular") from exc
    b = inverse.w_t_inverse()
    s_xz = s @ b.T
    s_zz = np.eye(w.shape[1]) - b @ w + b @ s_xz
    return s_xz, s_zz


def fa_model_update(s_reg: np.ndarray, prev: FaModel) -> FaModel:
    """One EM step for the factor-analysis model, O(ell^2 q + ell q^2).

    W_new = S_xz S_zz^{-1} and psi_new = diag(S - S_xz W_new^T), floored at PSI_FLOOR_REL times
    the mean of diag S to stay positive.
    ``s_reg`` is read only through ``s_reg @ x`` and ``s_reg.diagonal()``. In an evaluation the
    driver passes a :class:`_FactoredAverage` and, as ``prev``, the result of
    :func:`fa_loadings_step`.
    """
    if np.any(prev.psi <= 0):
        raise ValueError("previous noise variances must be positive")
    s_xz, s_zz = fa_estep(s_reg, prev.W, prev.psi)
    try:
        w_new = np.linalg.solve(s_zz.T, s_xz.T).T  # S_xz S_zz^{-1}
    except np.linalg.LinAlgError as exc:
        raise NumericalError("FA M-step latent covariance is singular") from exc
    diag = s_reg.diagonal()
    psi = diag - np.einsum("ij,ij->i", s_xz, w_new)
    return FaModel(W=w_new, psi=np.maximum(psi, PSI_FLOOR_REL * diag.sum() / len(psi)))


def fa_loadings_step(s_reg: np.ndarray, prev: FaModel) -> FaModel:
    """The loadings refit given psi: one Rayleigh-Ritz step (module docstring), O(ell^2 q).

    With V = Psi^{-1/2} W and T = S~ - I = Psi^{-1/2} (S_reg - Psi) Psi^{-1/2}, it takes the top
    q Ritz pairs (tau_j, u_j) of T on the span of [V, T V], tau_j = theta_j - 1, and returns
    W = Psi^{1/2} U diag(sqrt(max(tau_j, 0))), each u_j's largest-magnitude entry positive, with
    psi kept. ``s_reg`` is read only through ``s_reg @ x``: T V, then T on the basis.
    """
    if np.any(prev.psi <= 0):
        raise ValueError("previous noise variances must be positive")
    root = np.sqrt(prev.psi)[:, None]

    def shifted(x):  # T x = Psi^{-1/2} (S_reg y - psi y), y = Psi^{-1/2} x: 0 where S_reg = Psi
        y = x / root
        return (s_reg @ y - prev.psi[:, None] * y) / root

    pairs = _ritz_pairs(shifted, prev.W / root, "FA loadings step")
    return FaModel(W=root * pairs.eigenvectors * np.sqrt(np.maximum(pairs.eigenvalues, 0.0)),
                   psi=prev.psi)


def objective(qs: Sequence[np.ndarray], model: ModelParams) -> float:
    """Sum over views of LogDet(Q^(k), M) with the model matrix materialized, factored once."""
    return float(sum(logdet_divergences(qs, model.materialize())))


def impute_view(inverse: Union[np.ndarray, LowRankInverse], view: PartitionedView,
                factored: bool = False) -> tuple[float, np.ndarray, np.ndarray]:
    """log det P_hh, Q_vh and Q_hh of one view, imputed from the held M^{-1} (module docstring).

    From the whole P (``fc`` from iteration 2) row-wise, X^T = -P_hh^{-1} P_hv from P's
    hidden rows, O(n_h^3 + n_v^2 n_h); Q_vh is a view of Q_hv. From a ``LowRankInverse``
    (every start), O(n_v^2 q); with ``factored`` it returns log det P_hh, Q_vv A and W_h G_v."""
    if isinstance(inverse, LowRankInverse):
        f_v = inverse.f[:, view.vis]
        # C_v = I + W_v^T D_v^{-1} W_v >= I, the capacitance matrix of M_vv
        c_v = symmetrize(np.eye(len(f_v)) + f_v @ inverse.w[view.vis])
        logdet_c_v, c_v_inv = logdet_and_inverse(c_v)
        a = f_v.T @ c_v_inv  # D_v^{-1} W_v C_v^{-1} = M_vv^{-1} W_v
        qa = view.q_vv @ a
        w_h, d_h = inverse.w[view.hid], inverse.d[view.hid]
        w_h_g = w_h @ (c_v_inv + a.T @ qa)  # W_h G_v
        logdet_p_hh = logdet_c_v - float(np.sum(np.log(d_h))) - inverse.logdet_c
        if factored:
            return logdet_p_hh, qa, w_h_g
        return (logdet_p_hh, *_hidden_blocks(qa, w_h_g, w_h, d_h))
    p_h = inverse.take(view.hid, 0)  # P's hidden rows: P_hv = P_vh^T, as P is symmetric
    logdet_p_hh, schur = logdet_and_inverse(p_h.take(view.hid, 1))
    x_t = -schur @ p_h.take(view.vis, 1)  # X^T = (M_vv^{-1} M_vh)^T
    q_hv = x_t @ view.q_vv
    return logdet_p_hh, q_hv.T, symmetrize(schur + q_hv @ x_t.T)


def _hidden_blocks(qa: np.ndarray, w_h_g: np.ndarray, w_h: np.ndarray,
                   d_h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q_vh = (Q_vv A) W_h^T and Q_hh = (W_h G) W_h^T + D_h from :func:`impute_view`'s factors."""
    q_hh = w_h_g @ w_h.T
    q_hh.flat[::len(d_h) + 1] += d_h
    return qa @ w_h.T, symmetrize(q_hh)


def _write(c: np.ndarray, view: PartitionedView, q_vh: np.ndarray, q_hh: np.ndarray) -> None:
    """Write one view's imputed hidden blocks into its completed matrix ``c``: the hidden rows
    [Q_hv | Q_hh] as one row block, then Q_vh into the visible rows."""
    row = np.empty((len(view.hid), len(c)))
    row[:, view.vis], row[:, view.hid] = q_vh.T, q_hh
    c[view.hid] = row
    c[view.vh] = q_vh


class _ImputedAverage:
    """S_reg of an ``fc`` evaluation: S_0_reg and each hiding view's dense (Q_vh, Q_hh)."""

    def __init__(self, s0_reg: np.ndarray, denom: float, views: list, blocks: list):
        self.s0_reg, self.denom, self.views, self.blocks = s0_reg, denom, views, blocks

    def dense(self) -> np.ndarray:
        """S_reg = C + C^T (module docstring), O(ell^2 + sum_k n_h ell)."""
        c = self.s0_reg * 0.5
        for (_, view), (q_vh, q_hh) in zip(self.views, self.blocks):
            row = np.empty((len(view.hid), len(c)))
            row[:, view.vis], row[:, view.hid] = q_vh.T, 0.5 * q_hh
            c[view.hid] += row / self.denom
        return c + c.T

    def write(self, completed: list[np.ndarray]) -> None:
        """Write each view's dense Q_vh and Q_hh into ``completed``."""
        for (k, view), blocks in zip(self.views, self.blocks):
            _write(completed[k], view, *blocks)


class _FactoredAverage:
    """S_reg of a ``pca``/``fa`` evaluation from the stacked Z~ and Y (module docstring), built
    once and read only through ``s @ x`` and :meth:`diagonal`: no evaluation forms it whole.
    ``n_hiding`` holds each n_i, which the mask fixes for the run."""

    def __init__(self, s0_reg: np.ndarray, denom: float, views: list, n_hiding: np.ndarray,
                 inverse: LowRankInverse, factors: list):
        self.s0_reg, self.denom, self.views, self.blocks = s0_reg, denom, views, factors
        self.inverse = inverse
        ell, q = inverse.w.shape
        z_tilde, y = np.zeros((ell, len(views), q)), np.zeros((ell, len(views), q))
        for i, ((_, view), (qa, w_h_g)) in enumerate(zip(views, factors)):
            z_tilde[view.vis, i] = qa
            z_tilde[view.hid, i] = 0.5 * w_h_g
            y[view.hid, i] = inverse.w[view.hid]
        self.z_tilde, self.y = z_tilde.reshape(ell, -1), y.reshape(ell, -1)
        self.delta = inverse.d * n_hiding
        z_y = np.einsum("ij,ij->i", self.z_tilde, self.y)
        self.diag = s0_reg.diagonal() + (2.0 * z_y + self.delta) / denom

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        imputed = self.z_tilde @ (self.y.T @ x) + self.y @ (self.z_tilde.T @ x)
        return self.s0_reg @ x + (imputed + self.delta[:, None] * x) / self.denom

    def diagonal(self) -> np.ndarray:
        return self.diag

    def write(self, completed: list[np.ndarray]) -> None:
        w, d = self.inverse.w, self.inverse.d
        for (k, view), (qa, w_h_g) in zip(self.views, self.blocks):
            _write(completed[k], view, *_hidden_blocks(qa, w_h_g, w[view.hid], d[view.hid]))


def select_rank(s: np.ndarray, criterion: str) -> int:
    """Guttman-Kaiser (above the spectrum mean, tr S / n) or Kaiser (above one) count of the
    eigenvalues of a symmetric n x n ``s``, clamped into [1, n-1], from the inertia of one
    LDL^T (:func:`~mkmc.linalg.count_above`). The driver calls it on each view (README)."""
    n = s.shape[0]
    if criterion == CRITERION_GK:
        threshold = float(np.trace(s)) / n
    elif criterion == CRITERION_KAISER:
        threshold = 1.0
    else:
        raise ValueError(f"unknown rank criterion {criterion!r}")
    return max(1, min(count_above(s, threshold), n - 1))


def degrees_of_freedom(method: str, ell: int, q: Optional[int] = None) -> int:
    """Parameter count of each covariance model; ``fc``'s needs no q, but a given q is checked."""
    if q is not None and not is_integer(q):
        raise ConfigError(f"rank q must be an integer, got {q!r}")
    if q is None and method != METHOD_FC or q is not None and not 1 <= q <= ell - 1:
        raise DimensionError(f"rank q={q} out of range [1, {ell - 1}]")
    if method == METHOD_FC:
        return (ell + 1) * ell // 2
    if method == METHOD_PCA:
        return ell * q + 1 - (q - 1) * q // 2
    if method == METHOD_FA:
        return ell * q + ell - (q - 1) * q // 2
    raise ValueError(f"unknown method {method!r}")


def _sq_norm(theta: tuple[np.ndarray, ...]) -> float:
    return sum(float(np.vdot(part, part)) for part in theta)


def _relative_change(new: tuple[np.ndarray, ...], point: tuple[np.ndarray, ...]) -> float:
    """||new - point|| / max(||point||, ||new||); 0 when nothing moved."""
    dd = _sq_norm(tuple(a - b for a, b in zip(new, point)))
    return float(np.sqrt(dd / max(_sq_norm(point), _sq_norm(new)))) if dd else 0.0


def run_completion(
    qs_masked: Sequence[np.ndarray],
    pattern: VisibilityPattern,
    cfg: CompletionConfig,
    on_iteration: Optional[Callable[[int, list[np.ndarray], ModelParams], None]] = None,
) -> CompletionResult:
    """Block coordinate descent completing all K views against one model, SQUAREM-accelerated.

    The set-up, O(K ell^2) memory passes plus sum_k n_v^3 / 3 flops, fixes S_0_reg and each
    view's split and log det Q_vv. README gives the start, the stop rule and what is refused.
    No input is written or aliased. ``on_iteration(it, completed, model)`` runs after every
    accepted evaluation; ``it`` counts evaluations, rejected ones included.
    """
    t_entry = time.perf_counter()
    pattern.check(qs_masked)
    if pattern.unobserved:
        raise DimensionError(f"objects {list(pattern.unobserved)} are hidden in every view")
    n_views, ell, eps = pattern.n_views, pattern.ell, cfg.reg_epsilon
    denom = n_views + eps  # K + eps

    # One pass per view, while it is in cache; the sum runs in average_kernel's order. With a
    # rank criterion, each view with two or more visible objects counts on its Q_vv.
    criterion = None if cfg.rank is not None else cfg.rank_criterion or CRITERION_GK
    completed, views, logdet_vv, counts, n_hiding = [], [], 0.0, [], np.zeros(ell)
    for k, (q, h) in enumerate(zip(qs_masked, pattern.hidden)):
        c = apply_mask(q, h, Fill.ZERO)
        completed.append(c)
        s0_reg = c.copy() if k == 0 else np.add(s0_reg, c, out=s0_reg)
        view = partition(c, h)
        try:
            logdet_vv += logdet(view.q_vv)
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError(
                f"view {k}: visible block is not positive definite") from exc
        if criterion is not None and len(view.vis) >= 2:
            counted = view.q_vv
            if criterion == CRITERION_KAISER:  # the correlation form D^{-1/2} Q_vv D^{-1/2}
                scale = 1.0 / np.sqrt(counted.diagonal())
                counted = counted * scale * scale[:, None]
            counts.append(select_rank(counted, criterion))
        if h:
            views.append((k, view))
            n_hiding[view.hid] += 1.0
    s0_reg /= n_views  # S_0, then S_0_reg
    s0_reg = regularize(s0_reg, n_views, eps)

    if criterion is None:
        rank = int(cfg.rank)
    else:  # each count lies in [1, n_v - 1], so their lower median lies in [1, ell - 1]
        rank = sorted(counts)[(len(counts) - 1) // 2] if counts else 1
    dof = degrees_of_freedom(cfg.method, ell, rank)

    # The start, for every method: the pca refit of S_0_reg from its top-variance columns. FA
    # takes its loadings and its sigma2 as every noise variance (module docstring).
    top = np.sort(np.argsort(-s0_reg.diagonal(), kind="stable")[:rank])
    model = pca_model_update(s0_reg, rank, s0_reg[:, top])
    if cfg.method == METHOD_FA:
        model = FaModel(W=model.W, psi=np.full(ell, model.sigma2))
    try:
        model_inv = model.logdet_and_inverse()[1]
    except NotPositiveDefiniteError as exc:
        raise NumericalError(f"initial model matrix: {exc}") from exc
    factored = cfg.method != METHOD_FC  # pca/fa: the imputed blocks stay in factors
    # fc's theta is P = M^{-1}: its iteration-1 residual compares with the start's, O(ell^2 q)
    theta = model.parameters() if factored else (model_inv.dense(),)
    setup_ms = (time.perf_counter() - t_entry) * 1e3

    def evaluate(prev: ModelParams, prev_inv):
        """F at ``prev``, imputing from ``prev_inv`` (all ``fc`` reads): J, the new model, its
        inverse and the S_reg holder, :class:`_ImputedAverage` or :class:`_FactoredAverage`."""
        logdet_q = logdet_vv  # sum_k log det Q^(k) after imputing from prev
        blocks = []  # each view's (Q_vh, Q_hh), or for pca/fa (Q_vv A, W_h G)
        for k, view in views:
            try:
                logdet_p_hh, *view_blocks = impute_view(prev_inv, view, factored)
            except NotPositiveDefiniteError as exc:
                raise NumericalError(f"view {k}: hidden block of the model inverse is "
                                     f"numerically singular: {exc}") from exc
            logdet_q -= logdet_p_hh
            blocks.append(view_blocks)
        imputed = (_FactoredAverage(s0_reg, denom, views, n_hiding, prev_inv, blocks) if factored
                   else _ImputedAverage(s0_reg, denom, views, blocks))
        s_reg = imputed if factored else imputed.dense()  # pca and fa read products
        if cfg.method == METHOD_FC:
            new = fc_model_update(s_reg)
        elif cfg.method == METHOD_PCA:
            new = pca_model_update(s_reg, rank, prev.W)
        else:  # the loadings given psi, then one EM step from them
            new = fa_model_update(s_reg, fa_loadings_step(s_reg, prev))
        logdet_m, new_inv = new.logdet_and_inverse()
        # <M^{-1}, S_reg> - ell, 0 but for fa (module docstring)
        trace_term = new_inv.inner(s_reg) - ell if cfg.method == METHOD_FA else 0.0
        j = 0.5 * (denom * (logdet_m + trace_term) - logdet_q)
        return j, new, new_inv, imputed

    trace: list[float] = []
    iter_ms: list[float] = []
    residual: list[float] = []
    step_length: list[Optional[float]] = []
    cycle: list = []  # parameters of this cycle's accepted models: theta0, theta1, theta2
    alpha: Optional[float] = None  # step length of the next evaluation, if extrapolated
    step_max = FA_STEP_MAX0 if cfg.method == METHOD_FA else np.inf  # the bound on |alpha|
    rejected, stop, t0 = 0, STOP_MAX_ITERS, time.perf_counter()
    for it in range(1, cfg.max_iters + 1):
        if alpha is None:
            point = theta
            try:
                j, new, new_inv, imputed = evaluate(model, model_inv)
            except (NumericalError, NotPositiveDefiniteError) as exc:
                raise NumericalError(f"iteration {it}: {exc}") from exc
        else:
            try:
                with np.errstate(all="raise"):  # theta0 - 2 alpha r + alpha^2 v, from theta2
                    point = tuple(t - 2.0 * (1.0 + alpha) * a + (alpha * alpha - 1.0) * b
                                  for t, a, b in zip(cycle[2], r, v))
                    trial = type(model).from_parameters(point) if factored else None
                with np.errstate(over="raise", invalid="raise", divide="raise"):  # fc: from P'
                    j, new, new_inv, imputed = evaluate(
                        trial, trial.logdet_and_inverse()[1] if factored else point[0])
                accepted = j <= trace[-1]
            except (NumericalError, NotPositiveDefiniteError, FloatingPointError):
                accepted = False
            if not accepted:  # next, the plain step, which re-imputes every hidden block
                if alpha == -step_max:
                    step_max = max(FA_STEP_MAX0, step_max / FA_STEP_GROWTH)
                rejected += 1
                alpha = None
                continue

        model, model_inv, accepted_imputed = new, new_inv, imputed
        theta = model.parameters() if factored else (model_inv,)
        residual.append(_relative_change(theta, point))
        step_length.append(alpha)
        if alpha == -step_max:
            step_max *= FA_STEP_GROWTH
        alpha = None
        # A cycle starts at the model of iteration 1, not the start, and after each third one.
        if len(cycle) == 3:
            cycle = []
        cycle.append(theta)
        if len(cycle) == 3 and it + 1 < cfg.max_iters:  # the last evaluation is plain
            r = tuple(b - a for a, b in zip(*cycle[:2]))  # theta1 - theta0
            v = tuple(c - b - a for a, b, c in zip(r, *cycle[1:]))  # (theta2 - theta1) - r
            rr, vv = _sq_norm(r), _sq_norm(v)
            if rr > vv > 0.0:  # SQUAREM's -||r|| / ||v|| when below -1; else the plain step
                alpha = max(-float(np.sqrt(rr / vv)), -step_max)
        iter_ms.append((time.perf_counter() - t0) * 1e3)
        trace.append(j)
        if on_iteration is not None:
            accepted_imputed.write(completed)
            on_iteration(it, completed, model)
        t0 = time.perf_counter()  # a rejected evaluation's time goes to the next accepted one
        # With nothing hidden the imputation is vacuous: one model fit is the answer.
        if not views:
            stop = STOP_NO_HIDDEN
            break
        if len(trace) >= 2 and abs(j - trace[-2]) / max(1.0, abs(trace[-2])) < cfg.tol:
            stop = STOP_TOL
            break
    if on_iteration is None:
        accepted_imputed.write(completed)

    return CompletionResult(completed=completed, model=model, trace=trace, iterations=it, stop=stop,
                            dof=dof, rank=rank, iter_ms=iter_ms, residual=residual,
                            step_length=step_length, rejected=rejected, setup_ms=setup_ms)
