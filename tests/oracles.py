"""Dense references for the tests: formulas that work from the model matrix M itself.

A run imputes each view from M^{-1} or its factors (:func:`mkmc.engines.impute_view`);
:func:`impute_from_model` is the plain conditional-moment formula that step is checked
against, and :func:`impute_from_inverse` the same blocks from a matrix P taken as M^{-1}, by
the dense partitioned-inverse formulas, for ``fc``'s extrapolated points. :func:`start_model`
is the model a run starts from, rebuilt with :func:`ritz_pca`.
:func:`eigh_descending` is every eigenpair, from numpy's solver rather than the top-q one a
run uses, and :func:`criterion_rank` the rank a criterion picks, from every eigenvalue rather
than the inertia of one LDL^T factor per view. :func:`ritz_loadings` is ``fa``'s loadings step
and :func:`ritz_pca` ``pca``'s refit, each from the materialized matrix and an SVD basis,
rather than from two products and a QR factor; :func:`factored_average_dense` is the S_reg
that those products read, formed whole.
"""

import numpy as np
import scipy.linalg as sla

from mkmc.engines import FaModel, PcaModel, average_kernel, regularize
from mkmc.linalg import cholesky_lower, symmetrize
from mkmc.views import Fill, apply_mask, partition


def impute_from_model(q_vv: np.ndarray, m: np.ndarray, hidden) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian conditional-moment re-estimation of the hidden blocks of one view.

    With the blocks M_vv, M_vh, M_hh of M for the view hiding ``hidden``:

        Q_vh = Q_vv M_vv^{-1} M_vh
        Q_hh = M_hh - M_hv M_vv^{-1} M_vh + M_hv M_vv^{-1} Q_vv M_vv^{-1} M_vh

    Inverses are realized by Cholesky solves, and M_hv M_vv^{-1} Q_vv M_vv^{-1}
    M_vh reuses Q_vh; Q_hh is symmetrized.
    """
    view = partition(m, hidden)
    m_vh = m[view.vh]
    x = sla.cho_solve((cholesky_lower(view.q_vv), True), m_vh)  # M_vv^{-1} M_vh
    q_vh = q_vv @ x
    return q_vh, symmetrize(m[np.ix_(view.hid, view.hid)] - m_vh.T @ x + x.T @ q_vh)


def impute_from_inverse(q_vv: np.ndarray, p: np.ndarray, hidden) -> tuple[np.ndarray, np.ndarray]:
    """The hidden blocks of one view imputed from P = M^{-1}, which need not be definite.

    By the partitioned inverse, M_vv^{-1} M_vh = X = -P_vh P_hh^{-1} and the Schur complement
    M_hh - M_hv M_vv^{-1} M_vh is P_hh^{-1}, so

        Q_vh = Q_vv X,    Q_hh = P_hh^{-1} + X^T Q_vv X.

    P_hh is factored by Cholesky, which raises NotPositiveDefiniteError if it is not PD, and
    its inverse is a Cholesky solve against I; Q_hh is symmetrized.
    """
    view = partition(p, hidden)
    factor = (cholesky_lower(p[np.ix_(view.hid, view.hid)]), True)
    x = -sla.cho_solve(factor, p[view.vh].T).T
    q_vh = q_vv @ x
    return q_vh, symmetrize(sla.cho_solve(factor, np.eye(len(view.hid))) + x.T @ q_vh)


def start_model(masked, pattern, method: str, rank: int, eps: float):
    """The documented start: the ``pca`` refit (:func:`ritz_pca`) of S_0, the regularized
    average of the zero-filled views, from its ``rank`` columns of largest variance (ties to the
    lower index), in index order. ``fc`` and ``pca`` start at that model; ``fa`` at its loadings
    W with noise sigma2 1."""
    zero_filled = [apply_mask(q, h, Fill.ZERO) for q, h in zip(masked, pattern.hidden)]
    s0 = regularize(average_kernel(zero_filled), pattern.n_views, eps)
    top = np.sort(np.argsort(-np.diag(s0), kind="stable")[:rank])
    pca = ritz_pca(s0, PcaModel(W=s0[:, top], sigma2=1.0))  # ritz_pca reads only W
    if method in ("fc", "pca"):
        return pca
    return FaModel(W=pca.W, psi=np.full(pattern.ell, pca.sigma2))


def eigh_descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenpair of a symmetric ``a`` by ``np.linalg.eigh``, under the sort and sign
    rule of :func:`mkmc.linalg.eigh_sorted`: eigenvalues descending, and each eigenvector's
    largest-magnitude entry positive."""
    vals, vecs = np.linalg.eigh(a)
    vecs = vecs[:, ::-1]
    lead = np.argmax(np.abs(vecs), axis=0)
    return vals[::-1], vecs * np.sign(vecs[lead, np.arange(vecs.shape[1])])


def criterion_rank(masked, pattern, criterion: str) -> int:
    """The rank a run picks by ``criterion``: the lower median of the counts of the views with
    at least two visible objects, 1 when there is none. A view counts the eigenvalues
    (``np.linalg.eigvalsh``) of its visible block Q_vv above their mean (``gk``), or those of
    its correlation form D^{-1/2} Q_vv D^{-1/2} above one (``kaiser``), clamped into
    [1, n_v - 1]."""
    counts = []
    for q, h in zip(masked, pattern.hidden):
        vis = np.setdiff1d(np.arange(pattern.ell), h)
        if len(vis) < 2:
            continue
        q_vv = symmetrize(q)[np.ix_(vis, vis)]
        if criterion == "kaiser":
            scale = 1.0 / np.sqrt(np.diag(q_vv))
            vals = np.linalg.eigvalsh(q_vv * np.outer(scale, scale))
            raw = np.sum(vals > 1.0)
        else:
            vals = np.linalg.eigvalsh(q_vv)
            raw = np.sum(vals > np.mean(vals))
        counts.append(max(1, min(int(raw), len(vis) - 1)))
    return sorted(counts)[(len(counts) - 1) // 2] if counts else 1


def ritz_loadings(s: np.ndarray, model: FaModel) -> FaModel:
    """``fa``'s loadings step from the dense S~ = Psi^{-1/2} S Psi^{-1/2}: with V = Psi^{-1/2} W,
    the top q eigenpairs (theta_j, z_j) of B^T S~ B for an orthonormal basis B of span[V, S~ V]
    (``scipy.linalg.orth``, by SVD) give u_j = B z_j, sign-fixed as :func:`eigh_descending`
    does, and W = Psi^{1/2} U diag(sqrt(max(theta_j - 1, 0))); psi is kept."""
    q = model.W.shape[1]
    root = np.sqrt(model.psi)
    s_tilde = s / np.outer(root, root)
    v = model.W / root[:, None]
    basis = sla.orth(np.hstack([v, s_tilde @ v]))
    theta, z = eigh_descending(symmetrize(basis.T @ s_tilde @ basis))
    u = basis @ z[:, :q]
    u *= np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(q)])
    return FaModel(W=root[:, None] * u * np.sqrt(np.maximum(theta[:q] - 1.0, 0.0)), psi=model.psi)


def ritz_pca(s: np.ndarray, model: PcaModel) -> PcaModel:
    """``pca``'s refit from the dense S: the top q eigenpairs (theta_j, z_j) of B^T S B for an
    orthonormal basis B of span[W, S W] (``scipy.linalg.orth``, by SVD) give u_j = B z_j,
    sign-fixed as :func:`eigh_descending` does. Of the q pairs the first p are kept, p the
    largest with theta_p above sigma2 = (tr S - theta_1 - ... - theta_p) / (ell - p), searched
    down from q; then W = U diag(sqrt(max(theta_j - sigma2, 0)))."""
    ell, q = model.W.shape
    basis = sla.orth(np.hstack([model.W, s @ model.W]))
    theta, z = eigh_descending(symmetrize(basis.T @ s @ basis))
    u = basis @ z[:, :q]
    u *= np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(q)])
    kept = q
    while kept and theta[kept - 1] <= (np.trace(s) - np.sum(theta[:kept])) / (ell - kept):
        kept -= 1
    sigma2 = float(np.trace(s) - np.sum(theta[:kept])) / (ell - kept)
    return PcaModel(W=u * np.sqrt(np.maximum(theta[:q] - sigma2, 0.0)), sigma2=sigma2)


def factored_average_dense(average) -> np.ndarray:
    """The S_reg a ``pca``/``fa`` evaluation reads through products, as an ell x ell array
    from the stacked factors of its :class:`mkmc.engines._FactoredAverage`:
    S_0_reg + (Z~ Y^T + Y Z~^T + diag(d o n)) / (K + eps), exactly symmetric."""
    imputed = average.z_tilde @ average.y.T
    imputed = imputed + imputed.T
    imputed.flat[::len(imputed) + 1] += average.delta
    return average.s0_reg + imputed / average.denom
