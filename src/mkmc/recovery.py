"""Synthetic ground truth, baselines, and recovery metrics.

Ground truth follows the PPCA generative form (shared low-rank factor plus
isotropic noise) so a completion run with the true rank is well specified;
optional per-view jitter makes the views correlated rather than identical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .engines import CompletionConfig, run_completion
from .errors import ConfigError, DimensionError, NotPositiveDefiniteError
from .views import Fill, VisibilityPattern, apply_mask, is_integer, is_real, random_mask


@dataclass(frozen=True)
class SyntheticSpec:
    ell: int
    n_views: int
    true_rank: int
    noise_sigma2: float
    per_view_jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, valid, rule in (
            ("ell", is_integer(self.ell), "an integer"),
            ("n_views", is_integer(self.n_views) and self.n_views >= 1, "an integer >= 1"),
            ("true_rank", is_integer(self.true_rank) and is_integer(self.ell)
             and 1 <= self.true_rank <= self.ell - 1, "an integer in [1, ell-1]"),
            ("noise_sigma2", is_real(self.noise_sigma2)
             and 0 < self.noise_sigma2 < np.inf, "a finite number > 0"),
            ("per_view_jitter", is_real(self.per_view_jitter)
             and 0 <= self.per_view_jitter < np.inf, "a finite number >= 0"),
            ("seed", is_integer(self.seed) and self.seed >= 0, "an integer >= 0"),
        ):
            if not valid:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class RecoveryReport:
    per_view_relative_error: list[float]
    mean_relative_error: float
    baseline_errors: dict[str, float]
    objective_trace: list[float]
    iterations: int
    converged: bool = True

    def to_json_dict(self) -> dict:
        return asdict(self)


def generate_synthetic(spec: SyntheticSpec) -> list[np.ndarray]:
    """Seeded PD kernels sharing a low-rank covariance.

    M* = W W^T + noise_sigma2 * I with standard-normal W; each view adds a
    Wishart-style perturbation A A^T * (jitter / ell), which keeps PD intact.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    w = rng.standard_normal((spec.ell, spec.true_rank))
    base = w @ w.T + spec.noise_sigma2 * np.eye(spec.ell)
    out = []
    for _ in range(spec.n_views):
        if spec.per_view_jitter > 0:
            a = rng.standard_normal((spec.ell, spec.ell))
            out.append(base + (a @ a.T) * (spec.per_view_jitter / spec.ell))
        else:
            out.append(base.copy())
    return out


def hidden_block_error(truth: np.ndarray, completed: np.ndarray, hidden) -> float:
    """Relative Frobenius error restricted to rows/columns that were hidden.

    A truth with a NaN or infinite entry is not positive definite, and neither
    is a completion with one in a hidden row or column, nor a truth whose hidden
    rows are all zero. (The mean-fill baseline reads the truth's visible block.) ``hidden``
    must pass :class:`~mkmc.views.VisibilityPattern`'s rule for one view's indices.
    """
    if truth.ndim != 2 or truth.shape[0] != truth.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {truth.shape}")
    if truth.shape != completed.shape:
        raise DimensionError(f"dimension mismatch: {truth.shape} vs {completed.shape}")
    hid = np.asarray(VisibilityPattern(ell=len(truth), hidden=(hidden,)).hidden[0], dtype=int)
    if hid.size == 0:
        return 0.0
    mask = np.zeros(truth.shape, dtype=bool)
    mask[hid, :] = True
    mask[:, hid] = True
    if not np.isfinite(truth).all():
        raise NotPositiveDefiniteError("truth is not positive definite: it has a non-finite entry")
    if not np.isfinite(completed[mask]).all():
        raise NotPositiveDefiniteError(
            "completed matrix is not positive definite: a hidden row has a non-finite entry")
    num = np.linalg.norm(truth[mask] - completed[mask])
    den = np.linalg.norm(truth[mask])
    if den == 0:
        raise NotPositiveDefiniteError("truth is not positive definite: its hidden rows are zero")
    return float(num / den)


def score_completion(
    truths: Sequence[np.ndarray],
    completed: Sequence[np.ndarray],
    pattern: VisibilityPattern,
    objective_trace: Sequence[float] = (),
    iterations: int = 0,
    converged: bool = True,
) -> RecoveryReport:
    """Hidden-block recovery of one completion, beside the zero/mean-fill baselines."""
    pattern.check(truths, "truth matrices")
    pattern.check(completed, "completed matrices")
    errs = []
    for k, (t, c, h) in enumerate(zip(truths, completed, pattern.hidden)):
        try:
            errs.append(hidden_block_error(t, c, h))
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError(f"view {k}: {exc}") from exc
    baselines = {
        fill.value: float(np.mean([
            hidden_block_error(t, apply_mask(t, h, fill), h)
            for t, h in zip(truths, pattern.hidden)
        ]))
        for fill in (Fill.ZERO, Fill.MEAN)
    }
    return RecoveryReport(
        per_view_relative_error=errs,
        mean_relative_error=float(np.mean(errs)),
        baseline_errors=baselines,
        objective_trace=list(objective_trace),
        iterations=iterations,
        converged=converged,
    )


def compare_methods(
    spec: SyntheticSpec,
    fraction: float,
    methods: Sequence[str],
    cfg: CompletionConfig,
    seed: int = 0,
) -> dict[str, RecoveryReport]:
    """Mask synthetic truth, run each method, and score it beside the zero/mean-fill baselines.

    Deterministic given ``spec.seed`` (ground truth) and ``seed`` (mask, checked by
    :func:`mkmc.views.random_mask`); each of ``methods`` replaces ``cfg.method``.
    """
    truths = generate_synthetic(spec)
    pattern = random_mask(spec.ell, spec.n_views, fraction, seed)
    masked = [apply_mask(t, h, Fill.ZERO) for t, h in zip(truths, pattern.hidden)]
    reports: dict[str, RecoveryReport] = {}
    for method in methods:
        result = run_completion(masked, pattern, replace(cfg, method=method))
        reports[method] = score_completion(
            truths, result.completed, pattern, result.trace, result.iterations, result.converged
        )
    return reports
