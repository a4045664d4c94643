"""Property-based invariants of the completion driver over random problems.

Examples are derandomized and the example database is off, so every run
checks the same bounded set of problems.

The descent is monotone in the objective the iteration minimizes. With
``reg_epsilon`` = eps > 0 the model update minimizes the view divergences plus
eps * LogDet(I, M), since (K S + eps I)/(K + eps) is the average of the views
and eps copies of I. The reported trace omits that term, so only the
augmented sum is asserted monotone; at eps = 0 the two coincide.

At eps = 0 an object hidden in every view leaves the zero-filled starting
average singular, and the driver must refuse the problem.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkmc.engines import METHODS, CompletionConfig, objective, run_completion
from mkmc.errors import NumericalError
from mkmc.views import Fill, VisibilityPattern, apply_mask

from conftest import random_pd

MASK_KINDS = ("empty", "correlated", "single-visible-object", "independent")


@st.composite
def problems(draw):
    ell = draw(st.integers(3, 12))
    n_views = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(MASK_KINDS))
    subset = st.lists(st.integers(0, ell - 1), unique=True, max_size=ell - 1).map(tuple)
    if kind == "empty":
        hidden = ((),) * n_views
    elif kind == "correlated":
        hidden = (draw(subset),) * n_views
    elif kind == "single-visible-object":
        keep = draw(st.integers(0, ell - 1))
        first = tuple(i for i in range(ell) if i != keep)
        hidden = (first,) + tuple(draw(subset) for _ in range(n_views - 1))
    else:
        hidden = tuple(draw(subset) for _ in range(n_views))
    method = draw(st.sampled_from(METHODS))
    rank = draw(st.integers(1, ell - 1))
    eps = draw(st.sampled_from([0.0, 1e-3]))
    seed = draw(st.integers(0, 2**32 - 1))
    return VisibilityPattern(ell=ell, hidden=hidden), method, rank, eps, seed


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problems())
def test_completion_invariants(problem):
    pattern, method, rank, eps, seed = problem
    rng = np.random.default_rng(seed)
    base = random_pd(rng, pattern.ell)
    masked = [apply_mask(base + 0.1 * random_pd(rng, pattern.ell), h, Fill.ZERO)
              for h in pattern.hidden]
    cfg = CompletionConfig(method=method, rank=rank, reg_epsilon=eps, max_iters=30)
    if eps == 0.0 and set.intersection(*map(set, pattern.hidden)):
        with pytest.raises(NumericalError, match="initial model matrix"):
            run_completion(masked, pattern, cfg)
        return
    dense, descended = [], []

    def record(_it, completed, model):
        dense.append(objective(completed, model))
        descended.append(dense[-1] + eps * objective([np.eye(pattern.ell)], model))

    result = run_completion(masked, pattern, cfg, on_iteration=record)

    for given_q, c, h in zip(masked, result.completed, pattern.hidden):
        vis = np.setdiff1d(np.arange(pattern.ell), h)
        assert np.array_equal(c[np.ix_(vis, vis)], given_q[np.ix_(vis, vis)])
        assert np.linalg.eigvalsh(c)[0] > 0.0
    assert np.all(np.diff(descended) <= 1e-10 * np.maximum(1.0, np.abs(descended[:-1])))
    assert len(dense) == result.iterations
    for fast, ref in zip(result.trace, dense):
        assert fast == pytest.approx(ref, rel=1e-10)
    if pattern.total_hidden == 0:
        assert result.iterations == 1 and result.converged

    again = run_completion(masked, pattern, cfg)
    assert again.trace == result.trace
    for c, c2 in zip(result.completed, again.completed):
        assert np.array_equal(c, c2)
