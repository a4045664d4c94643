import numpy as np
import pytest

from mkmc.engines import CompletionConfig
from mkmc.errors import DimensionError
from mkmc.linalg import eigh_sorted
from mkmc.recovery import (
    SyntheticSpec,
    compare_methods,
    generate_synthetic,
    hidden_block_error,
    score_completion,
)
from mkmc.views import VisibilityPattern

from conftest import random_symmetric


class TestGenerateSynthetic:
    def test_no_jitter_views_identical(self):
        spec = SyntheticSpec(ell=10, n_views=3, true_rank=2, noise_sigma2=0.5, seed=4)
        qs = generate_synthetic(spec)
        assert all(np.array_equal(q, qs[0]) for q in qs)

    def test_min_eigenvalue_bounded_by_noise(self):
        spec = SyntheticSpec(ell=8, n_views=1, true_rank=7, noise_sigma2=1e-3, seed=2)
        q = generate_synthetic(spec)[0]
        assert eigh_sorted(q).eigenvalues[-1] >= 1e-3 * (1 - 1e-6)

    def test_deterministic_given_seed(self):
        spec = SyntheticSpec(
            ell=12, n_views=4, true_rank=3, noise_sigma2=0.1, per_view_jitter=0.05, seed=9
        )
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SyntheticSpec(ell=5, n_views=2, true_rank=5, noise_sigma2=0.1)


class TestScoreCompletion:
    @pytest.mark.parametrize("n_truths, n_completed, what", [
        (2, 3, "2 truth matrices"), (3, 2, "2 completed matrices"), (2, 2, "2 truth matrices"),
    ])
    def test_count_must_match_views(self, n_truths, n_completed, what):
        truths = generate_synthetic(SyntheticSpec(ell=6, n_views=3, true_rank=2,
                                                  noise_sigma2=0.1, seed=1))
        pattern = VisibilityPattern(ell=6, hidden=((0,), (1,), (2,)))
        with pytest.raises(DimensionError, match=f"^{what} but pattern has 3 views$"):
            score_completion(truths[:n_truths], truths[:n_completed], pattern)


class TestHiddenBlockError:
    def test_perfect_completion(self, rng):
        a = random_symmetric(rng, 5)
        assert hidden_block_error(a, a.copy(), (1, 3)) == 0.0

    def test_zero_fill_is_exactly_one(self, rng):
        from mkmc.views import Fill, apply_mask

        a = random_symmetric(rng, 6) + 3 * np.eye(6)
        zeroed = apply_mask(a, (0, 4), Fill.ZERO)
        assert hidden_block_error(a, zeroed, (0, 4)) == pytest.approx(1.0, abs=1e-15)

    def test_empty_hidden(self, rng):
        a = random_symmetric(rng, 4)
        assert hidden_block_error(a, a + 1.0, ()) == 0.0

    def test_matches_two_loop_oracle(self, rng):
        truth = random_symmetric(rng, 7)
        completed = random_symmetric(rng, 7)
        hidden = {2, 5}
        num = den = 0.0
        for i in range(7):
            for j in range(7):
                if i in hidden or j in hidden:
                    num += (truth[i, j] - completed[i, j]) ** 2
                    den += truth[i, j] ** 2
        expected = np.sqrt(num) / np.sqrt(den)
        assert hidden_block_error(truth, completed, hidden) == pytest.approx(
            expected, abs=1e-12
        )

    def test_permutation_symmetry(self, rng):
        truth = random_symmetric(rng, 8)
        completed = random_symmetric(rng, 8)
        hidden = (1, 6)
        perm = rng.permutation(8)
        inv = np.argsort(perm)
        err_perm = hidden_block_error(
            truth[np.ix_(perm, perm)],
            completed[np.ix_(perm, perm)],
            tuple(int(inv[i]) for i in hidden),
        )
        assert err_perm == pytest.approx(hidden_block_error(truth, completed, hidden), rel=1e-12)


class TestCompareMethods:
    def test_fraction_zero_all_errors_zero(self):
        spec = SyntheticSpec(ell=10, n_views=3, true_rank=2, noise_sigma2=0.2, seed=1)
        cfg = CompletionConfig(rank=2, reg_epsilon=0.0)
        reports = compare_methods(spec, 0.0, ["fc", "pca"], cfg)
        for rep in reports.values():
            assert rep.mean_relative_error == 0.0

    def test_deterministic(self):
        spec = SyntheticSpec(
            ell=15, n_views=3, true_rank=2, noise_sigma2=0.1, per_view_jitter=0.05, seed=3
        )
        cfg = CompletionConfig(rank=2, seed=11, max_iters=40)
        a = compare_methods(spec, 0.2, ["pca"], cfg)["pca"]
        b = compare_methods(spec, 0.2, ["pca"], cfg)["pca"]
        assert a == b

    def test_traces_non_increasing_and_baselines_present(self):
        spec = SyntheticSpec(
            ell=15, n_views=4, true_rank=2, noise_sigma2=0.3, per_view_jitter=0.3, seed=7
        )
        cfg = CompletionConfig(rank=2, seed=5, max_iters=60)
        reports = compare_methods(spec, 0.2, ["fc", "pca", "fa"], cfg)
        for rep in reports.values():
            assert np.all(np.diff(rep.objective_trace) <= 1e-8)
            assert set(rep.baseline_errors) == {"zero", "mean"}
            assert rep.baseline_errors["zero"] == pytest.approx(1.0, abs=1e-12)
