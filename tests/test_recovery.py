import re
from dataclasses import replace

import numpy as np
import pytest

from mkmc.engines import CompletionConfig, run_completion
from mkmc.errors import ConfigError, DimensionError, NotPositiveDefiniteError
from mkmc.recovery import (
    SyntheticSpec,
    compare_methods,
    generate_synthetic,
    hidden_block_error,
    score_completion,
)
from mkmc.views import Fill, VisibilityPattern, apply_mask, random_mask

from conftest import random_symmetric


class TestGenerateSynthetic:
    def test_no_jitter_views_identical(self):
        spec = SyntheticSpec(ell=10, n_views=3, true_rank=2, noise_sigma2=0.5, seed=4)
        qs = generate_synthetic(spec)
        assert all(np.array_equal(q, qs[0]) for q in qs)

    def test_min_eigenvalue_bounded_by_noise(self):
        spec = SyntheticSpec(ell=8, n_views=1, true_rank=7, noise_sigma2=1e-3, seed=2)
        q = generate_synthetic(spec)[0]
        assert np.linalg.eigvalsh(q)[0] >= 1e-3 * (1 - 1e-6)

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

    @pytest.mark.parametrize("field, value, rule", [
        ("ell", 10.0, "an integer"),
        ("ell", "10", "an integer"),
        ("n_views", 0, "an integer >= 1"),
        ("n_views", 2.0, "an integer >= 1"),
        ("true_rank", 0, "an integer in [1, ell-1]"),
        ("true_rank", True, "an integer in [1, ell-1]"),
        ("noise_sigma2", 0.0, "a finite number > 0"),
        ("noise_sigma2", float("inf"), "a finite number > 0"),
        ("noise_sigma2", float("nan"), "a finite number > 0"),
        ("noise_sigma2", "0.1", "a finite number > 0"),
        ("per_view_jitter", -0.1, "a finite number >= 0"),
        ("per_view_jitter", float("inf"), "a finite number >= 0"),
        ("per_view_jitter", float("nan"), "a finite number >= 0"),
        ("seed", 1.5, "an integer >= 0"),
        ("seed", True, "an integer >= 0"),
        ("seed", -1, "an integer >= 0"),
    ])
    def test_every_field_checked(self, field, value, rule):
        spec = dict(ell=6, n_views=2, true_rank=2, noise_sigma2=0.1, per_view_jitter=0.0, seed=0)
        with pytest.raises(ConfigError, match=f"^{field} must be {re.escape(rule)}, got "):
            SyntheticSpec(**{**spec, field: value})


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

    def test_zero_hidden_rows_are_not_pd(self, rng):
        truth = random_symmetric(rng, 5)
        truth[1, :] = truth[:, 1] = 0.0
        with pytest.raises(NotPositiveDefiniteError, match="^truth is not positive definite: its hidden rows are zero$"):
            hidden_block_error(truth, random_symmetric(rng, 5), (1,))
        pattern = VisibilityPattern(ell=5, hidden=((0,), (1,)))
        with pytest.raises(NotPositiveDefiniteError, match="^view 1: truth is not positive"):
            score_completion([random_symmetric(rng, 5), truth], [truth, truth], pattern)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_entry_is_not_pd(self, rng, value):
        a = random_symmetric(rng, 5)
        bad = a.copy()
        bad[3, 2] = bad[2, 3] = value
        with pytest.raises(NotPositiveDefiniteError, match="^completed matrix is not positive "
                           "definite: a hidden row has a non-finite entry$"):
            hidden_block_error(a, bad, (2,))
        # a completion's entry outside the hidden rows and columns is never read
        assert hidden_block_error(a, bad, (0,)) == 0.0
        # a truth's is: the mean-fill baseline averages its visible block
        pattern = VisibilityPattern(ell=5, hidden=((), (0,)))
        with pytest.raises(NotPositiveDefiniteError, match="^view 1: truth is not positive "
                           "definite: it has a non-finite entry$"):
            score_completion([a, bad], [a, a], pattern)

    def test_empty_hidden(self, rng):
        a = random_symmetric(rng, 4)
        assert hidden_block_error(a, a + 1.0, ()) == 0.0

    @pytest.mark.parametrize("truth, hidden", [
        (np.ones((2, 3)), (1,)), (np.ones(3), ()), (np.ones(3), (1,)),
    ], ids=["2x3", "1-d-nothing-hidden", "1-d-one-hidden"])
    def test_truth_must_be_square(self, truth, hidden):
        with pytest.raises(DimensionError, match=re.escape(
                f"expected a square matrix, got shape {truth.shape}")):
            hidden_block_error(truth, truth.copy(), hidden)

    @pytest.mark.parametrize("hidden, error, message", [
        ([1.5], ConfigError, "^hidden indices must be integers"),
        ([True], ConfigError, "^hidden indices must be integers"),
        ([-1], DimensionError, "^hidden index out of range"),
        ([4], DimensionError, "^hidden index out of range"),
        ([1, 1], DimensionError, "^hidden index set contains duplicates$"),
    ], ids=["fraction", "bool", "negative", "past-end", "duplicate"])
    def test_hidden_checked_like_a_pattern(self, hidden, error, message):
        a = np.eye(4)
        with pytest.raises(error, match=message):
            hidden_block_error(a, a, hidden)

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

    @pytest.mark.parametrize("fraction", ["0.2", None])
    def test_fraction_checked_by_random_mask(self, fraction):
        spec = SyntheticSpec(ell=6, n_views=2, true_rank=2, noise_sigma2=0.2, seed=1)
        with pytest.raises(ConfigError, match=re.escape(
                f"fraction must be in [0, 1), got {fraction!r}")):
            compare_methods(spec, fraction, ["fc"], CompletionConfig())

    def test_deterministic(self):
        spec = SyntheticSpec(
            ell=15, n_views=3, true_rank=2, noise_sigma2=0.1, per_view_jitter=0.05, seed=3
        )
        cfg = CompletionConfig(rank=2, max_iters=40)
        a = compare_methods(spec, 0.2, ["pca"], cfg, seed=11)["pca"]
        b = compare_methods(spec, 0.2, ["pca"], cfg, seed=11)["pca"]
        assert a == b

    def test_seed_draws_the_mask(self):
        spec = SyntheticSpec(ell=12, n_views=3, true_rank=2, noise_sigma2=0.2, seed=2)
        cfg = CompletionConfig(method="fc", rank=2, max_iters=20)
        truths = generate_synthetic(spec)
        pattern = random_mask(12, 3, 0.25, seed=6)
        masked = [apply_mask(t, h, Fill.ZERO) for t, h in zip(truths, pattern.hidden)]
        result = run_completion(masked, pattern, replace(cfg, method="pca"))
        expected = score_completion(truths, result.completed, pattern, result.trace,
                                    result.iterations, result.converged)
        assert compare_methods(spec, 0.25, ["pca"], cfg, seed=6)["pca"] == expected
        assert compare_methods(spec, 0.25, ["pca"], cfg, seed=7)["pca"] != expected

    def test_traces_non_increasing_and_baselines_present(self):
        spec = SyntheticSpec(
            ell=15, n_views=4, true_rank=2, noise_sigma2=0.3, per_view_jitter=0.3, seed=7
        )
        cfg = CompletionConfig(rank=2, max_iters=60)
        reports = compare_methods(spec, 0.2, ["fc", "pca", "fa"], cfg, seed=5)
        for rep in reports.values():
            assert np.all(np.diff(rep.objective_trace) <= 1e-8)
            assert set(rep.baseline_errors) == {"zero", "mean"}
            assert rep.baseline_errors["zero"] == pytest.approx(1.0, abs=1e-12)
