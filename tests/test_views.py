import numpy as np
import pytest

from mkmc.errors import ConfigError, DimensionError
from mkmc.views import (
    Fill,
    VisibilityPattern,
    apply_mask,
    partition,
    random_mask,
)

from conftest import random_symmetric


class TestVisibilityPattern:
    def test_sorts_and_validates(self):
        pat = VisibilityPattern(ell=5, hidden=((3, 1), ()))
        assert pat.hidden == ((1, 3), ())

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            VisibilityPattern(ell=3, hidden=((5,),))

    def test_duplicates(self):
        with pytest.raises(DimensionError):
            VisibilityPattern(ell=3, hidden=((1, 1),))

    def test_all_hidden(self):
        with pytest.raises(DimensionError):
            VisibilityPattern(ell=2, hidden=((0, 1),))

    def test_zero_views(self):
        with pytest.raises(DimensionError, match="at least one view"):
            VisibilityPattern(ell=3, hidden=())

    @pytest.mark.parametrize("matrices, message", [
        ([np.eye(3)] * 2, "2 matrices but pattern has 3 views"),
        ([np.eye(3)] * 4, "4 matrices but pattern has 3 views"),
        ([np.eye(3), np.eye(4), np.eye(3)],
         r"^matrices, view 1: expected shape \(3, 3\), got \(4, 4\)$"),
        ([np.eye(3), np.eye(3), np.ones((3, 2))], r"view 2: expected shape \(3, 3\), got \(3, 2\)"),
    ])
    def test_check(self, matrices, message):
        pattern = VisibilityPattern(ell=3, hidden=((0,), (), (1, 2)))
        pattern.check([np.eye(3)] * 3)
        with pytest.raises(DimensionError, match=message):
            pattern.check(matrices)


class TestPartition:
    def test_nothing_hidden(self, rng):
        a = random_symmetric(rng, 4)
        view = partition(a, ())
        assert np.array_equal(view.q_vv, a)
        assert view.q_vh.shape == (4, 0)
        assert view.q_hh.shape == (0, 0)

    def test_diagonal_hand_case(self):
        view = partition(np.diag([1.0, 2.0, 3.0]), (1,))
        assert np.array_equal(view.q_vv, np.diag([1.0, 3.0]))
        assert np.array_equal(view.q_hh, [[2.0]])
        assert np.array_equal(view.q_vh, [[0.0], [0.0]])

    def test_round_trip_exact(self, rng):
        for _ in range(100):
            ell = int(rng.integers(2, 12))
            a = random_symmetric(rng, ell)
            n_hidden = int(rng.integers(0, ell))
            hidden = rng.choice(ell, size=n_hidden, replace=False)
            hid = np.sort(hidden)
            vis = np.setdiff1d(np.arange(ell), hid)
            view = partition(a, hidden)
            assert np.array_equal(view.q_vv, a[np.ix_(vis, vis)])
            assert np.array_equal(view.q_vh, a[np.ix_(vis, hid)])
            assert np.array_equal(view.q_hh, a[np.ix_(hid, hid)])

    def test_two_by_two_layout(self):
        a = np.array([[1.0, 2.0], [2.0, 3.0]])
        view = partition(a, (1,))
        assert np.array_equal(
            np.block([[view.q_vv, view.q_vh], [view.q_vh.T, view.q_hh]]), a
        )

    def test_out_of_range_index(self):
        with pytest.raises(DimensionError):
            partition(np.eye(3), (4,))


class TestRandomMask:
    def test_fraction_zero(self):
        pat = random_mask(8, 3, 0.0, seed=1)
        assert pat.hidden == ((), (), ())

    def test_sizes_and_determinism(self):
        a = random_mask(10, 3, 0.2, seed=7)
        b = random_mask(10, 3, 0.2, seed=7)
        assert a == b
        assert all(len(h) == 2 for h in a.hidden)

    def test_different_seeds_differ(self):
        assert random_mask(50, 2, 0.3, seed=1) != random_mask(50, 2, 0.3, seed=2)

    def test_no_visible_object_left(self):
        with pytest.raises(ValueError):
            random_mask(5, 2, 0.99, seed=0)

    @pytest.mark.parametrize("kwargs", [
        {"seed": True}, {"seed": 1.5}, {"seed": 2.0}, {"ell": 8.0}, {"n_views": 2.0},
        {"n_views": True}, {"ell": "8"},
    ])
    def test_integer_rule(self, kwargs):
        args = {"ell": 8, "n_views": 2, "fraction": 0.25, "seed": 1, **kwargs}
        name = next(iter(kwargs))
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            random_mask(**args)

    def test_zero_views(self):
        with pytest.raises(DimensionError):
            random_mask(8, 0, 0.25, seed=1)

    def test_correlated_shares_one_draw(self):
        pat = random_mask(20, 4, 0.25, seed=3, correlated=True)
        assert len(set(pat.hidden)) == 1


class TestApplyMask:
    def test_empty_hidden_is_identity(self, rng):
        a = random_symmetric(rng, 4)
        assert np.array_equal(apply_mask(a, (), Fill.ZERO), a)

    def test_zero_fill(self):
        out = apply_mask(np.eye(3), (2,), Fill.ZERO)
        assert np.array_equal(out, np.diag([1.0, 1.0, 0.0]))

    def test_mean_fill_oracle(self, rng):
        a = random_symmetric(rng, 4)
        out = apply_mask(a, (3,), Fill.MEAN)
        expected = np.mean(a[:3, :3])  # scalar mean of the visible block
        assert np.all(out[3, :] == expected)
        assert np.all(out[:, 3] == expected)

    def test_visible_entries_untouched(self, rng):
        a = random_symmetric(rng, 6)
        hidden = (1, 4)
        visible = [0, 2, 3, 5]
        before = a.copy()
        for fill in (Fill.ZERO, Fill.MEAN):
            out = apply_mask(a, hidden, fill)
            assert np.array_equal(out[np.ix_(visible, visible)], a[np.ix_(visible, visible)])
            assert np.array_equal(a, before)  # the input itself is never written
