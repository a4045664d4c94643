import re

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

    @pytest.mark.parametrize("hidden, unobserved", [
        (((), (1,)), ()),
        (((3, 1), (1, 2, 3), (0, 3, 1)), (1, 3)),
        (((4, 2),), (2, 4)),
    ])
    def test_unobserved(self, hidden, unobserved):
        assert VisibilityPattern(ell=5, hidden=hidden).unobserved == unobserved

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
        assert a[view.vh].shape == (4, 0)
        assert a[np.ix_(view.hid, view.hid)].shape == (0, 0)

    def test_diagonal_hand_case(self):
        a = np.diag([1.0, 2.0, 3.0])
        view = partition(a, (1,))
        assert np.array_equal(view.vis, [0, 2]) and np.array_equal(view.hid, [1])
        assert np.array_equal(view.q_vv, np.diag([1.0, 3.0]))
        assert np.array_equal(a[np.ix_(view.hid, view.hid)], [[2.0]])
        assert np.array_equal(a[view.vh], [[0.0], [0.0]])
        assert np.array_equal(a[np.ix_(view.hid, view.vis)], [[0.0, 0.0]])

    def test_round_trip_exact(self, rng):
        for _ in range(100):
            ell = int(rng.integers(2, 12))
            a = random_symmetric(rng, ell)
            n_hidden = int(rng.integers(0, ell))
            hidden = rng.choice(ell, size=n_hidden, replace=False)
            hid = np.sort(hidden)
            vis = np.setdiff1d(np.arange(ell), hid)
            view = partition(a, hidden)
            assert np.array_equal(view.vis, vis) and np.array_equal(view.hid, hid)
            assert np.array_equal(view.q_vv, a[np.ix_(vis, vis)])
            assert np.array_equal(a[view.vh], a[np.ix_(vis, hid)])
            assert np.array_equal(a[np.ix_(view.hid, view.vis)], a[np.ix_(hid, vis)])
            assert np.array_equal(a[np.ix_(view.hid, view.hid)], a[np.ix_(hid, hid)])

    def test_two_by_two_layout(self):
        a = np.array([[1.0, 2.0], [2.0, 3.0]])
        view = partition(a, (1,))
        q_hv, q_hh = a[np.ix_(view.hid, view.vis)], a[np.ix_(view.hid, view.hid)]
        assert np.array_equal(np.block([[view.q_vv, a[view.vh]], [q_hv, q_hh]]), a)

    def test_out_of_range_index(self):
        with pytest.raises(DimensionError):
            partition(np.eye(3), (4,))

    @pytest.mark.parametrize("full", [np.ones(3), np.ones((2, 3))], ids=["1-d", "2x3"])
    def test_not_square(self, full):
        with pytest.raises(DimensionError, match=re.escape(
                f"expected a square matrix, got shape {full.shape}")):
            partition(full, ())


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
        # the first draw of each seed leaves every object seen, so none is redrawn
        assert random_mask(50, 3, 0.2, seed=1) != random_mask(50, 3, 0.2, seed=2)

    def test_two_views_at_a_high_fraction_find_no_draw(self):
        # 15 of 50 objects hidden per view: the two views overlap in all 64 draws
        with pytest.raises(DimensionError, match="^no mask drawn from seeds 1 to 64 leaves every "
                                                 "object visible in some view"):
            random_mask(50, 2, 0.3, seed=1)

    def test_a_single_view_hiding_objects_finds_no_draw(self):
        with pytest.raises(DimensionError, match="seeds 5 to 68"):
            random_mask(8, 1, 0.25, seed=5)
        assert random_mask(8, 1, 0.0, seed=5).hidden == ((),)

    def test_refused_draw_is_redrawn_from_the_next_seed(self):
        # the first draws of seeds 0, 1 and 2 each hide an object in both views; seed 3's
        # does not, so all four seeds give seed 3's draw
        pattern = random_mask(10, 2, 0.3, seed=0)
        assert pattern == random_mask(10, 2, 0.3, seed=2) == random_mask(10, 2, 0.3, seed=3)
        assert not pattern.unobserved

    @pytest.mark.parametrize("seed", range(20))
    def test_every_object_is_seen(self, seed):
        pattern = random_mask(12, 3, 0.3, seed=seed)
        assert pattern.unobserved == ()
        assert all(len(h) == 3 for h in pattern.hidden)

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

    @pytest.mark.parametrize("fraction", ["0.2", None, True, np.nan, 1.0, -0.1])
    def test_fraction_rule(self, fraction):
        with pytest.raises(ConfigError, match=re.escape(
                f"fraction must be in [0, 1), got {fraction!r}")):
            random_mask(6, 2, fraction, 0)

    def test_correlated_draws_are_gone(self):
        # one draw shared by every view would hide each of its objects in every view
        with pytest.raises(TypeError, match="correlated"):
            random_mask(20, 4, 0.25, seed=3, correlated=True)


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
