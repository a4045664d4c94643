import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mkmc import linalg
from mkmc.errors import DimensionError, NotPositiveDefiniteError, NumericalError
from mkmc.linalg import (
    EigenDecomposition,
    cholesky_lower,
    count_above,
    eigh_sorted,
    eigh_warm,
    logdet,
    logdet_and_inverse,
    logdet_divergence,
    logdet_divergences,
    low_rank_logdet_and_inverse,
    symmetrize,
)

from conftest import random_pd, random_symmetric
from oracles import eigh_descending


class TestSymmetrize:
    def test_identity_fixed_point(self):
        assert np.array_equal(symmetrize(np.eye(3)), np.eye(3))

    def test_averaging(self):
        out = symmetrize([[1.0, 2.0], [0.0, 1.0]])
        assert np.array_equal(out, np.ones((2, 2)))

    def test_output_exactly_symmetric(self, rng):
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            out = symmetrize(a)
            assert np.max(np.abs(out - out.T)) == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            symmetrize(np.zeros((2, 3)))


class TestEigh:
    def test_identity(self):
        eig = eigh_sorted(np.eye(3), top=3)
        assert np.allclose(eig.eigenvalues, [1, 1, 1])

    def test_diagonal(self):
        eig = eigh_sorted(np.diag([4.0, 1.0, 1.0]), top=3)
        assert np.allclose(eig.eigenvalues, [4, 1, 1])
        assert np.allclose(np.abs(eig.eigenvectors[:, 0]), [1, 0, 0], atol=1e-12)

    def test_reconstruction_random_pd(self, rng):
        a = random_pd(rng, 8)
        eig = eigh_sorted(a, top=8)
        recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        assert np.max(np.abs(recon - a)) < 1e-10 * np.linalg.norm(a)

    def test_invariants_over_random_matrices(self, rng):
        # sorted descending, orthonormal, reconstructs, up to dim 50
        for i in range(100):
            ell = int(rng.integers(1, 51))
            a = random_symmetric(rng, ell)
            eig = eigh_sorted(a, top=ell)
            assert np.all(np.diff(eig.eigenvalues) <= 0)
            u = eig.eigenvectors
            assert np.max(np.abs(u.T @ u - np.eye(ell))) < 1e-10
            recon = u @ np.diag(eig.eigenvalues) @ u.T
            assert np.max(np.abs(recon - a)) <= 1e-10 * max(1.0, np.linalg.norm(a))

    @pytest.mark.parametrize("ell", [2, 17, 48])
    def test_top_matches_full_decomposition(self, rng, ell):
        # same values, same vectors under the same sign rule, for every q
        for _ in range(5):
            a = random_symmetric(rng, ell)
            vals, vecs = eigh_descending(a)
            for q in range(1, ell):
                top = eigh_sorted(a, top=q)
                assert top.eigenvalues.shape == (q,) and top.eigenvectors.shape == (ell, q)
                scale = max(1.0, np.abs(vals).max())
                assert np.max(np.abs(top.eigenvalues - vals[:q])) <= 1e-10 * scale
                assert np.max(np.abs(top.eigenvectors - vecs[:, :q])) <= 1e-10

    @pytest.mark.parametrize("top", [0, 6])
    def test_top_outside_range_refused(self, rng, top):
        with pytest.raises(NumericalError, match="^eigensolver failed on 5x5 matrix"):
            eigh_sorted(random_pd(rng, 5), top=top)

    def test_top_refuses_non_finite_input(self, rng):
        a = random_pd(rng, 5)
        a[1, 3] = a[3, 1] = np.nan
        with pytest.raises(NumericalError, match="^eigensolver failed on 5x5 matrix"):
            eigh_sorted(a, top=2)

    def test_clustered_top_spectrum(self, rng):
        # four eigenvalues within 1e-12 of each other: only their span is determined
        ell, q = 80, 4
        basis, _ = np.linalg.qr(rng.standard_normal((ell, ell)))
        spectrum = np.r_[5.0 + 1e-12 * np.arange(q), np.linspace(1.0, 0.1, ell - q)]
        a = symmetrize(basis @ np.diag(spectrum) @ basis.T)
        eig = eigh_sorted(a, top=q)
        assert np.max(np.abs(eig.eigenvalues - 5.0)) <= 1e-10 * 5.0
        u = eig.eigenvectors
        assert np.max(np.abs(u.T @ u - np.eye(q))) <= 1e-10
        span = basis[:, :q]
        assert np.max(np.abs(u @ u.T - span @ span.T)) <= 1e-10

    @pytest.mark.parametrize("spectrum", ["random", "flat"])
    def test_top_is_bit_identical_across_calls(self, rng, spectrum):
        a = random_pd(rng, 50) if spectrum == "random" else np.eye(50)
        first, second = eigh_sorted(a, top=3), eigh_sorted(a, top=3)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    @pytest.mark.parametrize("ell", [1, 7, 40])
    def test_value_range_matches_full_decomposition(self, rng, ell):
        # the eigenvalues strictly above the threshold, as the rank criteria count them, from
        # the inertia of one LDL^T factor; indefinite matrices exercise the 2 x 2 pivots
        for _ in range(5):
            a = random_symmetric(rng, ell)
            vals = eigh_descending(a)[0]
            for threshold in (float(np.trace(a)) / ell, 1.0, vals[0] + 1.0, vals[-1] - 1.0):
                assert count_above(a, threshold) == int(np.sum(vals > threshold))

    def test_value_range_tie_at_the_threshold_is_not_above(self):
        assert count_above(np.diag([3.0, 2.0, 1.0]), 2.0) == 1
        assert count_above(np.zeros((3, 3)), 0.0) == 0  # every pivot 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_count_refuses_non_finite_input(self, rng, bad):
        a = random_pd(rng, 5)
        a[1, 2] = a[2, 1] = bad
        with pytest.raises(NumericalError, match=r"^cannot count the eigenvalues of a "
                                                  r"non-finite \(5, 5\) matrix$"):
            count_above(a, 0.0)
        with pytest.raises(NumericalError):
            count_above(random_pd(rng, 5), bad)

    def test_count_sees_two_by_two_pivots(self):
        """A zero diagonal forces Bunch-Kaufman into 2 x 2 pivots, each with one positive
        eigenvalue: [[0, 1], [1, 0]] has eigenvalues 1 and -1."""
        a = np.kron(np.eye(3), [[0.0, 1.0], [1.0, 0.0]])
        assert count_above(a, 0.0) == 3
        assert count_above(a, -2.0) == 6 and count_above(a, 2.0) == 0


def planted(seed, ell, q, ratio, spread):
    """A PD matrix with a random eigenbasis U, top eigenvalues in [1, spread] (lambda_q = 1)
    and lambda_{q+1} = ratio: (matrix, U)."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((ell, ell)))
    top = np.r_[np.sort(rng.uniform(1.0, spread, q - 1))[::-1], 1.0]
    tail = np.r_[ratio, np.sort(rng.uniform(0.01 * ratio, ratio, ell - q - 1))[::-1]]
    return symmetrize(basis @ np.diag(np.r_[top, tail]) @ basis.T), basis


def warm_start(seed, basis, q, kind):
    """An ell x q start: near the top-q eigenvectors (scaled like a PPCA W), a random one, or
    a near one with a zero column (a PPCA gap clipped to 0)."""
    rng = np.random.default_rng(seed + 1)
    ell = basis.shape[0]
    if kind == "far":
        return rng.standard_normal((ell, q))
    start = basis[:, :q] * rng.uniform(0.5, 2.0, q) + 1e-3 * rng.standard_normal((ell, q))
    if kind == "zero-column":
        start[:, q // 2] = 0.0
    return start


@st.composite
def warm_cases(draw):
    ell = draw(st.integers(3, 60))
    q = draw(st.integers(1, min(8, ell - 1)))
    ratio = draw(st.sampled_from([0.01, 0.1, 0.3, 0.5, 0.8, 0.95]))
    spread = draw(st.sampled_from([1.0, 3.0, 100.0]))
    kind = draw(st.sampled_from(["near", "far", "zero-column"]))
    return draw(st.integers(0, 2**31)), ell, q, ratio, spread, kind


class TestEighWarm:
    """The warm solver against ``eigh_sorted``, its fallback and oracle."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=warm_cases())
    @example(case=(1, 50, 5, 0.05, 3.0, "near"))
    @example(case=(2, 40, 8, 0.5, 100.0, "far"))
    @example(case=(3, 30, 4, 0.5, 1.0, "near"))  # the top q all equal: only their span is set
    @example(case=(4, 12, 3, 0.3, 3.0, "zero-column"))
    @example(case=(5, 5, 4, 0.95, 1.0, "far"))
    def test_matches_eigh_sorted(self, case):
        seed, ell, q, ratio, spread, kind = case
        a, basis = planted(seed, ell, q, ratio, spread)
        warm, ref = eigh_warm(a, warm_start(seed, basis, q, kind)), eigh_sorted(a, top=q)
        if kind == "zero-column":  # refused: the answer is eigh_sorted's
            assert np.array_equal(warm.eigenvalues, ref.eigenvalues)
            assert np.array_equal(warm.eigenvectors, ref.eigenvectors)
        lam1 = ref.eigenvalues[0]
        assert warm.eigenvalues.shape == (q,) and warm.eigenvectors.shape == (ell, q)
        assert np.max(np.abs(warm.eigenvalues - ref.eigenvalues)) <= 1e-12 * lam1
        u = warm.eigenvectors
        assert np.max(np.abs(u.T @ u - np.eye(q))) <= 1e-12
        lead = np.argmax(np.abs(u), axis=0)
        assert np.all(u[lead, np.arange(q)] > 0)  # eigh_sorted's sign rule
        if ratio <= 0.5:
            span = basis[:, :q]
            assert np.max(np.abs(u @ u.T - span @ span.T)) <= 1e-10

    def test_near_start_is_not_refused(self, monkeypatch):
        a, basis = planted(7, 50, 4, 0.1, 3.0)
        calls = []
        monkeypatch.setattr(linalg, "eigh_sorted", lambda *args, **kw: calls.append(args))
        eig = eigh_warm(a, warm_start(7, basis, 4, "near"))
        assert calls == [] and isinstance(eig, EigenDecomposition)

    @pytest.mark.parametrize("q", [1, 3])
    def test_invariant_subspace_below_the_top_is_refused(self, rng, q, monkeypatch):
        # S = diag(A, D) with A's eigenvalues above D's; the start spans q eigenvectors of D,
        # so its residual is exactly 0 at step 1 and only the certificate can refuse it
        big = random_pd(rng, 6) + 10.0 * np.eye(6)
        d = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
        a = np.zeros((11, 11))
        a[:6, :6], a[6:, 6:] = big, d
        start = np.eye(11)[:, 6:6 + q]
        assert not np.any(a @ start - start @ (start.T @ a @ start))  # an invariant subspace
        ref = eigh_sorted(a, top=q)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return ref

        monkeypatch.setattr(linalg, "eigh_sorted", counting)
        eig = eigh_warm(a, start)
        assert len(calls) == 1
        monkeypatch.undo()
        again = eigh_sorted(a, top=q)
        assert np.array_equal(eig.eigenvalues, again.eigenvalues)
        assert np.array_equal(eig.eigenvectors, again.eigenvectors)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("where", ["matrix", "start"])
    def test_non_finite_input(self, rng, where, value):
        a, start = random_pd(rng, 5), rng.standard_normal((5, 2))
        if where == "start":  # refused: the answer is eigh_sorted's
            start[3, 1] = value
            eig, ref = eigh_warm(a, start), eigh_sorted(a, top=2)
            assert np.array_equal(eig.eigenvalues, ref.eigenvalues)
            assert np.array_equal(eig.eigenvectors, ref.eigenvectors)
            return
        a[1, 3] = a[3, 1] = value
        with pytest.raises(NumericalError) as cold:
            eigh_sorted(a, top=2)
        with pytest.raises(NumericalError) as warm:
            eigh_warm(a, start)
        assert str(warm.value) == str(cold.value)
        assert str(warm.value).startswith("eigensolver failed on 5x5 matrix")
        assert warm.value.exit_code == 5

    def test_bit_identical_across_calls(self):
        a, basis = planted(11, 60, 5, 0.2, 3.0)
        start = warm_start(11, basis, 5, "near")
        first, second = eigh_warm(a, start), eigh_warm(a, start.copy())
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)


class TestLogdet:
    def test_identity(self):
        assert logdet(np.eye(4)) == pytest.approx(0.0, abs=1e-14)

    def test_scaled_identity(self):
        assert logdet(2.0 * np.eye(2)) == pytest.approx(2 * math.log(2), rel=1e-12)

    def test_diagonal(self):
        assert logdet(np.diag([1.0, 4.0, 9.0])) == pytest.approx(math.log(36), rel=1e-12)

    def test_matches_eigenvalue_sum(self, rng):
        for _ in range(20):
            a = random_pd(rng, 10)
            expected = np.sum(np.log(np.linalg.eigvalsh(a)))
            assert logdet(a) == pytest.approx(expected, rel=1e-9)

    def test_non_pd_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            logdet(np.diag([1.0, -1.0]))


class TestLogdetDivergence:
    def test_identity_pair(self):
        assert logdet_divergence(np.eye(3), np.eye(3)) == pytest.approx(0.0, abs=1e-14)

    def test_scalar_case(self):
        # 0.5 * (0 - 2 ln 2 + (1/2)*4 - 2) = 1 - ln 2
        val = logdet_divergence(2 * np.eye(2), np.eye(2))
        assert val == pytest.approx(1 - math.log(2), rel=1e-12)

    def test_zero_on_equal_arguments(self, rng):
        q = random_pd(rng, 6)
        assert abs(logdet_divergence(q, q)) < 1e-10

    def test_nonnegative_on_random_pairs(self, rng):
        for _ in range(100):
            q = random_pd(rng, 7)
            m = random_pd(rng, 7)
            assert logdet_divergence(q, m) >= -1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            logdet_divergence(np.eye(2), np.eye(3))

    def test_non_pd_argument(self):
        with pytest.raises(NotPositiveDefiniteError):
            logdet_divergence(np.eye(2), np.diag([1.0, -1.0]))

    def test_many_views_equal_one_at_a_time(self, rng):
        qs = [random_pd(rng, 5) for _ in range(3)]
        m = random_pd(rng, 5)
        assert logdet_divergences(qs, m) == [logdet_divergence(q, m) for q in qs]

    def test_any_view_of_another_dimension_is_refused(self):
        with pytest.raises(DimensionError, match=r"^dimension mismatch: \(3, 3\) vs \(2, 2\)$"):
            logdet_divergences([np.eye(2), np.eye(3)], np.eye(2))


class TestLogdetAndInverse:
    def test_matches_numpy(self, rng):
        for ell in range(1, 31):
            a = random_pd(rng, ell)
            value, inv = logdet_and_inverse(a)
            sign, expected = np.linalg.slogdet(a)
            assert sign == 1.0
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)
            ref = np.linalg.inv(a)
            assert np.linalg.norm(inv - ref) <= 1e-12 * np.linalg.norm(ref)
            assert np.array_equal(inv, inv.T)

    def test_non_pd_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            logdet_and_inverse(np.diag([1.0, 0.0]))


def _layouts(a):
    """The symmetric matrix ``a`` as C-ordered, F-ordered, strided-view and fancy-indexed input."""
    ell = a.shape[0]
    spread = np.zeros((2 * ell, 2 * ell))
    spread[::2, ::2] = a
    order = np.arange(ell)[::-1]
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a), "strided": spread[::2, ::2],
            "fancy": a[np.ix_(order, order)][np.ix_(order, order)]}


class TestFactorLayouts:
    @pytest.mark.parametrize("layout", ["C", "F", "strided", "fancy"])
    def test_every_layout_gives_the_same_factor_and_inverse(self, rng, layout):
        for ell in (1, 2, 7, 40):
            base = random_pd(rng, ell)
            a = _layouts(base)[layout]
            before = a.copy()
            chol = cholesky_lower(a)
            assert np.array_equal(a, before)
            assert np.array_equal(chol, np.tril(chol))
            assert np.linalg.norm(chol @ chol.T - base) <= 1e-12 * np.linalg.norm(base)
            value, inv = logdet_and_inverse(a)
            assert np.array_equal(a, before)
            assert np.array_equal(inv, inv.T)
            ref = np.linalg.inv(base)
            assert np.linalg.norm(inv - ref) <= 1e-12 * np.linalg.norm(ref)
            assert value == pytest.approx(np.linalg.slogdet(base)[1], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "fancy"])
    @pytest.mark.parametrize("call", [cholesky_lower, logdet_and_inverse],
                             ids=["cholesky_lower", "logdet_and_inverse"])
    @pytest.mark.parametrize("bad", ["nan", "indefinite"])
    def test_nan_and_non_pd_rejected(self, rng, call, layout, bad):
        a = random_pd(rng, 6)
        if bad == "nan":
            a[4, 1] = a[1, 4] = np.nan
        else:
            a[3, 3] = -1.0
        a = _layouts(a)[layout]
        before = a.copy()
        with pytest.raises(NotPositiveDefiniteError, match="^matrix of dim 6 is not positive definite$"):
            call(a)
        assert np.array_equal(a, before, equal_nan=True)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    @pytest.mark.parametrize("call", [cholesky_lower, logdet, logdet_and_inverse],
                             ids=["cholesky_lower", "logdet", "logdet_and_inverse"])
    def test_non_square_rejected(self, call, shape):
        with pytest.raises(DimensionError, match=r"^expected a square matrix, got shape"):
            call(np.ones(shape))


class TestLowRankLogdetAndInverse:
    # the engines hold every pca/fa inverse after iteration 1 in this form, whatever q is
    @pytest.mark.parametrize("ell,q", [(48, 1), (48, 3), (48, 4), (48, 12), (48, 47), (5, 1)])
    def test_matches_dense_oracle(self, rng, ell, q):
        for _ in range(5):
            w = rng.standard_normal((ell, q))
            d = rng.uniform(0.05, 3.0, size=ell)
            value, factors = low_rank_logdet_and_inverse(w, d)
            ref_value, ref_inv = logdet_and_inverse(w @ w.T + np.diag(d))
            assert value == pytest.approx(ref_value, rel=1e-10, abs=1e-10)
            assert np.linalg.norm(factors.dense() - ref_inv) <= 1e-10 * np.linalg.norm(ref_inv)
            ref_b = w.T @ ref_inv
            assert np.linalg.norm(factors.w_t_inverse() - ref_b) <= 1e-10 * np.linalg.norm(ref_b)
            s = random_pd(rng, ell)
            assert factors.inner(s) == pytest.approx(np.vdot(ref_inv, s), rel=1e-10)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan], ids=["zero", "negative", "nan"])
    def test_non_positive_diagonal_rejected(self, rng, bad):
        w = rng.standard_normal((6, 2))
        d = np.ones(6)
        d[4] = bad
        with pytest.raises(NotPositiveDefiniteError,
                           match="^matrix of dim 6 has a diagonal part that is not positive$"):
            low_rank_logdet_and_inverse(w, d)

    @pytest.mark.parametrize("where", ["W", "d"])
    def test_non_finite_input_rejected(self, rng, where):
        w, d = rng.standard_normal((6, 2)), np.ones(6)
        if where == "W":
            w[2, 1] = np.inf
        else:
            d[2] = np.inf
        with pytest.raises(NotPositiveDefiniteError,
                           match="^matrix of dim 6 is not positive definite$"):
            low_rank_logdet_and_inverse(w, d)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("entry", [(2, 2), (3, 1)], ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize("call", [
    logdet,
    logdet_and_inverse,
    lambda a: logdet_divergence(np.eye(a.shape[0]), a),
    lambda a: logdet_divergence(a, np.eye(a.shape[0])),
], ids=["logdet", "logdet_and_inverse", "divergence-model", "divergence-data"])
def test_non_finite_entry_is_not_pd(rng, call, entry, value):
    # Some of these pass the Cholesky pivot test but never leave the log det finite
    a = random_pd(rng, 5)
    a[entry] = a[entry[::-1]] = value
    with pytest.raises(NotPositiveDefiniteError, match="^matrix of dim 5 is not positive definite$"):
        call(a)
