import math

import numpy as np
import pytest

from mkmc.errors import DimensionError, NotPositiveDefiniteError
from mkmc.linalg import (
    eigh_sorted,
    logdet,
    logdet_and_inverse,
    logdet_divergence,
    symmetrize,
)

from conftest import random_pd, random_symmetric


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
        eig = eigh_sorted(np.eye(3))
        assert np.allclose(eig.eigenvalues, [1, 1, 1])

    def test_diagonal(self):
        eig = eigh_sorted(np.diag([4.0, 1.0, 1.0]))
        assert np.allclose(eig.eigenvalues, [4, 1, 1])
        assert np.allclose(np.abs(eig.eigenvectors[:, 0]), [1, 0, 0], atol=1e-12)

    def test_reconstruction_random_pd(self, rng):
        a = random_pd(rng, 8)
        eig = eigh_sorted(a)
        recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        assert np.max(np.abs(recon - a)) < 1e-10 * np.linalg.norm(a)

    def test_invariants_over_random_matrices(self, rng):
        # sorted descending, orthonormal, reconstructs, up to dim 50
        for i in range(100):
            ell = int(rng.integers(1, 51))
            a = random_symmetric(rng, ell)
            eig = eigh_sorted(a)
            assert np.all(np.diff(eig.eigenvalues) <= 0)
            u = eig.eigenvectors
            assert np.max(np.abs(u.T @ u - np.eye(ell))) < 1e-10
            recon = u @ np.diag(eig.eigenvalues) @ u.T
            assert np.max(np.abs(recon - a)) <= 1e-10 * max(1.0, np.linalg.norm(a))


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
            expected = np.sum(np.log(eigh_sorted(a).eigenvalues))
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
