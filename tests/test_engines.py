import re
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkmc import engines, linalg
from mkmc.engines import (
    CompletionConfig,
    FaModel,
    FullModel,
    PcaModel,
    average_kernel,
    degrees_of_freedom,
    fa_estep,
    fa_model_update,
    fc_model_update,
    impute_view,
    objective,
    pca_model_update,
    regularize,
    run_completion,
    select_rank,
)
from mkmc.errors import ConfigError, DimensionError, NotPositiveDefiniteError, NumericalError
from mkmc.linalg import cholesky_lower, logdet_divergence, symmetrize
from mkmc.recovery import SyntheticSpec, generate_synthetic
from mkmc.views import Fill, VisibilityPattern, apply_mask, partition, random_mask

from conftest import random_pd
from oracles import (criterion_rank, eigh_descending, impute_from_inverse, impute_from_model,
                     ritz_loadings, start_model)


def parameters(model):
    """What a run returns of its model, as arrays: ``fc``'s M, or pca/fa's parameters."""
    return (model.matrix,) if isinstance(model, FullModel) else model.parameters()


def augmented_objective(completed, model, eps):
    """What the driver descends and records: the view sum plus eps * LogDet(I, M)."""
    return objective(completed, model) + eps * objective([np.eye(completed[0].shape[0])], model)


def full_eigh_pca(s, q):
    """The PPCA optimum from the full eigendecomposition: sigma2 is the mean of the
    trailing ell - q eigenvalues."""
    vals, vecs = eigh_descending(s)
    sigma2 = float(np.mean(vals[q:]))
    gap = np.clip(vals[:q] - sigma2, 0.0, None)
    return PcaModel(W=vecs[:, :q] * np.sqrt(gap), sigma2=sigma2)


def make_instance(rng, ell, n_views, fraction, jitter=0.1):
    """Random PD views sharing a base matrix, plus a random mask."""
    base = random_pd(rng, ell)
    qs = [base + jitter * random_pd(rng, ell) for _ in range(n_views)]
    pattern = random_mask(ell, n_views, fraction, seed=int(rng.integers(1 << 30)))
    masked = [apply_mask(q, h, Fill.ZERO) for q, h in zip(qs, pattern.hidden)]
    return qs, masked, pattern


class TestAverageAndRegularize:
    def test_average_identity(self):
        assert np.array_equal(average_kernel([np.eye(3), np.eye(3)]), np.eye(3))

    def test_average_linearity(self, rng):
        a = random_pd(rng, 4)
        assert np.allclose(average_kernel([np.zeros((4, 4)), 2 * a]), a, atol=1e-15)

    def test_average_matches_summation_oracle(self, rng):
        qs = [random_pd(rng, 5) for _ in range(6)]
        expected = sum(qs) / 6
        assert np.max(np.abs(average_kernel(qs) - expected)) < 1e-12

    def test_average_dim_mismatch(self):
        with pytest.raises(DimensionError):
            average_kernel([np.eye(2), np.eye(3)])

    def test_regularize_eps_zero(self, rng):
        s = random_pd(rng, 4)
        assert regularize(s, 3, 0.0) is s

    def test_regularize_identity_fixed_point(self):
        assert np.allclose(regularize(np.eye(4), 6, 1e-3), np.eye(4), atol=1e-15)

    def test_regularize_scalar_values(self):
        out = regularize(np.diag([0.0, 1.0]), 2, 1e-3)
        assert out[0, 0] == pytest.approx(1e-3 / 2.001, rel=1e-12)
        assert out[1, 1] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("eps", [-1e-3, np.nan, np.inf, "0.001", None, True])
    def test_regularize_eps_rule(self, eps):
        """``eps`` follows ``CompletionConfig.reg_epsilon``'s rule: a finite number >= 0."""
        with pytest.raises(ConfigError, match=re.escape(
                f"eps must be a finite number >= 0, got {eps!r}")):
            regularize(np.eye(3), 2, eps)
        with pytest.raises(ConfigError, match="^reg_epsilon must be a finite number >= 0"):
            CompletionConfig(reg_epsilon=eps)


class TestImputeView:
    def test_block_diagonal_model(self, rng):
        # M_vh = 0 kills every cross term
        m = np.zeros((5, 5))
        m[:3, :3] = random_pd(rng, 3)
        m[3:, 3:] = random_pd(rng, 2)
        q_vv = random_pd(rng, 3)
        q_vh, q_hh = impute_from_model(q_vv, m, (3, 4))
        assert np.max(np.abs(q_vh)) == 0.0
        assert np.allclose(q_hh, m[3:, 3:], atol=1e-14)

    def test_qvv_equals_mvv_cancellation(self, rng):
        m = random_pd(rng, 5)
        view = partition(m, (1, 3))
        q_vh, q_hh = impute_from_model(view.q_vv, m, (1, 3))
        assert np.allclose(q_hh, m[np.ix_(view.hid, view.hid)], atol=1e-12)

    def test_matches_explicit_inverse_oracle(self, rng):
        for _ in range(50):
            m = random_pd(rng, 6)
            hidden = tuple(int(i) for i in rng.choice(6, size=2, replace=False))
            view = partition(m, hidden)
            m_vh = m[view.vh]
            q_vv = random_pd(rng, 4)
            q_vh, q_hh = impute_from_model(q_vv, m, hidden)
            mvv_inv = np.linalg.inv(view.q_vv)
            exp_vh = q_vv @ mvv_inv @ m_vh
            exp_hh = (
                m[np.ix_(view.hid, view.hid)]
                - m_vh.T @ mvv_inv @ m_vh
                + m_vh.T @ mvv_inv @ q_vv @ mvv_inv @ m_vh
            )
            assert np.max(np.abs(q_vh - exp_vh)) < 1e-10
            assert np.max(np.abs(q_hh - (exp_hh + exp_hh.T) / 2)) < 1e-10

    def test_imputation_is_local_minimum(self, rng):
        # perturbing the imputed blocks never decreases the divergence
        m = random_pd(rng, 6)
        hidden = (2, 5)
        vis, hid = [0, 1, 3, 4], list(hidden)
        q_vv = random_pd(rng, 4)
        q_vh, q_hh = impute_from_model(q_vv, m, hidden)

        def assemble(q_vh, q_hh):
            full = np.empty((6, 6))
            full[np.ix_(vis, vis)] = q_vv
            full[np.ix_(vis, hid)] = q_vh
            full[np.ix_(hid, vis)] = q_vh.T
            full[np.ix_(hid, hid)] = q_hh
            return full

        j_best = logdet_divergence(assemble(q_vh, q_hh), m)
        for _ in range(25):
            d_vh = 1e-3 * rng.standard_normal(q_vh.shape)
            d_hh = 1e-3 * rng.standard_normal(q_hh.shape)
            d_hh = (d_hh + d_hh.T) / 2
            pert = assemble(q_vh + d_vh, q_hh + d_hh)
            assert logdet_divergence(pert, m) >= j_best - 1e-12

    @pytest.mark.parametrize("q", [1, 3, 6])
    def test_factored_return_matches_dense_formulas(self, rng, q):
        """From M = W W^T + diag(d) in Woodbury form, the factored return is log det P_hh,
        Q_vv A with A = M_vv^{-1} W_v, and W_h (C_v^{-1} + A^T Q_vv A), each as dense inverses
        give it; the hidden blocks written from it are the unfactored return, bit for bit."""
        ell = 12
        for _ in range(10):
            w, d = rng.standard_normal((ell, q)), rng.uniform(0.2, 2.0, ell)
            inverse = linalg.low_rank_logdet_and_inverse(w, d)[1]
            n_h = int(rng.integers(1, ell - 1))
            hidden = tuple(int(i) for i in rng.choice(ell, n_h, replace=False))
            view = partition(random_pd(rng, ell), hidden)
            vis, hid = view.vis, view.hid
            m = w @ w.T + np.diag(d)
            a = np.linalg.inv(m[np.ix_(vis, vis)]) @ w[vis]
            c_v = np.eye(q) + w[vis].T @ np.diag(1.0 / d[vis]) @ w[vis]
            ref_w_h_g = w[hid] @ (np.linalg.inv(c_v) + a.T @ view.q_vv @ a)
            logdet_p_hh, qa, w_h_g = impute_view(inverse, view, True)
            ref_logdet = np.linalg.slogdet(np.linalg.inv(m)[np.ix_(hid, hid)])[1]
            assert logdet_p_hh == pytest.approx(ref_logdet, rel=1e-10, abs=1e-10)
            for got, ref in ((qa, view.q_vv @ a), (w_h_g, ref_w_h_g)):
                assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
            whole = impute_view(inverse, view)
            written = engines._hidden_blocks(qa, w_h_g, w[hid], d[hid])
            assert whole[0] == logdet_p_hh
            assert all(np.array_equal(got, ref) for got, ref in zip(written, whole[1:]))


class TestModelUpdates:
    def test_fc_is_average(self, rng):
        s = random_pd(rng, 5)
        model = fc_model_update(s)
        assert model.matrix is s
        assert abs(logdet_divergence(s, model.materialize())) < 1e-10

    def test_pca_flat_spectrum(self):
        model = pca_model_update(np.eye(6), 2)
        assert model.sigma2 == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(model.W)) < 1e-7

    def test_pca_hand_case(self):
        model = pca_model_update(np.diag([4.0, 1.0, 1.0]), 1)
        assert model.sigma2 == pytest.approx(1.0, rel=1e-12)
        w = model.W[:, 0]
        assert abs(w[0]) == pytest.approx(np.sqrt(3.0), rel=1e-12)
        assert np.max(np.abs(w[1:])) < 1e-12

    def test_pca_beats_random_candidates(self, rng):
        s = random_pd(rng, 8)
        q = 2
        model = pca_model_update(s, q)
        j_star = objective([s], model)
        scale = np.sqrt(np.trace(s) / 8)
        for _ in range(100):
            w = scale * rng.standard_normal((8, q))
            sigma2 = float(rng.uniform(0.01, 2.0)) * np.trace(s) / 8
            j = objective([s], PcaModel(W=w, sigma2=sigma2))
            assert j_star <= j + 1e-6

    @pytest.mark.parametrize("ell,q", [(32, 2), (48, 3), (80, 5), (20, 10), (20, 19)])
    def test_pca_top_q_matches_full_eigendecomposition(self, rng, ell, q):
        s = random_pd(rng, ell)
        model, dense = pca_model_update(s, q), full_eigh_pca(s, q)
        assert model.sigma2 == pytest.approx(dense.sigma2, rel=1e-10)
        assert np.max(np.abs(model.W - dense.W)) <= 1e-10 * np.max(np.abs(dense.W))

    @pytest.mark.parametrize("q", [1, 10, 19])
    def test_pca_top_q_on_an_ill_conditioned_kernel(self, rng, q):
        # condition number 1e10: sigma2 = (tr S - top q) / (ell - q) cancels down to the
        # trailing eigenvalues, so both solves agree only to what eigh resolves of
        # them, about eps * ell * lambda_1 in absolute terms. W is ill-determined for
        # the nearly equal trailing eigenvalues; the model matrix it spans is not.
        ell = 20
        u = np.linalg.qr(rng.standard_normal((ell, ell)))[0]
        spectrum = np.logspace(0, -10, ell)
        s = linalg.symmetrize((u * spectrum) @ u.T)
        model, dense = pca_model_update(s, q), full_eigh_pca(s, q)
        unit = np.finfo(float).eps * ell * spectrum[0]
        assert abs(model.sigma2 - dense.sigma2) <= unit
        assert np.max(np.abs(model.materialize() - dense.materialize())) <= unit

    @pytest.mark.parametrize("q, error, message", [
        (True, ConfigError, "rank q must be an integer, got True"),
        (2.0, ConfigError, "rank q must be an integer, got 2.0"),
        (2.5, ConfigError, "rank q must be an integer, got 2.5"),
        (0, DimensionError, "rank q=0 out of range [1, 3]"),
        (4, DimensionError, "rank q=4 out of range [1, 3]"),
    ])
    def test_pca_rank_rule_is_degrees_of_freedom(self, rng, q, error, message):
        """q is checked by :func:`degrees_of_freedom`, warm start or not."""
        s = random_pd(rng, 4)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            degrees_of_freedom("pca", 4, q)
        for start in (None, np.ones((4, 2))):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                pca_model_update(s, q, start)

    def test_pca_rank_out_of_range(self, rng):
        with pytest.raises(ValueError):
            pca_model_update(random_pd(rng, 4), 4)
        with pytest.raises(ValueError, match=r"^start must have shape \(4, 2\), got \(4, 3\)$"):
            pca_model_update(random_pd(rng, 4), 2, np.ones((4, 3)))

    def test_fa_fixed_point_zero_loadings(self):
        s = np.diag([2.0, 3.0, 5.0])
        prev = FaModel(W=np.zeros((3, 2)), psi=np.diag(s).copy())
        model = fa_model_update(s, prev)
        assert np.array_equal(model.W, np.zeros((3, 2)))
        assert np.array_equal(model.psi, np.diag(s))

    def test_fa_stationary_at_exact_model(self, rng):
        w = rng.standard_normal((6, 2))
        psi = rng.uniform(0.5, 2.0, size=6)
        prev = FaModel(W=w, psi=psi)
        s = prev.materialize()
        new = fa_model_update(s, prev)
        j_before = objective([s], prev)
        j_after = objective([s], new)
        assert abs(j_after - j_before) < 1e-9

    def test_fa_monotone_improvement(self, rng):
        for _ in range(10):
            s = random_pd(rng, 7)
            prev = FaModel(W=rng.standard_normal((7, 2)), psi=rng.uniform(0.5, 2.0, size=7))
            new = fa_model_update(s, prev)
            assert objective([s], new) <= objective([s], prev) + 1e-10

    def test_fa_estep_matches_independent_routine(self, rng):
        qs = [random_pd(rng, 5) for _ in range(3)]
        s = average_kernel(qs)
        w = rng.standard_normal((5, 2))
        psi = rng.uniform(0.5, 2.0, size=5)
        s_xz, s_zz = fa_estep(s, w, psi)
        b = w.T @ np.linalg.inv(w @ w.T + np.diag(psi))
        s_xz_ind = (qs[0] @ b.T + qs[1] @ b.T + qs[2] @ b.T) / 3
        s_zz_ind = np.eye(2) - b @ w + b @ s_xz_ind
        assert np.max(np.abs(s_xz - s_xz_ind)) < 1e-12
        assert np.max(np.abs(s_zz - s_zz_ind)) < 1e-12

    @pytest.mark.parametrize("kind", ["fc", "pca", "fa"])
    def test_model_factors_itself_like_its_dense_matrix(self, rng, kind):
        """log det M and <M^{-1}, S> from each model's own factorization (whole for fc,
        Woodbury for pca/fa) against those of the materialized matrix."""
        ell, q = 30, 4
        w = rng.standard_normal((ell, q))
        model = {"fc": FullModel(matrix=random_pd(rng, ell)),
                 "pca": PcaModel(W=w, sigma2=0.3),
                 "fa": FaModel(W=w, psi=rng.uniform(0.5, 2.0, size=ell))}[kind]
        s = random_pd(rng, ell)
        logdet_m, inverse = model.logdet_and_inverse()
        ref_logdet, ref_inverse = linalg.logdet_and_inverse(model.materialize())
        factored = isinstance(inverse, linalg.LowRankInverse)
        assert factored == (kind != "fc")
        inner = inverse.inner(s) if factored else float(np.vdot(inverse, s))
        assert logdet_m == pytest.approx(ref_logdet, rel=1e-10)
        assert inner == pytest.approx(float(np.vdot(ref_inverse, s)), rel=1e-10)


@st.composite
def loadings_problems(draw):
    """A random PD S with variances over six decades and an FA model to refit, whose loadings
    may have a zero column or two equal ones, so that the block [V, T V] is rank-deficient."""
    ell = draw(st.integers(2, 12))
    q = draw(st.integers(1, ell - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-3, 3, size=ell)
    s = random_pd(rng, ell) * np.sqrt(np.outer(scale, scale))
    w = rng.standard_normal((ell, q)) * np.sqrt(scale)[:, None]
    degenerate = draw(st.sampled_from(["none", "zero", "equal"]))
    if degenerate == "zero":
        w[:, -1] = 0.0
    elif degenerate == "equal" and q >= 2:
        w[:, 1] = w[:, 0]
    return s, FaModel(W=w, psi=rng.uniform(0.1, 2.0, size=ell) * scale)


class TestFaLoadingsStep:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(loadings_problems())
    def test_never_raises_j(self, problem):
        """For a fixed psi the step's loadings fit S at least as well as the ones it refits."""
        s, prev = problem
        new = engines.fa_loadings_step(s, prev)
        assert new.W.shape == prev.W.shape and new.psi is prev.psi
        before, after = objective([s], prev), objective([s], new)
        assert after <= before + 1e-10 * max(1.0, abs(before))

    @pytest.mark.parametrize("ell, q", [(2, 1), (5, 3), (8, 4), (9, 8)])
    def test_exact_when_the_basis_spans_everything(self, rng, ell, q):
        """At 2q >= ell the block spans R^ell, so the step is the exact optimum given psi
        (Joreskog 1967): the top q eigenpairs of the materialized S~ from ``eigh_sorted``."""
        s = random_pd(rng, ell)
        prev = FaModel(W=rng.standard_normal((ell, q)), psi=rng.uniform(0.1, 1.0, size=ell))
        new = engines.fa_loadings_step(s, prev)
        root = np.sqrt(prev.psi)
        exact = linalg.eigh_sorted(s / np.outer(root, root), top=q)
        gap = np.sqrt(np.maximum(exact.eigenvalues - 1.0, 0.0))
        np.testing.assert_allclose(new.W, root[:, None] * exact.eigenvectors * gap,
                                   rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("q", [1, 3, 7])
    def test_matches_the_dense_oracle(self, q, monkeypatch):
        """From the S_reg of an evaluation, a :class:`_FactoredAverage` read only by products,
        and the model it gave, the step matches the Rayleigh-Ritz step on the materialized S~
        with an SVD basis of the same span (2q < ell)."""
        masked, pattern = seeded_problem(0, ell=40)
        original, kept = engines._FactoredAverage, []

        def keeping(*args):
            kept.append(original(*args))
            return kept[-1]

        monkeypatch.setattr(engines, "_FactoredAverage", keeping)
        model = run_completion(masked, pattern, CompletionConfig(method="fa", rank=q,
                                                                 max_iters=1)).model
        s = kept[-1]
        new = engines.fa_loadings_step(s, model)
        ref = ritz_loadings(s.dense(), model)
        np.testing.assert_allclose(new.W, ref.W, rtol=1e-9, atol=1e-12 * np.abs(ref.W).max())

    @pytest.mark.parametrize("ell, q", [(3, 1), (3, 2), (6, 5)])
    def test_zero_loadings_are_a_fixed_point(self, ell, q):
        """W = 0 with psi = diag S, S diagonal: T = Psi^{-1/2} (S - Psi) Psi^{-1/2} is 0, so
        every tau_j is 0 and every column stays exactly 0, up to q = ell - 1; the EM step then
        keeps the model too."""
        s = np.diag([2.0, 0.7, 5.0, 1.3, 3.1, 0.2][:ell])
        prev = FaModel(W=np.zeros((ell, q)), psi=np.diag(s).copy())
        new = engines.fa_loadings_step(s, prev)
        assert np.array_equal(new.W, prev.W) and new.psi is prev.psi
        refit = fa_model_update(s, new)
        assert np.array_equal(refit.W, prev.W) and np.array_equal(refit.psi, prev.psi)

    def test_a_zero_column_at_theta_one_stays_zero(self):
        """S = W W^T + Psi with W's one factor on object 0 and q = ell - 1 = 3: the factor is
        kept and the two columns with theta = 1 stay exactly 0."""
        psi = np.array([0.5, 2.0, 0.3, 1.7])
        w = np.zeros((4, 3))
        w[0, 0] = 1.5
        s = np.diag(psi) + w @ w.T
        new = engines.fa_loadings_step(s, FaModel(W=w, psi=psi))
        np.testing.assert_allclose(new.W[:, 0], w[:, 0], rtol=1e-14, atol=0)
        assert np.array_equal(new.W[:, 1:], np.zeros((4, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises_numerical_error(self, bad):
        s = np.eye(4)
        s[0, 1] = s[1, 0] = bad
        prev = FaModel(W=np.arange(1.0, 5.0)[:, None], psi=np.ones(4))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="not finite"):
            engines.fa_loadings_step(s, prev)

    def test_refuses_non_positive_noise(self):
        with pytest.raises(ValueError, match="previous noise variances must be positive"):
            engines.fa_loadings_step(np.eye(3), FaModel(W=np.ones((3, 1)), psi=np.r_[1.0, 0, 1]))

    def test_an_fa_run_never_forms_the_dense_average(self, monkeypatch):
        """``fa`` reads S_reg only through products and its diagonal: with
        :meth:`_FactoredAverage.dense` raising, a run to tol completes as before."""
        masked, pattern = seeded_problem(1)
        cfg = CompletionConfig(method="fa", rank=2, max_iters=300)
        expected = run_completion(masked, pattern, cfg)

        def refusing(self):
            raise AssertionError("fa formed the dense S_reg")

        monkeypatch.setattr(engines._FactoredAverage, "dense", refusing)
        result = run_completion(masked, pattern, cfg)
        assert result.stop == "tol" and result.trace == expected.trace
        for c, ref in zip(result.completed, expected.completed):
            assert np.array_equal(c, ref)


class TestObjective:
    def test_zero_when_equal(self, rng):
        m = random_pd(rng, 5)
        qs = [m.copy() for _ in range(3)]
        assert abs(objective(qs, FullModel(matrix=m))) < 1e-10

    def test_single_view_reduces_to_divergence(self, rng):
        q = random_pd(rng, 4)
        m = random_pd(rng, 4)
        assert objective([q], FullModel(matrix=m)) == pytest.approx(
            logdet_divergence(q, m), rel=1e-12
        )

    def test_decomposition_oracle(self, rng):
        qs = [random_pd(rng, 6) for _ in range(4)]
        m = random_pd(rng, 6)
        total = objective(qs, FullModel(matrix=m))
        expected = sum(logdet_divergence(q, m) for q in qs)
        assert total == pytest.approx(expected, abs=1e-12)

    def test_model_factored_once(self, rng, monkeypatch):
        # K views: M once, then each Q once (2K when M was factored per view)
        qs = [random_pd(rng, 6) for _ in range(4)]
        m = random_pd(rng, 6)
        expected = sum(logdet_divergence(q, m) for q in qs)
        sizes = []

        def recording(a):
            sizes.append(a.shape[0])
            return cholesky_lower(a)

        monkeypatch.setattr(linalg, "cholesky_lower", recording)
        total = objective(qs, FullModel(matrix=m))
        assert sizes == [6] * (1 + len(qs))
        assert total == expected  # bit for bit


class TestCompletionConfig:
    def test_seed_is_not_a_setting(self):
        with pytest.raises(TypeError, match="seed"):
            CompletionConfig(seed=0)

    @pytest.mark.parametrize("criterion", ["gk", "kaiser"])
    def test_rank_and_criterion_contradict(self, criterion):
        with pytest.raises(ConfigError, match=f"^rank_criterion must be None when rank is set, "
                                              f"got '{criterion}'$"):
            CompletionConfig(method="pca", rank=2, rank_criterion=criterion)


class TestSelectRank:
    def test_hand_spectrum(self):
        s = np.diag([3.0, 1.0, 0.5, 0.5])
        assert select_rank(s, "gk") == 1
        assert select_rank(s, "kaiser") == 1  # eigenvalue 1 is not > 1

    def test_flat_spectrum_clamped(self):
        assert select_rank(2.0 * np.eye(5), "gk") == 1

    def test_second_hand_spectrum(self):
        s = np.diag([5.0, 2.0, 0.1])
        assert select_rank(s, "gk") == 1
        assert select_rank(s, "kaiser") == 2

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            select_rank(np.eye(2), "aic")

    @pytest.mark.parametrize("criterion,spectrum", [("gk", [3.0, 2.0, 1.0]),
                                                    ("kaiser", [2.0, 1.0, 0.5])])
    def test_tie_at_the_threshold(self, criterion, spectrum):
        """An eigenvalue equal to the threshold is not above it. Off the diagonal the tie holds
        only to rounding, so either count may come out; a run's start is then the PPCA fit of
        whichever count its one view gave, on Q_vv or, for ``kaiser``, its correlation form."""
        assert select_rank(np.diag(spectrum), criterion) == 1
        basis = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
        s = symmetrize(basis @ np.diag(spectrum) @ basis.T)
        assert select_rank(s, criterion) in (1, 2)
        scale = 1.0 / np.sqrt(s.diagonal()) if criterion == "kaiser" else np.ones(3)
        rank = select_rank(s * scale * scale[:, None], criterion)
        # one view, nothing hidden and eps = 0: S_0 and Q_vv are s, and the one refit is its fit
        result = run_completion([s], VisibilityPattern(ell=3, hidden=((),)), CompletionConfig(
            method="pca", rank_criterion=criterion, reg_epsilon=0.0))
        assert result.rank == rank and result.stop == "no_hidden"
        ref = pca_model_update(s, rank).materialize()
        assert np.linalg.norm(result.model.materialize() - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("criterion", ["gk", "kaiser"])
    def test_rank_and_start_fit_take_one_eigensolve(self, criterion, monkeypatch):
        """Before iteration 1, each view counts by one LDL^T and no eigensolve, and the start
        fit takes one eigensolve: at ell = 16 its warm solve falls back to ``dsyevr``."""
        masked, pattern = seeded_problem(1)
        zero_filled = [apply_mask(q, h, Fill.ZERO) for q, h in zip(masked, pattern.hidden)]
        rank = criterion_rank(masked, pattern, criterion)
        original, count, step, calls = (linalg.eigh_sorted, engines.select_rank,
                                        engines.impute_view, [])

        def counting(*args, **kwargs):
            calls.append(sorted(kwargs))
            return original(*args, **kwargs)

        def counting_views(*args):
            calls.append("count")
            return count(*args)

        def stepping(*args):
            calls.append("impute")
            return step(*args)

        for module in (linalg, engines):
            monkeypatch.setattr(module, "eigh_sorted", counting)
        monkeypatch.setattr(engines, "select_rank", counting_views)
        monkeypatch.setattr(engines, "impute_view", stepping)
        cfg = CompletionConfig(method="pca", rank_criterion=criterion, max_iters=1)
        result = run_completion(masked, pattern, cfg)
        monkeypatch.undo()
        assert result.rank == rank and 1 <= rank <= 15
        assert calls[:calls.index("impute")] == ["count"] * 3 + [["top"]]
        start = start_model(masked, pattern, "pca", rank, cfg.reg_epsilon)
        refit = plain_step(zero_filled, pattern, start.materialize(), start,
                           CompletionConfig(method="pca", rank=rank))
        for part, ref in zip(result.model.parameters(), refit.parameters()):
            assert np.linalg.norm(part - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("criterion", ["gk", "kaiser"])
    @pytest.mark.parametrize("seed", range(4))
    def test_rank_is_the_lower_median_of_the_view_counts(self, criterion, seed):
        masked, pattern = seeded_problem(seed)
        for method in ("fc", "pca", "fa"):
            cfg = CompletionConfig(method=method, rank_criterion=criterion, max_iters=1)
            assert run_completion(masked, pattern, cfg).rank == criterion_rank(
                masked, pattern, criterion)

    @pytest.mark.parametrize("criterion", ["gk", "kaiser"])
    def test_views_that_disagree(self, criterion):
        """Views of true ranks 2, 3 and 5 count 2, 3 and 5, and the run fits q = 3. A fourth
        view with one visible object casts no count; counted as 1, it would move q to 2."""
        ell = 30
        truths = [generate_synthetic(SyntheticSpec(ell=ell, n_views=1, true_rank=r,
                                                   noise_sigma2=0.1, per_view_jitter=0.05,
                                                   seed=r))[0] for r in (2, 3, 5, 4)]
        hidden = (*random_mask(ell, 3, 0.2, seed=0).hidden, tuple(range(1, ell)))
        pattern = VisibilityPattern(ell=ell, hidden=hidden)
        masked = [apply_mask(t, h, Fill.ZERO) for t, h in zip(truths, hidden)]
        for k, r in enumerate((2, 3, 5)):
            one = VisibilityPattern(ell=ell, hidden=(hidden[k],))
            assert criterion_rank([masked[k]], one, criterion) == r
        assert criterion_rank(masked, pattern, criterion) == 3
        assert criterion_rank([*masked[:3], np.eye(ell)], VisibilityPattern(
            ell=ell, hidden=(*hidden[:3], ())), criterion) == 2  # with the fourth view's count
        cfg = CompletionConfig(method="pca", rank_criterion=criterion, max_iters=1)
        assert run_completion(masked, pattern, cfg).rank == 3

    @pytest.mark.parametrize("method", ["fc", "pca", "fa"])
    def test_no_view_counts(self, method):
        """At ell = 2 each view below sees one object, so no view counts and q is 1."""
        pattern = VisibilityPattern(ell=2, hidden=((0,), (1,)))
        masked = [apply_mask(np.array([[2.0, 0.5], [0.5, 1.0]]), h, Fill.ZERO)
                  for h in pattern.hidden]
        assert criterion_rank(masked, pattern, "gk") == 1
        for criterion in ("gk", "kaiser"):
            cfg = CompletionConfig(method=method, rank_criterion=criterion, max_iters=3)
            assert run_completion(masked, pattern, cfg).rank == 1

    @pytest.mark.parametrize("criterion", ["gk", "kaiser"])
    def test_matches_full_decomposition_count(self, criterion):
        # the synthetic data of the acceptance and CLI tests, masked and averaged
        def full_count(s):
            vals = np.linalg.eigvalsh(s)
            raw = np.sum(vals > (np.mean(vals) if criterion == "gk" else 1.0))
            return max(1, min(int(raw), len(vals) - 1))

        for ell, n_views, rank, noise, jitter, seed in [
            (30, 4, 5, 0.5, 0.2, 0), (30, 4, 5, 0.5, 0.2, 1), (40, 4, 3, 0.1, 0.05, 0),
            (15, 3, 2, 0.2, 0.05, 33), (12, 3, 2, 0.2, 0.05, 21),
        ]:
            truths = generate_synthetic(SyntheticSpec(ell=ell, n_views=n_views, true_rank=rank,
                                                      noise_sigma2=noise,
                                                      per_view_jitter=jitter, seed=seed))
            for s in (average_kernel(truths), regularize(average_kernel(
                    [apply_mask(t, h, Fill.ZERO) for t, h in
                     zip(truths, random_mask(ell, n_views, 0.2, seed=seed).hidden)]),
                    n_views, 1e-3)):
                assert select_rank(s, criterion) == full_count(s)


class TestDegreesOfFreedom:
    def test_fc_checks_a_given_rank(self):
        """fc's count needs no q, but the q its start is fitted at must fit [1, ell - 1]."""
        assert degrees_of_freedom("fc", 4, 3) == degrees_of_freedom("fc", 4) == 10
        for ell, q in ((4, 0), (4, 4), (1, 1)):
            message = rf"^rank q={q} out of range \[1, {ell - 1}\]$"
            with pytest.raises(DimensionError, match=message):
                degrees_of_freedom("fc", ell, q)

    def test_spot_values(self):
        assert degrees_of_freedom("fc", 4) == 10
        assert degrees_of_freedom("pca", 4, 2) == 8
        assert degrees_of_freedom("fa", 4, 2) == 11
        assert degrees_of_freedom("pca", 4, np.int64(2)) == 8

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            degrees_of_freedom("pca", 4, 4)

    @pytest.mark.parametrize("q", [2.5, True, 2.0, "2"], ids=["fraction", "bool", "float", "str"])
    def test_rank_must_be_an_integer(self, q):
        with pytest.raises(ConfigError, match="^rank q must be an integer, got "):
            degrees_of_freedom("pca", 5, q)


class TestRunCompletion:
    @pytest.mark.parametrize("method", ["fc", "pca", "fa"])
    def test_no_hidden_entries_idempotent(self, rng, method):
        qs = [random_pd(rng, 8) for _ in range(3)]
        pattern = VisibilityPattern(ell=8, hidden=((), (), ()))
        cfg = CompletionConfig(method=method, rank=2, reg_epsilon=0.0)
        result = run_completion(qs, pattern, cfg)
        for q, c in zip(qs, result.completed):
            assert np.array_equal(q, c)
        assert result.converged
        assert result.iterations <= 2

    @pytest.mark.parametrize("method", ["fc", "pca", "fa"])
    def test_single_object_is_refused(self, method):
        """At ell = 1 nothing can be hidden, and no rank fits [1, ell - 1] for the start."""
        with pytest.raises(DimensionError, match=r"^rank q=1 out of range \[1, 0\]$"):
            run_completion([np.array([[2.0]])], VisibilityPattern(ell=1, hidden=((),)),
                           CompletionConfig(method=method))

    def test_fc_rank_zero_is_refused(self):
        masked, pattern = seeded_problem(1)
        with pytest.raises(DimensionError, match=r"^rank q=0 out of range \[1, 15\]$"):
            run_completion(masked, pattern, CompletionConfig(method="fc", rank=0))

    def test_fc_single_view_fixed_point(self, rng):
        # view 0's fixed point; view 1 sees objects 1 and 4, since a pattern that hides an
        # object in every view is refused
        q = random_pd(rng, 6)
        pattern = VisibilityPattern(ell=6, hidden=((1, 4), (0,)))
        masked = [apply_mask(q, h, Fill.ZERO) for h in pattern.hidden]
        cfg = CompletionConfig(method="fc", tol=1e-13, max_iters=20000)
        result = run_completion(masked, pattern, cfg)
        assert result.converged
        # the converged hidden blocks reproduce themselves under one more
        # imputation from the final model matrix (convergence toward the
        # fixed point is linear, hence the loose bound)
        c = result.completed[0]
        view = partition(c, (1, 4))
        q_vh, q_hh = impute_from_model(view.q_vv, result.model.materialize(), (1, 4))
        assert np.max(np.abs(q_vh - c[view.vh])) < 1e-5
        assert np.max(np.abs(q_hh - c[np.ix_(view.hid, view.hid)])) < 1e-4

    @pytest.mark.parametrize("method", ["fc", "pca", "fa"])
    def test_monotone_trace_and_pd(self, rng, method):
        for _ in range(3):
            _, masked, pattern = make_instance(rng, 15, 4, 0.25)
            cfg = CompletionConfig(method=method, rank=3, max_iters=80)
            result = run_completion(masked, pattern, cfg)
            diffs = np.diff(result.trace)
            assert np.all(diffs <= 1e-8)
            for c in result.completed:
                assert np.linalg.eigvalsh(c)[0] > 0.0
            assert np.linalg.eigvalsh(result.model.materialize())[0] > 0.0

    def test_visible_entries_bit_identical(self, rng):
        qs, masked, pattern = make_instance(rng, 12, 3, 0.25)
        cfg = CompletionConfig(method="pca", rank=2, max_iters=50)
        result = run_completion(masked, pattern, cfg)
        for q, c, h in zip(qs, result.completed, pattern.hidden):
            vis = [i for i in range(12) if i not in h]
            assert np.array_equal(c[np.ix_(vis, vis)], q[np.ix_(vis, vis)])

    @pytest.mark.parametrize("method", ["fc", "pca", "fa"])
    def test_permutation_equivariance(self, rng, method):
        ell = 10
        qs, masked, pattern = make_instance(rng, ell, 3, 0.2)
        cfg = CompletionConfig(method=method, rank=2, max_iters=60)
        base = run_completion(masked, pattern, cfg)
        assert any(a is not None for a in base.step_length)

        perm = rng.permutation(ell)
        qs_p = [m[np.ix_(perm, perm)] for m in masked]
        inv = np.argsort(perm)
        hidden_p = tuple(tuple(sorted(int(inv[i]) for i in h)) for h in pattern.hidden)
        pattern_p = VisibilityPattern(ell=ell, hidden=hidden_p)
        permuted = run_completion(qs_p, pattern_p, cfg)
        for c, cp in zip(base.completed, permuted.completed):
            assert np.max(np.abs(cp - c[np.ix_(perm, perm)])) < 1e-9

    def test_rank_selection_used(self, rng):
        _, masked, pattern = make_instance(rng, 12, 3, 0.2)
        cfg = CompletionConfig(method="pca", rank_criterion="gk", max_iters=30)
        result = run_completion(masked, pattern, cfg)
        assert result.rank == criterion_rank(masked, pattern, "gk")

    @pytest.mark.parametrize("method", ["fc", "pca", "fa"])
    @pytest.mark.parametrize(
        "hidden",
        [
            ((1, 4, 7), (1, 4, 7), (1, 4, 7)),  # correlated: same objects in every view
            ((), (0, 5), (2, 3, 9)),  # one view with nothing hidden
            (tuple(range(1, 10)), (3,), (0, 6)),  # one view with a single visible object
            ((), (), ()),  # nothing hidden: one iteration, hook still called
        ],
        ids=["correlated", "view-fully-visible", "single-visible-object", "nothing-hidden"],
    )
    def test_trace_matches_dense_objective(self, rng, method, hidden):
        base = random_pd(rng, 10)
        qs = [base + 0.1 * random_pd(rng, 10) for _ in hidden]
        pattern = VisibilityPattern(ell=10, hidden=hidden)
        masked = [apply_mask(q, h, Fill.ZERO) for q, h in zip(qs, pattern.hidden)]
        dense = []
        cfg = CompletionConfig(method=method, rank=2, max_iters=30)
        if pattern.unobserved:  # correlated: objects no view sees are refused
            with pytest.raises(DimensionError, match=r"^objects \[1, 4, 7\] are hidden in every view$"):
                run_completion(masked, pattern, cfg)
            return

        def record(_it, completed, model):
            dense.append(augmented_objective(completed, model, cfg.reg_epsilon))

        result = run_completion(masked, pattern, cfg, on_iteration=record)
        assert len(dense) == len(result.trace) == result.iterations - result.rejected
        for it, (fast, ref) in enumerate(zip(result.trace, dense), start=1):
            assert fast == pytest.approx(ref, rel=1e-10), f"entry {it}"

    @pytest.mark.parametrize("method", ["fc", "pca", "fa"])
    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_objects_no_view_sees_are_refused(self, rng, method, eps):
        hidden = ((2, 5), (5, 1, 2), (0, 2, 5))
        masked = [apply_mask(random_pd(rng, 8), h, Fill.ZERO) for h in hidden]
        calls = []
        with pytest.raises(DimensionError) as info:
            run_completion(masked, VisibilityPattern(ell=8, hidden=hidden),
                           CompletionConfig(method=method, rank=2, reg_epsilon=eps),
                           on_iteration=lambda *args: calls.append(args))
        assert str(info.value) == "objects [2, 5] are hidden in every view"
        assert info.value.exit_code == 3 and not calls

    def test_non_pd_visible_block_rejected(self):
        q = np.diag([1.0, -1.0, 1.0])
        pattern = VisibilityPattern(ell=3, hidden=((2,), ()))  # view 1 sees object 2
        with pytest.raises(NotPositiveDefiniteError, match="view 0"):
            run_completion([q, np.eye(3)], pattern, CompletionConfig(method="fc"))

    def test_non_finite_visible_block_rejected(self, rng):
        # NaN passes through the Cholesky factorization without an error
        q = random_pd(rng, 4)
        q[0, 1] = q[1, 0] = np.nan
        pattern = VisibilityPattern(ell=4, hidden=((), (3,)))
        with pytest.raises(NotPositiveDefiniteError, match="view 1: visible block"):
            run_completion([random_pd(rng, 4), q], pattern, CompletionConfig(method="fc"))

    def test_nan_in_hidden_rows_is_overwritten(self, rng):
        q = random_pd(rng, 5)
        q[3, :] = q[:, 3] = np.nan
        pattern = VisibilityPattern(ell=5, hidden=((3,), ()))  # view 1 sees object 3
        result = run_completion([q, random_pd(rng, 5)], pattern,
                                CompletionConfig(method="fc", max_iters=5))
        assert np.isfinite(result.completed[0]).all()

    def test_view_count_mismatch(self, rng):
        pattern = VisibilityPattern(ell=4, hidden=((), ()))
        with pytest.raises(DimensionError):
            run_completion([random_pd(rng, 4)], pattern, CompletionConfig())

    def test_no_visible_block_factored_after_setup(self, rng, monkeypatch):
        # fc at ell = 10, n_v = 7, n_h = 3 and rank 2: each size names one kind of block
        hidden = ((1, 2, 3), (4, 5, 6), (0, 7, 8))
        base = random_pd(rng, 10)
        masked = [apply_mask(base + 0.1 * random_pd(rng, 10), h, Fill.ZERO) for h in hidden]
        sizes = []

        def recording(a):
            sizes.append(a.shape[0])
            return cholesky_lower(a)

        monkeypatch.setattr(linalg, "cholesky_lower", recording)
        cfg = CompletionConfig(method="fc", rank=2, max_iters=5)
        result = run_completion(masked, VisibilityPattern(ell=10, hidden=hidden), cfg)
        assert result.iterations == 5 and result.rejected == 0
        extrapolated = sum(a is not None for a in result.step_length)
        assert result.step_length[3] is not None and extrapolated == 1  # iteration 4 only
        assert sizes.count(7) == 3  # each view's Q_vv, once, in the set-up
        # the start's capacitance matrix, then each view's C_v in iteration 1
        assert sizes.count(2) == 1 + 3
        assert sizes.count(3) == 3 * (result.iterations - 1)  # each view's P_hh, from then on
        # each M once: the extrapolated iteration 4 imputes from P' and factors no M'
        assert sizes.count(10) == result.iterations

    @pytest.mark.parametrize("method,ell", [("pca", 48), ("fa", 48), ("pca", 10), ("fa", 10)],
                             ids=["pca", "fa", "pca-ell10", "fa-ell10"])
    def test_low_rank_model_never_factored_at_full_size(self, rng, method, ell, monkeypatch):
        # n_v = ell - 3, n_h = 3 and rank 2, so each size names one kind of block
        hidden = ((1, 2, 3), (4, 5, 6), (0, 7, 8))
        base = random_pd(rng, ell)
        masked = [apply_mask(base + 0.1 * random_pd(rng, ell), h, Fill.ZERO) for h in hidden]
        factored, inverted, marks = [], [], []

        def recording(a):
            factored.append(a.shape[0])
            return cholesky_lower(a)

        def recording_inverse(a):
            inverted.append(a.shape[0])
            return linalg.logdet_and_inverse(a)

        monkeypatch.setattr(linalg, "cholesky_lower", recording)
        monkeypatch.setattr(engines, "logdet_and_inverse", recording_inverse)
        cfg = CompletionConfig(method=method, rank=2, max_iters=8)
        result = run_completion(masked, VisibilityPattern(ell=ell, hidden=hidden), cfg,
                                on_iteration=lambda *_: marks.append(len(factored)))
        assert result.iterations == 8 and result.rejected == 0
        extrapolated = [a is not None for a in result.step_length]
        assert any(extrapolated[3::3]) and not any(extrapolated[:3])  # iteration 4 or 7
        setup = [ell - 3] * 3 + [2]  # each view's Q_vv, then C of the start model
        assert factored[:len(setup)] == setup
        # every iteration: C of the extrapolated point if there is one, each view's
        # q x q C_v, for fa C of the loadings step's model (its E-step), then C of the new model
        for it, (lo, hi) in enumerate(zip([len(setup)] + marks, marks), start=1):
            expected = extrapolated[it - 1] + 4 + (method == "fa")
            assert factored[lo:hi] == [2] * expected, f"iteration {it}"
        # no ell x ell matrix is factored or inverted, set-up included: each view inverts
        # its C_v, and no P_hh is ever formed
        assert ell not in factored
        assert inverted == [2] * 3 * result.iterations

    @pytest.mark.parametrize("method,rank", [("pca", 3), ("fa", 3), ("pca", 12), ("fa", 12),
                                             ("pca", 24), ("fa", 24)],
                             ids=["pca", "fa", "pca-q12", "fa-q12", "pca-q24", "fa-q24"])
    def test_low_rank_path_matches_dense_path(self, rng, method, rank):
        ell = 48  # q = ell/16, ell/4 and ell/2
        _, masked, pattern = make_instance(rng, ell, 3, 0.2)
        dense_objective = []
        cfg = CompletionConfig(method=method, rank=rank, max_iters=40)

        def record(_it, completed, model):
            dense_objective.append(augmented_objective(completed, model, cfg.reg_epsilon))

        fast = run_completion(masked, pattern, cfg, on_iteration=record)
        assert len(dense_objective) == len(fast.trace) >= 2
        assert any(a is not None for a in fast.step_length)
        for it, (value, ref) in enumerate(zip(fast.trace, dense_objective), start=1):
            assert value == pytest.approx(ref, rel=1e-10), f"entry {it}"

        dense = dense_loop(masked, pattern, cfg)
        assert dense.iterations == fast.iterations and dense.rejected == fast.rejected
        assert dense.step_length == pytest.approx(fast.step_length, rel=1e-8)
        for c_fast, c_dense in zip(fast.completed, dense.completed):
            assert np.linalg.norm(c_fast - c_dense) <= 1e-9 * np.linalg.norm(c_dense)
        assert np.allclose(fast.trace, dense.trace, rtol=1e-10, atol=0)

    def test_pca_refits_warm_after_setup(self, monkeypatch):
        """Only the start model's fit calls ``eigh_sorted``: every refit after it is the warm
        solve from the W being refit, and matches the cold dense refit and the plain step."""
        masked, pattern = seeded_problem(0)  # true rank 3, well gapped
        cfg = CompletionConfig(method="pca", rank=3, max_iters=300)
        original, calls, snapshots = linalg.eigh_sorted, [], []

        def counting(*args, **kwargs):
            calls.append(len(snapshots))
            return original(*args, **kwargs)

        for module in (linalg, engines):
            monkeypatch.setattr(module, "eigh_sorted", counting)
        result = run_completion(masked, pattern, cfg, on_iteration=lambda _it, c, m: snapshots.append(
            ([x.copy() for x in c], m)))
        monkeypatch.undo()
        assert result.stop == "tol" and any(a is not None for a in result.step_length)
        assert calls == [0]  # set-up only
        models = [start_model(masked, pattern, "pca", 3, cfg.reg_epsilon)] + [m for _, m in snapshots]
        for i, (completed, model) in enumerate(snapshots):
            cold = pca_model_update(regularize(average_kernel(completed), 3, cfg.reg_epsilon), 3)
            refits = [cold]
            if result.step_length[i] is None:  # from the last accepted model
                previous = [c.copy() for c in snapshots[i - 1][0]] if i else [
                    apply_mask(q, h, Fill.ZERO) for q, h in zip(masked, pattern.hidden)]
                refits.append(plain_step(previous, pattern, models[i].materialize(), models[i], cfg))
            for ref in refits:
                for part, expected in zip(model.parameters(), ref.parameters()):
                    assert np.linalg.norm(part - expected) <= 1e-10 * np.linalg.norm(expected), i

    @staticmethod
    def start_fit(masked, pattern, cfg, monkeypatch):
        """Run ``cfg`` counting ``eigh_sorted`` calls; (calls before the first per-view step,
        calls in all, the factors W and d of the model iteration 1 imputes from)."""
        original, step, calls, start = linalg.eigh_sorted, engines.impute_view, [], []

        def counting(*args, **kwargs):
            calls.append("eigh")
            return original(*args, **kwargs)

        def stepping(inverse, *args):
            if not start:
                start.extend([calls.count("eigh"), inverse.w, inverse.d])
            return step(inverse, *args)

        for module in (linalg, engines):
            monkeypatch.setattr(module, "eigh_sorted", counting)
        monkeypatch.setattr(engines, "impute_view", stepping)
        run_completion(masked, pattern, cfg)
        monkeypatch.undo()
        return start[0], len(calls), start[1], start[2]

    @pytest.mark.parametrize("method", ["pca", "fa"])
    def test_setup_fit_is_warm_when_certified(self, method, monkeypatch):
        """With a given rank the start's PPCA fit is the certified warm solve from S_0's
        columns at its q largest variances: on a well-gapped planted problem no ``dsyevr``
        runs at all, and the start is the documented one (``dsyevr``'s) to rounding."""
        spec = SyntheticSpec(ell=200, n_views=3, true_rank=3, noise_sigma2=0.1,
                             per_view_jitter=0.05, seed=3)
        pattern = random_mask(200, 3, 0.2, seed=3)
        masked = [apply_mask(t, h, Fill.ZERO) for t, h in zip(generate_synthetic(spec), pattern.hidden)]
        cfg = CompletionConfig(method=method, rank=3, max_iters=5)
        at_setup, total, w, d = self.start_fit(masked, pattern, cfg, monkeypatch)
        assert at_setup == total == 0
        ref = start_model(masked, pattern, method, 3, cfg.reg_epsilon).materialize()
        assert np.linalg.norm(w @ w.T + np.diag(d) - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("method", ["pca", "fa"])
    def test_setup_fit_falls_back_on_a_dependent_start(self, method, monkeypatch):
        """With object 1 made a copy of object 0 (up to a relative 2e-15 on the diagonal), and
        eps = 0, the two have the largest variances and the start's first two columns are
        dependent to rounding: the warm solve refuses them, and the start is ``dsyevr``'s, bit
        for bit. Without the copy the same problem's start is certified."""
        ell, hidden = 40, ((5, 9, 17), (2, 9, 30, 31), (11, 12))
        pattern = VisibilityPattern(ell=ell, hidden=hidden)
        cfg = CompletionConfig(method=method, rank=3, reg_epsilon=0.0, max_iters=1)
        for copy in (False, True):
            rng = np.random.default_rng(12345)
            x = rng.standard_normal((ell, 3))
            x[0] *= 3.0
            objects = np.r_[0, 0, 2:ell] if copy else np.arange(ell)
            masked = []
            for h in hidden:
                view = (x @ x.T + 0.1 * np.eye(ell) + 0.05 * random_pd(rng, ell) / ell)[
                    np.ix_(objects, objects)]
                view[[0, 1], [0, 1]] *= 1.0 + 2e-15 * copy
                masked.append(apply_mask(view, h, Fill.ZERO))
            at_setup, _, w, d = self.start_fit(masked, pattern, cfg, monkeypatch)
            assert at_setup == copy  # with the copy, the fallback
        ref = start_model(masked, pattern, method, 3, 0.0)  # the problem with the copy
        assert np.array_equal(w, ref.W)
        if method == "pca":
            assert np.array_equal(d, np.full(ell, ref.sigma2))
        else:  # the oracle's psi = diag(S_0 - W W^T) sums in another order
            np.testing.assert_allclose(d, ref.psi, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("method,model", [
        ("pca", PcaModel(W=np.ones((48, 2)), sigma2=0.0)),
        ("fa", FaModel(W=np.ones((48, 2)), psi=np.r_[np.ones(47), -1e-3])),
    ], ids=["sigma2-zero", "psi-negative"])
    def test_non_positive_noise_ends_the_run(self, rng, method, model, monkeypatch):
        hidden = ((0,), (1, 2), ())
        masked = [apply_mask(random_pd(rng, 48), h, Fill.ZERO) for h in hidden]
        # the update of iteration 1 returns the model; pca's start, its first call, does not
        update, calls = getattr(engines, f"{method}_model_update"), []

        def failing(*args):
            calls.append(args)
            return update(*args) if method == "pca" and len(calls) == 1 else model

        monkeypatch.setattr(engines, f"{method}_model_update", failing)
        with pytest.raises(NumericalError) as info:
            run_completion(masked, VisibilityPattern(ell=48, hidden=hidden),
                           CompletionConfig(method=method, rank=2))
        assert str(info.value) == (
            "iteration 1: matrix of dim 48 has a diagonal part that is not positive")
        assert info.value.exit_code == 5

    def test_non_positive_start_model_ends_the_run(self, rng, monkeypatch):
        hidden = ((0,), (1, 2), ())
        masked = [apply_mask(random_pd(rng, 48), h, Fill.ZERO) for h in hidden]
        start = PcaModel(W=np.ones((48, 2)), sigma2=0.0)
        monkeypatch.setattr(engines, "pca_model_update", lambda *_: start)
        with pytest.raises(NumericalError) as info:
            run_completion(masked, VisibilityPattern(ell=48, hidden=hidden),
                           CompletionConfig(method="pca", rank=2))
        assert str(info.value) == (
            "initial model matrix: matrix of dim 48 has a diagonal part that is not positive")
        assert info.value.exit_code == 5

    @pytest.mark.parametrize("method", ["fc", "pca", "fa"])
    def test_split_and_step_are_called_through_the_module(self, rng, method, monkeypatch):
        """Every split and per-view step goes through ``mkmc.engines.partition`` and
        ``mkmc.engines.impute_view`` as bound at the call, which is what a wrapper bound
        there (the benchmark's tracer) sees. Each wrapper counts a call only while it is
        bound and then binds a fresh one, so a second call through an alias is missed."""
        counts = {"partition": 0, "impute_view": 0}

        def bind(name, original):
            def wrapper(*args):
                if getattr(engines, name) is wrapper:
                    counts[name] += 1
                    bind(name, original)
                return original(*args)
            monkeypatch.setattr(engines, name, wrapper)

        for name in counts:
            bind(name, getattr(engines, name))
        hidden = ((0, 3), (), (1,), (2, 5))  # K = 4; three views hide objects
        masked = [apply_mask(random_pd(rng, 8), h, Fill.ZERO) for h in hidden]
        result = run_completion(masked, VisibilityPattern(ell=8, hidden=hidden),
                                CompletionConfig(method=method, rank=2, max_iters=3))
        assert result.iterations == 3 and result.rejected == 0
        assert counts == {"partition": 4, "impute_view": 3 * 3}

    @pytest.mark.parametrize("method", ["fc", "pca", "fa"])
    def test_averages_the_views_only_at_setup(self, method, monkeypatch):
        """Every method holds S_reg as S_0_reg plus the imputed blocks (``fc`` accumulates
        them, ``pca`` assembles S_reg from factors and ``fa`` reads it through products), so
        after the first per-view step a run neither averages nor regularizes any view, hook or
        not. Before it, the set-up sums the views in its own pass and gets S_0_reg from one
        ``regularize`` call. A run writes each view that hides objects once at the end, or,
        with a hook, once after every accepted evaluation."""
        calls, written = [], []

        def bind(name, original):
            def counting(*args):
                calls.append(name)
                if name == "_write":
                    written.append(id(args[0]))
                return original(*args)
            monkeypatch.setattr(engines, name, counting)

        for name in ("average_kernel", "regularize", "impute_view", "_write"):
            bind(name, getattr(engines, name))
        masked, pattern = seeded_problem(0)
        for hook in (None, lambda *_: None):
            calls.clear()
            written.clear()
            result = run_completion(masked, pattern, CompletionConfig(
                method=method, rank=2, max_iters=300), on_iteration=hook)
            assert result.stop == "tol" and result.iterations > 3
            first = calls.index("impute_view")
            assert calls[:first] == ["regularize"]
            assert set(calls[first:]) == {"impute_view", "_write"}
            writes = 1 if hook is None else result.iterations - result.rejected
            hiding = [id(c) for c, h in zip(result.completed, pattern.hidden) if h]
            assert sorted(written) == sorted(hiding * writes)

    def test_numerical_error_names_the_view(self, rng, monkeypatch):
        # only view 1 hides two objects, so only its P_hh has dimension 2; at rank 3 no
        # capacitance matrix does, and P_hh is first factored in iteration 2
        hidden = ((0,), (1, 2), ())
        masked = [apply_mask(random_pd(rng, 6), h, Fill.ZERO) for h in hidden]

        def failing(a):
            if a.shape[0] == 2:
                raise NotPositiveDefiniteError("matrix of dim 2 is not positive definite")
            return cholesky_lower(a)

        monkeypatch.setattr(linalg, "cholesky_lower", failing)
        with pytest.raises(NumericalError) as info:
            run_completion(masked, VisibilityPattern(ell=6, hidden=hidden),
                           CompletionConfig(method="fc", rank=3))
        assert str(info.value) == (
            "iteration 2: view 1: hidden block of the model inverse is numerically singular: "
            "matrix of dim 2 is not positive definite"
        )
        assert info.value.exit_code == 5

    def test_non_pd_fc_model_ends_the_run(self, rng, monkeypatch):
        # fc_model_update does not check its input; the driver's factorization of M does
        hidden = ((0,), (1, 2), ())
        masked = [apply_mask(random_pd(rng, 6), h, Fill.ZERO) for h in hidden]
        non_pd = FullModel(matrix=np.diag([1.0, -1.0, 1.0, 1.0, 1.0, 1.0]))
        monkeypatch.setattr(engines, "fc_model_update", lambda s_reg: non_pd)
        with pytest.raises(NumericalError) as info:
            run_completion(masked, VisibilityPattern(ell=6, hidden=hidden),
                           CompletionConfig(method="fc"))
        assert str(info.value) == "iteration 1: matrix of dim 6 is not positive definite"
        assert info.value.exit_code == 5


def plain_loop(masked, pattern, cfg):
    """The map without extrapolation, iterated from the public functions and the documented
    start under the driver's stop rule: (map evaluations, final model)."""
    eps = cfg.reg_epsilon
    completed = [apply_mask(q, h, Fill.ZERO) for q, h in zip(masked, pattern.hidden)]
    model = start_model(masked, pattern, cfg.method, cfg.rank, eps)
    trace = []
    for it in range(1, cfg.max_iters + 1):
        model = plain_step(completed, pattern, model.materialize(), model, cfg)
        trace.append(augmented_objective(completed, model, eps))
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) / max(1.0, abs(trace[-2])) < cfg.tol:
            break
    return it, model


def plain_step(completed, pattern, m, model, cfg, impute=impute_from_model):
    """Impute every view of ``completed`` in place from the matrix m, by default the model
    matrix, then refit."""
    for c, h in zip(completed, pattern.hidden):
        if h:
            view = partition(c, h)
            q_vh, q_hh = impute(view.q_vv, m, h)
            c[view.vh], c[np.ix_(view.hid, view.vis)] = q_vh, q_vh.T
            c[np.ix_(view.hid, view.hid)] = q_hh
    s_reg = regularize(average_kernel(completed), pattern.n_views, cfg.reg_epsilon)
    if cfg.method == "fc":
        return fc_model_update(s_reg)
    if cfg.method == "pca":
        return pca_model_update(s_reg, cfg.rank)
    return fa_model_update(s_reg, ritz_loadings(s_reg, model))


def dense_loop(masked, pattern, cfg):
    """The driver's accelerated loop rebuilt from the dense oracles: every evaluation is
    plain_step from the materialized point (the documented start, the last accepted model, or
    theta0 - 2 alpha r + alpha^2 v of the cycle's three models, |alpha| within fa's adaptive
    bound), and J is augmented_objective of its result. ``fc``'s theta is P = M^{-1}, taken by
    ``linalg.logdet_and_inverse`` as the driver takes it, and an extrapolated ``fc`` point is
    imputed from P' itself (impute_from_inverse). Returns the completions, the trace, the step
    lengths and the counts."""
    eps = cfg.reg_epsilon
    completed = [apply_mask(q, h, Fill.ZERO) for q, h in zip(masked, pattern.hidden)]
    model = start_model(masked, pattern, cfg.method, cfg.rank, eps)
    trace, step_length, cycle, alpha, rejected = [], [], [], None, 0
    step_max = engines.FA_STEP_MAX0 if cfg.method == "fa" else np.inf
    for it in range(1, cfg.max_iters + 1):
        point, p = model, None
        if alpha is not None:  # as theta2 - 2(1 + alpha) r + (alpha^2 - 1) v
            theta = tuple(t - 2.0 * (1.0 + alpha) * a + (alpha * alpha - 1.0) * b
                          for t, a, b in zip(cycle[2], r, v))
            if cfg.method == "fc":
                p = theta[0]
            else:
                point = type(model).from_parameters(theta)
        trial = [c.copy() for c in completed]
        try:
            if p is None:
                new = plain_step(trial, pattern, point.materialize(), point, cfg)
            else:
                new = plain_step(trial, pattern, p, point, cfg, impute_from_inverse)
            j = augmented_objective(trial, new, eps)
        except (NotPositiveDefiniteError, NumericalError):
            if alpha is None:
                raise
            j = np.inf
        if alpha is not None and not j <= trace[-1]:
            if alpha == -step_max:
                step_max = max(engines.FA_STEP_MAX0, step_max / engines.FA_STEP_GROWTH)
            rejected, alpha = rejected + 1, None
            continue
        completed, model = trial, new
        step_length.append(alpha)
        if alpha == -step_max:
            step_max *= engines.FA_STEP_GROWTH
        alpha = None
        cycle = cycle if len(cycle) < 3 else []
        cycle.append((linalg.logdet_and_inverse(model.matrix)[1],) if cfg.method == "fc"
                     else model.parameters())
        if len(cycle) == 3 and it + 1 < cfg.max_iters:
            r = [b - a for a, b in zip(*cycle[:2])]
            v = [c - b - a for a, b, c in zip(r, *cycle[1:])]  # (theta2 - theta1) - r
            rr, vv = (sum(float(np.vdot(x, x)) for x in parts) for parts in (r, v))
            if rr > vv > 0.0:
                alpha = max(-float(np.sqrt(rr / vv)), -step_max)
        trace.append(j)
        if len(trace) >= 2 and abs(j - trace[-2]) / max(1.0, abs(trace[-2])) < cfg.tol:
            break
    return SimpleNamespace(completed=completed, trace=trace, step_length=step_length,
                           iterations=it, rejected=rejected)


def seeded_problem(seed, ell=16, n_views=3):
    """Synthetic views and independent masks, in which random_mask leaves every object
    seen in some view."""
    spec = SyntheticSpec(ell=ell, n_views=n_views, true_rank=3, noise_sigma2=0.1,
                         per_view_jitter=0.05, seed=seed)
    pattern = random_mask(ell, n_views, 0.25, seed=seed)
    truths = generate_synthetic(spec)
    return [apply_mask(t, h, Fill.ZERO) for t, h in zip(truths, pattern.hidden)], pattern


class TestAcceleration:
    @pytest.mark.parametrize("method", ["fc", "pca", "fa"])
    def test_iteration_1_is_a_plain_step_from_the_start_model(self, method):
        masked, pattern = seeded_problem(1)
        cfg = CompletionConfig(method=method, rank=2, max_iters=1)
        result = run_completion(masked, pattern, cfg)
        start = start_model(masked, pattern, method, 2, cfg.reg_epsilon)
        completed = [apply_mask(q, h, Fill.ZERO) for q, h in zip(masked, pattern.hidden)]
        refit = plain_step(completed, pattern, start.materialize(), start, cfg)
        for c, ref in zip(result.completed, completed):
            assert np.linalg.norm(c - ref) <= 1e-10 * np.linalg.norm(ref)
        for part, ref in zip(parameters(result.model), parameters(refit)):
            assert np.linalg.norm(part - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_fc_iteration_1_from_the_factored_start_is_the_dense_step(self, seed):
        """``fc`` keeps its start as the PPCA fit and imputes iteration 1 from that fit's
        Woodbury inverse. At the ``gk`` count, completions and M match the dense plain step
        from the materialized start."""
        masked, pattern = seeded_problem(seed)
        cfg = CompletionConfig(method="fc", rank_criterion="gk", max_iters=1)
        result = run_completion(masked, pattern, cfg)
        start = start_model(masked, pattern, "fc", result.rank, cfg.reg_epsilon)
        completed = [apply_mask(q, h, Fill.ZERO) for q, h in zip(masked, pattern.hidden)]
        refit = plain_step(completed, pattern, start.materialize(), start, cfg)
        for c, ref in zip(result.completed, completed):
            assert np.linalg.norm(c - ref) <= 1e-10 * np.linalg.norm(ref)
        assert (np.linalg.norm(result.model.matrix - refit.matrix)
                <= 1e-10 * np.linalg.norm(refit.matrix))

    @pytest.mark.parametrize("rank", [{"rank": 2}, {"rank_criterion": "gk"}, {}],
                             ids=["given", "gk", "default"])
    def test_fc_and_pca_share_iteration_1(self, rank):
        """One start for every method: capped at one evaluation, ``fc`` and ``pca`` impute
        the same blocks from the same model, bit for bit."""
        masked, pattern = seeded_problem(1)
        fc, pca = (run_completion(masked, pattern, CompletionConfig(method=method, max_iters=1,
                                                                    **rank))
                   for method in ("fc", "pca"))
        assert fc.rank == pca.rank and fc.dof != pca.dof
        for c_fc, c_pca in zip(fc.completed, pca.completed):
            assert np.array_equal(c_fc, c_pca)

    @pytest.mark.parametrize("method", ["fc", "pca", "fa"])
    def test_three_iterations_are_plain_steps(self, method):
        masked, pattern = seeded_problem(0)
        snapshots = []
        longer = run_completion(masked, pattern, CompletionConfig(method=method, rank=2, max_iters=24),
                                on_iteration=lambda _it, c, m: snapshots.append(
                                    ([x.copy() for x in c], m)))
        assert any(a is not None for a in longer.step_length[3:])
        for max_iters in (1, 2, 3, 4):
            cfg = CompletionConfig(method=method, rank=2, max_iters=max_iters)
            result = run_completion(masked, pattern, cfg)
            assert result.step_length == [None] * max_iters
            assert result.iterations == max_iters and result.rejected == 0
            assert result.stop == "max_iters"
            if max_iters == 4:  # the longer run extrapolates here; this one refits from model 3
                completed, model = snapshots[2]
                completed = [c.copy() for c in completed]
                refit = plain_step(completed, pattern, model.materialize(), model, cfg)
                for c, ref in zip(result.completed, completed):
                    np.testing.assert_allclose(c, ref, rtol=1e-9, atol=1e-12)
                np.testing.assert_allclose(result.model.materialize(), refit.materialize(),
                                           rtol=1e-9, atol=1e-12)
                continue
            completed, model = snapshots[max_iters - 1]
            for c, ref in zip(result.completed, completed):
                assert np.array_equal(c, ref)
            assert np.array_equal(result.model.materialize(), model.materialize())

    @pytest.mark.parametrize("method", ["fc", "pca", "fa"])
    def test_nearer_the_fixed_point_in_fewer_evaluations(self, method):
        """Against the plain loop on 5 seeded problems, under the same tol rule.

        The per-step residual ||F(theta) - theta|| / ||theta|| of a map converging
        linearly at rate rho is about (1 - rho) times the distance to the fixed point,
        so a plain loop creeping at rho near 1 reports a small residual far from it.
        The comparison is therefore the distance of the final model matrix to the
        fixed point: the driver's model once consecutive objectives are equal, which
        one more plain step moves by at most 1e-8 (relative).
        """
        cfg = CompletionConfig(method=method, rank=2, max_iters=300)
        plain_total = driver_total = 0
        for seed in range(5):
            masked, pattern = seeded_problem(seed)
            n_plain, plain_model = plain_loop(masked, pattern, cfg)
            result = run_completion(masked, pattern, cfg)
            assert result.stop == "tol"
            plain_total += n_plain
            driver_total += result.iterations

            ref = run_completion(masked, pattern, CompletionConfig(
                method=method, rank=2, tol=1e-300, max_iters=5000))
            assert ref.stop == "tol"
            m_ref = ref.model.materialize()
            again = plain_step([c.copy() for c in ref.completed], pattern, m_ref, ref.model, cfg)
            scale = np.linalg.norm(m_ref)
            assert np.linalg.norm(again.materialize() - m_ref) <= 1e-8 * scale

            def distance(model):
                return np.linalg.norm(model.materialize() - m_ref) / scale

            assert distance(result.model) <= distance(plain_model), f"seed {seed}"
        assert driver_total < plain_total

    @pytest.mark.parametrize("method, seed", [("fc", 0), ("pca", 0), ("fa", 0), ("fa", 2)])
    def test_residual_is_the_relative_distance_from_the_evaluated_point(self, method, seed):
        """||theta_new - point|| / max(||point||, ||theta_new||), recomputed from the start
        model and the models the hook received. The point is the start model for entry 0,
        the last accepted model for a later plain step and theta0 - 2 alpha r + alpha^2 v
        of the cycle's three models for an extrapolated one; ``fc``'s theta is M^{-1}, and its
        start point the start's inverse. seeded_problem(0) has accepted extrapolations, and
        rejections for ``fc`` and ``fa``; ("fa", 2) has a rejection too. ``fa``'s alpha is
        -||r|| / ||v|| or, where that is beyond its adaptive bound, the bound, a power of
        FA_STEP_GROWTH."""
        masked, pattern = seeded_problem(seed)
        start = start_model(masked, pattern, method, 2, 1e-3)
        models = [start]
        result = run_completion(masked, pattern, CompletionConfig(method=method, rank=2, max_iters=300),
                                on_iteration=lambda _it, _c, m: models.append(m))
        assert result.stop == "tol" and any(a is not None for a in result.step_length)
        if method == "fc":  # the start's inverse, then each M^{-1} as the driver takes it
            thetas = [np.linalg.inv(start.materialize()).ravel()] + [
                linalg.logdet_and_inverse(m.matrix)[1].ravel() for m in models[1:]]
        else:
            thetas = [np.concatenate([p.ravel() for p in m.parameters()]) for m in models]
        assert len(result.residual) == len(thetas) - 1  # thetas[i + 1] is entry i's model
        for i in range(len(result.residual)):
            alpha = result.step_length[i]
            if alpha is None:
                point = thetas[i]
            else:  # a cycle starts at entry 0, not the start, and at each third entry after it
                assert i % 3 == 0
                t0, t1, t2 = thetas[i - 2:i + 1]
                r, v = t1 - t0, t2 - 2 * t1 + t0
                ratio = np.linalg.norm(r) / np.linalg.norm(v)
                if method == "fa" and -alpha < ratio * (1 - 1e-12):
                    assert -alpha in [engines.FA_STEP_MAX0 * engines.FA_STEP_GROWTH**k
                                      for k in range(8)]
                else:
                    assert alpha == pytest.approx(-ratio, rel=1e-12)
                point = t0 - 2 * alpha * r + alpha**2 * v
            scale = max(np.linalg.norm(point), np.linalg.norm(thetas[i + 1]))
            expected = np.linalg.norm(thetas[i + 1] - point) / scale
            assert result.residual[i] == pytest.approx(expected, rel=1e-12), f"entry {i}"

    @pytest.mark.parametrize("method, seed",
                             [("fc", 0), ("fc", 2), ("fc", 31), ("pca", 0), ("fa", 0), ("fa", 2),
                              ("fa", 4)])
    def test_a_hook_changes_nothing(self, method, seed):
        """A run with ``on_iteration`` returns bit for bit what one without returns, though
        ``fa`` then writes its views after every accepted evaluation instead of once at the end.
        ("fc", 0), ("fc", 2), ("fa", 0) and ("fa", 2) reject an extrapolation, and ("fc", 31)
        and ("fa", 4) reject none."""
        masked, pattern = seeded_problem(seed)
        cfg = CompletionConfig(method=method, rank=2, max_iters=300)
        hooked = run_completion(masked, pattern, cfg, on_iteration=lambda *_: None)
        plain = run_completion(masked, pattern, cfg)
        assert hooked.stop == "tol" and (hooked.rejected >= 1) == ((method, seed) in (
            ("fc", 0), ("fc", 2), ("fa", 0), ("fa", 2)))
        assert any(a is not None for a in hooked.step_length)
        for c_hooked, c_plain in zip(hooked.completed, plain.completed):
            assert np.array_equal(c_hooked, c_plain)
        for p_hooked, p_plain in zip(parameters(hooked.model), parameters(plain.model)):
            assert np.array_equal(p_hooked, p_plain)
        for name in ("trace", "residual", "step_length", "rejected", "iterations"):
            assert getattr(hooked, name) == getattr(plain, name), name

    def test_fa_step_bound_grows_when_reached_and_shrinks_on_rejection(self):
        """``fa``'s bound on |alpha| starts at FA_STEP_MAX0, grows FA_STEP_GROWTH-fold when a
        step reaches it and holds, and shrinks as much when such a step is rejected.
        seeded_problem(0) does both (a bound of 16 is rejected, so 4 is reached again); the
        driver's step lengths and rejections match dense_loop, which keeps its own bound."""
        masked, pattern = seeded_problem(0)
        cfg = CompletionConfig(method="fa", rank=2, max_iters=300)
        fast = run_completion(masked, pattern, cfg)
        dense = dense_loop(masked, pattern, cfg)
        assert fast.stop == "tol" and fast.rejected == dense.rejected >= 1
        assert dense.step_length == pytest.approx(fast.step_length, rel=1e-6)  # 35 entries
        bounds = [engines.FA_STEP_MAX0 * engines.FA_STEP_GROWTH**k for k in range(3)]
        held = [-a for a in fast.step_length if a is not None and -a in bounds]
        assert held[0] == engines.FA_STEP_MAX0 and held == [1.0, 4.0, 4.0, 16.0]

    def test_fc_extrapolates_the_inverse(self):
        """``fc`` extrapolates P = M^{-1} and imputes straight from P'. seeded_problem(0) has
        accepted and rejected extrapolations, and the driver's trace, step lengths and
        rejections match dense_loop's, which imputes from P' by the partitioned formulas."""
        masked, pattern = seeded_problem(0)
        cfg = CompletionConfig(method="fc", rank=2, max_iters=300)
        fast = run_completion(masked, pattern, cfg)
        dense = dense_loop(masked, pattern, cfg)
        assert fast.stop == "tol" and fast.rejected == dense.rejected >= 1
        assert fast.iterations == dense.iterations
        assert sum(a is not None for a in fast.step_length) >= 1
        assert dense.step_length == pytest.approx(fast.step_length, rel=1e-6)
        assert dense.trace == pytest.approx(fast.trace, rel=1e-6)
        for c_fast, c_dense in zip(fast.completed, dense.completed):
            assert np.linalg.norm(c_fast - c_dense) <= 1e-6 * np.linalg.norm(c_dense)

    @pytest.mark.parametrize("method, seed", [("fc", 2), ("fa", 2)])  # problems with a rejection
    def test_rejection_is_followed_by_the_plain_step(self, method, seed):
        masked, pattern = seeded_problem(seed)
        cfg = CompletionConfig(method=method, rank=2, max_iters=300)
        accepted = {}
        full = run_completion(masked, pattern, cfg, on_iteration=lambda it, c, m: accepted.update(
            {it: ([x.copy() for x in c], m)}))
        assert full.stop == "tol" and full.rejected >= 1
        rejected = sorted(set(range(1, full.iterations + 1)) - set(accepted))
        assert len(rejected) == full.rejected
        entry = {it: i for i, it in enumerate(sorted(accepted))}  # evaluation -> trace entry
        for it in rejected:
            assert it + 1 in accepted  # never two rejections in a row
            assert full.step_length[entry[it + 1]] is None
            completed, model = accepted[it - 1]
            completed = [c.copy() for c in completed]
            refit = plain_step(completed, pattern, model.materialize(), model, cfg)
            for c, ref in zip(accepted[it + 1][0], completed):
                np.testing.assert_allclose(c, ref, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(accepted[it + 1][1].materialize(), refit.materialize(),
                                       rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("method, seed", [("fc", 2), ("fa", 2)])  # problems with a rejection
    def test_run_capped_at_a_rejection_ends_with_the_plain_step(self, method, seed):
        """Capped at the full run's first rejected evaluation r, the run makes evaluation r
        the plain step the full run makes at r + 1, so it ends in that step's state."""
        masked, pattern = seeded_problem(seed)
        cfg = CompletionConfig(method=method, rank=2, max_iters=300)
        accepted = {}
        full = run_completion(masked, pattern, cfg, on_iteration=lambda it, c, m: accepted.update(
            {it: ([x.copy() for x in c], m)}))
        assert full.rejected >= 1
        r = min(set(range(1, full.iterations + 1)) - set(accepted))
        capped = run_completion(masked, pattern, CompletionConfig(method=method, rank=2,
                                                                  max_iters=r))
        assert capped.stop == "max_iters" and capped.iterations == r and capped.rejected == 0
        assert capped.trace == full.trace[:r] and capped.step_length[-1] is None
        completed, model = accepted[r + 1]
        for c, ref in zip(capped.completed, completed):
            assert np.array_equal(c, ref)
        for part, ref in zip(parameters(capped.model), parameters(model)):
            assert np.array_equal(part, ref)

    @pytest.mark.parametrize("method", ["fc", "pca", "fa"])
    def test_run_capped_at_an_accepted_extrapolation_ends_with_a_plain_step(self, method):
        masked, pattern = seeded_problem(0)
        evaluations = []
        full = run_completion(masked, pattern, CompletionConfig(method=method, rank=2, max_iters=300),
                              on_iteration=lambda it, _c, _m: evaluations.append(it))
        entry = next(i for i, a in enumerate(full.step_length) if a is not None)
        capped = run_completion(masked, pattern, CompletionConfig(
            method=method, rank=2, max_iters=evaluations[entry]))
        assert capped.stop == "max_iters" and capped.iterations == evaluations[entry]
        assert capped.trace[:-1] == full.trace[:entry] and len(capped.trace) == entry + 1
        assert capped.step_length[:-1] == full.step_length[:entry]
        assert capped.step_length[-1] is None


def setup_problem(case):
    """Masked views and a pattern for the set-up tests: seeded_problem's, one with a view that
    hides nothing, or one view with nothing hidden."""
    if case == "seeded":
        return seeded_problem(0)
    spec = SyntheticSpec(ell=10, n_views=3, true_rank=3, noise_sigma2=0.1,
                         per_view_jitter=0.05, seed=4)
    hidden = ((0, 3, 7), (), (1, 3, 8)) if case == "one-view-hides-nothing" else ((),)
    truths = generate_synthetic(spec)[:len(hidden)]
    return ([apply_mask(t, h, Fill.ZERO) for t, h in zip(truths, hidden)],
            VisibilityPattern(ell=10, hidden=hidden))


class TestSetUp:
    @pytest.mark.parametrize("method", ["fc", "pca", "fa"])
    def test_inputs_are_neither_written_nor_aliased(self, method):
        """The set-up zero-fills and sums in place, but only in its own arrays:
        every input, NaN in its hidden rows included, keeps its bytes, and no completed view
        or model parameter shares memory with one."""
        masked, pattern = seeded_problem(2)
        for q, h in zip(masked, pattern.hidden):
            q[list(h), :] = q[:, list(h)] = np.nan
        before = [q.copy() for q in masked]
        for hook in (None, lambda *_: None):
            result = run_completion(masked, pattern, CompletionConfig(
                method=method, rank=2, max_iters=6), on_iteration=hook)
            assert all(np.isfinite(c).all() for c in result.completed)
            for q, ref in zip(masked, before):
                assert q.dtype == ref.dtype and q.tobytes() == ref.tobytes()
            for out in (*result.completed, *parameters(result.model)):
                assert not any(np.shares_memory(out, q) for q in masked)

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    @pytest.mark.parametrize("case", ["seeded", "one-view-hides-nothing", "one-view-nothing-hidden"])
    def test_same_s0_bit_for_bit(self, case, eps):
        """One ``fc`` evaluation from the one-pass set-up gives, bit for bit, the completed
        views of the same step from the set-up's reference sequence: zero-fill every view,
        average, regularize, fit the PPCA start warm from S_0_reg's top-variance columns,
        impute each view from its factored inverse with Q_vv gathered by ``np.ix_`` and write
        it. Its model, S_reg accumulated from the imputed blocks with no view written, is
        exactly symmetric and matches averaging and regularizing the written views at
        round-off."""
        masked, pattern = setup_problem(case)
        result = run_completion(masked, pattern, CompletionConfig(
            method="fc", rank=2, max_iters=1, reg_epsilon=eps))
        completed = [apply_mask(q, h, Fill.ZERO) for q, h in zip(masked, pattern.hidden)]
        s0_reg = regularize(average_kernel(completed), pattern.n_views, eps)
        top = np.sort(np.argsort(-s0_reg.diagonal(), kind="stable")[:2])
        _, inverse = pca_model_update(s0_reg, 2, s0_reg[:, top]).logdet_and_inverse()
        for c, h in zip(completed, pattern.hidden):
            if h:
                view = partition(c, h)
                view = replace(view, q_vv=c[np.ix_(view.vis, view.vis)])
                _, q_vh, q_hh = impute_view(inverse, view)
                c[view.vh], c[np.ix_(view.hid, view.vis)] = q_vh, q_vh.T
                c[np.ix_(view.hid, view.hid)] = q_hh
        s_reg, ref_s_reg = result.model.matrix, regularize(average_kernel(completed),
                                                           pattern.n_views, eps)
        assert np.max(np.abs(s_reg - ref_s_reg)) <= 1e-15 * np.max(np.abs(ref_s_reg))
        assert np.array_equal(s_reg, s_reg.T)
        for c, ref in zip(result.completed, completed):
            assert np.array_equal(c, ref)

    @pytest.mark.parametrize("method", ["fc", "pca", "fa"])
    def test_setup_ms_is_recorded(self, method):
        """The set-up's wall time is finite, positive, and disjoint from the iterations'."""
        masked, pattern = seeded_problem(1)
        t0 = time.perf_counter()
        result = run_completion(masked, pattern, CompletionConfig(method=method, rank=2,
                                                                  max_iters=3))
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        assert type(result.setup_ms) is float and np.isfinite(result.setup_ms)
        assert 0 < result.setup_ms and result.setup_ms + sum(result.iter_ms) <= elapsed_ms
