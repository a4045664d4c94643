"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from click.testing import CliRunner

from mkmc import matrixio
from mkmc.cli import main as cli_main
from mkmc.engines import (
    CompletionConfig,
    FaModel,
    PcaModel,
    degrees_of_freedom,
    fa_estep,
    fa_model_update,
    impute_view,
    objective,
    pca_model_update,
    run_completion,
    select_rank,
)
from mkmc.linalg import logdet_and_inverse, low_rank_logdet_and_inverse
from mkmc.recovery import SyntheticSpec, compare_methods, generate_synthetic
from mkmc.views import Fill, apply_mask, partition, random_mask

from conftest import random_pd


def check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed{suffix}"


@pytest.fixture(scope="module")
def descent_runs():
    """Ten seeded instances (ell=30, K=4, 20% hidden) per method.

    Collects the objective trace and, via the driver hook, the minimum
    eigenvalue across completed matrices and model matrix at every iteration.
    """
    runs = []
    for seed in range(10):
        spec = SyntheticSpec(
            ell=30, n_views=4, true_rank=5, noise_sigma2=0.5,
            per_view_jitter=0.2, seed=seed,
        )
        truths = generate_synthetic(spec)
        pattern = random_mask(30, 4, 0.2, seed=seed)
        masked = [apply_mask(t, h, Fill.ZERO) for t, h in zip(truths, pattern.hidden)]
        for method in ("fc", "pca", "fa"):
            min_eigs = []

            def track(_it, completed, model):
                vals = [np.linalg.eigvalsh(c)[0] for c in completed]
                vals.append(np.linalg.eigvalsh(model.materialize())[0])
                min_eigs.append(min(vals))

            cfg = CompletionConfig(
                method=method, rank=5, reg_epsilon=1e-3, max_iters=60
            )
            result = run_completion(masked, pattern, cfg, on_iteration=track)
            runs.append((method, seed, result.trace, min_eigs))
    return runs


def test_criterion_1_monotonic_descent(descent_runs):
    worst = -np.inf
    for _method, _seed, trace, _eigs in descent_runs:
        worst = max(worst, float(np.max(np.diff(trace))))
    check(1, "monotonic descent", worst <= 1e-8, f"max objective increase {worst:.3e}")


def test_criterion_2_positive_definiteness(descent_runs):
    overall_min = min(min(eigs) for _m, _s, _t, eigs in descent_runs)
    check(
        2, "positive definiteness at every iteration",
        overall_min > 0.0, f"min eigenvalue {overall_min:.3e}",
    )


def test_criterion_3_imputation_oracle():
    """The driver's per-view step against explicit inverses of M's blocks.

    ``impute_view`` imputes from P = M^{-1} of any PD M, and from the factored
    inverse of a low-rank M = W W^T + diag(d); each is given M^{-1} as the driver
    computes it, and the view as the driver splits a zero-filled input.
    """
    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(100):
        if i % 2:
            w, d = rng.standard_normal((6, 2)), rng.uniform(0.2, 2.0, 6)
            m = w @ w.T + np.diag(d)
            inverse = low_rank_logdet_and_inverse(w, d)[1]
        else:
            m = random_pd(rng, 6)
            inverse = logdet_and_inverse(m)[1]
        hid = np.sort(rng.choice(6, size=2, replace=False))
        vis = np.setdiff1d(np.arange(6), hid)
        q_vv = random_pd(rng, 4)
        q = np.zeros((6, 6))
        q[np.ix_(vis, vis)] = q_vv
        logdet_p_hh, q_vh, q_hh = impute_view(inverse, partition(q, hid))
        # independent evaluation with explicit inverses
        m_vv, m_vh, m_hh = m[np.ix_(vis, vis)], m[np.ix_(vis, hid)], m[np.ix_(hid, hid)]
        mvv_inv = np.linalg.inv(m_vv)
        exp_vh = q_vv @ mvv_inv @ m_vh
        schur = m_hh - m_vh.T @ mvv_inv @ m_vh
        exp_hh = schur + m_vh.T @ mvv_inv @ q_vv @ mvv_inv @ m_vh
        exp_hh = (exp_hh + exp_hh.T) / 2
        worst = max(worst, float(np.max(np.abs(q_vh - exp_vh))),
                    float(np.max(np.abs(q_hh - exp_hh))),
                    abs(logdet_p_hh + np.linalg.slogdet(schur)[1]))  # P_hh = schur^{-1}
    check(3, "imputation oracle equivalence", worst < 1e-10, f"max abs diff {worst:.3e}")


def _pca_objective(s, w, sigma2):
    return objective([s], PcaModel(W=w, sigma2=sigma2))


def test_criterion_4_ppca_closed_form_optimality():
    rng = np.random.default_rng(404)
    ell = 12
    ok = True
    detail = ""
    for inst in range(20):
        s = random_pd(rng, ell)
        scale = math.sqrt(np.trace(s) / ell)
        for q in (1, 2, 4):
            model = pca_model_update(s, q)
            j_star = _pca_objective(s, model.W, model.sigma2)
            for _ in range(200):
                w = scale * rng.standard_normal((ell, q))
                sigma2 = float(rng.uniform(0.01, 2.0)) * np.trace(s) / ell
                if j_star > _pca_objective(s, w, sigma2) + 1e-6:
                    ok = False
                    detail = f"random candidate beat closed form (inst {inst}, q={q})"
            # finite-difference descent refinement from the closed form
            def fun(x, q=q):
                w = x[:-1].reshape(ell, q)
                return _pca_objective(s, w, max(x[-1], 1e-9))

            x0 = np.concatenate([model.W.ravel(), [model.sigma2]])
            res = scipy.optimize.minimize(
                fun, x0, method="L-BFGS-B",
                bounds=[(None, None)] * (ell * q) + [(1e-9, None)],
            )
            if j_star - res.fun > 1e-6:
                ok = False
                detail = f"FD refinement improved by {j_star - res.fun:.2e} (inst {inst}, q={q})"
    check(4, "PPCA closed-form optimality", ok, detail)


def _fa_q_function(s, s_xz, s_zz, w, psi_inv):
    """Expected complete-data log-likelihood with expectations held fixed."""
    ell = s.shape[0]
    cross = float(np.sum((w * psi_inv[:, None]) * s_xz))
    quad = float(np.trace(s_zz @ (w.T @ (w * psi_inv[:, None]))))
    data = float(np.sum(np.diag(s) * psi_inv))
    return (
        cross - 0.5 * quad - 0.5 * data
        + 0.5 * float(np.sum(np.log(psi_inv)))
        - 0.5 * ell * math.log(2 * math.pi)
    )


def test_criterion_5_fa_stationarity():
    rng = np.random.default_rng(505)
    ell, q = 10, 2
    worst = 0.0
    for _ in range(20):
        s = random_pd(rng, ell)
        prev = FaModel(
            W=rng.standard_normal((ell, q)),
            psi=rng.uniform(0.5, 2.0, size=ell),
        )
        s_xz, s_zz = fa_estep(s, prev.W, prev.psi)
        new = fa_model_update(s, prev)
        w1, u1 = new.W, 1.0 / new.psi
        q_val = _fa_q_function(s, s_xz, s_zz, w1, u1)
        scale = 1e-5 * (1.0 + abs(q_val))

        grad_max = 0.0
        h = 1e-6
        for i in range(ell):
            for j in range(q):
                wp, wm = w1.copy(), w1.copy()
                wp[i, j] += h
                wm[i, j] -= h
                g = (_fa_q_function(s, s_xz, s_zz, wp, u1)
                     - _fa_q_function(s, s_xz, s_zz, wm, u1)) / (2 * h)
                grad_max = max(grad_max, abs(g))
        for i in range(ell):
            up, um = u1.copy(), u1.copy()
            up[i] += h
            um[i] -= h
            g = (_fa_q_function(s, s_xz, s_zz, w1, up)
                 - _fa_q_function(s, s_xz, s_zz, w1, um)) / (2 * h)
            grad_max = max(grad_max, abs(g))
        worst = max(worst, grad_max / scale)
    check(5, "FA M-step stationarity", worst <= 1.0, f"worst grad/scale ratio {worst:.3e}")


def test_criterion_6_fa_fixed_point():
    s = np.diag([2.0, 0.7, 5.0, 1.3])
    prev = FaModel(W=np.zeros((4, 2)), psi=np.diag(s).copy())
    new = fa_model_update(s, prev)
    ok = (np.max(np.abs(new.W)) <= 1e-14
          and np.max(np.abs(new.psi - np.diag(s))) <= 1e-14)
    check(6, "FA fixed-point identity", ok)


def test_criterion_7_recovery_beats_baseline():
    wins = 0
    ratios = []
    for seed in range(10):
        spec = SyntheticSpec(
            ell=40, n_views=4, true_rank=3, noise_sigma2=0.1,
            per_view_jitter=0.05, seed=seed,
        )
        cfg = CompletionConfig(method="pca", rank=3)
        rep = compare_methods(spec, 0.2, ["pca"], cfg, seed=seed)["pca"]
        ratio = rep.mean_relative_error / rep.baseline_errors["zero"]
        ratios.append(ratio)
        if rep.mean_relative_error <= 0.5 * rep.baseline_errors["zero"]:
            wins += 1
    check(
        7, "recovery beats zero baseline",
        wins >= 8, f"{wins}/10 seeds, error ratios {[f'{r:.3f}' for r in ratios]}",
    )


def test_criterion_8_idempotence():
    rng = np.random.default_rng(808)
    qs = [random_pd(rng, 9) for _ in range(3)]
    from mkmc.views import VisibilityPattern

    pattern = VisibilityPattern(ell=9, hidden=((), (), ()))
    ok = True
    detail = ""
    for method in ("fc", "pca", "fa"):
        cfg = CompletionConfig(method=method, rank=2, reg_epsilon=0.0)
        result = run_completion(qs, pattern, cfg)
        drift = max(np.max(np.abs(c - q)) for c, q in zip(result.completed, qs))
        limit = 0.0 if method == "fc" else 1e-12
        if drift > limit or not result.converged or result.iterations > 2:
            ok = False
            detail = f"{method}: drift {drift:.1e}, iters {result.iterations}"
    check(8, "idempotence with nothing hidden", ok, detail)


def test_criterion_9_degrees_of_freedom():
    ok = (degrees_of_freedom("fc", 4) == 10
          and degrees_of_freedom("pca", 4, 2) == 8
          and degrees_of_freedom("fa", 4, 2) == 11)
    for ell in range(2, 21):
        if degrees_of_freedom("fc", ell) != (ell + 1) * ell // 2:
            ok = False
        for q in range(1, ell):
            if degrees_of_freedom("pca", ell, q) != ell * q + 1 - (q - 1) * q // 2:
                ok = False
            if degrees_of_freedom("fa", ell, q) != ell * q + ell - (q - 1) * q // 2:
                ok = False
    check(9, "degrees-of-freedom formulas", ok)


def test_criterion_10_rank_criteria():
    # (spectrum, expected GK, expected Kaiser) with hand-computed counts
    cases = [
        ([3.0, 1.0, 0.5, 0.5], 1, 1),
        ([5.0, 2.0, 0.1], 1, 2),
        ([1.0, 1.0, 1.0], 1, 1),          # all equal: raw 0, clamped to 1
        ([2.0, 2.0, 2.0, 2.0], 1, 4 - 1),  # Kaiser raw 4 clamped to ell-1
        ([10.0, 1.0, 1.0, 1.0, 1.0], 1, 1),
        ([4.0, 3.0, 2.0, 1.0], 2, 3),
        ([0.9, 0.8, 0.1], 2, 1),           # Kaiser raw 0 clamped to 1
        ([6.0, 5.0, 4.0, 0.1, 0.1], 3, 3),
        ([1.5, 1.4, 1.3, 1.2, 1.1], 2, 4),
        ([100.0, 0.01], 1, 1),
    ]
    ok = True
    detail = ""
    for spectrum, exp_gk, exp_k in cases:
        s = np.diag(spectrum)
        got_gk, got_k = select_rank(s, "gk"), select_rank(s, "kaiser")
        if (got_gk, got_k) != (exp_gk, exp_k):
            ok = False
            detail = f"spectrum {spectrum}: got ({got_gk},{got_k}), want ({exp_gk},{exp_k})"
    check(10, "rank criteria hand counts", ok, detail)


def test_criterion_11_cli_pipeline_equivalence(tmp_path):
    spec = SyntheticSpec(
        ell=15, n_views=3, true_rank=2, noise_sigma2=0.2,
        per_view_jitter=0.05, seed=33,
    )
    cfg = CompletionConfig(method="pca", rank=2)
    lib_report = compare_methods(spec, 0.2, ["pca"], cfg, seed=9)["pca"]

    runner = CliRunner()
    truths = generate_synthetic(spec)
    truth_paths = []
    for k, t in enumerate(truths):
        p = tmp_path / f"view_{k}.csv"
        matrixio.write_csv_matrix(p, t)
        truth_paths.append(str(p))

    masked_dir = tmp_path / "masked"
    res = runner.invoke(
        cli_main,
        ["mask", "--fraction", "0.2", "--seed", "9", "--out-dir", str(masked_dir),
         *truth_paths],
    )
    assert res.exit_code == 0, res.output

    completed_dir = tmp_path / "completed"
    masked_paths = [str(masked_dir / Path(p).name) for p in truth_paths]
    res = runner.invoke(
        cli_main,
        ["complete", "--method", "pca", "--rank", "2",
         "--mask", str(masked_dir / "mask.json"),
         "--output-dir", str(completed_dir), *masked_paths],
    )
    assert res.exit_code == 0, res.output

    report_path = tmp_path / "report.json"
    res = runner.invoke(
        cli_main,
        ["evaluate", "--mask", str(masked_dir / "mask.json"),
         "--trace", str(completed_dir / "trace.json"),
         "--name", "pca", "--out", str(report_path),
         *[a for p in truth_paths for a in ("--truth", p)],
         *[a for p in truth_paths for a in ("--completed", str(completed_dir / Path(p).name))]],
    )
    assert res.exit_code == 0, res.output

    cli_obj = json.loads(report_path.read_text())["methods"]["pca"]
    lib_obj = lib_report.to_json_dict()
    equal = cli_obj == lib_obj

    # file formats round-trip losslessly
    rng = np.random.default_rng(1111)
    a = rng.standard_normal((7, 7))
    a = (a + a.T) / 2
    matrixio.write_csv_matrix(tmp_path / "rt.csv", a)
    matrixio.write_binary_matrix(tmp_path / "rt.mkm", a)
    round_trip = (np.array_equal(matrixio.read_matrix(tmp_path / "rt.csv"), a)
                  and np.array_equal(matrixio.read_matrix(tmp_path / "rt.mkm"), a))

    check(11, "CLI pipeline equivalence", equal and round_trip,
          "" if equal else "CLI report differs from library report")
