import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mkmc import linalg, matrixio
from mkmc.cli import main
from mkmc.engines import CompletionConfig, run_completion
from mkmc.errors import NotPositiveDefiniteError
from mkmc.linalg import cholesky_lower
from mkmc.recovery import SyntheticSpec, generate_synthetic
from mkmc.views import Fill, apply_mask, random_mask

from conftest import random_pd
from oracles import criterion_rank


@pytest.fixture
def runner():
    return CliRunner()


def write_views(tmp_path, qs, stem="view"):
    paths = []
    for k, q in enumerate(qs):
        p = tmp_path / f"{stem}_{k}.csv"
        matrixio.write_csv_matrix(p, q)
        paths.append(str(p))
    return paths


@pytest.fixture
def synthetic_inputs(tmp_path):
    spec = SyntheticSpec(
        ell=12, n_views=3, true_rank=2, noise_sigma2=0.2, per_view_jitter=0.05, seed=21
    )
    return write_views(tmp_path, generate_synthetic(spec))


@pytest.fixture
def mask_file(tmp_path):
    """Mask for the three synthetic views: the first two hide object 0, the third sees it."""
    path = tmp_path / "mask.json"
    path.write_text(json.dumps({"ell": 12, "views": [{"hidden": [0]}] * 2 + [{"hidden": []}]}))
    return path


def same_name_inputs(tmp_path, synthetic_inputs, name):
    """The synthetic views copied so that the first two share the file name ``name``."""
    paths = []
    for k, p in enumerate(synthetic_inputs):
        path = tmp_path / f"dir_{k}" / (name if k < 2 else Path(p).name)
        path.parent.mkdir()
        path.write_bytes(Path(p).read_bytes())
        paths.append(str(path))
    return paths


class TestMaskCommand:
    def test_fraction_zero_outputs_identical(self, runner, tmp_path, synthetic_inputs):
        out = tmp_path / "masked"
        res = runner.invoke(
            main, ["mask", "--fraction", "0", "--out-dir", str(out), *synthetic_inputs]
        )
        assert res.exit_code == 0, res.output
        pat = matrixio.read_mask(out / "mask.json")
        assert pat.hidden == ((), (), ())
        for p in synthetic_inputs:
            assert Path(p).read_bytes() == (out / Path(p).name).read_bytes()

    def test_deterministic_outputs(self, runner, tmp_path, synthetic_inputs):
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        for out in (out1, out2):
            res = runner.invoke(
                main,
                ["mask", "--fraction", "0.2", "--seed", "7", "--out-dir", str(out),
                 *synthetic_inputs],
            )
            assert res.exit_code == 0, res.output
        for name in ["mask.json"] + [Path(p).name for p in synthetic_inputs]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_non_square_input_exits_3(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        matrixio.write_csv_matrix(bad, np.zeros((2, 3)))
        res = runner.invoke(
            main, ["mask", "--fraction", "0.1", "--out-dir", str(tmp_path / "o"), str(bad)]
        )
        assert res.exit_code == 3
        assert res.output.strip().splitlines() == [
            "mkmc: error: expected a square matrix, got shape (2, 3)"
        ]

    def test_square_check_comes_before_size_check(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        matrixio.write_csv_matrix(bad, np.zeros((2, 3)))
        inputs = write_views(tmp_path, [np.eye(3)]) + [str(bad)]
        res = runner.invoke(
            main, ["mask", "--fraction", "0.1", "--out-dir", str(tmp_path / "o"), *inputs]
        )
        assert res.exit_code == 3
        assert res.output.strip().splitlines() == [
            "mkmc: error: expected a square matrix, got shape (2, 3)"
        ]

    @pytest.mark.parametrize("fraction, code", [("1.5", 2), ("-0.1", 2), ("0.95", 3)])
    def test_bad_fraction_exits_2_or_3(self, runner, tmp_path, synthetic_inputs, fraction, code):
        res = runner.invoke(
            main, ["mask", "--fraction", fraction, "--out-dir", str(tmp_path / "o"),
                   *synthetic_inputs],
        )
        assert res.exit_code == code
        assert len(res.output.strip().splitlines()) == 1
        assert res.output.startswith("mkmc: error: ")

    @pytest.mark.parametrize("option", [["--fill", "zero"], ["--correlated"]])
    def test_fill_and_correlated_options_removed(self, runner, tmp_path, synthetic_inputs, option):
        res = runner.invoke(main, ["mask", "--fraction", "0.2", *option, "--out-dir",
                                   str(tmp_path / "o"), *synthetic_inputs])
        assert res.exit_code == 2 and "No such option" in res.output
        assert not (tmp_path / "o").exists()

    def test_mask_that_hides_an_object_in_every_view_is_never_drawn(self, runner, tmp_path,
                                                                    synthetic_inputs):
        # one view: every draw that hides anything hides it in every view
        res = runner.invoke(main, ["mask", "--fraction", "0.2", "--seed", "3", "--out-dir",
                                   str(tmp_path / "o"), synthetic_inputs[0]])
        assert res.exit_code == 3
        assert res.output.strip().splitlines() == [
            "mkmc: error: no mask drawn from seeds 3 to 66 leaves every object visible in some "
            "view (ell=12, 1 views, fraction 0.2)"]
        assert not (tmp_path / "o").exists()

    def test_negative_seed_exits_2(self, runner, tmp_path, synthetic_inputs):
        res = runner.invoke(
            main, ["mask", "--fraction", "0.2", "--seed", "-1", "--out-dir", str(tmp_path / "o"),
                   *synthetic_inputs],
        )
        assert res.exit_code == 2
        assert res.output.strip().splitlines() == ["mkmc: error: seed must be >= 0, got -1"]

    @pytest.mark.parametrize("delta, relative, code", [(100.0, False, 4), (1e-15, True, 0)])
    def test_asymmetric_input(self, runner, tmp_path, synthetic_inputs, delta, relative, code):
        q = matrixio.read_matrix(synthetic_inputs[0])
        q[0, 1] += delta * (np.abs(q).max() if relative else 1.0)
        assert q[0, 1] != q[1, 0]
        bad = tmp_path / "asym.csv"
        matrixio.write_csv_matrix(bad, q)
        # beside two other views: no draw of a single view hiding objects is valid
        res = runner.invoke(main, ["mask", "--fraction", "0.2", "--out-dir", str(tmp_path / "o"),
                                   str(bad), *synthetic_inputs[1:]])
        assert res.exit_code == code, res.output
        if code:
            assert res.output.strip().splitlines() == [
                f"mkmc: error: {bad}: not symmetric, max |A - A^T| = 100"
            ]
        else:  # the masked copy is the symmetric part, bit for bit
            hidden = matrixio.read_mask(tmp_path / "o" / "mask.json").hidden[0]
            expected = apply_mask(linalg.symmetrize(q), hidden, Fill.ZERO)
            assert matrixio.read_matrix(tmp_path / "o" / "asym.csv").tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["v.csv", "mask.json"])
    def test_output_name_collision_exits_2(self, runner, tmp_path, synthetic_inputs, name):
        out = tmp_path / "o"
        res = runner.invoke(main, ["mask", "--fraction", "0.2", "--out-dir", str(out),
                                   *same_name_inputs(tmp_path, synthetic_inputs, name)])
        assert res.exit_code == 2
        assert res.output.strip().splitlines() == [
            f"mkmc: error: two outputs would be written to {out / name}"
        ]
        assert not out.exists()

    def test_output_over_an_input_exits_2(self, runner, tmp_path, synthetic_inputs, monkeypatch):
        monkeypatch.chdir(tmp_path)
        names = [Path(p).name for p in synthetic_inputs]
        before = [Path(p).read_bytes() for p in synthetic_inputs]
        res = runner.invoke(main, ["mask", "--fraction", "0.25", "--seed", "1", "--out-dir", ".",
                                   *names])
        assert res.exit_code == 2
        assert res.output.strip().splitlines() == [
            f"mkmc: error: {names[0]} would overwrite the input {names[0]}"
        ]
        assert [Path(p).read_bytes() for p in synthetic_inputs] == before
        assert not (tmp_path / "mask.json").exists()

    def test_unreadable_input_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a\nmatrix,at,all\n")
        res = runner.invoke(
            main, ["mask", "--fraction", "0.1", "--out-dir", str(tmp_path / "o"), str(bad)]
        )
        assert res.exit_code == 2


class TestCompleteCommand:
    def test_no_hidden_reg_disabled_identity(self, runner, tmp_path, synthetic_inputs):
        masked = tmp_path / "masked"
        runner.invoke(
            main, ["mask", "--fraction", "0", "--out-dir", str(masked), *synthetic_inputs]
        )
        out = tmp_path / "completed"
        res = runner.invoke(
            main,
            ["complete", "--method", "fc", "--reg-epsilon", "0",
             "--mask", str(masked / "mask.json"), "--output-dir", str(out),
             *[str(masked / Path(p).name) for p in synthetic_inputs]],
        )
        assert res.exit_code == 0, res.output
        for p in synthetic_inputs:
            assert Path(p).read_bytes() == (out / Path(p).name).read_bytes()
        trace = json.loads((out / "trace.json").read_text())
        assert trace["converged"] is True
        assert trace["iterations"] <= 2

    def test_rank_criterion_matches_library(self, runner, tmp_path, synthetic_inputs):
        masked_dir = tmp_path / "masked"
        runner.invoke(
            main,
            ["mask", "--fraction", "0.2", "--seed", "3", "--out-dir", str(masked_dir),
             *synthetic_inputs],
        )
        out = tmp_path / "completed"
        masked_paths = [str(masked_dir / Path(p).name) for p in synthetic_inputs]
        res = runner.invoke(
            main,
            ["complete", "--method", "pca", "--rank-criterion", "gk",
             "--mask", str(masked_dir / "mask.json"), "--output-dir", str(out),
             *masked_paths],
        )
        assert res.exit_code == 0, res.output
        trace = json.loads((out / "trace.json").read_text())
        assert np.all(np.diff(trace["objective"]) <= 1e-8)

        pat = matrixio.read_mask(masked_dir / "mask.json")
        mats = [matrixio.read_matrix(p) for p in masked_paths]
        assert trace["rank"] == criterion_rank(mats, pat, "gk")

    def test_fa_dof_in_trace(self, runner, tmp_path, synthetic_inputs):
        masked_dir = tmp_path / "masked"
        runner.invoke(
            main,
            ["mask", "--fraction", "0.2", "--seed", "5", "--out-dir", str(masked_dir),
             *synthetic_inputs],
        )
        out = tmp_path / "completed"
        res = runner.invoke(
            main,
            ["complete", "--method", "fa", "--rank", "3",
             "--mask", str(masked_dir / "mask.json"), "--output-dir", str(out),
             *[str(masked_dir / Path(p).name) for p in synthetic_inputs]],
        )
        assert res.exit_code == 0, res.output
        trace = json.loads((out / "trace.json").read_text())
        ell = 12
        assert trace["dof"] == ell * 3 + ell - 3
        assert trace["rank"] == 3
        assert isinstance(trace["converged"], bool)
        assert trace["stop"] in ("tol", "max_iters") and trace["converged"] == (
            trace["stop"] == "tol")
        entries = trace["iterations"] - trace["rejected"]
        for key in ("objective", "iter_ms", "residual", "step_length"):
            assert len(trace[key]) == entries, key
        # iteration 1 is a plain step from the start model, so it has a residual too
        assert trace["residual"][0] > 0 and trace["step_length"][:3] == [None] * 3

    def test_setup_ms_in_trace_and_evaluate_reads_it(self, runner, tmp_path, synthetic_inputs):
        masked_dir = tmp_path / "masked"
        runner.invoke(
            main,
            ["mask", "--fraction", "0.2", "--seed", "5", "--out-dir", str(masked_dir),
             *synthetic_inputs],
        )
        out = tmp_path / "completed"
        completed = [str(out / Path(p).name) for p in synthetic_inputs]
        res = runner.invoke(
            main,
            ["complete", "--method", "pca", "--rank", "2",
             "--mask", str(masked_dir / "mask.json"), "--output-dir", str(out),
             *[str(masked_dir / Path(p).name) for p in synthetic_inputs]],
        )
        assert res.exit_code == 0, res.output
        trace = json.loads((out / "trace.json").read_text())
        assert type(trace["setup_ms"]) is float and 0 <= trace["setup_ms"] < float("inf")
        report = tmp_path / "report.json"
        res = runner.invoke(
            main,
            ["evaluate", "--mask", str(masked_dir / "mask.json"), "--trace", str(out / "trace.json"),
             "--out", str(report), *[a for p in synthetic_inputs for a in ("--truth", p)],
             *[a for p in completed for a in ("--completed", p)]],
        )
        assert res.exit_code == 0, res.output
        obj = json.loads(report.read_text())["methods"]["method"]
        assert obj["objective_trace"] == trace["objective"]
        assert obj["iterations"] == trace["iterations"]

    def test_tolerated_asymmetry_reads_as_the_symmetric_part(self, runner, tmp_path,
                                                             synthetic_inputs):
        """An input moved off symmetry by 1e-12 max|A|, which is tolerated, gives byte for
        byte the completions and the report of its exact symmetric part: ``complete`` and
        ``evaluate`` read each input's symmetric part. The masked view is moved in its
        visible block, the truth and the completion in a hidden row, which is scored."""
        masked_dir = tmp_path / "masked"
        runner.invoke(main, ["mask", "--fraction", "0.2", "--seed", "5", "--out-dir",
                             str(masked_dir), *synthetic_inputs])
        mask = str(masked_dir / "mask.json")
        hidden = matrixio.read_mask(mask).hidden[0]
        vis = [i for i in range(12) if i not in hidden]
        names = [Path(p).name for p in synthetic_inputs]

        def moved(path, case, entry):
            q = matrixio.read_matrix(path)
            q[entry] += 1e-12 * np.abs(q).max()
            dest = tmp_path / case / f"moved-{Path(path).parent.name}" / Path(path).name
            dest.parent.mkdir(parents=True, exist_ok=True)
            matrixio.write_csv_matrix(dest, q if case == "asym" else linalg.symmetrize(q))
            back = matrixio.read_matrix(dest)
            assert (back[entry] != back.T[entry]) == (case == "asym")
            return str(dest)

        results = {}
        for case in ("asym", "sym"):
            out = tmp_path / case / "completed"
            masked = [moved(masked_dir / names[0], case, (vis[0], vis[1])),
                      *(str(masked_dir / n) for n in names[1:])]
            res = runner.invoke(main, ["complete", "--method", "pca", "--rank-criterion", "gk",
                                       "--mask", mask, "--output-dir", str(out), *masked])
            assert res.exit_code == 0, res.output
            truths = [moved(synthetic_inputs[0], case, (hidden[0], vis[0])),
                      *synthetic_inputs[1:]]
            completed = [moved(out / names[0], case, (hidden[0], vis[0])),
                         *(str(out / n) for n in names[1:])]
            report = tmp_path / case / "report.json"
            res = runner.invoke(main, ["evaluate", "--mask", mask,
                                       "--trace", str(out / "trace.json"), "--out", str(report),
                                       *[a for p in truths for a in ("--truth", p)],
                                       *[a for p in completed for a in ("--completed", p)]])
            assert res.exit_code == 0, res.output
            results[case] = [(out / n).read_bytes() for n in names] + [report.read_bytes()]
        assert results["asym"] == results["sym"]

    def test_max_iters_hit_is_not_an_error(self, runner, tmp_path, synthetic_inputs):
        masked_dir = tmp_path / "masked"
        runner.invoke(
            main,
            ["mask", "--fraction", "0.2", "--seed", "2", "--out-dir", str(masked_dir),
             *synthetic_inputs],
        )
        out = tmp_path / "completed"
        res = runner.invoke(
            main,
            ["complete", "--method", "fc", "--max-iters", "2",
             "--mask", str(masked_dir / "mask.json"), "--output-dir", str(out),
             *[str(masked_dir / Path(p).name) for p in synthetic_inputs]],
        )
        assert res.exit_code == 0, res.output
        trace = json.loads((out / "trace.json").read_text())
        assert trace["converged"] is False
        assert trace["iterations"] == 2

    def test_non_pd_visible_block_exits_4(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        matrixio.write_csv_matrix(bad, np.diag([1.0, -1.0, 1.0]))
        good = tmp_path / "good.csv"
        matrixio.write_csv_matrix(good, np.eye(3))
        mask = tmp_path / "mask.json"  # the second view sees object 2
        mask.write_text('{"ell": 3, "views": [{"hidden": [2]}, {"hidden": []}]}')
        res = runner.invoke(
            main,
            ["complete", "--method", "fc", "--mask", str(mask),
             "--output-dir", str(tmp_path / "o"), str(bad), str(good)],
        )
        assert res.exit_code == 4

    def test_non_finite_visible_block_exits_4(self, runner, tmp_path, rng):
        q = random_pd(rng, 4)
        q[0, 1] = q[1, 0] = np.nan
        bad = tmp_path / "bad.csv"
        matrixio.write_csv_matrix(bad, q)
        good = tmp_path / "good.csv"
        matrixio.write_csv_matrix(good, random_pd(rng, 4))
        mask = tmp_path / "mask.json"  # the second view sees object 3
        mask.write_text('{"ell": 4, "views": [{"hidden": [3]}, {"hidden": []}]}')
        res = runner.invoke(
            main,
            ["complete", "--method", "fc", "--mask", str(mask),
             "--output-dir", str(tmp_path / "o"), str(bad), str(good)],
        )
        assert res.exit_code == 4
        assert res.output.strip().splitlines() == [
            "mkmc: error: view 0: visible block is not positive definite"
        ]

    def test_rank_out_of_range_exits_3(self, runner, tmp_path, synthetic_inputs):
        masked_dir = tmp_path / "masked"
        runner.invoke(
            main,
            ["mask", "--fraction", "0.2", "--seed", "1", "--out-dir", str(masked_dir),
             *synthetic_inputs],
        )
        res = runner.invoke(
            main,
            ["complete", "--method", "pca", "--rank", "50",
             "--mask", str(masked_dir / "mask.json"), "--output-dir", str(tmp_path / "o"),
             *[str(masked_dir / Path(p).name) for p in synthetic_inputs]],
        )
        assert res.exit_code == 3
        assert res.output.strip().splitlines() == ["mkmc: error: rank q=50 out of range [1, 11]"]

    @pytest.mark.parametrize("rank", ["0", "12"])
    def test_fc_rank_out_of_range_exits_3(self, runner, tmp_path, synthetic_inputs, mask_file,
                                          rank):
        res = runner.invoke(
            main,
            ["complete", "--method", "fc", "--rank", rank, "--mask", str(mask_file),
             "--output-dir", str(tmp_path / "o"), *synthetic_inputs],
        )
        assert res.exit_code == 3
        assert res.output.strip().splitlines() == [
            f"mkmc: error: rank q={rank} out of range [1, 11]"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("method", ["fc", "pca", "fa"])
    def test_single_object_exits_3(self, runner, tmp_path, method):
        """At ell = 1 nothing can be hidden, and no rank fits [1, ell - 1] for the start."""
        inputs = write_views(tmp_path, [np.array([[2.0]])])
        mask = tmp_path / "mask.json"
        mask.write_text(json.dumps({"ell": 1, "views": [{"hidden": []}]}))
        res = runner.invoke(main, ["complete", "--method", method, "--mask", str(mask),
                                   "--output-dir", str(tmp_path / "o"), *inputs])
        assert res.exit_code == 3
        assert res.output.strip().splitlines() == ["mkmc: error: rank q=1 out of range [1, 0]"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [
        '{"ell": "abc", "views": [{"hidden": [1]}]}',
        '{"ell": 1e400, "views": [{"hidden": [1]}]}',
        '{"ell": 12, "views": [{"hidden": [1.5]}]}',
        '{"ell": 12, "views": [{"hidden": [true]}]}',
        '{"ell": 6.7, "views": [{"hidden": [1]}]}',
        '{"ell": "6", "views": [{"hidden": [1]}]}',
        '{"ell": 12, "views": [{"hidden": "12"}]}',
        "[" * 100_000 + "]" * 100_000,
    ], ids=["ell-string", "ell-overflow", "hidden-fraction", "hidden-bool", "ell-fraction",
            "ell-digit-string", "hidden-string", "deep"])
    def test_malformed_mask_exits_2(self, runner, tmp_path, synthetic_inputs, text):
        mask = tmp_path / "mask.json"
        mask.write_text(text)
        res = runner.invoke(
            main,
            ["complete", "--mask", str(mask), "--output-dir", str(tmp_path / "o"),
             *synthetic_inputs],
        )
        assert res.exit_code == 2
        assert len(res.output.strip().splitlines()) == 1
        assert res.output.startswith(f"mkmc: error: {mask}: invalid mask file")

    def test_integral_float_mask_fields_read_as_integers(self, runner, tmp_path,
                                                         synthetic_inputs):
        mask = tmp_path / "mask.json"
        mask.write_text('{"ell": 12.0, "views": [{"hidden": [1.0]}, {"hidden": []}, '
                        '{"hidden": [2]}]}')
        assert matrixio.read_mask(mask).hidden == ((1,), (), (2,))
        res = runner.invoke(
            main,
            ["complete", "--mask", str(mask), "--output-dir", str(tmp_path / "o"),
             *synthetic_inputs],
        )
        assert res.exit_code == 0, res.output

    def test_mask_index_out_of_range_exits_3(self, runner, tmp_path, synthetic_inputs):
        mask = tmp_path / "mask.json"
        mask.write_text('{"ell": 12, "views": [{"hidden": [12]}]}')
        res = runner.invoke(
            main,
            ["complete", "--mask", str(mask), "--output-dir", str(tmp_path / "o"),
             *synthetic_inputs],
        )
        assert res.exit_code == 3

    @pytest.mark.parametrize("method", ["fc", "pca", "fa"])
    @pytest.mark.parametrize("eps", ["0", "1e-3"])
    def test_object_hidden_in_every_view_exits_3(self, runner, tmp_path, synthetic_inputs,
                                                 method, eps):
        mask = tmp_path / "mask.json"
        mask.write_text('{"ell": 12, "views": [{"hidden": [3]}, {"hidden": [3, 5]}, '
                        '{"hidden": [7, 3]}]}')
        out = tmp_path / "o"
        res = runner.invoke(main, ["complete", "--method", method, "--rank", "2",
                                   "--reg-epsilon", eps, "--mask", str(mask),
                                   "--output-dir", str(out), *synthetic_inputs])
        assert res.exit_code == 3
        assert res.output.strip().splitlines() == [
            "mkmc: error: objects [3] are hidden in every view"]
        assert not out.exists()

    def test_seed_option_removed(self, runner):
        res = runner.invoke(main, ["complete", "--seed", "1"])
        assert res.exit_code == 2
        assert "No such option" in res.output and "--seed" in res.output

    def test_config_file_overrides_flags(self, runner, tmp_path, synthetic_inputs):
        masked_dir = tmp_path / "masked"
        runner.invoke(
            main,
            ["mask", "--fraction", "0.2", "--seed", "1", "--out-dir", str(masked_dir),
             *synthetic_inputs],
        )
        out = tmp_path / "out"
        cfg = {
            "method": "pca",
            "rank": 2,
            "inputs": [str(masked_dir / Path(p).name) for p in synthetic_inputs],
            "mask": str(masked_dir / "mask.json"),
            "output_dir": str(out),
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        # flags say fc, config wins
        res = runner.invoke(main, ["complete", "--method", "fc", "--config", str(cfg_path)])
        assert res.exit_code == 0, res.output
        trace = json.loads((out / "trace.json").read_text())
        assert trace["rank"] == 2

    def test_numerical_error_exits_5(self, runner, tmp_path, synthetic_inputs, monkeypatch):
        masked_dir = tmp_path / "masked"
        runner.invoke(
            main,
            ["mask", "--fraction", "0.2", "--seed", "4", "--out-dir", str(masked_dir),
             *synthetic_inputs],
        )

        # At rank 2 the set-up factors the start's 2 x 2 capacitance matrix, then iteration 1
        # each view's 2 x 2 C_v: fail each 2 x 2 after the start's
        twos = []

        def singular(a):
            if a.shape[0] == 2:
                twos.append(a)
                if len(twos) > 1:
                    raise NotPositiveDefiniteError("matrix of dim 2 is not positive definite")
            return cholesky_lower(a)

        monkeypatch.setattr(linalg, "cholesky_lower", singular)
        res = runner.invoke(
            main,
            ["complete", "--method", "fc", "--rank", "2", "--mask", str(masked_dir / "mask.json"),
             "--output-dir", str(tmp_path / "out"),
             *[str(masked_dir / Path(p).name) for p in synthetic_inputs]],
        )
        assert res.exit_code == 5
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert res.output.strip().splitlines() == [
            "mkmc: error: iteration 1: view 0: hidden block of the model inverse is numerically "
            "singular: matrix of dim 2 is not positive definite"
        ]

    @pytest.mark.parametrize("config", [
        {"method": "fc", "bogus": True},
        {"method": "svd"},
        {"rank": {}},
        {"tol": "1e-8"},
        {"mask": 5},
        {"rank": True},
        {"max_iters": 0},
        {"max_iters": 1e400},
        {"max_iters": 2.5},
        {"rank": "2"},
        "[" * 100_000 + "]" * 100_000,
    ], ids=["unknown-key", "bad-method", "rank-empty-object", "tol-string", "mask-not-string",
            "rank-bool", "max-iters-zero", "max-iters-overflow", "max-iters-fraction",
            "rank-string", "deep"])
    def test_invalid_config_exits_2(self, runner, tmp_path, config):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(config if isinstance(config, str) else json.dumps(config))
        res = runner.invoke(main, ["complete", "--config", str(cfg_path)])
        assert res.exit_code == 2
        assert len(res.output.strip().splitlines()) == 1
        assert res.output.startswith("mkmc: error: ")

    @pytest.mark.parametrize("flags", [["--max-iters", "0"], ["--tol", "0"],
                                       ["--reg-epsilon", "-1"]])
    def test_invalid_setting_flag_exits_2(self, runner, tmp_path, synthetic_inputs,
                                          mask_file, flags):
        res = runner.invoke(
            main, ["complete", *flags, "--mask", str(mask_file),
                   "--output-dir", str(tmp_path / "o"), *synthetic_inputs],
        )
        assert res.exit_code == 2
        assert len(res.output.strip().splitlines()) == 1
        assert res.output.startswith(f"mkmc: error: {flags[0][2:].replace('-', '_')} must be")

    def test_rank_and_rank_criterion_flags_exit_2(self, runner, tmp_path, synthetic_inputs,
                                                  mask_file):
        out = tmp_path / "o"
        res = runner.invoke(
            main, ["complete", "--method", "pca", "--rank", "2", "--rank-criterion", "gk",
                   "--mask", str(mask_file), "--output-dir", str(out), *synthetic_inputs],
        )
        assert res.exit_code == 2
        assert res.output == "mkmc: error: rank_criterion must be None when rank is set, got 'gk'\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, rank, expected", [
        (["--rank-criterion", "gk"], 4, 4),
        (["--rank", "4"], {"criterion": "gk"}, 2),  # gk picks 2 on these views
    ], ids=["integer-over-criterion-flag", "criterion-over-integer-flag"])
    def test_config_rank_overrides_either_rank_flag(self, runner, tmp_path, synthetic_inputs,
                                                    mask_file, flags, rank, expected):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"method": "pca", "rank": rank}))
        out = tmp_path / "o"
        res = runner.invoke(
            main, ["complete", *flags, "--config", str(cfg_path), "--mask", str(mask_file),
                   "--output-dir", str(out), *synthetic_inputs],
        )
        assert res.exit_code == 0, res.output
        assert json.loads((out / "trace.json").read_text())["rank"] == expected

    def test_defaults_are_the_config_defaults(self):
        defaults = {f.name: f.default for f in dataclasses.fields(CompletionConfig)}
        options = {p.name: p for p in main.commands["complete"].params}
        for name in ("method", "tol", "max_iters", "reg_epsilon", "rank", "rank_criterion"):
            assert options[name].default == defaults[name], name
        assert set(defaults) <= set(options)  # every setting has a flag

    @pytest.mark.parametrize("config, code", [
        ({"method": "pca", "rank": 0}, 3),
        ({"method": "pca", "rank": 2.0, "max_iters": 3.0}, 0),
    ], ids=["rank-zero", "integral-floats"])
    def test_config_values_checked_like_flags(self, runner, tmp_path, synthetic_inputs,
                                              mask_file, config, code):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({**config, "inputs": synthetic_inputs,
                                        "mask": str(mask_file), "output_dir": str(tmp_path / "o")}))
        res = runner.invoke(main, ["complete", "--config", str(cfg_path)])
        assert res.exit_code == code, res.output
        if code:
            assert res.output.strip().splitlines() == [
                "mkmc: error: rank q=0 out of range [1, 11]"
            ]
        else:
            trace = json.loads((tmp_path / "o" / "trace.json").read_text())
            assert trace["rank"] == 2 and trace["iterations"] == 3

    def test_fewer_matrices_than_views_exits_3(self, runner, tmp_path, synthetic_inputs,
                                               mask_file):
        res = runner.invoke(
            main, ["complete", "--mask", str(mask_file), "--output-dir", str(tmp_path / "o"),
                   *synthetic_inputs[:2]],
        )
        assert res.exit_code == 3
        assert res.output.strip().splitlines() == [
            "mkmc: error: 2 matrices but pattern has 3 views"
        ]

    @pytest.mark.parametrize("name", ["v.csv", "trace.json"])
    def test_output_name_collision_exits_2(self, runner, tmp_path, synthetic_inputs, mask_file,
                                           name):
        out = tmp_path / "o"
        res = runner.invoke(main, ["complete", "--mask", str(mask_file), "--output-dir", str(out),
                                   *same_name_inputs(tmp_path, synthetic_inputs, name)])
        assert res.exit_code == 2
        assert res.output.strip().splitlines() == [
            f"mkmc: error: two outputs would be written to {out / name}"
        ]
        assert not out.exists()

    def test_output_over_an_input_exits_2(self, runner, tmp_path, synthetic_inputs):
        masked = tmp_path / "masked"
        res = runner.invoke(main, ["mask", "--fraction", "0.25", "--out-dir", str(masked),
                                   *synthetic_inputs])
        assert res.exit_code == 0
        inputs = sorted(str(p) for p in masked.glob("*.csv"))
        before = [Path(p).read_bytes() for p in inputs]
        # the same directory, spelled through a sibling: only the resolved paths are equal
        out = f"{tmp_path / 'other' / '..' / 'masked'}/"
        res = runner.invoke(main, ["complete", "--mask", str(masked / "mask.json"),
                                   "--output-dir", out, *inputs])
        assert res.exit_code == 2
        assert res.output.strip().splitlines() == [
            f"mkmc: error: {Path(out) / Path(inputs[0]).name} would overwrite the input {inputs[0]}"
        ]
        assert [Path(p).read_bytes() for p in inputs] == before
        assert not (masked / "trace.json").exists()

    def test_output_over_the_mask_exits_2(self, runner, tmp_path, synthetic_inputs, mask_file):
        out = tmp_path / "o"
        out.mkdir()
        mask = out / "trace.json"
        mask.write_bytes(mask_file.read_bytes())
        res = runner.invoke(main, ["complete", "--mask", str(mask), "--output-dir", f"{out}/",
                                   *synthetic_inputs])
        assert res.exit_code == 2
        assert res.output.strip().splitlines() == [
            f"mkmc: error: {mask} would overwrite the input {mask}"
        ]
        assert mask.read_bytes() == mask_file.read_bytes()
        assert sorted(out.iterdir()) == [mask]

    def test_output_over_the_config_exits_2(self, runner, tmp_path, synthetic_inputs, mask_file):
        out = tmp_path / "o2"
        out.mkdir()
        config = out / "trace.json"
        config.write_text(json.dumps({"inputs": synthetic_inputs, "mask": str(mask_file),
                                      "output_dir": str(out)}))
        before = config.read_bytes()
        res = runner.invoke(main, ["complete", "--config", str(config)])
        assert res.exit_code == 2
        assert res.output.strip().splitlines() == [
            f"mkmc: error: {config} would overwrite the input {config}"
        ]
        assert config.read_bytes() == before
        assert sorted(out.iterdir()) == [config]

    @pytest.mark.parametrize("method", ["fc", "pca", "fa"])
    def test_outputs_equal_library_completion(self, runner, tmp_path, method):
        """CSV and binary outputs read back bit for bit as ``run_completion``'s matrices."""
        spec = SyntheticSpec(ell=40, n_views=3, true_rank=2, noise_sigma2=0.1,
                             per_view_jitter=0.05, seed=8)
        pattern = random_mask(ell=40, n_views=3, fraction=0.25, seed=8)
        masked = [apply_mask(t, h, Fill.ZERO)
                  for t, h in zip(generate_synthetic(spec), pattern.hidden)]
        inputs = [tmp_path / name for name in ("v0.csv", "v1.mkm", "v2.csv")]
        for path, mat in zip(inputs, masked):
            matrixio.write_matrix(path, mat)
        matrixio.write_mask(tmp_path / "mask.json", pattern)
        out = tmp_path / "o"
        res = runner.invoke(main, ["complete", "--method", method, "--rank", "2",
                                   "--max-iters", "20", "--mask", str(tmp_path / "mask.json"),
                                   "--output-dir", str(out), *map(str, inputs)])
        assert res.exit_code == 0, res.output
        cfg = CompletionConfig(method=method, rank=2, max_iters=20)
        library = run_completion(masked, pattern, cfg).completed
        assert (out / "v1.mkm").read_bytes()[:4] == matrixio.MAGIC
        for path, mat in zip(inputs, library):
            assert np.array_equal(matrixio.read_matrix(out / path.name), mat)


def write_file(tmp_path, name, data: bytes) -> str:
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def mask_args(d, *inputs):
    return ["mask", "--fraction", "0.2", "--out-dir", str(d / "o"), *inputs]


@pytest.mark.parametrize("command, code, message", [
    (lambda d, views, mask: ["complete", "--mask", mask, "--output-dir", str(d / "o"),
                             *views, str(d / "missing.csv")], 2, "No such file or directory"),
    (lambda d, views, mask: ["complete", "--mask", mask, "--output-dir", str(d / "o")], 2,
     "Error: no input matrices given"),
    (lambda d, views, mask: ["complete", "--output-dir", str(d / "o"), *views], 2,
     "Error: a mask file is required"),
    (lambda d, views, mask: ["complete", "--mask", mask, *views], 2,
     "Error: an output directory is required"),
    (lambda d, views, mask: mask_args(d, write_file(d, "short.bin", b"MKMC\x01\x02")), 2,
     "short.bin: truncated binary matrix header"),
    (lambda d, views, mask: mask_args(d, write_file(
        d, "v2.bin", struct.pack("<4sBIId", b"MKMC", 2, 1, 1, 1.0))), 2,
     "v2.bin: unsupported version 2"),
    (lambda d, views, mask: ["complete", "--config", write_file(d, "run.json", b"[1, 2]")], 2,
     "run.json: invalid run config: not a JSON object"),
    (lambda d, views, mask: mask_args(d, *views, write_file(d, "small.csv", b"1,0\n0,1\n")), 3,
     "small.csv: dimension 2 differs from 12"),
    (lambda d, views, mask: mask_args(d, str(d)), 2, "Is a directory"),
    (lambda d, views, mask: ["mask", "--fraction", "0.2", "--out-dir", views[0], *views[1:]], 2,
     "File exists"),
], ids=["missing-input", "no-inputs", "no-mask", "no-output-dir", "truncated-header",
        "binary-version-2", "config-list", "mask-sizes-differ", "mask-input-directory",
        "out-dir-is-file"])
def test_documented_exit_paths(runner, tmp_path, synthetic_inputs, mask_file, command, code,
                               message):
    res = runner.invoke(main, command(tmp_path, synthetic_inputs, str(mask_file)))
    assert res.exit_code == code
    assert isinstance(res.exception, SystemExit)
    lines = res.output.strip().splitlines()
    if message.startswith("Error: "):  # click's usage error
        assert lines[0].startswith("Usage: ") and lines[-1].startswith(message)
    else:
        assert len(lines) == 1 and lines[0].startswith("mkmc: error: ") and message in lines[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ["", "\n\n", "# a comment only\n"],
                         ids=["empty", "blank-lines", "comment-only"])
def test_csv_without_data_exits_2_with_one_line(tmp_path, text):
    """No numpy warning reaches stderr before the one error line (a real process, not CliRunner)."""
    (tmp_path / "empty.csv").write_text(text)
    (tmp_path / "m.json").write_text('{"ell": 1, "views": [{"hidden": []}]}')
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-m", "mkmc.cli", "complete", "--mask", "m.json", "--output-dir", "o",
         "empty.csv"], cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr.splitlines() == [
        "mkmc: error: empty.csv: cannot parse as CSV matrix: no data"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("level", ["basic_format", "_styles", "foo", "info"])
def test_mkmc_log_takes_only_level_names(tmp_path, synthetic_inputs, level):
    """Any value of MKMC_LOG that is not a level name means WARNING (a real process, for the
    logging set-up); the value "basic_format" names a string in ``logging``, "_styles" a dict."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-m", "mkmc.cli", "mask", "--fraction", "0.2", "--out-dir", "masked",
         *synthetic_inputs], cwd=tmp_path, env={**os.environ, "PYTHONPATH": src, "MKMC_LOG": level},
        capture_output=True, text=True)
    assert out.returncode == 0 and "Traceback" not in out.stderr
    assert ("wrote mask" in out.stderr) == (level == "info")


def run_fresh(code: str) -> str:
    """The standard output of ``code`` run by a new interpreter on this tree's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_leaves_jsonschema_unloaded():
    """Neither jsonschema, orjson (imported by the CSV reader and writer) nor scipy (imported by
    the ``linalg`` functions that call LAPACK or BLAS) loads with the CLI."""
    code = ("import sys, mkmc.cli; "
            "print('jsonschema' in sys.modules, 'orjson' in sys.modules, 'scipy' in sys.modules)")
    assert run_fresh(code) == "False False False"


def test_only_complete_loads_scipy(tmp_path, synthetic_inputs, mask_file):
    """``mask``, ``evaluate`` and ``--help`` run in a new process without loading scipy, and
    ``complete`` loads it when it factors and writes its completions. Those match, bit for bit,
    ``run_completion``'s in another new process with the same environment: this one may run
    BLAS at another thread count, if ``OPENBLAS_NUM_THREADS`` was set after numpy loaded."""
    masked, completed = tmp_path / "masked", tmp_path / "completed"
    commands = [
        ["mask", "--fraction", "0.2", "--out-dir", str(masked), *synthetic_inputs],
        ["evaluate", "--mask", str(mask_file), "--out", str(tmp_path / "report.json"),
         *[a for p in synthetic_inputs for a in ("--truth", p, "--completed", p)]],
        ["--help"],
        ["complete", "--mask", str(mask_file), "--output-dir", str(completed), *synthetic_inputs],
    ]
    code = f"""
import sys
from click.testing import CliRunner
from mkmc.cli import main
for args in {commands!r}:
    res = CliRunner().invoke(main, args)
    print(args[0], res.exit_code, 'scipy' in sys.modules)
"""
    assert run_fresh(code).splitlines() == [
        "mask 0 False", "evaluate 0 False", "--help 0 False", "complete 0 True"]
    assert (tmp_path / "report.json").exists()
    reference = tmp_path / "reference.npz"
    run_fresh(f"""
import numpy as np
from mkmc import matrixio
from mkmc.engines import CompletionConfig, run_completion
result = run_completion([matrixio.read_matrix(p) for p in {list(map(str, synthetic_inputs))!r}],
                        matrixio.read_mask({str(mask_file)!r}), CompletionConfig())
np.savez({str(reference)!r}, *result.completed)
""")
    with np.load(reference) as ref:
        for k, p in enumerate(synthetic_inputs):
            assert (masked / Path(p).name).exists()
            np.testing.assert_array_equal(matrixio.read_matrix(completed / Path(p).name),
                                          ref[f"arr_{k}"])


class TestEvaluateCommand:
    def test_perfect_completion_zero_error(self, runner, tmp_path, synthetic_inputs):
        mask = tmp_path / "mask.json"
        mask.write_text(json.dumps(
            {"ell": 12, "views": [{"hidden": [0, 5]}, {"hidden": [2]}, {"hidden": []}]}
        ))
        report = tmp_path / "report.json"
        res = runner.invoke(
            main,
            ["evaluate", "--mask", str(mask), "--out", str(report), "--name", "self",
             *[a for p in synthetic_inputs for a in ("--truth", p)],
             *[a for p in synthetic_inputs for a in ("--completed", p)]],
        )
        assert res.exit_code == 0, res.output
        obj = json.loads(report.read_text())["methods"]["self"]
        assert obj["per_view_relative_error"] == [0.0, 0.0, 0.0]

    def test_zero_filled_error_is_one(self, runner, tmp_path, rng):
        from mkmc.views import Fill, apply_mask

        qs = [random_pd(rng, 8) for _ in range(2)]
        hidden = [(1, 4), (0,)]
        truth_paths = write_views(tmp_path, qs, stem="truth")
        zeroed = [apply_mask(q, h, Fill.ZERO) for q, h in zip(qs, hidden)]
        comp_paths = write_views(tmp_path, zeroed, stem="zeroed")
        mask = tmp_path / "mask.json"
        mask.write_text(json.dumps({"ell": 8, "views": [{"hidden": list(h)} for h in hidden]}))
        report = tmp_path / "report.json"
        res = runner.invoke(
            main,
            ["evaluate", "--mask", str(mask), "--out", str(report),
             *[a for p in truth_paths for a in ("--truth", p)],
             *[a for p in comp_paths for a in ("--completed", p)]],
        )
        assert res.exit_code == 0, res.output
        obj = json.loads(report.read_text())["methods"]["method"]
        assert obj["per_view_relative_error"] == [1.0, 1.0]

    def evaluate_with_trace(self, runner, tmp_path, synthetic_inputs, text):
        mask = tmp_path / "mask.json"
        mask.write_text(json.dumps(
            {"ell": 12, "views": [{"hidden": [0]}, {"hidden": [2]}, {"hidden": []}]}
        ))
        trace = tmp_path / "trace.json"
        trace.write_text(text)
        return trace, runner.invoke(
            main,
            ["evaluate", "--mask", str(mask), "--trace", str(trace),
             "--out", str(tmp_path / "r.json"),
             *[a for p in synthetic_inputs for a in ("--truth", p)],
             *[a for p in synthetic_inputs for a in ("--completed", p)]],
        )

    @pytest.mark.parametrize("text", [
        '{"objective": [1.0,',
        '{"iterations": 1e400}',
        '{"iterations": 2.5}',
        '{"iterations": true}',
        '{"objective": "12"}',
        '{"objective": [1.0, null]}',
        '{"converged": "no"}',
        '[1.0]',
        "[" * 100_000 + "]" * 100_000,
    ], ids=["truncated", "iterations-overflow", "iterations-fraction", "iterations-bool",
            "objective-string", "objective-null", "converged-string", "not-object", "deep"])
    def test_invalid_trace_exits_2(self, runner, tmp_path, synthetic_inputs, text):
        trace, res = self.evaluate_with_trace(runner, tmp_path, synthetic_inputs, text)
        assert res.exit_code == 2
        assert len(res.output.strip().splitlines()) == 1
        assert res.output.startswith(f"mkmc: error: {trace}: invalid trace file")

    def test_integral_float_iterations_read_as_integer(self, runner, tmp_path, synthetic_inputs):
        _, res = self.evaluate_with_trace(runner, tmp_path, synthetic_inputs,
                                          '{"objective": [2.0, 1.5, 1], "iterations": 3.0}')
        assert res.exit_code == 0, res.output
        report = json.loads((tmp_path / "r.json").read_text())["methods"]["method"]
        assert report["iterations"] == 3 and type(report["iterations"]) is int
        assert report["objective_trace"] == [2.0, 1.5, 1.0] and report["converged"] is True

    @pytest.mark.parametrize("role", ["mask", "truth", "completed", "trace"])
    def test_report_over_an_input_exits_2(self, runner, tmp_path, synthetic_inputs, mask_file,
                                          role):
        trace = tmp_path / "trace.json"
        trace.write_text('{"objective": [1.0]}')
        truths = [str(tmp_path / f"t{k}.csv") for k in range(3)]
        for path, view in zip(truths, synthetic_inputs):
            Path(path).write_bytes(Path(view).read_bytes())
        out = {"mask": str(mask_file), "truth": truths[0], "completed": synthetic_inputs[1],
               "trace": str(trace)}[role]
        before = Path(out).read_bytes()
        res = runner.invoke(
            main,
            ["evaluate", "--mask", str(mask_file), "--trace", str(trace), "--out", out,
             *[a for p in truths for a in ("--truth", p)],
             *[a for p in synthetic_inputs for a in ("--completed", p)]],
        )
        assert res.exit_code == 2
        assert res.output.strip().splitlines() == [
            f"mkmc: error: {out} would overwrite the input {out}"
        ]
        assert Path(out).read_bytes() == before

    @pytest.mark.parametrize("n_truth, n_completed, what", [
        (3, 2, "2 completed matrices"), (2, 3, "2 truth matrices"), (2, 2, "2 truth matrices"),
    ])
    def test_count_mismatch_exits_3(self, runner, tmp_path, synthetic_inputs, mask_file,
                                    n_truth, n_completed, what):
        res = runner.invoke(
            main,
            ["evaluate", "--mask", str(mask_file), "--out", str(tmp_path / "r.json"),
             *[a for p in synthetic_inputs[:n_truth] for a in ("--truth", p)],
             *[a for p in synthetic_inputs[:n_completed] for a in ("--completed", p)]],
        )
        assert res.exit_code == 3
        assert res.output.strip().splitlines() == [
            f"mkmc: error: {what} but pattern has 3 views"
        ]

    def test_truth_with_zero_hidden_rows_exits_4(self, runner, tmp_path, rng):
        # object 0 is hidden in view 1, whose truth is zero in row and column 0
        qs = [random_pd(rng, 4) for _ in range(2)]
        truths = [qs[0], qs[1].copy()]
        truths[1][0, :] = truths[1][:, 0] = 0.0
        truth_paths = write_views(tmp_path, truths, stem="truth")
        comp_paths = write_views(tmp_path, qs, stem="completed")
        mask = tmp_path / "mask.json"
        mask.write_text('{"ell": 4, "views": [{"hidden": [1]}, {"hidden": [0]}]}')
        report = tmp_path / "r.json"
        res = runner.invoke(
            main,
            ["evaluate", "--mask", str(mask), "--out", str(report),
             *[a for p in truth_paths for a in ("--truth", p)],
             *[a for p in comp_paths for a in ("--completed", p)]],
        )
        assert res.exit_code == 4
        assert res.output.strip().splitlines() == [
            "mkmc: error: view 1: truth is not positive definite: its hidden rows are zero"
        ]
        assert not report.exists()

    @pytest.mark.parametrize("which", ["completed", "truth"])
    def test_non_finite_hidden_row_exits_4(self, runner, tmp_path, rng, which):
        # object 0 is hidden, and row and column 0 of one matrix are NaN
        truth = random_pd(rng, 4)
        bad = truth.copy()
        bad[0, :] = bad[:, 0] = np.nan
        mats = {"truth": truth, "completed": truth}
        mats[which] = bad
        truth_paths = write_views(tmp_path, [mats["truth"]], stem="truth")
        comp_paths = write_views(tmp_path, [mats["completed"]], stem="completed")
        mask = tmp_path / "mask.json"
        mask.write_text('{"ell": 4, "views": [{"hidden": [0]}]}')
        report = tmp_path / "r.json"
        res = runner.invoke(
            main,
            ["evaluate", "--mask", str(mask), "--out", str(report),
             "--truth", truth_paths[0], "--completed", comp_paths[0]],
        )
        reason = {"truth": "truth is not positive definite: it has a non-finite entry",
                  "completed": "completed matrix is not positive definite: "
                               "a hidden row has a non-finite entry"}[which]
        assert res.exit_code == 4
        assert res.output.strip().splitlines() == [f"mkmc: error: view 0: {reason}"]
        assert not report.exists()

    def test_shape_mask_mismatch_exits_3(self, runner, tmp_path, rng):
        qs = [random_pd(rng, 6)]
        paths = write_views(tmp_path, qs)
        mask = tmp_path / "mask.json"
        mask.write_text('{"ell": 5, "views": [{"hidden": [1]}]}')
        res = runner.invoke(
            main,
            ["evaluate", "--mask", str(mask), "--out", str(tmp_path / "r.json"),
             "--truth", paths[0], "--completed", paths[0]],
        )
        assert res.exit_code == 3
