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
    """Mask for the three synthetic views, each hiding object 0."""
    path = tmp_path / "mask.json"
    path.write_text(json.dumps({"ell": 12, "views": [{"hidden": [0]}] * 3}))
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
        res = runner.invoke(
            main, ["mask", "--fraction", "0.2", "--out-dir", str(tmp_path / "o"), str(bad)]
        )
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
        from mkmc.engines import average_kernel, regularize, select_rank
        from mkmc.views import Fill, apply_mask

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
        s0 = regularize(
            average_kernel([apply_mask(m, h, Fill.ZERO) for m, h in zip(mats, pat.hidden)]),
            pat.n_views, 1e-3,
        )
        assert trace["rank"] == select_rank(s0, "gk")

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
        assert trace["residual"][0] is None and trace["step_length"][:3] == [None] * 3

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
        mask = tmp_path / "mask.json"
        mask.write_text('{"ell": 3, "views": [{"hidden": [2]}]}')
        res = runner.invoke(
            main,
            ["complete", "--method", "fc", "--mask", str(mask),
             "--output-dir", str(tmp_path / "o"), str(bad)],
        )
        assert res.exit_code == 4

    def test_non_finite_visible_block_exits_4(self, runner, tmp_path, rng):
        q = random_pd(rng, 4)
        q[0, 1] = q[1, 0] = np.nan
        bad = tmp_path / "bad.csv"
        matrixio.write_csv_matrix(bad, q)
        mask = tmp_path / "mask.json"
        mask.write_text('{"ell": 4, "views": [{"hidden": [3]}]}')
        res = runner.invoke(
            main,
            ["complete", "--method", "fc", "--mask", str(mask),
             "--output-dir", str(tmp_path / "o"), str(bad)],
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

        # ell = 12 and fraction 0.2 hide two objects per view; fail each 2 x 2 P_hh
        def singular(a):
            if a.shape[0] == 2:
                raise NotPositiveDefiniteError("matrix of dim 2 is not positive definite")
            return cholesky_lower(a)

        monkeypatch.setattr(linalg, "cholesky_lower", singular)
        res = runner.invoke(
            main,
            ["complete", "--method", "fc", "--mask", str(masked_dir / "mask.json"),
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


def test_import_leaves_jsonschema_unloaded():
    """Neither jsonschema nor orjson (imported by the CSV reader and writer) loads with the CLI."""
    code = "import sys, mkmc.cli; print('jsonschema' in sys.modules, 'orjson' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"


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
