"""Command-line front end: ``mkmc mask``, ``mkmc complete``, ``mkmc evaluate``.

The CLI is a thin shell over the library; it performs file IO and argument
parsing only. Every setting of ``complete``, from a flag or a run config, is
checked by :class:`mkmc.engines.CompletionConfig`. Each error class carries
its exit code; the table is in :mod:`mkmc.errors`.
"""

from __future__ import annotations

import functools
import logging
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import matrixio
from .engines import METHODS, RANK_CRITERIA, CompletionConfig, run_completion
from .errors import ConfigError, DimensionError, MkmcError, NotPositiveDefiniteError
from .recovery import score_completion
from .views import Fill, apply_mask, random_mask

log = logging.getLogger("mkmc")

# Asymmetry max|A - A^T| / max|A| above which an input is refused, not symmetrized:
# round-off from building a kernel stays far below it, a data error far above.
ASYMMETRY_RTOL = 1e-8


def _fail(code: int, message: str):
    click.echo(f"mkmc: error: {message}", err=True)
    sys.exit(code)


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except MkmcError as exc:
            _fail(exc.exit_code, str(exc))
        except OSError as exc:
            _fail(2, str(exc))

    return wrapper


@click.group()
def main():
    """Mutual completion of multiple incomplete kernel matrices."""
    level = os.environ.get("MKMC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _output_paths(out_dir, sidecar: str, inputs) -> list[Path]:
    """``out_dir`` / ``sidecar``, then / each input's file name; two equal names are refused."""
    names = [sidecar] + [Path(p).name for p in inputs]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"two outputs would be written to {Path(out_dir) / name}")
    return [Path(out_dir) / name for name in names]


def _load_square_inputs(inputs) -> list[np.ndarray]:
    mats = []
    for p in inputs:
        raw = matrixio.read_matrix(p)  # always 2-D
        if raw.shape[0] != raw.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {raw.shape}")
        t = raw.T.copy()  # one strided pass, for the symmetric part and the asymmetry
        out = raw + t
        out *= 0.5
        mats.append(out)
        if raw.shape != mats[0].shape:
            raise DimensionError(f"{p}: dimension {raw.shape[0]} differs from {mats[0].shape[0]}")
        asym = np.abs(raw - t).max(initial=0.0)
        if asym > ASYMMETRY_RTOL * np.abs(raw).max(initial=0.0):
            raise NotPositiveDefiniteError(f"{p}: not symmetric, max |A - A^T| = {asym:.3g}")
    return mats


@main.command("mask")
@click.argument("inputs", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--fraction", type=float, required=True, help="Fraction of objects to hide per view.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--fill", type=click.Choice(["zero", "mean"]), default="zero", show_default=True)
@click.option("--correlated", is_flag=True, help="Hide the same objects in every view.")
@click.option("--out-dir", type=click.Path(), required=True)
@handle_errors
def cmd_mask(inputs, fraction, seed, fill, correlated, out_dir):
    """Hide random rows/columns of each input kernel and write masked copies."""
    mask_path, *out_paths = _output_paths(out_dir, "mask.json", inputs)
    mats = _load_square_inputs(inputs)
    ell = mats[0].shape[0]
    pattern = random_mask(ell, len(mats), fraction, seed, correlated=correlated)
    mask_path.parent.mkdir(parents=True, exist_ok=True)
    matrixio.write_mask(mask_path, pattern)
    for out_path, mat, hidden in zip(out_paths, mats, pattern.hidden):
        matrixio.write_matrix(out_path, apply_mask(mat, hidden, Fill(fill)))
    log.info("wrote mask and %d masked matrices to %s", len(mats), out_dir)


def _resolve_config(config_path, **run):
    """Flags overridden by the run config: (CompletionConfig, inputs, mask, output_dir)."""
    if config_path is not None:
        run.update(matrixio.load_run_config(config_path))
    inputs, mask, output_dir = run.pop("inputs"), run.pop("mask"), run.pop("output_dir")
    cfg = CompletionConfig(**run)
    if not inputs:
        raise click.UsageError("no input matrices given (arguments or config 'inputs')")
    if mask is None:
        raise click.UsageError("a mask file is required (--mask or config 'mask')")
    if output_dir is None:
        raise click.UsageError("an output directory is required (--output-dir or config 'output_dir')")
    return cfg, inputs, mask, output_dir


@main.command("complete")
@click.argument("inputs", nargs=-1, type=click.Path())
@click.option("--method", type=click.Choice(METHODS), default="fc", show_default=True)
@click.option("--rank", type=int, default=None, help="Explicit model rank q (pca/fa).")
@click.option("--rank-criterion", type=click.Choice(RANK_CRITERIA), default=None,
              help="Pick q from the initial average kernel's spectrum.")
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--max-iters", type=int, default=500, show_default=True)
@click.option("--reg-epsilon", type=float, default=1e-3, show_default=True)
@click.option("--mask", type=click.Path(), default=None)
@click.option("--output-dir", type=click.Path(), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="Run-config JSON; overrides flags.")
@handle_errors
def cmd_complete(config_path, **run):
    """Complete the masked kernels and write them with a trace JSON."""
    cfg, inputs, mask_path, output_dir = _resolve_config(config_path, **run)
    trace_path, *out_paths = _output_paths(output_dir, "trace.json", inputs)
    pattern = matrixio.read_mask(mask_path)
    result = run_completion(_load_square_inputs(inputs), pattern, cfg)

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    for out_path, mat in zip(out_paths, result.completed):
        matrixio.write_matrix(out_path, mat)
    matrixio.write_trace(trace_path, result)

    status = "converged" if result.converged else "stopped at max_iters"
    click.echo(
        f"method={cfg.method} views={pattern.n_views} dim={pattern.ell} "
        f"rank={result.rank} dof={result.dof} iterations={result.iterations} "
        f"objective={result.trace[-1]:.12g} ({status})"
    )


@main.command("evaluate")
@click.option("--mask", "mask_path", type=click.Path(exists=True), required=True)
@click.option("--truth", "truth_paths", type=click.Path(exists=True), multiple=True, required=True)
@click.option("--completed", "completed_paths", type=click.Path(exists=True), multiple=True, required=True)
@click.option("--name", default="method", show_default=True, help="Label for the completed set.")
@click.option("--trace", "trace_path", type=click.Path(exists=True), default=None,
              help="trace.json from the complete step, embedded in the report.")
@click.option("--out", "out_path", type=click.Path(), required=True)
@handle_errors
def cmd_evaluate(mask_path, truth_paths, completed_paths, name, trace_path, out_path):
    """Score hidden-block recovery of completed kernels against ground truth."""
    pattern = matrixio.read_mask(mask_path)
    truths = _load_square_inputs(truth_paths)
    completed = _load_square_inputs(completed_paths)
    trace = matrixio.read_trace(trace_path) if trace_path is not None else {}
    report = score_completion(truths, completed, pattern, **trace)
    matrixio.write_report(out_path, {name: report})
    click.echo(f"{name}: mean_relative_error={report.mean_relative_error:.17g}")


if __name__ == "__main__":
    main()
