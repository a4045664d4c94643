"""Workloads, closed loop, correctness gate and metrics of the mkmc benchmark.

See README.md in this directory for what each workload is for and which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.linalg as sla

import mkmc
import mkmc.cli
import mkmc.matrixio
import mkmc.recovery

from tracing import Tracer, completion_layers, mean_or_zero, median_or_zero

METHODS = ("fc", "pca", "fa")
SETUP_REPEATS = 5
# On a shared host the speed shifts by 10-40%, for seconds or for minutes, and
# a solve and a numpy kernel on matrices of the same size slow down together.
# So every end-to-end time is scaled by the calibration kernel timed just
# before and just after it: reference seconds = wall seconds * cal_ref_s /
# kernel seconds. Each workload's cal_ref_s is about its kernel's time on the
# 2-vCPU x86-64 host the benchmark was sized on (OpenBLAS 0.3.31, one thread),
# so reference seconds are close to wall seconds there.
# Objective rise tolerated between iterations, relative to max(1, |J|): round-off only.
DESCENT_RTOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    ell: int
    n_views: int
    fraction: float
    entry: str  # "library" (mkmc.run_completion) or "cli" (mkmc.cli.main complete)
    instances: int  # distinct seeded problems per run
    rank: Optional[int] = None
    rank_criterion: Optional[str] = None
    max_iters: Optional[int] = None  # None: the library / CLI default
    cal_reps: int = 1  # calibration kernel repeats at n = ell
    cal_ref_s: float = 0.05  # about the kernel's time on the sizing host
    true_rank: int = 5
    noise_sigma2: float = 0.1
    per_view_jitter: float = 0.05


WORKLOADS = {
    "converge": Workload("converge", ell=100, n_views=4, fraction=0.2, entry="library",
                         instances=8, rank=5, cal_reps=128, cal_ref_s=0.07),
    "large": Workload("large", ell=800, n_views=8, fraction=0.2, entry="library",
                      instances=3, rank=5, max_iters=3, cal_reps=1, cal_ref_s=0.075),
    "cli": Workload("cli", ell=400, n_views=8, fraction=0.5, entry="cli",
                    instances=2, rank_criterion="gk", max_iters=3, cal_reps=4, cal_ref_s=0.05),
}


@dataclass
class Instance:
    index: int
    truths: list
    pattern: mkmc.VisibilityPattern
    masked: list
    zero_err: float
    files: list = field(default_factory=list)  # cli inputs
    mask_path: Optional[Path] = None


# --------------------------------------------------------------------------- inputs

def _instance_seed(seed: int, index: int) -> int:
    return seed * 4096 + index * 64


def draw_pattern(wl: Workload, seed: int, index: int) -> mkmc.VisibilityPattern:
    """Independent per-view masks, redrawn until every object is seen in some view.

    An object hidden in every view carries no information at all, so its
    entries cannot be recovered by any method; allowing it would make
    ``rel_err`` jump between seeds by two orders of magnitude.
    """
    base = _instance_seed(seed, index)
    for attempt in range(1, 64):
        pattern = mkmc.random_mask(wl.ell, wl.n_views, wl.fraction, base + attempt)
        if not set.intersection(*map(set, pattern.hidden)):
            return pattern
    raise RuntimeError("no mask leaves every object visible in some view")


def build_instance(wl: Workload, seed: int, index: int, workdir: Path) -> Instance:
    spec = mkmc.SyntheticSpec(ell=wl.ell, n_views=wl.n_views, true_rank=wl.true_rank,
                              noise_sigma2=wl.noise_sigma2,
                              per_view_jitter=wl.per_view_jitter,
                              seed=_instance_seed(seed, index))
    truths = mkmc.recovery.generate_synthetic(spec)
    pattern = draw_pattern(wl, seed, index)
    masked = [mkmc.apply_mask(t, h, mkmc.Fill.ZERO) for t, h in zip(truths, pattern.hidden)]
    zero_err = mean_error(truths, masked, pattern)
    inst = Instance(index, truths, pattern, masked, zero_err)
    if wl.entry == "cli":
        indir = workdir / f"in-{index}"
        indir.mkdir(parents=True, exist_ok=True)
        inst.mask_path = indir / "mask.json"
        mkmc.matrixio.write_mask(inst.mask_path, pattern)
        for k, m in enumerate(masked):
            # half the views as CSV, half as MKMC binary
            path = indir / (f"v{k}.csv" if k < wl.n_views // 2 else f"v{k}.bin")
            mkmc.matrixio.write_matrix(path, m)
            inst.files.append(path)
    return inst


def mean_error(truths, estimates, pattern) -> float:
    return float(np.mean([mkmc.hidden_block_error(t, e, h)
                          for t, e, h in zip(truths, estimates, pattern.hidden)]))


@functools.cache
def _calibration_matrix(n: int) -> np.ndarray:
    g = np.random.default_rng(0).standard_normal((n, n))
    return g @ g.T + n * np.eye(n)


def calibration_s(wl: Workload) -> float:
    """Seconds for a fixed Cholesky, solve, product and eigensolve at n = ell."""
    a = _calibration_matrix(wl.ell)
    t0 = time.perf_counter()
    for _ in range(wl.cal_reps):
        chol = np.linalg.cholesky(a)
        a @ sla.cho_solve((chol, True), a)
        np.linalg.eigvalsh(a[: wl.ell // 2, : wl.ell // 2])
    return time.perf_counter() - t0


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing mkmc and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(Path(mkmc.__file__).resolve().parents[1]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mkmc.cli"], check=True, env=env)
    return time.perf_counter() - t0


def setup(wl: Workload, seed: int, workdir: Path, repeats: int) -> tuple[float, list]:
    """Median over ``repeats`` set-ups (fresh import plus building every input),
    in reference seconds, and the instances of the first."""
    walls, cals, instances = [], [calibration_s(wl)], None
    for _ in range(repeats):
        t_import = import_seconds()
        t0 = time.perf_counter()
        built = [build_instance(wl, seed, i, workdir) for i in range(wl.instances)]
        walls.append(t_import + time.perf_counter() - t0)
        cals.append(calibration_s(wl))
        instances = instances or built
    return statistics.median(walls) * wl.cal_ref_s / statistics.median(cals), instances


# --------------------------------------------------------------------------- one completion

def read_back(path: Path) -> np.ndarray:
    """The harness's own reader for the two matrix formats the CLI writes."""
    if path.suffix.lower() == ".csv":
        return np.loadtxt(path, delimiter=",", ndmin=2)
    raw = path.read_bytes()
    magic, _version, rows, cols = struct.unpack_from("<4sBII", raw)
    if magic != b"MKMC":
        raise ValueError(f"{path}: not an MKMC binary matrix")
    return np.frombuffer(raw, dtype="<f8", offset=13).reshape(rows, cols).copy()


def complete(wl: Workload, inst: Instance, method: str, workdir: Path, tracer=None):
    """Run one completion through the workload's entry point.

    Returns (wall seconds, completed matrices, objective trace); for the CLI
    both come from the files it wrote, re-read by :func:`read_back`.
    """
    if wl.entry == "library":
        cfg = mkmc.CompletionConfig(method=method, rank=wl.rank, rank_criterion=wl.rank_criterion,
                                    **({"max_iters": wl.max_iters} if wl.max_iters else {}))
        t0 = time.perf_counter()
        result = mkmc.run_completion(inst.masked, inst.pattern, cfg)
        elapsed = time.perf_counter() - t0
        return elapsed, result.completed, list(result.trace)

    outdir = workdir / f"out-{inst.index}-{method}"
    args = ["complete", "--method", method, "--mask", str(inst.mask_path),
            "--output-dir", str(outdir)]
    if wl.rank is not None:
        args += ["--rank", str(wl.rank)]
    if wl.rank_criterion is not None:
        args += ["--rank-criterion", wl.rank_criterion]
    if wl.max_iters is not None:
        args += ["--max-iters", str(wl.max_iters)]
    args += [str(p) for p in inst.files]
    span = tracer.span("cli.complete") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        with span:
            mkmc.cli.main(args, standalone_mode=False)
        elapsed = time.perf_counter() - t0
    completed = [read_back(outdir / p.name) for p in inst.files]
    trace = json.loads((outdir / "trace.json").read_text())["objective"]
    return elapsed, completed, trace


def gate(inst: Instance, completed, trace) -> tuple[list[str], float]:
    """Correctness problems of one completion (empty when it passes) and its rel_err."""
    problems = []
    for k, (c, given, hidden) in enumerate(zip(completed, inst.masked, inst.pattern.hidden)):
        vis = np.setdiff1d(np.arange(c.shape[0]), hidden)
        if not np.array_equal(c[np.ix_(vis, vis)], given[np.ix_(vis, vis)]):
            problems.append(f"view {k}: visible entries changed")
        if not np.array_equal(c, c.T):
            problems.append(f"view {k}: completion not symmetric")
        try:
            np.linalg.cholesky(c)
        except np.linalg.LinAlgError:
            problems.append(f"view {k}: completion not positive definite")
    rises = np.diff(trace) - DESCENT_RTOL * np.maximum(1.0, np.abs(trace[:-1]))
    if len(trace) == 0 or np.any(rises > 0):
        problems.append("objective trace rises")
    rel_err = mean_error(inst.truths, completed, inst.pattern)
    if not rel_err < inst.zero_err:
        problems.append(f"rel_err {rel_err:.4g} not below zero-fill {inst.zero_err:.4g}")
    return problems, rel_err


def fingerprint(completed, trace) -> str:
    """Hash of the iteration count, the final objective and the completions."""
    h = hashlib.sha256()
    h.update(repr((len(trace), float(trace[-1]).hex() if trace else None)).encode())
    for c in completed:
        h.update(np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


# --------------------------------------------------------------------------- the run

def blas_info() -> str:
    """BLAS library, version and the thread count each loaded OpenBLAS reports."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    desc = f"{blas.get('name')} {blas.get('version')}"
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    threads = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads.append(f"{Path(path).name}={fn()}")
                break
    env = os.environ.get("OPENBLAS_NUM_THREADS")
    return f"{desc}; threads {', '.join(threads) or 'unknown'}; OPENBLAS_NUM_THREADS={env}"


class Loop:
    """Closed loop, one client: each completion starts after the last returns."""

    def __init__(self, wl: Workload, instances, workdir: Path):
        self.wl, self.instances, self.workdir = wl, instances, workdir
        self.records = []  # dicts per completion
        self.cal = []  # calibration kernel seconds, one before each pass and after each completion
        self.problems = []

    def one_pass(self, tracer: Optional[Tracer] = None) -> float:
        """Every method on every instance once; returns the pass's solve seconds."""
        total = 0.0
        self.cal.append(calibration_s(self.wl))
        for inst in self.instances:
            for method in METHODS:
                rec = {"instance": inst.index, "method": method, "traced": tracer is not None}
                self.records.append(rec)
                if tracer is not None:
                    tracer.reset()
                try:
                    elapsed, completed, trace = complete(self.wl, inst, method, self.workdir, tracer)
                except (Exception, SystemExit) as exc:  # a failed operation, not a crash
                    elapsed, completed, trace = None, None, None
                    rec["ok"] = False
                    self.problems.append(f"{method}/{inst.index}: {type(exc).__name__}: {exc}")
                self.cal.append(calibration_s(self.wl))
                rec["cal_at"] = len(self.cal) - 1
                if elapsed is None:
                    continue
                problems, rel_err = gate(inst, completed, trace)
                extra = ()
                if tracer is not None:
                    layers = completion_layers(tracer.spans, tracer.counts, tracer.marks,
                                               tracer.files)
                    rec["layers"] = layers
                    extra = (layers["chol_calls"], layers["chol_n3"], layers["logdet_calls"],
                             layers["eigh_calls"], layers["eigh_n3"])
                    rec["spans"] = tracer.spans
                rec.update(ok=not problems, solve_s=elapsed, rel_err=rel_err,
                           fp=fingerprint(completed, trace), fp_ops=extra)
                self.problems += [f"{method}/{inst.index}: {p}" for p in problems]
                total += elapsed
        return total

    def reference_seconds(self, rec) -> float:
        """A completion's wall time scaled by the kernel samples just before and after it."""
        kernel_s = (self.cal[rec["cal_at"] - 1] + self.cal[rec["cal_at"]]) / 2
        return rec["solve_s"] * self.wl.cal_ref_s / kernel_s

    def drift(self) -> list[str]:
        """Repeats of one (instance, method) must agree bit for bit, op counts too."""
        out = []
        seen, seen_ops = {}, {}
        for r in self.records:
            if "fp" not in r:
                continue
            key = (r["instance"], r["method"])
            if seen.setdefault(key, r["fp"]) != r["fp"]:
                out.append(f"{key}: output or iteration count drifted between repeats")
            if r["traced"] and seen_ops.setdefault(key, r["fp_ops"]) != r["fp_ops"]:
                out.append(f"{key}: linalg op counts drifted between repeats")
        return out

    def digest(self) -> str:
        """One hash of every distinct completion, to compare runs at one seed."""
        h = hashlib.sha256()
        done = set()
        for r in sorted((r for r in self.records if "fp" in r),
                        key=lambda r: (r["instance"], r["method"], not r["traced"])):
            key = (r["instance"], r["method"])
            if key not in done:
                done.add(key)
                h.update(repr((key, r["fp"], r["fp_ops"])).encode())
        return h.hexdigest()[:16]


def _per_instance_median(records, method, field) -> float:
    by_inst = {}
    for r in records:
        if r["method"] == method and field in r:
            by_inst.setdefault(r["instance"], []).append(r[field])
    return median_or_zero(statistics.median(v) for v in by_inst.values())


def end_to_end_metrics(loop: Loop, setup_s: float) -> dict:
    recs = [dict(r, solve_ref_s=loop.reference_seconds(r)) for r in loop.records
            if not r["traced"] and "solve_s" in r]
    out = {}
    for m in METHODS:
        out[f"solve_s.{m}"] = (_per_instance_median(recs, m, "solve_ref_s"), "s")
    for m in METHODS:
        out[f"rel_err.{m}"] = (_per_instance_median(recs, m, "rel_err"), "1")
    out["setup_s"] = (setup_s, "s")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out


def per_layer_metrics(loop: Loop, gen_ms: list, overhead: float) -> dict:
    traced = [r for r in loop.records if r["traced"] and "layers" in r]
    lay = [r["layers"] for r in traced]
    iters = sum(x["iterations"] for x in lay) or 1

    def per_iter(name, key="layer_ms", rows=lay):
        n = sum(x["iterations"] for x in rows) or 1
        return sum(x[key].get(name, 0.0) for x in rows) / n

    out = {}
    for m in METHODS:
        rows = [r["layers"] for r in traced if r["method"] == m]
        out[f"engines.iterations.{m}"] = (mean_or_zero(x["iterations"] for x in rows), "count")
        out[f"engines.iter_ms.{m}"] = (median_or_zero(v for x in rows for v in x["iter_ms"]), "ms")
    out["engines.objective.ms_per_iter"] = (per_iter("engines.objective"), "ms")
    out["engines.impute_view.ms_per_iter"] = (per_iter("engines.impute_view"), "ms")
    out["engines.impute_view.calls_per_iter"] = (per_iter("engines.impute_view", "layer_calls"), "count")
    for m in METHODS:
        rows = [r["layers"] for r in traced if r["method"] == m]
        out[f"engines.model_update.ms_per_iter.{m}"] = (per_iter(f"engines.model_update.{m}", rows=rows), "ms")
    out["engines.average_kernel.ms_per_iter"] = (
        per_iter("engines.average_kernel") + per_iter("engines.regularize"), "ms")
    out["engines.materialize.ms_per_iter"] = (per_iter("engines.materialize"), "ms")
    out["engines.driver_self.ms_per_iter"] = (sum(x["driver_self_ms"] for x in lay) / iters, "ms")
    out["engines.setup_ms"] = (median_or_zero(x["setup_ms"] for x in lay), "ms")
    out["views.partition.ms_per_iter"] = (per_iter("views.partition"), "ms")
    out["views.partition.calls_per_iter"] = (per_iter("views.partition", "layer_calls"), "count")
    out["linalg.cholesky_lower.calls_per_iter"] = (sum(x["chol_calls"] for x in lay) / iters, "count")
    out["linalg.cholesky_lower.n3_per_iter"] = (sum(x["chol_n3"] for x in lay) / iters, "n3")
    out["linalg.logdet.calls_per_iter"] = (sum(x["logdet_calls"] for x in lay) / iters, "count")
    out["linalg.eigh_sorted.calls"] = (mean_or_zero(x["eigh_calls"] for x in lay), "count")
    out["linalg.eigh_sorted.n3"] = (mean_or_zero(x["eigh_n3"] for x in lay), "n3")
    for op in ("read_matrix", "write_matrix"):
        for fmt in ("csv", "bin"):
            key = f"matrixio.{op}.ms.{fmt}"
            out[key] = (median_or_zero(v for x in lay for v in x["io"].get(key, [])), "ms")
    out["matrixio.bytes_read"] = (
        mean_or_zero(sum(x["io"].get("matrixio.read_matrix.bytes", [])) for x in lay), "bytes")
    out["matrixio.bytes_written"] = (
        mean_or_zero(sum(x["io"].get("matrixio.write_matrix.bytes", [])) for x in lay), "bytes")
    out["cli.complete.self_ms"] = (median_or_zero(x["cli_self_ms"] for x in lay if "cli_self_ms" in x), "ms")
    out["recovery.generate_synthetic.ms"] = (median_or_zero(gen_ms), "ms")
    out["bench.trace_overhead"] = (overhead, "ratio")
    out["bench.calibration_ms"] = (median_or_zero(loop.cal) * 1e3, "ms")
    return out


def run_workload(wl: Workload, seed: int, seconds: float, traced: bool, root: Path,
                 setup_repeats: int = SETUP_REPEATS) -> tuple[dict, list[str]]:
    """One benchmark run: the result object and the report lines printed before it."""
    workdir = root / ".perfbench" / f"work-{wl.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    lines = [f"workload={wl.name} seed={seed} seconds={seconds} trace={int(traced)}",
             f"blas: {blas_info()}"]
    try:
        tracer = Tracer()
        if traced:
            with tracer.installed():
                _, instances = setup(wl, seed, workdir, 1)
            gen_ms = [(s[2] - s[1]) * 1e3 for s in tracer.spans
                      if s[0] == "recovery.generate_synthetic"]
        else:
            setup_s, instances = setup(wl, seed, workdir, setup_repeats)
        loop = Loop(wl, instances, workdir)
        # Whole passes only, so every instance weighs the same whatever the speed.
        # A traced run alternates untraced and traced passes, at least one of
        # each; the untraced ones give the base of the overhead ratio.
        t_start = time.perf_counter()
        totals = {False: [], True: []}
        last_pass = 0.0
        while not totals[traced] or (time.perf_counter() - t_start + last_pass <= seconds):
            trace_now = traced and len(totals[True]) < len(totals[False])
            t_pass = time.perf_counter()
            with tracer.installed() if trace_now else contextlib.nullcontext():
                totals[trace_now].append(loop.one_pass(tracer if trace_now else None))
            last_pass = time.perf_counter() - t_pass
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    drift = loop.drift()
    problems = loop.problems + drift
    attempted = len(loop.records)
    failed = sum(1 for r in loop.records if not r["ok"]) + len(drift)
    if traced:
        overhead = statistics.median(totals[True]) / statistics.median(totals[False])
        metrics = per_layer_metrics(loop, gen_ms, overhead)
        lay = [r["layers"] for r in loop.records if "layers" in r]
        total = sum(x["iter_total_ms"] for x in lay)
        parts = sum(sum(x["layer_ms"].get(n, 0.0) for n in x["layer_ms"]) + x["driver_self_ms"]
                    for x in lay)
        lines.append(f"accounting: layer self times + driver_self = {parts:.3f} ms "
                     f"of {total:.3f} ms iteration time")
        out = root / ".perfbench" / f"spans-{wl.name}-seed{seed}.json"
        out.write_text(json.dumps({
            "workload": wl.name, "seed": seed, "blas": lines[1],
            "span_fields": ["name", "start", "end", "parent"],
            "completions": [{"instance": r["instance"], "method": r["method"], "spans": r["spans"]}
                            for r in loop.records if "spans" in r]}))
        lines.append(f"spans written to {out.relative_to(root)}")
    else:
        metrics = end_to_end_metrics(loop, setup_s)
    passes = attempted // (len(METHODS) * wl.instances)
    lines.append(f"{attempted} completions in {passes} passes over {wl.instances} instance(s)")
    lines.append(f"fingerprint: {loop.digest()}")
    lines.append("wall seconds per completion (median): " + ", ".join(
        f"{m}={median_or_zero(r['solve_s'] for r in loop.records if r['method'] == m and 'solve_s' in r):.4f}"
        for m in METHODS) + f"; calibration kernel {median_or_zero(loop.cal) * 1e3:.2f} ms"
        f" (reference {wl.cal_ref_s * 1e3:g} ms)")
    lines += [f"FAILED {p}" for p in problems]
    lines += [f"{name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines
