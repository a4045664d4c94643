"""Spans and counters around the public functions of each mkmc layer.

Nothing in ``src/`` is changed: :class:`Tracer` rebinds each target function
in every ``mkmc`` module namespace that holds it (``mkmc.linalg.cholesky_lower``
and ``mkmc.engines.cholesky_lower`` alike) and restores the originals on exit.

Two kinds of record are kept in memory:

* a *span* ``[name, start, end, parent]`` for every call of a timed function;
  ``parent`` is the index of the enclosing timed span, or -1;
* a *count* ``[name, time, n]`` for every call of a ``linalg`` routine, where
  ``n`` is the matrix dimension. Counts are not spans, so the engine functions
  that call them keep their inclusive meaning.

Iteration boundaries come from ``run_completion``'s ``on_iteration`` hook,
which the wrapper installs (chaining any hook the caller passed).
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name) of every timed function. Methods are given
# as "Class.method" and wrapped on the class.
TIMED = [
    ("mkmc.engines", "run_completion", "engines.run_completion"),
    ("mkmc.engines", "impute_view", "engines.impute_view"),
    ("mkmc.engines", "average_kernel", "engines.average_kernel"),
    ("mkmc.engines", "regularize", "engines.regularize"),
    ("mkmc.engines", "fc_model_update", "engines.model_update.fc"),
    ("mkmc.engines", "pca_model_update", "engines.model_update.pca"),
    ("mkmc.engines", "fa_model_update", "engines.model_update.fa"),
    ("mkmc.engines", "objective", "engines.objective"),
    ("mkmc.engines", "select_rank", "engines.select_rank"),
    ("mkmc.engines", "FullModel.materialize", "engines.materialize"),
    ("mkmc.engines", "PcaModel.materialize", "engines.materialize"),
    ("mkmc.engines", "FaModel.materialize", "engines.materialize"),
    ("mkmc.views", "partition", "views.partition"),
    ("mkmc.matrixio", "read_matrix", "matrixio.read_matrix"),
    ("mkmc.matrixio", "write_matrix", "matrixio.write_matrix"),
    ("mkmc.matrixio", "read_mask", "matrixio.read_mask"),
    ("mkmc.recovery", "generate_synthetic", "recovery.generate_synthetic"),
]
COUNTED = [
    ("mkmc.linalg", "cholesky_lower", "linalg.cholesky_lower"),
    ("mkmc.linalg", "logdet", "linalg.logdet"),
    ("mkmc.linalg", "eigh_sorted", "linalg.eigh_sorted"),
]


class Tracer:
    """In-memory span and count recorder for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[list] = []
        self.marks: list[float] = []  # on_iteration timestamps
        self.files: dict[int, str] = {}  # span index -> matrix file path
        self._stack: list[int] = []
        self._undo: list = []

    def reset(self) -> None:
        self.spans, self.counts, self.marks, self.files = [], [], [], {}
        self._stack = []

    @contextmanager
    def span(self, name: str, path=None):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        if path is not None:
            self.files[idx] = os.fspath(path)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def _timed(self, name, fn):
        tracer = self

        if name == "engines.run_completion":
            def wrapper(*args, **kwargs):
                user_hook = args[3] if len(args) > 3 else kwargs.pop("on_iteration", None)

                def hook(it, completed, model):
                    tracer.marks.append(time.perf_counter())
                    if user_hook is not None:
                        user_hook(it, completed, model)

                with tracer.span(name):
                    return fn(*args[:3], on_iteration=hook, **kwargs)
        elif name.startswith("matrixio."):
            def wrapper(path, *args, **kwargs):
                with tracer.span(name, path):
                    return fn(path, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)
        return wrapper

    def _counted(self, name, fn):
        tracer = self

        def wrapper(a, *args, **kwargs):
            tracer.counts.append([name, time.perf_counter(), a.shape[0]])
            return fn(a, *args, **kwargs)
        return wrapper

    def _rebind(self, module_name, attr, wrapper_factory):
        owner_name, _, method = attr.partition(".")
        owner = getattr(sys.modules[module_name], owner_name)
        if method:
            original = owner.__dict__[method]
            setattr(owner, method, wrapper_factory(original))
            self._undo.append((owner, method, original))
            return
        wrapped = wrapper_factory(owner)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "mkmc" or mod_name.startswith("mkmc.")) and getattr(mod, attr, None) is owner:
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, owner))

    @contextmanager
    def installed(self):
        """Rebind every target for the duration of the block."""
        try:
            for module_name, attr, name in TIMED:
                self._rebind(module_name, attr, lambda fn, n=name: self._timed(n, fn))
            for module_name, attr, name in COUNTED:
                self._rebind(module_name, attr, lambda fn, n=name: self._counted(n, fn))
            yield self
        finally:
            for obj, attr, original in reversed(self._undo):
                setattr(obj, attr, original)
            self._undo = []


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def completion_layers(spans, counts, marks, files) -> dict:
    """Per-layer totals of one traced completion.

    Iteration k >= 2 runs from hook mark k-1 to mark k. Iteration 1 ends at
    mark 1 and starts at the first of the ``run_completion`` children that
    repeat iteration 2's call sequence; when iteration 1 calls a different
    sequence (or there is only one iteration), it is taken to be as long as
    iteration 2, or to start with ``run_completion`` itself.
    """
    rc = next(i for i, s in enumerate(spans) if s[0] == "engines.run_completion")
    rc_start, rc_end = spans[rc][1], spans[rc][2]
    children = [i for i, s in enumerate(spans) if s[3] == rc]
    if len(marks) >= 2:
        seq2 = [spans[i][0] for i in children if marks[0] < spans[i][1] < marks[1]]
        before = [i for i in children if spans[i][2] <= marks[0]][-len(seq2):]
        if [spans[i][0] for i in before] == seq2 and seq2:
            it1_start = spans[before[0]][1]
        else:
            it1_start = max(rc_start, 2 * marks[0] - marks[1])
    else:
        it1_start = rc_start
    bounds = [it1_start] + marks
    iter_ms = [(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])]
    lo, hi = bounds[0], bounds[-1]

    selfs = self_times(spans)
    layer_ms: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    child_ms = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        if lo <= start and end <= hi and i != rc:
            layer_ms[name] += selfs[i] * 1e3
            layer_calls[name] += 1
            if parent == rc:
                child_ms += (end - start) * 1e3
    in_iter = [c for c in counts if lo <= c[1] <= hi]
    during = [c for c in counts if rc_start <= c[1] <= rc_end]

    def n_calls(rows, name):
        return sum(1 for c in rows if c[0] == name)

    def n3(rows, name):
        return float(sum(c[2] ** 3 for c in rows if c[0] == name))

    io = defaultdict(list)
    for i, path in files.items():
        name, start, end, _ = spans[i]
        fmt = "csv" if path.lower().endswith(".csv") else "bin"
        io[f"{name}.ms.{fmt}"].append((end - start) * 1e3)
        io[f"{name}.bytes"].append(os.path.getsize(path))

    out = {
        "iterations": len(marks),
        "iter_ms": iter_ms,
        "iter_total_ms": sum(iter_ms),
        "driver_self_ms": sum(iter_ms) - child_ms,
        "setup_ms": (it1_start - rc_start) * 1e3,
        "layer_ms": dict(layer_ms),
        "layer_calls": dict(layer_calls),
        "chol_calls": n_calls(in_iter, "linalg.cholesky_lower"),
        "chol_n3": n3(in_iter, "linalg.cholesky_lower"),
        "logdet_calls": n_calls(in_iter, "linalg.logdet"),
        "eigh_calls": n_calls(during, "linalg.eigh_sorted"),
        "eigh_n3": n3(during, "linalg.eigh_sorted"),
        "io": dict(io),
    }
    for i, s in enumerate(spans):
        if s[0] == "cli.complete":
            out["cli_self_ms"] = selfs[i] * 1e3
    return out


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean_or_zero(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0
