"""Every file format of mkmc: matrix, mask, trace, run config and report.

Matrices travel either as headerless CSV or as a small binary format: magic
``MKMC``, a version byte, row and column counts as little-endian uint32, then
row-major little-endian float64 payload. The CSV writer gives each value as
the shortest text that reads back to the same float64 (orjson's Ryū
formatter), so ``1.0`` for one and ``nan``, ``inf`` or ``-inf`` for a
non-finite entry. orjson reads a plain numeric CSV (digits, ``+-.eE``, commas
and JSON whitespace; no integer ``-0``) one row of Python floats at a time;
``np.loadtxt`` reads every other CSV. Both give the same float64 values.

Masks, traces, run configs and reports are JSON, written with ``indent=2`` and
a trailing newline. One reader parses them all and raises :class:`FormatError`
for a file that is not JSON, not UTF-8 or nested too deep to parse. Every
integer field follows one rule: an int, or a finite float with no fraction
part (JSON does not tell 2 from 2.0); a bool or a string is refused.
"""

from __future__ import annotations

import io
import json
import re
import struct
import warnings
from pathlib import Path

import numpy as np

from .errors import FormatError
from .views import VisibilityPattern

MAGIC = b"MKMC"
VERSION = 1
_HEADER = struct.Struct("<4sBII")
_PLAIN_CSV_BYTES = b"0123456789+-.eE, \t\r\n"
_INTEGER_NEG_ZERO = re.compile(rb"-0(?![.0-9eE])")  # orjson reads it as +0; 1e-0 matches too

RUN_CONFIG_KEYS = frozenset(
    {"method", "rank", "tol", "max_iters", "reg_epsilon", "inputs", "mask", "output_dir"}
)


def write_csv_matrix(path, a: np.ndarray) -> None:
    import orjson  # imported here so that ``import mkmc.cli`` stays light

    a = np.ascontiguousarray(np.atleast_2d(a), dtype=np.float64)
    # [1.0,2.0] -> 1.0,2.0 per row
    body = b"\n".join(orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] for row in a)
    nonfinite = a[~np.isfinite(a)]
    if nonfinite.size:  # orjson writes null for each, in row-major order
        parts = body.split(b"null")
        body = b"".join(p + b"%.17g" % x for p, x in zip(parts, nonfinite)) + parts[-1]
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(b"\n")


def _parse_plain_csv(data: bytes) -> np.ndarray | None:
    """The matrix of a plain numeric CSV, or None where ``np.loadtxt`` must read it."""
    import orjson

    body = data.strip()
    if body.translate(None, _PLAIN_CSV_BYTES) or _INTEGER_NEG_ZERO.search(body):
        return None
    rows, cols = body.count(b"\n") + 1, body.split(b"\n", 1)[0].count(b",") + 1
    if rows * cols > len(body):  # no data, or more cells than bytes: not a full table
        return None
    out = np.empty((rows, cols))
    try:
        for i, line in enumerate(io.BytesIO(body)):
            row = orjson.loads(b"[" + line + b"]")
            if len(row) != cols:  # a one-value row would broadcast
                return None
            out[i] = row
    except (ValueError, TypeError, OverflowError):  # orjson's JSONDecodeError is a ValueError
        return None
    return out


def _read_csv(path, data: bytes) -> np.ndarray:
    out = _parse_plain_csv(data)
    if out is not None:
        return out
    try:
        with warnings.catch_warnings():  # a file with no data is refused below instead
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            a = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: cannot parse as CSV matrix: {exc}") from exc
    if a.size == 0:
        raise FormatError(f"{path}: cannot parse as CSV matrix: no data")
    return a


def read_csv_matrix(path) -> np.ndarray:
    return _read_csv(path, Path(path).read_bytes())


def write_binary_matrix(path, a: np.ndarray) -> None:
    a = np.ascontiguousarray(np.atleast_2d(a), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, a.shape[0], a.shape[1]))
        fh.write(a.data)


def read_binary_matrix(path) -> np.ndarray:
    return _read_binary(path, Path(path).read_bytes())


def _read_binary(path, raw: bytes) -> np.ndarray:
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated binary matrix header")
    magic, version, rows, cols = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic bytes {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + 8 * rows * cols
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    return np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(rows, cols).copy()


def read_matrix(path) -> np.ndarray:
    """Sniff the format by magic bytes, falling back to CSV."""
    data = Path(path).read_bytes()
    return _read_binary(path, data) if data[:4] == MAGIC else _read_csv(path, data)


def write_matrix(path, a: np.ndarray) -> None:
    """Write CSV for a .csv suffix, binary otherwise."""
    if Path(path).suffix.lower() == ".csv":
        write_csv_matrix(path, a)
    else:
        write_binary_matrix(path, a)


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
        raise FormatError(f"{path}: invalid {what}: {exc}") from exc


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def _integer(value, name: str, path, what: str) -> int:
    if type(value) is int or type(value) is float and value.is_integer():  # not inf, nan, bool
        return int(value)
    raise FormatError(f"{path}: invalid {what}: {name} must be an integer, got {value!r}")


def write_mask(path, pattern: VisibilityPattern) -> None:
    _write_json(path, {"ell": pattern.ell, "views": [{"hidden": list(h)} for h in pattern.hidden]})


def read_mask(path) -> VisibilityPattern:
    """Parse a mask file; an index that does not fit ``ell`` raises DimensionError."""
    obj = _read_json(path, "mask file")
    views = obj.get("views") if isinstance(obj, dict) else None
    if not isinstance(views, list) or not all(
            isinstance(v, dict) and isinstance(v.get("hidden"), list) for v in views):
        raise FormatError(f'{path}: invalid mask file: views must be a list of {{"hidden": [...]}}')
    ell = _integer(obj.get("ell"), "ell", path, "mask file")
    hidden = [[_integer(i, "hidden index", path, "mask file") for i in v["hidden"]] for v in views]
    return VisibilityPattern(ell=ell, hidden=hidden)


def write_trace(path, result) -> None:
    """trace.json of a :class:`mkmc.engines.CompletionResult`."""
    _write_json(path, {"objective": result.trace, "iterations": result.iterations,
                       "converged": result.converged, "dof": result.dof, "rank": result.rank,
                       "iter_ms": result.iter_ms, "residual": result.residual,
                       "step_length": result.step_length, "stop": result.stop,
                       "rejected": result.rejected})


def read_trace(path) -> dict:
    """Objective trace, iteration count and convergence flag of a trace.json."""
    obj = _read_json(path, "trace file")
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: invalid trace file: not a JSON object")
    objective, converged = obj.get("objective", []), obj.get("converged", True)
    if not isinstance(objective, list) or not all(type(v) in (int, float) for v in objective):
        raise FormatError(f"{path}: invalid trace file: objective must be a list of numbers")
    if not isinstance(converged, bool):
        raise FormatError(f"{path}: invalid trace file: converged must be true or false")
    return {"objective_trace": [float(v) for v in objective], "converged": converged,
            "iterations": _integer(obj.get("iterations", 0), "iterations", path, "trace file")}


def write_report(path, reports: dict) -> None:
    """Recovery report ``{"methods": {name: RecoveryReport fields}}``."""
    _write_json(path, {"methods": {name: r.to_json_dict() for name, r in reports.items()}})


def load_run_config(path) -> dict:
    """Parse a run-config JSON file into settings named like the CompletionConfig fields.

    The file holds one object with only the keys of ``RUN_CONFIG_KEYS``:
    ``inputs`` is a list of path strings, ``mask`` and ``output_dir`` are
    strings, ``max_iters`` is an integer, and ``rank`` is an integer or
    exactly ``{"criterion": name}``, returned as ``rank=None,
    rank_criterion=name``. The setting values themselves are checked by
    :class:`mkmc.engines.CompletionConfig`, as the flags are.
    """
    obj = _read_json(path, "run config")
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: invalid run config: not a JSON object")
    unknown = sorted(obj.keys() - RUN_CONFIG_KEYS)
    inputs = obj.get("inputs", [])
    rank = obj.get("rank")
    for bad, message in (
        (unknown, f"unknown keys {unknown}"),
        (not isinstance(inputs, list) or not all(isinstance(p, str) for p in inputs),
         "inputs must be a list of path strings"),
        (not all(isinstance(obj[k], str) for k in ("mask", "output_dir") if k in obj),
         "mask and output_dir must be path strings"),
        (isinstance(rank, dict) and not (
            rank.keys() == {"criterion"} and isinstance(rank["criterion"], str)),
         'rank must be an integer or {"criterion": name}'),
    ):
        if bad:
            raise FormatError(f"{path}: invalid run config: {message}")
    if isinstance(rank, dict):
        obj["rank"], obj["rank_criterion"] = None, rank["criterion"]
    elif "rank" in obj:
        obj["rank"] = _integer(rank, "rank", path, "run config")
    if "max_iters" in obj:
        obj["max_iters"] = _integer(obj["max_iters"], "max_iters", path, "run config")
    return obj
