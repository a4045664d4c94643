"""Matrix, mask, and config file formats used by the CLI.

Matrices travel either as headerless CSV (17 significant digits, so float64
round-trips exactly) or as a small binary format: magic ``MKMC``, a version
byte, row and column counts as little-endian uint32, then row-major
little-endian float64 payload.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError
from .views import VisibilityPattern

MAGIC = b"MKMC"
VERSION = 1
_HEADER = struct.Struct("<4sBII")

RUN_CONFIG_KEYS = frozenset(
    {"method", "rank", "tol", "max_iters", "reg_epsilon", "inputs", "mask", "output_dir"}
)


def write_csv_matrix(path, a: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(a), fmt="%.17g", delimiter=",")


def read_csv_matrix(path) -> np.ndarray:
    try:
        a = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: cannot parse as CSV matrix: {exc}") from exc
    return a


def write_binary_matrix(path, a: np.ndarray) -> None:
    a = np.atleast_2d(np.asarray(a, dtype="<f8"))
    header = _HEADER.pack(MAGIC, VERSION, a.shape[0], a.shape[1])
    Path(path).write_bytes(header + a.tobytes(order="C"))


def read_binary_matrix(path) -> np.ndarray:
    raw = Path(path).read_bytes()
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
    return np.frombuffer(raw[_HEADER.size :], dtype="<f8").reshape(rows, cols).copy()


def read_matrix(path) -> np.ndarray:
    """Sniff the format by magic bytes, falling back to CSV."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return read_binary_matrix(path)
    return read_csv_matrix(path)


def write_matrix(path, a: np.ndarray) -> None:
    """Write CSV for a .csv suffix, binary otherwise."""
    if Path(path).suffix.lower() == ".csv":
        write_csv_matrix(path, a)
    else:
        write_binary_matrix(path, a)


def write_mask(path, pattern: VisibilityPattern) -> None:
    Path(path).write_text(json.dumps(pattern.to_json_dict(), indent=2) + "\n")


def read_mask(path) -> VisibilityPattern:
    try:
        obj = json.loads(Path(path).read_text())
        return VisibilityPattern.from_json_dict(obj)
    except DimensionError:
        raise  # well-formed, but the indices do not fit ``ell``
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise FormatError(f"{path}: invalid mask file: {exc}") from exc


def read_trace(path) -> dict:
    """Objective trace, iteration count and convergence flag of a trace.json."""
    try:
        obj = json.loads(Path(path).read_text())
        return {
            "objective_trace": [float(v) for v in obj.get("objective", [])],
            "iterations": int(obj.get("iterations", 0)),
            "converged": bool(obj.get("converged", True)),
        }
    except (ValueError, TypeError, AttributeError) as exc:  # JSONDecodeError is a ValueError
        raise FormatError(f"{path}: invalid trace file: {exc}") from exc


def load_run_config(path) -> dict:
    """Parse a run-config JSON file and check its shape.

    The file holds one object with only the keys of ``RUN_CONFIG_KEYS``:
    ``inputs`` is a list of path strings, ``mask`` and ``output_dir`` are
    strings, and ``rank`` is an integer or exactly ``{"criterion": name}``.
    JSON does not tell 2 from 2.0, so an integral float ``rank`` or
    ``max_iters`` is read as an int. The setting values themselves are
    checked by :class:`mkmc.engines.CompletionConfig`, as the flags are.
    """
    try:
        obj = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError alike
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
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
        ("rank" in obj and rank is None or isinstance(rank, dict) and not (
            rank.keys() == {"criterion"} and isinstance(rank["criterion"], str)),
         'rank must be an integer or {"criterion": name}'),
    ):
        if bad:
            raise FormatError(f"{path}: invalid run config: {message}")
    for key in ("rank", "max_iters"):
        if isinstance(obj.get(key), float) and obj[key].is_integer():
            obj[key] = int(obj[key])
    return obj
