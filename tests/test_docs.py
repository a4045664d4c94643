"""Docstrings and comments in ``src/mkmc`` state formulas and costs, never a measured figure.

A timing depends on the host and goes stale with the code, so it lives where it is dated: in
README, beside the design choice it decided, or in CHANGES.md.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mkmc"

MEASURED = re.compile(r"\b\d+(?:\.\d+)?\s*(?:ms|µs|us|ns|s|secs?|seconds?|minutes?)\b"
                      r"|\bbest of\b|\bmeasured at\b|\bsessions?\b", re.I)


def prose(path: Path):
    """(line, text) of every docstring (by ``ast``) and ``#`` comment (by ``tokenize``)."""
    source = path.read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                yield node.body[0].lineno, doc
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.start[0], tok.string


@pytest.mark.parametrize("text, measured", [
    ("took 12 ms per step", True),
    ("0.5 s against", True),
    ("3.4 µs", True),
    ("best of 7", True),
    ("12-50 measured at the benchmark's shapes", True),
    ("in two sessions", True),
    ("O(ell^2 q) per step, 12 steps", False),
    ("sum_k n_v^3 / 3 flops", False),
    ("2 s_reg", False),
])
def test_pattern(text, measured):
    assert bool(MEASURED.search(text)) is measured


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_measured_figure_in_source_prose(path):
    found = []
    for line, text in prose(path):
        for m in MEASURED.finditer(text):
            at = line + text.count("\n", 0, m.start())
            found.append(f"{path.name}:{at}: {m.group(0)!r}")
    assert not found, found
