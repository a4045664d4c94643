import json
import sys
import warnings

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mkmc import matrixio
from mkmc.engines import CompletionConfig, run_completion
from mkmc.errors import FormatError
from mkmc.views import Fill, VisibilityPattern, apply_mask

from conftest import random_pd, random_symmetric


SPECIAL_FLOATS = [0.0, -0.0, 1.0, -3.0, 2.0**53, 1e16, 0.1, 5e-324, -5e-324,
                  2.2250738585072009e-308, sys.float_info.min, sys.float_info.max,
                  -sys.float_info.max, np.nan, np.inf, -np.inf]


@st.composite
def csv_inputs(draw):
    """A 1x1 to 12x12 matrix in any memory layout, as float64, float32 or int64."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    layout = draw(st.sampled_from(["C", "F", "transposed", "strided", "float32", "int"]))
    if layout == "int":
        return draw(hnp.arrays(np.int64, shape, elements=st.integers(-2**63, 2**63 - 1)))
    values = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
    a = draw(hnp.arrays(np.float64, shape, elements=values))
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "transposed":
        return a.T
    if layout == "strided":
        return np.repeat(a, 2, axis=1)[:, ::2]
    if layout == "float32":
        with np.errstate(over="ignore"):
            return a.astype(np.float32)
    return a


class TestCsvFormat:
    def test_round_trip_exact(self, rng, tmp_path):
        a = random_symmetric(rng, 6)
        path = tmp_path / "m.csv"
        matrixio.write_csv_matrix(path, a)
        assert np.array_equal(matrixio.read_matrix(path), a)

    def test_one_by_one(self, tmp_path):
        path = tmp_path / "m.csv"
        matrixio.write_csv_matrix(path, np.array([[3.25]]))
        out = matrixio.read_matrix(path)
        assert out.shape == (1, 1) and out[0, 0] == 3.25

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\nfoo,bar\n")
        with pytest.raises(FormatError):
            matrixio.read_matrix(path)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(a=csv_inputs())
    @example(a=np.array([[-0.0]]))
    @example(a=np.array([[np.nan, -np.inf, 0.0, np.inf, -0.0]]))
    @example(a=np.array([[5e-324], [-sys.float_info.max], [1e16], [2.0**53 + 2]]))
    def test_round_trip_property(self, a, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        matrixio.write_csv_matrix(path, a)
        expected = np.asarray(a, dtype=float)
        out = matrixio.read_matrix(path)
        assert out.shape == expected.shape
        assert np.array_equal(out, expected, equal_nan=True)
        zeros = expected == 0
        assert np.array_equal(np.signbit(out[zeros]), np.signbit(expected[zeros]))
        assert b"null" not in path.read_bytes()


def loadtxt_reader(path):
    """The CSV reader as it was before the orjson path, kept as the oracle.

    Returns (matrix, None), or (None, the FormatError message).
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            a = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        return None, f"{path}: cannot parse as CSV matrix: {exc}"
    if a.size == 0:
        return None, f"{path}: cannot parse as CSV matrix: no data"
    return a, None


def assert_same_bits(out, expected):
    assert out.dtype == np.float64 and out.shape == expected.shape
    assert np.array_equal(out.view(np.int64), expected.view(np.int64))


EDGE_FLOATS = [0.0, -0.0, 1.0, -3.0, 2.0**53, 1e16, 5e-324, -5e-324, 2.2250738585072009e-308,
               1e-308, -1e-308, 1e308, -1e308, sys.float_info.max, -sys.float_info.max]


@st.composite
def numeric_csv(draw):
    """A finite matrix and the spelling of one writer: mkmc's, or np.savetxt's."""
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    writer = draw(st.sampled_from(["mkmc", "%.18e", "%.17g", "%d"]))
    if writer == "%d":
        return writer, draw(hnp.arrays(np.int64, shape, elements=st.integers(-2**63, 2**63 - 1)))
    values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from(EDGE_FLOATS))
    return writer, draw(hnp.arrays(np.float64, shape, elements=values))


class TestCsvReader:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=numeric_csv())
    @example(case=("%.17g", np.array([[-0.0, 3.0], [1e16, 5e-324]])))
    @example(case=("%.18e", np.array([[-0.0], [-5e-324], [sys.float_info.max]])))
    @example(case=("mkmc", np.array([[-0.0, 2.0**53 + 2, -1e-308]])))
    def test_equals_loadtxt(self, case, tmp_path_factory):
        writer, a = case
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        if writer == "mkmc":
            matrixio.write_csv_matrix(path, a)
        else:
            np.savetxt(path, a, fmt=writer, delimiter=",")
        expected = np.loadtxt(path, delimiter=",", ndmin=2)
        assert_same_bits(matrixio.read_matrix(path), expected)
        # every spelling but %.17g's integer -0 takes the orjson path
        if not (writer == "%.17g" and np.signbit(a[a == 0]).any()):
            assert_same_bits(matrixio._parse_plain_csv(path.read_bytes()), expected)

    @pytest.mark.parametrize("data", [
        b"1.5,2\r\n3,4.25\r\n", b"1.5,2\n3,4", b" 1.5 ,\t2\n3\t, 4 \n", b"1,2,3\n",
        b"1\n2\n3\n", b"7\n", b"# kernel\n1,2\n3,4\n", b"1,2\n\n3,4\n\n", b"nan,inf\n-inf,1\n",
        b"+1,2\n", b".5,1\n", b"1.,2\n", b"-0,1\n1,-0\n", b"1,2\n3,-0", b"-0\t,1\r\n",
        b"1e-0,2\n", b"1e400,1\n", b"1,2\n3,4,5\n", b"1,2\n3\n", b"1\n2,3\n", b"1,2,\n",
        b"true,1\n", b"null\n", b"[1]\n", b"1,2],[3,4\n", b"", b" \n\t\r\n",
    ])
    def test_fallback_table(self, data, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        expected, message = loadtxt_reader(path)
        if message is None:
            assert_same_bits(matrixio.read_matrix(path), expected)
        else:
            with pytest.raises(FormatError) as exc:
                matrixio.read_matrix(path)
            assert str(exc.value) == message

    def test_blank_lines_do_not_size_the_table(self, tmp_path):
        # a 10^6-value row over 10^6 blank lines must not allocate a 10^6 x 10^6 table
        path = tmp_path / "m.csv"
        path.write_bytes(b",".join([b"1"] * 10**6) + b"\n" * 10**6 + b"2" + b",2" * (10**6 - 1))
        expected, _ = loadtxt_reader(path)
        assert_same_bits(matrixio.read_matrix(path), expected)


def old_csv_bytes(a):
    """The one-call formula the writer used before it wrote row by row, kept as the oracle."""
    a = np.ascontiguousarray(np.atleast_2d(a), dtype=np.float64)
    body = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].replace(b"],[", b"\n")
    nonfinite = a[~np.isfinite(a)]
    if nonfinite.size:
        parts = body.split(b"null")
        body = b"".join(p + b"%.17g" % x for p, x in zip(parts, nonfinite)) + parts[-1]
    return body + b"\n"


class TestCsvWriterBytes:
    @pytest.mark.parametrize("a", [
        np.array([[2.5]]), np.array([[np.nan]]), np.array([[1.0, -0.0, np.inf, 3.0]]),
        np.array([[1.0], [np.nan], [-np.inf], [5e-324]]),
        np.array([[np.nan, 1.0, 2.0], [3.0, np.inf, 4.0],
                  [5.0, 6.0, -np.inf], [np.nan, 0.0, np.nan]]),
    ], ids=["1x1", "1x1-nan", "1xn", "nx1", "nonfinite-rows"])
    def test_equals_old_formula(self, a, tmp_path):
        path = tmp_path / "m.csv"
        matrixio.write_csv_matrix(path, a)
        assert path.read_bytes() == old_csv_bytes(a)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(a=csv_inputs())
    def test_equals_old_formula_property(self, a, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        matrixio.write_csv_matrix(path, a)
        assert path.read_bytes() == old_csv_bytes(a)


class TestBinaryFormat:
    def test_round_trip_exact(self, rng, tmp_path):
        a = random_symmetric(rng, 5)
        path = tmp_path / "m.mkm"
        matrixio.write_binary_matrix(path, a)
        assert np.array_equal(matrixio.read_matrix(path), a)

    def test_header_layout(self, rng, tmp_path):
        a = random_symmetric(rng, 3)
        path = tmp_path / "m.mkm"
        matrixio.write_binary_matrix(path, a)
        raw = path.read_bytes()
        assert raw[:4] == b"MKMC"
        assert raw[4] == 1
        assert int.from_bytes(raw[5:9], "little") == 3
        assert int.from_bytes(raw[9:13], "little") == 3
        assert len(raw) == 13 + 8 * 9

    def test_truncated_payload(self, rng, tmp_path):
        a = random_symmetric(rng, 3)
        path = tmp_path / "m.mkm"
        matrixio.write_binary_matrix(path, a)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            matrixio.read_matrix(path)


class TestSniffing:
    def test_read_matrix_dispatches(self, rng, tmp_path):
        a = random_symmetric(rng, 4)
        csv_path = tmp_path / "a.csv"
        bin_path = tmp_path / "a.mkm"
        matrixio.write_matrix(csv_path, a)
        matrixio.write_matrix(bin_path, a)
        assert np.array_equal(matrixio.read_matrix(csv_path), a)
        assert np.array_equal(matrixio.read_matrix(bin_path), a)


class TestMaskFile:
    def test_round_trip(self, tmp_path):
        pat = VisibilityPattern(ell=6, hidden=((1, 3), ()))
        path = tmp_path / "mask.json"
        matrixio.write_mask(path, pat)
        assert matrixio.read_mask(path) == pat

    def test_invalid_mask(self, tmp_path):
        path = tmp_path / "mask.json"
        path.write_text('{"nope": 1}')
        with pytest.raises(FormatError):
            matrixio.read_mask(path)


class TestTraceFile:
    def test_round_trip(self, rng, tmp_path):
        pattern = VisibilityPattern(ell=5, hidden=((0,), (3,)))
        masked = [apply_mask(random_pd(rng, 5), h, Fill.ZERO) for h in pattern.hidden]
        result = run_completion(masked, pattern, CompletionConfig(method="pca", rank=1))
        path = tmp_path / "trace.json"
        matrixio.write_trace(path, result)
        assert matrixio.read_trace(path) == {
            "objective_trace": result.trace,
            "iterations": result.iterations,
            "converged": result.converged,
        }
        layout = {"objective": result.trace, "iterations": result.iterations,
                  "converged": result.converged, "dof": result.dof, "rank": 1,
                  "iter_ms": result.iter_ms, "residual": result.residual,
                  "step_length": result.step_length, "stop": result.stop,
                  "rejected": result.rejected, "setup_ms": result.setup_ms}
        assert path.read_text() == json.dumps(layout, indent=2) + "\n"
        assert result.stop == "tol" and all(type(r) is float for r in result.residual)
        assert len(result.residual) == len(result.step_length) == len(result.trace)


class TestRunConfig:
    def test_valid_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            '{"method": "pca", "rank": {"criterion": "gk"}, "tol": 1e-8,'
            ' "inputs": ["a.csv"], "mask": "m.json", "output_dir": "out"}'
        )
        cfg = matrixio.load_run_config(path)
        assert cfg["method"] == "pca"
        assert cfg["rank"] is None and cfg["rank_criterion"] == "gk"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"method": "fc", "bogus": 1}')
        with pytest.raises(FormatError):
            matrixio.load_run_config(path)
