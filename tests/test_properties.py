"""Property-based invariants of the completion driver over random problems.

Examples are derandomized and the example database is off, so every run
checks the same bounded set of problems.

The descent is monotone in the objective the iteration minimizes. With
``reg_epsilon`` = eps > 0 the model update minimizes the view divergences plus
eps * LogDet(I, M), since (K S + eps I)/(K + eps) is the average of the views
and eps copies of I. The reported trace omits that term, so only the
augmented sum is asserted monotone; at eps = 0 the two coincide.

At eps = 0 an object hidden in every view leaves the zero-filled starting
average singular, and the driver must refuse the problem.

The driver imputes each view from the inverse of the model it holds; at every
iteration its hidden blocks equal those of the dense conditional moments
(:func:`impute_view`) computed from the previous model matrix.

A :class:`VisibilityPattern` built by a library caller obeys one integer rule:
``ell`` and every hidden index are integers of any integral type, numpy's
included, but not bools; anything else is a ``ConfigError`` (exit 2).

The CLI never exits 1: whatever values its flags, a run config, a mask file,
an ``evaluate --trace`` file or ``mask --seed`` carry, it ends in one of the
documented exit codes, and codes 3-5, like every error of ``evaluate``, print
exactly one ``mkmc: error:`` line.
"""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mkmc import matrixio
from mkmc.cli import main
from mkmc.engines import (METHODS, CompletionConfig, average_kernel, impute_view, objective,
                          regularize, run_completion)
from mkmc.errors import ConfigError, NumericalError
from mkmc.views import Fill, VisibilityPattern, apply_mask, partition, random_mask

from conftest import random_pd

MASK_KINDS = ("empty", "correlated", "single-visible-object", "independent")


@st.composite
def problems(draw):
    ell = draw(st.integers(3, 12))
    n_views = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(MASK_KINDS))
    subset = st.lists(st.integers(0, ell - 1), unique=True, max_size=ell - 1).map(tuple)
    if kind == "empty":
        hidden = ((),) * n_views
    elif kind == "correlated":
        hidden = (draw(subset),) * n_views
    elif kind == "single-visible-object":
        keep = draw(st.integers(0, ell - 1))
        first = tuple(i for i in range(ell) if i != keep)
        hidden = (first,) + tuple(draw(subset) for _ in range(n_views - 1))
    else:
        hidden = tuple(draw(subset) for _ in range(n_views))
    method = draw(st.sampled_from(METHODS))
    rank = draw(st.integers(1, ell - 1))
    eps = draw(st.sampled_from([0.0, 1e-3]))
    seed = draw(st.integers(0, 2**32 - 1))
    return VisibilityPattern(ell=ell, hidden=hidden), method, rank, eps, seed


def masked_views(pattern, seed):
    """Zero-filled views that share one random PD base matrix."""
    rng = np.random.default_rng(seed)
    base = random_pd(rng, pattern.ell)
    return [apply_mask(base + 0.1 * random_pd(rng, pattern.ell), h, Fill.ZERO)
            for h in pattern.hidden]


def hidden_everywhere(pattern) -> bool:
    return bool(set.intersection(*map(set, pattern.hidden)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problems())
def test_completion_invariants(problem):
    pattern, method, rank, eps, seed = problem
    masked = masked_views(pattern, seed)
    cfg = CompletionConfig(method=method, rank=rank, reg_epsilon=eps, max_iters=30)
    if eps == 0.0 and hidden_everywhere(pattern):
        with pytest.raises(NumericalError, match="initial model matrix"):
            run_completion(masked, pattern, cfg)
        return
    dense, descended = [], []

    def record(_it, completed, model):
        dense.append(objective(completed, model))
        descended.append(dense[-1] + eps * objective([np.eye(pattern.ell)], model))

    result = run_completion(masked, pattern, cfg, on_iteration=record)

    for given_q, c, h in zip(masked, result.completed, pattern.hidden):
        vis = np.setdiff1d(np.arange(pattern.ell), h)
        assert np.array_equal(c[np.ix_(vis, vis)], given_q[np.ix_(vis, vis)])
        assert np.linalg.eigvalsh(c)[0] > 0.0
    assert np.all(np.diff(descended) <= 1e-10 * np.maximum(1.0, np.abs(descended[:-1])))
    assert len(dense) == result.iterations
    for fast, ref in zip(result.trace, dense):
        assert fast == pytest.approx(ref, rel=1e-10)
    if not any(pattern.hidden):
        assert result.iterations == 1 and result.converged

    again = run_completion(masked, pattern, cfg)
    assert again.trace == result.trace
    for c, c2 in zip(result.completed, again.completed):
        assert np.array_equal(c, c2)


def assert_close(fast, ref, rel=1e-10):
    assert np.linalg.norm(fast - ref) <= rel * np.linalg.norm(ref)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problems())
@example((VisibilityPattern(ell=6, hidden=((0, 1, 2, 3, 5), (2,))), "fc", 1, 0.0, 3))
@example((VisibilityPattern(ell=6, hidden=((1, 2, 3, 4, 5), (0, 4), ())), "fa", 2, 1e-3, 4))
@example((VisibilityPattern(ell=5, hidden=((), ())), "pca", 2, 0.0, 5))
def test_driver_imputes_like_dense_oracle(problem):
    pattern, method, rank, eps, seed = problem
    masked = masked_views(pattern, seed)
    if eps == 0.0 and hidden_everywhere(pattern):
        return  # refused; see test_completion_invariants
    # iteration 1 imputes from the regularized average of the zero-filled views
    models = [regularize(average_kernel(masked), pattern.n_views, eps)]
    steps = []

    def record(_it, completed, model):
        steps.append([c.copy() for c in completed])
        models.append(model.materialize())

    cfg = CompletionConfig(method=method, rank=rank, reg_epsilon=eps, max_iters=30)
    run_completion(masked, pattern, cfg, on_iteration=record)
    for completed, m_prev in zip(steps, models):
        for c, h in zip(completed, pattern.hidden):
            if h:
                got = partition(c, h)
                q_vh, q_hh = impute_view(got.q_vv, partition(m_prev, h))
                assert_close(got.q_vh, q_vh)
                assert_close(got.q_hh, q_hh)


@pytest.mark.parametrize("ell, hidden", [
    (5.5, ((1,),)),
    (5.0, ((1,),)),
    ("5", ((1,),)),
    (True, ((),)),
    (5, ((1.5,), (True,))),
    (5, ((1.0,),)),
    (5, ((np.float64(2.0),),)),
    (5, ((np.bool_(True),),)),
    (5, ((None,),)),
    (5, ("12",)),
], ids=["ell-fraction", "ell-float", "ell-string", "ell-bool", "index-fraction-and-bool",
        "index-float", "index-numpy-float", "index-numpy-bool", "index-none", "hidden-string"])
def test_pattern_refuses_non_integers(ell, hidden):
    with pytest.raises(ConfigError, match="must be (an integer|integers), got") as info:
        VisibilityPattern(ell=ell, hidden=hidden)
    assert info.value.exit_code == 2


def test_pattern_accepts_every_integral_type(tmp_path):
    pattern = VisibilityPattern(ell=np.int64(5), hidden=((np.int32(3), np.uint8(1)), (4,)))
    assert pattern.ell == 5 and pattern.hidden == ((1, 3), (4,))
    # stored as ints, so the pattern can be written as JSON
    assert all(type(i) is int for i in (pattern.ell, *pattern.hidden[0]))
    matrixio.write_mask(tmp_path / "mask.json", pattern)
    assert matrixio.read_mask(tmp_path / "mask.json") == pattern
    drawn = random_mask(np.int64(9), 3, 0.4, seed=np.uint32(2))
    assert VisibilityPattern(ell=drawn.ell, hidden=drawn.hidden) == drawn


FLAG_TEXT = {
    "--method": ["fc", "pca", "fa", "svd"],
    "--rank": ["2", "5", "0", "6", "2.0"],
    "--tol": ["1e-8", "0.5", "inf", "nan", "0", "x"],
    "--max-iters": ["1", "5", "0", "2.5"],
    "--reg-epsilon": ["1e-3", "0", "-1", "inf", "nan"],
}
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.sampled_from([0.0, 2.0, 3.0, -1.0, 0.5, 1e-8, 1e-3]),
    st.sampled_from(["fc", "pca", "fa", "gk", "x", ""]),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(["criterion", "x"]), st.sampled_from(["gk", "kaiser", 1]),
                    max_size=2),
)
# Path keys never get a string, which could make a run write outside the test's directory.
PATH_VALUES = JSON_VALUES.filter(lambda v: not isinstance(v, str))
FRACTIONS = ["-0.1", "0", "0.2", "0.5", "0.9", "0.95", "1", "1.5", "nan", "x"]
SEEDS = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))
# File fields also get a number too large for a float.
FILE_VALUES = st.one_of(JSON_VALUES, st.just(math.inf))


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Six-object views, an independent mask and one hiding object 0 in both views."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    base = random_pd(rng, 6)
    views = []
    for k in range(2):
        path = root / f"view_{k}.csv"
        matrixio.write_csv_matrix(path, base + 0.1 * random_pd(rng, 6))
        views.append(str(path))
    masks = []
    for name, hidden in (("independent", [[0], [1]]), ("shared", [[0], [0]])):
        path = root / f"{name}.json"
        path.write_text(json.dumps({"ell": 6, "views": [{"hidden": h} for h in hidden]}))
        masks.append(str(path))
    return root, views, masks


def write_json(path, obj) -> str:
    """Write ``obj`` with each infinity spelled ``1e400``, as a file from elsewhere may."""
    path.write_text(json.dumps(obj).replace("Infinity", "1e400"))
    return str(path)


@st.composite
def mask_files(draw, root):
    """A two-view mask with ``ell``, a view's ``hidden`` or one hidden index drawn."""
    obj = {"ell": 6, "views": [{"hidden": [0]}, {"hidden": [1]}]}
    view = draw(st.sampled_from(obj["views"]))
    field, value = draw(st.sampled_from(["ell", "hidden", "index"])), draw(FILE_VALUES)
    if field == "ell":
        obj["ell"] = value
    else:
        view["hidden"] = value if field == "hidden" else [value]
    return write_json(root / "drawn_mask.json", obj)


@st.composite
def trace_files(draw, root):
    """A trace with ``objective``, one objective value, ``iterations`` or ``converged`` drawn."""
    obj = {"objective": [2.0, 1.0], "iterations": 2, "converged": True}
    field, value = draw(st.sampled_from([*obj, "value"])), draw(FILE_VALUES)
    if field == "value":
        obj["objective"][1] = value
    else:
        obj[field] = value
    return write_json(root / "drawn_trace.json", obj)


@st.composite
def cli_calls(draw, root, views, masks):
    out = str(root / "out")
    # complete, which takes the most kinds of input, is drawn half of the time
    command = draw(st.sampled_from(["mask", "evaluate", "complete", "complete"]))
    if command == "mask":
        return ["mask", "--fraction", draw(st.sampled_from(FRACTIONS)),
                "--seed", str(draw(SEEDS)), "--out-dir", out, *views]
    mask = draw(st.one_of(st.sampled_from(masks), mask_files(root)))
    if command == "evaluate":
        return ["evaluate", "--mask", mask, "--trace", draw(trace_files(root)),
                "--out", str(root / "report.json"),
                *[a for p in views for a in ("--truth", p, "--completed", p)]]
    flags = [a for flag, texts in FLAG_TEXT.items() if draw(st.booleans())
             for a in (flag, draw(st.sampled_from(texts)))]
    args = ["complete", "--max-iters", draw(st.sampled_from(["1", "5"])), *flags]
    if not draw(st.booleans()):
        return args + ["--mask", mask, "--output-dir", out, *views]
    config = {"inputs": views, "mask": mask, "output_dir": out}
    settings_keys = ["method", "rank", "tol", "max_iters", "reg_epsilon"]
    for key in draw(st.sets(st.sampled_from(settings_keys), max_size=2)):
        config[key] = draw(FILE_VALUES)
    for key in draw(st.sets(st.sampled_from(["inputs", "mask", "output_dir"]), max_size=1)):
        config[key] = draw(PATH_VALUES)
    path = root / "run.json"
    path.write_text(json.dumps(config))
    return args + ["--config", str(path)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_never_exits_1(cli_files, data):
    args = data.draw(cli_calls(*cli_files))
    res = CliRunner().invoke(main, args)
    assert res.exit_code in (0, 2, 3, 4, 5), (args, repr(res.exception))
    assert "Traceback" not in res.output
    if res.exit_code >= 3 or res.exit_code and args[0] == "evaluate":
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("mkmc: error: "), res.output
