"""Property-based invariants of the completion driver over random problems.

Examples are derandomized and the example database is off, so every run
checks the same bounded set of problems.

The descent is monotone in the objective the iteration minimizes. With
``reg_epsilon`` = eps > 0 the model update minimizes the view divergences plus
eps * LogDet(I, M), since (K S + eps I)/(K + eps) is the average of the views
and eps copies of I. The driver records that augmented sum, so its trace
itself is asserted monotone and equal to the dense augmented objective of
each accepted state; at eps = 0 it is the view sum.

An object hidden in every view carries no information, and the driver refuses
every problem with one, for every method and eps (``DimensionError``), so
``correlated`` masks that hide anything are refusal cases.

The driver imputes each view from the inverse of the point it evaluates the
map at; at every accepted iteration its hidden blocks equal those of the dense
conditional moments (``oracles.impute_from_model``) computed from that point: the
start model (``oracles.start_model``) for iteration 1, the previous model for a
later plain step, and for an extrapolated one the point
theta0 - 2 alpha r + alpha^2 v rebuilt from the recorded step length alpha and
the three previous models (r = theta1 - theta0, v = theta2 - 2 theta1 + theta0,
theta = M^{-1} for fc, (W, log sigma2) for pca, (W, log psi) for fa); an extrapolated fc
point P' is itself the inverse, imputed from by the partitioned-inverse formulas
(``oracles.impute_from_inverse``). The drawn problems are small (ell <= 12), so both
driver properties also run on explicit pca/fa examples at ell = 20 and 40. ``pca`` and
``fa`` never average the completed views in an iteration: they hold S_reg as S_0_reg plus
the imputed blocks in factors, whose products and diagonal (``fa``) and assembled matrix
(``pca``) equal those of the dense average of the written views.

A :class:`VisibilityPattern` built by a library caller obeys one integer rule:
``ell`` and every hidden index are integers of any integral type, numpy's
included, but not bools; anything else is a ``ConfigError`` (exit 2).

The rank a criterion picks does not depend on the kernels' units: scaling every input by
2^k leaves it unchanged, under ``gk`` and under ``kaiser``.

The CLI never exits 1: whatever values its flags, a run config, a mask file,
an ``evaluate --trace`` file or ``mask --seed`` carry, it ends in one of the
documented exit codes, and codes 3-5, like every error of ``evaluate``, print
exactly one ``mkmc: error:`` line.
"""

import itertools
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mkmc import engines, matrixio
from mkmc.cli import main
from mkmc.engines import (METHODS, CompletionConfig, FullModel, PcaModel, average_kernel,
                          impute_view, objective, regularize, run_completion)
from mkmc.errors import ConfigError, DimensionError
from mkmc.linalg import logdet_and_inverse, low_rank_logdet_and_inverse
from mkmc.views import Fill, VisibilityPattern, apply_mask, partition, random_mask

from conftest import random_pd
from oracles import (criterion_rank, factored_average_dense, impute_from_inverse, impute_from_model,
                     start_model)

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


def low_rank_examples():
    """pca and fa at ell = 20 and 40, eps in {0, 1e-3}, and every kind of mask."""
    out = []
    for i, (method, eps, kind) in enumerate(
            (m, e, k) for m in ("pca", "fa") for e in (0.0, 1e-3) for k in MASK_KINDS):
        ell, rank = (20, 1) if (i + i // len(MASK_KINDS)) % 2 else (40, 2)  # both, per kind
        if kind == "empty":
            hidden = ((), ())
        elif kind == "correlated":
            hidden = ((2, 5, 7, 11),) * 3
        elif kind == "single-visible-object":
            hidden = (tuple(j for j in range(ell) if j != 3), (3, 8), ())
        else:
            hidden = ((1, 4, 9), (0, 4, 15, 16), (2, 6))
        out.append((VisibilityPattern(ell=ell, hidden=hidden), method, rank, eps, 100 + i))
    return out


def with_low_rank_examples(test):
    for problem in low_rank_examples():
        test = example(problem)(test)
    return test


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problems())
@with_low_rank_examples
def test_completion_invariants(problem):
    pattern, method, rank, eps, seed = problem
    masked = masked_views(pattern, seed)
    cfg = CompletionConfig(method=method, rank=rank, reg_epsilon=eps, max_iters=30)
    unobserved = set.intersection(*map(set, pattern.hidden))
    if unobserved:
        with pytest.raises(DimensionError, match=r"^objects \[.*\] are hidden in every view$") as info:
            run_completion(masked, pattern, cfg)
        assert str(info.value) == f"objects {sorted(unobserved)} are hidden in every view"
        return
    descended = []

    def record(_it, completed, model):
        descended.append(objective(completed, model)
                         + eps * objective([np.eye(pattern.ell)], model))

    result = run_completion(masked, pattern, cfg, on_iteration=record)

    for given_q, c, h in zip(masked, result.completed, pattern.hidden):
        vis = np.setdiff1d(np.arange(pattern.ell), h)
        assert np.array_equal(c[np.ix_(vis, vis)], given_q[np.ix_(vis, vis)])
        assert np.linalg.eigvalsh(c)[0] > 0.0
    trace = np.array(result.trace)
    assert np.all(np.diff(trace) <= 1e-10 * np.maximum(1.0, np.abs(trace[:-1])))
    assert len(descended) == len(result.trace) == result.iterations - result.rejected
    for fast, ref in zip(result.trace, descended):
        assert fast == pytest.approx(ref, rel=1e-10)
    if not any(pattern.hidden):
        assert result.iterations == 1 and result.converged

    again = run_completion(masked, pattern, cfg)
    assert again.trace == result.trace
    for c, c2 in zip(result.completed, again.completed):
        assert np.array_equal(c, c2)


@pytest.mark.parametrize("criterion", ["gk", "kaiser"])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(problem=problems())
def test_rank_count_is_unit_free(criterion, problem):
    """Scaling every input by 2^k scales each visible block exactly, and ``gk``'s mean with
    it, while ``kaiser``'s correlation form does not move: the rank is the same at every k,
    and it is the oracle's lower median of the views' counts."""
    pattern, method, _, eps, seed = problem
    if set.intersection(*map(set, pattern.hidden)):
        return
    masked = masked_views(pattern, seed)
    cfg = CompletionConfig(method=method, rank_criterion=criterion, reg_epsilon=eps,
                           max_iters=1)
    ranks = [run_completion([q * 2.0 ** k for q in masked], pattern, cfg).rank
             for k in (-30, 0, 30)]
    assert ranks == [criterion_rank(masked, pattern, criterion)] * 3


def assert_close(fast, ref, rel=1e-10):
    assert np.linalg.norm(fast - ref) <= rel * np.linalg.norm(ref)


def extrapolated_point(three_models, alpha):
    """The point theta0 - 2 alpha r + alpha^2 v of three consecutive models and the oracle that
    imputes from it: ``fc``'s P' itself, theta being M^{-1} as ``logdet_and_inverse`` gives it
    to the driver, by impute_from_inverse; otherwise the model matrix, by impute_from_model."""
    def theta(model):
        if isinstance(model, FullModel):
            return [logdet_and_inverse(model.matrix)[1]]
        noise = model.sigma2 if isinstance(model, PcaModel) else model.psi
        return [model.W, np.log(np.atleast_1d(noise))]

    t0, t1, t2 = map(theta, three_models)
    point = [a - 2 * alpha * (b - a) + alpha ** 2 * (c - 2 * b + a) for a, b, c in zip(t0, t1, t2)]
    if len(point) == 1:
        return point[0], impute_from_inverse
    w, noise = point[0], np.exp(point[1])
    return w @ w.T + np.diag(np.broadcast_to(noise, (w.shape[0],))), impute_from_model


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problems())
@example((VisibilityPattern(ell=6, hidden=((0, 1, 2, 3, 5), (4,))), "fc", 1, 0.0, 3))
@example((VisibilityPattern(ell=6, hidden=((1, 2, 3, 4, 5), (0, 4), ())), "fa", 2, 1e-3, 4))
@example((VisibilityPattern(ell=5, hidden=((), ())), "pca", 2, 0.0, 5))
@with_low_rank_examples
def test_driver_imputes_like_dense_oracle(problem):
    pattern, method, rank, eps, seed = problem
    masked = masked_views(pattern, seed)
    if pattern.unobserved:
        return  # refused; see test_completion_invariants
    models, steps = [], []

    def record(_it, completed, model):
        steps.append([c.copy() for c in completed])
        models.append(model)

    cfg = CompletionConfig(method=method, rank=rank, reg_epsilon=eps, max_iters=30)
    result = run_completion(masked, pattern, cfg, on_iteration=record)
    for i, (completed, alpha) in enumerate(zip(steps, result.step_length)):
        impute = impute_from_model
        if i == 0:  # iteration 1 imputes from the start model
            m_prev = start_model(masked, pattern, method, rank, eps).materialize()
        elif alpha is None:
            m_prev = models[i - 1].materialize()
        else:
            m_prev, impute = extrapolated_point(models[i - 3:i], alpha)
        for c, h in zip(completed, pattern.hidden):
            if h:
                got = partition(c, h)
                q_vh, q_hh = impute(got.q_vv, m_prev, h)
                assert_close(c[got.vh], q_vh)
                assert_close(c[np.ix_(got.hid, got.hid)], q_hh)


@st.composite
def imputed_states(draw):
    """A zero-filled problem with unequal hidden sets, some views hiding nothing, and a random
    low-rank model of any rank 1..ell-1 to impute from."""
    ell = draw(st.integers(3, 12))
    n_views = draw(st.integers(1, 4))
    subset = st.lists(st.integers(0, ell - 1), unique=True, max_size=ell - 1).map(tuple)
    hidden = [draw(subset) for _ in range(n_views)]
    if draw(st.booleans()):  # the first view sees a single object
        keep = draw(st.integers(0, ell - 1))
        hidden[0] = tuple(i for i in range(ell) if i != keep)
    rank = draw(st.integers(1, ell - 1))
    eps = draw(st.sampled_from([0.0, 1e-3]))
    seed = draw(st.integers(0, 2**32 - 1))
    return VisibilityPattern(ell=ell, hidden=tuple(hidden)), rank, eps, seed


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(imputed_states())
@example((VisibilityPattern(ell=6, hidden=((), ())), 2, 0.0, 1))
@example((VisibilityPattern(ell=7, hidden=((0, 1, 2, 3, 4, 5), (6,), (), (2, 3))), 6, 1e-3, 2))
def test_imputed_average_matches_the_dense_average(state):
    """S_reg held as S_0_reg plus the imputed blocks, assembled before any view is written,
    matches regularize(average_kernel(completed)) once the views are written from the per-view
    step's blocks, and is exactly symmetric: as dense blocks imputed from a whole P (``fc``,
    accumulated row-wise) and in factors from a low-rank model (``pca`` and ``fa``), formed
    whole by the oracle, whose products and diagonal, all that a run reads, match too. Each
    holder's ``write`` writes those same views."""
    pattern, rank, eps, seed = state
    rng = np.random.default_rng(seed)
    completed = masked_views(pattern, seed)
    views = [(k, partition(c, h)) for k, (c, h) in enumerate(zip(completed, pattern.hidden)) if h]
    s0_reg = regularize(average_kernel(completed), pattern.n_views, eps)
    denom = pattern.n_views + eps
    inverse = low_rank_logdet_and_inverse(rng.standard_normal((pattern.ell, rank)),
                                          rng.uniform(0.1, 2.0, pattern.ell))[1]
    whole_p = random_pd(rng, pattern.ell)
    full = engines._ImputedAverage(s0_reg, denom, views,
                                   [impute_view(whole_p, view)[1:] for _, view in views])
    n_hiding = np.zeros(pattern.ell)  # the number of views hiding each object
    for _, view in views:
        n_hiding[view.hid] += 1.0
    factored = engines._FactoredAverage(s0_reg, denom, views, n_hiding, inverse,
                                        [impute_view(inverse, view, True)[1:] for _, view in views])
    for imputed, p, assembled in ((full, whole_p, full.dense()),
                                  (factored, inverse, factored_average_dense(factored))):
        written = [c.copy() for c in completed]
        for k, view in views:
            _, q_vh, q_hh = impute_view(p, view)
            written[k][view.vh], written[k][np.ix_(view.hid, view.vis)] = q_vh, q_vh.T
            written[k][np.ix_(view.hid, view.hid)] = q_hh
        dense = regularize(average_kernel(written), pattern.n_views, eps)
        assert_close(assembled, dense, rel=1e-12)
        assert np.array_equal(assembled, assembled.T)
        by_write = [c.copy() for c in completed]
        imputed.write(by_write)
        assert all(np.array_equal(got, ref) for got, ref in zip(by_write, written))
    x = rng.standard_normal((pattern.ell, rank))  # dense is the factored holder's S_reg here
    assert_close(factored @ x, dense @ x, rel=1e-12)
    assert_close(factored.diagonal(), np.diag(dense), rel=1e-12)


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
    (5, ((1, True),)),
    (5, ((0, 2.0),)),
], ids=["ell-fraction", "ell-float", "ell-string", "ell-bool", "index-fraction-and-bool",
        "index-float", "index-numpy-float", "index-numpy-bool", "index-none", "hidden-string",
        "index-int-and-bool", "index-int-and-float"])
def test_pattern_refuses_non_integers(ell, hidden):
    with pytest.raises(ConfigError, match="must be (an integer|integers), got") as info:
        VisibilityPattern(ell=ell, hidden=hidden)
    assert info.value.exit_code == 2
    if type(ell) is int:  # the per-view checks apply the same rule to each view's indices
        for check, h in itertools.product((apply_mask, partition), hidden):
            with pytest.raises(ConfigError, match="^hidden indices must be integers, got"):
                check(np.eye(ell), h)


def test_pattern_accepts_every_integral_type(tmp_path):
    pattern = VisibilityPattern(ell=np.int64(5), hidden=((np.int32(3), np.uint8(1)), (4,)))
    assert pattern.ell == 5 and pattern.hidden == ((1, 3), (4,))
    # stored as ints, so the pattern can be written as JSON
    assert all(type(i) is int for i in (pattern.ell, *pattern.hidden[0]))
    matrixio.write_mask(tmp_path / "mask.json", pattern)
    assert matrixio.read_mask(tmp_path / "mask.json") == pattern
    drawn = random_mask(np.int64(9), 3, 0.4, seed=np.uint32(2))
    assert VisibilityPattern(ell=drawn.ell, hidden=drawn.hidden) == drawn
    a = np.arange(25.0).reshape(5, 5)
    numpy_ints = (np.int32(3), np.uint8(1))
    assert np.array_equal(apply_mask(a, numpy_ints), apply_mask(a, (1, 3)))
    assert partition(a, numpy_ints).hid.tolist() == [1, 3]


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
