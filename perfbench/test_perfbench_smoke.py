"""Smoke test of the benchmark harness at tiny sizes (a few seconds in all).

Runs every workload untraced and traced in-process, checks that every metric
named in BENCHMARK.json is reported with its unit, that the correctness gate
passes, and that two runs at one seed agree on outputs and op counts. The
command-line contract (exit code, last-line JSON) is checked once.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

# As run.py does for the benchmark, pin BLAS to one thread if numpy is not
# loaded yet; otherwise the calibration kernel is slowed by thread contention.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    wl = harness.WORKLOADS[name]
    return dataclasses.replace(wl, ell=20, fraction=min(wl.fraction, 0.3), instances=1,
                               max_iters=min(wl.max_iters or 30, 30))


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_reported(name, traced):
    result, lines = harness.run_workload(tiny(name), seed=3, seconds=0.0, traced=traced,
                                         root=ROOT, setup_repeats=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 3
    expected = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if traced:
        accounting = next(line for line in lines if line.startswith("accounting:"))
        parts, total = [float(w) for w in accounting.split() if w.replace(".", "").isdigit()]
        assert parts == pytest.approx(total, rel=1e-9)


@pytest.mark.parametrize("name", ["converge", "cli"])
def test_same_seed_same_fingerprint(name):
    prints = []
    for _ in range(2):
        result, lines = harness.run_workload(tiny(name), seed=5, seconds=0.0, traced=True,
                                             root=ROOT, setup_repeats=1)
        prints.append(next(line for line in lines if line.startswith("fingerprint:")))
        assert result["correct"]
    assert prints[0] == prints[1]


def test_command_line_contract():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nope", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
