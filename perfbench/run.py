"""Run one workload of the mkmc benchmark and print its metrics.

    python3 perfbench/run.py --workload converge --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/``. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. See README.md in this directory.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS threads are fixed before numpy is first imported: default OpenBLAS
# threading on a small shared machine made some solves several times slower
# and far noisier. The setting is inherited by the import-timing subprocess.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mkmc" / "__init__.py").is_file():
        print(f"perfbench: no mkmc sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    result, lines = harness.run_workload(harness.WORKLOADS[args.workload], args.seed,
                                         args.seconds, bool(args.trace), ROOT)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
