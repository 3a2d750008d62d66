"""Host wall-clock benchmark of the SLAM backend on two workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload sphere-chrono --seed 1 \\
        --seconds 55 --trace 0

Runs timed passes over freshly generated inputs for about
``--seconds`` (at least one pass), checks every pass's outputs, and
prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
of an instrumented run (``--trace 1``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the workloads and the
metric map.
"""

from __future__ import annotations

import os
import sys

#: Environment pinned before numpy is first imported: one BLAS/OpenMP
#: thread (default OpenBLAS threads cost 2-3x on a 2-core host, see the
#: README) and a fixed hash seed.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _pin_environment() -> None:
    """Re-execute this script once with :data:`PINNED_ENV` set.

    ``PYTHONHASHSEED`` only takes effect at interpreter start, and BLAS
    reads its thread count when it is loaded, so the variables must be
    in place before the process starts rather than set from inside it.
    """
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable,
             [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"error: no repro package under {source}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    sys.path.insert(0, HERE)

    from harness import run_benchmark  # noqa: E402 (needs the paths)

    return run_benchmark(args.workload, args.seed, args.seconds,
                         bool(args.trace))


if __name__ == "__main__":
    _pin_environment()
    sys.exit(main())
