"""DeepOHeat end-to-end benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 20 --trace 0

``--workload`` is ``serve_mix``, ``solve_iter`` or ``train`` (see
README.md in this directory for what each measures and why).  With
``--trace 0`` the run measures the end-to-end metrics over three fresh
program processes of a third of ``--seconds`` each; with ``--trace 1``
one process alternates untraced and traced rounds and reports the
per-layer metrics, the self-time table and the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout and driven only
through its public API (``repro.api``, ``repro.serve``, ``repro.fdm``,
``repro.core``).
"""

from __future__ import annotations

import time

IMPORT_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402

# Thread pins must be in the environment before numpy loads BLAS.
os.environ.update(common.PINNED_ENV)

WORKLOADS = ("serve_mix", "solve_iter", "train")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--segment", type=int, default=None,
                        help="internal: run one timed process of an "
                             "untraced run and print its raw figures")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one workload and print its result line."""
    args = _parse(argv)
    src = common.ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source at {src}/repro; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.seconds <= 0:
        print("benchmark: --seconds must be positive", file=sys.stderr)
        return 2

    print("pinned: " + ", ".join(
        f"{k}={v}" for k, v in sorted(common.PINNED_ENV.items())), flush=True)
    if args.workload == "serve_mix":
        import serve_mix as workload
    elif args.workload == "solve_iter":
        import solve_iter as workload
    else:
        import train as workload

    if args.trace:
        workload.traced(args.seed, args.seconds, IMPORT_START)
    elif args.segment is not None:
        print(json.dumps(workload.segment(args.seed, args.seconds,
                                          args.segment, IMPORT_START)),
              flush=True)
    elif args.workload == "serve_mix":
        workload.untraced(args.seed, args.seconds)
    else:
        common.run_segments(args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
