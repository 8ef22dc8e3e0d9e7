"""Command line of the benchmark.

    python -m bench [--seed S ...] [--seconds T] [--trace] [-o OUT.json]
        every workload, each in a fresh process, one after another
    python -m bench --workload W --seed S --seconds T --trace 0|1
        one workload in this process (the form BENCHMARK.json names)
    python -m bench compare BASE.json HEAD.json [HEAD2.json ...]
    python -m bench history OUT.json [OUT2.json ...] [--commit SHA]

The program is imported from ``src/`` next to this directory; without
it the benchmark exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: the program's sources are missing ({src / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from bench.compare import compare_main, definition, history_main

    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    if argv[:1] == ["history"]:
        return history_main(argv[1:])

    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("--workload", default=None,
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, nargs="+", default=[1],
                        help="workload seed(s); one run per seed")
    parser.add_argument("--seconds", type=float,
                        default=definition()["run_seconds"],
                        help="measurement budget of one run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced run (per-layer metrics)")
    parser.add_argument("-o", "--output", type=Path, default=None,
                        help="write every run's detail to this JSON file")
    args = parser.parse_args(argv)

    from bench.run import run_one, run_suite
    from bench.workloads import WORKLOADS

    if args.workload is None:
        return run_suite(args.seed, args.seconds, bool(args.trace), args.output)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(WORKLOADS)})")
    if len(args.seed) != 1:
        parser.error("--workload takes a single --seed")
    return run_one(args.workload, args.seed[0], args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
