"""Compare benchmark results and keep the history.

``compare BASE.json HEAD.json [HEAD2.json ...]`` lines each head file up
against the base, per (end-to-end metric, workload), over the untraced
runs each file holds (``python -m bench --seed 1 2 3 ... -o FILE``).
Following the choosing-metrics rule:

* ``regression`` -- the head median is worse than the base median by
  more than the metric's bound;
* ``unresolved`` -- either side's run-to-run spread (quartile distance
  over median) is wider than the bound, unless every head run reads
  better than every base run (then ``ok``) or every head run reads
  worse and the median moved past the bound (then ``regression``);
* ``ok`` -- otherwise.

The bounds are ``BENCHMARK.json``'s, plus :data:`EXTRA_METRICS`.
``history`` appends one row of medians, with the commit and a machine
fingerprint, to ``bench/history.jsonl``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: end-to-end metric every workload reports beside BENCHMARK.json's (for
#: ``live-http`` it is the ingest rate).  The live query latencies are
#: reported but carry no bound: the load generator's own stalls set
#: their run-to-run spread (see bench/README.md).
EXTRA_METRICS = (
    {"name": "contacts_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
)


def definition() -> dict:
    """The benchmark definition, ``BENCHMARK.json`` at the repo root."""
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"))


def metric_specs() -> list[dict]:
    return list(definition()["end_to_end"]) + list(EXTRA_METRICS)


def load_runs(path: Path) -> list[dict]:
    """The untraced run records of a suite output or one detail file."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    runs = data["runs"] if "runs" in data else [data]
    return [run for run in runs if not run["trace"]]


def values_of(runs: list[dict], workload: str, metric: str) -> list[float]:
    found = []
    for run in runs:
        if run["workload"] != workload:
            continue
        entry = run["end_to_end"].get(metric) or run["extra_metrics"].get(metric)
        if entry is not None:
            found.append(float(entry["value"]))
    return found


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def classify(base: list[float], head: list[float], spec: dict) -> tuple[str, float]:
    """``(status, relative change of the median)`` for one pairing."""
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    change = (hm - bm) / bm
    worse = change if spec["better"] == "lower" else -change
    bound = spec["bound"]
    spread = max((b3 - b1) / bm, (h3 - h1) / hm)
    if spec["better"] == "lower":
        all_better = max(head) < min(base)
        all_worse = min(head) > max(base)
    else:
        all_better = min(head) > max(base)
        all_worse = max(head) < min(base)
    if spread > bound:
        if all_better:
            return "ok", change
        if all_worse and worse > bound:
            return "regression", change
        return "unresolved", change
    return ("regression" if worse > bound else "ok"), change


def _span(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(base_path: Path, head_path: Path) -> int:
    """Print the comparison table; returns the number of regressions."""
    base, head = load_runs(base_path), load_runs(head_path)
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in head})
    print(f"== {base_path} -> {head_path}")
    print(f"  {'workload':14s} {'metric':15s} {'base median [q1, q3]':>32s} "
          f"{'head median [q1, q3]':>32s} {'change':>8s}  status")
    regressions = 0
    for workload in workloads:
        for spec in metric_specs():
            b = values_of(base, workload, spec["name"])
            h = values_of(head, workload, spec["name"])
            if not b or not h:
                continue
            status, change = classify(b, h, spec)
            regressions += status == "regression"
            note = "" if status == "ok" else f" (bound {spec['bound']:.0%})"
            print(f"  {workload:14s} {spec['name']:15s} {_span(b):>32s} "
                  f"{_span(h):>32s} {100 * change:>+7.1f}%  {status}{note}")
        digests = {r["seed"]: r["digest"] for r in base if r["workload"] == workload}
        same = [r["digest"] == digests[r["seed"]] for r in head
                if r["workload"] == workload and r["seed"] in digests]
        if same:
            print(f"  {workload:14s} outputs: {sum(same)}/{len(same)} seeds "
                  "digest-identical")
    return regressions


def compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare")
    parser.add_argument("base", type=Path)
    parser.add_argument("heads", type=Path, nargs="+")
    args = parser.parse_args(argv)
    regressions = sum(compare(args.base, head) for head in args.heads)
    return 1 if regressions else 0


def machine() -> dict:
    """Where the numbers were measured."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=HERE.parent,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def history_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench history")
    parser.add_argument("results", type=Path, nargs="+",
                        help="suite outputs (python -m bench -o FILE)")
    parser.add_argument("--commit", default=None,
                        help="commit measured (default: git HEAD)")
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    runs = [run for path in args.results for run in load_runs(path)]
    medians = {}
    for workload in sorted({run["workload"] for run in runs}):
        names = {name for run in runs if run["workload"] == workload
                 for name in (*run["end_to_end"], *run["extra_metrics"])}
        medians[workload] = {
            name: statistics.median(values_of(runs, workload, name))
            for name in sorted(names)
        }
    row = {
        "date": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "commit": args.commit or _commit(),
        "machine": machine(),
        "seeds": sorted({run["seed"] for run in runs}),
        "runs": len(runs),
        "medians": medians,
        "note": args.note,
    }
    with open(HERE / "history.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"appended {row['commit']} ({len(runs)} runs) to bench/history.jsonl")
    return 0
