"""Compare two checkouts on one benchmark workload over alternating pairs of runs.

Usage::

    python tools/bench_pairs.py PARENT CHANGE WORKLOAD

Runs ``perfbench/run.py --trace 0`` of the checkouts ``PARENT`` and
``CHANGE`` in 10 pairs, one seed per pair (seeds 1 to 10), each run for the
``run_seconds`` of the parent's ``BENCHMARK.json``, one run at a time.  The
parent runs first in odd pairs and second in even ones, since the first run
of a pair reads faster on ``setup_s``.  For each end-to-end metric of the
parent's ``BENCHMARK.json`` that the workload reports, it prints the
parent's median and interquartile range, the change's median, their
relative difference, the metric's bound, and in how many pairs the change
was better by the metric's ``better``.  Refuses two checkouts whose paths
differ in length: ``output_mb`` counts the absolute output paths that each
``_meta.json`` echoes.  Run it on an otherwise idle machine: the numbers are
wall times.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_record import bench_run

PAIRS = 10


def compare(parent: Path, change: Path, workload: str) -> list[str]:
    """The report lines of ``PAIRS`` alternating runs of ``workload`` on both checkouts."""
    bench = json.loads((parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = {parent: [], change: []}
    for pair in range(PAIRS):
        order = (parent, change) if pair % 2 == 0 else (change, parent)
        for repo in order:
            runs[repo].append(bench_run(repo, workload, pair + 1, bench["run_seconds"])[0])
    lines = [f"{workload}: {PAIRS} alternating pairs, seeds 1-{PAIRS}, {bench['run_seconds']} s per run"]
    for name, repo in (("parent", parent), ("change", change)):
        lines.append(f"  {name}: correct {all(r['correct'] for r in runs[repo])}, "
                     f"failed {sum(r['failed'] for r in runs[repo])} of {sum(r['attempted'] for r in runs[repo])}")
    lines.append(f"  {'metric':<18}{'parent':>12}{'IQR':>10}{'change':>12}{'delta':>9}{'bound':>7}  wins")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        if name not in runs[parent][0]["metrics"]:
            continue
        old, new = ([r["metrics"][name]["value"] for r in runs[repo]] for repo in (parent, change))
        q1, _, q3 = statistics.quantiles(old, n=4, method="inclusive")
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        mid_old, mid_new = statistics.median(old), statistics.median(new)
        delta = f"{(mid_new - mid_old) / mid_old:+.1%}" if mid_old else "n/a"
        lines.append(f"  {name:<18}{mid_old:>12.4g}{q3 - q1:>10.3g}{mid_new:>12.4g}{delta:>9}{metric['bound']:>7.0%}"
                     f"  {wins}/{PAIRS} ({metric['better']})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("workload", help="a workload of perfbench/run.py")
    args = parser.parse_args(argv)
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    if len(str(parent)) != len(str(change)):
        parser.error(f"checkout paths differ in length ({parent}, {change}), so output_mb would differ too")
    print("\n".join(compare(parent, change, args.workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
