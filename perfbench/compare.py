"""Compare two sets of benchmark runs with the bounds in BENCHMARK.json.

    python3 perfbench/compare.py --base a1.out a2.out ... --new b1.out b2.out ...

Each file holds the stdout of one ``run.py --trace 0`` run of a single
workload.  For every workload and end-to-end metric the medians of the
two sets are compared: a change worse than the metric's bound, as a
share of the base median, is ``worse``; one better by more than the
bound is ``better``; anything else is ``same``.  The exit code is 1
when any metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read_run(path) -> tuple[str, dict]:
    """(workload, {metric: value}) from one run's stdout."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    facts = json.loads(next(ln for ln in lines
                            if ln.startswith("facts "))[len("facts "):])
    result = json.loads(lines[-1])
    return facts["workload"], {k: v["value"]
                               for k, v in result["metrics"].items()}


def verdicts(base: list[tuple[str, dict]], new: list[tuple[str, dict]],
             end_to_end: list[dict]) -> dict[tuple[str, str], tuple]:
    """(workload, metric) -> (base median, new median, verdict)."""
    out = {}
    for workload in sorted({w for w, _ in base} & {w for w, _ in new}):
        for metric in end_to_end:
            name = metric["name"]
            b = statistics.median(m[name] for w, m in base if w == workload)
            n = statistics.median(m[name] for w, m in new if w == workload)
            loss = (n - b) / b if metric["better"] == "lower" else (b - n) / b
            verdict = ("worse" if loss > metric["bound"]
                       else "better" if loss < -metric["bound"] else "same")
            out[(workload, name)] = (b, n, verdict)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    table = verdicts([read_run(p) for p in args.base],
                     [read_run(p) for p in args.new], spec["end_to_end"])
    for (workload, name), (b, n, verdict) in table.items():
        print(f"{workload:<15} {name:<16} {b:>12.6g} {n:>12.6g} {verdict}")
    return int(any(v == "worse" for _, _, v in table.values()))


if __name__ == "__main__":
    sys.exit(main())
