"""Tests of the benchmark itself: ``python3 -m pytest perfbench/test_drill.py``.

The regression drill slows ``tv_core.diameter`` through the tracer's
wrapper and requires the comparison to flag ``table_scan`` and to leave
``exact_impact`` alone, then damages one output and requires the
failure count to see it.  The drill takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (first: it puts the checkout's src/ on the path)
import check  # noqa: E402
import compare  # noqa: E402
import models  # noqa: E402
import tracer  # noqa: E402
from tvrobust import parse_model  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
DRILL_SECONDS = 4
DRILL_SEEDS = (101, 102, 103)


@pytest.mark.parametrize("workload", models.WORKLOADS)
def test_same_seed_gives_identical_files(workload):
    files, queries = models.generate(workload, 5)
    again, queries_again = models.generate(workload, 5)
    other, _ = models.generate(workload, 6)
    assert files == again and queries == queries_again
    assert files.keys() == other.keys() and files != other


def _runs(workload, slow=None):
    out = []
    for seed in DRILL_SEEDS:
        _, failed, metrics, _ = run.run_workload(
            workload, seed, DRILL_SECONDS, trace=False, slow=slow)
        assert failed == 0
        out.append((workload, {k: v for k, (v, _) in metrics.items()}))
    return out


def test_slow_diameter_is_flagged_on_table_scan_only():
    slow = {"tv_core.diameter": 2.0}
    base, new = [], []
    for workload in ("table_scan", "exact_impact"):
        base += _runs(workload)
        new += _runs(workload, slow)
    table = compare.verdicts(base, new, SPEC["end_to_end"])
    assert table[("table_scan", "ops_per_s")][2] == "worse"
    assert table[("table_scan", "latency_p90_ms")][2] == "worse"
    for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms",
                 "ops_ok_ratio"):
        assert table[("exact_impact", name)][2] != "worse", name


def test_one_corrupted_output_is_counted():
    attempted, failed, metrics, facts = run.run_workload(
        "model_edits", 7, 1, trace=False, corrupt=5)
    assert failed == 1
    assert facts["ops_failed_ratio"] == pytest.approx(1 / attempted)
    assert metrics["ops_ok_ratio"][0] == pytest.approx(1 - 1 / attempted)


def _first_outcome(workload, kind):
    files, queries = models.generate(workload, 3)
    qi = next(i for i, q in enumerate(queries) if q["kind"] == kind)
    query = queries[qi]
    net = parse_model(files[query["model"]])
    return net, query


def test_checker_rejects_a_wrong_diameter():
    net, query = _first_outcome("table_scan", "diameters")
    rows = [{"variable": n, "value": check.ref_diameter(net.cpt(n))}
            for n in net.names()]
    doc = {"diameters": rows}
    check.check_outcome(net, query, 0, json.dumps(doc), "")
    rows[-1]["value"] += 1e-6
    with pytest.raises(check.CheckError):
        check.check_outcome(net, query, 0, json.dumps(doc), "")


def test_checker_accepts_the_documented_bound_gap_only():
    net, query = _first_outcome("priority_bound", "impact_bound")
    gap = "error: cannot bound P(V1 | V2): conditioning set of V1 " \
          "contains descendant(s) V2\n"
    check.check_outcome(net, query, 1, "", gap)
    with pytest.raises(check.CheckError):
        check.check_outcome(net, query, 1, "", "error: unknown variable\n")


def test_trace_reports_every_layer_metric():
    attempted, failed, metrics, _ = run.run_workload("table_scan", 4, 2,
                                                     trace=True)
    assert failed == 0 and attempted > 0
    assert {m["name"] for m in SPEC["per_layer"]} == set(metrics)
    self_times = {k: v for k, (v, _) in metrics.items()
                  if k.endswith(".self_s")}
    assert max(self_times, key=self_times.get) == "tv_core.diameter.self_s"
    assert set(tracer.SPAN_NAMES) <= {k.rsplit(".", 1)[0] for k in metrics}


def test_exits_without_a_result_when_the_source_is_missing(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
