"""tvrobust benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload exact_impact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Each run writes seeded model
files into ``.perfbench_work/`` at the repository root, measures
set-up in fresh processes, then runs one closed-loop client (one query
at a time, a single thread, BLAS/OpenMP threads 1, ``TVROBUST_LIMIT``
unset) in a fresh child process and reads that child's peak RSS with
``os.wait4``.  Outputs are checked after the child exits.

Times are wall-clock times rescaled for the speed of the machine at
the moment they were taken (see CAL_REF_S below); the unscaled
figures are printed in the ``facts`` line next to the result.

With ``--trace 0`` the metrics are those of BENCHMARK.json's
``end_to_end``; with ``--trace 1`` a traced child records spans around
tvrobust's public functions and an untraced child repeats the same
number of query cycles, giving ``trace.overhead_ratio``.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# fresh processes timed for setup_s; one untimed process runs first so
# that every timed one finds the byte-code cache already written
SETUP_RUNS = 5
# a child that runs this much longer than asked is killed
CHILD_GRACE_S = 120
# The host's speed swings by up to 40% within seconds, from load outside
# the benchmark.  Every reported time is therefore rescaled to a machine
# on which worker.calibrate(), a fixed pure-Python kernel timed between
# queries and around set-up, takes CAL_REF_S; the wall-clock figures
# are printed alongside in the facts line.
CAL_REF_S = 1e-3

# the package is built from this checkout's source or not at all
if not (SRC / "tvrobust" / "__init__.py").is_file():
    sys.exit(f"perfbench: no tvrobust package under {SRC}")
sys.path[:0] = [str(SRC), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import check  # noqa: E402
import models  # noqa: E402
import tracer  # noqa: E402
from tvrobust import parse_model  # noqa: E402


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TVROBUST_LIMIT"}
    env.update(PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(workdir: Path, spec: dict, name: str, seconds: float):
    """Run worker.py on ``spec``; returns (result, peak RSS in MB)."""
    spec = dict(spec, result=str(workdir / f"{name}.result.json"))
    spec_path = workdir / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
        env=_child_env(), stdout=subprocess.DEVNULL)
    timer = threading.Timer(seconds + CHILD_GRACE_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {name} exited with {proc.returncode}")
    result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    return result, usage.ru_maxrss / 1024.0


def _tally(result, nets, queries):
    """(attempted, failed, reasons) over every query the child sent."""
    verdicts = check.failures(nets, queries, result["outcomes"])
    failed = sum(1 for i in result["outcome_ids"] if verdicts[i] is not None)
    return len(result["outcome_ids"]), failed, [v for v in verdicts if v]


def host_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 slow: dict | None = None, corrupt: int | None = None):
    """Generate, run and check one workload.

    Returns (attempted, failed, metrics, facts), metrics mapping a name
    to (value, unit).  ``slow`` and ``corrupt`` inject faults for the
    regression drill: a slowdown factor per function, and the index of
    one query whose output is damaged.
    """
    files, queries = models.generate(workload, seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        for fname, text in files.items():
            (workdir / fname).write_text(text, encoding="utf-8")
        nets = {fname: parse_model(text) for fname, text in files.items()}
        spec = {"files": list(files), "queries": queries,
                "bench_dir": str(BENCH_DIR), "seconds": seconds,
                "slow": slow or {}, "corrupt": corrupt}
        facts = {"workload": workload, "seed": seed, "queries_per_cycle":
                 len(queries)}
        if trace:
            return _traced(workdir, spec, nets, queries, facts)
        return _untraced(workdir, spec, nets, queries, facts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _kind_at(lat_ms, kinds, p: float) -> str:
    """Query kind(s) of the two samples a quantile interpolates between."""
    order = sorted(range(len(lat_ms)), key=lat_ms.__getitem__)
    at = p * (len(order) + 1) - 1
    lo, hi = max(0, int(at)), min(len(order) - 1, int(at) + 1)
    return "|".join(sorted({kinds[order[lo]], kinds[order[hi]]}))


def _scaled(times, cal) -> list[float]:
    """Each time rescaled by the mean calibration time just before and
    just after it (``cal`` holds one more entry than ``times``)."""
    return [t * 2.0 * CAL_REF_S / (cal[i] + cal[i + 1])
            for i, t in enumerate(times)]


def _untraced(workdir, spec, nets, queries, facts):
    setup_only = dict(spec, setup_only=True)
    spawn(workdir, setup_only, "warmup", 0)
    setups = [spawn(workdir, setup_only, f"setup{i}", 0)[0]
              for i in range(SETUP_RUNS)]
    result, rss_mb = spawn(workdir, spec, "loop", spec["seconds"])
    attempted, failed, reasons = _tally(result, nets, queries)
    raw_ms = [x * 1000.0 for x in result["latencies"]]
    lat_ms = _scaled(raw_ms, result["cal"])
    cuts = statistics.quantiles(lat_ms, n=10)
    raw_cuts = statistics.quantiles(raw_ms, n=10)
    kinds = [queries[result["outcomes"][i][0]]["kind"]
             for i in result["outcome_ids"]]
    metrics = {
        "ops_per_s": (1000.0 * len(lat_ms) / sum(lat_ms), "1/s"),
        "latency_p50_ms": (cuts[4], "ms"),
        "latency_p90_ms": (cuts[8], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(
            r["setup_s"] * CAL_REF_S / statistics.median(r["cal"])
            for r in setups), "s"),
        "ops_ok_ratio": (1.0 - failed / attempted, "ratio"),
    }
    facts.update(
        cycles=result["cycles"], samples=attempted,
        samples_above_p90=sum(1 for x in lat_ms if x > cuts[8]),
        p50_kind=_kind_at(lat_ms, kinds, 0.5),
        p90_kind=_kind_at(lat_ms, kinds, 0.9),
        setup_runs=SETUP_RUNS, ops_failed_ratio=failed / attempted,
        wall_ops_per_s=len(raw_ms) / result["loop_s"],
        wall_latency_p50_ms=raw_cuts[4], wall_latency_p90_ms=raw_cuts[8],
        wall_setup_s=statistics.median(r["setup_s"] for r in setups),
        calibration_ms=1000.0 * statistics.median(result["cal"]),
        failures=reasons[:5])
    return attempted, failed, metrics, facts


def _traced(workdir, spec, nets, queries, facts):
    # half the time traced, then the same cycles untraced for the ratio
    spans_path = workdir / "spans.npz"
    half = spec["seconds"] / 2
    traced, _ = spawn(workdir, dict(spec, trace=True, spans=str(spans_path),
                                    seconds=half), "traced", half)
    plain, _ = spawn(workdir, dict(spec, cycles=traced["cycles"]), "plain",
                     spec["seconds"])
    attempted, failed, reasons = _tally(traced, nets, queries)
    a2, f2, r2 = _tally(plain, nets, queries)
    with np.load(spans_path) as spans:
        metrics = tracer.layer_metrics(
            spans, traced["counts"], traced["joint_states"], traced["cycles"],
            CAL_REF_S / statistics.median(traced["cal"]))
    metrics["trace.overhead_ratio"] = (
        sum(_scaled(traced["latencies"], traced["cal"]))
        / sum(_scaled(plain["latencies"], plain["cal"])), "ratio")
    facts.update(cycles=traced["cycles"], samples=attempted,
                 failures=(reasons + r2)[:5])
    return attempted + a2, failed + f2, metrics, facts


def _print_run(metrics, facts) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{facts['workload']:<15} {name:<{width}} {value:>14.6g} {unit}")
    print("facts " + json.dumps(facts))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=models.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = models.WORKLOADS if args.workload == "all" else (args.workload,)

    host = host_facts()
    attempted = failed = 0
    combined = {}
    for name in names:
        a, f, metrics, facts = run_workload(name, args.seed, args.seconds,
                                            bool(args.trace))
        attempted, failed = attempted + a, failed + f
        _print_run(metrics, dict(facts, **host))
        prefix = "" if len(names) == 1 else f"{name}."
        combined.update({prefix + k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
