"""One closed-loop client in a fresh process: ``python3 worker.py SPEC``.

SPEC is a JSON file written by ``run.py``.  The worker changes into the
directory holding it, imports tvrobust and parses the model files
(timed as set-up), then sends the query list in whole cycles, one query
at a time, until ``seconds`` have passed or ``cycles`` cycles are done.
Each query's stdout and stderr are captured; a library call with no
command has its result rendered as JSON after the clock stops.  The
calibration kernel is timed before the loop and after every query, and
three times on each side of set-up.  Latencies, calibration times and
the distinct outcomes go to the result file named in SPEC; outputs are
checked by the parent, outside this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def _setup(files):
    t0 = time.perf_counter()
    import tvrobust
    nets = {}
    for fname in files:
        with open(fname, encoding="utf-8") as fh:
            nets[fname] = tvrobust.parse_model(fh.read())
    return time.perf_counter() - t0, nets


_CAL_ROWS = tuple(tuple(((i * 7 + j * 13) % 17) / 17.0 for j in range(8))
                  for i in range(40))


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python kernel: row pairs, L1 sums.

    The kernel does the kind of work tvrobust's hot loops do, but none
    of tvrobust's code, so its duration tracks the speed of the machine
    and not the speed of the library.
    """
    t0 = time.perf_counter()
    best = 0.0
    for i, a in enumerate(_CAL_ROWS):
        for b in _CAL_ROWS[i + 1:]:
            s = 0.0
            for x, y in zip(a, b):
                s += abs(x - y)
            if s > best:
                best = s
    return time.perf_counter() - t0


def _render_priority(records) -> str:
    return json.dumps([[r.variable, r.score, r.note] for r in records]) + "\n"


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    os.chdir(os.path.dirname(os.path.abspath(spec_path)))
    setup_cal = [calibrate() for _ in range(3)]
    setup_s, nets = _setup(spec["files"])
    result = {"setup_s": setup_s}
    if spec.get("setup_only"):
        result["cal"] = setup_cal + [calibrate() for _ in range(3)]
        with open(spec["result"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return

    sys.path.insert(0, spec["bench_dir"])
    import tracer
    from tvrobust import advisors, cli_io
    trace = tracer.Trace() if spec.get("trace") else None
    tracer.install(trace, spec.get("slow", {}))

    queries = spec["queries"]
    corrupt = spec.get("corrupt")
    outcomes: dict[tuple, int] = {}
    latencies, outcome_ids, cal = [], [], [calibrate()]
    clock = time.perf_counter
    cycles = 0
    loop_start = clock()
    while True:
        for qi, q in enumerate(queries):
            n = len(latencies)
            if trace is not None:
                trace.query = n
            out, err = io.StringIO(), io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                if "argv" in q:
                    code = cli_io.run_cli(q["argv"])
                else:
                    func, targets = q["call"]
                    value = getattr(advisors, func)(nets[q["model"]], targets)
                    code = 0
            latencies.append(clock() - t0)
            text = out.getvalue() if "argv" in q else _render_priority(value)
            if n == corrupt:
                text = text.replace("0", "9", 1)
            key = (qi, code, text, err.getvalue())
            outcome_ids.append(outcomes.setdefault(key, len(outcomes)))
            cal.append(calibrate())
        cycles += 1
        elapsed = clock() - loop_start
        if spec.get("cycles"):
            if cycles >= spec["cycles"]:
                break
        elif elapsed >= spec["seconds"]:
            break

    result.update({
        "cycles": cycles,
        "loop_s": elapsed,
        "latencies": latencies,
        "cal": cal,
        "outcome_ids": outcome_ids,
        "outcomes": [list(k) for k in outcomes],
    })
    if trace is not None:
        trace.save(spec["spans"])
        result["counts"] = trace.counts
        result["joint_states"] = trace.joint_states
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
