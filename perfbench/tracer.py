"""Spans and call counts around tvrobust's public functions, from outside.

``install`` replaces each listed function by a wrapper under every name
it is bound to in the loaded ``tvrobust`` modules: its home module,
modules that re-import it (``jtree.transition_table``,
``bounds.diameter``) and the package namespace.  Spans are kept in
memory as parallel lists and written out once with :meth:`Trace.save`.

The same wrappers can slow one function down by a fixed factor of its
own duration, which is how the benchmark's regression drill injects a
known slowdown without touching the library.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# functions that get a span, by home module
SPANNED = {
    "cli_io": ("run_cli", "parse_model", "model_document"),
    "advisors": ("edge_deletion_report", "amalgamation_suggest",
                 "amalgamate_levels", "delete_edge", "elicitation_priority"),
    "bounds": ("path_impact",),
    "jtree": ("donor_target_path", "donor_target_reduction", "moralize",
              "triangulate", "build_junction_tree"),
    "exact_oracle": ("joint_mass", "transition_table"),
    "bn_model": ("validate", "topological_order", "descendants_map",
                 "ancestral_set"),
    "tv_core": ("diameter", "parent_diameter", "collapse_parent", "mix"),
}
# hot functions that are only counted: a span each would swamp the run
COUNTED = ("bn_model.position", "tv_core.tv_distance")
SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in SPANNED.items() for f in fs)


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tvrobust"
                                  or name.startswith("tvrobust."))]


def _home(name: str):
    module, func = name.split(".")
    return sys.modules[f"tvrobust.{module}"], func


def _rebind(original, replacement) -> None:
    for module in _modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Trace:
    """Spans (name id, start, end, parent span, query id) and counts."""

    def __init__(self):
        self.names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.queries: list[int] = []
        self.counts = {name: 0 for name in COUNTED}
        self.joint_states = 0
        self.query = -1
        self._stack = [-1]

    def span(self, name_id: int, fn, name: str):
        names, starts, ends = self.names, self.starts, self.ends
        parents, queries, stack = self.parents, self.queries, self._stack
        clock = time.perf_counter
        states = name == "exact_oracle.joint_mass"

        def wrapper(*args, **kwargs):
            if states:
                n = 1
                for v in args[0].variables:
                    n *= len(v.levels)
                self.joint_states += n
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            queries.append(self.query)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def counter(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names, dtype=np.int32),
                 starts=np.array(self.starts), ends=np.array(self.ends),
                 parents=np.array(self.parents, dtype=np.int64),
                 queries=np.array(self.queries, dtype=np.int64))


def _slowed(fn, factor: float):
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        t0 = clock()
        result = fn(*args, **kwargs)
        until = clock() + factor * (clock() - t0)
        while clock() < until:
            pass
        return result

    return wrapper


def install(trace: Trace | None, slow: dict[str, float]) -> None:
    """Wrap the listed functions; call after ``import tvrobust``.

    With ``trace`` every function in SPANNED records spans and every one
    in COUNTED counts its calls.  ``slow`` maps function names to a
    factor: each call then busy-waits that many times its own duration.
    A function the library no longer has is skipped and reads as zero.
    """
    for name, factor in slow.items():
        module, func = _home(name)
        _rebind(getattr(module, func), _slowed(getattr(module, func), factor))
    if trace is None:
        return
    for name_id, name in enumerate(SPAN_NAMES):
        module, func = _home(name)
        if hasattr(module, func):
            fn = getattr(module, func)
            _rebind(fn, trace.span(name_id, fn, name))
    from tvrobust.bn_model import BayesNet
    BayesNet.position = trace.counter(BayesNet.position, "bn_model.position")
    module, func = _home("tv_core.tv_distance")
    fn = getattr(module, func)
    _rebind(fn, trace.counter(fn, "tv_core.tv_distance"))


def layer_metrics(spans, counts: dict, joint_states: int, cycles: int,
                  time_scale: float) -> dict:
    """Self time and calls per spanned function, plus the counters.

    Every figure is per cycle, one pass over the workload's query list,
    so counts repeat exactly from run to run and do not grow when a
    faster build fits more cycles into the same time.  Self times are
    multiplied by ``time_scale``, the run's machine-speed correction.  A span's self
    time is its duration minus the durations of its direct child spans;
    calls run on one thread, so children nest inside their parent and
    never overlap one another.
    """
    names = spans["names"]
    dur = spans["ends"] - spans["starts"]
    parents = spans["parents"]
    child = np.zeros(len(dur))
    inner = parents >= 0
    np.add.at(child, parents[inner], dur[inner])
    self_time = dur - child
    metrics = {}
    for name_id, name in enumerate(SPAN_NAMES):
        mine = names == name_id
        metrics[f"{name}.self_s"] = (
            float(self_time[mine].sum()) * time_scale / cycles, "s")
        metrics[f"{name}.calls"] = (int(mine.sum()) / cycles, "count")
    for name in COUNTED:
        metrics[f"{name}.calls"] = (counts[name] / cycles, "count")
    metrics["exact_oracle.joint_mass.states"] = (joint_states / cycles,
                                                 "count")
    return metrics
