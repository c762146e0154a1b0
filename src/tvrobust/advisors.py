"""Decision support: edge deletion, level amalgamation, elicitation order.

Every transform returns a new net; nothing is mutated.  Replacement
rows always use plain uniform averages, which need no information
beyond the tables already elicited.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bn_model import (BayesNet, Variable, _ancestral_subnet, _require_valid,
                       topological_order)
from .errors import DomainError
from .tv_core import (
    Cpt,
    _fuse,
    _max,
    _tv,
    collapse_parent,
    parent_diameter,
    parent_index,
)


@dataclass(frozen=True)
class EdgeRecord:
    parent: str
    child: str
    delta: float


@dataclass(frozen=True)
class EdgeReport:
    """Every DAG edge with its deletion cost, largest first."""

    records: tuple[EdgeRecord, ...]


def _rank_key(x: float) -> float:
    """Quantize a cost for ordering so float noise cannot break a tie.

    Costs that agree to nine decimals are treated as equal; reported
    values keep full precision, only the ordering collapses them.
    """
    return round(x, 9)


def edge_deletion_report(net: BayesNet) -> EdgeReport:
    _require_valid(net)
    records = [EdgeRecord(p, v.name, parent_diameter(t, j))
               for v, t in zip(net.variables, net.cpts)
               for j, p in enumerate(t.parents)]
    # a stable sort keeps declaration order on ties
    records.sort(key=lambda r: -_rank_key(r.delta))
    return EdgeReport(tuple(records))


def delete_edge(net: BayesNet, parent: str, child: str):
    """Remove one edge, averaging the child's rows over the lost parent.

    This is the merge of all of the parent's levels as seen from the
    child (``amalgamate_levels``), with the parent then dropped.
    Returns (new net, cost), where cost is the largest TV between any
    original row and the merged row that replaces it.
    """
    t = net.cpt(child)
    j = parent_index(t, parent)
    merged = collapse_parent(t, j)
    cost = _max(_tv(t.grid(), np.expand_dims(merged.grid(), j)))
    cpts = tuple(merged if x.child == child else x for x in net.cpts)
    return BayesNet(net.variables, cpts), cost


def _merge_plan(levels, group, consecutive: bool):
    """The levels with ``group`` fused at its first member, and for each
    old level the index of its new level.  Unless ``consecutive``, the
    group may list its levels in any order; the fused name joins them
    with "+" in declaration order."""
    group = tuple(group)
    if not group:
        raise DomainError("empty group")
    if consecutive:
        if group[0] not in levels:
            raise DomainError(f"unknown level {group[0]!r}")
        start = levels.index(group[0])
        if tuple(levels[start:start + len(group)]) != group:
            raise DomainError(
                f"group {list(group)} is not a consecutive run of {list(levels)}"
            )
    else:
        ordered = tuple(lv for lv in levels if lv in set(group))
        if set(ordered) != set(group) or len(ordered) != len(group):
            raise DomainError("group contains unknown or repeated levels")
        group = ordered
    merged_name = "+".join(group)
    if merged_name in levels and merged_name not in group:
        raise DomainError(f"merged level name {merged_name!r} is already "
                          "a level outside the group")
    first = min(levels.index(lv) for lv in group)
    new_levels = tuple(merged_name if i == first else lv
                       for i, lv in enumerate(levels)
                       if i == first or lv not in group)
    index = np.array([new_levels.index(merged_name if lv in group else lv)
                      for lv in levels])
    return new_levels, index


def counterpart_cost(original: Cpt, merged: Cpt, variable: str, group) -> float:
    """Row-matched TV between a CPT and its level-merged version.

    Each original row (over the variable's full level set as a parent)
    is compared to the merged row it collapses into.  This is how a
    table with more rows is priced against its amalgamated replacement.
    """
    j = parent_index(original, variable)
    new_levels, index = _merge_plan(original.parent_levels[j], group, True)
    if original.child_levels != merged.child_levels:
        raise DomainError("child levels differ between the tables")
    if len(original.parents) != len(merged.parents):
        raise DomainError(f"configuration size {len(original.parents)} "
                          f"for {len(merged.parents)} parents")
    # each original row's counterpart, looked up level by level by label
    lookup = []
    for k, (old, new) in enumerate(zip(original.parent_levels,
                                       merged.parent_levels)):
        labels = [new_levels[i] for i in index] if k == j else old
        for lv in labels:
            if lv not in new:
                raise DomainError(f"unknown level {lv!r}")
        lookup.append([new.index(lv) for lv in labels])
    return _max(_tv(original.grid(), merged.grid()[np.ix_(*lookup)]))


def amalgamate_levels(net: BayesNet, variable: str, group,
                      allow_nonconsecutive: bool = False):
    """Merge a run of levels of one variable across the whole net.

    The variable's own CPT has the grouped columns summed; every CPT
    with the variable as a parent has the grouped rows averaged
    uniformly.  Returns (new net, costs) where costs maps each child
    whose CPT had rows averaged to its row-matched TV cost.  The group
    must be consecutive in the declared level order unless
    ``allow_nonconsecutive`` is set (meant for nominal scales).  A
    child whose table lists other levels for the variable is an error
    that names the child; other defects of the net pass through.
    """
    var = net.variable(variable)
    new_levels, index = _merge_plan(var.levels, group,
                                    not allow_nonconsecutive)
    variables = tuple(
        Variable(v.name, new_levels) if v.name == variable else v
        for v in net.variables
    )
    costs: dict[str, float] = {}
    new_cpts = []
    for v, t in zip(net.variables, net.cpts):
        if v.name == variable:
            G = _fuse(t.grid(), -1, index, uniform=False)
            t = Cpt(t.child, new_levels, t.parents, t.parent_levels, G)
        elif variable in t.parents:
            j = parent_index(t, variable)
            if t.parent_levels[j] != var.levels:
                raise DomainError(f"{v.name}: parent {variable!r} levels "
                                  "disagree")
            G = _fuse(t.grid(), j, index, uniform=True)
            costs[v.name] = _max(_tv(t.grid(), np.take(G, index, axis=j)))
            t = Cpt.of(t.child, t.child_levels, t.parents,
                       t.parent_levels[:j] + (new_levels,)
                       + t.parent_levels[j + 1:], G)
        new_cpts.append(t)
    return BayesNet(variables, tuple(new_cpts)), costs


def amalgamation_suggest(net: BayesNet, variable: str):
    """Consecutive level pairs of a variable, cheapest merge first.

    The cost of a pair is the largest TV between rows that differ only
    in that pair, across every CPT where the variable is a parent.
    Ties keep the earlier pair first.
    """
    var = net.variable(variable)
    if len(var.levels) < 2:
        raise DomainError(f"{variable!r} has fewer than two levels")
    costs = [0.0] * (len(var.levels) - 1)
    for t in net.cpts:
        if variable in t.parents:
            G = np.moveaxis(t.grid(), parent_index(t, variable), 0)
            gaps = _tv(G[:-1], G[1:])
            costs = [max(c, _max(d)) for c, d in zip(costs, gaps)]
    candidates = list(zip(zip(var.levels, var.levels[1:]), costs))
    candidates.sort(key=lambda pc: _rank_key(pc[1]))
    return candidates


@dataclass(frozen=True)
class PriorityRecord:
    variable: str
    score: float
    note: str


def elicitation_priority(net: BayesNet, targets) -> tuple[PriorityRecord, ...]:
    """Rank every CPT by how far an error in it can move the target margin.

    Couple the nets before and after a table edit variable by variable
    (Dobrushin's comparison theorem on a DAG): an ancestor of the
    targets scores min(1, w), where w sums, over the directed paths from
    it that stop at the first target, the product of the
    ``parent_diameter`` of each edge, the deltas ``edge_deletion_report``
    gives.  One reverse topological pass over the ancestral set gives
    every w, with no junction tree.  If each row of v's table moves by
    at most ε_v in TV (``cpt_tv_plus``), the targets' margin moves by at
    most Σ ε_v · score_v, for one edited table or several.

    Targets score 1 with the note "a target".  A table outside the
    ancestral set cannot move the margin (a barren node, Shachter 1986)
    and scores 0 with the note "not an ancestor of the target"; an
    ancestor with w = 0 gets "no influence path to the target".  An
    empty or unknown target raises ``DomainError``.  Records are sorted
    by descending score, declaration order on ties.
    """
    _require_valid(net)
    targets = list(targets)
    if not targets:
        raise DomainError("target set must be nonempty")
    # checked in the order given, so an unknown name is reported stably
    order = topological_order(_ancestral_subnet(net, targets))
    targets = set(targets)
    weight = {n: float(n in targets) for n in order}
    for c in reversed(order):
        if weight[c]:
            t = net.cpt(c)
            for j, p in enumerate(t.parents):
                if p not in targets:
                    weight[p] += parent_diameter(t, j) * weight[c]
    records = []
    for v in net.variables:
        if v.name in targets:
            records.append(PriorityRecord(v.name, 1.0, "a target"))
        elif v.name not in weight:
            records.append(PriorityRecord(v.name, 0.0,
                                          "not an ancestor of the target"))
        else:
            w = weight[v.name]
            records.append(PriorityRecord(
                v.name, min(1.0, w),
                "" if w else "no influence path to the target"))
    records.sort(key=lambda r: -_rank_key(r.score))
    return tuple(records)
