"""Decision support: edge deletion, level amalgamation, elicitation order.

Every transform returns a new net; nothing is mutated.  Replacement
rows always use plain uniform averages, which need no information
beyond the tables already elicited.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bn_model import BayesNet, Variable, _require_valid
from .bounds import _bound_pricer, _impact_product
from .errors import DomainError
from .jtree import _donor_target_path, moralize, path_factor_specs
from .tv_core import (
    Cpt,
    _convex_sum,
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

    Returns (new net, cost), where cost is the largest TV between any
    original row and the merged row that replaces it.
    """
    t = net.cpt(child)
    j = parent_index(t, parent)
    merged = collapse_parent(t, j)
    cost = _max(_tv(np.moveaxis(t.grid(), j, -2), merged.grid()[..., None, :]))
    cpts = tuple(merged if x.child == child else x for x in net.cpts)
    return BayesNet(net.variables, cpts), cost


def _merged_levels(levels, group):
    """New level tuple with a consecutive group fused, plus the mapping."""
    group = tuple(group)
    if not group:
        raise DomainError("empty group")
    try:
        start = levels.index(group[0])
    except ValueError:
        raise DomainError(f"unknown level {group[0]!r}")
    if tuple(levels[start:start + len(group)]) != group:
        raise DomainError(
            f"group {list(group)} is not a consecutive run of {list(levels)}"
        )
    return _merged_levels_any(levels, group)


def counterpart_cost(original: Cpt, merged: Cpt, variable: str, group) -> float:
    """Row-matched TV between a CPT and its level-merged version.

    Each original row (over the variable's full level set as a parent)
    is compared to the merged row it collapses into.  This is how a
    table with more rows is priced against its amalgamated replacement.
    """
    j = parent_index(original, variable)
    _, to_new = _merged_levels(original.parent_levels[j], group)
    return counterpart_cost_from_map(original, merged, j, to_new)


def amalgamate_levels(net: BayesNet, variable: str, group,
                      allow_nonconsecutive: bool = False):
    """Merge a run of levels of one variable across the whole net.

    The variable's own CPT has the grouped columns summed; every CPT
    with the variable as a parent has the grouped rows averaged
    uniformly.  Returns (new net, costs) where costs maps each child
    whose CPT had rows averaged to its row-matched TV cost.  The group
    must be consecutive in the declared level order unless
    ``allow_nonconsecutive`` is set (meant for nominal scales).
    """
    var = net.variable(variable)
    group = tuple(group)
    if allow_nonconsecutive:
        ordered = tuple(lv for lv in var.levels if lv in set(group))
        if set(ordered) != set(group) or len(ordered) != len(group):
            raise DomainError("group contains unknown or repeated levels")
        new_levels, to_new = _merged_levels_any(var.levels, ordered)
    else:
        new_levels, to_new = _merged_levels(var.levels, group)

    variables = tuple(
        Variable(v.name, new_levels) if v.name == variable else v
        for v in net.variables
    )
    groups = [[i for i, lv in enumerate(var.levels) if to_new[lv] == new]
              for new in new_levels]
    costs: dict[str, float] = {}
    new_cpts = []
    for v, t in zip(net.variables, net.cpts):
        if v.name == variable:
            G = _fuse(t.grid(), -1, groups, uniform=False)
            t = Cpt(t.child, new_levels, t.parents, t.parent_levels, G)
        elif variable in t.parents:
            j = parent_index(t, variable)
            G = _fuse(t.grid(), j, groups, uniform=True)
            merged = Cpt.of(t.child, t.child_levels, t.parents,
                            t.parent_levels[:j] + (new_levels,)
                            + t.parent_levels[j + 1:], G)
            costs[v.name] = counterpart_cost_from_map(t, merged, j, to_new)
            t = merged
        new_cpts.append(t)
    return BayesNet(variables, tuple(new_cpts)), costs


def _merged_levels_any(levels, group):
    """New level tuple with a group fused at its first member, plus the
    mapping from old to new levels."""
    merged_name = "+".join(group)
    if merged_name in levels and merged_name not in group:
        raise DomainError(f"merged level name {merged_name!r} is already "
                          "a level outside the group")
    first = min(levels.index(lv) for lv in group)
    new_levels = []
    for i, lv in enumerate(levels):
        if lv in group:
            if i == first:
                new_levels.append(merged_name)
        else:
            new_levels.append(lv)
    to_new = {lv: (merged_name if lv in group else lv) for lv in levels}
    return tuple(new_levels), to_new


def _fuse(G: np.ndarray, axis: int, groups, uniform: bool) -> np.ndarray:
    """``G`` with the slices along ``axis`` fused group by group, in order.

    A group's slices are averaged when ``uniform``, else summed.
    """
    X = np.moveaxis(G, axis, -1)[..., None]
    fused = np.stack([
        _convex_sum(np.full(len(g), 1.0 / len(g) if uniform else 1.0),
                    X[..., g, :])
        for g in groups
    ], axis=-2)
    return np.moveaxis(fused[..., 0], -1, axis)


def counterpart_cost_from_map(original: Cpt, merged: Cpt, j: int,
                              to_new) -> float:
    """Row-matched TV with parent ``j``'s levels mapped through ``to_new``."""
    if original.child_levels != merged.child_levels:
        raise DomainError("child levels differ between the tables")
    if len(original.parents) != len(merged.parents):
        raise DomainError(f"configuration size {len(original.parents)} "
                          f"for {len(merged.parents)} parents")
    # each original row's counterpart, looked up level by level by label
    index = []
    for k, (old, new) in enumerate(zip(original.parent_levels,
                                       merged.parent_levels)):
        labels = [to_new[lv] for lv in old] if k == j else old
        for lv in labels:
            if lv not in new:
                raise DomainError(f"unknown level {lv!r}")
        index.append([new.index(lv) for lv in labels])
    return _max(_tv(original.grid(), merged.grid()[np.ix_(*index)]))


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
    score: float | None
    note: str


def elicitation_priority(net: BayesNet, targets) -> tuple[PriorityRecord, ...]:
    """Rank every CPT by its worst-case influence on the target margin.

    For each variable, the clique holding its family (itself plus its
    parents) is connected to the clique holding the targets through the
    junction tree of their common ancestral graph, and the score is the
    impact product along that path assembled from elicited CPT
    diameters alone.  Families sharing the target clique score 1;
    disconnected families score 0; a family whose path cannot be priced
    without fresh elicitation gets a note instead of a score, as does
    one the path search itself rejects.  Records are sorted by descending
    score, declaration order on ties; scoreless entries sort last.
    """
    _require_valid(net)
    targets = set(targets)
    for t in targets:
        net.position(t)
    moral = moralize(net)
    price = _bound_pricer(net)
    records = []
    for v, t in zip(net.variables, net.cpts):
        family = {v.name} | set(t.parents)
        try:
            _, path = _donor_target_path(net, moral, family, targets)
            result = _impact_product(path_factor_specs(path), price, "bound")
        except DomainError as e:
            records.append(PriorityRecord(v.name, None, str(e)))
            continue
        note = ""
        if len(path.cliques) == 1:
            note = "family shares the target clique"
        elif result.value == 0.0:
            note = "no influence path to the target"
        records.append(PriorityRecord(v.name, result.value, note))
    records.sort(key=lambda r: -_rank_key(r.score)
                 if r.score is not None else 1.0)
    return tuple(records)
