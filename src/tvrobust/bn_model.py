"""Discrete Bayesian network structure: variables, DAG, attached CPTs.

A net holds one CPT per variable, aligned with the variable list; the
edge set is derived from the CPT parent lists.  Values are immutable
after construction.  Direct construction performs no checking so that
``validate`` can report problems as data; use :meth:`BayesNet.of` to
construct with checking.  A net that passed a check is marked, so
functions that need a valid net do not check it again.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import DomainError
from .tv_core import Cpt


@dataclass(frozen=True)
class Variable:
    name: str
    levels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))


@dataclass(frozen=True)
class BayesNet:
    variables: tuple[Variable, ...]
    cpts: tuple[Cpt, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "cpts", tuple(self.cpts))
        # name -> position, not a field; the first of duplicate names wins
        index: dict[str, int] = {}
        for i, v in enumerate(self.variables):
            index.setdefault(v.name, i)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_validated", False)

    @classmethod
    def of(cls, variables, cpts) -> "BayesNet":
        net = cls(tuple(variables), tuple(cpts))
        _require_valid(net)
        return net

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def position(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):
            raise DomainError(f"unknown variable {name!r}") from None

    def variable(self, name: str) -> Variable:
        return self.variables[self.position(name)]

    def cpt(self, name: str) -> Cpt:
        return self.cpts[self.position(name)]

    def parents_of(self, name: str) -> tuple[str, ...]:
        return self.cpt(name).parents

    def children_of(self, name: str) -> tuple[str, ...]:
        self.position(name)
        return tuple(v.name for v in self.variables
                     if name in self.cpt(v.name).parents)

    def edges(self) -> tuple[tuple[str, str], ...]:
        """All (parent, child) pairs, children in declaration order."""
        out = []
        for v, t in zip(self.variables, self.cpts):
            for p in t.parents:
                out.append((p, v.name))
        return tuple(out)

    def sorted_by_position(self, names) -> tuple[str, ...]:
        return tuple(sorted(names, key=self.position))


def validate(net: BayesNet) -> list[str]:
    """Check every structural invariant; violations are data, not errors."""
    problems: list[str] = []
    names = [v.name for v in net.variables]
    if len(set(names)) != len(names):
        return ["duplicate variable names"]
    for v in net.variables:
        if not v.name:
            problems.append("empty variable name")
        if len(v.levels) < 1:
            problems.append(f"{v.name}: no levels")
        if len(set(v.levels)) != len(v.levels):
            problems.append(f"{v.name}: duplicate levels")
    if len(net.cpts) != len(net.variables):
        problems.append(
            f"{len(net.cpts)} CPTs for {len(net.variables)} variables"
        )
        return problems
    by_name = {v.name: v for v in net.variables}
    for v, t in zip(net.variables, net.cpts):
        if t.child != v.name:
            problems.append(f"CPT for {t.child!r} attached to {v.name!r}")
            continue
        if t.child_levels != v.levels:
            problems.append(f"{v.name}: CPT levels disagree with variable")
        for j, p in enumerate(t.parents):
            if p not in by_name:
                problems.append(f"{v.name}: unknown parent {p!r}")
            elif (j < len(t.parent_levels)
                  and t.parent_levels[j] != by_name[p].levels):
                problems.append(f"{v.name}: parent {p!r} levels disagree")
        problems.extend(t.violations())
    try:
        topological_order(net)
    except DomainError as e:
        problems.append(str(e))
    return problems


def _validate_and_mark(net: BayesNet) -> list[str]:
    """``validate(net)`` unless ``net`` is marked valid, marking it valid
    when nothing is found."""
    problems = [] if net._validated else validate(net)
    object.__setattr__(net, "_validated", not problems)
    return problems


def _require_valid(net: BayesNet) -> None:
    """Raise DomainError if ``net`` is invalid; mark it valid otherwise."""
    problems = _validate_and_mark(net)
    if problems:
        raise DomainError("invalid network: " + "; ".join(problems))


def topological_order(net: BayesNet) -> tuple[str, ...]:
    """Parents before children; ties broken by declaration order (Kahn's
    algorithm, the first-declared ready variable always placed next).  A
    net with unique names that declares every parent first is returned
    in declaration order after one pass over the edges."""
    names = [v.name for v in net.variables]
    first = net._index
    if len(first) == len(names) == len(net.cpts) and all(
            first.get(p, -1) < i
            for i, t in enumerate(net.cpts) for p in t.parents):
        return tuple(names)
    pending = {
        v.name: {p for p in t.parents if p in first}
        for v, t in zip(net.variables, net.cpts)
    }
    children: dict[str, list[str]] = {n: [] for n in first}
    for n, ps in pending.items():
        for p in ps:
            children[p].append(n)
    ready = [first[n] for n in first if not pending[n]]
    heapq.heapify(ready)
    order = []
    while ready:
        n = names[heapq.heappop(ready)]
        order.append(n)
        for c in children[n]:
            pending[c].discard(n)
            if not pending[c]:
                heapq.heappush(ready, first[c])
    if len(order) < len(names):
        stuck = [n for n in names if pending[n]]
        raise DomainError("cycle detected involving " + ", ".join(stuck))
    return tuple(order)


def ancestral_set(net: BayesNet, targets) -> set[str]:
    """Targets plus all their ancestors, closed under the parent relation."""
    result = set()
    frontier = list(targets)
    for t in frontier:
        net.position(t)
    while frontier:
        n = frontier.pop()
        if n in result:
            continue
        result.add(n)
        frontier.extend(net.parents_of(n))
    return result


def _ancestral_subnet(net: BayesNet, names) -> BayesNet:
    """``names`` and their ancestors as a net, marked as ``net`` is: the
    ancestral set of a valid net is itself valid."""
    keep = ancestral_set(net, names)
    pairs = [(v, t) for v, t in zip(net.variables, net.cpts)
             if v.name in keep]
    sub = BayesNet(tuple(v for v, _ in pairs), tuple(t for _, t in pairs))
    object.__setattr__(sub, "_validated", net._validated)
    return sub


def descendants_map(net: BayesNet) -> dict[str, set[str]]:
    """Strict descendants of every variable, keyed in the order of
    ``topological_order``, so a caller that needs both sorts once."""
    order = topological_order(net)
    desc: dict[str, set[str]] = {n: set() for n in order}
    for n in reversed(order):
        for p in net.parents_of(n):
            if p in desc:
                desc[p].add(n)
                desc[p] |= desc[n]
    return desc
