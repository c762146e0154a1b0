"""Moralization, triangulation, junction trees, clique paths, and
calibrated clique marginals.

One min-fill elimination (``_eliminate``) serves ``triangulate``,
``is_chordal`` and ``maximal_cliques``, and gives ``build_junction_tree``
the cliques of the min-fill triangulation of any graph it is given, so a
tree costs one elimination.  One breadth-first search (``_tree_paths``)
gives clique paths and the calibration's visit order.
Vertex order everywhere is the net's declaration order, and every
tie-break resolves to the lowest position, so identical inputs always
produce identical cliques, trees, and paths.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bn_model import BayesNet, _ancestral_subnet
from .errors import DomainError, ResourceLimitError
from .exact_oracle import JointTable, state_limit


@dataclass(frozen=True)
class UGraph:
    """Undirected graph over named vertices (no self-loops)."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        pos = {v: i for i, v in enumerate(self.vertices)}
        fixed = []
        for a, b in self.edges:
            if a not in pos or b not in pos:
                raise DomainError(f"edge ({a!r}, {b!r}) references unknown vertex")
            if a == b:
                raise DomainError(f"self-loop on {a!r}")
            if pos[a] > pos[b]:
                a, b = b, a
            fixed.append((a, b))
        fixed = sorted(set(fixed), key=lambda e: (pos[e[0]], pos[e[1]]))
        object.__setattr__(self, "edges", tuple(fixed))
        # vertex -> position, not a field; first duplicate wins, as .index
        if len(pos) < len(self.vertices):
            pos = {v: i for i, v in reversed(tuple(enumerate(self.vertices)))}
        object.__setattr__(self, "_pos", pos)

    def neighbors(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def position(self, v: str) -> int:
        return self._pos[v] if v in self._pos else self.vertices.index(v)


@dataclass(frozen=True)
class JunctionTree:
    """Cliques, spanning tree edges with separators, and a RIP ordering.

    Cliques are tuples of vertex names in declaration order, listed in a
    canonical order (lexicographic by vertex positions).  ``tree_edges``
    holds (clique index, clique index, separator) triples.  ``rip_order``
    is a permutation of clique indices whose running intersections each
    sit inside a single earlier clique.
    """

    cliques: tuple[tuple[str, ...], ...]
    tree_edges: tuple[tuple[int, int, tuple[str, ...]], ...]
    rip_order: tuple[int, ...]

    def neighbors(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {i: [] for i in range(len(self.cliques))}
        for i, j, _ in self.tree_edges:
            adj[i].append(j)
            adj[j].append(i)
        return {i: sorted(v) for i, v in adj.items()}


@dataclass(frozen=True)
class CliquePath:
    """A repeat-free clique sequence with the separators between steps."""

    cliques: tuple[tuple[str, ...], ...]
    separators: tuple[tuple[str, ...], ...]


def moralize(net: BayesNet) -> UGraph:
    """The moral graph of ``net`` read straight off the CPTs: each
    child's edges to its parents and each pair of its co-parents."""
    edges = []
    for v, t in zip(net.variables, net.cpts):
        edges += [(p, v.name) for p in t.parents]
        edges += itertools.combinations(t.parents, 2)
    return UGraph(net.names(), tuple(edges))


def _join_sets(g: UGraph, sets):
    """``g`` with every pair inside each of ``sets`` joined, so that one
    clique of its triangulation holds each set, and for each set whether
    ``g`` lacked one of its pairs."""
    have = set(g.edges)
    added = [[pair for pair in itertools.combinations(
        sorted(s, key=g.position), 2) if pair not in have] for s in sets]
    return (UGraph(g.vertices, g.edges + tuple(itertools.chain(*added))),
            [bool(pairs) for pairs in added])


def _eliminate(g: UGraph):
    """Min-fill elimination: (fill edges, maximal cliques of the filled
    graph in canonical order).

    Each step removes the vertex whose neighbours lack the fewest edges
    among themselves, the first in declaration order on ties, after
    joining those neighbours.  Its elimination clique is the vertex with
    its remaining neighbours.  A count stops once the vertex cannot beat
    the best so far, and the scan stops at a vertex that needs no fill,
    so each step picks the vertex the full scan picks.  The order is a
    perfect elimination order of ``g`` with the fill added, so the
    elimination cliques that no earlier one contains are that graph's
    maximal cliques; a graph is chordal exactly when no fill is added
    (Fulkerson & Gross 1965; Rose, Tarjan & Lueker 1976).
    """
    rank = {v: i for i, v in enumerate(g.vertices)}
    adj = g.neighbors()
    fill: list[tuple[str, str]] = []
    cliques: list[frozenset[str]] = []
    remaining = sorted(adj, key=rank.get)
    while remaining:
        best_v, best_cost = None, None
        for v in remaining:
            cost = 0
            for a, b in itertools.combinations(adj[v], 2):
                if b not in adj[a]:
                    cost += 1
                    if cost == best_cost:
                        break
            else:
                best_v, best_cost = v, cost
                if cost == 0:
                    break
        for a, b in itertools.combinations(adj[best_v], 2):
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
                fill.append((a, b))
        c = frozenset(adj[best_v]) | {best_v}
        # c lacks every earlier eliminated vertex, so it can only sit
        # inside an earlier clique
        if not any(c <= k for k in cliques):
            cliques.append(c)
        for u in adj[best_v]:
            adj[u].discard(best_v)
        del adj[best_v]
        remaining.remove(best_v)
    ordered = [tuple(sorted(c, key=g.position)) for c in cliques]
    ordered.sort(key=lambda c: tuple(g.position(v) for v in c))
    return fill, tuple(ordered)


def triangulate(g: UGraph) -> UGraph:
    """Chordal supergraph via min-fill elimination.

    Ties are broken by declaration order, so the result is deterministic.
    """
    return UGraph(g.vertices, g.edges + tuple(_eliminate(g)[0]))


def is_chordal(g: UGraph) -> bool:
    """True when min-fill elimination adds no edge."""
    return not _eliminate(g)[0]


def maximal_cliques(g: UGraph) -> tuple[tuple[str, ...], ...]:
    """Maximal cliques of a chordal graph, in canonical order."""
    fill, cliques = _eliminate(g)
    if fill:
        raise DomainError("graph is not chordal")
    return cliques


def verify_running_intersection(cliques, order) -> bool:
    """Independent check that an ordering has the running intersection
    property: each clique's overlap with the union of its predecessors
    sits inside a single predecessor."""
    sets = [frozenset(c) for c in cliques]
    if sorted(order) != list(range(len(sets))):
        return False
    union: set[str] = set()
    for k, idx in enumerate(order):
        sep = sets[idx] & union
        if k > 0 and sep and not any(
                sep <= sets[order[j]] for j in range(k)):
            return False
        union |= sets[idx]
    return True


def build_junction_tree(g: UGraph) -> JunctionTree:
    """Junction tree of the min-fill triangulation of ``g``.

    Its cliques are the maximal cliques of ``g`` with the fill of one
    min-fill elimination added, read off that same elimination; for a
    chordal ``g`` they are ``g``'s own.  Maximum separator-cardinality
    spanning tree, ties resolved toward the lowest clique indices;
    disconnected graphs are spanned with empty separators.  The RIP
    ordering is produced greedily from the first clique and then
    verified by the independent checker.
    """
    cliques = _eliminate(g)[1]
    sets = [frozenset(c) for c in cliques]
    m = len(cliques)
    pos = {v: g.position(v) for v in g.vertices}

    candidates = []
    for i in range(m):
        for j in range(i + 1, m):
            w = len(sets[i] & sets[j])
            candidates.append((-w, i, j))
    candidates.sort()
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree_edges = []
    for negw, i, j in candidates:
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        parent[ri] = rj
        sep = tuple(sorted(sets[i] & sets[j], key=pos.get))
        tree_edges.append((i, j, sep))
    tree_edges.sort(key=lambda e: (e[0], e[1]))

    # the lowest-index clique next to a placed one goes next; the tree
    # spans every clique (weight-0 pairs join components), so all are
    # reached from clique 0
    adj = JunctionTree(cliques, tuple(tree_edges), ()).neighbors()
    rip: dict[int, None] = {}
    frontier = [0] if m else []
    while frontier:
        i = heapq.heappop(frontier)
        if i not in rip:
            rip[i] = None
            for j in adj[i]:
                heapq.heappush(frontier, j)

    jt = JunctionTree(cliques, tuple(tree_edges), tuple(rip))
    if not verify_running_intersection(cliques, jt.rip_order):
        raise DomainError("running intersection verification failed")
    return jt


def _tree_paths(jt: JunctionTree, start: int) -> dict[int, tuple[int, ...]]:
    """Clique index sequence from ``start`` to every clique it reaches,
    found by one breadth-first search of the tree."""
    adj = jt.neighbors()
    paths = {start: (start,)}
    queue = [start]
    for i in queue:
        for j in adj[i]:
            if j not in paths:
                paths[j] = paths[i] + (j,)
                queue.append(j)
    return paths


def _clique_path(jt: JunctionTree, chain) -> CliquePath:
    """The cliques of an index sequence with the separators between them."""
    # reversed, so the first edge listed for a pair gives its separator
    seps = {frozenset(e[:2]): e[2] for e in reversed(jt.tree_edges)}
    return CliquePath(tuple(jt.cliques[i] for i in chain),
                      tuple(seps[frozenset(step)]
                            for step in zip(chain, chain[1:])))


def simple_path(jt: JunctionTree, donor, target) -> CliquePath:
    """The unique repeat-free clique sequence between two cliques."""
    sets = [frozenset(c) for c in jt.cliques]
    ends = (frozenset(donor), frozenset(target))
    for want in ends:
        if want not in sets:
            raise DomainError(f"no clique with members {sorted(want)}")
    chain = _tree_paths(jt, sets.index(ends[0])).get(sets.index(ends[1]))
    if chain is None:
        raise DomainError("cliques are not connected in the tree")
    return _clique_path(jt, chain)


def donor_target_path(net: BayesNet, donor, target):
    """Clique path of the donor-to-target recipe, graph work only.

    The tree is that of the moral graph of the ancestral subnet of both
    sets, each set's pairs joined so that one clique holds it, and the
    path, whose separators are clique intersections, is ``_host_path``
    on it; independent variables get an empty separator.  A set that
    needed joining is refused when the path's first separator S2 holds
    one of its donors, or the last one of its targets: the end factors P(S2 | C1 minus S2) and P(Ck minus Sk | Sk)
    price separator members as outputs, so the product could fall below
    the donor's influence.  Returns (junction tree, clique path).
    """
    donor = list(donor)
    target = list(target)
    if not donor or not target:
        raise DomainError("donor and target sets must be nonempty")
    # a list, so an unknown name is reported in the order given
    sub = _ancestral_subnet(net, donor + target)
    donor, target = set(donor), set(target)
    g, joined = _join_sets(moralize(sub), (donor, target))
    jt = build_junction_tree(g)
    path = _host_path(jt, donor, target)
    if path.separators:
        for label, members, needed, which, sep in (
                ("donor", donor, joined[0], "first", path.separators[0]),
                ("target", target, joined[1], "last", path.separators[-1])):
            if needed and members & set(sep):
                names = ", ".join(sub.sorted_by_position(members))
                raise DomainError(
                    f"{label} set {{{names}}}, which the moral graph does "
                    f"not join, meets the {which} separator "
                    f"{{{', '.join(sep)}}} of its clique path; its factors "
                    "do not price that")
    return jt, path


def _host_path(jt: JunctionTree, donor, target) -> CliquePath:
    """The simple path on ``jt`` from the lowest-index clique holding
    ``donor`` to the clique holding ``target`` nearest to it, the lower
    index winning a tie.  ``jt`` must have a clique holding each set, as
    a tree built with every pair inside both sets joined does.

    Ending at the nearest hosting clique keeps the chain of factors as
    short as possible and, for a single-variable target, guarantees the
    target sits among the final clique's fresh variables rather than
    inside the last separator, so the impact product prices its margin.
    """
    def hosts(members) -> list[int]:
        return [i for i, c in enumerate(jt.cliques)
                if members <= frozenset(c)]

    c_donor = hosts(donor)[0]
    paths = _tree_paths(jt, c_donor)
    c_target = min(hosts(target), key=lambda i: (len(paths[i]), i))
    return _clique_path(jt, paths[c_target])


def path_factor_specs(path: CliquePath) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """(outputs, given) pairs of the Markov-chain factors along a path.

    For a path C1..Ck: (S2, C1 minus S2), then (S_{i+1}, S_i) for the
    interior steps, then (Ck minus Sk, Sk).  Empty for a single clique.
    A separator that is not the intersection of its two cliques, as on
    a junction tree, or a step whose one clique lies inside the other,
    which no tree of maximal cliques has, is a DomainError naming its
    step.
    """
    k = len(path.cliques)
    if k != len(path.separators) + 1:
        raise DomainError("separator count does not match path length")
    for step, (a, b, sep) in enumerate(
            zip(path.cliques, path.cliques[1:], path.separators), 1):
        if set(sep) != set(a) & set(b):
            raise DomainError(f"separator {{{', '.join(sep)}}} of step "
                              f"{step} is not the intersection of its cliques")
        inner, outer = (b, a) if set(b) <= set(a) else (a, b)
        if set(inner) <= set(outer):
            raise DomainError(f"clique {{{', '.join(inner)}}} of step {step} "
                              f"lies inside {{{', '.join(outer)}}}")
    if k <= 1:
        return []
    seps = path.separators
    first = tuple(v for v in path.cliques[0] if v not in seps[0])
    last = tuple(v for v in path.cliques[-1] if v not in seps[-1])
    return [(seps[0], first), *zip(seps[1:], seps), (last, seps[-1])]


def _clique_marginals(net: BayesNet, jt: JunctionTree, scopes,
                      limit: int | None = None) -> list[JointTable]:
    """For each variable set in ``scopes``, the marginal of the first
    clique of ``jt`` that holds it, by sum-product on the tree.

    ``net`` holds exactly the tree's variables, each one's parents among
    them, so the product of its CPTs is their joint; each CPT is
    multiplied into the first clique that holds its family.  Clique
    members are listed in declaration order, as ``build_junction_tree``
    lists them.  One collect
    pass sends a message from every clique toward the first clique
    asked for, and one distribute pass sends messages back out along the
    branches that lead to the others (Shafer-Shenoy, no division).  No
    table built is larger than the largest clique table, which ``limit``
    caps (resolved by ``state_limit``) before any work is done.
    """
    cards = {v.name: len(v.levels) for v in net.variables}
    cliques = jt.cliques
    shapes = [tuple(cards[v] for v in c) for c in cliques]
    sizes = [math.prod(shape) for shape in shapes]
    big = sizes.index(max(sizes))
    cap = state_limit(limit)
    if sizes[big] > cap:
        raise ResourceLimitError(
            f"clique table {{{', '.join(cliques[big])}}} has {sizes[big]} "
            f"configurations, limit is {cap}")
    sets = [frozenset(c) for c in cliques]
    # each clique's potential: its CPTs laid out along its own axes
    unplaced = dict(zip(net.names(), net.cpts))
    potentials = []
    for c, members, shape in zip(cliques, sets, shapes):
        phi = None
        for v in c:
            t = unplaced.get(v)
            if t is None or not members.issuperset(t.parents):
                continue
            del unplaced[v]
            family = t.parents + (v,)
            grid = t.grid()
            if family != c:
                axes = [c.index(u) for u in family]
                grid = grid.transpose(
                    sorted(range(len(axes)), key=axes.__getitem__)).reshape(
                        [n if u in family else 1 for u, n in zip(c, shape)])
            phi = grid if phi is None else phi * grid
        if phi is None or phi.shape != shape:
            # a variable no family covers here enters as ones
            phi = np.ones(shape) * (1.0 if phi is None else phi)
        potentials.append(phi)
    if unplaced:
        raise DomainError("no clique of the tree holds the family of "
                          f"{next(iter(unplaced))!r}")
    hosts = []
    for s in scopes:
        found = next((i for i, m in enumerate(sets) if m.issuperset(s)), None)
        if found is None:
            raise DomainError(
                f"no clique of the tree holds {sorted(s, key=net.position)}")
        hosts.append(found)
    if not hosts:
        return []

    adj = jt.neighbors()
    root = hosts[0]
    paths = _tree_paths(jt, root)
    order = list(paths)
    up = {j: path[-2] for j, path in paths.items() if j != root}

    def message(table: np.ndarray, i: int, j: int) -> np.ndarray:
        """``table`` over clique i summed onto its separator with clique
        j and laid along j's axes; separators keep declaration order."""
        drop = tuple(a for a, v in enumerate(cliques[i]) if v not in sets[j])
        return table.sum(axis=drop).reshape(
            [n if v in sets[i] else 1 for v, n in zip(cliques[j], shapes[j])])

    # collect: inward[i] is clique i's potential times every message from
    # the subtree below it, and below[i] what clique i sends up
    inward = list(potentials)
    below = {}
    for i in reversed(order[1:]):
        below[i] = message(inward[i], i, up[i])
        inward[up[i]] = inward[up[i]] * below[i]
    # distribute toward the hosts: above[j] is what clique j's parent
    # sends down, everything outside j's subtree
    down: set[int] = set()
    for i in hosts:
        while i != root and i not in down:
            down.add(i)
            i = up[i]
    above = {}
    marginals = {root: inward[root]}
    for j in order[1:]:
        if j in down:
            i = up[j]
            rest = potentials[i] if i == root else potentials[i] * above[i]
            for k in adj[i]:
                if k != j and up.get(k) == i:
                    rest = rest * below[k]
            above[j] = message(rest, i, j)
            marginals[j] = inward[j] * above[j]
    return [JointTable(cliques[i], shapes[i], marginals[i].reshape(-1))
            for i in hosts]
