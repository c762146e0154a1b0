"""Moralization, triangulation, junction trees, clique paths, and
calibrated clique marginals.

Graphs are ``{vertex: neighbour set}`` dicts; a query reads its moral
graph off the CPTs and builds no ``UGraph`` (``_moral_tree``).  One
min-fill elimination (``_eliminate``) serves ``triangulate``,
``is_chordal``, ``maximal_cliques`` and each junction tree, whose
spanning tree compares only clique pairs that share a vertex and joins
the components left by weight-0 pairs, lowest index first: the tree of
all-pairs Kruskal.  Each tree caches its neighbour map for the path
search and the calibration.  Ties go to the lowest declaration
position, so equal inputs give equal trees.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bn_model import BayesNet, _ancestral_subnet
from .errors import DomainError
from .exact_oracle import JointTable, _check_limit


def _join(adj: dict[str, set[str]], edges) -> None:
    """Join the two ends of each edge in ``adj``, refusing first an edge
    with an end outside it, then a self-loop."""
    for a, b in edges:
        if a not in adj or b not in adj:
            raise DomainError(f"edge ({a!r}, {b!r}) references unknown vertex")
        if a == b:
            raise DomainError(f"self-loop on {a!r}")
        adj[a].add(b)
        adj[b].add(a)


@dataclass(frozen=True)
class UGraph:
    """Undirected graph over named vertices (no self-loops)."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        pos = {v: i for i, v in enumerate(self.vertices)}
        adj: dict[str, set[str]] = {v: set() for v in pos}
        _join(adj, self.edges)
        fixed = sorted(((a, b) for a in adj for b in adj[a] if pos[a] < pos[b]),
                       key=lambda e: (pos[e[0]], pos[e[1]]))
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

    _adjacent = cached_property(neighbors)  # the library's map, built once


@dataclass(frozen=True)
class CliquePath:
    """A repeat-free clique sequence with the separators between steps."""

    cliques: tuple[tuple[str, ...], ...]
    separators: tuple[tuple[str, ...], ...]


def _moral_edges(net: BayesNet):
    """The moral graph's edges read straight off the CPTs: each child's
    edges to its parents, then each pair of its co-parents."""
    for v, t in zip(net.variables, net.cpts):
        yield from ((p, v.name) for p in t.parents)
        yield from itertools.combinations(t.parents, 2)


def moralize(net: BayesNet) -> UGraph:
    """The moral graph of ``net``."""
    return UGraph(net.names(), tuple(_moral_edges(net)))


def _moral_tree(net: BayesNet, sets):
    """The junction tree of the moral graph of ``net`` with every pair
    inside each of ``sets`` joined so that one clique holds each set,
    and for each set whether the moral graph lacked one of its pairs.
    Edges are refused as ``UGraph`` refuses them, in the same order."""
    adj: dict[str, set[str]] = {name: set() for name in net.names()}
    _join(adj, _moral_edges(net))
    pairs = [list(itertools.combinations(
        sorted(s, key=net._index.__getitem__), 2)) for s in sets]
    joined = [any(b not in adj[a] for a, b in p) for p in pairs]
    _join(adj, itertools.chain(*pairs))
    return _junction_tree(adj, net._index), joined


def _eliminate(adj: dict[str, set[str]], rank: dict[str, int]):
    """Min-fill elimination of ``adj``, which it consumes: (fill edges,
    maximal cliques of the filled graph, each and their list by ``rank``).

    Each step removes the vertex whose neighbours lack the fewest edges
    among themselves, the first in ``adj``'s order on ties, after
    joining those neighbours.  A count stops once the vertex cannot beat
    the best so far, and the scan stops at a vertex that needs no fill,
    so each step picks the vertex the full scan picks.  The order is a
    perfect elimination order of the graph with the fill added, and a
    graph is chordal exactly when no fill is added (Fulkerson & Gross
    1965; Rose, Tarjan & Lueker 1976).  Each vertex with its remaining
    neighbours is a maximal clique unless it equals an earlier vertex's
    remaining neighbours (Blair & Peyton 1993): one lookup per step.
    """
    fill: list[tuple[str, str]] = []
    cliques: list[frozenset[str]] = []
    later: set[frozenset[str]] = set()
    while adj:
        best_v, best_cost = None, None
        for v in adj:
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
        rest = frozenset(adj[best_v])
        if (c := rest | {best_v}) not in later:
            cliques.append(c)
        later.add(rest)
        for u in adj.pop(best_v):
            adj[u].discard(best_v)
    ordered = [tuple(sorted(c, key=rank.__getitem__)) for c in cliques]
    ordered.sort(key=lambda c: [rank[v] for v in c])
    return fill, tuple(ordered)


def triangulate(g: UGraph) -> UGraph:
    """Chordal supergraph via min-fill elimination.

    Ties are broken by declaration order, so the result is deterministic.
    """
    fill = _eliminate(g.neighbors(), g._pos)[0]
    return UGraph(g.vertices, g.edges + tuple(fill))


def is_chordal(g: UGraph) -> bool:
    """True when min-fill elimination adds no edge."""
    return not _eliminate(g.neighbors(), g._pos)[0]


def maximal_cliques(g: UGraph) -> tuple[tuple[str, ...], ...]:
    """Maximal cliques of a chordal graph, in canonical order."""
    fill, cliques = _eliminate(g.neighbors(), g._pos)
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
    return _junction_tree(g.neighbors(), g._pos)


def _junction_tree(adj: dict, rank: dict[str, int]) -> JunctionTree:
    """``build_junction_tree`` of the graph ``adj``, which it consumes.
    Kruskal takes the pairs that share a vertex by (-weight, i, j); the
    weight-0 pairs that follow start (0, j), which join all the rest."""
    cliques = _eliminate(adj, rank)[1]
    m = len(cliques)
    # (i, j) -> the members clique i < j shares with clique j, in order
    shared: dict[tuple[int, int], list[str]] = {}
    holders: dict[str, list[int]] = {}
    for i, c in enumerate(cliques):
        for v in c:
            for h in holders.setdefault(v, []):
                shared.setdefault((h, i), []).append(v)
            holders[v].append(i)
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree_edges = []
    for i, j in itertools.chain(
            sorted(shared, key=lambda e: (-len(shared[e]), e)),
            ((0, j) for j in range(1, m) if len(tree_edges) < m - 1)):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            tree_edges.append((i, j, tuple(shared.get((i, j), ()))))
    tree_edges.sort()

    # the lowest-index clique next to a placed one goes next; the tree
    # spans every clique, so all are reached from clique 0
    adjacent = JunctionTree(cliques, tuple(tree_edges), ()).neighbors()
    rip: dict[int, None] = {}
    frontier = [0] if m else []
    while frontier:
        i = heapq.heappop(frontier)
        if i not in rip:
            rip[i] = None
            for j in adjacent[i]:
                heapq.heappush(frontier, j)

    if not verify_running_intersection(cliques, tuple(rip)):
        raise DomainError("running intersection verification failed")
    return JunctionTree(cliques, tuple(tree_edges), tuple(rip))


def _tree_paths(jt: JunctionTree, start: int) -> dict[int, tuple[int, ...]]:
    """Clique index sequence from ``start`` to every clique it reaches,
    found by one breadth-first search of the tree."""
    paths = {start: (start,)}
    queue = [start]
    for i in queue:
        for j in jt._adjacent[i]:
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
    sets, each set's pairs joined so that one clique holds it.  The path
    runs from the lowest-index clique holding ``donor`` to the clique
    holding ``target`` nearest to it, the lower index winning a tie.
    That keeps the chain of factors as short as possible and, for a
    single-variable target, puts the target among the final clique's
    fresh variables rather than inside the last separator, so the
    impact product prices its margin.  Separators are clique
    intersections; independent variables get an empty one.  A set that
    needed joining is refused when the path's first separator S2 holds
    one of its donors, or the last one of its targets: the end factors
    P(S2 | C1 minus S2) and P(Ck minus Sk | Sk) price separator members
    as outputs, so the product could fall below the donor's influence.
    Returns (junction tree, clique path).
    """
    return _donor_target(net, donor, target)[1:]


def _donor_target(net: BayesNet, donor, target):
    """``donor_target_path``, led by the ancestral subnet its tree is of."""
    donor, target = list(donor), list(target)
    if not donor or not target:
        raise DomainError("donor and target sets must be nonempty")
    # a list, so an unknown name is reported in the order given
    sub = _ancestral_subnet(net, donor + target)
    donor, target = set(donor), set(target)
    jt, joined = _moral_tree(sub, (donor, target))
    c_donor = next(i for i, c in enumerate(jt.cliques) if donor <= set(c))
    paths = _tree_paths(jt, c_donor)
    c_target = min((i for i, c in enumerate(jt.cliques) if target <= set(c)),
                   key=lambda i: (len(paths[i]), i))
    path = _clique_path(jt, paths[c_target])
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
    return sub, jt, path


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

    The CPTs of the tree's variables, read from ``net``, are multiplied
    in, each into the first clique that holds its family.  With every
    variable's parents in the tree that product is the tree's joint, and
    ``net``'s other variables drop out as barren (Shachter 1986).
    Clique members, and so each marginal's axes, are in declaration
    order, as ``build_junction_tree`` lists them.  One collect pass
    sends a message from every clique toward the first clique asked
    for, and one distribute pass sends messages back out along the
    branches that lead to the others (Shafer-Shenoy, no division).  No
    table built is larger than the largest clique table, which ``limit``
    caps before any work is done.
    """
    cliques = jt.cliques
    cards = {v: len(net.variable(v).levels) for c in cliques for v in c}
    shapes = [tuple(cards[v] for v in c) for c in cliques]
    sizes = [math.prod(shape) for shape in shapes]
    big = sizes.index(max(sizes))
    _check_limit(sizes[big], f"clique table {{{', '.join(cliques[big])}}}",
                 limit)
    sets = [frozenset(c) for c in cliques]
    # each clique's potential: its CPTs laid out along its own axes
    unplaced = {v: net.cpt(v) for v in net.sorted_by_position(cards)}
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
    # distribute toward the hosts, down every branch on a root-to-host
    # path: above[j] is what clique j's parent sends down, everything
    # outside j's subtree
    down = {j for i in hosts for j in paths[i][1:]}
    above = {}
    marginals = {root: inward[root]}
    for j in order[1:]:
        if j in down:
            i = up[j]
            rest = potentials[i] if i == root else potentials[i] * above[i]
            for k in jt._adjacent[i]:
                if k != j and up.get(k) == i:
                    rest = rest * below[k]
            above[j] = message(rest, i, j)
            marginals[j] = inward[j] * above[j]
    return [JointTable(cliques[i], shapes[i], marginals[i].reshape(-1))
            for i in hosts]
