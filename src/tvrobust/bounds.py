"""Propagation and composition bounds built on TV diameters.

Two ways to price a clique path: the exact mode reads each factor
table off the calibrated marginal of a junction-tree clique that holds
it and takes its true diameter; the bound mode touches no probabilities
beyond the model's own CPTs and assembles an upper bound for each
factor from their diameters.  The exact value never exceeds the
assembled bound, and both are certified factor by factor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .bn_model import (
    BayesNet,
    _ancestral_subnet,
    _require_valid,
    descendants_map,
)
from .errors import DomainError
from .exact_oracle import _check_mass, _factor_table, state_limit
from .jtree import (
    CliquePath,
    JunctionTree,
    _clique_marginals,
    _donor_target,
    _moral_tree,
    path_factor_specs,
)
from .tv_core import Cpt, ProbVec, _pair_scan, diameter, tv_distance


@dataclass(frozen=True)
class Factor:
    """One certified factor of a path impact product."""

    table: str
    value: float
    provenance: str
    terms: tuple[str, ...] = field(default=())


@dataclass(frozen=True)
class BoundResult:
    value: float
    mode: str
    certificate: tuple[Factor, ...]


@dataclass(frozen=True)
class OverlapDecomposition:
    """Mixture form of two vectors over their common mass.

    Both inputs reconstruct as beta * common + (1 - beta) * residual_i,
    and 1 - beta equals their TV distance exactly.
    """

    beta: float
    common: ProbVec
    residual_1: ProbVec
    residual_2: ProbVec


def overlap_decompose(p1: ProbVec, p2: ProbVec) -> OverlapDecomposition:
    """The mixture form of two aligned vectors over their common mass.

    Each part is scaled by its own sum, so it sums to 1 however small
    its share of the mass; ``beta`` is 1 - tv_distance(p1, p2), or 0
    where rounding takes the distance past 1.  Vectors with no common
    mass are their own residuals over a uniform common part, and one at
    or below the other everywhere, as the row-sum tolerance allows, has
    the common part as its residual.
    """
    if p1.levels != p2.levels:
        raise DomainError("level mismatch")
    beta = max(0.0, 1.0 - tv_distance(p1, p2))
    floor = tuple(min(a, b) for a, b in zip(p1.mass, p2.mass))
    if not any(floor):
        # disjoint supports: no common mass, residuals are the inputs
        n = len(p1.levels)
        common = ProbVec.of(p1.levels, (1.0 / n,) * n)
        return OverlapDecomposition(beta, common, p1, p2)

    def scaled(part) -> ProbVec:
        total = sum(part)
        return ProbVec.of(p1.levels, tuple(x / total for x in part))

    common = scaled(floor)
    r1 = tuple(a - m for a, m in zip(p1.mass, floor))
    r2 = tuple(b - m for b, m in zip(p2.mass, floor))
    return OverlapDecomposition(beta, common,
                                scaled(r1) if any(r1) else common,
                                scaled(r2) if any(r2) else common)


def propagate_bound(d_pi: float, P: Cpt) -> float:
    """Worst-case TV of induced margins for inputs at TV distance d_pi."""
    if not 0.0 <= d_pi <= 1.0:
        raise DomainError(f"TV distance out of range: {d_pi}")
    return diameter(P) * d_pi


def _factor_name(outputs, given) -> str:
    left = ", ".join(outputs) if outputs else "()"
    right = ", ".join(given) if given else "()"
    return f"P({left} | {right})"


def _bound_pricer(net: BayesNet):
    """Bound-mode ``price(outputs, given)`` for the factors of one path.

    Descendants are computed once per pricer; the topological rank is
    read off the descendants map's keys, so the net is sorted once.  By
    running intersection, a variable is an output of at most one factor
    of a junction-tree path, so each CPT diameter is taken at most once
    and none is cached.  A factor is upper-bounded from model CPT
    diameters alone, its output variables taken in topological order.  A
    variable that already appears in the conditioning set is an identity
    column and contributes 1.  Otherwise its contribution is its own CPT
    diameter, which is sound when the conditioning set holds no
    descendant of the variable (extra non-descendant conditioning beyond
    the parents adds nothing, and absent parents only average rows
    together).  A conditioning set containing a descendant cannot be
    bounded this way and is reported as a gap.

    ``net`` may be the ancestral subnet of the variables priced, as
    ``impact`` and ``path_impact`` pass it.  That subnet keeps their
    relative topological order, and a directed path from a variable to
    a member of the conditioning set runs through ancestors of that
    member, all inside the subnet, so each descendant in the
    conditioning set is found there too; every value, certificate and
    gap is that of the whole net.
    """
    desc = descendants_map(net)
    topo_rank = {n: i for i, n in enumerate(desc)}

    def price(outputs, given) -> Factor:
        z = list(given)
        terms = []
        total = 0.0
        for w in sorted(outputs, key=topo_rank.get):
            if w in z:
                total += 1.0
                terms.append(f"{w}: 1 (fixed by conditioning set)")
                continue
            blockers = desc[w] & set(z)
            if blockers:
                raise DomainError(
                    f"cannot bound {_factor_name(outputs, given)}: "
                    f"conditioning set of {w} contains descendant(s) "
                    + ", ".join(sorted(blockers))
                )
            d = diameter(net.cpt(w))
            missing = [p for p in net.parents_of(w) if p not in z]
            note = " (absent parents averaged)" if missing else ""
            total += d
            terms.append(f"{w}: {d!r} from its CPT diameter{note}")
            z.append(w)
        return Factor(_factor_name(outputs, given), min(1.0, total),
                      "cpt-bound", tuple(terms))
    return price


def _impact_product(specs, price, mode: str) -> BoundResult:
    """The product of ``price`` over the (outputs, given) factor specs."""
    if not specs:
        return BoundResult(
            1.0, mode,
            (Factor("(donor and target share a clique)", 1.0, "convention"),),
        )
    factors = [
        price(outputs, given) if outputs
        else Factor(_factor_name(outputs, given), 0.0, "empty separator")
        for outputs, given in specs
    ]
    value = 1.0
    for f in factors:
        value *= f.value
    return BoundResult(min(1.0, value), mode, tuple(factors))


def _exact_pricer(sub: BayesNet, path: CliquePath, specs, limit,
                  tree: JunctionTree | None):
    """Exact-mode ``price`` for the factor specs of ``path`` on ``sub``,
    the ancestral subnet of the path's cliques.

    Each factor is read off the calibrated marginal of the first clique
    of ``tree`` that holds its path clique, which holds the factor's
    variables; that marginal is the same on any tree of ``sub``, such as
    the one ``impact`` cut the path from.  Without ``tree``, it is the
    tree of the moral graph of ``sub`` with every pair inside each
    priced path clique joined.  ``sub`` is validated, and the size cap
    is checked, before any table is built, even for a one-clique path.
    A factor sharing a variable of 2+ levels builds no table: the one
    zero-mass check, ``_check_mass``, gets its marginal summed onto ``given``.
    """
    priced = [spec for spec in specs if spec[0]]
    scopes = [c for c, spec in zip(path.cliques, specs) if spec[0]]
    _require_valid(sub)
    if tree is None:
        tree = _moral_tree(sub, scopes)[0]
    tables = dict(zip(priced, _clique_marginals(sub, tree, scopes, limit)))

    def price(outputs, given) -> Factor:
        joint, name = tables[outputs, given], _factor_name(outputs, given)
        if any(len(sub.variable(n).levels) > 1
               for n in set(outputs) & set(given)):
            # once every row has mass, rows that disagree on a shared
            # variable of 2+ levels have disjoint supports: diameter 1
            mass = joint.grid().sum(axis=tuple(
                i for i, n in enumerate(joint.scope) if n not in given))
            _check_mass(sub, sub.sorted_by_position(set(given)), mass)
            return Factor(name, 1.0, "oracle")
        rows = _factor_table(sub, joint, outputs, given)
        return Factor(name, _pair_scan(rows)[0], "oracle")
    return price


def _priced(net: BayesNet, path: CliquePath, mode: str, limit,
            tree: JunctionTree | None = None) -> BoundResult:
    """``path_impact`` on ``net``, or, given the junction tree ``path``
    was cut from, on ``net`` as the ancestral subnet that tree is of."""
    if mode not in ("exact", "bound"):
        raise DomainError(f"unknown mode {mode!r}")
    limit = state_limit(limit)
    specs = path_factor_specs(path)
    sub = net if tree is not None else _ancestral_subnet(
        net, itertools.chain.from_iterable(path.cliques))
    if mode == "bound":
        # a single-clique path needs no pricer, so no topological order
        price = _bound_pricer(sub) if specs else None
    else:
        price = _exact_pricer(sub, path, specs, limit, tree)
    return _impact_product(specs, price, mode)


def impact(net: BayesNet, donor, target, mode: str = "exact",
           limit: int | None = None) -> tuple[CliquePath, BoundResult]:
    """The clique path ``donor_target_path`` finds and its impact
    product, from one search, whose errors come first.

    Both modes price on the ancestral subnet the search built, which is
    that of the path's cliques: they hold ``donor`` and ``target`` and
    lie inside it.  Exact mode calibrates the search's own tree, whose
    largest clique table ``limit`` caps.  ``path_impact`` of the path
    gives the same result, up to rounding in exact mode.
    """
    sub, tree, path = _donor_target(net, donor, target)
    return path, _priced(sub, path, mode, limit, tree)


def path_impact(net: BayesNet, path: CliquePath, mode: str = "exact",
                limit: int | None = None) -> BoundResult:
    """Impact product along a clique path.

    ``mode`` is "exact" (true diameters of factor tables read off
    calibrated clique marginals) or "bound" (assembled from model CPT
    diameters).  The value is the product of the factor values; a
    single-clique path carries no attenuation and has value 1.  An
    empty separator on the path means the endpoints live in
    disconnected components, so the factor and the whole product are 0.
    A separator that is not the intersection of its cliques is an error.

    Both modes price on the ancestral subnet of the path's cliques, so
    their graph work grows with the ancestors a query touches, not the
    net.  Exact mode calibrates the tree of that subnet's moral graph
    with every pair inside each priced path clique joined.  ``limit`` is
    resolved by ``state_limit`` in both modes, so a malformed cap is an
    error in either; exact mode caps the largest clique table of that
    tree with it, even for a single-clique path, and bound mode applies
    no cap.  An unknown path variable is a DomainError in either mode.
    """
    return _priced(net, path, mode, limit)
