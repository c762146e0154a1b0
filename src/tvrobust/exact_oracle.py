"""Brute-force exact inference on small networks.

Dense enumeration only.  The joint is materialized as a flat numpy
array over the mixed-radix product space, first declared variable most
significant, then marginals and conditional tables are read off it.
Deliberately no variable elimination and no message passing: this code
is the trusted oracle the bounds are verified against, so it stays as
simple as possible.  A configurable state-space cap (default 2^22,
overridable with the TVROBUST_LIMIT environment variable) guards
memory; exceeding it is a hard error, never a silent truncation.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .bn_model import BayesNet, _ancestral_subnet, _require_valid
from .errors import DomainError, ResourceLimitError
from .tv_core import Cpt

DEFAULT_STATE_LIMIT = 2 ** 22
_ENV_LIMIT = "TVROBUST_LIMIT"


def state_limit(explicit: int | None = None) -> int:
    """Resolve the state-space cap: argument, environment, default."""
    if explicit is not None:
        if explicit < 1:
            raise DomainError(f"state limit must be positive, got {explicit}")
        return explicit
    raw = os.environ.get(_ENV_LIMIT)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise DomainError(f"{_ENV_LIMIT} must be an integer, got {raw!r}")
        if value < 1:
            raise DomainError(f"{_ENV_LIMIT} must be positive, got {value}")
        return value
    return DEFAULT_STATE_LIMIT


@dataclass(frozen=True)
class JointTable:
    """Dense mass function over an ordered variable scope.

    ``mass`` is flat, indexed in mixed radix with the first scope
    variable most significant (C order of the reshaped array).
    """

    scope: tuple[str, ...]
    cards: tuple[int, ...]
    mass: np.ndarray

    def grid(self) -> np.ndarray:
        return self.mass.reshape(self.cards)


def joint_mass(net: BayesNet, limit: int | None = None) -> JointTable:
    """Full joint of a validated net by multiplying broadcast CPT factors."""
    _require_valid(net)
    names = net.names()
    cards = tuple(len(v.levels) for v in net.variables)
    size = 1
    for c in cards:
        size *= c
    cap = state_limit(limit)
    if size > cap:
        raise ResourceLimitError(
            f"state space has {size} configurations, limit is {cap}"
        )
    pos = {n: i for i, n in enumerate(names)}
    n = len(names)
    full = np.ones(cards, dtype=np.float64)
    for v, t in zip(net.variables, net.cpts):
        axes = [pos[p] for p in t.parents] + [pos[v.name]]
        # put the factor's axes at their positions in the full array
        factor = t.grid().transpose(np.argsort(axes))
        target_shape = [1] * n
        for a in axes:
            target_shape[a] = cards[a]
        full = full * factor.reshape(target_shape)
    return JointTable(names, cards, full.reshape(-1))


def marginal_of(joint: JointTable, A) -> JointTable:
    """Marginal of an existing joint over a nonempty subset of its scope."""
    keep = [n for n in joint.scope if n in set(A)]
    for a in A:
        if a not in joint.scope:
            raise DomainError(f"unknown variable {a!r}")
    if not keep:
        raise DomainError("empty marginal scope")
    drop = tuple(i for i, name in enumerate(joint.scope) if name not in keep)
    grid = joint.grid()
    if drop:
        grid = grid.sum(axis=drop)
    cards = tuple(joint.cards[joint.scope.index(name)] for name in keep)
    return JointTable(tuple(keep), cards, grid.reshape(-1))


def marginal(net: BayesNet, A, limit: int | None = None) -> JointTable:
    """Marginal over ``A``, scope ordered by declaration.

    It is read off the joint of the ancestral set of ``A``, so ``limit``
    caps that set's states.
    """
    A = tuple(A)
    return marginal_of(_ancestral_joint(net, A, limit), A)


def table_tv(a: JointTable, b: JointTable) -> float:
    """TV distance between two joints over the same scope."""
    if a.scope != b.scope or a.cards != b.cards:
        raise DomainError(
            f"scope mismatch: {list(a.scope)} vs {list(b.scope)}"
        )
    return 0.5 * float(np.abs(a.mass - b.mass).sum())


def _ancestral_joint(net: BayesNet, names,
                     limit: int | None = None) -> JointTable:
    """Joint of the ancestral set of ``names``.

    Its margin over any subset of the set equals the full net's margin,
    and the state cap counts only the set's own configurations.
    """
    return joint_mass(_ancestral_subnet(net, names), limit)


def _conditional(net: BayesNet, joint: JointTable, conds, free):
    """P(free | conds) read off ``joint`` as a 2-d array, a row per
    configuration of ``conds`` (the first most significant); a
    configuration of zero probability is an error."""
    m = marginal_of(joint, conds + free)
    grid = m.grid().transpose([m.scope.index(n) for n in conds + free])
    cond_cards = grid.shape[:len(conds)]
    block = grid.reshape(math.prod(cond_cards), -1)
    denom = block.sum(axis=1)
    zero = np.flatnonzero(denom <= 0.0)
    if zero.size:
        config = np.unravel_index(zero[0], cond_cards)
        raise DomainError(
            "conditioning configuration has zero probability: "
            + ", ".join(f"{n}={net.variable(n).levels[i]}"
                        for n, i in zip(conds, config)))
    return block / denom[:, None]


def _factor_table(net: BayesNet, joint: JointTable, outputs,
                  given) -> np.ndarray:
    """Rows of P(outputs | given) read off ``joint``, whose scope holds
    both sets, as a 2-d array laid out as in :func:`transition_table`.
    """
    outs = net.sorted_by_position(set(outputs))
    conds = net.sorted_by_position(set(given))
    if not outs:
        raise DomainError("empty output set")
    free = tuple(n for n in outs if n not in conds)
    card = dict(zip(joint.scope, joint.cards))
    cond_cards = [card[n] for n in conds]
    # columns of outputs fixed by the row hold the indicator of agreement
    table = _conditional(net, joint, conds, free).reshape(
        cond_cards + [1 if n in conds else card[n] for n in outs])
    for n in outs:
        if n in conds:
            shape = [1] * table.ndim
            shape[conds.index(n)] = card[n]
            shape[len(conds) + outs.index(n)] = card[n]
            table = table * np.eye(card[n]).reshape(shape)
    return table.reshape(math.prod(cond_cards), -1)


def transition_table(net: BayesNet, outputs, given,
                     limit: int | None = None) -> Cpt:
    """Stochastic table P(outputs | given), both in declaration order.

    The two sets may overlap; a column whose values disagree with the
    row on shared variables gets mass 0.  ``given`` may be empty,
    producing a single-row table of the marginal.  Rows conditioned on
    a zero-probability configuration are an error.  The table is read
    off the joint of the ancestral set of both sets, so ``limit`` caps
    that set's states.
    """
    joint = _ancestral_joint(net, set(outputs) | set(given), limit)
    rows = _factor_table(net, joint, outputs, given)
    outs = net.sorted_by_position(set(outputs))
    conds = net.sorted_by_position(set(given))
    # product varies its last factor fastest: first name most significant
    col_labels = tuple(",".join(c) for c in itertools.product(
        *(net.variable(n).levels for n in outs)))
    return Cpt(
        child=",".join(outs),
        child_levels=col_labels,
        parents=conds,
        parent_levels=tuple(net.variable(n).levels for n in conds),
        rows=rows,
    )
