"""Total-variation computations on probability vectors and CPTs.

Everything here is a pure function on immutable values.  Max-taking
operations resolve ties to the lowest row indices so reports are
deterministic, and sums run left to right over columns for the same
reason.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import DomainError

ROW_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ProbVec:
    """A finite probability mass function over named levels.

    Direct construction performs no checking (validation reports need to
    hold malformed rows); use :meth:`of` to construct with checking.
    """

    levels: tuple[str, ...]
    mass: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "mass", tuple(float(x) for x in self.mass))

    def violations(self) -> list[str]:
        problems = []
        if len(self.levels) < 1:
            problems.append("no levels")
        if len(self.levels) != len(self.mass):
            problems.append(
                f"{len(self.mass)} masses for {len(self.levels)} levels"
            )
        if len(set(self.levels)) != len(self.levels):
            problems.append("duplicate level labels")
        if any(x < 0 for x in self.mass):
            problems.append("negative mass")
        if self.mass:
            total = sum(self.mass)
            if not math.isfinite(total):
                problems.append("non-finite mass")
            elif abs(total - 1.0) > ROW_SUM_TOLERANCE:
                problems.append(f"mass sums to {total!r}")
        return problems

    @classmethod
    def of(cls, levels, mass) -> "ProbVec":
        v = cls(tuple(levels), tuple(mass))
        problems = v.violations()
        if problems:
            raise DomainError("invalid probability vector: " + "; ".join(problems))
        return v


def tv_distance(p: ProbVec, q: ProbVec) -> float:
    """Half the L1 distance between two aligned probability vectors."""
    if p.levels != q.levels:
        raise DomainError(
            f"level mismatch: {list(p.levels)} vs {list(q.levels)}"
        )
    total = 0.0
    for a, b in zip(p.mass, q.mass):
        total += abs(a - b)
    return 0.5 * total


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table P(child | parents).

    Rows are indexed by parent configuration in mixed radix with the
    first parent most significant (the first parent varies slowest).
    A CPT with no parents has exactly one row.
    """

    child: str
    child_levels: tuple[str, ...]
    parents: tuple[str, ...]
    parent_levels: tuple[tuple[str, ...], ...]
    rows: tuple[ProbVec, ...]

    def __post_init__(self):
        object.__setattr__(self, "child_levels", tuple(self.child_levels))
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(
            self, "parent_levels", tuple(tuple(ls) for ls in self.parent_levels)
        )
        object.__setattr__(self, "rows", tuple(self.rows))

    @property
    def n_rows(self) -> int:
        n = 1
        for ls in self.parent_levels:
            n *= len(ls)
        return n

    def row_index(self, config) -> int:
        """Index of the row for a parent configuration (level labels)."""
        config = tuple(config)
        if len(config) != len(self.parents):
            raise DomainError(
                f"configuration size {len(config)} for {len(self.parents)} parents"
            )
        idx = 0
        for label, ls in zip(config, self.parent_levels):
            if label not in ls:
                raise DomainError(f"unknown level {label!r}")
            idx = idx * len(ls) + ls.index(label)
        return idx

    def parent_config(self, index: int) -> tuple[str, ...]:
        """Level labels of the parent configuration of a row index."""
        if not 0 <= index < self.n_rows:
            raise DomainError(f"row index {index} out of range")
        labels = []
        for ls in reversed(self.parent_levels):
            labels.append(ls[index % len(ls)])
            index //= len(ls)
        return tuple(reversed(labels))

    def violations(self) -> list[str]:
        problems = []
        if len(self.child_levels) < 1:
            problems.append(f"{self.child}: no child levels")
        if len(set(self.child_levels)) != len(self.child_levels):
            problems.append(f"{self.child}: duplicate child levels")
        if len(self.parents) != len(self.parent_levels):
            problems.append(f"{self.child}: parent/level list size mismatch")
        if len(set(self.parents)) != len(self.parents):
            problems.append(f"{self.child}: duplicate parents")
        if len(self.rows) != self.n_rows:
            problems.append(
                f"{self.child}: {len(self.rows)} rows, expected {self.n_rows}"
            )
        for i, row in enumerate(self.rows):
            if row.levels != self.child_levels:
                problems.append(f"{self.child}: row {i} has wrong levels")
            for p in row.violations():
                problems.append(f"{self.child}: row {i}: {p}")
        return problems

    @classmethod
    def of(cls, child, child_levels, parents, parent_levels, rows) -> "Cpt":
        t = cls(child, tuple(child_levels), tuple(parents),
                tuple(tuple(ls) for ls in parent_levels), tuple(rows))
        problems = t.violations()
        if problems:
            raise DomainError("invalid CPT: " + "; ".join(problems))
        return t


@dataclass(frozen=True)
class VariationMatrix:
    """Pairwise row TV distances of a CPT."""

    dim: int
    entries: tuple[tuple[float, ...], ...]


def _check_same_shape(P: Cpt, Q: Cpt) -> None:
    if (P.child_levels != Q.child_levels
            or P.parents != Q.parents
            or P.parent_levels != Q.parent_levels):
        raise DomainError(
            f"CPT shape mismatch between {P.child!r} and {Q.child!r}"
        )


def cpt_tv_plus(P: Cpt, Q: Cpt) -> float:
    """Row-wise maximum TV between two same-shape CPTs."""
    _check_same_shape(P, Q)
    best = 0.0
    for p, q in zip(P.rows, Q.rows):
        best = max(best, tv_distance(p, q))
    return best


def cpt_superbound(P: Cpt, Q: Cpt) -> float:
    """Maximum TV between any row of P and any row of Q."""
    value, _ = _superbound_with_witness(P, Q)
    return value


def superbound_witness(P: Cpt, Q: Cpt) -> tuple[int, int]:
    """Zero-based (P row, Q row) pair attaining the superbound.

    Ties resolve to the lowest P row, then the lowest Q row.
    """
    _, pair = _superbound_with_witness(P, Q)
    return pair


def _superbound_with_witness(P: Cpt, Q: Cpt):
    if P.child_levels != Q.child_levels:
        raise DomainError("child level mismatch")
    if len(P.rows) != len(Q.rows):
        raise DomainError("row count mismatch")
    best = -1.0
    pair = (0, 0)
    for i, p in enumerate(P.rows):
        for j, q in enumerate(Q.rows):
            d = tv_distance(p, q)
            if d > best:
                best, pair = d, (i, j)
    return best, pair


def diameter(P: Cpt) -> float:
    """Maximum TV between any two rows of a CPT.

    Zero exactly when all rows are equal, in which case the child is
    independent of its parents.
    """
    value, _ = _diameter_with_witness(P)
    return value


def diameter_witness(P: Cpt) -> tuple[int, int]:
    """Zero-based row pair attaining the diameter, lowest indices on ties."""
    _, pair = _diameter_with_witness(P)
    return pair


def _diameter_with_witness(P: Cpt):
    best = 0.0
    pair = (0, 0)
    for i in range(len(P.rows)):
        for j in range(i + 1, len(P.rows)):
            d = tv_distance(P.rows[i], P.rows[j])
            if d > best:
                best, pair = d, (i, j)
    return best, pair


def local_diameter(P: Cpt, I) -> float:
    """Diameter restricted to the row subset ``I`` (zero-based indices)."""
    idx = sorted(set(I))
    if not idx:
        raise DomainError("empty row subset")
    for i in idx:
        if not 0 <= i < len(P.rows):
            raise DomainError(f"row index {i} out of range")
    best = 0.0
    for a, b in itertools.combinations(idx, 2):
        best = max(best, tv_distance(P.rows[a], P.rows[b]))
    return best


def variation_matrix(P: Cpt) -> VariationMatrix:
    n = len(P.rows)
    entries = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = tv_distance(P.rows[i], P.rows[j])
            entries[i][j] = d
            entries[j][i] = d
    return VariationMatrix(n, tuple(tuple(r) for r in entries))


def parent_diameter(P: Cpt, j: int) -> float:
    """Maximum TV between rows differing only in parent ``j``'s level.

    All other parents are held fixed; the result is the cost proxy for
    deleting the edge from parent ``j`` into the child.  Zero exactly
    when the child is conditionally independent of that parent.
    """
    if not 0 <= j < len(P.parents):
        raise DomainError(f"parent index {j} out of range")
    best = 0.0
    others = [i for i in range(len(P.parents)) if i != j]
    other_levels = [P.parent_levels[i] for i in others]
    j_levels = P.parent_levels[j]
    for fixed in itertools.product(*other_levels):
        rows = []
        for lv in j_levels:
            config = [None] * len(P.parents)
            for pos, label in zip(others, fixed):
                config[pos] = label
            config[j] = lv
            rows.append(P.rows[P.row_index(config)])
        for a, b in itertools.combinations(rows, 2):
            best = max(best, tv_distance(a, b))
    return best


def parent_index(P: Cpt, name: str) -> int:
    if name not in P.parents:
        raise DomainError(f"{name!r} is not a parent of {P.child!r}")
    return P.parents.index(name)


def mix(weights, rows) -> ProbVec:
    """Convex combination of probability vectors.

    ``weights`` may be a ProbVec or a plain sequence summing to 1.
    """
    w = tuple(weights.mass) if isinstance(weights, ProbVec) else tuple(weights)
    rows = tuple(rows)
    if len(w) != len(rows):
        raise DomainError(f"{len(w)} weights for {len(rows)} rows")
    if not rows:
        raise DomainError("nothing to mix")
    levels = rows[0].levels
    for r in rows:
        if r.levels != levels:
            raise DomainError("level mismatch among mixed rows")
    mass = [0.0] * len(levels)
    for wi, r in zip(w, rows):
        for k, x in enumerate(r.mass):
            mass[k] += wi * x
    return ProbVec.of(levels, mass)


def collapse_parent(P: Cpt, j: int, weight_rows=None) -> Cpt:
    """Remove parent ``j`` by averaging rows across its levels.

    For each fixed configuration of the remaining parents the rows over
    parent ``j``'s levels are combined convexly.  ``weight_rows`` maps
    each remaining-parent configuration (by its reduced row index) to a
    weight sequence over parent ``j``'s levels; None means uniform.
    The diameter of the result never exceeds the diameter of ``P``.
    """
    if not 0 <= j < len(P.parents):
        raise DomainError(f"parent index {j} out of range")
    others = [i for i in range(len(P.parents)) if i != j]
    new_parents = tuple(P.parents[i] for i in others)
    new_parent_levels = tuple(P.parent_levels[i] for i in others)
    j_levels = P.parent_levels[j]
    uniform = [1.0 / len(j_levels)] * len(j_levels)
    new_rows = []
    reduced = Cpt(P.child, P.child_levels, new_parents, new_parent_levels, ())
    for r in range(reduced.n_rows):
        fixed = reduced.parent_config(r)
        group = []
        for lv in j_levels:
            config = [None] * len(P.parents)
            for pos, label in zip(others, fixed):
                config[pos] = label
            config[j] = lv
            group.append(P.rows[P.row_index(config)])
        w = uniform if weight_rows is None else list(weight_rows[r])
        new_rows.append(mix(w, group))
    return Cpt.of(P.child, P.child_levels, new_parents, new_parent_levels,
                  new_rows)
