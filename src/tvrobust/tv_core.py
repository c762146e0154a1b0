"""Total-variation computations on probability vectors and CPTs.

Everything here is a pure function on immutable values.  Row
computations run on :meth:`Cpt.grid` through two kernels, a TV that
adds columns left to right and a convex sum that adds its terms in
order; numpy's reductions, which sum eight or more terms pairwise, are
not used, so values equal the plain per-row loops bit for bit.
Max-taking operations resolve ties to the lowest row indices.

Diameters come from the row-pair scan ``_pair_scan`` and its two
paths: a block scan of every row pair, and, for finite tables of at
least _EVENT_ROWS rows and _EVENT_CELLS cells and at most _EVENT_LEVELS
levels, event sums that pick the rows able to form the widest pair
(within a rounding slack scaled by the number of levels and the largest
|entry|) before only their pairs are compared.  Values and witnesses
are those of the plain scan either way.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

ROW_SUM_TOLERANCE = 1e-9
# floats per temporary array in the row-pair scan
_PAIR_BUDGET = 2 ** 15
# shape rule of the row-pair scan's event-sum path (2 ** 9 events at
# most); on fewer rows or cells the block scan is the faster one
_EVENT_ROWS = 64
_EVENT_CELLS = 256
_EVENT_LEVELS = 10
_CANDIDATE_ROWS = 32


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
        object.__setattr__(self, "mass", tuple(map(float, self.mass)))

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
    A CPT with no parents has exactly one row.  ``rows`` takes ProbVecs
    or an array of masses.  Rows that fit are stored as one read-only
    grid and derived again on first use; a misfit keeps them as given.
    A parsed table's grid is a read-only view into one array per width.
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
            self, "parent_levels", tuple(map(tuple, self.parent_levels)))
        k, rows = len(self.child_levels), self.rows
        if not isinstance(rows, np.ndarray):
            rows = tuple(rows)
            if k and len(rows) == self.n_rows and all(
                    r.levels == self.child_levels and len(r.mass) == k
                    for r in rows):
                rows = np.array([r.mass for r in rows], dtype=np.float64)
        if isinstance(rows, np.ndarray):
            # one copy, made after the reshape, so the grid owns its data
            # and no view of it can be made writeable
            grid = rows.reshape(tuple(map(len, self.parent_levels))
                                + (k,)).astype(np.float64)
            grid.setflags(write=False)
            object.__setattr__(self, "_grid", grid)
            object.__delattr__(self, "rows")
        else:
            object.__setattr__(self, "_grid", None)
            object.__setattr__(self, "rows", rows)

    @classmethod
    def _over(cls, child, child_levels, parents, parent_levels, grid):
        """A table over a read-only float64 ``grid``, fields as given."""
        t = object.__new__(cls)
        t.__dict__.update(child=child, child_levels=child_levels,
                          parents=parents, parent_levels=parent_levels,
                          _grid=grid)
        return t

    def __getattr__(self, name):
        # reached only for the rows of a grid-backed table, until derived
        if name != "rows":
            raise AttributeError(name)
        rows = tuple(ProbVec(self.child_levels, m) for m in self._mass_rows())
        object.__setattr__(self, "rows", rows)
        return rows

    def __setstate__(self, state):
        # a copied or unpickled grid is read-only too
        self.__dict__.update(state)
        if self._grid is not None:
            self._grid.setflags(write=False)

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

    def grid(self) -> np.ndarray:
        """Rows as one float64 array of shape (*parent cards, child card).

        Axis ``j`` is parent ``j``; C-order flattening is the row order.
        """
        if self._grid is not None:
            return self._grid.view()
        shape = [len(ls) for ls in self.parent_levels]
        return np.array([r.mass for r in self.rows], dtype=np.float64
                        ).reshape(shape + [len(self.child_levels)])

    def _mass_rows(self) -> list[list[float]]:
        """Row masses as lists of floats, read off the grid if there is one."""
        return ([list(r.mass) for r in self.rows] if self._grid is None
                else _flat(self).tolist())

    def violations(self) -> list[str]:
        """The table's problems; ``ProbVec.violations`` sees only the rows
        ``_bad_rows`` flags, unless the table is raw or repeats a level."""
        k = len(self.child_levels)
        raw = self._grid is None or not k or len(set(self.child_levels)) < k
        to_check = (range(len(self.rows)) if raw
                    else np.flatnonzero(_bad_rows(_flat(self))).tolist())
        problems = []
        if len(self.child_levels) < 1:
            problems.append(f"{self.child}: no child levels")
        if len(set(self.child_levels)) != len(self.child_levels):
            problems.append(f"{self.child}: duplicate child levels")
        if len(self.parents) != len(self.parent_levels):
            problems.append(f"{self.child}: parent/level list size mismatch")
        if len(set(self.parents)) != len(self.parents):
            problems.append(f"{self.child}: duplicate parents")
        if self._grid is None and len(self.rows) != self.n_rows:
            problems.append(
                f"{self.child}: {len(self.rows)} rows, expected {self.n_rows}"
            )
        for i in to_check:
            row = self.rows[i]
            if row.levels != self.child_levels:
                problems.append(f"{self.child}: row {i} has wrong levels")
            for p in row.violations():
                problems.append(f"{self.child}: row {i}: {p}")
        return problems

    @classmethod
    def of(cls, child, child_levels, parents, parent_levels, rows) -> "Cpt":
        t = cls(child, child_levels, parents, parent_levels, rows)
        problems = t.violations()
        if problems:
            raise DomainError("invalid CPT: " + "; ".join(problems))
        return t


def _bad_rows(X: np.ndarray) -> np.ndarray:
    """Rows of the 2-d ``X`` with a negative mass or a left-to-right sum
    off 1 by more than ROW_SUM_TOLERANCE / 2, NaN and inf included (the
    margin dwarfs the k * 2**-52 by which Python's ``sum`` can differ)."""
    with np.errstate(all="ignore"):  # an overflow is a flagged row
        total = np.add.accumulate(X, axis=1)[:, -1]  # left to right
    return (X < 0).any(axis=1) | ~(np.abs(total - 1.0)
                                   <= ROW_SUM_TOLERANCE / 2)


def _tv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """TV between rows (last axis) of broadcast arrays, columns in order."""
    if not a.shape[-1]:
        return np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    total = np.abs(a[..., 0] - b[..., 0])
    for c in range(1, a.shape[-1]):
        total += np.abs(a[..., c] - b[..., c])
    return 0.5 * total


def _max(d: np.ndarray, floor: float = 0.0) -> float:
    """Largest entry of ``d`` above ``floor``, else ``floor``; NaN ignored."""
    return float(np.max(d, initial=floor, where=~np.isnan(d)))


def _pair_scan(X: np.ndarray, Y: np.ndarray | None = None,
               floor: float = 0.0):
    """Largest TV between rows of 2-d arrays, with its (i, j) witness.

    The pairs are rows i < j of ``X``, or with ``Y`` every (X row, Y row).
    A pair must beat ``floor`` and every earlier pair, so ties go to the
    lowest (i, j), NaN never wins and no winner gives (0, 0).

    Two paths give the same value and witness, those of the plain scan
    of every pair.  The block scan (``_block_scan``) compares every
    pair.  The event-sum path serves rows i < j of a finite ``X`` with
    at least _EVENT_ROWS rows and _EVENT_CELLS cells and at most
    _EVENT_LEVELS columns: ``_candidate_rows`` finds every row that is
    in a pair of largest TV, within a rounding slack scaled by the
    number of levels and the largest |entry|, and only the pairs of
    those rows are compared, by the same ``_tv``.  Every largest pair is
    among them, so the same pair wins.  Ties that leave more than
    _CANDIDATE_ROWS candidates, all-equal rows, NaN or infinite entries,
    every other shape and the (X row, Y row) scan take the block scan.
    """
    rows = None if Y is not None else _candidate_rows(X)
    if rows is None:
        return _block_scan(X, Y, floor)
    Z = X[rows]
    d = _tv(Z[:, None], Z)
    # d is symmetric with a zero diagonal, so a positive first largest
    # entry in C order is the lowest (i, j) with i < j among the largest
    i, j = divmod(int(np.argmax(d)), len(rows))
    if i < j and d[i, j] > floor:
        return float(d[i, j]), (int(rows[i]), int(rows[j]))
    return _block_scan(X, None, floor)


def _block_scan(X: np.ndarray, Y: np.ndarray | None, floor: float):
    """``_pair_scan`` by comparing every pair, with blocks of ``X`` rows
    that keep each temporary within _PAIR_BUDGET floats."""
    upper = Y is None
    Y = X if upper else Y
    best, pair = floor, (0, 0)
    step = max(1, _PAIR_BUDGET // max(1, len(Y)))
    for lo in range(0, len(X) - upper, step):
        hi = min(lo + step, len(X))
        j0 = lo + 1 if upper else 0
        d = _tv(X[lo:hi, None, :], Y[None, j0:, :])
        keep = ~np.isnan(d)
        if upper:
            keep &= np.arange(lo, hi)[:, None] < np.arange(j0, len(Y))
        d = np.where(keep, d, -np.inf)
        i, j = divmod(int(np.argmax(d)), d.shape[1])
        if d[i, j] > best:
            best, pair = float(d[i, j]), (lo + i, j0 + j)
    return best, pair


@functools.cache
def _events(k: int) -> np.ndarray:
    """The k x 2**(k - 1) matrix of +-1 columns s_A, one per event A of
    k levels that holds level 0 (+1 on the levels in A)."""
    bits = np.arange(2 ** (k - 1)) >> np.arange(k - 1)[:, None] & 1
    out = np.vstack([np.ones(2 ** (k - 1)), 1.0 - 2.0 * bits])
    out.setflags(write=False)
    return out


def _candidate_rows(X: np.ndarray) -> np.ndarray | None:
    """Ascending indices of every row of ``X`` in a pair of largest TV,
    or None where ``_pair_scan`` must compare every pair.

    For finite rows, sum |x - y| is the largest |(x - y) . s_A| over the
    events of ``_events``, so twice the diameter is the largest spread
    (max - min) of a column of M = X . S.  A winning pair has a column
    whose spread is within ``slack`` of the largest, with one row within
    ``slack`` of the column's top and the other of its bottom.  The
    slack, 8 k (k + 1) eps times the largest |entry|, is twice a bound
    on the rounding of M, of its spreads and of ``_tv``'s sums, so it
    holds for any finite table and not only for masses in [0, 1]; the
    smallest normal float added to it covers underflow.  ``_event_sums``
    builds M twice, in row blocks: once for the spreads and once, on the
    best columns alone, for the rows near their ends.
    """
    r, k = X.shape
    if r < _EVENT_ROWS or r * k < _EVENT_CELLS or k > _EVENT_LEVELS:
        return None
    m = max(X.max(), -X.min())
    # NaN, an infinity, all zeros, or sums that could leave the floats
    if not 0.0 < 4 * k * m < math.inf:
        return None
    slack = 8 * k * (k + 1) * m * sys.float_info.epsilon + sys.float_info.min
    S = _events(k)
    top = np.full(S.shape[1], -np.inf)
    bottom = np.full(S.shape[1], np.inf)
    for _, M in _event_sums(X, S):
        np.maximum(top, M.max(axis=0), out=top)
        np.minimum(bottom, M.min(axis=0), out=bottom)
    spread = top - bottom
    widest = spread.max()
    if not widest > 0.0:  # every row equal to rounding
        return None
    best = spread >= widest - slack
    rows = []
    for lo, M in _event_sums(X, S[:, best]):
        rows.extend(lo + np.flatnonzero(((M >= top[best] - slack)
                                         | (M <= bottom[best] + slack))
                                        .any(axis=1)))
        if len(rows) > _CANDIDATE_ROWS:
            return None
    return np.array(rows, dtype=np.intp)


def _event_sums(X: np.ndarray, S: np.ndarray):
    """(first row, X[rows] @ S) for blocks of ``X`` rows, each product
    written into one buffer of at most _PAIR_BUDGET floats: with a fresh
    array per block, a 128 x 10 table took two to three times as long."""
    step = max(1, _PAIR_BUDGET // S.shape[1])
    buf = np.empty((min(len(X), step), S.shape[1]))
    for lo in range(0, len(X), step):
        x = X[lo:lo + step]
        yield lo, np.matmul(x, S, out=buf[:len(x)])


def _convex_sum(w: np.ndarray, rows: np.ndarray):
    """Sum over i of ``w[..., i] * rows[..., i, :]``, added in order of i."""
    total = 0.0
    for i in range(rows.shape[-2]):
        total = total + w[..., i, None] * rows[..., i, :]
    return total


def _fuse(G: np.ndarray, axis: int, index, uniform: bool) -> np.ndarray:
    """``G`` with slice i along ``axis`` fused into slice ``index[i]``.

    Slices fused together are averaged when ``uniform``, else summed.
    """
    X = np.moveaxis(G, axis, -1)[..., None]
    groups = [np.flatnonzero(index == k) for k in range(index.max() + 1)]
    fused = np.stack([
        _convex_sum(np.full(len(g), 1.0 / len(g) if uniform else 1.0),
                    X[..., g, :])
        for g in groups
    ], axis=-2)
    return np.moveaxis(fused[..., 0], -1, axis)


def _flat(P: "Cpt") -> np.ndarray:
    return P.grid().reshape(P.n_rows, len(P.child_levels))


@dataclass(frozen=True)
class VariationMatrix:
    """Pairwise row TV distances of a CPT."""

    dim: int
    entries: tuple[tuple[float, ...], ...]


def cpt_tv_plus(P: Cpt, Q: Cpt) -> float:
    """Row-wise maximum TV between two same-shape CPTs."""
    if ((P.child_levels, P.parents, P.parent_levels)
            != (Q.child_levels, Q.parents, Q.parent_levels)):
        raise DomainError(
            f"CPT shape mismatch between {P.child!r} and {Q.child!r}")
    return _max(_tv(P.grid(), Q.grid()))


def cpt_superbound(P: Cpt, Q: Cpt) -> float:
    """Maximum TV between any row of P and any row of Q."""
    return _superbound_with_witness(P, Q)[0]


def superbound_witness(P: Cpt, Q: Cpt) -> tuple[int, int]:
    """Zero-based (P row, Q row) pair attaining the superbound.

    Ties resolve to the lowest P row, then the lowest Q row.
    """
    return _superbound_with_witness(P, Q)[1]


def _superbound_with_witness(P: Cpt, Q: Cpt):
    if P.child_levels != Q.child_levels:
        raise DomainError("child level mismatch")
    if P.n_rows != Q.n_rows:
        raise DomainError("row count mismatch")
    return _pair_scan(_flat(P), _flat(Q), floor=-1.0)


def diameter(P: Cpt) -> float:
    """Maximum TV between any two rows of a CPT.

    Zero exactly when all rows are equal, in which case the child is
    independent of its parents.
    """
    return _pair_scan(_flat(P))[0]


def diameter_witness(P: Cpt) -> tuple[int, int]:
    """Zero-based row pair attaining the diameter, lowest indices on ties."""
    return _pair_scan(_flat(P))[1]


def local_diameter(P: Cpt, I) -> float:
    """Diameter restricted to the row subset ``I`` (zero-based indices)."""
    idx = sorted(set(I))
    if not idx:
        raise DomainError("empty row subset")
    for i in idx:
        if not 0 <= i < P.n_rows:
            raise DomainError(f"row index {i} out of range")
    return _pair_scan(_flat(P)[idx])[0]


def variation_matrix(P: Cpt) -> VariationMatrix:
    X = _flat(P)
    d = _tv(X[:, None, :], X[None, :, :])
    np.fill_diagonal(d, 0.0)
    return VariationMatrix(len(X), tuple(map(tuple, d.tolist())))


def parent_diameter(P: Cpt, j: int) -> float:
    """Maximum TV between rows differing only in parent ``j``'s level.

    All other parents are held fixed; the result is the cost proxy for
    deleting the edge from parent ``j`` into the child.  Zero exactly
    when the child is conditionally independent of that parent.
    """
    if not 0 <= j < len(P.parents):
        raise DomainError(f"parent index {j} out of range")
    G = np.moveaxis(P.grid(), j, -2)
    return _max(_tv(G[..., :, None, :], G[..., None, :, :]))


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
    if any(r.levels != levels for r in rows):
        raise DomainError("level mismatch among mixed rows")
    mass = _convex_sum(np.array(w, dtype=np.float64),
                       np.array([r.mass for r in rows], dtype=np.float64))
    return ProbVec.of(levels, mass.tolist())


def collapse_parent(P: Cpt, j: int) -> Cpt:
    """Remove parent ``j`` by averaging rows uniformly across its levels.

    This is the merge of all of parent ``j``'s levels by ``_fuse``, the
    kernel of every level merge; the size-1 axis it leaves is dropped.
    The diameter of the result never exceeds the diameter of ``P``.
    """
    if not 0 <= j < len(P.parents):
        raise DomainError(f"parent index {j} out of range")
    G = _fuse(P.grid(), j, np.zeros(len(P.parent_levels[j]), np.intp),
              uniform=True)
    return Cpt.of(P.child, P.child_levels, P.parents[:j] + P.parents[j + 1:],
                  P.parent_levels[:j] + P.parent_levels[j + 1:], G)
