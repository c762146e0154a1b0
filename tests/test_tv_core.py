import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tvrobust import (
    Cpt,
    DomainError,
    ProbVec,
    collapse_parent,
    cpt_superbound,
    cpt_tv_plus,
    diameter,
    diameter_witness,
    local_diameter,
    mix,
    parent_diameter,
    parent_index,
    superbound_witness,
    transition_table,
    tv_distance,
    variation_matrix,
)
from tvrobust import tv_core

from conftest import (
    DROUGHT_LEVELS,
    P_ROWS,
    Q_ROWS,
    RAINFALL_LEVELS,
    TREE_LEVELS,
    load_model,
    random_net,
    random_table,
    random_vector,
    reference_tv,
    scalar_collapse_parent,
    scalar_diameter,
    scalar_mix,
    scalar_parent_diameter,
    scalar_superbound,
    tree_cpt,
)


def test_probvec_of_accepts_valid():
    v = ProbVec.of(("a", "b"), (0.25, 0.75))
    assert v.mass == (0.25, 0.75)


@pytest.mark.parametrize("levels,mass", [
    (("a", "b"), (0.6, 0.6)),
    (("a", "b"), (-0.1, 1.1)),
    (("a", "a"), (0.5, 0.5)),
    ((), ()),
    (("a", "b"), (1.0,)),
    (("a", "b"), (float("nan"), 1.0)),
    (("a", "b"), (float("inf"), 0.0)),
])
def test_probvec_of_rejects_invalid(levels, mass):
    with pytest.raises(DomainError):
        ProbVec.of(levels, mass)


def test_tv_distance_basics():
    p = ProbVec(("a", "b"), (1.0, 0.0))
    q = ProbVec(("a", "b"), (0.0, 1.0))
    assert tv_distance(p, p) == 0.0
    assert tv_distance(p, q) == 1.0
    assert tv_distance(q, p) == 1.0


def test_tv_distance_rejects_level_mismatch():
    p = ProbVec(("a", "b"), (0.5, 0.5))
    q = ProbVec(("a", "c"), (0.5, 0.5))
    with pytest.raises(DomainError):
        tv_distance(p, q)


def test_tv_distance_is_half_l1():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        p = random_vector(rng, k)
        q = random_vector(rng, k)
        expected = 0.5 * sum(abs(a - b) for a, b in zip(p.mass, q.mass))
        assert abs(tv_distance(p, q) - expected) <= 1e-15


@pytest.mark.parametrize("mass", [(1.0,), (1.0, 0.0, 0.7)])
def test_tv_distance_rejects_a_mass_count_unlike_the_level_count(mass):
    p = ProbVec(("a", "b"), mass)
    q = ProbVec(("a", "b"), (0.5, 0.5))
    for args in ((p, q), (q, p)):
        with pytest.raises(DomainError,
                           match=f"^{len(mass)} masses for 2 levels$"):
            tv_distance(*args)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda k: st.tuples(*[st.lists(
    st.floats(-1.0, 2.0) | st.just(np.nan), min_size=k, max_size=k)] * 2)))
def test_tv_distance_equals_the_left_to_right_loop(masses):
    levels = tuple(f"l{j}" for j in range(len(masses[0])))
    total = 0.0
    for a, b in zip(*masses):
        total += abs(a - b)
    got = tv_distance(*(ProbVec(levels, m) for m in masses))
    assert type(got) is float
    assert repr(got) == repr(0.5 * total)


def test_row_indexing_round_trip():
    t = tree_cpt()
    assert t.n_rows == 6
    for i in range(t.n_rows):
        assert t.row_index(t.parent_config(i)) == i
    # first parent most significant
    assert t.parent_config(0) == ("yes", "below average")
    assert t.parent_config(1) == ("yes", "average")
    assert t.parent_config(3) == ("no", "below average")


def test_row_index_rejects_bad_configs():
    t = tree_cpt()
    with pytest.raises(DomainError):
        t.row_index(("yes",))
    with pytest.raises(DomainError):
        t.row_index(("yes", "sometimes"))
    with pytest.raises(DomainError):
        t.parent_config(6)


def test_cpt_of_rejects_wrong_row_count():
    with pytest.raises(DomainError):
        Cpt.of("TreeCondition", TREE_LEVELS, ("Drought",), (DROUGHT_LEVELS,),
               [ProbVec(TREE_LEVELS, r) for r in P_ROWS])


def test_a_parent_without_a_level_list_is_a_violation():
    t = Cpt("C", ("a", "b"), ("P",), (), [ProbVec(("a", "b"), (0.5, 0.5))])
    assert t.violations() == ["C: parent/level list size mismatch"]
    with pytest.raises(DomainError, match="parent/level list size mismatch"):
        Cpt.of(t.child, t.child_levels, t.parents, (), t.rows)


def test_diameter_of_worked_table():
    t = tree_cpt()
    assert abs(diameter(t) - 0.7) <= 1e-12
    assert diameter_witness(t) == (0, 5)


def test_diameter_single_row_is_zero():
    t = Cpt.of("A", ("x", "y"), (), (), [ProbVec(("x", "y"), (0.3, 0.7))])
    assert diameter(t) == 0.0


def test_a_table_without_columns_or_rows_has_diameter_zero():
    """Rows with no child levels are all equal, as empty ProbVecs are."""
    t = Cpt("A", (), ("P",), (("x", "y", "z"),), np.zeros((3, 0)))
    assert tv_distance(ProbVec((), ()), ProbVec((), ())) == 0.0
    assert (diameter(t), diameter_witness(t)) == (0.0, (0, 0))
    assert parent_diameter(t, 0) == cpt_tv_plus(t, t) == 0.0
    assert variation_matrix(t).entries == ((0.0,) * 3,) * 3
    # enough rows for event sums, but no level to sum over
    wide = Cpt("A", (), ("P", "Q", "R"), (tuple("abcd"),) * 3,
               np.zeros((64, 0)))
    assert (diameter(wide), diameter_witness(wide)) == (0.0, (0, 0))
    assert local_diameter(wide, range(64)) == 0.0
    # a parent with no levels leaves no rows and no pair
    none = Cpt("A", ("a", "b"), ("P",), ((),), np.zeros((0, 2)))
    assert (diameter(none), diameter_witness(none)) == (0.0, (0, 0))


def test_local_diameter_restricts_rows():
    t = tree_cpt()
    # drought rows only: indices 0..2
    d_yes = local_diameter(t, (0, 1, 2))
    d_no = local_diameter(t, (3, 4, 5))
    assert abs(d_yes - tv_distance(t.rows[0], t.rows[2])) <= 1e-12
    assert abs(d_no - tv_distance(t.rows[3], t.rows[5])) <= 1e-12
    assert max(d_yes, d_no) <= diameter(t) + 1e-12
    assert local_diameter(t, (2,)) == 0.0
    with pytest.raises(DomainError):
        local_diameter(t, ())


def test_variation_matrix_diagonal_and_symmetry():
    t = tree_cpt()
    m = variation_matrix(t)
    assert m.dim == 6
    for i in range(6):
        assert m.entries[i][i] == 0.0
        for j in range(6):
            assert m.entries[i][j] == m.entries[j][i]
    assert abs(max(max(row) for row in m.entries) - diameter(t)) <= 1e-12


def test_cpt_tv_plus_worked_value():
    p, q = tree_cpt(P_ROWS), tree_cpt(Q_ROWS)
    assert abs(cpt_tv_plus(p, q) - 0.1) <= 1e-12
    assert cpt_tv_plus(p, p) == 0.0


def test_cpt_superbound_worked_value_and_witness():
    p, q = tree_cpt(P_ROWS), tree_cpt(Q_ROWS)
    assert abs(cpt_superbound(p, q) - 0.7) <= 1e-12
    assert superbound_witness(p, q) == (0, 5)


def test_cpt_tv_plus_rejects_shape_mismatch():
    p = tree_cpt()
    q = Cpt.of("TreeCondition", TREE_LEVELS, ("Drought",), (DROUGHT_LEVELS,),
               [ProbVec(TREE_LEVELS, r) for r in P_ROWS[:2]])
    with pytest.raises(DomainError):
        cpt_tv_plus(p, q)


def _relabelled_tree_cpt():
    """The worked table over other child levels."""
    t = tree_cpt()
    return Cpt.of(t.child, ("a", "b", "c"), t.parents, t.parent_levels,
                  t.grid().reshape(-1, 3))


@pytest.mark.parametrize("call,message", [
    (lambda t: cpt_superbound(t, _relabelled_tree_cpt()),
     "child level mismatch"),
    (lambda t: cpt_superbound(t, collapse_parent(t, 0)),
     "row count mismatch"),
    (lambda t: local_diameter(t, [0, 6]), "row index 6 out of range"),
    (lambda t: local_diameter(t, [-1, 0]), "row index -1 out of range"),
    (lambda t: parent_diameter(t, 2), "parent index 2 out of range"),
    (lambda t: parent_diameter(t, -1), "parent index -1 out of range"),
    (lambda t: collapse_parent(t, 2), "parent index 2 out of range"),
    (lambda t: collapse_parent(t, -1), "parent index -1 out of range"),
], ids=["superbound_child_levels", "superbound_rows", "local_row_high",
        "local_row_low", "parent_diameter_high", "parent_diameter_low",
        "collapse_high", "collapse_low"])
def test_row_kernels_reject_mismatched_tables_and_indices(call, message):
    with pytest.raises(DomainError) as err:
        call(tree_cpt())
    assert str(err.value) == message


def test_parent_diameter_worked_values():
    t = tree_cpt()
    assert abs(parent_diameter(t, 0) - 0.6) <= 1e-12
    assert abs(parent_diameter(t, 1) - 0.2) <= 1e-12
    assert parent_index(t, "Drought") == 0
    assert parent_index(t, "Rainfall") == 1
    with pytest.raises(DomainError):
        parent_index(t, "Pollinators")


def test_parent_diameter_zero_for_irrelevant_parent():
    rows = [ProbVec(("x", "y"), (0.3, 0.7)), ProbVec(("x", "y"), (0.3, 0.7)),
            ProbVec(("x", "y"), (0.9, 0.1)), ProbVec(("x", "y"), (0.9, 0.1))]
    t = Cpt.of("C", ("x", "y"), ("A", "B"), (("t", "f"), ("t", "f")), rows)
    assert parent_diameter(t, 1) == 0.0
    assert abs(parent_diameter(t, 0) - 0.6) <= 1e-12


def test_parent_diameter_of_a_one_level_parent_is_zero():
    """A parent with one level has no pair of levels to compare."""
    t = random_table(np.random.default_rng(83), 3, (1, 4))
    assert tv_core._level_pairs(1).shape == (2, 0)
    assert parent_diameter(t, 0) == scalar_parent_diameter(t, 0) == 0.0
    assert parent_diameter(t, 1) == scalar_parent_diameter(t, 1) > 0.0


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_parent_diameter_of_a_bad_row_equals_the_scalar_loop(bad):
    """NaN TVs lose and infinite ones win, as in the scalar loop."""
    X = np.random.default_rng(84).dirichlet(np.ones(3), size=12)
    X[5] = bad
    t = Cpt("C", ("x", "y", "z"), ("A", "B"),
            (("a0", "a1", "a2"), ("b0", "b1", "b2", "b3")), X)
    for j in (0, 1):
        assert parent_diameter(t, j) == scalar_parent_diameter(t, j)


@pytest.mark.parametrize("n", range(6))
def test_level_pairs_are_each_pair_of_levels_once(n):
    pairs = tv_core._level_pairs(n)
    assert pairs.T.tolist() == [list(p) for p in
                                itertools.combinations(range(n), 2)]
    assert not pairs.flags.writeable


def _awkward_rows(rng, n: int, k: int) -> np.ndarray:
    """n x k floats, about one in ten NaN, +-inf, subnormal or -0.0."""
    X = rng.uniform(-1.0, 2.0, size=(n, k))
    hit = rng.random(X.shape) < 0.1
    X[hit] = rng.choice([np.nan, np.inf, -np.inf, 5e-324, -2.5e-320, -0.0],
                        size=int(hit.sum()))
    return X


def _pair_blocks(rng, lanes: int, k: int):
    """(a, b) with ``lanes`` rows of k columns: contiguous pairs, as
    ``parent_diameter`` passes them, and X rows against Y rows broadcast,
    as ``_block_scan`` passes them (Y a slice, as for rows j0 onward)."""
    yield _awkward_rows(rng, lanes, k), _awkward_rows(rng, lanes, k)
    m = max(d for d in range(1, math.isqrt(lanes) + 1) if not lanes % d)
    X, Y = _awkward_rows(rng, m, k), _awkward_rows(rng, lanes // m + 1, k)
    yield X[:, None, :], Y[None, 1:, :]
    yield X[None, :, :], Y[1:, None, :]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("k", [1, 2, 3, 8, 10, 16])
@pytest.mark.parametrize("past", [-1, 0, 1])
def test_tv_equals_the_column_loop(k, past):
    """Blocks of 64 k - 1, 64 k and 64 k + 1 rows of k levels."""
    rng = np.random.default_rng([85, k, past + 1])
    lanes = 64 * k + past
    for a, b in _pair_blocks(rng, lanes, k):
        assert np.broadcast(a, b).size == lanes * k
        got, want = tv_core._tv(a, b), reference_tv(a, b)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    a, b = _awkward_rows(rng, 2, k)
    assert tv_core._tv(a, b).tobytes() == reference_tv(a, b).tobytes()


class _CountingNumpy:
    """numpy as ``tv_core`` sees it, counting the calls of ``np.abs``."""

    def __init__(self):
        self.abs_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def abs(self, x):
        self.abs_calls += 1
        return np.abs(x)


@pytest.mark.parametrize("k", [2, 3, 8, 16])
def test_tv_takes_one_subtraction_per_block(monkeypatch, k):
    rng = np.random.default_rng([86, k])
    for lanes in (1, 64 * k, 64 * k * k):
        spy = _CountingNumpy()
        monkeypatch.setattr(tv_core, "np", spy)
        tv_core._tv(rng.random((lanes, k)), rng.random((lanes, k)))
        monkeypatch.undo()
        assert spy.abs_calls == 1


@pytest.mark.parametrize("k", [2, 64])
def test_block_scan_keeps_each_tv_block_within_the_budget(monkeypatch, k):
    """Blocks of rows by rows by levels stay within _PAIR_BUDGET floats,
    and the scan still finds the plain scan's pair."""
    X = np.random.default_rng([87, k]).dirichlet(np.ones(k), size=256)
    sizes = []

    def tv(a, b):
        sizes.append(np.broadcast(a, b).size)
        return reference_tv(a, b)

    monkeypatch.setattr(tv_core, "_tv", tv)
    best, pair = tv_core._block_scan(X, None, 0.0)
    assert max(sizes) <= tv_core._PAIR_BUDGET
    monkeypatch.undo()
    d = reference_tv(X[:, None, :], X[None, :, :])
    d[np.tril_indices(len(X))] = -np.inf
    i, j = divmod(int(np.argmax(d)), len(X))
    assert (best, pair) == (float(d[i, j]), (i, j))


@pytest.mark.parametrize("d", [
    np.array([np.nan, np.nan]), np.array([]), np.zeros((3, 0)),
    np.array([0.1, 0.4, 0.2]), np.array([0.3, np.inf, np.nan]),
    np.array([[np.nan, 0.7], [0.2, np.nan]]), np.array(0.3),
    np.array(np.nan), np.float64(0.6)])
@pytest.mark.parametrize("floor", [0.0, -1.0, 5.0])
def test_max_equals_the_masked_max(d, floor):
    """``_max`` is numpy's max over the non-NaN entries from ``floor``."""
    got = tv_core._max(d, floor)
    assert type(got) is float
    assert got == float(np.max(d, initial=floor, where=~np.isnan(d)))


def test_mix_matches_manual_combination():
    rows = [ProbVec(("a", "b"), (1.0, 0.0)), ProbVec(("a", "b"), (0.0, 1.0))]
    out = mix((0.25, 0.75), rows)
    assert out.levels == ("a", "b")
    assert abs(out.mass[0] - 0.25) <= 1e-15
    assert abs(out.mass[1] - 0.75) <= 1e-15
    weighted = mix(ProbVec(("w1", "w2"), (0.5, 0.5)), rows)
    assert abs(weighted.mass[0] - 0.5) <= 1e-15


def test_mix_rejects_mismatches():
    rows = [ProbVec(("a", "b"), (1.0, 0.0))]
    with pytest.raises(DomainError):
        mix((0.5, 0.5), rows)
    with pytest.raises(DomainError):
        mix((), ())
    with pytest.raises(DomainError):
        mix((0.5, 0.5), [rows[0], ProbVec(("a", "c"), (1.0, 0.0))])


def test_collapse_parent_uniform_average():
    t = tree_cpt()
    merged = collapse_parent(t, 1)
    assert merged.parents == ("Drought",)
    assert merged.n_rows == 2
    expected = tuple((P_ROWS[0][j] + P_ROWS[1][j] + P_ROWS[2][j]) / 3
                     for j in range(3))
    assert all(abs(a - b) <= 1e-12
               for a, b in zip(merged.rows[0].mass, expected))


def test_collapse_is_contained_in_row_hull():
    """Collapsed rows never extend the table's diameter."""
    rng = np.random.default_rng(23)
    for _ in range(100):
        n_par = int(rng.integers(1, 3))
        plevels = tuple(tuple(f"p{i}{j}" for j in range(int(rng.integers(2, 4))))
                        for i in range(n_par))
        k = int(rng.integers(2, 4))
        levels = tuple(f"l{j}" for j in range(k))
        n_rows = 1
        for ls in plevels:
            n_rows *= len(ls)
        rows = [random_vector(rng, k) for _ in range(n_rows)]
        rows = [ProbVec(levels, r.mass) for r in rows]
        t = Cpt.of("C", levels, tuple(f"P{i}" for i in range(n_par)),
                   plevels, rows)
        j = int(rng.integers(0, n_par))
        merged = collapse_parent(t, j)
        assert diameter(merged) <= diameter(t) + 1e-12


def test_determinism_of_witnesses():
    p, q = tree_cpt(P_ROWS), tree_cpt(Q_ROWS)
    assert superbound_witness(p, q) == superbound_witness(p, q)
    assert diameter_witness(p) == diameter_witness(p)


def _differential_tables():
    """Tables from random nets, 8-16-level children, ties and edge cases."""
    rng = np.random.default_rng(77)
    tables = []
    for _ in range(15):
        tables.extend(random_net(rng).cpts)
    for k in (8, 9, 12, 16):
        for cards in ((2,), (3, 2), (2, 4, 2)):
            tables.append(random_table(rng, k, cards))
            tables.append(random_table(rng, k, cards, ties=True))
    levels = tuple(f"l{i}" for i in range(9))
    same = random_vector(rng, 9).mass
    tables.append(Cpt.of("C", levels, ("P",), (("a", "b", "c"),),
                         [ProbVec(levels, same)] * 3))
    tables.append(Cpt.of("C", levels, (), (),
                         [ProbVec(levels, random_vector(rng, 9).mass)]))
    return tables


def test_row_kernels_equal_scalar_loops_bit_for_bit():
    tables = _differential_tables()
    for t in tables:
        assert (diameter(t), diameter_witness(t)) == scalar_diameter(t)
        for j in range(len(t.parents)):
            assert parent_diameter(t, j) == scalar_parent_diameter(t, j)
            got = [r.mass for r in collapse_parent(t, j).rows]
            assert got == scalar_collapse_parent(t, j)
    # the superbound pairs tables with the same child levels and row
    # count, the row-aligned distance tables of the same shape
    for t in tables:
        for u in tables:
            if (u.child_levels, len(u.rows)) != (t.child_levels, len(t.rows)):
                continue
            assert (cpt_superbound(t, u), superbound_witness(t, u)) == \
                scalar_superbound(t, u)
            if (u.parents, u.parent_levels) == (t.parents, t.parent_levels):
                gaps = [tv_distance(p, q) for p, q in zip(t.rows, u.rows)]
                assert cpt_tv_plus(t, u) == max([0.0] + gaps)


def test_collapse_and_mix_equal_scalar_loops():
    rng = np.random.default_rng(78)
    for k in (2, 9, 16):
        t = random_table(rng, k, (3, 4))
        for j in (0, 1):
            got = [r.mass for r in collapse_parent(t, j).rows]
            assert got == scalar_collapse_parent(t, j)
    # one-level rows make the summed axis contiguous, where numpy's own
    # reductions would add ten or more terms pairwise
    for k in (12, 1):
        for _ in range(10):
            rows = [random_vector(rng, k) for _ in range(10)]
            w = random_vector(rng, 10).mass
            assert mix(w, rows).mass == scalar_mix(w, rows)
    t = random_table(rng, 1, (12, 2))
    assert [r.mass for r in collapse_parent(t, 0).rows] == \
        scalar_collapse_parent(t, 0)


def test_pair_scan_blocks_keep_the_lowest_witness():
    """A table large enough to be scanned in several blocks of rows."""
    rng = np.random.default_rng(79)
    t = random_table(rng, 16, (20, 15))
    far = (ProbVec(t.child_levels, (1.0,) + (0.0,) * 15),
           ProbVec(t.child_levels, (0.0,) * 15 + (1.0,)))
    rows = list(t.rows)
    for i, r in ((40, 0), (290, 1), (120, 0), (250, 1), (299, 0)):
        rows[i] = far[r]
    t = Cpt.of(t.child, t.child_levels, t.parents, t.parent_levels, rows)
    assert (diameter(t), diameter_witness(t)) == scalar_diameter(t) \
        == (1.0, (40, 250))
    assert (cpt_superbound(t, t), superbound_witness(t, t)) == \
        scalar_superbound(t, t) == (1.0, (40, 250))
    assert local_diameter(t, range(100, 300)) == 1.0


def _with_permuted_far_pairs(rng, X, copies=3):
    """``X`` with copies of its farthest row pair, each under its own
    order of the levels: TVs equal in exact arithmetic, reached through
    other events, so rounding decides the witness."""
    r, k = X.shape
    if r > 1:
        i, j = divmod(int(np.abs(X[:, None] - X).sum(axis=-1).argmax()), r)
        for _ in range(copies):
            at = rng.choice(r, 2, replace=False)
            X[at] = X[[i, j]][:, rng.permutation(k)]
    return X


@st.composite
def _scan_tables(draw):
    """A table of 1-300 rows and 1 to one past _EVENT_LEVELS levels, of
    one of the kinds that the event-sum path must read as the scan does.
    Rows drawn by hypothesis are planted among numpy-drawn ones."""
    r = draw(st.integers(1, 300))
    k = draw(st.integers(1, tv_core._EVENT_LEVELS + 1))
    kind = draw(st.sampled_from(["mass", "scaled", "repeated", "quarter",
                                 "one-hot", "equal", "non-finite",
                                 "permuted"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "mass":
        X = rng.dirichlet(np.ones(k), size=r)
    elif kind == "scaled":  # rows that do not sum to 1
        X = rng.uniform(-1.0, 1.0, (r, k)) * 10.0 ** draw(st.integers(-12, 6))
    elif kind == "repeated":
        X = rng.dirichlet(np.ones(k), size=3)[rng.integers(3, size=r)]
    elif kind == "quarter":
        X = rng.integers(0, 5, (r, k)) / 4
    elif kind == "one-hot":  # ties well past the candidate cap
        X = np.eye(k)[rng.integers(k, size=r)]
    elif kind == "equal":
        X = np.tile(rng.dirichlet(np.ones(k)), (r, 1))
    elif kind == "permuted":
        X = _with_permuted_far_pairs(rng, rng.dirichlet(np.ones(k), size=r))
    else:
        X = rng.dirichlet(np.ones(k), size=r)
        X.flat[rng.integers(X.size, size=3)] = draw(st.lists(
            st.sampled_from([np.nan, np.inf, -np.inf]), min_size=3,
            max_size=3))
    if kind != "equal":
        row = st.lists(st.floats(-1e6, 1e6), min_size=k, max_size=k)
        for planted in draw(st.lists(row, max_size=3)):
            X[rng.integers(r)] = planted
    levels = tuple(f"l{c}" for c in range(k))
    return Cpt("C", levels, ("P",), (tuple(f"p{i}" for i in range(r)),), X)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@settings(max_examples=80, deadline=None)
@given(_scan_tables())
def test_diameter_and_witness_equal_the_scalar_scan(t):
    got = (diameter(t), diameter_witness(t))
    assert got == scalar_diameter(t)
    assert type(got[0]) is float
    if len(set(t.rows)) == 1:
        assert got == (0.0, (0, 0))


def test_rounding_ties_between_events_keep_the_witness():
    """Far pairs whose TVs differ only by rounding, in other events."""
    rng = np.random.default_rng(81)
    for _ in range(300):
        k = int(rng.integers(3, tv_core._EVENT_LEVELS + 1))
        r = int(rng.integers(tv_core._EVENT_ROWS, 200))
        X = _with_permuted_far_pairs(rng, rng.dirichlet(np.ones(k), size=r))
        X *= rng.uniform(0.5, 3.0)
        assert tv_core._pair_scan(X) == tv_core._block_scan(X, None, 0.0)


def _forbid_block_scan(monkeypatch):
    def no_block_scan(*args):
        raise AssertionError("block scan taken")
    monkeypatch.setattr(tv_core, "_block_scan", no_block_scan)


@pytest.mark.parametrize("k,cards", [(8, (4, 4, 4, 4)), (10, (4, 4, 8)),
                                     (10, (4, 4, 4)), (2, (4, 4, 4)),
                                     (2, (4, 4, 6)), (3, (2,) * 6)])
def test_wide_tables_take_the_event_sum_path(monkeypatch, k, cards):
    """256 x 8, 128 x 10, 64 x 10, 64 x 2, 96 x 2 and 64 x 3 tables never
    compare every pair."""
    t = random_table(np.random.default_rng(80), k, cards)
    want = scalar_diameter(t)
    _forbid_block_scan(monkeypatch)
    assert (diameter(t), diameter_witness(t)) == want


def test_one_level_tables_take_the_block_scan(monkeypatch):
    """64 rows of one level differ only by rounding, so event sums would
    make every row a candidate: the block scan compares them at once."""
    eps = np.finfo(float).eps
    X = 1.0 + eps * np.random.default_rng(85).integers(-2, 3, (64, 1))
    t = Cpt("A", ("a",), ("P", "Q"), (tuple("abcdefgh"),) * 2, X)
    want = scalar_diameter(t)
    assert want[0] > 0.0

    def no_event_sums(*args):
        raise AssertionError("event sums taken")
    monkeypatch.setattr(tv_core, "_event_sums", no_event_sums)
    assert tv_core._candidate_rows(X) is None
    assert (diameter(t), diameter_witness(t)) == want


@pytest.mark.parametrize("cards,k,tied", [((8, 25), 4, 40), ((16, 16), 2, 128),
                                          ((16, 16), 2, 130)])
def test_tied_extreme_rows_take_the_event_sum_path_within_the_pair_budget(
        monkeypatch, cards, k, tied):
    """Rows that copy two far rows are all candidates, and only their
    pairs are compared while pairs times levels fit _PAIR_BUDGET: 40
    rows of 4 levels and 128 of 2 do, 130 of 2 do not."""
    r = math.prod(cards)
    rng = np.random.default_rng(84)
    X = rng.dirichlet(np.ones(k), size=r)
    at = rng.choice(r, tied, replace=False)
    X[at] = np.eye(k)[[0, 1] * (tied // 2)]
    t = Cpt("A", tuple(f"l{c}" for c in range(k)), ("P", "Q"),
            tuple(tuple(f"p{i}" for i in range(n)) for n in cards), X)
    want = scalar_diameter(t)
    assert want[0] == 1.0
    rows = tv_core._candidate_rows(X)
    if tied ** 2 * k > tv_core._PAIR_BUDGET:
        assert rows is None
    else:
        assert rows.tolist() == sorted(at.tolist())
        _forbid_block_scan(monkeypatch)
    assert (diameter(t), diameter_witness(t)) == want


def test_equal_rows_of_a_wide_table_have_diameter_zero_at_the_first_pair():
    """64 equal rows of 4 levels are wide enough for event sums, whose
    columns then have no spread: no candidates, so the full scan finds
    diameter 0 at rows (0, 0)."""
    t = Cpt("A", ("a", "b", "c", "d"), ("P", "Q"), (tuple("abcdefgh"),) * 2,
            np.tile([0.1, 0.2, 0.3, 0.4], (64, 1)))
    assert tv_core._candidate_rows(t.grid().reshape(64, 4)) is None
    assert (diameter(t), diameter_witness(t)) == (0.0, (0, 0))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "zeros"])
def test_wide_tables_without_a_finite_scale_take_the_block_scan(bad):
    """A 64 x 4 table is wide enough for event sums, but NaN, an
    infinity or all zeros leave no slack to scale, so every pair is
    compared."""
    X = np.random.default_rng(82).dirichlet(np.ones(4), size=64)
    if bad == "zeros":
        X[:] = 0.0
    else:
        X[5, 2] = bad
    t = Cpt("A", ("a", "b", "c", "d"), ("P", "Q"), (tuple("abcdefgh"),) * 2,
            X)
    assert tv_core._candidate_rows(t.grid().reshape(64, 4)) is None
    assert ((diameter(t), diameter_witness(t))
            == tv_core._block_scan(X, None, 0.0))


def _tables_of_every_origin():
    """A CPT from ProbVec rows, one read by parse_model, and the results
    of collapse_parent and transition_table."""
    net = load_model("native_fish_fragment")
    return [tree_cpt(), net.cpt("TreeCondition"),
            collapse_parent(tree_cpt(), 1),
            transition_table(net, ["TreeCondition"], ["Drought"])]


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("copy_of", [lambda t: t, copy.deepcopy,
                                     lambda t: pickle.loads(pickle.dumps(t))],
                         ids=["same", "deepcopy", "pickle"])
def test_grid_is_read_only(k, copy_of):
    t = copy_of(_tables_of_every_origin()[k])
    before = t.grid().copy()
    with pytest.raises(ValueError):
        t.grid()[0] = 0.5
    with pytest.raises(ValueError):
        t.grid().flags.writeable = True
    with pytest.raises(ValueError):
        np.moveaxis(t.grid(), 0, -1)[...] = 0.0
    assert np.array_equal(t.grid(), before)


def test_parsed_and_probvec_tables_are_equal_by_value():
    parsed = load_model("native_fish_fragment").cpt("TreeCondition")
    built = tree_cpt()
    assert parsed == built and built == parsed
    assert hash(parsed) == hash(built)
    assert parsed.rows == built.rows
    assert len({parsed, built}) == 1
    assert parsed != tree_cpt(Q_ROWS)


def test_rows_of_a_grid_table_equal_the_rows_it_was_built_from():
    rows = [ProbVec(TREE_LEVELS, r) for r in P_ROWS]
    t = Cpt("TreeCondition", TREE_LEVELS, ("Drought", "Rainfall"),
            (DROUGHT_LEVELS, RAINFALL_LEVELS), rows)
    assert t.rows == tuple(rows)
    assert t.grid().reshape(-1, 3).tolist() == [list(r) for r in P_ROWS]
    # a table whose rows do not fit keeps them as given
    short = Cpt("TreeCondition", TREE_LEVELS, ("Drought", "Rainfall"),
                (DROUGHT_LEVELS, RAINFALL_LEVELS), rows[:5])
    assert short.rows == tuple(rows[:5])
    assert short.violations() == ["TreeCondition: 5 rows, expected 6"]


@pytest.mark.parametrize("build", [Cpt, Cpt.of], ids=["init", "of"])
@pytest.mark.parametrize("mass,shape", [([0.5, 0.3, 0.2], "1 x 2"),
                                        ([[0.5, 0.5]] * 3, "2 x 2")])
def test_an_array_that_does_not_fill_the_table_is_a_domain_error(build, mass,
                                                                 shape):
    parents = () if shape == "1 x 2" else ("P",)
    with pytest.raises(DomainError, match=rf"^A: {np.size(mass)} masses do "
                       rf"not fit the table's {shape} shape$"):
        build("A", ("a", "b"), parents, (("x", "y"),) * len(parents),
              np.array(mass))


def test_a_fitting_table_without_child_levels_keeps_a_grid():
    t = Cpt("X", (), (), (), [ProbVec((), ())])
    assert t._grid is not None and t.grid().shape == (0,)
    assert diameter(t) == 0.0
    assert t.violations() == ["X: no child levels", "X: row 0: no levels"]


def test_an_array_without_child_levels_reads_like_probvec_rows():
    levels = (("x", "y"),)
    from_array = Cpt("A", (), ("P",), levels, np.zeros((2, 0)))
    from_rows = Cpt("A", (), ("P",), levels, [ProbVec((), ())] * 2)
    assert from_array == from_rows
    assert from_array.violations() == from_rows.violations() == [
        "A: no child levels", "A: row 0: no levels", "A: row 1: no levels"]
