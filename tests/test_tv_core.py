import copy
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
        r = int(rng.integers(max(tv_core._EVENT_ROWS,
                                 tv_core._EVENT_CELLS // k + 1), 200))
        X = _with_permuted_far_pairs(rng, rng.dirichlet(np.ones(k), size=r))
        X *= rng.uniform(0.5, 3.0)
        assert tv_core._pair_scan(X) == tv_core._block_scan(X, None, 0.0)


@pytest.mark.parametrize("k,cards", [(8, (4, 4, 4, 4)), (10, (4, 4, 8)),
                                     (10, (4, 4, 4))])
def test_wide_tables_take_the_event_sum_path(monkeypatch, k, cards):
    """256 x 8, 128 x 10 and 64 x 10 tables never compare every pair."""
    t = random_table(np.random.default_rng(80), k, cards)
    want = scalar_diameter(t)

    def no_block_scan(*args):
        raise AssertionError("block scan taken")
    monkeypatch.setattr(tv_core, "_block_scan", no_block_scan)
    assert (diameter(t), diameter_witness(t)) == want


def test_equal_rows_of_a_wide_table_have_diameter_zero_at_the_first_pair():
    """64 equal rows of 4 levels are wide enough for event sums, whose
    columns then have no spread: no candidates, so the full scan finds
    diameter 0 at rows (0, 0)."""
    t = Cpt("A", ("a", "b", "c", "d"), ("P", "Q"), (tuple("abcdefgh"),) * 2,
            np.tile([0.1, 0.2, 0.3, 0.4], (64, 1)))
    assert tv_core._candidate_rows(t.grid().reshape(64, 4)) is None
    assert (diameter(t), diameter_witness(t)) == (0.0, (0, 0))


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


def test_an_array_without_child_levels_reads_like_probvec_rows():
    levels = (("x", "y"),)
    from_array = Cpt("A", (), ("P",), levels, np.zeros((2, 0)))
    from_rows = Cpt("A", (), ("P",), levels, [ProbVec((), ())] * 2)
    assert from_array == from_rows
    assert from_array.violations() == from_rows.violations() == [
        "A: no child levels", "A: row 0: no levels", "A: row 1: no levels"]
