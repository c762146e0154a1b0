import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tvrobust import (
    BayesNet,
    Cpt,
    DomainError,
    ProbVec,
    Variable,
    ancestral_set,
    descendants_map,
    model_document,
    parse_model,
    topological_order,
    validate,
)

from conftest import (
    MODELS_DIR,
    TEN_NODE_EDGES,
    random_net,
    reference_validate,
    scalar_topological_order,
)


def _net(variables, cpts):
    return BayesNet(tuple(variables), tuple(cpts))


def _v(name, levels=("t", "f")):
    return Variable(name, tuple(levels))


def _cpt(child, parents, rows, levels=("t", "f"), parent_levels=None):
    if parent_levels is None:
        parent_levels = tuple(("t", "f") for _ in parents)
    return Cpt(child, tuple(levels), tuple(parents), tuple(parent_levels),
               tuple(ProbVec(tuple(levels), tuple(r)) for r in rows))


def test_validate_ok_on_fixture(fragment):
    assert validate(fragment) == []


def test_validate_reports_row_mass():
    net = _net([_v("A")], [_cpt("A", (), [(0.5, 0.6)])])
    msgs = validate(net)
    assert len(msgs) == 1
    assert "mass sums to" in msgs[0]


def test_validate_reports_negative_entry():
    net = _net([_v("A")], [_cpt("A", (), [(-0.1, 1.1)])])
    assert any("negative" in m for m in validate(net))


def test_validate_reports_two_cycle():
    net = _net(
        [_v("A"), _v("B")],
        [_cpt("A", ("B",), [(0.5, 0.5), (0.4, 0.6)]),
         _cpt("B", ("A",), [(0.7, 0.3), (0.2, 0.8)])])
    assert any("cycle" in m for m in validate(net))


def test_validate_reports_unknown_parent():
    net = _net(
        [_v("A"), _v("B")],
        [_cpt("A", ("C",), [(0.5, 0.5), (0.4, 0.6)]),
         _cpt("B", (), [(0.7, 0.3)])])
    assert any("unknown parent" in m for m in validate(net))


def test_validate_reports_cpt_count_mismatch():
    net = _net([_v("A"), _v("B")], [_cpt("A", (), [(0.5, 0.5)])])
    assert any("CPTs for" in m for m in validate(net))


def test_validate_reports_duplicate_names_and_levels():
    net = _net([_v("A"), _v("A")],
               [_cpt("A", (), [(0.5, 0.5)]), _cpt("A", (), [(0.5, 0.5)])])
    assert any("duplicate" in m for m in validate(net))
    net2 = _net([Variable("A", ("t", "t"))],
                [_cpt("A", (), [(0.5, 0.5)], levels=("t", "t"))])
    assert any("duplicate" in m for m in validate(net2))


def test_validate_reports_level_disagreement():
    net = _net([Variable("A", ("x", "y"))],
               [_cpt("A", (), [(0.5, 0.5)], levels=("t", "f"))])
    assert any("disagree" in m for m in validate(net))


def test_validate_reports_parent_level_disagreement():
    net = _net(
        [_v("A"), _v("B")],
        [_cpt("A", (), [(0.5, 0.5)]),
         _cpt("B", ("A",), [(0.7, 0.3), (0.2, 0.8)],
              parent_levels=(("x", "y"),))])
    assert any("levels disagree" in m for m in validate(net))


def test_of_raises_on_invalid_accepts_valid(fragment):
    with pytest.raises(DomainError):
        BayesNet.of([_v("A")], [_cpt("A", (), [(0.5, 0.6)])])
    rebuilt = BayesNet.of(fragment.variables, fragment.cpts)
    assert rebuilt.names() == fragment.names()


def test_broken_fixture_fails_validation():
    text = (MODELS_DIR / "broken_model.json").read_text()
    net, msgs = parse_model(text, strict=False)
    assert any("cycle" in m for m in msgs)
    assert any("mass sums to" in m for m in msgs)


def test_topological_order_respects_edges(ten_node):
    order = topological_order(ten_node)
    pos = {name: i for i, name in enumerate(order)}
    for p, c in TEN_NODE_EDGES:
        assert pos[p] < pos[c]


def test_topological_order_breaks_ties_by_declaration():
    net = _net(
        [_v("B"), _v("A"), _v("C")],
        [_cpt("B", (), [(0.5, 0.5)]),
         _cpt("A", (), [(0.5, 0.5)]),
         _cpt("C", ("A", "B"), [(0.5, 0.5)] * 4)])
    assert topological_order(net) == ("B", "A", "C")


def test_topological_order_rejects_cycle():
    net = _net(
        [_v("A"), _v("B")],
        [_cpt("A", ("B",), [(0.5, 0.5), (0.4, 0.6)]),
         _cpt("B", ("A",), [(0.7, 0.3), (0.2, 0.8)])])
    with pytest.raises(DomainError):
        topological_order(net)


def test_edges_in_declaration_order(fragment):
    assert fragment.edges() == (("Drought", "TreeCondition"),
                                ("Rainfall", "TreeCondition"))


def test_children_and_parents(fragment):
    assert fragment.parents_of("TreeCondition") == ("Drought", "Rainfall")
    assert fragment.children_of("Drought") == ("TreeCondition",)
    assert fragment.children_of("TreeCondition") == ()
    with pytest.raises(DomainError):
        fragment.parents_of("Pollinators")


def test_ancestral_set_worked_example(ten_node):
    got = ancestral_set(ten_node, ("X1", "X9"))
    assert got == {"X1", "X2", "X3", "X4", "X5", "X7", "X9"}


def test_ancestral_set_edge_cases(fragment):
    assert ancestral_set(fragment, ("Drought",)) == {"Drought"}
    assert ancestral_set(fragment, ("TreeCondition",)) == {
        "Drought", "Rainfall", "TreeCondition"}
    with pytest.raises(DomainError):
        ancestral_set(fragment, ("Pollinators",))


def test_descendants_map_on_demo(ten_node):
    d = descendants_map(ten_node)
    assert d["X1"] == {"X2", "X3", "X4", "X5", "X6",
                       "X7", "X8", "X9", "X10"}
    assert d["X9"] == set()
    assert d["X5"] == {"X6", "X7", "X8", "X9"}


def test_descendants_consistent_with_ancestors(ten_node):
    d = descendants_map(ten_node)
    for name in ("X1", "X5", "X9"):
        for other in ancestral_set(ten_node, (name,)) - {name}:
            assert name in d[other]


def test_position_index_keeps_the_first_duplicate():
    a = Variable("A", ("t", "f"))
    row = ProbVec(("t", "f"), (0.5, 0.5))
    net = BayesNet((a, Variable("B", ("t", "f")), a),
                   tuple(Cpt(n, ("t", "f"), (), (), (row,))
                         for n in ("A", "B", "A")))
    assert net.position("A") == 0
    assert net.position("B") == 1
    for bad in ("C", ["A"]):
        with pytest.raises(DomainError, match="unknown variable"):
            net.position(bad)
    assert validate(net) == ["duplicate variable names"]


def test_descendants_map_matches_children_walk():
    rng = np.random.default_rng(61)
    for _ in range(20):
        net = random_net(rng, 5, 9)
        want = {}
        for n in reversed(topological_order(net)):
            want[n] = set()
            for c in net.children_of(n):
                want[n] |= {c} | want[c]
        assert descendants_map(net) == want


def test_sorted_by_position(ten_node):
    got = ten_node.sorted_by_position({"X9", "X2", "X5"})
    assert got == ("X2", "X5", "X9")


def test_random_nets_validate():
    rng = np.random.default_rng(7)
    for _ in range(50):
        net = random_net(rng)
        assert validate(net) == []
        order = topological_order(net)
        assert sorted(order) == sorted(v.name for v in net.variables)


def _order_or_message(order_fn, net):
    try:
        return order_fn(net)
    except DomainError as e:
        return f"DomainError: {e}"


def _with_parent(net, child, parent):
    """``net`` with one more parent on ``child``'s CPT, unchecked."""
    cpts = tuple(
        dataclasses.replace(t, parents=t.parents + (parent,),
                            parent_levels=t.parent_levels
                            + (net.variable(parent).levels,))
        if t.child == child else t
        for t in net.cpts)
    return BayesNet(net.variables, cpts)


def test_topological_order_equals_rescan_loop():
    rng = np.random.default_rng(404)
    shuffled_out_of_order = cycles = 0
    for _ in range(60):
        # random_net declares every parent before its child, so its order
        # is the declaration order, as the rescan loop finds it too
        base = random_net(rng, 4, 14)
        assert topological_order(base) == scalar_topological_order(base) \
            == base.names()
        perm = rng.permutation(len(base.variables))
        net = _net([base.variables[i] for i in perm],
                   [base.cpts[i] for i in perm])
        order = topological_order(net)
        assert order == scalar_topological_order(net)
        shuffled_out_of_order += order != net.names()
        # a back edge from the last declared variable of the base order
        # onto an ancestor of it closes a cycle, in either declaration
        names = base.names()
        for child in names[:-1]:
            if names[-1] in descendants_map(base)[child]:
                for n in (net, base):
                    cyclic = _with_parent(n, child, names[-1])
                    got = _order_or_message(topological_order, cyclic)
                    assert got.startswith(
                        "DomainError: cycle detected involving")
                    assert got == _order_or_message(
                        scalar_topological_order, cyclic)
                cycles += 1
                break
    assert shuffled_out_of_order >= 50
    assert cycles >= 10


def test_topological_order_multi_root_and_duplicate_names():
    row = ProbVec(("t", "f"), (0.5, 0.5))
    # three roots declared after their children
    multi = _net(
        [_v("C"), _v("D"), _v("R3"), _v("R1"), _v("R2")],
        [_cpt("C", ("R1", "R2"), [(0.5, 0.5)] * 4),
         _cpt("D", ("R3", "C"), [(0.5, 0.5)] * 4),
         _cpt("R3", (), [(0.5, 0.5)]),
         _cpt("R1", (), [(0.5, 0.5)]),
         _cpt("R2", (), [(0.5, 0.5)])])
    assert topological_order(multi) == ("R3", "R1", "R2", "C", "D")
    assert topological_order(multi) == scalar_topological_order(multi)
    # a self-loop strands its variable and everything below it
    loop = _with_parent(multi, "C", "C")
    got = _order_or_message(topological_order, loop)
    assert got == "DomainError: cycle detected involving C, D"
    assert got == _order_or_message(scalar_topological_order, loop)
    # duplicate names: the order never fills, and the message lists every
    # occurrence of each name left unplaced (none when all place)
    dup = _net([_v("A"), _v("B"), _v("A")],
               [Cpt(n, ("t", "f"), (), (), (row,)) for n in ("A", "B", "A")])
    want = {"": dup, "B": _with_parent(dup, "B", "B"),
            "A, A": _with_parent(dup, "A", "A")}
    for stuck, net in want.items():
        got = _order_or_message(topological_order, net)
        assert got == "DomainError: cycle detected involving " + stuck
        assert got == _order_or_message(scalar_topological_order, net)


# Row checking: ``validate`` clears well-formed rows in bulk and sends the
# rest to ``ProbVec.violations``; its messages must equal the per-row loop.

ROW_DEFECTS = ("negative", "negative zero", "nan", "inf", "-inf", "overflow",
               "near 1", "ragged", "row count", "other levels",
               "duplicate levels")


def _with_wide_child(net, rng, k):
    """``net`` plus a ``k``-level child of up to two of its variables."""
    pool = [net.variables[int(i)] for i in
            rng.choice(len(net.variables), size=int(rng.integers(0, 3)),
                       replace=False)]
    pool.sort(key=lambda v: net.position(v.name))
    levels = tuple(f"w{j}" for j in range(k))
    rows = []
    for _ in range(int(np.prod([len(v.levels) for v in pool]))):
        w = rng.uniform(0.05, 1.0, size=k)
        rows.append(ProbVec(levels, tuple(float(x) for x in w / w.sum())))
    cpt = Cpt("W", levels, tuple(v.name for v in pool),
              tuple(v.levels for v in pool), rows)
    return BayesNet(net.variables + (Variable("W", levels),),
                    net.cpts + (cpt,))


def _inject(t: Cpt, defect: str, i: int, j: int, nudge: float) -> Cpt:
    """``t`` with one defect in row ``i`` (column ``j``), unchecked."""
    rows = [list(r.mass) for r in t.rows]
    if not rows:
        return t
    child_levels = t.child_levels
    levels = [child_levels] * len(rows)
    i = i % len(rows)
    row = rows[i]
    if not row:
        return t
    j = j % len(row)
    if defect == "negative":
        # the row still sums to about 1
        row[(j + 1) % len(row)] += 2 * row[j]
        row[j] = -row[j]
    elif defect == "negative zero":
        row[(j + 1) % len(row)] += row[j]
        row[j] = -0.0
    elif defect in ("nan", "inf", "-inf"):
        row[j] = float(defect)
    elif defect == "overflow":
        rows[i] = [1.5e308] * len(row)
    elif defect == "near 1":
        row[j] += nudge
    elif defect == "ragged":
        rows[i] = row[:-1] if j % 2 else row + [0.0]
    elif defect == "row count":
        rows = rows[:-1] if j % 2 else rows + [row]
        levels = [child_levels] * len(rows)
    elif defect == "other levels":
        levels[i] = tuple(f"z{m}" for m in range(len(row)))
    elif defect == "duplicate levels":
        child_levels = child_levels[:-1] + child_levels[:1]
        levels = [child_levels] * len(rows)
    return Cpt(t.child, child_levels, t.parents, t.parent_levels,
               [ProbVec(ls, r) for ls, r in zip(levels, rows)])


@st.composite
def defective_nets(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    net = _with_wide_child(random_net(rng, 3, 6), rng,
                           draw(st.integers(8, 12)))
    cpts = list(net.cpts)
    for _ in range(draw(st.integers(0, 3))):
        # 1 +/- 1e-9 and 1 +/- 5e-10, give or take a few ulps
        nudge = (draw(st.sampled_from((1e-9, -1e-9, 5e-10, -5e-10)))
                 + draw(st.integers(-4, 4)) * 2.0 ** -52)
        k = draw(st.integers(0, len(cpts) - 1))
        cpts[k] = _inject(cpts[k], draw(st.sampled_from(ROW_DEFECTS)),
                          draw(st.integers(0, 255)), draw(st.integers(0, 15)),
                          nudge)
    return BayesNet(net.variables, tuple(cpts))


@settings(max_examples=300, deadline=None)
@given(defective_nets())
def test_validate_equals_the_per_row_reference(net):
    want = reference_validate(net)
    assert validate(net) == want
    parsed, violations = parse_model(json.dumps(model_document(net)),
                                     strict=False)
    assert violations == reference_validate(parsed)
    # the document cannot hold levels other than the variable's own
    if not any("levels" in m for m in want):
        assert violations == want


def test_rows_at_the_filter_margin_match_the_reference():
    """Rows summing to within a few ulps of 1 +/- ROW_SUM_TOLERANCE and of
    1 +/- ROW_SUM_TOLERANCE / 2, the filter's own margin, on 8 to 12
    columns; the reference decides each one."""
    rng = np.random.default_rng(606)
    levels = tuple(f"l{j}" for j in range(12))
    checked = flagged = 0
    for k in range(8, 13):
        for edge in (1e-9, -1e-9, 5e-10, -5e-10):
            for ulps in range(-8, 9):
                w = rng.uniform(0.05, 1.0, size=k)
                mass = [float(x) for x in w / w.sum()]
                mass[int(rng.integers(k))] += edge + ulps * 2.0 ** -52
                t = Cpt("A", levels[:k], (), (),
                        [ProbVec(levels[:k], mass)])
                net = BayesNet((Variable("A", levels[:k]),), (t,))
                want = reference_validate(net)
                assert validate(net) == want
                checked += 1
                flagged += bool(want)
    assert 0 < flagged < checked
