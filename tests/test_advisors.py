import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tvrobust import (
    BayesNet,
    Cpt,
    DomainError,
    ProbVec,
    Variable,
    amalgamate_levels,
    amalgamation_suggest,
    ancestral_set,
    cpt_tv_plus,
    delete_edge,
    diameter,
    edge_deletion_report,
    elicitation_priority,
    joint_mass,
    marginal,
    parent_diameter,
    parent_index,
    parse_model,
    serialize_model,
    table_tv,
    validate,
)
from tvrobust import jtree
from tvrobust.advisors import PriorityRecord, counterpart_cost
from tvrobust.exact_oracle import marginal_of

from conftest import (
    RAINFALL_LEVELS,
    TESTS_DIR,
    TREE_LEVELS,
    count_validate,
    random_net,
    random_table,
    random_vector,
    reference_priority,
    reference_validate,
    scalar_collapse_parent,
    scalar_counterpart_cost,
    scalar_delete_edge_cost,
    scalar_pair_costs,
    tree_cpt,
)


def test_edge_report_fragment_order_and_values(fragment):
    report = edge_deletion_report(fragment)
    got = [(r.parent, r.child, r.delta) for r in report.records]
    assert [(p, c) for p, c, _ in got] == [
        ("Drought", "TreeCondition"), ("Rainfall", "TreeCondition")]
    assert abs(got[0][2] - 0.6) <= 1e-12
    assert abs(got[1][2] - 0.2) <= 1e-12


def test_edge_report_covers_every_edge(ten_node):
    report = edge_deletion_report(ten_node)
    assert len(report.records) == 11
    assert {(r.parent, r.child) for r in report.records} == set(
        ten_node.edges())
    deltas = [r.delta for r in report.records]
    assert deltas == sorted(deltas, reverse=True)
    for r in report.records:
        t = ten_node.cpt(r.child)
        assert r.delta == parent_diameter(t, parent_index(t, r.parent))


def test_edge_report_zero_for_irrelevant_parent():
    rows = [ProbVec(("x", "y"), (0.3, 0.7)), ProbVec(("x", "y"), (0.3, 0.7))]
    net = BayesNet.of(
        (Variable("A", ("t", "f")), Variable("B", ("x", "y"))),
        (Cpt.of("A", ("t", "f"), (), (), (ProbVec(("t", "f"), (0.5, 0.5)),)),
         Cpt.of("B", ("x", "y"), ("A",), (("t", "f"),), rows)))
    report = edge_deletion_report(net)
    assert report.records[0].delta == 0.0


def test_edge_report_rejects_invalid_net():
    bad = BayesNet(
        (Variable("A", ("t", "f")),),
        (Cpt("A", ("t", "f"), (), (), (ProbVec(("t", "f"), (0.5, 0.6)),)),))
    with pytest.raises(DomainError):
        edge_deletion_report(bad)


def test_delete_edge_fragment_rows_and_cost(fragment):
    new, cost = delete_edge(fragment, "Rainfall", "TreeCondition")
    assert abs(cost - 0.1) <= 1e-12
    t = new.cpt("TreeCondition")
    assert t.parents == ("Drought",)
    assert np.allclose(t.rows[0].mass, (0.25, 0.6, 0.15), atol=1e-12)
    assert np.allclose(t.rows[1].mass,
                       (0.8, 0.52 / 3, 0.08 / 3), atol=1e-12)
    assert validate(new) == []
    assert ("Rainfall", "TreeCondition") not in new.edges()


def test_delete_edge_unknown_edge(fragment):
    with pytest.raises(DomainError):
        delete_edge(fragment, "Drought", "Rainfall")
    with pytest.raises(DomainError):
        delete_edge(fragment, "TreeCondition", "Drought")


def test_delete_zero_cost_edge_keeps_margins():
    rows = [ProbVec(("x", "y"), (0.3, 0.7)), ProbVec(("x", "y"), (0.3, 0.7))]
    net = BayesNet.of(
        (Variable("A", ("t", "f")), Variable("B", ("x", "y"))),
        (Cpt.of("A", ("t", "f"), (), (), (ProbVec(("t", "f"), (0.5, 0.5)),)),
         Cpt.of("B", ("x", "y"), ("A",), (("t", "f"),), rows)))
    new, cost = delete_edge(net, "A", "B")
    assert cost == 0.0
    assert table_tv(marginal(net, ("B",)), marginal(new, ("B",))) == 0.0


def test_delete_edge_cost_zero_iff_parent_irrelevant():
    rng = np.random.default_rng(31)
    for _ in range(25):
        net = random_net(rng)
        report = edge_deletion_report(net)
        for r in report.records[:2]:
            _, cost = delete_edge(net, r.parent, r.child)
            assert (cost == 0.0) == (r.delta == 0.0)
            # averaging rows can never cost more than the spread
            assert cost <= r.delta + 1e-12


def test_delete_edge_cost_bounds_margin_shift(fragment):
    new, cost = delete_edge(fragment, "Rainfall", "TreeCondition")
    shift = table_tv(marginal(fragment, ("TreeCondition",)),
                     marginal(new, ("TreeCondition",)))
    assert shift <= cost + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_delete_edge_is_the_merge_of_all_parent_levels(seed):
    """Seen from the child, deleting p -> c is merging all of p's levels:
    the same grid bytes once the size-1 axis is squeezed out, and the
    same cost."""
    net = random_net(np.random.default_rng(seed))
    for p, c in net.edges():
        deleted, cost = delete_edge(net, p, c)
        merged, costs = amalgamate_levels(net, p, net.variable(p).levels)
        j = parent_index(net.cpt(c), p)
        assert np.squeeze(merged.cpt(c).grid(), j).tobytes() == \
            deleted.cpt(c).grid().tobytes()
        assert cost == costs[c]


def test_suggest_fragment_ties_keep_earlier_pair(fragment):
    got = amalgamation_suggest(fragment, "Rainfall")
    assert [pair for pair, _ in got] == [
        ("below average", "average"), ("average", "above average")]
    assert abs(got[0][1] - 0.1) <= 1e-12
    assert abs(got[1][1] - 0.1) <= 1e-12


def test_suggest_binary_variable_single_candidate(fragment):
    got = amalgamation_suggest(fragment, "Drought")
    assert len(got) == 1
    assert got[0][0] == ("yes", "no")


def test_suggest_puts_identical_pair_first():
    rows = [ProbVec(("x", "y"), (0.3, 0.7)), ProbVec(("x", "y"), (0.9, 0.1)),
            ProbVec(("x", "y"), (0.9, 0.1))]
    net = BayesNet.of(
        (Variable("A", ("a", "b", "c")), Variable("B", ("x", "y"))),
        (Cpt.of("A", ("a", "b", "c"), (), (),
                (ProbVec(("a", "b", "c"), (0.2, 0.3, 0.5)),)),
         Cpt.of("B", ("x", "y"), ("A",), (("a", "b", "c"),), rows)))
    got = amalgamation_suggest(net, "A")
    assert got[0][0] == ("b", "c")
    assert got[0][1] == 0.0
    assert got[1][1] > 0.0


def test_suggest_rejects_single_level():
    net = BayesNet.of(
        (Variable("A", ("only",)),),
        (Cpt.of("A", ("only",), (), (), (ProbVec(("only",), (1.0,)),)),))
    with pytest.raises(DomainError):
        amalgamation_suggest(net, "A")


def test_amalgamate_fragment_below_plus_average(fragment):
    new, costs = amalgamate_levels(fragment, "Rainfall",
                                   ("below average", "average"))
    assert new.variable("Rainfall").levels == (
        "below average+average", "above average")
    # prior columns summed
    assert np.allclose(new.cpt("Rainfall").rows[0].mass, (0.9, 0.1),
                       atol=1e-15)
    t = new.cpt("TreeCondition")
    assert t.parent_levels[1] == ("below average+average", "above average")
    expected = ((0.225, 0.60, 0.175), (0.30, 0.60, 0.10),
                (0.75, 0.215, 0.035), (0.90, 0.09, 0.01))
    for row, want in zip(t.rows, expected):
        assert np.allclose(row.mass, want, atol=1e-12)
    assert set(costs) == {"TreeCondition"}
    assert abs(costs["TreeCondition"] - 0.05) <= 1e-12
    assert validate(new) == []


def test_amalgamate_rejects_nonconsecutive_unless_nominal(fragment):
    with pytest.raises(DomainError):
        amalgamate_levels(fragment, "Rainfall",
                          ("below average", "above average"))
    new, costs = amalgamate_levels(fragment, "Rainfall",
                                   ("below average", "above average"),
                                   allow_nonconsecutive=True)
    assert new.variable("Rainfall").levels == (
        "below average+above average", "average")
    assert validate(new) == []


def test_amalgamate_rejects_an_empty_group_in_both_modes(fragment):
    for nominal in (False, True):
        with pytest.raises(DomainError, match="^empty group$"):
            amalgamate_levels(fragment, "Rainfall", (),
                              allow_nonconsecutive=nominal)


def test_amalgamate_rejects_a_child_with_other_parent_levels():
    x_levels, y_levels = ("a", "b", "c"), ("t", "f")
    rows = [ProbVec(y_levels, m) for m in ((0.2, 0.8), (0.5, 0.5),
                                           (0.9, 0.1))]
    x = Cpt.of("X", x_levels, (), (), [ProbVec(x_levels, (0.2, 0.3, 0.5))])
    net = BayesNet((Variable("X", x_levels), Variable("Y", y_levels)),
                   (x, Cpt.of("Y", y_levels, ("X",), (("p", "q", "r"),),
                              rows)))
    assert "Y: parent 'X' levels disagree" in validate(net)
    for nominal in (False, True):
        with pytest.raises(DomainError,
                           match="^Y: parent 'X' levels disagree$"):
            amalgamate_levels(net, "X", ("a", "b"),
                              allow_nonconsecutive=nominal)
    # the same table over X's own levels merges
    good = BayesNet(net.variables,
                    (x, Cpt.of("Y", y_levels, ("X",), (x_levels,), rows)))
    _, costs = amalgamate_levels(good, "X", ("a", "b"))
    assert costs == {"Y": pytest.approx(0.15)}


def test_amalgamate_size_one_group_is_identity(fragment):
    new, costs = amalgamate_levels(fragment, "Rainfall", ("average",))
    assert costs == {"TreeCondition": 0.0}
    assert new.variable("Rainfall").levels == RAINFALL_LEVELS
    for a, b in zip(new.cpts, fragment.cpts):
        for ra, rb in zip(a.rows, b.rows):
            assert ra.mass == rb.mass


def test_amalgamate_all_levels_zeroes_parent_delta(fragment):
    new, _ = amalgamate_levels(fragment, "Rainfall", RAINFALL_LEVELS)
    assert new.variable("Rainfall").levels == (
        "below average+average+above average",)
    t = new.cpt("TreeCondition")
    assert parent_diameter(t, parent_index(t, "Rainfall")) == 0.0
    assert abs(joint_mass(new).mass.sum() - 1.0) <= 1e-12


def test_amalgamate_never_increases_diameters():
    rng = np.random.default_rng(37)
    for _ in range(25):
        net = random_net(rng)
        # pick a variable that is someone's parent and has 3 levels
        cands = [v.name for v in net.variables
                 if len(v.levels) == 3 and net.children_of(v.name)]
        if not cands:
            continue
        name = cands[0]
        levels = net.variable(name).levels
        new, costs = amalgamate_levels(net, name, levels[:2])
        assert validate(new) == []
        for child in net.children_of(name):
            assert diameter(new.cpt(child)) <= diameter(net.cpt(child)) + 1e-12
        assert diameter(new.cpt(name)) <= diameter(net.cpt(name)) + 1e-12


def test_counterpart_cost_against_externally_given_table(fragment):
    """Pricing a merged table someone else supplies, not our average."""
    merged_levels = ("below average+average", "above average")
    given_rows = ((0.225, 0.60, 0.175), (0.30, 0.60, 0.10),
                  (0.725, 0.215, 0.06), (0.90, 0.09, 0.01))
    supplied = Cpt.of(
        "TreeCondition", TREE_LEVELS, ("Drought", "Rainfall"),
        (("yes", "no"), merged_levels),
        [ProbVec(TREE_LEVELS, r) for r in given_rows])
    cost = counterpart_cost(tree_cpt(), supplied, "Rainfall",
                            ("below average", "average"))
    assert abs(cost - 0.075) <= 1e-12


_MERGED_RAINFALL = ("below average+average", "above average")


@pytest.mark.parametrize("call,message", [
    (lambda net: amalgamate_levels(net, "Rainfall", ("wet", "average")),
     "unknown level 'wet'"),
    (lambda net: amalgamate_levels(net, "Rainfall", ("average", "average"),
                                   allow_nonconsecutive=True),
     "group contains unknown or repeated levels"),
    # a table over other child levels
    (lambda net: counterpart_cost(
        net.cpt("TreeCondition"),
        Cpt.of("TreeCondition", ("a", "b", "c"), ("Drought", "Rainfall"),
               (("yes", "no"), _MERGED_RAINFALL), np.full((4, 3), 1 / 3)),
        "Rainfall", ("below average", "average")),
     "child levels differ between the tables"),
    # a table with a parent fewer
    (lambda net: counterpart_cost(
        net.cpt("TreeCondition"),
        Cpt.of("TreeCondition", TREE_LEVELS, ("Rainfall",),
               (_MERGED_RAINFALL,), np.full((2, 3), 1 / 3)),
        "Rainfall", ("below average", "average")),
     "configuration size 2 for 1 parents"),
    # the unmerged table has no level for the merged rows
    (lambda net: counterpart_cost(
        net.cpt("TreeCondition"), net.cpt("TreeCondition"), "Rainfall",
        ("below average", "average")),
     "unknown level 'below average+average'"),
], ids=["unknown_first_level", "repeated_nominal_levels",
        "counterpart_child_levels", "counterpart_parent_count",
        "counterpart_unknown_level"])
def test_level_merges_reject_bad_groups_and_tables(fragment, call, message):
    with pytest.raises(DomainError) as err:
        call(fragment)
    assert str(err.value) == message


def test_priority_fragment_scores_are_the_edges_deltas(fragment):
    """Each parent of the target scores the delta ``edges`` prints for
    its edge into it."""
    got = elicitation_priority(fragment, ("TreeCondition",))
    assert [(r.variable, r.note) for r in got] == [
        ("TreeCondition", "a target"), ("Drought", ""), ("Rainfall", "")]
    assert got[0].score == 1.0
    assert abs(got[1].score - 0.6) <= 1e-12
    assert abs(got[2].score - 0.2) <= 1e-12
    deltas = {r.parent: r.delta
              for r in edge_deletion_report(fragment).records}
    assert [r.score for r in got[1:]] == [deltas["Drought"],
                                          deltas["Rainfall"]]


def test_priority_demo_target_x9(ten_node):
    got = elicitation_priority(ten_node, ("X9",))
    by_name = {r.variable: r for r in got}
    assert got[0] == PriorityRecord("X9", 1.0, "a target")
    # X6, X8 and X10 are not ancestors of X9: their tables cannot move
    # it, so they score 0 and sort last
    assert got[-3:] == tuple(
        PriorityRecord(n, 0.0, "not an ancestor of the target")
        for n in ("X6", "X8", "X10"))

    def c(parent, child):
        t = ten_node.cpt(child)
        return parent_diameter(t, parent_index(t, parent))

    # X7's only path to X9 is its edge into X9
    assert abs(by_name["X7"].score - 0.118671) <= 5e-7
    assert by_name["X7"].score == c("X7", "X9")
    want = {"X7": c("X7", "X9")}
    want["X5"] = c("X5", "X7") * want["X7"]
    want["X4"] = c("X4", "X5") * want["X5"]
    want["X3"] = c("X3", "X4") * want["X4"]
    # X2 reaches X4 directly and through X3: the two paths add up
    want["X2"] = (c("X2", "X4") + c("X2", "X3") * c("X3", "X4")) * want["X4"]
    want["X1"] = c("X1", "X2") * want["X2"]
    for n, w in want.items():
        assert by_name[n].score == pytest.approx(w, rel=1e-12)
        assert by_name[n].note == ""
    assert [r.variable for r in got[1:7]] == ["X7", "X5", "X4", "X2", "X3",
                                             "X1"]


def test_priority_disconnected_family_scores_zero():
    net = BayesNet.of(
        (Variable("A", ("t", "f")), Variable("B", ("t", "f")),
         Variable("C", ("t", "f"))),
        (Cpt.of("A", ("t", "f"), (), (), (ProbVec(("t", "f"), (0.5, 0.5)),)),
         Cpt.of("B", ("t", "f"), ("A",), (("t", "f"),),
                (ProbVec(("t", "f"), (0.3, 0.7)),
                 ProbVec(("t", "f"), (0.6, 0.4)))),
         Cpt.of("C", ("t", "f"), (), (), (ProbVec(("t", "f"), (0.2, 0.8)),))))
    got = elicitation_priority(net, ("C",))
    by_name = {r.variable: r for r in got}
    assert by_name["A"].score == 0.0
    assert by_name["A"].note == "not an ancestor of the target"
    assert by_name["C"].score == 1.0
    assert got[-1].score == 0.0


def test_priority_rejects_unknown_target(fragment):
    with pytest.raises(DomainError):
        elicitation_priority(fragment, ("Pollinators",))


def test_priority_names_the_first_unknown_target_in_order(ten_node):
    # names are checked in the order given, not in hash-seeded set order
    with pytest.raises(DomainError, match="^unknown variable 'Pa'$"):
        elicitation_priority(ten_node, ["Pa", "Qb", "Rc"])
    with pytest.raises(DomainError, match="^unknown variable 'Qb'$"):
        elicitation_priority(ten_node, ["X9", "Qb", "Pa"])


def test_priority_rejects_an_empty_target_set(fragment, monkeypatch):
    # the target is named, not the donor, and no tree is built
    monkeypatch.setattr(jtree, "build_junction_tree", None)
    for targets in ((), []):
        with pytest.raises(DomainError,
                           match="^target set must be nonempty$"):
            elicitation_priority(fragment, targets)


def test_priority_builds_no_junction_tree(ten_node, monkeypatch):
    """Every ancestor is scored off the CPTs alone, with no moral graph
    and no junction tree, however many ancestors there are."""
    for name in ("moralize", "_join_sets", "build_junction_tree"):
        monkeypatch.setattr(jtree, name, None)
    rng = np.random.default_rng(11)
    cases = [(ten_node, ("X9",)), (ten_node, ("X1", "X9")),
             (random_net(rng, 40, 40), ("V39",))]
    for net, targets in cases:
        got = elicitation_priority(net, targets)
        assert sum(r.note != "not an ancestor of the target"
                   for r in got) == len(ancestral_set(net, targets))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 99))
def test_non_ancestor_tables_cannot_move_the_target(seed, t):
    """A fresh table for a variable priority scores "not an ancestor"
    leaves the target margin where it was.  The margin is summed from
    the full joint, not read off ``marginal``, which enumerates the
    ancestral set alone."""
    rng = np.random.default_rng(seed)
    net = random_net(rng, 4, 8)
    names = net.names()
    target = names[t % len(names)]
    before = marginal_of(joint_mass(net), (target,)).mass
    for r in elicitation_priority(net, (target,)):
        if r.note != "not an ancestor of the target":
            continue
        assert r.score == 0.0
        old = net.cpt(r.variable)
        fresh = Cpt.of(old.child, old.child_levels, old.parents,
                       old.parent_levels,
                       [random_vector(rng, len(old.child_levels))
                        for _ in old.rows])
        edited = BayesNet.of(net.variables, tuple(
            fresh if c.child == r.variable else c for c in net.cpts))
        after = marginal_of(joint_mass(edited), (target,)).mass
        assert np.max(np.abs(after - before)) <= 1e-12


def _edited_cpt(rng, t: Cpt, mixing: float) -> Cpt:
    """``t`` with each row moved ``mixing`` of the way to a fresh row:
    a random vector per row, or one point mass shared by every row, the
    edit that moves the child's margin furthest."""
    k = len(t.child_levels)
    if rng.integers(2):
        fresh = [random_vector(rng, k).mass for _ in t.rows]
    else:
        fresh = [np.eye(k)[int(rng.integers(k))]] * len(t.rows)
    rows = [(1.0 - mixing) * np.asarray(r.mass) + mixing * np.asarray(f)
            for r, f in zip(t.rows, fresh)]
    return Cpt.of(t.child, t.child_levels, t.parents, t.parent_levels,
                  [ProbVec(t.child_levels, tuple(r / r.sum())) for r in rows])


def _with_tables(net: BayesNet, tables) -> BayesNet:
    return BayesNet.of(net.variables, tuple(tables.get(t.child, t)
                                            for t in net.cpts))


def _random_targets(rng, net: BayesNet, k: int) -> list:
    names = net.names()
    picks = rng.choice(len(names), size=min(k, len(names)), replace=False)
    return [names[int(i)] for i in picks]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3),
       st.sampled_from([0.1, 0.5, 1.0]))
def test_one_table_edit_moves_the_targets_by_at_most_eps_times_score(
        seed, k, mixing):
    """Editing one table so that each row moves by at most eps in TV
    (``cpt_tv_plus``) moves the targets' dense margin by at most eps
    times the table's score."""
    rng = np.random.default_rng(seed)
    net = random_net(rng, 4, 8)
    targets = _random_targets(rng, net, k)
    before = marginal(net, targets)
    for r in elicitation_priority(net, targets):
        old = net.cpt(r.variable)
        new = _edited_cpt(rng, old, mixing)
        shift = table_tv(before, marginal(_with_tables(
            net, {r.variable: new}), targets))
        assert shift <= cpt_tv_plus(old, new) * r.score + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3),
       st.sampled_from([0.1, 0.5, 1.0]))
def test_several_table_edits_move_the_targets_by_at_most_the_score_sum(
        seed, k, mixing):
    """Editing several tables at once moves the targets' margin by at
    most the sum of each table's eps times its score."""
    rng = np.random.default_rng(seed)
    net = random_net(rng, 4, 8)
    targets = _random_targets(rng, net, k)
    scores = {r.variable: r.score
              for r in elicitation_priority(net, targets)}
    names = net.names()
    edited = rng.choice(len(names), size=int(rng.integers(2, len(names) + 1)),
                        replace=False)
    tables = {}
    budget = 0.0
    for i in edited:
        old = net.cpt(names[int(i)])
        tables[old.child] = _edited_cpt(rng, old, mixing)
        budget += cpt_tv_plus(old, tables[old.child]) * scores[old.child]
    shift = table_tv(marginal(net, targets),
                     marginal(_with_tables(net, tables), targets))
    assert shift <= budget + 1e-12


def test_priority_bounds_the_worst_edit_of_x7(ten_node):
    """Moving eps of mass between the same two levels in every row of
    X7's table moves P(X9) by eps times delta(P(X9 | X7)), which is X7's
    score; the tree-path score it replaced was about a fifth of that."""
    x7, x9 = ten_node.cpt("X7"), ten_node.cpt("X9")
    score = {r.variable: r.score
             for r in elicitation_priority(ten_node, ["X9"])}["X7"]
    G = x9.grid()
    gap = max(((a, b) for a in range(len(G)) for b in range(len(G))),
              key=lambda ab: float(np.abs(G[ab[0]] - G[ab[1]]).sum()))
    eps = 0.5 * min(float(x7.grid()[:, gap[1]].min()), 0.1)
    move = np.zeros(len(x7.child_levels))
    move[list(gap)] = (eps, -eps)
    new = Cpt.of("X7", x7.child_levels, x7.parents, x7.parent_levels,
                 x7.grid() + move)
    assert abs(cpt_tv_plus(x7, new) - eps) <= 1e-15
    shift = table_tv(marginal(ten_node, ["X9"]),
                     marginal(_with_tables(ten_node, {"X7": new}), ["X9"]))
    assert shift == pytest.approx(eps * score, rel=1e-9)


def test_priority_records_are_stable_across_hash_seeds():
    """A target set spanning two cliques of the tree, {X1, X9}, gives
    every ancestor a score, byte for byte the same under every hash
    seed."""
    script = ("import pathlib, tvrobust\n"
              "net = tvrobust.parse_model(pathlib.Path("
              "'models/ten_node_demo.json').read_text())\n"
              "for r in tvrobust.elicitation_priority(net, ['X1', 'X9']):\n"
              "    print(repr(r))\n")
    path = [str(TESTS_DIR.parent / "src")] + [
        p for p in [os.environ.get("PYTHONPATH")] if p]
    outputs = [subprocess.run(
        [sys.executable, "-c", script], cwd=TESTS_DIR, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                 PYTHONHASHSEED=seed),
        capture_output=True).stdout for seed in ("0", "1", "2", "3")]
    assert outputs[1:] == outputs[:1] * 3
    lines = outputs[0].decode().splitlines()
    assert len(lines) == 10
    assert lines[:2] == [repr(PriorityRecord(n, 1.0, "a target"))
                         for n in ("X1", "X9")]
    assert sum("note=''" in line for line in lines) == 5


def _differential_nets():
    """Random nets, plus nets whose parent P0 feeds an 8-16-level child."""
    rng = np.random.default_rng(88)
    nets = [random_net(rng) for _ in range(15)]
    for k in (8, 11, 16):
        for ties in (False, True):
            t = random_table(rng, k, (4, 3), ties=ties)
            roots = [Cpt.of(p, ls, (), (), [ProbVec(ls, (1.0 / len(ls),)
                                                    * len(ls))])
                     for p, ls in zip(t.parents, t.parent_levels)]
            variables = [Variable(c.child, c.child_levels)
                         for c in roots + [t]]
            nets.append(BayesNet.of(variables, roots + [t]))
    return nets


def test_advisor_costs_equal_scalar_loops_bit_for_bit():
    for net in _differential_nets():
        for v in net.variables:
            if len(v.levels) >= 2:
                assert sorted(amalgamation_suggest(net, v.name),
                              key=lambda pc: pc[0]) == \
                    sorted(scalar_pair_costs(net, v.name),
                           key=lambda pc: pc[0])
                group = v.levels[:max(2, len(v.levels) - 1)]
                merged_net, costs = amalgamate_levels(net, v.name, group)
                to_new = {lv: "+".join(group) if lv in group else lv
                          for lv in v.levels}
                for child, cost in costs.items():
                    t = net.cpt(child)
                    assert cost == scalar_counterpart_cost(
                        t, merged_net.cpt(child), t.parents.index(v.name),
                        to_new)
                # the variable's own columns are summed left to right
                summed = []
                for row in net.cpt(v.name).rows:
                    acc = dict.fromkeys(to_new.values(), 0.0)
                    for lv, x in zip(row.levels, row.mass):
                        acc[to_new[lv]] += x
                    summed.append(tuple(acc.values()))
                assert [r.mass for r in merged_net.cpt(v.name).rows] == summed
        for parent, child in net.edges():
            t = net.cpt(child)
            j = t.parents.index(parent)
            new, cost = delete_edge(net, parent, child)
            assert [r.mass for r in new.cpt(child).rows] == \
                scalar_collapse_parent(t, j)
            assert cost == scalar_delete_edge_cost(t, j, new.cpt(child))


def _flat_middle_chain() -> BayesNet:
    """A -> B -> C where B's rows are identical, so A cannot move C."""
    tf = ("t", "f")
    return BayesNet.of(
        tuple(Variable(n, tf) for n in "ABC"),
        (Cpt.of("A", tf, (), (), (ProbVec(tf, (0.3, 0.7)),)),
         Cpt.of("B", tf, ("A",), (tf,),
                (ProbVec(tf, (0.4, 0.6)), ProbVec(tf, (0.4, 0.6)))),
         Cpt.of("C", tf, ("B",), (tf,),
                (ProbVec(tf, (0.1, 0.9)), ProbVec(tf, (0.8, 0.2))))))


def test_priority_equals_per_variable_composition(ten_node):
    """The one reverse pass gives the same records, every score within
    1e-12, as the plain enumeration of each variable's directed paths to
    the first target they meet."""
    rng = np.random.default_rng(2024)
    cases = [(ten_node, ("X9",)), (ten_node, ("X7", "X9")),
             (ten_node, ("X3",)), (ten_node, ("X1", "X9")),
             (ten_node, ("X4", "X9")), (_flat_middle_chain(), ("C",))]
    for _ in range(12):
        net = random_net(rng, 6, 16)
        names = net.names()
        cases.append((net, (names[int(rng.integers(len(names)))],)))
        # a child with one of its parents: paths stop at the parent
        child = next(v for v in reversed(names) if net.parents_of(v))
        cases.append((net, (child, net.parents_of(child)[0])))
    # larger nets, where most variables are not ancestors of the target
    outside = inside = 0
    for _ in range(8):
        net = random_net(rng, 30, 60)
        names = net.names()
        target = names[int(rng.integers(len(names)))]
        cases.append((net, (target,)))
        kept = len(ancestral_set(net, {target}))
        inside += kept
        outside += len(names) - kept
    assert outside > inside
    notes = set()
    for net, targets in cases:
        got = elicitation_priority(net, targets)
        want = reference_priority(net, targets)
        assert [(r.variable, r.note) for r in got] == \
            [(r.variable, r.note) for r in want]
        for g, w in zip(got, want):
            assert abs(g.score - w.score) <= 1e-12
        notes |= {r.note for r in got}
    # every kind of record shows up: scored, a target, not an ancestor
    # and a path across a table with identical rows
    assert notes == {"", "a target", "not an ancestor of the target",
                     "no influence path to the target"}
    flat = {r.variable: r for r in
            elicitation_priority(_flat_middle_chain(), ("C",))}
    assert flat["A"] == PriorityRecord("A", 0.0,
                                       "no influence path to the target")


def test_amalgamate_rejects_a_merged_name_that_is_already_a_level():
    levels = ("a", "b", "a+b")
    net = BayesNet.of(
        (Variable("X", levels), Variable("Y", ("t", "f"))),
        (Cpt.of("X", levels, (), (), (ProbVec(levels, (0.2, 0.3, 0.5)),)),
         Cpt.of("Y", ("t", "f"), ("X",), (levels,),
                tuple(ProbVec(("t", "f"), (p, 1.0 - p))
                      for p in (0.1, 0.4, 0.8)))))
    for nominal in (False, True):
        with pytest.raises(DomainError, match="'a\\+b' is already a level"):
            amalgamate_levels(net, "X", ("a", "b"),
                              allow_nonconsecutive=nominal)
    # merging the colliding level itself stays allowed
    new, _ = amalgamate_levels(net, "X", ("b", "a+b"))
    assert new.variable("X").levels == ("a", "b+a+b")
    assert validate(new) == []


# Nets from parse_model and BayesNet.of are validated once; every other
# net is validated by the first function that needs a valid one.

CONSUMERS = {
    "edge_deletion_report": edge_deletion_report,
    "elicitation_priority":
        lambda net: elicitation_priority(net, ["TreeCondition"]),
    "joint_mass": joint_mass,
}


@pytest.mark.parametrize("name", CONSUMERS)
def test_marked_nets_skip_validation_and_others_do_not(name, fragment,
                                                       monkeypatch):
    consume = CONSUMERS[name]
    unmarked = [
        BayesNet(fragment.variables, fragment.cpts),
        delete_edge(fragment, "Drought", "TreeCondition")[0],
        amalgamate_levels(fragment, "Rainfall",
                          ["average", "above average"])[0],
    ]
    marked = BayesNet.of(fragment.variables, fragment.cpts)
    calls = count_validate(monkeypatch)
    consume(fragment)
    consume(marked)
    assert calls == []
    for net in unmarked:
        consume(net)
    assert [id(net) for net in calls] == [id(net) for net in unmarked]


@pytest.mark.parametrize("name", CONSUMERS)
def test_invalid_nets_raise_the_per_row_reference_message(name, fragment):
    consume = CONSUMERS[name]
    bad_rain = Cpt("Rainfall", RAINFALL_LEVELS, (), (),
                   [ProbVec(RAINFALL_LEVELS, (0.2, 0.7, 0.2))])
    bad = BayesNet(fragment.variables,
                   (fragment.cpts[0], bad_rain, fragment.cpts[2]))
    parsed, _ = parse_model(serialize_model(bad), strict=False)
    # edits of the good tables keep the bad one
    for net in (bad, parsed, delete_edge(bad, "Drought", "TreeCondition")[0],
                amalgamate_levels(bad, "Drought", ["yes", "no"])[0]):
        want = "invalid network: " + "; ".join(reference_validate(net))
        assert "Rainfall: row 0: mass sums to" in want
        with pytest.raises(DomainError) as err:
            consume(net)
        assert str(err.value) == want


def test_ancestral_joint_of_a_marked_net_is_not_validated(fragment,
                                                          monkeypatch):
    hand_built = BayesNet(fragment.variables, fragment.cpts)
    calls = count_validate(monkeypatch)
    want = marginal(fragment, ["TreeCondition"])
    assert calls == []
    got = marginal(hand_built, ["TreeCondition"])
    assert len(calls) == 1
    assert np.array_equal(got.mass, want.mass)
