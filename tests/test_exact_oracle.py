import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tvrobust import (
    BayesNet,
    Cpt,
    DomainError,
    ProbVec,
    ResourceLimitError,
    Variable,
    joint_mass,
    marginal,
    marginal_of,
    state_limit,
    table_tv,
    transition_table,
    tv_distance,
)

from conftest import (P_ROWS, random_net, reference_configs,
                      reference_transition_table)

RHO1 = (0.65375, 0.28875, 0.0575)


def test_joint_total_is_one(fragment, ten_node):
    assert abs(joint_mass(fragment).mass.sum() - 1.0) <= 1e-12
    assert abs(joint_mass(ten_node).mass.sum() - 1.0) <= 1e-12


def test_joint_entry_matches_hand_product(fragment):
    joint = joint_mass(fragment)
    assert joint.scope == ("Drought", "Rainfall", "TreeCondition")
    assert joint.cards == (2, 3, 3)
    # (yes, below average, good): 0.25 * 0.2 * 0.2
    assert abs(joint.mass[0] - 0.01) <= 1e-15
    # (no, above average, dead): 0.75 * 0.1 * 0.01
    assert abs(joint.mass[17] - 0.75 * 0.1 * 0.01) <= 1e-15


def test_joint_rejects_invalid_net():
    bad = BayesNet(
        (Variable("A", ("t", "f")),),
        (Cpt("A", ("t", "f"), (), (), (ProbVec(("t", "f"), (0.5, 0.6)),)),))
    with pytest.raises(DomainError):
        joint_mass(bad)


def test_marginal_keeps_declaration_order(fragment):
    m = marginal(fragment, ("TreeCondition", "Drought"))
    assert m.scope == ("Drought", "TreeCondition")
    assert m.cards == (2, 3)
    assert abs(m.mass.sum() - 1.0) <= 1e-12


def test_marginal_of_fragment_matches_hand_values(fragment):
    rain = marginal(fragment, ("Rainfall",))
    assert np.allclose(rain.mass, (0.2, 0.7, 0.1), atol=1e-15)
    tree = marginal(fragment, ("TreeCondition",))
    assert np.allclose(tree.mass, RHO1, atol=1e-12)


def test_marginal_reads_the_ancestral_joint(ten_node):
    # X1 is a root: its margin needs 2 states, not the net's 1024
    m = marginal(ten_node, ["X1"], limit=4)
    assert m.scope == ("X1",)
    assert tuple(m.mass) == ten_node.cpt("X1").rows[0].mass
    with pytest.raises(ResourceLimitError):
        marginal(ten_node, ["X9"], limit=4)


def test_marginal_of_rejects_bad_scopes(fragment):
    joint = joint_mass(fragment)
    with pytest.raises(DomainError):
        marginal_of(joint, ("Pollinators",))
    with pytest.raises(DomainError):
        marginal_of(joint, ())


def test_transition_table_recovers_cpt(fragment):
    t = transition_table(fragment, ("TreeCondition",),
                         ("Rainfall", "Drought"))
    assert t.parents == ("Drought", "Rainfall")
    assert t.child_levels == ("good", "damaged", "dead")
    for row, expected in zip(t.rows, P_ROWS):
        assert np.allclose(row.mass, expected, atol=1e-12)


def test_transition_table_empty_given_is_marginal_row(fragment):
    t = transition_table(fragment, ("TreeCondition",), ())
    assert t.parents == ()
    assert len(t.rows) == 1
    assert np.allclose(t.rows[0].mass, RHO1, atol=1e-12)


def test_transition_table_overlap_is_indicator(fragment):
    t = transition_table(fragment, ("Rainfall",), ("Rainfall",))
    for i in range(3):
        expected = [0.0] * 3
        expected[i] = 1.0
        assert np.allclose(t.rows[i].mass, expected, atol=1e-15)


def test_transition_table_partial_overlap(fragment):
    t = transition_table(fragment, ("Drought", "Rainfall"), ("Rainfall",))
    assert t.child_levels == (
        "yes,below average", "yes,average", "yes,above average",
        "no,below average", "no,average", "no,above average")
    # row Rainfall=below average: all mass on the matching columns
    assert np.allclose(t.rows[0].mass, (0.25, 0, 0, 0.75, 0, 0), atol=1e-15)


def test_transition_table_rejects_zero_mass_row():
    net = BayesNet.of(
        (Variable("A", ("t", "f")), Variable("B", ("t", "f"))),
        (Cpt.of("A", ("t", "f"), (), (), (ProbVec(("t", "f"), (1.0, 0.0)),)),
         Cpt.of("B", ("t", "f"), ("A",), (("t", "f"),),
                (ProbVec(("t", "f"), (0.3, 0.7)),
                 ProbVec(("t", "f"), (0.6, 0.4))))))
    with pytest.raises(DomainError, match="zero probability: A=f"):
        transition_table(net, ("B",), ("A",))


def test_transition_table_rejects_empty_outputs(fragment):
    with pytest.raises(DomainError):
        transition_table(fragment, (), ("Drought",))


def test_state_limit_resolution():
    assert state_limit() == 2 ** 22
    assert state_limit(12) == 12
    with pytest.raises(DomainError):
        state_limit(0)


def test_explicit_limit_trips(ten_node):
    with pytest.raises(ResourceLimitError):
        joint_mass(ten_node, limit=100)
    # 2^10 states fit exactly
    assert joint_mass(ten_node, limit=1024).mass.sum() == pytest.approx(1.0)


def test_table_tv_basics(fragment, variant):
    a = marginal(fragment, ("TreeCondition",))
    assert table_tv(a, a) == 0.0
    b = marginal(variant, ("TreeCondition",))
    p = ProbVec(("good", "damaged", "dead"), tuple(float(x) for x in a.mass))
    q = ProbVec(("good", "damaged", "dead"), tuple(float(x) for x in b.mass))
    assert abs(table_tv(a, b) - tv_distance(p, q)) <= 1e-15
    with pytest.raises(DomainError):
        table_tv(a, marginal(fragment, ("Drought",)))


def test_marginals_commute_on_random_nets():
    """Marginalizing the joint equals marginalizing a larger marginal."""
    rng = np.random.default_rng(41)
    for _ in range(20):
        net = random_net(rng)
        names = [v.name for v in net.variables]
        joint = joint_mass(net)
        assert abs(joint.mass.sum() - 1.0) <= 1e-12
        sub = list(rng.choice(names, size=3, replace=False))
        mid = marginal_of(joint, sub)
        one = marginal_of(mid, sub[:1])
        direct = marginal(net, sub[:1])
        assert np.allclose(one.mass, direct.mass, atol=1e-12)


def test_transition_rows_are_stochastic_on_random_nets():
    rng = np.random.default_rng(42)
    for _ in range(10):
        net = random_net(rng)
        names = [v.name for v in net.variables]
        outs = [names[-1]]
        given = names[:2]
        t = transition_table(net, outs, given)
        for row in t.rows:
            assert abs(sum(row.mass) - 1.0) <= 1e-9
            assert min(row.mass) >= -1e-15


def test_transition_table_limit_counts_ancestral_states(ten_node):
    # the ancestral set of {X1, X2} has 4 states; the full net has 1024
    t = transition_table(ten_node, ("X2",), ("X1",), limit=4)
    assert np.allclose([r.mass for r in t.rows],
                       [r.mass for r in ten_node.cpt("X2").rows], atol=1e-12)
    with pytest.raises(ResourceLimitError):
        transition_table(ten_node, ("X2",), ("X1",), limit=3)


def _assert_matches_reference(net, outs, given):
    got = transition_table(net, outs, given)
    want = reference_transition_table(net, outs, given)
    assert (got.child, got.child_levels, got.parents, got.parent_levels) == (
        want.child, want.child_levels, want.parents, want.parent_levels)
    gap = np.abs(np.array([r.mass for r in got.rows])
                 - np.array([r.mass for r in want.rows]))
    assert gap.max() <= 1e-12


def test_transition_table_matches_scalar_reference_on_random_nets():
    """The vectorized kernel equals the per-configuration definition for
    disjoint, overlapping and nested sets, empty ``given`` and outputs
    of one to three variables."""
    rng = np.random.default_rng(43)
    for _ in range(25):
        net = random_net(rng)
        names = [v.name for v in net.variables]
        pick = [str(x) for x in rng.permutation(names)]
        _assert_matches_reference(net, pick[:1], ())
        _assert_matches_reference(net, pick[:2], ())
        _assert_matches_reference(net, pick[:1], pick[1:3])
        _assert_matches_reference(net, pick[:3], pick[3:5])
        _assert_matches_reference(net, pick[:2], pick[1:3])
        _assert_matches_reference(net, pick[:1], pick[:3])
        _assert_matches_reference(net, pick[:3], pick[:1])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(0, 3))
def test_multi_output_column_labels_equal_the_nested_loop(seed, n_out,
                                                          n_given):
    """Each column of a table over several outputs is labelled by one
    configuration of them, first output most significant, in the order
    nested loops over their levels give."""
    rng = np.random.default_rng(seed)
    net = random_net(rng, 5, 7)
    pick = [str(x) for x in rng.permutation(net.names())]
    outs = pick[:n_out]
    t = transition_table(net, outs, pick[n_out - 1:n_out - 1 + n_given])
    want = reference_configs(net, net.sorted_by_position(outs))
    assert t.child_levels == tuple(",".join(c) for c in want)
