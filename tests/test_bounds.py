import itertools
import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tvrobust import (
    BayesNet,
    CliquePath,
    Cpt,
    DomainError,
    ProbVec,
    ResourceLimitError,
    Variable,
    ancestral_set,
    build_junction_tree,
    diameter,
    donor_target_path,
    elicitation_priority,
    marginal,
    mix,
    moralize,
    overlap_decompose,
    path_factor_specs,
    path_impact,
    propagate_bound,
    run_cli,
    serialize_model,
    simple_path,
    table_tv,
    transition_table,
    tv_distance,
)
from tvrobust import bn_model, bounds, exact_oracle
from tvrobust.exact_oracle import _ancestral_joint, _factor_table
from tvrobust.tv_core import _pair_scan

from conftest import (
    Q_ROWS,
    TESTS_DIR,
    chain_diameter_bound,
    chain_net,
    diameter_sum_bound,
    joint_perturb_bound,
    joint_tv_bound,
    random_net,
    random_vector,
    reference_diameter,
    reference_transition_table,
    shuffle_parents,
    subgraph,
    tree_cpt,
)

# masses over the six (Drought, Rainfall) parent configurations in the
# fragment and in the variant elicitation
PI1 = (0.05, 0.175, 0.025, 0.15, 0.525, 0.075)
PI2 = (0.05, 0.275, 0.03, 0.15, 0.4, 0.095)

CONFIG_LEVELS = ("yes,below", "yes,avg", "yes,above",
                 "no,below", "no,avg", "no,above")


def _pi(mass):
    return ProbVec(CONFIG_LEVELS, tuple(mass))


def test_propagate_bound_worked_example():
    # two parent-configuration margins at TV 0.125 pushed through the table
    d_pi = tv_distance(_pi(PI1), _pi(PI2))
    assert abs(d_pi - 0.125) <= 1e-12
    t = tree_cpt()
    assert abs(propagate_bound(d_pi, t) - 0.7 * 0.125) <= 1e-12
    rho1 = mix(PI1, list(t.rows))
    rho2 = mix(PI2, list(t.rows))
    moved = tv_distance(rho1, rho2)
    assert abs(moved - 0.0555) <= 1e-12
    assert moved <= propagate_bound(d_pi, t) + 1e-15


def test_propagate_bound_dominates_mixture_moves():
    rng = np.random.default_rng(17)
    t = tree_cpt()
    rows_yes = t.rows[:3]
    for _ in range(200):
        p1 = random_vector(rng, 3)
        p2 = random_vector(rng, 3)
        m1 = mix(p1.mass, list(rows_yes))
        m2 = mix(p2.mass, list(rows_yes))
        moved = tv_distance(m1, m2)
        assert moved <= propagate_bound(tv_distance(p1, p2), t) + 1e-12


def test_propagate_bound_rejects_out_of_range():
    t = tree_cpt()
    with pytest.raises(DomainError):
        propagate_bound(1.5, t)
    with pytest.raises(DomainError):
        propagate_bound(-0.1, t)


def test_joint_perturb_bound_worked_example():
    p, q = tree_cpt(), tree_cpt(Q_ROWS)
    d_pi = 0.125
    # tv_plus 0.1, superbound 0.7: star form 0.1 + 0.125 * 0.7 = 0.1875
    got = joint_perturb_bound(d_pi, p, q)
    assert got <= 0.1875 + 1e-12
    assert abs(got - min(0.1875, 1.125 * 0.1 + 0.125 * 0.7)) <= 1e-12


def test_joint_perturb_bound_zero_cases():
    p = tree_cpt()
    assert joint_perturb_bound(0.0, p, p) == 0.0
    assert joint_perturb_bound(1.0, p, p) <= diameter(p) + 1e-12


def test_joint_tv_bound_clamps():
    assert joint_tv_bound(0.3, 0.2) == 0.5
    assert joint_tv_bound(0.9, 0.9) == 1.0
    with pytest.raises(DomainError):
        joint_tv_bound(1.2, 0.0)


def test_chain_diameter_bound():
    assert chain_diameter_bound(0.3, 0.4) == pytest.approx(0.7)
    assert chain_diameter_bound(0.8, 0.9) == 1.0
    with pytest.raises(DomainError):
        chain_diameter_bound(-0.2, 0.5)


def test_diameter_sum_bound_worked_example():
    t = tree_cpt()
    # per-parent diameters 0.6 and 0.2
    assert abs(diameter_sum_bound(t) - 0.8) <= 1e-12
    assert diameter(t) <= diameter_sum_bound(t)


def test_diameter_sum_bound_clamps_to_one():
    rows = [ProbVec(("x", "y"), (1.0, 0.0)), ProbVec(("x", "y"), (0.0, 1.0)),
            ProbVec(("x", "y"), (0.0, 1.0)), ProbVec(("x", "y"), (1.0, 0.0))]
    t = tree_cpt()
    xor = Cpt.of("C", ("x", "y"), ("A", "B"), (("t", "f"), ("t", "f")), rows)
    assert diameter_sum_bound(xor) == 1.0
    assert diameter_sum_bound(t) <= 1.0


def test_overlap_decompose_reconstructs():
    p1 = ProbVec(("a", "b", "c"), (0.5, 0.3, 0.2))
    p2 = ProbVec(("a", "b", "c"), (0.2, 0.5, 0.3))
    dec = overlap_decompose(p1, p2)
    d = tv_distance(p1, p2)
    assert abs(dec.beta - (1.0 - d)) <= 1e-15
    for orig, resid in ((p1, dec.residual_1), (p2, dec.residual_2)):
        rebuilt = tuple(dec.beta * c + (1.0 - dec.beta) * r
                        for c, r in zip(dec.common.mass, resid.mass))
        assert np.allclose(rebuilt, orig.mass, atol=1e-12)


def test_overlap_decompose_identical_and_disjoint():
    p = ProbVec(("a", "b"), (0.4, 0.6))
    dec = overlap_decompose(p, p)
    assert dec.beta == 1.0
    assert dec.common.mass == p.mass
    q1 = ProbVec(("a", "b"), (1.0, 0.0))
    q2 = ProbVec(("a", "b"), (0.0, 1.0))
    dec2 = overlap_decompose(q1, q2)
    assert dec2.beta == 0.0
    assert dec2.residual_1.mass == q1.mass
    assert dec2.residual_2.mass == q2.mass
    with pytest.raises(DomainError):
        overlap_decompose(p, ProbVec(("a", "c"), (0.4, 0.6)))


def _assert_decomposes(p, q):
    """beta is 1 - tv_distance exactly and each input rebuilds from the
    parts within 1e-12."""
    dec = overlap_decompose(p, q)
    assert dec.beta == 1.0 - tv_distance(p, q)
    for orig, resid in ((p, dec.residual_1), (q, dec.residual_2)):
        rebuilt = tuple(dec.beta * c + (1.0 - dec.beta) * r
                        for c, r in zip(dec.common.mass, resid.mass))
        assert max(abs(a - b) for a, b in zip(rebuilt, orig.mass)) <= 1e-12


@pytest.mark.parametrize("p, q", [
    ((0.3, 0.7), (0.300000001, 0.699999999)),
    ((0.999999999, 1e-9), (1e-9, 0.999999999)),
])
def test_overlap_decompose_near_equal_and_near_disjoint(p, q):
    _assert_decomposes(ProbVec.of(("a", "b"), p), ProbVec.of(("a", "b"), q))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5), st.floats(-15.0, -6.0),
       st.booleans())
def test_overlap_decompose_at_tiny_distance_or_overlap(seed, k, exponent,
                                                       disjoint):
    """Pairs at TV distance eps, or sharing about eps of their mass, for
    eps from 1e-15 to 1e-6."""
    rng = np.random.default_rng(seed)
    eps = 10.0 ** exponent
    levels = tuple(f"l{j}" for j in range(k))
    if disjoint:
        # p holds 1 - eps below level h and eps from it on; q the reverse
        h = int(rng.integers(1, k))
        p, q = (np.concatenate([
            w * np.array(random_vector(rng, h).mass),
            (1 - w) * np.array(random_vector(rng, k - h).mass)])
            for w in (1 - eps, eps))
    else:
        # eps of p's mass moves from level i to level j
        p = np.array(random_vector(rng, k).mass)
        i, j = rng.choice(k, size=2, replace=False)
        q = p.copy()
        q[i] -= eps
        q[j] += eps
    _assert_decomposes(ProbVec.of(levels, p), ProbVec.of(levels, q))


def test_overlap_decompose_when_one_input_lies_below_the_other():
    """Within the row-sum tolerance one input can sit at or below the
    other everywhere; it has no mass of its own, and its residual is the
    common part."""
    p = ProbVec.of(("a", "b"), (0.3, 0.7))
    q = ProbVec.of(("a", "b"), (0.3, 0.7000000001))
    dec = overlap_decompose(p, q)
    assert dec.beta == 1.0 - tv_distance(p, q)
    assert dec.residual_1 == dec.common
    assert dec.residual_2.mass == (0.0, 1.0)


def test_path_impact_single_clique_is_one(fragment):
    _, path = donor_target_path(fragment, {"Drought"}, {"TreeCondition"})
    assert len(path.cliques) == 1
    for mode in ("exact", "bound"):
        r = path_impact(fragment, path, mode=mode)
        assert r.value == 1.0
        assert r.certificate[0].provenance == "convention"


def test_path_impact_rejects_unknown_mode(fragment):
    _, path = donor_target_path(fragment, {"Drought"}, {"TreeCondition"})
    with pytest.raises(DomainError):
        path_impact(fragment, path, mode="fast")


def test_path_impact_empty_separator_is_zero(ten_node):
    path = CliquePath((("X1", "X2"), ("X7", "X9")), ((),))
    r = path_impact(ten_node, path, mode="bound")
    assert r.value == 0.0
    assert any(f.value == 0.0 for f in r.certificate)
    r2 = path_impact(ten_node, path, mode="exact")
    assert r2.value == 0.0


def test_path_impact_demo_bound_factors(ten_node):
    _, path = donor_target_path(ten_node, {"X1", "X2"}, {"X7", "X9"})
    r = path_impact(ten_node, path, mode="bound")
    assert r.mode == "bound"
    assert len(r.certificate) == 5
    expected = 1.0
    for name in ("X2", "X4", "X5", "X7", "X9"):
        expected *= diameter(ten_node.cpt(name))
    assert abs(r.value - expected) <= 1e-12


def test_path_impact_exact_below_bound(ten_node):
    _, path = donor_target_path(ten_node, {"X1", "X2"}, {"X7", "X9"})
    exact = path_impact(ten_node, path, mode="exact")
    bound = path_impact(ten_node, path, mode="bound")
    assert exact.value <= bound.value + 1e-12
    for f in exact.certificate:
        assert f.provenance == "oracle"
        assert 0.0 <= f.value <= 1.0


def _assert_exact_matches_reference(net, donor, target):
    """Exact factors equal the diameters of the per-configuration
    reference tables built on the full-net joint."""
    _, path = donor_target_path(net, donor, target)
    r = path_impact(net, path, mode="exact")
    specs = path_factor_specs(path)
    if not specs:
        assert r.value == 1.0
        return
    assert len(r.certificate) == len(specs)
    want = 1.0
    for f, (outputs, given) in zip(r.certificate, specs):
        d = 0.0
        if outputs:
            t = reference_transition_table(net, outputs, given)
            d = reference_diameter([row.mass for row in t.rows])
        assert abs(f.value - d) <= 1e-12
        want *= d
    assert abs(r.value - want) <= 1e-12


def test_exact_impact_matches_full_joint_reference(ten_node):
    for donor, target in (({"X1"}, {"X9"}), ({"X1", "X2"}, {"X7", "X9"}),
                          ({"X10"}, {"X8"}), ({"X9"}, {"X1"})):
        _assert_exact_matches_reference(ten_node, donor, target)


def test_exact_impact_matches_reference_on_random_nets():
    rng = np.random.default_rng(5)
    for _ in range(30):
        net = random_net(rng)
        names = [v.name for v in net.variables]
        donor, target = str(rng.choice(names)), str(rng.choice(names))
        _assert_exact_matches_reference(net, {donor}, {target})


def test_exact_impact_respects_limit(ten_node, capsys, monkeypatch):
    _, path = donor_target_path(ten_node, {"X1"}, {"X9"})
    with pytest.raises(ResourceLimitError):
        path_impact(ten_node, path, mode="exact", limit=2)
    monkeypatch.chdir(TESTS_DIR)
    argv = ["impact", "models/ten_node_demo.json", "--from", "X1",
            "--to", "X9", "--mode", "exact", "--limit", "2"]
    assert run_cli(argv) == 1
    assert "limit is 2" in capsys.readouterr().err


def test_bound_mode_conditioning_on_descendant_is_a_gap(ten_node):
    # a factor P(X5 | X6) conditions X5's bound on its own descendant
    path = CliquePath((("X5", "X6"), ("X4", "X5")), (("X5",),))
    with pytest.raises(DomainError):
        path_impact(ten_node, path, mode="bound")


def test_bound_mode_output_in_conditioning_contributes_one(ten_node):
    # X7 sits in two consecutive separators, so the interior factor
    # P(X7 | X6, X7) is an identity and must contribute a term of 1
    path = CliquePath(
        (("X5", "X6", "X7"), ("X6", "X7", "X8"), ("X7", "X9")),
        (("X6", "X7"), ("X7",)))
    r = path_impact(ten_node, path, mode="bound")
    interior = r.certificate[1]
    assert interior.value == 1.0
    assert any("fixed by conditioning set" in t for t in interior.terms)


def _priced_on_the_whole_net(net, path):
    """Bound ``path_impact`` with its pricer built on all of ``net``: the
    result, or the text of the DomainError it raises."""
    try:
        return bounds._impact_product(path_factor_specs(path),
                                      bounds._bound_pricer(net), "bound")
    except DomainError as e:
        return str(e)


def _priced_on_the_path(net, path):
    try:
        return path_impact(net, path, "bound")
    except DomainError as e:
        return str(e)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 99), st.integers(0, 99))
def test_bound_impact_on_the_ancestral_subnet_equals_the_whole_net(seed, a, b):
    """Value and certificate, or the gap's message, are those of a pricer
    built on the whole net, for the donor-to-target path and for a path
    between two cliques of the whole net's tree, which may condition a
    variable on its descendants."""
    rng = np.random.default_rng(seed)
    net = shuffle_parents(random_net(rng, 5, 14), rng)
    names = net.names()
    _, path = donor_target_path(net, {names[a % len(names)]},
                                {names[b % len(names)]})
    whole = build_junction_tree(moralize(net))
    cliques = whole.cliques
    paths = [path, simple_path(whole, cliques[a % len(cliques)],
                               cliques[b % len(cliques)])]
    for path in paths:
        assert (_priced_on_the_path(net, path)
                == _priced_on_the_whole_net(net, path))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 99), st.integers(0, 99))
def test_bound_impact_is_the_same_with_or_without_the_tree(seed, a, b):
    """Given the tree ``donor_target_path`` returned, bound mode prices
    on the ancestral subnet of its cliques, and otherwise on that of the
    path's; value and certificate, or the gap's message, agree."""
    rng = np.random.default_rng(seed)
    net = shuffle_parents(random_net(rng, 5, 14), rng)
    names = net.names()
    tree, path = donor_target_path(net, {names[a % len(names)]},
                                   {names[b % len(names)]})
    try:
        with_tree = path_impact(net, path, "bound", tree=tree)
    except DomainError as e:
        with_tree = str(e)
    assert with_tree == _priced_on_the_path(net, path)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 99), st.integers(0, 99),
       st.integers(0, 99), st.integers(1, 2), st.integers(1, 2))
# on the whole net's moral graph restricted to the ancestral set, these
# printed a one-clique 1 and rounding noise
@example(0, 0, 2, 0, 1, 1)
@example(0, 1, 1, 0, 1, 1)
# joined donor and target sets whose end separators would hold a member;
# unrefused, exact mode would print about 4e-17 against a δ of 0.56
@example(0, 0, 0, 1, 2, 1)
@example(0, 0, 0, 1, 1, 2)
# joined sets that keep out of their end separators, on paths of 2+ cliques
@example(0, 4, 0, 1, 2, 1)
@example(0, 5, 0, 0, 1, 2)
@example(2, 3, 0, 2, 2, 2)
def test_impact_against_the_dense_oracle(seed, a, b, c, k, m):
    """For a donor set D of k variables and a disjoint target set T of m
    variables, against δ(P(T | D)) from the dense oracle: an empty
    separator on the path means δ is 0, exact mode gives exactly 0
    wherever δ is 0, exact is at least δ, and exact never exceeds bound
    where bound mode answers.  A set the moral graph does not join is
    refused when its end separator holds one of its members.  Exact may
    fall below δ only where a set the moral graph joins has a member in
    its end separator, which the end factor prices as an output
    (ROADMAP item 1)."""
    rng = np.random.default_rng(seed)
    net = shuffle_parents(random_net(rng, 5, 9), rng)
    names = net.names()
    n = len(names)
    donor = [names[a % n]]
    target = [names[(a % n + 1 + b % (n - 1)) % n]]
    rest = [v for v in names if v not in donor + target]
    rest = rest[c % len(rest):] + rest[:c % len(rest)]
    donor += rest[:k - 1]
    target += rest[k - 1:k + m - 2]
    dense = diameter(transition_table(net, target, donor))
    try:
        tree, path = donor_target_path(net, donor, target)
    except DomainError as e:
        assert "which the moral graph does not join, meets the" in str(e)
        return
    exact = path_impact(net, path, "exact", tree=tree).value
    if not all(path.separators):
        assert dense <= 1e-12
    if dense <= 1e-12:
        assert exact == 0.0
    near = moralize(bn_model._ancestral_subnet(net, donor + target))
    near = near.neighbors()

    def mispriced(members, sep) -> bool:
        # a member in its end separator, of a set the moral graph joins
        return bool(set(members) & set(sep)) and all(
            v in near[u] for u, v in itertools.combinations(members, 2))

    if not path.separators or not (mispriced(donor, path.separators[0])
                                   or mispriced(target, path.separators[-1])):
        assert exact >= dense - 1e-12
    try:
        bound = path_impact(net, path, "bound").value
    except DomainError:
        return
    assert exact <= bound + 1e-12


def test_exact_impact_needs_a_tree_that_holds_every_path_clique(ten_node):
    # the completed donor set {X4, X6} shares a clique only in the tree
    # of its own query, not in the whole net's tree
    _, path = donor_target_path(ten_node, {"X4", "X6"}, {"X9"})
    whole = build_junction_tree(moralize(ten_node))
    with pytest.raises(DomainError, match=r"^no clique of the tree holds "
                                          r"\['X4', 'X5', 'X6'\]$"):
        path_impact(ten_node, path, "exact", tree=whole)


def test_each_bound_pricer_sorts_the_net_once(ten_node, monkeypatch):
    """A bound query on a parsed net, which is already validated, runs
    ``topological_order`` once, wherever the library binds the name."""
    calls = []
    real = bn_model.topological_order
    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "tvrobust"
                and getattr(module, "topological_order", None) is real):
            monkeypatch.setattr(module, "topological_order",
                                lambda net: calls.append(net) or real(net))
    _, path = donor_target_path(ten_node, {"X1"}, {"X9"})
    assert len(path.cliques) > 1
    path_impact(ten_node, path, "bound")
    assert len(calls) == 1
    calls.clear()
    elicitation_priority(ten_node, ["X9"])
    assert len(calls) == 1


def test_bound_impact_prices_on_no_more_than_the_ancestral_set(
        ten_node, monkeypatch):
    sizes = []
    descendants = bounds.descendants_map
    monkeypatch.setattr(bounds, "descendants_map",
                        lambda net: sizes.append(len(net.variables))
                        or descendants(net))
    rng = np.random.default_rng(17)
    cases = [(ten_node, "X1", "X5"), (ten_node, "X3", "X9")]
    cases += [(net, f"V{d}", "V39")
              for net in (random_net(rng, 40, 40) for _ in range(3))
              for d in (0, 7, 21)]
    for net, donor, target in cases:
        _, path = donor_target_path(net, {donor}, {target})
        sizes.clear()
        try:
            path_impact(net, path, "bound")
        except DomainError:
            pass  # a gap is found after the pricer is built
        assert len(sizes) == (len(path.cliques) > 1)
        assert all(n <= len(ancestral_set(net, {donor, target}))
                   for n in sizes)
    # the same on the command line
    monkeypatch.chdir(TESTS_DIR)
    sizes.clear()
    assert run_cli(["impact", "models/ten_node_demo.json", "--from", "X1",
                    "--to", "X5", "--mode", "bound"]) == 0
    assert sizes == [5]


@pytest.mark.parametrize("mode", ("exact", "bound"))
@pytest.mark.parametrize("path", (
    CliquePath((("X1", "ZZ"), ("ZZ", "X2")), (("ZZ",),)),
    CliquePath((("X1", "ZZ"),), ())))
def test_path_impact_names_an_unknown_path_variable(ten_node, mode, path):
    with pytest.raises(DomainError, match="^unknown variable 'ZZ'$"):
        path_impact(ten_node, path, mode)


@pytest.mark.parametrize("mode", ("exact", "bound"))
@pytest.mark.parametrize("path,step,separator", [
    # X9 lies in neither clique, so a factor would price it
    (CliquePath((("X1", "X2"), ("X2", "X3", "X4")), (("X9",),)), 1, "X9"),
    # a separator wider than the intersection
    (CliquePath((("X1", "X2"), ("X2", "X3", "X4")), (("X2", "X9"),)), 1,
     "X2, X9"),
    (CliquePath((("X1", "X2"), ("X2", "X3", "X4"), ("X4", "X5")),
                (("X2",), ("X3",))), 2, "X3"),
], ids=["outside_both", "wider", "second_step"])
def test_path_impact_rejects_a_separator_that_is_no_clique_intersection(
        ten_node, mode, path, step, separator):
    message = (f"separator {{{separator}}} of step {step} is not the "
               "intersection of its cliques")
    for call in (lambda: path_factor_specs(path),
                 lambda: path_impact(ten_node, path, mode)):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == message


@pytest.mark.parametrize("mode", ("exact", "bound"))
@pytest.mark.parametrize("path,step,inner,outer", [
    # the last factor would have no outputs and be priced 0 as an
    # "empty separator", while delta(P(X2 | X1)) is 0.5078
    (CliquePath((("X1", "X2"), ("X2",)), (("X2",),)), 1, "X2", "X1, X2"),
    (CliquePath((("X2",), ("X1", "X2")), (("X2",),)), 1, "X2", "X1, X2"),
    (CliquePath((("X1", "X2"), ("X2", "X3", "X4"), ("X2", "X3")),
                (("X2",), ("X2", "X3"))), 2, "X2, X3", "X2, X3, X4"),
], ids=["last_inside", "first_inside", "second_step"])
def test_path_impact_rejects_a_clique_inside_its_neighbour(
        ten_node, mode, path, step, inner, outer):
    message = f"clique {{{inner}}} of step {step} lies inside {{{outer}}}"
    for call in (lambda: path_factor_specs(path),
                 lambda: path_impact(ten_node, path, mode)):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == message


def test_impact_certifies_donor_to_target_attenuation(ten_node):
    """The impact product really caps margin movement along the path.

    Replace the donor clique's CPT rows, push both nets through the
    oracle, and compare the target margin shift against impact times
    the donor margin shift.
    """
    rng = np.random.default_rng(29)
    donor, target = {"X1"}, {"X9"}
    _, path = donor_target_path(ten_node, donor, target)
    impact = path_impact(ten_node, path, mode="exact").value
    for _ in range(20):
        t0 = ten_node.cpt("X1")
        new_rows = tuple(ProbVec(t0.child_levels, random_vector(rng, 2).mass)
                         for _ in t0.rows)
        new_cpt = Cpt(t0.child, t0.child_levels, t0.parents,
                      t0.parent_levels, new_rows)
        cpts = tuple(new_cpt if c.child == "X1" else c
                     for c in ten_node.cpts)
        moved = BayesNet(ten_node.variables, cpts)
        d_donor = table_tv(marginal(ten_node, donor), marginal(moved, donor))
        d_target = table_tv(marginal(ten_node, target),
                            marginal(moved, target))
        assert d_target <= impact * d_donor + 1e-10


# Exact mode reads each factor off a calibrated clique marginal; these
# tests hold it to the dense joint of the path's ancestral set.

def _dense_factor_values(net, path):
    joint = _ancestral_joint(net, {v for c in path.cliques for v in c})
    return [_pair_scan(_factor_table(net, joint, outputs, given))[0]
            if outputs else 0.0
            for outputs, given in path_factor_specs(path)]


def _assert_calibrated_matches_dense(net, donor, target):
    """Factors with the path's tree and without it equal the dense
    reference within 1e-12, and exact stays at or below bound."""
    tree, path = donor_target_path(net, donor, target)
    with_tree = path_impact(net, path, "exact", tree=tree)
    bare = path_impact(net, path, "exact")
    want = _dense_factor_values(net, path)
    for r in (with_tree, bare):
        if not want:
            assert r.value == 1.0
            continue
        assert len(r.certificate) == len(want)
        for f, d in zip(r.certificate, want):
            assert abs(f.value - d) <= 1e-12
    assert abs(with_tree.value - bare.value) <= 1e-12
    try:
        bound = path_impact(net, path, "bound").value
    except DomainError:
        return
    assert with_tree.value <= bound + 1e-12


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 99), st.integers(0, 99))
def test_calibrated_factors_match_dense_joint_on_random_nets(seed, d, t):
    rng = np.random.default_rng(seed)
    net = random_net(rng, 4, 10)
    names = net.names()
    for n in (net, shuffle_parents(net, rng)):
        _assert_calibrated_matches_dense(n, {names[d % len(names)]},
                                         {names[t % len(names)]})


def test_calibrated_factors_match_dense_joint_on_ten_node(ten_node):
    names = ten_node.names()
    for donor in names:
        for target in names:
            _assert_calibrated_matches_dense(ten_node, {donor}, {target})
    _assert_calibrated_matches_dense(ten_node, {"X1", "X2"}, {"X7", "X9"})


@pytest.mark.parametrize("n", (11, 12, 13))
def test_calibrated_factors_match_dense_joint_on_chains(n):
    net = chain_net(np.random.default_rng(n), n)
    for d in range(1, n):
        _assert_calibrated_matches_dense(net, {f"X{d}"}, {f"X{n}"})


def _shared_factors(net, donor, target) -> list[float]:
    """Check each exact factor whose outputs share a variable of two or
    more levels with its conditioning set: path_impact prices it 1.0, and
    its dense table's diameter is within 4e-16 of 1; returns those
    diameters."""
    tree, path = donor_target_path(net, donor, target)
    joint = _ancestral_joint(net, {v for c in path.cliques for v in c})
    results = [path_impact(net, path, "exact", tree=tree),
               path_impact(net, path, "exact")]
    shared = []
    for i, (outputs, given) in enumerate(path_factor_specs(path)):
        if not any(len(net.variable(n).levels) > 1
                   for n in set(outputs) & set(given)):
            continue
        dense = _pair_scan(_factor_table(net, joint, outputs, given))[0]
        assert abs(dense - 1.0) <= 4e-16
        assert [r.certificate[i].value for r in results] == [1.0, 1.0]
        shared.append(dense)
    return shared


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 99), st.integers(0, 99))
def test_factors_sharing_a_variable_are_exactly_one(seed, d, t):
    rng = np.random.default_rng(seed)
    net = random_net(rng, 4, 10)
    names = net.names()
    for n in (net, shuffle_parents(net, rng)):
        _shared_factors(n, {names[d % len(names)]}, {names[t % len(names)]})


def test_chain_factors_sharing_a_variable_are_exactly_one():
    # each interior step of a two-parent chain shares one variable; on
    # this chain rounding takes some dense diameters off 1
    net = chain_net(np.random.default_rng(31), 8)
    dense = [d for v in range(1, 8)
             for d in _shared_factors(net, {f"X{v}"}, {"X8"})]
    assert len(dense) >= 15
    assert any(d != 1.0 for d in dense)


def test_exact_impact_does_not_build_a_joint(ten_node, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("exact mode built a dense joint")
    monkeypatch.setattr(exact_oracle, "joint_mass", refuse)
    tree, path = donor_target_path(ten_node, {"X1"}, {"X9"})
    for r in (path_impact(ten_node, path, "exact", tree=tree),
              path_impact(ten_node, path, "exact")):
        assert 0.0 < r.value < 1.0


def test_exact_limit_caps_the_largest_clique_table(ten_node):
    # the ancestral set of X1 and X9 has 2^7 states, its largest clique 8
    tree, path = donor_target_path(ten_node, {"X1"}, {"X9"})
    with pytest.raises(ResourceLimitError) as err:
        path_impact(ten_node, path, "exact", limit=7, tree=tree)
    assert str(err.value) == ("clique table {X2, X3, X4} has 8 "
                              "configurations, limit is 7")
    capped = path_impact(ten_node, path, "exact", limit=8, tree=tree)
    assert capped == path_impact(ten_node, path, "exact", tree=tree)


def test_exact_limit_is_checked_on_a_single_clique_path(fragment):
    tree, path = donor_target_path(fragment, {"Drought"}, {"TreeCondition"})
    assert len(path.cliques) == 1
    for t in (tree, None):
        with pytest.raises(ResourceLimitError, match="has 18 configurations, "
                                                     "limit is 17"):
            path_impact(fragment, path, "exact", limit=17, tree=t)
        assert path_impact(fragment, path, "exact", limit=18,
                           tree=t).value == 1.0


def test_exact_mode_rejects_a_tree_without_the_parents(ten_node):
    tree, path = donor_target_path(ten_node, {"X4"}, {"X9"})
    # the same cliques as a tree over X4 onward: X4's parents are missing
    cut = build_junction_tree(subgraph(moralize(ten_node),
                                       {"X4", "X5", "X7", "X9"}))
    with pytest.raises(DomainError, match="family of"):
        path_impact(ten_node, path, "exact", tree=cut)


def test_cli_exact_impact_on_a_forty_variable_chain(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.delenv("TVROBUST_LIMIT", raising=False)
    model = tmp_path / "chain40.json"
    model.write_text(serialize_model(chain_net(np.random.default_rng(40),
                                               40)))
    values = {}
    for mode in ("exact", "bound"):
        argv = ["impact", str(model), "--from", "X1", "--to", "X40",
                "--mode", mode, "--json"]
        assert run_cli(argv) == 0
        values[mode] = json.loads(capsys.readouterr().out)["value"]
    assert 0.0 < values["exact"] <= values["bound"]


def test_cli_exact_limit_names_the_clique_table(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    argv = ["impact", "models/ten_node_demo.json", "--from", "X1",
            "--to", "X9", "--mode", "exact", "--limit", "7"]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == (
        "error: clique table {X2, X3, X4} has 8 configurations, "
        "limit is 7\n")


def _abcd_chain(rows) -> BayesNet:
    """Binary A -> B -> C -> D with the given rows per table."""
    levels = ("t", "f")
    names = ("A", "B", "C", "D")
    return BayesNet.of(
        [Variable(n, levels) for n in names],
        [Cpt.of(n, levels, names[i - 1:i], (levels,) * min(i, 1),
                [ProbVec(levels, r) for r in rows[n]])
         for i, n in enumerate(names)])


def test_cli_exact_impact_under_a_structural_zero(tmp_path, capsys):
    net = _abcd_chain({"A": [(1.0, 0.0)], "B": [(0.3, 0.7), (0.6, 0.4)],
                       "C": [(0.2, 0.8), (0.9, 0.1)],
                       "D": [(0.5, 0.5), (0.1, 0.9)]})
    model = tmp_path / "zero.json"
    model.write_text(serialize_model(net))
    argv = ["impact", str(model), "--from", "A", "--to", "D"]
    assert run_cli(argv + ["--mode", "exact"]) == 1
    assert capsys.readouterr().err == (
        "error: conditioning configuration has zero probability: A=f\n")
    assert run_cli(argv + ["--mode", "bound"]) == 0


def test_exact_impact_under_an_interior_structural_zero():
    # B=f has probability 0, so the factor P(C | B) has an empty row
    net = _abcd_chain({"A": [(0.4, 0.6)], "B": [(1.0, 0.0), (1.0, 0.0)],
                       "C": [(0.2, 0.8), (0.9, 0.1)],
                       "D": [(0.5, 0.5), (0.1, 0.9)]})
    tree, path = donor_target_path(net, {"A"}, {"D"})
    for t in (tree, None):
        with pytest.raises(DomainError, match="^conditioning configuration "
                                              "has zero probability: B=f$"):
            path_impact(net, path, "exact", tree=t)


def _two_parent_chain(levels=None, fixed=None) -> BayesNet:
    """X1..X5, each Xi with parents X(i-2) and X(i-1); binary unless
    ``levels`` names other levels, rows random and positive unless
    ``fixed`` gives them."""
    levels, fixed = levels or {}, fixed or {}
    rng = np.random.default_rng(5)
    names = ("X1", "X2", "X3", "X4", "X5")
    variables, cpts = [], []
    for i, n in enumerate(names):
        ps = names[max(0, i - 2):i]
        ls = levels.get(n, ("s0", "s1"))
        pl = tuple(levels.get(p, ("s0", "s1")) for p in ps)
        w = rng.uniform(0.05, 1.0, size=(int(np.prod([len(x) for x in pl])),
                                         len(ls)))
        w = np.array(fixed[n], dtype=np.float64) if n in fixed \
            else w / w.sum(axis=1, keepdims=True)
        variables.append(Variable(n, ls))
        cpts.append(Cpt.of(n, ls, ps, pl, w))
    return BayesNet.of(variables, cpts)


def test_a_shared_factor_keeps_the_zero_probability_check():
    # X3 copies X2, so (X2=s0, X3=s1) has probability 0; only the
    # interior factor P(X3, X4 | X2, X3), which shares X3, conditions on it
    net = _two_parent_chain(fixed={"X3": [(1.0, 0.0), (0.0, 1.0)] * 2})
    tree, path = donor_target_path(net, {"X1"}, {"X5"})
    specs = path_factor_specs(path)
    assert specs[1] == (("X3", "X4"), ("X2", "X3"))
    joint = _ancestral_joint(net, net.names())
    message = "^conditioning configuration has zero probability: X2=s0, X3=s1$"
    with pytest.raises(DomainError, match=message):
        _factor_table(net, joint, *specs[1])
    for t in (tree, None):
        with pytest.raises(DomainError, match=message):
            path_impact(net, path, "exact", tree=t)


def test_a_shared_variable_of_one_level_is_priced_from_its_table():
    net = _two_parent_chain(levels={"X3": ("only",)},
                            fixed={"X3": [(1.0,)] * 4})
    _, path = donor_target_path(net, {"X1"}, {"X5"})
    assert path_factor_specs(path)[1] == (("X3", "X4"), ("X2", "X3"))
    assert _shared_factors(net, {"X1"}, {"X5"}) == []
    _assert_calibrated_matches_dense(net, {"X1"}, {"X5"})
    assert path_impact(net, path, "exact").certificate[1].value < 1.0
