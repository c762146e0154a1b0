import collections
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tvrobust import (
    BayesNet,
    CliquePath,
    Cpt,
    DomainError,
    JunctionTree,
    UGraph,
    Variable,
    ancestral_set,
    build_junction_tree,
    diameter,
    donor_target_path,
    impact,
    is_chordal,
    maximal_cliques,
    moralize,
    path_factor_specs,
    path_impact,
    simple_path,
    transition_table,
    triangulate,
    verify_running_intersection,
)
from tvrobust import jtree
from tvrobust.bn_model import _ancestral_subnet
from tvrobust.cli_io import run_cli
from tvrobust.exact_oracle import _ancestral_joint, marginal_of
from tvrobust.jtree import _clique_marginals

from conftest import (
    TESTS_DIR,
    junction_property_holds,
    load_model,
    random_net,
    reference_donor_target_path,
    reference_elimination_cliques,
    reference_join_sets,
    reference_junction_tree,
    reference_path_tree,
    reference_rip_order,
    reference_simple_path,
    reference_triangulate,
    shuffle_parents,
    subgraph,
)

DEMO_CLIQUES = {
    ("X1", "X2"),
    ("X2", "X3", "X4"),
    ("X3", "X10"),
    ("X4", "X5"),
    ("X5", "X6", "X7"),
    ("X6", "X7", "X8"),
    ("X7", "X9"),
}


def test_moralize_marries_coparents(ten_node):
    g = moralize(ten_node)
    edge_set = {frozenset(e) for e in g.edges}
    # every directed edge survives undirected
    for p, c in ten_node.edges():
        assert frozenset((p, c)) in edge_set
    # X6 and X7 share the child X8 and must be married
    assert frozenset(("X6", "X7")) in edge_set
    # exactly one marriage happens in this net
    assert len(edge_set) == len(ten_node.edges()) + 1


def test_moral_graph_of_demo_is_already_chordal(ten_node):
    g = moralize(ten_node)
    assert is_chordal(g)
    tri = triangulate(g)
    assert set(tri.edges) == set(g.edges)


def test_triangulate_fills_four_cycle():
    g = UGraph(("A", "B", "C", "D"),
               (("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")))
    assert not is_chordal(g)
    tri = triangulate(g)
    assert is_chordal(tri)
    assert len(tri.edges) == 5


def test_maximal_cliques_requires_chordal():
    g = UGraph(("A", "B", "C", "D"),
               (("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")))
    with pytest.raises(DomainError):
        maximal_cliques(g)


def test_maximal_cliques_of_demo(ten_node):
    cliques = maximal_cliques(moralize(ten_node))
    assert {tuple(c) for c in cliques} == DEMO_CLIQUES


def test_junction_tree_of_demo(ten_node):
    jt = build_junction_tree(moralize(ten_node))
    assert {tuple(c) for c in jt.cliques} == DEMO_CLIQUES
    assert len(jt.tree_edges) == len(jt.cliques) - 1
    assert junction_property_holds(jt)
    assert verify_running_intersection(jt.cliques, jt.rip_order)
    seps = sorted(tuple(s) for _, _, s in jt.tree_edges)
    assert seps == [("X2",), ("X3",), ("X4",), ("X5",),
                    ("X6", "X7"), ("X7",)]


def test_chain_junction_tree():
    g = UGraph(("X1", "X2", "X3"), (("X1", "X2"), ("X2", "X3")))
    jt = build_junction_tree(g)
    assert jt.cliques == (("X1", "X2"), ("X2", "X3"))
    assert jt.tree_edges == ((0, 1, ("X2",)),)


def test_single_clique_tree():
    g = UGraph(("A", "B"), (("A", "B"),))
    jt = build_junction_tree(g)
    assert jt.cliques == (("A", "B"),)
    assert jt.tree_edges == ()
    assert jt.rip_order == (0,)


def test_position_is_the_first_index_of_a_vertex():
    g = UGraph(("B", "A", "C"), (("A", "B"), ("C", "A")))
    assert [g.position(v) for v in g.vertices] == [0, 1, 2]
    with pytest.raises(ValueError):
        g.position("D")
    # the moral graph of a net with a repeated name repeats the vertex;
    # its position stays that of the first occurrence, as tuple.index
    dup = UGraph(("A", "B", "A"), (("A", "B"),))
    assert [dup.position(v) for v in ("A", "B")] == [0, 1]
    assert maximal_cliques(dup) == (("A", "B"),)


def test_disconnected_graph_gets_bridge_edges():
    g = UGraph(("A", "B", "C", "D"), (("A", "B"), ("C", "D")))
    jt = build_junction_tree(g)
    assert len(jt.cliques) == 2
    assert len(jt.tree_edges) == 1
    (i, j, sep) = jt.tree_edges[0]
    assert sep == ()
    assert junction_property_holds(jt)


def test_rip_checker_rejects_bad_order():
    cliques = (("X1", "X2"), ("X2", "X3"), ("X3", "X4"))
    assert verify_running_intersection(cliques, (0, 1, 2))
    assert verify_running_intersection(cliques, (2, 1, 0))
    # placing X2-X3 last makes its running intersection {X2, X3},
    # which sits inside no single earlier clique
    bad = (("X1", "X2"), ("X3", "X4"), ("X2", "X3"))
    assert not verify_running_intersection(bad, (0, 1, 2))
    # an order that is not a permutation of the clique indices
    for order in ((0, 1), (0, 1, 1), (0, 1, 3), (0, 1, 2, 0)):
        assert not verify_running_intersection(cliques, order)


def test_a_tree_whose_order_fails_the_checker_is_refused(ten_node,
                                                        monkeypatch):
    monkeypatch.setattr(jtree, "verify_running_intersection",
                        lambda cliques, order: False)
    with pytest.raises(DomainError,
                       match="^running intersection verification failed$"):
        build_junction_tree(moralize(ten_node))


def test_subgraph_restricts_vertices_and_edges():
    g = UGraph(("A", "B", "C"), (("A", "B"), ("B", "C")))
    s = subgraph(g, ("A", "B"))
    assert s.vertices == ("A", "B")
    assert s.edges == (("A", "B"),)


def _plain_moralize(net):
    """Skeleton plus co-parent marriages, taken straight from the tables."""
    edges = list(net.edges())
    for t in net.cpts:
        edges += itertools.combinations(t.parents, 2)
    return UGraph(net.names(), tuple(edges))


def test_ancestral_tree_drops_a_marriage_through_a_child_outside():
    # A, B -> C: A and B are married only through C
    net = load_model("collider")
    sub = _ancestral_subnet(net, ["A", "B"])
    assert sub.names() == ("A", "B")
    jt = build_junction_tree(moralize(sub))
    assert jt.cliques == (("A",), ("B",))
    assert jt.tree_edges == ((0, 1, ()),)
    # A and B are independent, so both modes price A against B as 0
    _, path = donor_target_path(net, ["A"], ["B"])
    assert path.separators == ((),)
    for mode in ("exact", "bound"):
        assert path_impact(net, path, mode).value == 0.0


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 99),
                                              min_size=1, max_size=3))
def test_moral_subnet_keeps_only_edges_of_the_whole_moral_graph(seed,
                                                                 picks):
    """The moral graph of an ancestral subnet is its plain skeleton plus
    marriages and keeps only edges of the whole net's moral graph, and
    ``moralize`` is still the plain skeleton plus marriages."""
    rng = np.random.default_rng(seed)
    net = shuffle_parents(random_net(rng, 5, 14), rng)
    names = net.names()
    sub = _ancestral_subnet(net, [names[i % len(names)] for i in picks])
    assert moralize(net) == _plain_moralize(net)
    assert moralize(sub) == _plain_moralize(sub)
    assert set(moralize(sub).edges) <= set(
        subgraph(moralize(net), sub.names()).edges)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.integers(0, 99), min_size=1, max_size=3),
       st.lists(st.lists(st.integers(0, 99), min_size=1, max_size=4),
                max_size=3))
def test_completed_tree_equals_the_whole_moral_graph_reference(seed, picks,
                                                               draws):
    """On an ancestral subnet, the tree built with each scope made
    complete equals the tree of ``moralize`` plus the completing pairs,
    and one clique holds each scope."""
    rng = np.random.default_rng(seed)
    net = shuffle_parents(random_net(rng, 5, 14), rng)
    names = net.names()
    sub = _ancestral_subnet(net, [names[i % len(names)] for i in picks])
    kept = sub.names()
    scopes = [{kept[i % len(kept)] for i in d} for d in draws]
    tree = jtree._moral_tree(sub, scopes)[0]
    assert tree == reference_path_tree(sub, scopes)
    assert all(any(s <= set(c) for c in tree.cliques) for s in scopes)


def test_simple_path_endpoints_and_separators(ten_node):
    jt = build_junction_tree(moralize(ten_node))
    path = simple_path(jt, ("X1", "X2"), ("X7", "X9"))
    assert path.cliques[0] == ("X1", "X2")
    assert path.cliques[-1] == ("X7", "X9")
    assert path.separators == (("X2",), ("X4",), ("X5",), ("X7",))
    assert len(path.cliques) == len(path.separators) + 1


def test_simple_path_adjacent_and_self(ten_node):
    jt = build_junction_tree(moralize(ten_node))
    same = simple_path(jt, ("X1", "X2"), ("X1", "X2"))
    assert same.cliques == (("X1", "X2"),)
    assert same.separators == ()
    adj = simple_path(jt, ("X1", "X2"), ("X2", "X3", "X4"))
    assert adj.separators == (("X2",),)


@pytest.mark.parametrize("build,message", [
    (lambda: UGraph(("A", "B"), (("A", "C"),)),
     "edge ('A', 'C') references unknown vertex"),
    (lambda: UGraph(("A", "B"), (("B", "B"),)), "self-loop on 'B'"),
    (lambda: path_factor_specs(CliquePath((("A",), ("B",)), ())),
     "separator count does not match path length"),
], ids=["unknown_vertex", "self_loop", "separator_count"])
def test_graph_layer_rejects_malformed_input(build, message):
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value) == message


def test_simple_path_rejects_ends_that_are_not_cliques(ten_node):
    jt = build_junction_tree(moralize(ten_node))
    # X2, X3 lies inside the clique X2, X3, X4 but is not a clique itself;
    # the donor end is looked up first
    cases = [(("X2", "X3"), ("X7", "X9"), ["X2", "X3"]),
             (("X1", "X2"), ("X3", "X2"), ["X2", "X3"]),
             (("X9", "X1"), ("X1", "X9"), ["X1", "X9"]),
             (("X1", "X2"), (), [])]
    for donor, target, members in cases:
        with pytest.raises(DomainError) as err:
            simple_path(jt, donor, target)
        assert str(err.value) == f"no clique with members {members}"
    split = JunctionTree((("A",), ("B",)), (), (0, 1))
    with pytest.raises(DomainError,
                       match="cliques are not connected in the tree"):
        simple_path(split, ("A",), ("B",))


def test_donor_target_path_names_the_first_unknown_name_in_order(ten_node):
    # donors first, then targets, each in the order given
    cases = [(["X1"], ["Pa", "Qb", "Rc"], "Pa"),
             (["Zz", "X1"], ["Pa"], "Zz"),
             (["X1", "Yy"], ["X9", "Pa"], "Yy")]
    for donor, target, name in cases:
        with pytest.raises(DomainError,
                           match=f"^unknown variable '{name}'$"):
            donor_target_path(ten_node, donor, target)


def test_donor_target_path_prunes_barren_variables(ten_node):
    jt, path = donor_target_path(ten_node, {"X1"}, {"X9"})
    used = {v for c in jt.cliques for v in c}
    # X6, X8, X10 are outside the ancestral set of X1 and X9
    assert used == {"X1", "X2", "X3", "X4", "X5", "X7", "X9"}
    assert path.cliques[0] == ("X1", "X2")
    assert path.cliques[-1] == ("X7", "X9")


def test_donor_target_path_single_clique(fragment):
    jt, path = donor_target_path(fragment, {"Drought"}, {"Drought"})
    assert len(path.cliques) == 1
    assert path.separators == ()


def test_donor_target_path_rejects_split_donor(ten_node):
    # X1 and X9 share no clique of the moral graph, and once joined, X9
    # sits in the path's first separator
    with pytest.raises(DomainError):
        donor_target_path(ten_node, {"X1", "X9"}, {"X5"})
    with pytest.raises(DomainError):
        donor_target_path(ten_node, set(), {"X5"})


def test_donor_target_path_hosts_a_split_donor(ten_node):
    # X4 and X6 share no clique of the moral graph; the donor set is made
    # complete, so one clique holds both
    _, path = donor_target_path(ten_node, {"X4", "X6"}, {"X9"})
    assert path.cliques == (("X4", "X5", "X6"), ("X5", "X7"), ("X7", "X9"))
    assert path.separators == (("X5",), ("X7",))


def _near_copy_chain(eps: float):
    """X1 -> X2 -> X5 -> X7 -> X9, where X2's rows differ by ``eps`` and
    X7 and X9 copy their parent but for a 1e-3 flip."""
    levels = ("t", "f")
    copy = [[1 - 1e-3, 1e-3], [1e-3, 1 - 1e-3]]
    tables = {"X1": [[0.5, 0.5]],
              "X2": [[0.5 + eps / 2, 0.5 - eps / 2],
                     [0.5 - eps / 2, 0.5 + eps / 2]],
              "X5": [[0.9, 0.1], [0.2, 0.8]], "X7": copy, "X9": copy}
    names = list(tables)
    return BayesNet.of(
        [Variable(n, levels) for n in names],
        [Cpt.of(n, levels, tuple(names[i - 1:i]), (levels,) * min(i, 1),
                np.array(tables[n])) for i, n in enumerate(names)])


def test_donor_target_path_refuses_a_joined_donor_in_the_first_separator(
        ten_node):
    """Joining X1 and X9 puts X9 in the first separator, where the first
    factor P(X2, X9 | X1) prices it as an output: on the near-copy chain
    the path's product would be at most eps while X9 all but fixes X5."""
    net = _near_copy_chain(1e-3)
    assert diameter(transition_table(net, ["X5"], ["X1", "X9"])) > 0.9
    with pytest.raises(DomainError) as err:
        donor_target_path(net, {"X1", "X9"}, {"X5"})
    assert str(err.value) == (
        "donor set {X1, X9}, which the moral graph does not join, meets the "
        "first separator {X2, X9} of its clique path; its factors do not "
        "price that")
    with pytest.raises(DomainError, match=r"^donor set \{X1, X9\}, .* the "
                                          r"first separator \{X2, X9\} "):
        donor_target_path(ten_node, {"X1", "X9"}, {"X5"})
    # a set the moral graph joins keeps the path it had before sets were
    # joined, X2 in the first separator included
    _, path = donor_target_path(ten_node, {"X1", "X2"}, {"X7", "X9"})
    assert path.separators[0] == ("X2",)


def test_donor_target_path_multi_variable_donor(ten_node):
    jt, path = donor_target_path(ten_node, {"X1", "X2"}, {"X6", "X7"})
    assert set(path.cliques[0]) >= {"X1", "X2"}
    assert set(path.cliques[-1]) >= {"X6", "X7"}


def test_path_factor_specs_shapes(ten_node):
    _, path = donor_target_path(ten_node, {"X1"}, {"X9"})
    specs = path_factor_specs(path)
    assert len(specs) == len(path.cliques)
    assert specs[0] == (path.separators[0],
                        tuple(v for v in path.cliques[0]
                              if v not in path.separators[0]))
    assert specs[-1][0] == tuple(v for v in path.cliques[-1]
                                 if v not in path.separators[-1])
    _, single = donor_target_path(ten_node, {"X5"}, {"X5"})
    assert path_factor_specs(single) == []


def test_exact_factors_on_chain_equal_cpt_diameters():
    rng = np.random.default_rng(3)
    # a pure chain V0 -> V1 -> ... -> V4
    from tvrobust import BayesNet, Cpt, ProbVec, Variable
    variables = []
    cpts = []
    for i in range(5):
        levels = ("a", "b")
        name = f"V{i}"
        variables.append(Variable(name, levels))
        if i == 0:
            rows = [ProbVec(levels, (0.4, 0.6))]
            cpts.append(Cpt.of(name, levels, (), (), rows))
        else:
            w = rng.uniform(0.1, 0.9, size=2)
            rows = [ProbVec(levels, (float(w[0]), float(1 - w[0]))),
                    ProbVec(levels, (float(w[1]), float(1 - w[1])))]
            cpts.append(Cpt.of(name, levels, (f"V{i-1}",), (levels,), rows))
    chain = BayesNet.of(variables, cpts)
    _, path = donor_target_path(chain, {"V0"}, {"V4"})
    r = path_impact(chain, path, mode="exact")
    assert [f.table for f in r.certificate] == [
        f"P(V{i} | V{i - 1})" for i in range(1, 5)]
    # on a chain every factor P(V_{i+1} | V_i) is the chain's own CPT
    for f, i in zip(r.certificate, range(1, 5)):
        m = chain.cpt(f"V{i}")
        assert abs(f.value - abs(m.rows[0].mass[0] - m.rows[1].mass[0])) <= 1e-12


def _nx_graph(nx, g):
    G = nx.Graph()
    G.add_nodes_from(g.vertices)
    G.add_edges_from(g.edges)
    return G


def _moral_and_triangulated(seed, count=40):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = moralize(random_net(rng, 6, 16))
        yield g, triangulate(g)


def test_is_chordal_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    non_chordal = 0
    for g, tri in _moral_and_triangulated(515):
        assert is_chordal(g) == nx.is_chordal(_nx_graph(nx, g))
        assert is_chordal(tri) and nx.is_chordal(_nx_graph(nx, tri))
        non_chordal += not is_chordal(g)
    # the moral graphs are not all chordal already
    assert non_chordal >= 5


def test_maximal_cliques_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    for g, tri in _moral_and_triangulated(516):
        for h in (g, tri) if is_chordal(g) else (tri,):
            want = set(nx.chordal_graph_cliques(_nx_graph(nx, h)))
            assert {frozenset(c) for c in maximal_cliques(h)} == want


@st.composite
def graphs(draw):
    """Graphs of up to 12 vertices declared in a drawn order, with any
    edge set: isolated vertices, several components, chordal or not."""
    n = draw(st.integers(0, 12))
    names = [f"v{i}" for i in draw(st.permutations(range(n)))]
    pairs = list(itertools.combinations(names, 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) \
        if pairs else []
    return UGraph(tuple(names), tuple(edges))


FIVE_CYCLE = (("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"))


@settings(max_examples=300, deadline=None)
@given(graphs())
@example(UGraph((), ()))
@example(UGraph(("a", "b", "c"), ()))
# a five-cycle, a separate triangle and an isolated vertex
@example(UGraph(("a", "b", "c", "d", "e", "f", "g", "h", "i"),
                FIVE_CYCLE + (("f", "g"), ("g", "h"), ("f", "h"))))
# a forest declared in reverse
@example(UGraph(("e", "d", "c", "b", "a", "f"),
                (("a", "b"), ("b", "c"), ("d", "e"))))
# the five-cycle with one chord
@example(UGraph(("a", "b", "c", "d", "e"), FIVE_CYCLE + (("a", "c"),)))
def test_elimination_agrees_with_networkx_and_full_scan(g):
    nx = pytest.importorskip("networkx")
    tri = triangulate(g)
    assert tri == reference_triangulate(g)
    assert set(g.edges) <= set(tri.edges)
    # the cliques g's own elimination keeps, fill included, are tri's
    own = jtree._eliminate(g.neighbors(), g._pos)[1]
    assert {frozenset(c) for c in own} == \
        set(nx.chordal_graph_cliques(_nx_graph(nx, tri)))
    for h in (g, tri):
        G = _nx_graph(nx, h)
        assert is_chordal(h) == nx.is_chordal(G)
        if not nx.is_chordal(G):
            with pytest.raises(DomainError, match="^graph is not chordal$"):
                maximal_cliques(h)
            continue
        cliques = maximal_cliques(h)
        assert {frozenset(c) for c in cliques} == \
            set(nx.chordal_graph_cliques(G))
        keys = [tuple(h.position(v) for v in c) for c in cliques]
        assert keys == sorted(keys) and all(list(k) == sorted(k)
                                            for k in keys)
    jt = build_junction_tree(tri)
    assert junction_property_holds(jt)
    assert verify_running_intersection(jt.cliques, jt.rip_order)
    # one elimination of g gives the tree of its triangulation
    assert build_junction_tree(g) == jt


@st.composite
def ancestral_moral_graphs(draw):
    """The moral graph of the ancestral subnet of a donor and a target
    set of a ``random_net`` draw, each set's pairs joined, as a query
    builds it."""
    net = random_net(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))),
                     4, 16)
    picks = draw(st.lists(st.sampled_from(net.names()), min_size=2,
                          max_size=4, unique=True))
    k = draw(st.integers(1, len(picks) - 1))
    donor, target = set(picks[:k]), set(picks[k:])
    keep = ancestral_set(net, donor | target)
    return reference_join_sets(subgraph(moralize(net), keep),
                               (donor, target))[0]


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(), ancestral_moral_graphs()))
def test_elimination_keeps_the_cliques_the_subset_scan_keeps(g):
    """One lookup per step keeps exactly the elimination cliques that
    no earlier kept clique contains."""
    assert jtree._eliminate(g.neighbors(), g._pos)[1] == \
        reference_elimination_cliques(g)


def test_triangulate_equals_full_scan_on_ancestral_moral_graphs():
    """The ancestral moral subgraphs of every family and the last
    variable, as ``donor_target_path`` builds them, give the full scan's
    edges on random nets."""
    rng = np.random.default_rng(518)
    filled = 0
    for _ in range(30):
        net = random_net(rng, 10, 24)
        moral = moralize(net)
        target = {net.names()[-1]}
        for v in net.names():
            keep = ancestral_set(net, {v, *net.parents_of(v)} | target)
            g = subgraph(moral, keep)
            tri = triangulate(g)
            assert tri == reference_triangulate(g)
            assert build_junction_tree(g) == build_junction_tree(tri)
            filled += tri != g
    # enough of them need fill for the choice of vertex to matter
    assert filled >= 20


def test_junction_tree_separators_are_a_maximum_spanning_tree():
    nx = pytest.importorskip("networkx")
    for _, tri in _moral_and_triangulated(517):
        jt = build_junction_tree(tri)
        overlap = nx.Graph()
        overlap.add_nodes_from(range(len(jt.cliques)))
        for i, j in itertools.combinations(range(len(jt.cliques)), 2):
            w = len(set(jt.cliques[i]) & set(jt.cliques[j]))
            overlap.add_edge(i, j, weight=w)
        best = nx.maximum_spanning_tree(overlap).size(weight="weight")
        assert sum(len(sep) for _, _, sep in jt.tree_edges) == best
        assert len(jt.tree_edges) == len(jt.cliques) - 1


def _random_trees(seed: int, count: int = 60):
    """Junction trees of random nets of 4-14 variables, whole and cut to
    the ancestral set of the last variable."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        net = random_net(rng, 4, 14)
        moral = moralize(net)
        keep = ancestral_set(net, {net.names()[-1]})
        for g in (moral, subgraph(moral, keep)):
            yield net, build_junction_tree(triangulate(g))


def test_rip_order_equals_sorted_frontier_loop():
    empty_seps = 0
    for _, jt in _random_trees(901):
        want = reference_rip_order(len(jt.cliques), jt.tree_edges)
        assert jt == JunctionTree(jt.cliques, jt.tree_edges, want)
        empty_seps += any(not sep for _, _, sep in jt.tree_edges)
    # disconnected moral graphs give weight-0 tree edges
    assert empty_seps >= 10


def test_simple_path_equals_two_search_reference():
    steps = 0
    for _, jt in _random_trees(902):
        for a, b in itertools.product(jt.cliques, repeat=2):
            path = simple_path(jt, a, b)
            assert path == reference_simple_path(jt, a, b)
            # member order does not matter, only the member set
            assert simple_path(jt, a[::-1], b[::-1]) == path
            steps += len(path.separators)
    assert steps >= 500


def _outcome(find, net, donor, target):
    try:
        return find(net, donor, target)
    except DomainError as e:
        return str(e)


def test_donor_target_path_equals_two_search_reference(ten_node):
    """Every family/target pair on random nets, with single-variable
    targets and targets that hold a child and one of its parents, and
    multi-variable donors and targets on the ten-node demo, give the
    reference's tree and path, errors included."""
    rng = np.random.default_rng(903)
    cases = []
    for _ in range(60):
        net = random_net(rng, 4, 14)
        names = net.names()
        child = next((v for v in reversed(names) if net.parents_of(v)),
                     names[-1])
        for targets in ({names[int(rng.integers(len(names)))]},
                        {child} | set(net.parents_of(child)[:1])):
            cases += [(net, {v} | set(net.parents_of(v)), targets)
                      for v in names]
    subsets = [set(c) for k in (1, 2)
               for c in itertools.combinations(ten_node.names(), k)]
    cases += [(ten_node, d, t) for d in subsets for t in subsets]
    far = 0
    for net, donor, target in cases:
        got = _outcome(donor_target_path, net, donor, target)
        assert got == _outcome(reference_donor_target_path, net, donor,
                               target)
        if not isinstance(got, str):
            jt, path = got
            hosts = [i for i, c in enumerate(jt.cliques)
                     if target <= set(c)]
            far += len(hosts) > 1
    # the target sits in several cliques often enough for the nearest
    # host to matter
    assert far >= 50


@settings(max_examples=300, deadline=None)
@given(graphs())
@example(UGraph((), ()))
@example(UGraph(("a",), ()))
# three components, one a lone vertex declared first
@example(UGraph(("f", "a", "b", "c", "d", "e"),
                (("a", "b"), ("b", "c"), ("d", "e"))))
# three triangles on one hub: every clique pair ties at weight 1
@example(UGraph(("h", "a", "b", "c", "d", "e", "f"),
                (("h", "a"), ("h", "b"), ("a", "b"), ("h", "c"), ("h", "d"),
                 ("c", "d"), ("h", "e"), ("h", "f"), ("e", "f"))))
# the five-cycle, a separate triangle and an isolated vertex
@example(UGraph(("a", "b", "c", "d", "e", "f", "g", "h", "i"),
                FIVE_CYCLE + (("f", "g"), ("g", "h"), ("f", "h"))))
def test_junction_tree_equals_all_pairs_kruskal(g):
    """Kruskal over the clique pairs that share a vertex, then weight-0
    pairs from clique 0, gives the tree of Kruskal over every pair."""
    assert build_junction_tree(g) == reference_junction_tree(g)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.integers(0, 99), min_size=1, max_size=3),
       st.lists(st.integers(0, 99), min_size=1, max_size=3))
def test_donor_target_path_equals_the_moralize_route(seed, picks, aims):
    """The tree, path and refusal text equal those of the route through
    ``moralize``, the completed ``UGraph`` and all-pairs Kruskal, for
    donor and target sets of 1-3 variables on drawn nets."""
    rng = np.random.default_rng(seed)
    net = shuffle_parents(random_net(rng, 4, 14), rng)
    names = net.names()
    donor = {names[i % len(names)] for i in picks}
    target = {names[i % len(names)] for i in aims}
    assert _outcome(donor_target_path, net, donor, target) == _outcome(
        reference_donor_target_path, net, donor, target)


def _same_weight_pair_dropped(jt) -> bool:
    """Whether some clique pair that shares a vertex is left out of the
    tree at the separator size of an edge taken: a tie the (i, j) order
    decided."""
    taken = collections.Counter(len(s) for _, _, s in jt.tree_edges)
    shared = collections.Counter(
        len(set(a) & set(b))
        for a, b in itertools.combinations(jt.cliques, 2) if set(a) & set(b))
    return any(shared[w] > taken[w] for w in taken if w)


def test_donor_target_path_equals_the_moralize_route_on_many_sets():
    """As above on 800 fixed cases, which include trees of several
    components, separator-size ties and refused sets."""
    rng = np.random.default_rng(905)
    split = tied = refused = 0
    for _ in range(200):
        net = shuffle_parents(random_net(rng, 8, 20), rng)
        names = list(net.names())
        for _ in range(4):
            donor, target = ({str(v) for v in rng.choice(
                names, size=int(rng.integers(1, 4)), replace=False)}
                for _ in range(2))
            got = _outcome(donor_target_path, net, donor, target)
            assert got == _outcome(reference_donor_target_path, net, donor,
                                   target)
            if isinstance(got, str):
                refused += "meets the" in got
                continue
            split += any(not sep for _, _, sep in got[0].tree_edges)
            tied += _same_weight_pair_dropped(got[0])
    assert split >= 50 and tied >= 15 and refused >= 50, (split, tied,
                                                          refused)


def _assert_clique_marginals_equal_dense(net, tree):
    """Every clique's calibrated marginal, with each clique in turn as
    the root, equals the dense marginal within 1e-12."""
    names = {v for c in tree.cliques for v in c}
    sub = _ancestral_subnet(net, names)
    joint = _ancestral_joint(net, names)
    for root in range(len(tree.cliques)):
        scopes = tree.cliques[root:] + tree.cliques[:root]
        for c, m in zip(scopes, _clique_marginals(sub, tree, scopes)):
            assert m.scope == c
            want = marginal_of(joint, c)
            assert np.abs(m.mass - want.mass).max() <= 1e-12


def test_clique_marginals_equal_dense_marginals(ten_node):
    tree, _ = donor_target_path(ten_node, {"X1"}, {"X10", "X3"})
    _assert_clique_marginals_equal_dense(ten_node, tree)
    rng = np.random.default_rng(17)
    for _ in range(40):
        net = shuffle_parents(random_net(rng, 4, 10), rng)
        names = net.names()
        tree, path = donor_target_path(net, {str(rng.choice(names))},
                                       {str(rng.choice(names))})
        _assert_clique_marginals_equal_dense(net, tree)
        sub = _ancestral_subnet(net, {v for c in path.cliques for v in c})
        _assert_clique_marginals_equal_dense(
            net, jtree._moral_tree(sub, path.cliques)[0])


def test_clique_marginals_skip_the_variables_outside_the_tree():
    """On the whole net, a tree of an ancestral subnet gives the tables
    it gives on that subnet, bit for bit."""
    rng = np.random.default_rng(23)
    for _ in range(40):
        net = shuffle_parents(random_net(rng, 5, 12), rng)
        names = net.names()
        ends = {str(rng.choice(names))}, {str(rng.choice(names))}
        tree, _ = donor_target_path(net, *ends)
        sub = _ancestral_subnet(net, ends[0] | ends[1])
        assert len(sub.variables) < len(net.variables)
        scopes = tree.cliques[::-1]
        for whole, part in zip(_clique_marginals(net, tree, scopes),
                               _clique_marginals(sub, tree, scopes),
                               strict=True):
            assert (whole.scope, whole.cards) == (part.scope, part.cards)
            assert whole.mass.tobytes() == part.mass.tobytes()


def test_clique_marginals_refuse_a_tree_that_holds_no_family(fragment):
    """Singleton cliques hold each root's family but not that of
    TreeCondition, the first child of two parents."""
    names = [v.name for v in fragment.variables]
    singletons = JunctionTree(tuple((v,) for v in names),
                              ((0, 1, ()), (1, 2, ())), (0, 1, 2))
    with pytest.raises(DomainError, match="^no clique of the tree holds "
                       "the family of 'TreeCondition'$"):
        _clique_marginals(fragment, singletons, [("Drought",)])


def test_path_tree_holds_every_path_clique(ten_node):
    # {X1, X9} is no clique of the moral graph; the path tree adds it
    sub = _ancestral_subnet(ten_node, {"X1", "X9"})
    tree = jtree._moral_tree(sub, [{"X1", "X9"}])[0]
    assert any({"X1", "X9"} <= set(c) for c in tree.cliques)
    assert junction_property_holds(tree)


def test_bare_path_clique_that_repeats_a_name_is_refused(ten_node):
    """A path clique that repeats a name passes ``path_factor_specs``;
    exact mode's bare-path tree refuses it as a self-loop on the
    first-declared repeated name, the text of the route through
    ``moralize`` and ``UGraph``."""
    path = CliquePath((("X3", "X2", "X3", "X2"), ("X2", "X1")), (("X2",),))
    sub = _ancestral_subnet(ten_node, {"X1", "X2", "X3"})
    with pytest.raises(DomainError) as want:
        reference_path_tree(sub, path.cliques)
    with pytest.raises(DomainError) as got:
        path_impact(ten_node, path, "exact")
    assert str(got.value) == str(want.value) == "self-loop on 'X2'"


def test_each_junction_tree_runs_one_elimination(capsys, monkeypatch):
    """The library's trees are read off one min-fill elimination of the
    graph they are built on, never triangulated and eliminated again;
    the five-cycle's moral graph needs fill, so a second pass would
    have work to do."""
    net = load_model("five_cycle")
    tree, path = donor_target_path(net, {"A"}, {"F"})
    graphs = []
    real = jtree._eliminate

    def counted(adj, rank):
        graphs.append(adj)
        return real(adj, rank)
    monkeypatch.setattr(jtree, "_eliminate", counted)

    assert donor_target_path(net, {"A"}, {"F"}) == (tree, path)
    assert len(graphs) == 1
    graphs.clear()
    bare = path_impact(net, path, "exact")
    assert len(graphs) == 1
    graphs.clear()
    assert impact(net, {"A"}, {"F"}, "exact") == (path, bare)
    assert len(graphs) == 1
    graphs.clear()
    monkeypatch.chdir(TESTS_DIR)
    assert run_cli(["report", "--json", "models/five_cycle.json"]) == 0
    assert capsys.readouterr().out
    assert len(graphs) == 1
