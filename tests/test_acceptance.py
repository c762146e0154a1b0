"""One test per headline guarantee, at the tightest tolerance it bears.

Each test is self-contained: it states what it checks, computes every
number with library calls, and compares against frozen worked-example
values or a matching independent recomputation.  The randomized
guarantee runs seven property suites of 1000 seeded cases each and
tolerates zero violations (slack 1e-9 for float accumulation only).
"""

import time

import numpy as np
import pytest

from tvrobust import (
    Cpt,
    DomainError,
    JointTable,
    ProbVec,
    build_junction_tree,
    cpt_superbound,
    cpt_tv_plus,
    diameter,
    donor_target_path,
    joint_mass,
    marginal,
    marginal_of,
    mix,
    moralize,
    overlap_decompose,
    parent_diameter,
    parent_index,
    parse_model,
    path_impact,
    propagate_bound,
    run_cli,
    serialize_model,
    simple_path,
    superbound_witness,
    table_tv,
    tv_distance,
    verify_running_intersection,
)
from tvrobust.advisors import (
    amalgamate_levels,
    amalgamation_suggest,
    counterpart_cost,
)

from conftest import (
    GOLDEN_DIR,
    MODELS_DIR,
    TESTS_DIR,
    TREE_LEVELS,
    Q_ROWS,
    diameter_sum_bound,
    random_net,
    random_vector,
    reweight_joint,
    tree_cpt,
)

TOL = 1e-12
SLACK = 1e-9


def test_a1_tree_condition_diameter(fragment):
    """The worked-example table has diameter 0.7."""
    t = fragment.cpt("TreeCondition")
    assert abs(diameter(t) - 0.7) <= TOL


def test_a2_row_aligned_distance_and_superbound():
    """Aligned rows differ by at most 0.1; the free-pairing bound is 0.7,
    attained by the first row against the last."""
    p, q = tree_cpt(), tree_cpt(Q_ROWS)
    assert abs(cpt_tv_plus(p, q) - 0.1) <= TOL
    assert abs(cpt_superbound(p, q) - 0.7) <= TOL
    assert superbound_witness(p, q) == (0, 5)


def test_a3_propagation_bound_and_exact_shift(fragment, variant):
    """Two elicitations of the parent margin sit at TV 0.125; the
    propagated bound is 0.7 * 0.125 = 0.0875, the true margin shift
    0.0555, and the bound dominates."""
    config = ("Drought", "Rainfall")
    pi1 = marginal(fragment, config)
    pi2 = marginal(variant, config)
    d_pi = table_tv(pi1, pi2)
    assert abs(d_pi - 0.125) <= TOL
    bound = propagate_bound(d_pi, fragment.cpt("TreeCondition"))
    assert abs(bound - 0.0875) <= TOL
    exact = table_tv(marginal(fragment, ("TreeCondition",)),
                     marginal(variant, ("TreeCondition",)))
    assert abs(exact - 0.0555) <= TOL
    assert exact <= bound + TOL


def test_a4_per_parent_diameters(fragment):
    """Deleting Drought can move rows by 0.6, Rainfall by 0.2."""
    t = fragment.cpt("TreeCondition")
    assert abs(parent_diameter(t, parent_index(t, "Drought")) - 0.6) <= TOL
    assert abs(parent_diameter(t, parent_index(t, "Rainfall")) - 0.2) <= TOL


def test_a5_amalgamation_costs(fragment):
    """Both consecutive Rainfall pairs cost 0.1 to merge; pricing the
    externally printed merged table row-by-row gives 0.075, while our
    own simple-average merge costs 0.05."""
    suggestions = amalgamation_suggest(fragment, "Rainfall")
    assert [pair for pair, _ in suggestions] == [
        ("below average", "average"), ("average", "above average")]
    for _, cost in suggestions:
        assert abs(cost - 0.1) <= TOL

    group = ("below average", "average")
    printed_rows = ((0.225, 0.60, 0.175), (0.30, 0.60, 0.10),
                    (0.725, 0.215, 0.06), (0.90, 0.09, 0.01))
    printed = Cpt.of(
        "TreeCondition", TREE_LEVELS, ("Drought", "Rainfall"),
        (("yes", "no"), ("below average+average", "above average")),
        [ProbVec(TREE_LEVELS, r) for r in printed_rows])
    matched = counterpart_cost(fragment.cpt("TreeCondition"), printed,
                               "Rainfall", group)
    assert abs(matched - 0.075) <= TOL

    _, costs = amalgamate_levels(fragment, "Rainfall", group)
    assert abs(costs["TreeCondition"] - 0.05) <= TOL


def test_a6_junction_tree_of_ten_node_demo(ten_node):
    """The ten-node demo has exactly seven cliques and six separators,
    a verifiable running-intersection ordering, and the clique path
    from {X1, X2} to {X7, X9} crosses X2, X4, X5, X7."""
    jt = build_junction_tree(moralize(ten_node))
    assert {frozenset(c) for c in jt.cliques} == {
        frozenset(c) for c in (
            ("X1", "X2"), ("X2", "X3", "X4"), ("X3", "X10"), ("X4", "X5"),
            ("X5", "X6", "X7"), ("X6", "X7", "X8"), ("X7", "X9"))}
    assert len(jt.tree_edges) == 6
    assert {frozenset(s) for _, _, s in jt.tree_edges} == {
        frozenset(s) for s in (
            ("X2",), ("X3",), ("X4",), ("X5",), ("X6", "X7"), ("X7",))}
    assert verify_running_intersection(jt.cliques, jt.rip_order)
    path = simple_path(jt, ("X1", "X2"), ("X7", "X9"))
    assert path.separators == (("X2",), ("X4",), ("X5",), ("X7",))


def _random_cpt(rng, n_parents=None):
    if n_parents is None:
        n_parents = int(rng.integers(1, 4))
    k = int(rng.integers(2, 5))
    levels = tuple(f"l{j}" for j in range(k))
    plevels = tuple(
        tuple(f"p{i}v{j}" for j in range(int(rng.integers(2, 4))))
        for i in range(n_parents))
    n_rows = 1
    for ls in plevels:
        n_rows *= len(ls)
    rows = [ProbVec(levels, random_vector(rng, k).mass)
            for _ in range(n_rows)]
    return Cpt.of("C", levels, tuple(f"P{i}" for i in range(n_parents)),
                  plevels, rows)


def _suite_contraction(seed, cases):
    """Pushing two margins through one table contracts their TV by at
    most the table's diameter."""
    for case in range(cases):
        rng = np.random.default_rng(seed + case)
        t = _random_cpt(rng, n_parents=1)
        w1 = random_vector(rng, t.n_rows)
        w2 = random_vector(rng, t.n_rows)
        moved = tv_distance(mix(w1.mass, t.rows), mix(w2.mass, t.rows))
        cap = diameter(t) * tv_distance(w1, w2)
        assert moved <= cap + SLACK


def _suite_mixing_convexity(seed, cases):
    """TV between two mixtures is at most the weight-paired average of
    the component TVs."""
    for case in range(cases):
        rng = np.random.default_rng(seed + case)
        k = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        mm = int(rng.integers(2, 5))
        ps = [random_vector(rng, k) for _ in range(m)]
        qs = [random_vector(rng, k) for _ in range(mm)]
        a = random_vector(rng, m)
        b = random_vector(rng, mm)
        lhs = tv_distance(mix(a.mass, ps), mix(b.mass, qs))
        rhs = sum(ai * bj * tv_distance(p, q)
                  for ai, p in zip(a.mass, ps)
                  for bj, q in zip(b.mass, qs))
        assert lhs <= rhs + SLACK


def _suite_superbound_sandwich(seed, cases):
    """Row-aligned TV <= free-pairing bound <= row-aligned TV plus the
    smaller diameter, clamped to 1."""
    for case in range(cases):
        rng = np.random.default_rng(seed + case)
        t = _random_cpt(rng)
        rows2 = [ProbVec(t.child_levels,
                         random_vector(rng, len(t.child_levels)).mass)
                 for _ in range(t.n_rows)]
        u = Cpt(t.child, t.child_levels, t.parents, t.parent_levels,
                tuple(rows2))
        dvp = cpt_tv_plus(t, u)
        dvs = cpt_superbound(t, u)
        assert dvp <= dvs + SLACK
        assert dvs <= min(1.0, dvp + min(diameter(t), diameter(u))) + SLACK


def _suite_margin_monotonicity(seed, cases):
    """Marginalizing two joints never increases their TV."""
    for case in range(cases):
        rng = np.random.default_rng(seed + case)
        n = int(rng.integers(2, 5))
        cards = tuple(int(rng.integers(2, 4)) for _ in range(n))
        scope = tuple(f"V{i}" for i in range(n))
        size = 1
        for c in cards:
            size *= c
        a = rng.uniform(0.01, 1.0, size=size)
        b = rng.uniform(0.01, 1.0, size=size)
        ja = JointTable(scope, cards, a / a.sum())
        jb = JointTable(scope, cards, b / b.sum())
        keep = list(rng.choice(scope, size=int(rng.integers(1, n)),
                               replace=False))
        assert (table_tv(marginal_of(ja, keep), marginal_of(jb, keep))
                <= table_tv(ja, jb) + SLACK)


def _suite_delta_sum(seed, cases):
    """The per-parent deltas sum to at least the full diameter."""
    for case in range(cases):
        rng = np.random.default_rng(seed + case)
        t = _random_cpt(rng)
        assert diameter(t) <= diameter_sum_bound(t) + SLACK


def _suite_structured_perturbation(seed, cases):
    """Replacing the donor-clique margin moves the target margin by at
    most the exact impact product times the donor-margin shift."""
    for case in range(cases):
        rng = np.random.default_rng(seed + case)
        net = random_net(rng)
        names = [v.name for v in net.variables]
        donor = str(rng.choice(names))
        target = str(rng.choice(names))
        _, path = donor_target_path(net, {donor}, {target})
        impact = path_impact(net, path, mode="exact").value
        if len(path.cliques) == 1:
            shaken = tuple(path.cliques[0])
        else:
            shaken = tuple(v for v in path.cliques[0]
                           if v not in set(path.separators[0]))
        joint = joint_mass(net)
        sub = marginal_of(joint, shaken)
        fresh = rng.uniform(0.05, 1.0, size=sub.mass.size)
        fresh = fresh / fresh.sum()
        perturbed = reweight_joint(joint, sub, fresh)
        donor_tv = 0.5 * float(np.abs(fresh - sub.mass).sum())
        target_tv = table_tv(marginal_of(joint, (target,)),
                             marginal_of(perturbed, (target,)))
        assert target_tv <= impact * donor_tv + SLACK


def _suite_exact_below_assembled(seed, cases):
    """The oracle impact never exceeds the product assembled from the
    model's own table diameters, wherever the latter is defined."""
    computable = 0
    for case in range(cases):
        rng = np.random.default_rng(seed + case)
        net = random_net(rng)
        names = [v.name for v in net.variables]
        donor, target = {names[0]}, {names[-1]}
        try:
            _, path = donor_target_path(net, donor, target)
            bound = path_impact(net, path, mode="bound")
        except DomainError:
            continue
        exact = path_impact(net, path, mode="exact")
        assert exact.value <= bound.value + SLACK
        computable += 1
    return computable


def test_a7_property_suites_zero_violations():
    """Seven randomized inequality suites, 1000 seeded cases each,
    with zero violations tolerated, finishing inside a minute."""
    start = time.monotonic()
    _suite_contraction(37_000, 1000)
    _suite_mixing_convexity(38_000, 1000)
    _suite_superbound_sandwich(39_000, 1000)
    _suite_margin_monotonicity(40_000, 1000)
    _suite_delta_sum(41_000, 1000)
    _suite_structured_perturbation(42_000, 1000)
    computable = _suite_exact_below_assembled(43_000, 1000)
    assert computable >= 900
    assert time.monotonic() - start < 60.0


def test_a8_overlap_decomposition():
    """1000 random pairs rebuild from their common-mass form within
    1e-12, and the common weight complements the TV distance exactly."""
    for case in range(1000):
        rng = np.random.default_rng(51_000 + case)
        k = int(rng.integers(2, 6))
        p = random_vector(rng, k)
        q = random_vector(rng, k)
        dec = overlap_decompose(p, q)
        assert dec.beta == 1.0 - tv_distance(p, q)
        for orig, resid in ((p, dec.residual_1), (q, dec.residual_2)):
            rebuilt = tuple(
                dec.beta * c + (1.0 - dec.beta) * r
                for c, r in zip(dec.common.mass, resid.mass))
            err = max(abs(a - b) for a, b in zip(rebuilt, orig.mass))
            assert err <= 1e-12


def test_a9_serialization_and_cli_contract(capsys, monkeypatch):
    """Every fixture round-trips byte-for-byte, every golden command
    reproduces its frozen output, and validate exits 0/1/2 per the
    documented contract."""
    for name in ("native_fish_fragment", "native_fish_variant",
                 "ten_node_demo", "broken_model"):
        text = (MODELS_DIR / f"{name}.json").read_text()
        net, _ = parse_model(text, strict=False)
        assert serialize_model(net) == text

    monkeypatch.chdir(TESTS_DIR)
    golden_runs = [
        ("validate_broken.txt", 1, ["validate", "models/broken_model.json"]),
        ("diameters_fragment.txt", 0,
         ["diameters", "models/native_fish_fragment.json"]),
        ("edges_fragment.txt", 0,
         ["edges", "models/native_fish_fragment.json"]),
        ("edges_fragment.dot", 0,
         ["edges", "--dot", "models/native_fish_fragment.json"]),
        ("jt_ten_node.dot", 0, ["report", "--dot", "models/ten_node_demo.json"]),
        ("impact_ten_node_bound.json", 0,
         ["impact", "--from", "X1,X2", "--to", "X7,X9", "--mode", "bound",
          "--json", "models/ten_node_demo.json"]),
        ("report_fragment.json", 0,
         ["report", "--json", "models/native_fish_fragment.json"]),
        ("amalgamate_rainfall.txt", 0,
         ["amalgamate", "models/native_fish_fragment.json", "Rainfall"]),
        ("delete_edge_fragment.txt", 0,
         ["delete-edge", "--from", "Rainfall", "--to", "TreeCondition",
          "models/native_fish_fragment.json"]),
    ]
    for golden, code, argv in golden_runs:
        assert run_cli(argv) == code, f"exit code changed for {argv}"
        got = capsys.readouterr().out
        assert got == (GOLDEN_DIR / golden).read_text(), \
            f"output drifted for {argv}"

    assert run_cli(["validate", "models/native_fish_fragment.json"]) == 0
    assert run_cli(["validate", "models/broken_model.json"]) == 1
    assert run_cli(["validate"]) == 2
    capsys.readouterr()
