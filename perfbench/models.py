"""Seeded model generators and the query mix of each workload.

Every model is drawn from ``numpy.random.default_rng([seed, family])``
and written with ``tvrobust.serialize_model``, so one seed
always gives byte-identical files.  Chains and wide models have a fixed
shape and only their probabilities depend on the seed, which keeps the
work per query the same from seed to seed; random DAGs follow the rule
of ``tests/conftest.random_net`` at fixed sizes.

A query is a dict: ``kind`` (the latency class it belongs to), ``model``
(a file name), and either ``argv`` for ``tvrobust.cli_io.run_cli`` or
``call`` for a library function that has no command.
"""

from __future__ import annotations

import numpy as np

from tvrobust import BayesNet, Cpt, ProbVec, Variable, serialize_model

WORKLOADS = ("exact_impact", "priority_bound", "table_scan", "model_edits")

# (family id, variable count, levels per variable) of the exact_impact
# chains.  The three slowest queries of a cycle start at X1..X3 of the
# 13-node chain; the next four (X1..X3 of the 12-node chain, X4 of the
# 13-node one) cost about the same, and p90 falls among those four, not
# across the gap between two path lengths.
CHAINS = ((1, 11, 2), (2, 12, 2), (3, 13, 2), (4, 8, 3))
# variable counts of the priority_bound random DAGs: priority time grows
# about as n^4, so p90 lands on the priority call of a middle-sized net;
# five nets share that size so p90 is the middle of five draws, not one
DAG_SIZES = (40, 50, 60, 60, 60, 60, 60, 70, 80)
# child level counts of the wide models shared by table_scan and model_edits
WIDE_CHILD_LEVELS = (8, 9, 10)


def _row(rng, k: int, levels) -> ProbVec:
    w = rng.uniform(0.05, 1.0, size=k)
    w = w / w.sum()
    return ProbVec(levels, tuple(float(x) for x in w))


def _net(rng, spec) -> BayesNet:
    """A net from (name, levels, parents) triples in topological order."""
    variables, cpts, by_name = [], [], {}
    for name, levels, parents in spec:
        plevels = tuple(by_name[p].levels for p in parents)
        n_rows = int(np.prod([len(ls) for ls in plevels], dtype=np.int64))
        rows = [_row(rng, len(levels), levels) for _ in range(n_rows)]
        var = Variable(name, levels)
        by_name[name] = var
        variables.append(var)
        cpts.append(Cpt.of(name, levels, parents, plevels, rows))
    return BayesNet.of(variables, cpts)


def chain(seed: int, family: int, n: int, card: int) -> BayesNet:
    """X1..Xn where each Xi has parents X(i-2) and X(i-1)."""
    rng = np.random.default_rng([seed, family])
    levels = tuple(f"s{j}" for j in range(card))
    names = [f"X{i}" for i in range(1, n + 1)]
    spec = [(name, levels, tuple(names[max(0, i - 2):i]))
            for i, name in enumerate(names)]
    return _net(rng, spec)


def random_dag(seed: int, family: int, n: int) -> BayesNet:
    """The ``tests/conftest.random_net`` rule with ``n`` fixed.

    Declaration order is topological; each variable has 2 or 3 levels
    and picks up to two earlier parents.
    """
    rng = np.random.default_rng([seed, family])
    names = [f"V{i}" for i in range(n)]
    variables: list[Variable] = []
    cpts: list[Cpt] = []
    for i, name in enumerate(names):
        k = int(rng.integers(2, 4))
        levels = tuple(f"l{j}" for j in range(k))
        pool = list(range(i))
        rng.shuffle(pool)
        n_par = min(len(pool), int(rng.integers(0, 3)))
        ps = tuple(names[j] for j in sorted(pool[:n_par]))
        plevels = tuple(variables[names.index(p)].levels for p in ps)
        n_rows = int(np.prod([len(ls) for ls in plevels], dtype=np.int64))
        rows = [_row(rng, k, levels) for _ in range(n_rows)]
        variables.append(Variable(name, levels))
        cpts.append(Cpt.of(name, levels, ps, plevels, rows))
    return BayesNet.of(variables, cpts)


def wide(seed: int, family: int, child_card: int) -> BayesNet:
    """Four 4-level roots R1..R4 feeding tables of 256, 128 and 64 rows.

    W1 | R1..R4 has 256 parent configurations and 8 levels; W2 | R3, R4,
    W1 has 4 * 4 * 8 = 128 and W3 | R1, R2, R3 has 64, both with
    ``child_card`` levels.
    """
    rng = np.random.default_rng([seed, family])
    four = tuple(f"l{j}" for j in range(4))
    wide_levels = tuple(f"l{j}" for j in range(child_card))
    eight = tuple(f"l{j}" for j in range(8))
    spec = [(f"R{i}", four, ()) for i in range(1, 5)]
    spec.append(("W1", eight, ("R1", "R2", "R3", "R4")))
    spec.append(("W2", wide_levels, ("R3", "R4", "W1")))
    spec.append(("W3", wide_levels, ("R1", "R2", "R3")))
    return _net(rng, spec)


def generate(workload: str, seed: int) -> tuple[dict, list]:
    """(file name -> model text, query list) for one workload and seed."""
    if workload == "exact_impact":
        files, queries = {}, []
        for family, n, card in CHAINS:
            fname = f"chain{family}.json"
            files[fname] = serialize_model(chain(seed, family, n, card))
            for d in range(1, n):
                queries.append({
                    "kind": "impact_exact", "model": fname,
                    "argv": ["impact", fname, "--from", f"X{d}",
                             "--to", f"X{n}", "--mode", "exact", "--json"],
                })
        return files, queries
    if workload == "priority_bound":
        files, queries = {}, []
        for family, n in enumerate(DAG_SIZES, start=10):
            fname = f"dag{family}_{n}.json"
            files[fname] = serialize_model(random_dag(seed, family, n))
            target = f"V{n - 1}"
            pick = np.random.default_rng([seed, family, 1])
            donors = pick.choice(n - 1, size=4, replace=False)
            queries.append({"kind": "priority", "model": fname,
                            "call": ["elicitation_priority", [target]]})
            for k, d in enumerate(donors):
                cmd = "impact" if k < 3 else "path"
                argv = [cmd, fname, "--from", f"V{d}", "--to", target]
                if cmd == "impact":
                    argv += ["--mode", "bound"]
                queries.append({"kind": f"{cmd}_bound", "model": fname,
                                "argv": argv + ["--json"]})
        return files, queries
    if workload == "table_scan":
        files, queries = {}, []
        for family, card in enumerate(WIDE_CHILD_LEVELS, start=20):
            fname = f"wide{card}.json"
            files[fname] = serialize_model(wide(seed, family, card))
            # one of each, cheapest first: p50 falls inside edges and
            # p90 inside report
            for argv in (["validate", fname],
                         ["amalgamate", fname, "R2", "--json"],
                         ["edges", fname, "--json"],
                         ["diameters", fname, "--json"],
                         ["report", fname, "--json"]):
                queries.append({"kind": argv[0], "model": fname,
                                "argv": argv})
        return files, queries
    if workload == "model_edits":
        files, queries = {}, []
        for family, card in enumerate(WIDE_CHILD_LEVELS, start=20):
            fname = f"wide{card}.json"
            files[fname] = serialize_model(wide(seed, family, card))
            # deletions are a quarter of the mix and run a little faster
            # than merges, so p50 and p90 both fall inside amalgamate
            edits = [["delete-edge", fname, "--from", "R1", "--to", "W1"],
                     ["delete-edge", fname, "--from", "W1", "--to", "W2"]]
            edits += [["amalgamate", fname, var, "--group", group]
                      for var, group in (("R3", "l1,l2"), ("R4", "l2,l3"),
                                         ("W1", "l2,l3,l4"), ("W1", "l0,l1"))]
            edits += [["amalgamate", fname, var, "--group", group,
                       "--nominal"]
                      for var, group in (("R1", "l0,l2"), ("W1", "l1,l5"))]
            for argv in edits:
                queries.append({"kind": argv[0], "model": fname,
                                "argv": argv + ["--json"]})
        return files, queries
    raise ValueError(f"unknown workload {workload!r}")
