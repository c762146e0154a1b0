import itertools
import json
import pathlib
import sys

import numpy as np
import pytest

from tvrobust import (BayesNet, CliquePath, Cpt, JunctionTree, ProbVec,
                      UGraph, Variable, ancestral_set, build_junction_tree,
                      cpt_superbound, cpt_tv_plus, diameter, moralize,
                      parent_diameter, topological_order, triangulate,
                      tv_distance)
from tvrobust import bn_model, cli_io
from tvrobust.advisors import PriorityRecord
from tvrobust.cli_io import parse_model
from tvrobust.errors import DomainError, ParseError
from tvrobust.exact_oracle import JointTable, joint_mass, marginal_of

TESTS_DIR = pathlib.Path(__file__).parent
MODELS_DIR = TESTS_DIR / "models"
GOLDEN_DIR = TESTS_DIR / "golden"

DROUGHT_LEVELS = ("yes", "no")
RAINFALL_LEVELS = ("below average", "average", "above average")
TREE_LEVELS = ("good", "damaged", "dead")

# the worked example tables: P is the elicited Tree Condition CPT, Q a
# second elicitation of the same table
P_ROWS = (
    (0.20, 0.60, 0.20),
    (0.25, 0.60, 0.15),
    (0.30, 0.60, 0.10),
    (0.70, 0.25, 0.05),
    (0.80, 0.18, 0.02),
    (0.90, 0.09, 0.01),
)
Q_ROWS = (
    (0.20, 0.60, 0.20),
    (0.30, 0.50, 0.20),
    (0.30, 0.60, 0.10),
    (0.65, 0.25, 0.10),
    (0.80, 0.18, 0.02),
    (0.90, 0.10, 0.00),
)

TEN_NODE_EDGES = (
    ("X1", "X2"), ("X2", "X3"), ("X2", "X4"), ("X3", "X4"), ("X3", "X10"),
    ("X4", "X5"), ("X5", "X6"), ("X5", "X7"), ("X6", "X8"), ("X7", "X8"),
    ("X7", "X9"),
)


def tree_cpt(rows=P_ROWS) -> Cpt:
    return Cpt.of(
        "TreeCondition", TREE_LEVELS, ("Drought", "Rainfall"),
        (DROUGHT_LEVELS, RAINFALL_LEVELS),
        [ProbVec(TREE_LEVELS, r) for r in rows],
    )


def load_model(name: str) -> BayesNet:
    return parse_model((MODELS_DIR / f"{name}.json").read_text())


@pytest.fixture
def fragment() -> BayesNet:
    return load_model("native_fish_fragment")


@pytest.fixture
def variant() -> BayesNet:
    return load_model("native_fish_variant")


@pytest.fixture
def ten_node() -> BayesNet:
    return load_model("ten_node_demo")


def random_vector(rng, k: int) -> ProbVec:
    w = rng.uniform(0.05, 1.0, size=k)
    w = w / w.sum()
    return ProbVec(tuple(f"l{j}" for j in range(k)), tuple(float(x) for x in w))


def random_net(rng, n_min: int = 5, n_max: int = 7) -> BayesNet:
    """A random small net with strictly positive CPTs.

    Declaration order is a topological order; each variable picks up to
    two earlier parents and 2 or 3 levels.
    """
    n = int(rng.integers(n_min, n_max + 1))
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
        n_rows = 1
        for ls in plevels:
            n_rows *= len(ls)
        rows = []
        for _ in range(n_rows):
            w = rng.uniform(0.05, 1.0, size=k)
            w = w / w.sum()
            rows.append(ProbVec(levels, tuple(float(x) for x in w)))
        variables.append(Variable(name, levels))
        cpts.append(Cpt.of(name, levels, ps, plevels, rows))
    return BayesNet.of(variables, cpts)


def chain_net(rng, n: int) -> BayesNet:
    """Binary X1..Xn where each Xi has parents X(i-2) and X(i-1)."""
    names = [f"X{i}" for i in range(1, n + 1)]
    levels = ("s0", "s1")
    variables = [Variable(name, levels) for name in names]
    cpts = []
    for i, name in enumerate(names):
        ps = tuple(names[max(0, i - 2):i])
        w = rng.uniform(0.05, 1.0, size=(2 ** len(ps), 2))
        cpts.append(Cpt.of(name, levels, ps, (levels,) * len(ps),
                           w / w.sum(axis=1, keepdims=True)))
    return BayesNet.of(variables, cpts)


def shuffle_parents(net: BayesNet, rng) -> BayesNet:
    """The same net with each table's parents listed in a random order."""
    cpts = []
    for t in net.cpts:
        order = rng.permutation(len(t.parents)).tolist()
        grid = t.grid().transpose(order + [len(order)])
        cpts.append(Cpt.of(t.child, t.child_levels,
                           tuple(t.parents[j] for j in order),
                           tuple(t.parent_levels[j] for j in order),
                           grid.reshape(-1, len(t.child_levels))))
    return BayesNet.of(net.variables, cpts)


def reweight_joint(joint: JointTable, sub: JointTable,
                   fresh: np.ndarray) -> JointTable:
    """The joint with the margin over ``sub.scope`` replaced by ``fresh``.

    Every conditional of the rest given ``sub.scope`` is untouched:
    q(x) = p(x) * fresh(u(x)) / p(u(x)).  The original margin must be
    strictly positive.
    """
    shape = [1] * len(joint.scope)
    for ax, name in enumerate(sub.scope):
        shape[joint.scope.index(name)] = sub.cards[ax]
    ratio = (fresh / sub.mass).reshape(shape)
    grid = joint.grid() * ratio
    return JointTable(joint.scope, joint.cards, grid.reshape(-1))


def reference_configs(net: BayesNet, names) -> list[tuple[str, ...]]:
    """Every level configuration of ``names`` by nested loops, first
    name most significant."""
    out = [()]
    for n in names:
        out = [c + (lv,) for c in out for lv in net.variable(n).levels]
    return out


def reference_transition_table(net: BayesNet, outputs, given) -> Cpt:
    """P(outputs | given) one configuration at a time, off the full joint.

    The plain definition the vectorized oracle kernel replaced: for each
    conditioning configuration, slice the margin over both sets, divide
    by the slice's mass, and read each output column, with mass 0 where
    the column disagrees with the row on a shared variable.
    """
    outs = net.sorted_by_position(set(outputs))
    conds = net.sorted_by_position(set(given))
    union = net.sorted_by_position(set(outs) | set(conds))
    grid = marginal_of(joint_mass(net), union).grid()
    upos = {name: i for i, name in enumerate(union)}
    out_configs = reference_configs(net, outs)
    rows = []
    for cond in reference_configs(net, conds):
        fixed = dict(zip(conds, cond))
        sel = [slice(None)] * len(union)
        for name, lv in fixed.items():
            sel[upos[name]] = net.variable(name).levels.index(lv)
        block = grid[tuple(sel)]
        denom = float(block.sum())
        if denom <= 0.0:
            raise DomainError("conditioning configuration has zero probability")
        free = [name for name in union if name not in fixed]
        mass = []
        for oc in out_configs:
            want = dict(zip(outs, oc))
            if any(want[n] != fixed[n] for n in want if n in fixed):
                mass.append(0.0)
                continue
            pick = tuple(net.variable(n).levels.index(want[n]) for n in free)
            mass.append(float(block[pick]) / denom)
        rows.append(mass)
    if len(outs) == 1:
        labels = net.variable(outs[0]).levels
    else:
        labels = tuple(",".join(c) for c in out_configs)
    return Cpt(",".join(outs), labels, conds,
               tuple(net.variable(n).levels for n in conds),
               tuple(ProbVec(labels, r) for r in rows))


# Closed-form bounds on diameters and margins; the lemma tests and the
# A7 property suites check them, and no library path prices with them.


def joint_perturb_bound(d_pi: float, P1: Cpt, P2: Cpt) -> float:
    """Margin TV bound when the table itself is also perturbed.

    Takes the tightest of the two available forms (the superbound form
    and the diameter form) clamped to 1.
    """
    if not 0.0 <= d_pi <= 1.0:
        raise DomainError(f"TV distance out of range: {d_pi}")
    dvp = cpt_tv_plus(P1, P2)
    star_form = dvp + d_pi * cpt_superbound(P1, P2)
    diam_form = (1.0 + d_pi) * dvp + d_pi * max(diameter(P1), diameter(P2))
    return min(1.0, star_form, diam_form)


def joint_tv_bound(dv_marginal: float, sup_conditional_tv: float) -> float:
    """TV between two joints from a margin TV and a conditional TV cap."""
    for x in (dv_marginal, sup_conditional_tv):
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"TV distance out of range: {x}")
    return min(1.0, dv_marginal + sup_conditional_tv)


def chain_diameter_bound(d1: float, d2: float) -> float:
    """Diameter bound for a two-block conditional via the chain sum."""
    for x in (d1, d2):
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"diameter out of range: {x}")
    return min(1.0, d1 + d2)


def diameter_sum_bound(P: Cpt) -> float:
    """Sum of per-parent diameters, clamped to 1; at least the diameter."""
    total = 0.0
    for j in range(len(P.parents)):
        total += parent_diameter(P, j)
    return min(1.0, total)


def reference_diameter(rows) -> float:
    """Largest half-L1 distance between two rows of a 2-d array."""
    rows = np.asarray(rows, dtype=np.float64)
    gaps = np.abs(rows[:, None, :] - rows[None, :, :]).sum(axis=2)
    return 0.5 * float(gaps.max())


# Scalar references: the per-row, label-driven loops the grid kernels in
# tv_core and advisors replaced.  The kernels must match them with ==.


def scalar_diameter(P: Cpt):
    """(diameter, witness): strictly larger pairs win, lowest (i, j) first."""
    best, pair = 0.0, (0, 0)
    for i in range(len(P.rows)):
        for j in range(i + 1, len(P.rows)):
            d = tv_distance(P.rows[i], P.rows[j])
            if d > best:
                best, pair = d, (i, j)
    return best, pair


def scalar_superbound(P: Cpt, Q: Cpt):
    """(superbound, witness) over every (P row, Q row) pair."""
    best, pair = -1.0, (0, 0)
    for i, p in enumerate(P.rows):
        for j, q in enumerate(Q.rows):
            d = tv_distance(p, q)
            if d > best:
                best, pair = d, (i, j)
    return best, pair


def _config_with(j: int, fixed, level) -> list:
    """Parent labels with ``fixed`` on the other parents and ``level`` at j."""
    config = list(fixed)
    config.insert(j, level)
    return config


def scalar_parent_diameter(P: Cpt, j: int) -> float:
    best = 0.0
    others = [P.parent_levels[i] for i in range(len(P.parents)) if i != j]
    for fixed in itertools.product(*others):
        rows = [P.rows[P.row_index(_config_with(j, fixed, lv))]
                for lv in P.parent_levels[j]]
        for a, b in itertools.combinations(rows, 2):
            best = max(best, tv_distance(a, b))
    return best


def scalar_mix(weights, rows) -> tuple[float, ...]:
    """Convex combination added term by term, column by column."""
    mass = [0.0] * len(rows[0].mass)
    for w, r in zip(weights, rows):
        for k, x in enumerate(r.mass):
            mass[k] += w * x
    return tuple(mass)


def scalar_collapse_parent(P: Cpt, j: int):
    """Mass tuples of the rows of P with parent ``j`` averaged out."""
    n = len(P.parent_levels[j])
    others = [P.parent_levels[i] for i in range(len(P.parents)) if i != j]
    out = []
    for fixed in itertools.product(*others):
        group = [P.rows[P.row_index(_config_with(j, fixed, lv))]
                 for lv in P.parent_levels[j]]
        out.append(scalar_mix([1.0 / n] * n, group))
    return out


def scalar_delete_edge_cost(P: Cpt, j: int, merged: Cpt) -> float:
    cost = 0.0
    for i, row in enumerate(P.rows):
        config = list(P.parent_config(i))
        del config[j]
        counterpart = merged.rows[merged.row_index(config)]
        cost = max(cost, tv_distance(row, counterpart))
    return cost


def scalar_counterpart_cost(original: Cpt, merged: Cpt, j: int,
                            to_new) -> float:
    cost = 0.0
    for i, row in enumerate(original.rows):
        config = list(original.parent_config(i))
        config[j] = to_new[config[j]]
        counterpart = merged.rows[merged.row_index(config)]
        cost = max(cost, tv_distance(row, counterpart))
    return cost


def scalar_pair_costs(net: BayesNet, variable: str):
    """Unsorted (level pair, cost) for every consecutive pair."""
    levels = net.variable(variable).levels
    out = []
    for a, b in zip(levels, levels[1:]):
        cost = 0.0
        for t in net.cpts:
            if variable not in t.parents:
                continue
            j = t.parents.index(variable)
            for i, row in enumerate(t.rows):
                config = list(t.parent_config(i))
                if config[j] != a:
                    continue
                config[j] = b
                other = t.rows[t.row_index(config)]
                cost = max(cost, tv_distance(row, other))
        out.append(((a, b), cost))
    return out


def random_table(rng, k: int, cards, ties: bool = False) -> Cpt:
    """A CPT with a ``k``-level child over parents with ``cards`` levels.

    With ``ties`` the rows repeat a few distinct vectors, so several row
    pairs attain the diameter and the witness rule is exercised.
    """
    levels = tuple(f"l{i}" for i in range(k))
    plevels = tuple(tuple(f"p{a}{b}" for b in range(c))
                    for a, c in enumerate(cards))
    n = int(np.prod(cards, dtype=np.int64))
    pool = [random_vector(rng, k) for _ in range(3 if ties else n)]
    rows = [ProbVec(levels, pool[int(rng.integers(len(pool)))].mass
                    if ties else pool[i].mass) for i in range(n)]
    return Cpt.of("C", levels, tuple(f"P{a}" for a in range(len(cards))),
                  plevels, rows)


def scalar_topological_order(net: BayesNet) -> tuple[str, ...]:
    """The rescan loop ``topological_order`` replaced: place the first
    declared variable whose parents are all placed, then scan again."""
    names = [v.name for v in net.variables]
    known = set(names)
    pending = {
        v.name: [p for p in t.parents if p in known]
        for v, t in zip(net.variables, net.cpts)
    }
    order = []
    placed = set()
    while len(order) < len(names):
        progressed = False
        for n in names:
            if n in placed:
                continue
            if all(p in placed for p in pending[n]):
                order.append(n)
                placed.add(n)
                progressed = True
                break
        if not progressed:
            stuck = [n for n in names if n not in placed]
            raise DomainError("cycle detected involving " + ", ".join(stuck))
    return tuple(order)


def reference_priority(net: BayesNet, targets) -> tuple[PriorityRecord, ...]:
    """``elicitation_priority`` as a plain enumeration of directed paths:
    every walk backwards over parent edges from a target that steps onto
    no target is a path from its last variable to the first target it
    meets, worth the product of ``scalar_parent_diameter`` over its
    edges; a variable scores min(1, the sum of its paths).  Targets get
    (1.0, "a target") and variables outside the ancestral set of the
    targets (0.0, "not an ancestor of the target")."""
    ancestors = ancestral_set(net, targets)
    targets = set(targets)
    total = dict.fromkeys(ancestors, 0.0)

    def walk(child, product):
        t = net.cpt(child)
        for j, p in enumerate(t.parents):
            if p not in targets:
                term = product * scalar_parent_diameter(t, j)
                total[p] += term
                walk(p, term)

    for t in targets:
        walk(t, 1.0)
    records = []
    for v in net.variables:
        if v.name in targets:
            records.append(PriorityRecord(v.name, 1.0, "a target"))
        elif v.name not in ancestors:
            records.append(PriorityRecord(v.name, 0.0,
                                          "not an ancestor of the target"))
        else:
            w = total[v.name]
            records.append(PriorityRecord(
                v.name, min(1.0, w),
                "" if w else "no influence path to the target"))
    records.sort(key=lambda r: -round(r.score, 9))
    return tuple(records)


def reference_row_error(doc):
    """The per-cell row check ``parse_model`` ran on every cell of every
    table, in document order: the ParseError text for the first row that
    is not an array or cell that is not a number, or None."""
    for i, entry in enumerate(doc["cpts"]):
        for k, raw in enumerate(entry["rows"]):
            rloc = f"cpts[{i}].rows[{k}]"
            if not isinstance(raw, list):
                return str(ParseError("row must be an array", location=rloc))
            for m, x in enumerate(raw):
                if not isinstance(x, (int, float)) or isinstance(x, bool):
                    return str(ParseError("probability must be a number",
                                          location=f"{rloc}[{m}]"))
    return None


def reference_parse_error(doc):
    """The structural walk of ``parse_model`` over a decoded document,
    one plain check per field, level, parent and cell in document order:
    the ParseError for the first defect, or None.  Validation is not
    run."""
    def field(obj, key, kind, loc):
        if key not in obj:
            raise ParseError(f"missing field {key!r}", location=loc)
        value = obj[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ParseError(f"field {key!r} has the wrong type",
                             location=f"{loc}.{key}")
        return value

    def no_extras(obj, allowed, loc):
        extras = [k for k in obj if k not in allowed]
        if extras:
            raise ParseError("unexpected field(s) "
                             + ", ".join(map(repr, extras)), location=loc)

    try:
        if not isinstance(doc, dict):
            raise ParseError("top level must be an object",
                             location="document")
        no_extras(doc, ("format_version", "variables", "cpts"), "document")
        version = field(doc, "format_version", str, "document")
        if version != "1":
            raise ParseError(f"unsupported format_version {version!r}",
                             location="format_version")
        raw_vars = field(doc, "variables", list, "document")
        if not raw_vars:
            raise ParseError("empty variables list", location="variables")
        names = []
        for i, entry in enumerate(raw_vars):
            loc = f"variables[{i}]"
            if not isinstance(entry, dict):
                raise ParseError("variable must be an object", location=loc)
            no_extras(entry, ("name", "levels"), loc)
            name = field(entry, "name", str, loc)
            levels = field(entry, "levels", list, loc)
            if not levels:
                raise ParseError(f"variable {name!r} has no levels",
                                 location=f"{loc}.levels")
            for j, lv in enumerate(levels):
                if not isinstance(lv, str):
                    raise ParseError("level must be a string",
                                     location=f"{loc}.levels[{j}]")
            if name in names:
                raise ParseError(f"duplicate variable {name!r}",
                                 location=f"{loc}.name")
            names.append(name)
        raw_cpts = field(doc, "cpts", list, "document")
        seen = []
        for i, entry in enumerate(raw_cpts):
            loc = f"cpts[{i}]"
            if not isinstance(entry, dict):
                raise ParseError("cpt must be an object", location=loc)
            no_extras(entry, ("child", "parents", "rows"), loc)
            child = field(entry, "child", str, loc)
            if child not in names:
                raise ParseError(f"unknown variable {child!r}",
                                 location=f"{loc}.child")
            if child in seen:
                raise ParseError(f"duplicate cpt for {child!r}",
                                 location=f"{loc}.child")
            for j, p in enumerate(field(entry, "parents", list, loc)):
                if not isinstance(p, str):
                    raise ParseError("parent must be a string",
                                     location=f"{loc}.parents[{j}]")
                if p not in names:
                    raise ParseError(f"unknown variable {p!r}",
                                     location=f"{loc}.parents[{j}]")
            for k, raw in enumerate(field(entry, "rows", list, loc)):
                rloc = f"{loc}.rows[{k}]"
                if not isinstance(raw, list):
                    raise ParseError("row must be an array", location=rloc)
                for m, x in enumerate(raw):
                    if not isinstance(x, (int, float)) or isinstance(x, bool):
                        raise ParseError("probability must be a number",
                                         location=f"{rloc}[{m}]")
            seen.append(child)
        missing = [n for n in names if n not in seen]
        if missing:
            raise ParseError("missing cpt for "
                             + ", ".join(map(repr, missing)), location="cpts")
    except ParseError as e:
        return e
    return None


def reference_cpt_violations(t: Cpt) -> list[str]:
    """A table's problems with every row through ``ProbVec.violations``."""
    problems = []
    if len(t.child_levels) < 1:
        problems.append(f"{t.child}: no child levels")
    if len(set(t.child_levels)) != len(t.child_levels):
        problems.append(f"{t.child}: duplicate child levels")
    if len(t.parents) != len(t.parent_levels):
        problems.append(f"{t.child}: parent/level list size mismatch")
    if len(set(t.parents)) != len(t.parents):
        problems.append(f"{t.child}: duplicate parents")
    if len(t.rows) != t.n_rows:
        problems.append(f"{t.child}: {len(t.rows)} rows, expected {t.n_rows}")
    for i, row in enumerate(t.rows):
        if row.levels != t.child_levels:
            problems.append(f"{t.child}: row {i} has wrong levels")
        for p in row.violations():
            problems.append(f"{t.child}: row {i}: {p}")
    return problems


def reference_validate(net: BayesNet) -> list[str]:
    """``validate`` as the plain per-table, per-row loop it replaced: no
    row is cleared in bulk, every row of every table is checked in turn."""
    problems: list[str] = []
    names = [v.name for v in net.variables]
    if len(set(names)) != len(names):
        return ["duplicate variable names"]
    for v in net.variables:
        if not v.name:
            problems.append("empty variable name")
        if len(v.levels) < 1:
            problems.append(f"{v.name}: no levels")
        if len(set(v.levels)) != len(v.levels):
            problems.append(f"{v.name}: duplicate levels")
    if len(net.cpts) != len(net.variables):
        problems.append(
            f"{len(net.cpts)} CPTs for {len(net.variables)} variables")
        return problems
    by_name = {v.name: v for v in net.variables}
    for v, t in zip(net.variables, net.cpts):
        if t.child != v.name:
            problems.append(f"CPT for {t.child!r} attached to {v.name!r}")
            continue
        if t.child_levels != v.levels:
            problems.append(f"{v.name}: CPT levels disagree with variable")
        for j, p in enumerate(t.parents):
            if p not in by_name:
                problems.append(f"{v.name}: unknown parent {p!r}")
            elif (j < len(t.parent_levels)
                  and t.parent_levels[j] != by_name[p].levels):
                problems.append(f"{v.name}: parent {p!r} levels disagree")
        problems.extend(reference_cpt_violations(t))
    try:
        topological_order(net)
    except DomainError as e:
        problems.append(str(e))
    return problems


def reference_parse_model(text: str):
    """``parse_model(text, strict=False)`` as one plain build and a full
    check: decode, raise the per-field reference's ParseError, build
    each table on its own (rows that fit as an array, others as
    ProbVecs) and list the violations with ``reference_validate``."""
    doc = json.loads(text, parse_int=float)
    error = reference_parse_error(doc)
    if error is not None:
        raise error
    variables = [Variable(e["name"], tuple(e["levels"]))
                 for e in doc["variables"]]
    levels = {v.name: v.levels for v in variables}
    entry = {e["child"]: e for e in doc["cpts"]}
    cpts = []
    for v in variables:
        parents = tuple(entry[v.name]["parents"])
        parent_levels = tuple(levels[p] for p in parents)
        raw = entry[v.name]["rows"]
        n_rows = 1
        for ls in parent_levels:
            n_rows *= len(ls)
        if len(raw) == n_rows and all(len(r) == len(v.levels) for r in raw):
            rows = np.array(raw, dtype=np.float64).reshape(-1)
        else:
            rows = tuple(ProbVec(v.levels, r) for r in raw)
        cpts.append(Cpt(v.name, v.levels, parents, parent_levels, rows))
    net = BayesNet(tuple(variables), tuple(cpts))
    return net, reference_validate(net)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_same_net(got: BayesNet, want: BayesNet) -> None:
    """Equal variables and table labels, and bit-identical masses: the
    same grids where ``want`` has one, else the same rows."""
    assert got.variables == want.variables
    for a, b in zip(got.cpts, want.cpts, strict=True):
        assert ((a.child, a.child_levels, a.parents, a.parent_levels)
                == (b.child, b.child_levels, b.parents, b.parent_levels))
        assert (a._grid is None) == (b._grid is None)
        if b._grid is None:
            assert [r.levels for r in a.rows] == [r.levels for r in b.rows]
            assert [_bits(r.mass) for r in a.rows] == \
                [_bits(r.mass) for r in b.rows]
        else:
            assert a.grid().shape == b.grid().shape
            assert _bits(a.grid()) == _bits(b.grid())
            assert not a.grid().flags.writeable


def count_validate(monkeypatch) -> list:
    """Record every net passed to ``validate``, under every name that the
    tvrobust modules bind it to, and every net that ``parse_model``
    accepts without it (marked valid by ``cli_io._parsed_net``); returns
    the list of nets, one per whole-model check."""
    calls = []
    real = bn_model.validate
    real_parsed = cli_io._parsed_net

    def counted(net):
        calls.append(net)
        return real(net)

    def counted_parsed(doc):
        net = real_parsed(doc)
        if net._validated:
            calls.append(net)
        return net

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tvrobust" and \
                getattr(module, "validate", None) is real:
            monkeypatch.setattr(module, "validate", counted)
    monkeypatch.setattr(cli_io, "_parsed_net", counted_parsed)
    return calls


def reference_rip_order(m: int, tree_edges) -> tuple[int, ...]:
    """The sorted-frontier loop ``build_junction_tree`` ran: from clique
    0, place the lowest-index unplaced neighbour of a placed clique, or
    the lowest unplaced clique when none is left."""
    adj: dict[int, list[int]] = {i: [] for i in range(m)}
    for i, j, _ in tree_edges:
        adj[i].append(j)
        adj[j].append(i)
    rip: list[int] = []
    placed = set()
    while len(rip) < m:
        if not rip:
            pick = 0
        else:
            frontier = sorted(
                j for i in rip for j in adj[i] if j not in placed
            )
            pick = frontier[0] if frontier else min(
                i for i in range(m) if i not in placed
            )
        rip.append(pick)
        placed.add(pick)
    return tuple(rip)


def subgraph(g: UGraph, keep) -> UGraph:
    """``g`` restricted to the vertices in ``keep`` and the edges
    between them."""
    keep = set(keep)
    verts = tuple(v for v in g.vertices if v in keep)
    edges = tuple((a, b) for a, b in g.edges if a in keep and b in keep)
    return UGraph(verts, edges)


def reference_triangulate(g: UGraph) -> UGraph:
    """The full-scan min-fill loop ``triangulate`` ran: count the fill of
    every remaining vertex, eliminate the first with the least, and add
    its fill edges."""
    rank = {v: i for i, v in enumerate(g.vertices)}
    adj = g.neighbors()
    fill: set[tuple[str, str]] = set()
    remaining = sorted(adj, key=rank.get)
    while remaining:
        best_v, best_cost = None, None
        for v in remaining:
            cost = 0
            for a, b in itertools.combinations(adj[v], 2):
                if b not in adj[a]:
                    cost += 1
            if best_cost is None or cost < best_cost:
                best_v, best_cost = v, cost
        for a, b in itertools.combinations(adj[best_v], 2):
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
                fill.add((a, b))
        for u in adj[best_v]:
            adj[u].discard(best_v)
        del adj[best_v]
        remaining.remove(best_v)
    return UGraph(g.vertices, g.edges + tuple(fill))


def reference_path_tree(net: BayesNet, scopes) -> JunctionTree:
    """The junction tree of ``net``'s whole moral graph with every pair
    inside each set of ``scopes`` joined first, so that one clique holds
    each set: the bare-path tree as exact ``path_impact`` first built
    it, from ``moralize`` plus the completing pairs."""
    moral = moralize(net)
    pairs = tuple(e for s in scopes for e in itertools.combinations(s, 2))
    return build_junction_tree(UGraph(moral.vertices, moral.edges + pairs))


def junction_property_holds(jt: JunctionTree) -> bool:
    """Each variable's cliques must form a connected subtree."""
    adj = jt.neighbors()
    variables = sorted({v for c in jt.cliques for v in c})
    for v in variables:
        holding = [i for i, c in enumerate(jt.cliques) if v in c]
        if not holding:
            continue
        seen = {holding[0]}
        stack = [holding[0]]
        while stack:
            i = stack.pop()
            for j in adj[i]:
                if j not in seen and v in jt.cliques[j]:
                    seen.add(j)
                    stack.append(j)
        if set(holding) != seen:
            return False
    return True


def reference_simple_path(jt: JunctionTree, donor, target) -> CliquePath:
    """The ``simple_path`` that looked up each end by its member set, ran
    its own breadth-first search up to the goal and scanned the tree
    edges for each separator."""
    def clique_index(members) -> int:
        want = frozenset(members)
        for i, c in enumerate(jt.cliques):
            if frozenset(c) == want:
                return i
        raise DomainError(f"no clique with members {sorted(want)}")

    def separator(i: int, j: int) -> tuple[str, ...]:
        for a, b, s in jt.tree_edges:
            if (a, b) in ((i, j), (j, i)):
                return s
        raise DomainError(f"cliques {i} and {j} are not adjacent")

    start = clique_index(donor)
    goal = clique_index(target)
    adj = jt.neighbors()
    prev: dict[int, int] = {start: start}
    queue = [start]
    while queue:
        i = queue.pop(0)
        if i == goal:
            break
        for j in adj[i]:
            if j not in prev:
                prev[j] = i
                queue.append(j)
    if goal not in prev:
        raise DomainError("cliques are not connected in the tree")
    chain = [goal]
    while chain[-1] != start:
        chain.append(prev[chain[-1]])
    chain.reverse()
    cliques = tuple(jt.cliques[i] for i in chain)
    seps = tuple(
        separator(chain[k], chain[k + 1]) for k in range(len(chain) - 1)
    )
    return CliquePath(cliques, seps)


def reference_donor_target_path(net: BayesNet, donor, target):
    """``donor_target_path`` as two tree searches: one for the distance
    of every clique from the donor's, to pick the nearest target host
    (lowest index on ties), then ``reference_simple_path`` between the
    two member tuples.  The tree is that of the triangulated moral graph
    of the ancestral subnet with the donor and target sets joined, and
    carries ``reference_rip_order``.  A set the moral graph does not
    join is an error when its end separator holds one of its members."""
    donor = set(donor)
    target = set(target)
    if not donor or not target:
        raise DomainError("donor and target sets must be nonempty")
    moral = moralize(bn_model._ancestral_subnet(net, donor | target))
    pairs = tuple(e for s in (donor, target)
                  for e in itertools.combinations(s, 2))
    built = build_junction_tree(triangulate(
        UGraph(moral.vertices, moral.edges + pairs)))
    jt = JunctionTree(built.cliques, built.tree_edges, reference_rip_order(
        len(built.cliques), built.tree_edges))

    def candidates(members) -> list[int]:
        return [i for i, c in enumerate(jt.cliques)
                if members <= frozenset(c)]

    c_donor = candidates(donor)[0]
    hosts = candidates(target)
    dist = {c_donor: 0}
    frontier = [c_donor]
    adj = jt.neighbors()
    while frontier:
        i = frontier.pop(0)
        for j in adj[i]:
            if j not in dist:
                dist[j] = dist[i] + 1
                frontier.append(j)
    c_target = min(hosts, key=lambda i: (dist[i], i))
    path = reference_simple_path(jt, jt.cliques[c_donor],
                                 jt.cliques[c_target])
    # a set the moral graph does not join must keep its members out of
    # its end of the path
    near = moral.neighbors()
    if path.separators:
        for label, members, which, sep in (
                ("donor", donor, "first", path.separators[0]),
                ("target", target, "last", path.separators[-1])):
            if members & set(sep) and any(
                    b not in near[a]
                    for a, b in itertools.combinations(members, 2)):
                names = ", ".join(sorted(members, key=net.position))
                raise DomainError(
                    f"{label} set {{{names}}}, which the moral graph does "
                    f"not join, meets the {which} separator "
                    f"{{{', '.join(sep)}}} of its clique path; its factors "
                    "do not price that")
    return jt, path
