"""Output checker, run by the parent after the timed loop has ended.

Each distinct (query, exit code, stdout, stderr) outcome is checked
once.  Table numbers are compared with short numpy references written
here from the definitions, not with tvrobust's own kernels; exact
impact values are compared with ``path_impact`` on the unreduced net.
"""

from __future__ import annotations

import json
import re

import numpy as np

from tvrobust import parse_model, path_impact
from tvrobust.errors import DomainError
from tvrobust.jtree import CliquePath

TOL = 1e-9
_DIAMETER_TERM = re.compile(r"^(\S+): (\S+) from its CPT diameter")
_FIXED_TERM = re.compile(r"^(\S+): 1 \(fixed by conditioning set\)$")


class CheckError(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _close(a: float, b: float, what: str) -> None:
    _expect(abs(a - b) <= TOL, f"{what}: {a!r} != reference {b!r}")


# ---------------------------------------------------------------------------
# numpy references


def grid(cpt) -> np.ndarray:
    """The table as an array of shape (*parent cards, child card)."""
    shape = [len(ls) for ls in cpt.parent_levels] + [len(cpt.child_levels)]
    return np.array([row.mass for row in cpt.rows]).reshape(shape)


def _max_pair_tv(a: np.ndarray) -> float:
    """Largest TV between two vectors along axis -2, over leading axes."""
    if a.shape[-2] < 2:
        return 0.0
    d = np.abs(a[..., :, None, :] - a[..., None, :, :]).sum(-1)
    return float(0.5 * d.max())


def ref_diameter(cpt) -> float:
    g = grid(cpt)
    return _max_pair_tv(g.reshape(-1, g.shape[-1]))


def ref_parent_diameter(cpt, j: int) -> float:
    return _max_pair_tv(np.moveaxis(grid(cpt), j, -2))


def ref_pair_cost(net, variable: str, a: int, b: int) -> float:
    cost = 0.0
    for t in net.cpts:
        if variable in t.parents:
            g = grid(t)
            j = t.parents.index(variable)
            d = np.abs(np.take(g, a, axis=j) - np.take(g, b, axis=j))
            cost = max(cost, float(0.5 * d.sum(-1).max()))
    return cost


def _row_cost(before: np.ndarray, after: np.ndarray) -> float:
    return float(0.5 * np.abs(before - after).sum(-1).max())


# ---------------------------------------------------------------------------
# per-command checks


def _doc(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CheckError(f"output is not JSON: {e}")


def _check_ranked(values, ascending: bool, what: str) -> None:
    keys = [round(v, 9) for v in values]
    _expect(keys == sorted(keys, reverse=not ascending), f"{what} not sorted")


def _check_diameters(net, rows) -> None:
    _expect([r["variable"] for r in rows] == list(net.names()),
            "diameter rows do not follow declaration order")
    for r in rows:
        _close(r["value"], ref_diameter(net.cpt(r["variable"])),
               f"diameter of {r['variable']}")


def _check_edges(net, rows) -> None:
    _expect(sorted((r["parent"], r["child"]) for r in rows)
            == sorted(net.edges()), "edge list differs from the net's edges")
    for r in rows:
        t = net.cpt(r["child"])
        _close(r["delta"], ref_parent_diameter(t, t.parents.index(r["parent"])),
               f"delta of {r['parent']} -> {r['child']}")
    _check_ranked([r["delta"] for r in rows], False, "edges")


def _check_path(net, cliques, separators, donor, target) -> CliquePath:
    _expect(len(cliques) >= 1 and len(separators) == len(cliques) - 1,
            "separator count does not match the path")
    for i, s in enumerate(separators):
        _expect(set(s) == set(cliques[i]) & set(cliques[i + 1]),
                f"separator {i} is not the clique intersection")
    _expect(set(donor) <= set(cliques[0]), "donor not in the first clique")
    _expect(set(target) <= set(cliques[-1]), "target not in the last clique")
    names = set(net.names())
    _expect(all(set(c) <= names for c in cliques), "unknown path variable")
    return CliquePath(tuple(tuple(c) for c in cliques),
                      tuple(tuple(s) for s in separators))


def _check_bound_factor(net, factor) -> None:
    if factor["provenance"] == "empty separator":
        _expect(factor["value"] == 0.0, "empty separator factor is not 0")
        return
    _expect(factor["provenance"] == "cpt-bound", "unexpected provenance")
    total = 0.0
    for term in factor["terms"]:
        fixed = _FIXED_TERM.match(term)
        m = _DIAMETER_TERM.match(term)
        if fixed:
            total += 1.0
        else:
            _expect(m is not None, f"unreadable term {term!r}")
            d = float(m.group(2))
            _close(d, ref_diameter(net.cpt(m.group(1))),
                   f"diameter term of {m.group(1)}")
            total += d
    _close(factor["value"], min(1.0, total), f"factor {factor['table']}")


def _check_impact(net, argv, code, doc_text, err) -> None:
    mode = argv[argv.index("--mode") + 1]
    donor, target = [argv[argv.index("--from") + 1]], [argv[argv.index("--to") + 1]]
    if code == 1 and mode == "bound":
        _expect(err.startswith("error: cannot bound ")
                and "descendant" in err,
                f"unexpected error: {err.strip()}")
        return
    _expect(code == 0, f"exit code {code}: {err.strip()}")
    doc = _doc(doc_text)
    _expect(doc["mode"] == mode, "mode differs")
    path = _check_path(net, doc["path"]["cliques"], doc["path"]["separators"],
                       donor, target)
    product = 1.0
    for f in doc["factors"]:
        product *= f["value"]
    _close(doc["value"], min(1.0, product), "value vs factor product")
    _expect(0.0 <= doc["value"] <= 1.0, "impact outside [0, 1]")
    if len(path.cliques) == 1:
        _expect(doc["value"] == 1.0 and [f["provenance"] for f in
                                          doc["factors"]] == ["convention"],
                "a one-clique path must have impact 1 by convention")
        return
    if mode == "bound":
        for f in doc["factors"]:
            _check_bound_factor(net, f)
        return
    _close(doc["value"], path_impact(net, path, "exact").value,
           "exact impact vs the unreduced net")
    try:
        bound = path_impact(net, path, "bound").value
    except DomainError:
        return
    _expect(doc["value"] <= bound + TOL,
            f"exact value {doc['value']!r} above bound {bound!r}")


def _check_priority(net, text) -> None:
    records = _doc(text)
    _expect(sorted(r[0] for r in records) == sorted(net.names()),
            "priority does not list every variable once")
    scores = [r[1] for r in records]
    scored = [s for s in scores if s is not None]
    _expect(scores[:len(scored)] == scored, "scoreless records not last")
    _expect(all(0.0 <= s <= 1.0 for s in scored), "score outside [0, 1]")
    _check_ranked(scored, False, "priority")


def _reparse(doc) -> object:
    try:
        return parse_model(json.dumps(doc["model_after"]))
    except DomainError as e:
        raise CheckError(f"model_after does not re-parse: {e}")


def _check_unchanged(net, after, skip) -> None:
    for t in net.cpts:
        if t.child not in skip:
            _expect(after.cpt(t.child) == t, f"table {t.child} changed")


def _check_delete_edge(net, doc) -> None:
    parent, child = doc["parent"], doc["child"]
    after = _reparse(doc)
    before_t, after_t = net.cpt(child), after.cpt(child)
    j = before_t.parents.index(parent)
    _expect(after_t.parents == before_t.parents[:j] + before_t.parents[j + 1:],
            "parents after deletion")
    g = grid(before_t)
    mean = g.mean(axis=j)
    _expect(np.allclose(grid(after_t), mean, rtol=0, atol=TOL),
            "merged rows are not uniform averages")
    _close(doc["cost"], _row_cost(g, np.expand_dims(mean, j)), "cost")
    _check_unchanged(net, after, {child})


def _check_amalgamate_group(net, argv, doc) -> None:
    variable, group = doc["variable"], doc["group"]
    after = _reparse(doc)
    levels = net.variable(variable).levels
    idx = [levels.index(lv) for lv in group]
    first = min(idx)
    if "--nominal" not in argv:
        _expect(idx == list(range(first, first + len(idx))),
                "group is not consecutive")
    merged = "+".join(levels[i] for i in sorted(idx))
    new_levels = tuple(merged if i == first else lv
                       for i, lv in enumerate(levels) if i == first
                       or i not in idx)
    _expect(after.variable(variable).levels == new_levels, "merged levels")
    keep = [i for i in range(len(levels)) if i not in idx]
    new_index = [new_levels.index(merged if i in idx else levels[i])
                 for i in range(len(levels))]

    g = grid(net.cpt(variable))
    summed = np.zeros(g.shape[:-1] + (len(new_levels),))
    for i, k in enumerate(new_index):
        summed[..., k] += g[..., i]
    _expect(np.allclose(grid(after.cpt(variable)), summed, rtol=0, atol=TOL),
            f"columns of {variable} not summed")

    changed = {variable}
    for t in net.cpts:
        if variable not in t.parents:
            continue
        changed.add(t.child)
        j = t.parents.index(variable)
        g = grid(t)
        mean = np.take(g, idx, axis=j).mean(axis=j, keepdims=True)
        expect = np.concatenate(
            [mean if i == first else np.take(g, [i], axis=j)
             for i in sorted(keep + [first])], axis=j)
        _expect(np.allclose(grid(after.cpt(t.child)), expect, rtol=0,
                            atol=TOL),
                f"rows of {t.child} are not uniform averages")
        counterpart = np.take(expect, new_index, axis=j)
        _close(doc["costs"][t.child], _row_cost(g, counterpart),
               f"cost of {t.child}")
    _expect(set(doc["costs"]) == changed - {variable}, "cost list")
    _check_unchanged(net, after, changed)


def check_outcome(net, query, code, text, err) -> None:
    """Raise CheckError unless the outcome is correct for the query."""
    if "call" in query:
        _expect(code == 0 and not err, "priority call failed")
        _check_priority(net, text)
        return
    argv = query["argv"]
    cmd = argv[0]
    if cmd == "impact":
        _check_impact(net, argv, code, text, err)
        return
    _expect(code == 0 and not err, f"exit code {code}: {err.strip()}")
    if cmd == "validate":
        _expect(text == f"{argv[1]}: ok\n", f"unexpected output {text!r}")
        return
    doc = _doc(text)
    if cmd == "path":
        _check_path(net, doc["cliques"], doc["separators"],
                    [argv[argv.index("--from") + 1]],
                    [argv[argv.index("--to") + 1]])
    elif cmd == "diameters":
        _check_diameters(net, doc["diameters"])
    elif cmd == "edges":
        _check_edges(net, doc["edges"])
    elif cmd == "report":
        _expect(doc["ok"] is True, "report not ok")
        _check_diameters(net, doc["diameters"])
        _check_edges(net, doc["edges"])
        jt = doc["junction_tree"]
        cliques = [set(c) for c in jt["cliques"]]
        for t in net.cpts:
            _expect(any({t.child, *t.parents} <= c for c in cliques),
                    f"family of {t.child} in no clique")
        for e in jt["edges"]:
            i, j = e["between"]
            _expect(set(e["separator"]) == cliques[i] & cliques[j],
                    "junction tree separator")
    elif cmd == "delete-edge":
        _check_delete_edge(net, doc)
    elif cmd == "amalgamate" and "--group" in argv:
        _check_amalgamate_group(net, argv, doc)
    elif cmd == "amalgamate":
        variable = argv[2]
        levels = net.variable(variable).levels
        rows = doc["candidates"]
        _expect(sorted(tuple(r["levels"]) for r in rows)
                == sorted(zip(levels, levels[1:])), "candidate pairs")
        for r in rows:
            a = levels.index(r["levels"][0])
            _close(r["cost"], ref_pair_cost(net, variable, a, a + 1),
                   f"cost of merging {r['levels']}")
        _check_ranked([r["cost"] for r in rows], True, "candidates")
    else:
        raise CheckError(f"no check for command {cmd!r}")


def failures(nets, queries, outcomes) -> list[str | None]:
    """One entry per outcome: None when correct, else the reason."""
    verdicts = []
    for qi, code, text, err in outcomes:
        query = queries[qi]
        try:
            check_outcome(nets[query["model"]], query, code, text, err)
            verdicts.append(None)
        except (CheckError, LookupError, TypeError, ValueError,
                AttributeError) as e:
            what = " ".join(query["argv"]) if "argv" in query \
                else query["call"][0]
            verdicts.append(f"{what}: {type(e).__name__}: {e}")
    return verdicts
