import copy
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tvrobust import (
    DomainError,
    ParseError,
    build_junction_tree,
    edge_deletion_report,
    emit_dot,
    model_document,
    moralize,
    parse_model,
    run_cli,
    serialize_model,
)
from tvrobust import cli_io
from tvrobust.cli_io import _emit_json

from conftest import (GOLDEN_DIR, MODELS_DIR, TESTS_DIR, assert_same_net,
                      count_validate, random_net, reference_parse_error,
                      reference_parse_model, reference_row_error)

FIXTURES = ("native_fish_fragment", "native_fish_variant",
            "ten_node_demo", "broken_model")


def _doc(**overrides):
    base = {
        "format_version": "1",
        "variables": [{"name": "A", "levels": ["t", "f"]}],
        "cpts": [{"child": "A", "parents": [], "rows": [[0.5, 0.5]]}],
    }
    base.update(overrides)
    return json.dumps(base)


@pytest.mark.parametrize("name", FIXTURES)
def test_serialize_round_trips_bytes(name):
    text = (MODELS_DIR / f"{name}.json").read_text()
    net, _ = parse_model(text, strict=False)
    assert serialize_model(net) == text


def test_serialize_is_a_fixed_point(fragment):
    once = serialize_model(fragment)
    again = serialize_model(parse_model(once))
    assert again == once


@pytest.mark.parametrize("text", [
    (MODELS_DIR / "nonfinite_model.json").read_text(),
    _doc().replace("[[0.5, 0.5]]", "[[Infinity, -Infinity]]")],
    ids=["nan", "inf"])
def test_serialize_round_trips_a_nonfinite_mass(text):
    net, problems = parse_model(text, strict=False)
    once = serialize_model(net)
    again, problems_again = parse_model(once, strict=False)
    assert problems and problems_again == problems
    assert serialize_model(again) == once


def test_model_document_shape(fragment):
    doc = model_document(fragment)
    assert doc["format_version"] == "1"
    assert [v["name"] for v in doc["variables"]] == [
        "Drought", "Rainfall", "TreeCondition"]
    assert doc["cpts"][2]["parents"] == ["Drought", "Rainfall"]
    assert len(doc["cpts"][2]["rows"]) == 6


def test_parse_reorders_cpts_to_variable_order():
    text = json.dumps({
        "format_version": "1",
        "variables": [{"name": "A", "levels": ["t", "f"]},
                      {"name": "B", "levels": ["t", "f"]}],
        "cpts": [
            {"child": "B", "parents": [], "rows": [[0.3, 0.7]]},
            {"child": "A", "parents": [], "rows": [[0.5, 0.5]]},
        ],
    })
    net = parse_model(text)
    assert [t.child for t in net.cpts] == ["A", "B"]


def test_parse_rejects_json_syntax_with_position():
    with pytest.raises(ParseError) as err:
        parse_model("{bad")
    assert err.value.location == "line 1, column 2"


def test_parse_rejects_non_object_document():
    with pytest.raises(ParseError) as err:
        parse_model("[1, 2]")
    assert err.value.location == "document"


def test_parse_rejects_unknown_format_version():
    with pytest.raises(ParseError) as err:
        parse_model(_doc(format_version="2"))
    assert "format_version" in str(err.value)


def test_parse_rejects_empty_variables():
    with pytest.raises(ParseError) as err:
        parse_model(_doc(variables=[], cpts=[]))
    assert err.value.location == "variables"


def test_parse_locates_bad_fields():
    with pytest.raises(ParseError) as err:
        parse_model(_doc(cpts=[{"child": "B", "parents": [],
                                "rows": [[0.5, 0.5]]}]))
    assert err.value.location == "cpts[0].child"
    with pytest.raises(ParseError) as err:
        parse_model(_doc(cpts=[]))
    assert err.value.location == "cpts"
    with pytest.raises(ParseError) as err:
        parse_model(_doc(cpts=[{"child": "A", "parents": [],
                                "rows": [[0.5, "x"]]}]))
    assert err.value.location == "cpts[0].rows[0][1]"
    with pytest.raises(ParseError) as err:
        parse_model(_doc(cpts=[{"child": "A", "parents": ["Z"],
                                "rows": [[0.5, 0.5], [0.5, 0.5]]}]))
    assert err.value.location == "cpts[0].parents[0]"
    with pytest.raises(ParseError) as err:
        parse_model(_doc(cpts=[{"child": "A", "parents": [],
                                "rows": [[0.5, 0.5]], "extra": 1}]))
    assert err.value.location == "cpts[0]"
    with pytest.raises(ParseError) as err:
        parse_model(_doc(
            variables=[{"name": "A", "levels": ["t", "f"]},
                       {"name": "A", "levels": ["t", "f"]}]))
    assert err.value.location == "variables[1].name"


def test_parse_strict_mode_runs_validation():
    bad = _doc(cpts=[{"child": "A", "parents": [], "rows": [[0.55, 0.5]]}])
    with pytest.raises(ParseError) as err:
        parse_model(bad)
    assert "failed validation" in str(err.value)
    net, violations = parse_model(bad, strict=False)
    assert violations
    assert net.names() == ("A",)


def _two_tables(rows_a, rows_b) -> dict:
    """A (three levels) and B | A (three levels, so three rows)."""
    return {
        "format_version": "1",
        "variables": [{"name": "A", "levels": ["a0", "a1", "a2"]},
                      {"name": "B", "levels": ["b0", "b1", "b2"]}],
        "cpts": [{"child": "A", "parents": [], "rows": rows_a},
                 {"child": "B", "parents": ["A"], "rows": rows_b}],
    }


GOOD_A = [[0.2, 0.3, 0.5]]
GOOD_B = [[0.1, 0.2, 0.7], [0.3, 0.3, 0.4], [0.6, 0.2, 0.2]]


def _row_defects():
    """(rows of A, rows of B) pairs with at least one malformed row or cell."""
    cases = []
    for bad in ({"p": 0.5}, "0.5", 0.5, None):
        cases.append(([bad], GOOD_B))
        for k in range(3):
            cases.append((GOOD_A, GOOD_B[:k] + [bad] + GOOD_B[k + 1:]))
    for bad in (True, False, "0.5", None, [0.5], {"p": 0.5}):
        cases.append(([[0.2, bad, 0.5]], GOOD_B))
        for k in range(3):
            for m in range(3):
                rows = [list(r) for r in GOOD_B]
                rows[k][m] = bad
                cases.append((GOOD_A, rows))
    # two defects: the first in document order is the one reported
    cases.append(([[0.2, 0.3, None]], [{}] + GOOD_B[1:]))
    cases.append((GOOD_A, [[0.1, 0.2, "x"], "row", GOOD_B[2]]))
    cases.append((GOOD_A, [GOOD_B[0], [None, 0.3, "x"], 5]))
    return cases


_DROP = object()


def _defect(*path, value):
    """Set the field at ``path`` of a document to ``value`` (remove it for
    _DROP; an empty path replaces the document).  A path that no longer
    leads anywhere, after another defect, leaves the document as it is.
    Each document gets its own copy of ``value``."""
    def apply(doc):
        if not path:
            return copy.deepcopy(value)
        node = doc
        try:
            for step in path[:-1]:
                node = node[step]
            if value is _DROP:
                del node[path[-1]]
            else:
                node[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass
        return doc
    return apply


def _field_defects():
    """Single structural defects of the two-variable document A -> B."""
    wrong = {str: (True, 1.0, None, [], {}),
             list: (True, 1.0, None, "x", {})}
    not_an_object = (True, 1.0, None, "x", ["A"])
    defects = [_defect(value=bad) for bad in not_an_object]
    defects += [_defect("extra", value=1.0),
                _defect("format_version", value=_DROP),
                _defect("format_version", value=True),
                _defect("format_version", value="2"),
                _defect("variables", value=_DROP),
                _defect("variables", value=True),
                _defect("variables", value=[]),
                _defect("cpts", value=_DROP),
                _defect("cpts", value=True),
                _defect("cpts", 1, value=_DROP)]  # a missing cpt
    for section, fields in (("variables", {"name": str, "levels": list}),
                            ("cpts", {"child": str, "parents": list,
                                      "rows": list})):
        for i in range(2):
            defects += [_defect(section, i, value=bad)
                        for bad in not_an_object]
            defects.append(_defect(section, i, "extra", value=1.0))
            for key, kind in fields.items():
                defects.append(_defect(section, i, key, value=_DROP))
                defects += [_defect(section, i, key, value=bad)
                            for bad in wrong[kind]]
        defects.append(_defect(section, 1, value={}))
    for i in range(2):
        defects.append(_defect("variables", i, "levels", value=[]))
        defects += [_defect("variables", i, "levels", j, value=bad)
                    for j in range(2) for bad in (True, 1.0, None, ["a"])]
        defects.append(_defect("cpts", i, "child", value="Z"))
    defects += [_defect("variables", 1, "name", value="A"),
                _defect("cpts", 1, "child", value="A"),
                _defect("cpts", 1, "parents", value=["Z"]),
                _defect("cpts", 1, "parents", value=["A", "Z"])]
    defects += [_defect("cpts", 1, "parents", 0, value=bad)
                for bad in (True, 1.0, None, ["A"])]
    defects += [_defect("cpts", 1, "rows", 1, value="row"),
                _defect("cpts", 0, "rows", 0, 1, value=True)]
    return defects


def _two_variables() -> dict:
    return {
        "format_version": "1",
        "variables": [{"name": "A", "levels": ["a0", "a1"]},
                      {"name": "B", "levels": ["b0", "b1"]}],
        "cpts": [{"child": "A", "parents": [], "rows": [[0.4, 0.6]]},
                 {"child": "B", "parents": ["A"],
                  "rows": [[0.1, 0.9], [0.7, 0.3]]}],
    }


def test_parse_errors_match_the_per_field_reference():
    defects = _field_defects()
    docs = [d(_two_variables()) for d in defects]
    docs += [second(first(_two_variables()))
             for first, second in itertools.permutations(defects, 2)]
    assert len(docs) == len(defects) ** 2 == 131 ** 2
    for doc in docs:
        text = json.dumps(doc)
        expected = reference_parse_error(json.loads(text, parse_int=float))
        assert expected is not None, text
        with pytest.raises(ParseError) as err:
            parse_model(text, strict=False)
        assert (str(err.value), err.value.location) == (
            str(expected), expected.location), text


def test_parse_row_errors_match_the_per_cell_reference():
    cases = _row_defects()
    assert len(cases) == 79
    for rows_a, rows_b in cases:
        text = json.dumps(_two_tables(rows_a, rows_b))
        expected = reference_row_error(json.loads(text, parse_int=float))
        assert expected is not None
        with pytest.raises(ParseError) as err:
            parse_model(text, strict=False)
        assert str(err.value) == expected, (rows_a, rows_b)


def test_parse_reads_well_formed_rows_as_floats():
    text = json.dumps(_two_tables([[0, 1, 0]], GOOD_B)).replace(
        "0.7", "7e-1")
    assert reference_row_error(json.loads(text, parse_int=float)) is None
    net = parse_model(text)
    assert net.cpt("A").rows[0].mass == (0.0, 1.0, 0.0)
    assert all(type(x) is float for x in net.cpt("A").rows[0].mass)
    assert [r.mass for r in net.cpt("B").rows] == [tuple(r) for r in GOOD_B]


@pytest.mark.parametrize("k", range(3))
def test_parse_keeps_an_empty_row_for_validation(k):
    text = json.dumps(_two_tables(GOOD_A, GOOD_B[:k] + [[]] + GOOD_B[k + 1:]))
    assert reference_row_error(json.loads(text)) is None
    net, violations = parse_model(text, strict=False)
    assert net.cpt("B").rows[k].mass == ()
    assert violations == [f"B: row {k}: 0 masses for 3 levels"]
    with pytest.raises(ParseError, match="0 masses for 3 levels"):
        parse_model(text)


# Loading against the plain build: parse_model accepts a clean document
# in whole-model passes and hands anything else to validate, so every
# defect below must come out as the table-by-table build plus a full
# check would report it.

def _grow_parents(doc, entry, parent) -> None:
    """Add ``parent`` last to ``entry``'s parents, each row repeated once
    per level of it, so the row count still fits."""
    card = next(len(v["levels"]) for v in doc["variables"]
                if v["name"] == parent)
    entry["parents"].append(parent)
    entry["rows"] = [list(r) for r in entry["rows"] for _ in range(card)]


def _mutate(doc, kind: str, rng) -> None:
    variables, cpts = doc["variables"], doc["cpts"]
    names = [v["name"] for v in variables]
    entry = cpts[int(rng.integers(len(cpts)))]
    rows = entry["rows"]
    row = rows[int(rng.integers(len(rows)))] if rows else []
    m = int(rng.integers(len(row))) if row else 0
    if kind == "drop row" and rows:
        rows.pop()
    elif kind == "extra row":
        rows.append(list(rows[0]) if rows else [])
    elif kind == "long row":
        row.append(0.0)
    elif kind == "short row" and row:
        row.pop()
    elif kind in ("negative", "nan", "inf", "-inf") and row:
        row[m] = {"negative": -abs(row[m]) - 0.1, "nan": math.nan,
                  "inf": math.inf, "-inf": -math.inf}[kind]
    elif kind.startswith("sum") and row:
        row[m] += float(kind.split()[1])
    elif kind == "duplicate level":
        levels = variables[int(rng.integers(len(variables)))]["levels"]
        levels[-1] = levels[0]
    elif kind == "duplicate parent":
        for c in cpts:
            if c["parents"]:
                _grow_parents(doc, c, c["parents"][0])
                break
    elif kind == "empty name":
        old = names[int(rng.integers(len(names)))]
        for v in variables:
            v["name"] = "" if v["name"] == old else v["name"]
        for c in cpts:
            c["child"] = "" if c["child"] == old else c["child"]
            c["parents"] = ["" if p == old else p for p in c["parents"]]
    elif kind == "self-loop":
        _grow_parents(doc, entry, entry["child"])
    elif kind == "back edge":
        # a later variable as parent of an earlier one: a cycle when the
        # earlier one is its ancestor, else an order that is not
        # topological
        i, j = sorted(rng.choice(len(names), size=2, replace=False))
        child = next(c for c in cpts if c["child"] == names[i])
        if names[j] not in child["parents"]:
            _grow_parents(doc, child, names[j])
    elif kind == "shuffle":
        rng.shuffle(variables)
        rng.shuffle(cpts)


LOAD_DEFECTS = ("drop row", "extra row", "long row", "short row", "negative",
                "nan", "inf", "-inf", "sum 4e-10", "sum -4e-10", "sum 6e-10",
                "sum -6e-10", "duplicate level", "duplicate parent",
                "empty name", "self-loop", "back edge", "shuffle")


def _assert_loads_as_reference(text: str) -> list[str] | None:
    """``parse_model`` in both modes against ``reference_parse_model``;
    returns the violations, or None for a ParseError."""
    try:
        want, violations = reference_parse_model(text)
    except ParseError as e:
        for strict in (False, True):
            with pytest.raises(ParseError) as err:
                parse_model(text, strict=strict)
            assert str(err.value) == str(e)
        return None
    got, got_violations = parse_model(text, strict=False)
    assert got_violations == violations
    assert_same_net(got, want)
    assert got._validated == (not violations)
    if violations:
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert str(err.value) == str(ParseError(
            "model failed validation: " + "; ".join(violations)))
    else:
        assert_same_net(parse_model(text), want)
    return violations


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from(LOAD_DEFECTS), max_size=3))
def test_parse_model_matches_the_plain_build_and_validate(seed, kinds):
    rng = np.random.default_rng(seed)
    doc = model_document(random_net(rng, 2, 8))
    for kind in kinds:
        _mutate(doc, kind, rng)
    _assert_loads_as_reference(json.dumps(doc))


@pytest.mark.parametrize("kind", LOAD_DEFECTS)
def test_each_load_defect_is_named_as_the_plain_build_names_it(kind):
    seen = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        doc = model_document(random_net(rng, 4, 8))
        _mutate(doc, kind, rng)
        text = json.dumps(doc)
        violations = _assert_loads_as_reference(text)
        # an unmarked net is left to validate, which names any violation
        net = cli_io._parsed_net(json.loads(text, parse_int=float))
        seen.add(("violation" if violations else "clean",
                  "whole-model" if net._validated else "validate"))
    if kind in ("sum 4e-10", "sum -4e-10", "shuffle"):
        assert seen == {("clean", "whole-model")}
    elif kind in ("sum 6e-10", "sum -6e-10"):
        # past the bulk margin but within tolerance: validate clears it
        assert seen == {("clean", "validate")}
    elif kind == "back edge":
        assert seen == {("clean", "whole-model"), ("violation", "validate")}
    else:
        assert seen == {("violation", "validate")}


def test_huge_integer_mass_is_a_nonfinite_violation(tmp_path, capsys):
    # json reads the integer exactly; as a float it overflows to inf
    text = _doc().replace("[[0.5, 0.5]]", "[[1" + "0" * 400 + ", 0]]")
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert run_cli(["validate", str(path)]) == 1
    assert "A: row 0: non-finite mass" in capsys.readouterr().out
    with pytest.raises(ParseError, match="non-finite mass"):
        parse_model(text)


def test_emit_dot_edge_report_matches_golden(fragment):
    got = emit_dot(fragment, edge_deletion_report(fragment))
    assert got == (GOLDEN_DIR / "edges_fragment.dot").read_text()


def test_emit_dot_junction_tree_matches_golden(ten_node):
    jt = build_junction_tree(moralize(ten_node))
    got = emit_dot(ten_node, jt)
    assert got == (GOLDEN_DIR / "jt_ten_node.dot").read_text()


def test_emit_dot_edgeless_model():
    net = parse_model(json.dumps({
        "format_version": "1",
        "variables": [{"name": "A", "levels": ["t", "f"]}],
        "cpts": [{"child": "A", "parents": [], "rows": [[0.5, 0.5]]}],
    }))
    got = emit_dot(net, edge_deletion_report(net))
    assert '"A";' in got
    assert "->" not in got


def test_emit_dot_rejects_mismatched_annotations(fragment, ten_node):
    with pytest.raises(DomainError):
        emit_dot(fragment, edge_deletion_report(ten_node))
    with pytest.raises(DomainError):
        emit_dot(fragment, build_junction_tree(moralize(ten_node)))
    with pytest.raises(DomainError):
        emit_dot(fragment, "edges")


# ---------------------------------------------------------------------------
# the command line


GOLDEN_COMMANDS = [
    ("validate_broken.txt", 1,
     ["validate", "models/broken_model.json"]),
    ("validate_nonfinite.txt", 1,
     ["validate", "models/nonfinite_model.json"]),
    ("diameters_fragment.txt", 0,
     ["diameters", "models/native_fish_fragment.json"]),
    ("edges_fragment.txt", 0,
     ["edges", "models/native_fish_fragment.json"]),
    ("edges_fragment.dot", 0,
     ["edges", "--dot", "models/native_fish_fragment.json"]),
    ("jt_ten_node.dot", 0,
     ["report", "--dot", "models/ten_node_demo.json"]),
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
    # a ten-level child: sums over 8+ terms must keep their order
    ("diameters_wide_child.json", 0,
     ["diameters", "--json", "models/wide_child.json"]),
    ("edges_wide_child.json", 0,
     ["edges", "--json", "models/wide_child.json"]),
    ("delete_edge_wide_child.json", 0,
     ["delete-edge", "--from", "A", "--to", "C", "--json",
      "models/wide_child.json"]),
    ("amalgamate_wide_child.json", 0,
     ["amalgamate", "--group", "c0,c1,c2,c3,c4,c5,c6,c7,c8", "--json",
      "models/wide_child.json", "C"]),
    # a moral graph with a chordless five-cycle: the tree needs fill
    ("report_five_cycle.json", 0,
     ["report", "--json", "models/five_cycle.json"]),
    ("impact_five_cycle_bound.json", 0,
     ["impact", "--from", "A", "--to", "F", "--mode", "bound", "--json",
      "models/five_cycle.json"]),
    ("impact_five_cycle_exact.json", 0,
     ["impact", "--from", "A", "--to", "F", "--mode", "exact", "--json",
      "models/five_cycle.json"]),
    ("path_five_cycle.json", 0,
     ["path", "--from", "A", "--to", "F", "--json",
      "models/five_cycle.json"]),
    ("validate_broken.json", 1,
     ["validate", "--json", "models/broken_model.json"]),
    ("amalgamate_suggest_rainfall.json", 0,
     ["amalgamate", "--json", "models/native_fish_fragment.json",
      "Rainfall"]),
    # non-ASCII names and levels: escaped in values and in the costs keys
    ("amalgamate_non_ascii.json", 0,
     ["amalgamate", "--group", "gering,mäßig", "--json",
      "models/non_ascii_names.json", "Niederschlag"]),
    ("impact_five_cycle_exact.txt", 0,
     ["impact", "--from", "A", "--to", "F", "--mode", "exact",
      "models/five_cycle.json"]),
    ("impact_ten_node_bound.txt", 0,
     ["impact", "--from", "X1", "--to", "X9", "--mode", "bound",
      "models/ten_node_demo.json"]),
    ("path_five_cycle.txt", 0,
     ["path", "--from", "A", "--to", "F", "models/five_cycle.json"]),
    ("report_fragment.txt", 0,
     ["report", "models/native_fish_fragment.json"]),
    ("report_five_cycle.txt", 0,
     ["report", "models/five_cycle.json"]),
    ("amalgamate_group_rainfall.txt", 0,
     ["amalgamate", "--group", "below average,average",
      "models/native_fish_fragment.json", "Rainfall"]),
    ("delete_edge_wide_child.txt", 0,
     ["delete-edge", "--from", "A", "--to", "C",
      "models/wide_child.json"]),
]


@pytest.mark.parametrize("golden,code,argv",
                         GOLDEN_COMMANDS,
                         ids=[g for g, _, _ in GOLDEN_COMMANDS])
def test_cli_output_matches_golden(golden, code, argv, capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    assert run_cli(argv) == code
    out = capsys.readouterr().out
    assert out == (GOLDEN_DIR / golden).read_text()


_NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 100, 2 ** 100),
    st.floats(), _NONFINITE, st.floats().map(np.float64),
    st.text(max_size=8))
# lists of floats alone take the writer's per-item path
_FLOAT_ROWS = st.lists(st.one_of(st.floats(), _NONFINITE), min_size=1,
                       max_size=6)
# tables of equal-length float rows, as lists or tuples, take its
# one-template path
_FLOAT_TABLES = st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(st.one_of(st.floats(), _NONFINITE), min_size=k, max_size=k)
    | st.lists(st.floats(), min_size=k, max_size=k).map(tuple),
    min_size=1, max_size=4))
_STRING_LISTS = st.lists(st.text(max_size=8), min_size=1, max_size=6)


def _containers(children):
    return st.one_of(st.lists(children, max_size=4),
                     st.lists(children, max_size=4).map(tuple),
                     st.dictionaries(st.text(max_size=8), children,
                                     max_size=4))


@given(doc=st.dictionaries(st.text(max_size=8), st.recursive(
    _SCALARS | _FLOAT_ROWS | _FLOAT_TABLES | _STRING_LISTS, _containers,
    max_leaves=20), max_size=4))
@example(doc={
    "rows": [[0.1, math.nan, math.inf, -math.inf], [1e-300, -0.0, 5e17]],
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
    "D\u00fcrre \u2028": "m\u00e4\u00dfig\x00\x1f\t\"\\ \U0001f332",
    "empty": [{}, [], ()], "tuple": (1, (2.5, 3.5), "x"),
    "scalars": [True, False, None, 2 ** 70, -(2 ** 90), np.float64(0.1)],
    "np_row": [np.float64(0.25), np.float64(math.nan)],
    "mixed": [0.5, "0.5", None, 1, [0.5], math.nan],
})
@example(doc={
    "cpts": [{"rows": [[0.1, 0.2, 0.7], [0.25, 0.25, 0.5]]},
             {"rows": [[0.5, 0.5]]}],
    "ragged": [[0.1, 0.9], [1.0]], "empty_row": [[0.5, 0.5], []],
    "np_row": [[0.5, 0.5], [np.float64(0.25), 0.75]],
    "bool_int": [[0.5, True], [1, 0.5], [0.5, 0.5]],
    "specials": [[math.nan, math.inf], [-math.inf, -0.0],
                 [5e-324, 1e16]],
    "tuple_rows": ((0.25, 0.75), (0.5, 0.5)),
    "mixed_rows": [(0.1, 0.9), [0.2, 0.8]],
    "levels": ["D\u00fcrre", "\x00\x1f\t\"\\", "\u2028", "\U0001f332",
               "", "average"],
})
@settings(max_examples=300, deadline=None)
def test_emit_json_equals_json_dumps_indent_two(doc):
    assert _emit_json(doc) == json.dumps(doc, indent=2) + "\n"


def test_a_json_run_renders_no_text(capsys, monkeypatch):
    """--json prints the document a command builds and runs no text
    renderer."""
    def no_text(doc):
        raise AssertionError(f"{doc['command']} rendered text")
    for name, (build, _) in list(cli_io._COMMANDS.items()):
        monkeypatch.setitem(cli_io._COMMANDS, name, (build, no_text))
    monkeypatch.chdir(TESTS_DIR)
    fragment = "models/native_fish_fragment.json"
    runs = [
        (["validate", "models/broken_model.json"], 1),
        (["validate", fragment], 0),
        (["diameters", fragment], 0),
        (["edges", fragment], 0),
        (["impact", "--from", "A", "--to", "F", "models/five_cycle.json"], 0),
        (["path", "--from", "A", "--to", "F", "models/five_cycle.json"], 0),
        (["amalgamate", fragment, "Rainfall"], 0),
        (["amalgamate", fragment, "Rainfall", "--group",
          "below average,average"], 0),
        (["delete-edge", "--from", "A", "--to", "C",
          "models/wide_child.json"], 0),
        (["report", "models/five_cycle.json"], 0),
    ]
    assert {argv[0] for argv, _ in runs} == set(cli_io._COMMANDS)
    for argv, code in runs:
        assert run_cli(argv + ["--json"]) == code
        assert json.loads(capsys.readouterr().out)["command"] == argv[0]
    with pytest.raises(AssertionError, match="diameters rendered text"):
        run_cli(["diameters", fragment])


def test_cli_is_deterministic(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    argv = ["report", "--json", "models/ten_node_demo.json"]
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == first


def test_cli_validate_ok_line(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    assert run_cli(["validate", "models/native_fish_fragment.json"]) == 0
    out = capsys.readouterr().out
    assert out == "models/native_fish_fragment.json: ok\n"


def test_cli_usage_errors_exit_two(capsys):
    assert run_cli([]) == 2
    assert run_cli(["frobnicate", "x.json"]) == 2
    assert run_cli(["impact", "models/ten_node_demo.json"]) == 2
    assert run_cli(["amalgamate", "--var", "Rainfall", "x.json"]) == 2
    # --dot and --json exclude each other, in either order
    assert run_cli(["edges", "models/ten_node_demo.json", "--dot",
                    "--json"]) == 2
    assert run_cli(["report", "models/ten_node_demo.json", "--json",
                    "--dot"]) == 2
    assert capsys.readouterr().out == ""


def test_cli_missing_file_exits_one(capsys):
    assert run_cli(["diameters", "no_such_model.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_cli_domain_errors_exit_one(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    argv = ["impact", "--from", "X1,X9", "--to", "X5",
            "models/ten_node_demo.json"]
    assert run_cli(argv) == 1
    assert capsys.readouterr() == (
        "", "error: donor set {X1, X9}, which the moral graph does not "
        "join, meets the first separator {X2, X9} of its clique path; its "
        "factors do not price that\n")


def test_cli_model_that_is_not_utf8_exits_one(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"variables": [{"name": "Säule"}]}'.encode("latin-1"))
    assert run_cli(["validate", str(latin1)]) == 1
    assert capsys.readouterr() == (
        "", f"error: model file is not valid UTF-8 (at {latin1})\n")


_COLLIDER_PATH = """path:
  {A}
    | {}
  {B}
factors:
  P(() | A) = 0 [empty separator]
"""


def test_cli_independent_parents_of_one_child_have_an_empty_separator(
        capsys, monkeypatch):
    # A, B -> C: A and B are married only through C, which is no
    # ancestor of either, so they share no clique and no influence
    monkeypatch.chdir(TESTS_DIR)
    query = ["--from", "A", "--to", "B", "models/collider.json"]
    assert run_cli(["impact", *query, "--mode", "exact"]) == 0
    assert capsys.readouterr() == (
        "impact of {A} on {B} (exact mode): 0\n" + _COLLIDER_PATH
        + "  P(B | ()) = 0 [oracle]\n", "")
    assert run_cli(["impact", *query, "--mode", "bound"]) == 0
    assert capsys.readouterr() == (
        "impact of {A} on {B} (bound mode): 0\n" + _COLLIDER_PATH
        + "  P(B | ()) = 0 [cpt-bound]\n"
        "    B: 0.0 from its CPT diameter\n", "")
    assert run_cli(["path", *query]) == 0
    assert capsys.readouterr() == (
        "cliques:\n  {A}\n  {B}\nseparators:\n  {}\n", "")


def test_cli_deeply_nested_model_is_one_error_line(tmp_path, capsys):
    # deeper than the JSON decoder's recursion limit
    text = "[" * 100000 + "]" * 100000
    with pytest.raises(ParseError) as e:
        parse_model(text)
    assert e.value.location == "document"
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    assert run_cli(["validate", str(deep)]) == 1
    assert capsys.readouterr() == (
        "", "error: arrays or objects nested too deeply (at document)\n")


def test_cli_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run_cli(["diameters", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_cli_limit_flag_trips(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    argv = ["impact", "--from", "X1", "--to", "X9", "--limit", "4",
            "models/ten_node_demo.json"]
    assert run_cli(argv) == 1
    assert "limit" in capsys.readouterr().err


def test_cli_limit_flag_spares_bound_mode(capsys, monkeypatch):
    # bound mode never touches the oracle, so the cap does not bite
    monkeypatch.chdir(TESTS_DIR)
    argv = ["impact", "--from", "X1", "--to", "X9", "--mode", "bound",
            "--limit", "4", "models/ten_node_demo.json"]
    assert run_cli(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("impact of {X1} on {X9} (bound mode): ")
    assert err == ""


@pytest.mark.parametrize("flag,message", [
    (["--limit", "0"], "state limit must be positive, got 0"),
    (["--limit", "-5"], "state limit must be positive, got -5"),
], ids=["flag_zero", "flag_negative"])
def test_cli_malformed_limit_fails_alike_in_both_modes(flag, message,
                                                       capsys, monkeypatch):
    # bound mode applies no cap, but a malformed one is still an error
    monkeypatch.chdir(TESTS_DIR)
    for mode in ("exact", "bound"):
        argv = ["impact", "--from", "X1", "--to", "X9", "--mode", mode,
                *flag, "models/ten_node_demo.json"]
        assert run_cli(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_amalgamate_apply_json_round_trips(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    argv = ["amalgamate", "models/native_fish_fragment.json", "Rainfall",
            "--group", "below average,average", "--json"]
    assert run_cli(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["merged_level"] == "below average+average"
    assert doc["costs"] == {"TreeCondition": pytest.approx(0.05)}
    inner = parse_model(json.dumps(doc["model_after"]))
    assert inner.variable("Rainfall").levels == (
        "below average+average", "above average")


def test_cli_delete_edge_json_round_trips(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    argv = ["delete-edge", "--from", "Rainfall", "--to", "TreeCondition",
            "--json", "models/native_fish_fragment.json"]
    assert run_cli(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cost"] == pytest.approx(0.1)
    inner = parse_model(json.dumps(doc["model_after"]))
    assert inner.cpt("TreeCondition").parents == ("Drought",)


def test_cli_path_command_lists_cliques(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    argv = ["path", "--from", "X1", "--to", "X9",
            "models/ten_node_demo.json"]
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert "{X1, X2}" in out
    assert "{X7, X9}" in out


@pytest.mark.parametrize("command", ("impact", "path"))
@pytest.mark.parametrize("json_flag", ([], ["--json"]))
def test_cli_names_a_repeated_name_once(command, json_flag, capsys,
                                        monkeypatch):
    """A name given twice in ``--from`` or ``--to`` counts once, its
    first place kept: the output is that of the names given once."""
    monkeypatch.chdir(TESTS_DIR)
    outs = []
    for donor, target in (("X1,X1,X2", "X9, X7,X9"), ("X1,X2", "X9,X7")):
        argv = [command, "models/ten_node_demo.json", "--from", donor,
                "--to", target, *json_flag]
        assert run_cli(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    if json_flag:
        doc = json.loads(outs[0])
        assert (doc["donor"], doc["target"]) == (["X1", "X2"], ["X9", "X7"])
    elif command == "impact":
        assert outs[0].startswith("impact of {X1, X2} on {X9, X7} ")


def test_cli_path_of_one_clique_lists_no_separator(capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    argv = ["path", "--from", "Drought", "--to", "TreeCondition",
            "models/native_fish_fragment.json"]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == (
        "cliques:\n  {Drought, Rainfall, TreeCondition}\n"
        "separators:\n  (none)\n")


def test_cli_delete_edge_of_a_last_parent_prints_a_bare_row_header(
        capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    argv = ["delete-edge", "--from", "X1", "--to", "X2",
            "models/ten_node_demo.json"]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == (
        "removed X1 -> X2 (cost 0.253878)\nrows of X2:\n"
        "  (): 0.580734 0.419266\n")


def test_cli_report_of_a_model_without_edges(tmp_path, capsys):
    model = tmp_path / "roots.json"
    model.write_text(_doc(
        variables=[{"name": "A", "levels": ["t", "f"]},
                   {"name": "B", "levels": ["t", "f"]}],
        cpts=[{"child": "A", "parents": [], "rows": [[0.5, 0.5]]},
              {"child": "B", "parents": [], "rows": [[0.25, 0.75]]}]))
    assert run_cli(["report", str(model)]) == 0
    out = capsys.readouterr().out
    assert "\nedge deletion costs:\n  (none)\njunction tree:\n" in out


def _readme_examples():
    """(argv, expected lines) of each ``$ tvrobust ...`` run in README's
    "Command line" section; a run whose shown output ends in ``...``
    expects only the lines before the cut."""
    text = (TESTS_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("A few runs", 1)[1].split("```")[1]
    runs = []
    for chunk in block.strip().split("\n\n"):
        command, *lines = chunk.splitlines()
        assert command.startswith("$ tvrobust ")
        runs.append((command.split()[2:], lines))
    return runs


def test_readme_command_line_examples_print_what_readme_shows(
        capsys, monkeypatch):
    monkeypatch.chdir(TESTS_DIR.parent)
    runs = _readme_examples()
    assert [argv[0] for argv, _ in runs] == ["diameters", "edges", "impact",
                                            "amalgamate"]
    for argv, lines in runs:
        assert run_cli(argv) == 0
        out = capsys.readouterr().out.splitlines()
        if lines[-1].strip() == "...":
            lines = lines[:-1]
            out = out[:len(lines)]
        assert out == lines, argv


def test_readme_library_example_prints_what_readme_says(capsys,
                                                       monkeypatch):
    """README's one ``python`` block runs from the repository root and
    prints two diameters, then an exact impact no larger than its
    bound."""
    monkeypatch.chdir(TESTS_DIR.parent)
    text = (TESTS_DIR.parent / "README.md").read_text(encoding="utf-8")
    blocks = text.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```", 1)[0], "README.md", "exec"), {})
    values = [float(line) for line in capsys.readouterr().out.splitlines()]
    assert len(values) == 4
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values[2] <= values[3]


def _run_module(argv, **env):
    """(exit code, stdout, stderr) of ``python -m tvrobust`` in a fresh
    process, run in the tests directory on this checkout's source with
    this interpreter's import path and ``env`` as its whole environment,
    writing no byte code into the source tree."""
    path = [str(TESTS_DIR.parent / "src")] + [p for p in sys.path if p]
    proc = subprocess.run(
        [sys.executable, "-m", "tvrobust"] + argv, cwd=TESTS_DIR,
        env=dict(PYTHONPATH=os.pathsep.join(path),
                 PYTHONDONTWRITEBYTECODE="1", **env),
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", [
    ["report", "--json", "models/ten_node_demo.json"],
    ["impact", "--from", "X1", "--to", "X9", "--json",
     "models/ten_node_demo.json"],
    ["impact", "--from", "X1", "--to", "X9", "--mode", "bound", "--json",
     "models/ten_node_demo.json"],
    ["report", "--json", "models/five_cycle.json"],
    ["impact", "--from", "A", "--to", "F", "--mode", "exact", "--json",
     "models/five_cycle.json"],
    # the largest documents the JSON writer prints
    ["delete-edge", "--from", "A", "--to", "C", "--json",
     "models/wide_child.json"],
    ["amalgamate", "--group", "c0,c1,c2,c3,c4,c5,c6,c7,c8", "--json",
     "models/wide_child.json", "C"],
    # several unknown names: the first one given is reported
    ["impact", "--from", "X1", "--to", "Pa,Qb,Rc",
     "models/ten_node_demo.json"],
    # text output, rendered from the command's document
    ["impact", "--from", "A", "--to", "F", "--mode", "exact",
     "models/five_cycle.json"],
    ["impact", "--from", "X1", "--to", "X9", "--mode", "bound",
     "models/ten_node_demo.json"],
    ["path", "--from", "A", "--to", "F", "models/five_cycle.json"],
    ["report", "models/five_cycle.json"],
    ["amalgamate", "--group", "gering,mäßig",
     "models/non_ascii_names.json", "Niederschlag"],
    # a donor set that shares a clique only once it is made complete
    ["impact", "models/ten_node_demo.json", "--from", "X4,X6", "--to", "X9",
     "--mode", "exact"],
    # a 40-variable random net whose ancestral moral graph has many tied
    # fill costs; the tree build walks neighbour sets in hash order
    ["impact", "--from", "V0", "--to", "V33", "--mode", "exact", "--json",
     "models/random_forty.json"],
    ["path", "--from", "V0", "--to", "V33", "models/random_forty.json"],
], ids=["report", "impact_exact", "impact_bound", "report_five_cycle",
        "impact_exact_five_cycle", "delete_edge_wide_child",
        "amalgamate_wide_child", "unknown_targets", "impact_exact_text",
        "impact_bound_text", "path_text", "report_text",
        "amalgamate_group_text", "impact_completed_donor_text",
        "impact_exact_random_forty", "path_random_forty"])
def test_cli_stdout_is_stable_across_hash_seeds(argv):
    outputs = [_run_module(argv, PYTHONHASHSEED=seed)
               for seed in ("0", "1", "2", "3")]
    if "Pa,Qb,Rc" in argv:
        assert outputs[0] == (1, "", "error: unknown variable 'Pa'\n")
    else:
        assert outputs[0][0] == 0
    assert outputs[1:] == outputs[:1] * 3


def test_run_cli_in_one_process_matches_fresh_processes(capsys, monkeypatch):
    # help and usage text wrap to the terminal width, read from COLUMNS
    monkeypatch.chdir(TESTS_DIR)
    monkeypatch.setenv("COLUMNS", "80")
    usage_error = ["impact", "models/ten_node_demo.json"]
    sequence = [
        usage_error,
        ["--help"],
        ["frobnicate", "x.json"],
        ["validate", "models/native_fish_fragment.json"],
        ["impact", "--from", "X1", "--to", "X9", "--json",
         "models/ten_node_demo.json"],
        usage_error,
    ]
    in_process = []
    for argv in sequence:
        code = run_cli(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_process] == [2, 0, 2, 0, 0, 2]
    assert in_process == [_run_module(argv, COLUMNS="80")
                          for argv in sequence]


def test_cli_amalgamate_name_collision_exits_one(tmp_path, capsys):
    model = tmp_path / "collide.json"
    model.write_text(json.dumps({
        "format_version": "1",
        "variables": [{"name": "X", "levels": ["a", "b", "a+b"]},
                      {"name": "Y", "levels": ["t", "f"]}],
        "cpts": [{"child": "X", "parents": [], "rows": [[0.2, 0.3, 0.5]]},
                 {"child": "Y", "parents": ["X"],
                  "rows": [[0.1, 0.9], [0.4, 0.6], [0.8, 0.2]]}],
    }))
    assert run_cli(["amalgamate", str(model), "X", "--group", "a,b"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "'a+b' is already a level" in captured.err


@pytest.mark.parametrize("group", ["above average,below average",
                                   "below average,above average"])
def test_cli_amalgamate_nominal_names_the_level_it_writes(group, capsys,
                                                         monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    argv = ["amalgamate", "models/native_fish_fragment.json", "Rainfall",
            "--group", group, "--nominal"]
    assert run_cli(argv + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    levels = doc["model_after"]["variables"][1]["levels"]
    assert levels == ["below average+above average", "average"]
    assert doc["group"] == group.split(",")
    assert doc["merged_level"] in levels
    assert doc["merged_level"] == "below average+above average"
    assert run_cli(argv) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == ("merged levels of Rainfall into "
                     "'below average+above average'")



@pytest.mark.parametrize("argv", [
    ["edges", "models/native_fish_fragment.json"],
    ["report", "--json", "models/native_fish_fragment.json"],
    ["impact", "models/ten_node_demo.json", "--from", "X1", "--to", "X8"],
])
def test_cli_validates_a_valid_model_once(argv, capsys, monkeypatch):
    calls = count_validate(monkeypatch)
    monkeypatch.chdir(TESTS_DIR)
    assert run_cli(argv) == 0
    assert len(calls) == 1
