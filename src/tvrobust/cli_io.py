"""Model files, reports, DOT export, and the command-line surface.

The model format is a small versioned JSON document:

    {
      "format_version": "1",
      "variables": [
        {"name": "Drought", "levels": ["yes", "no"]}
      ],
      "cpts": [
        {"child": "Drought", "parents": [], "rows": [[0.25, 0.75]]}
      ]
    }

Rows are indexed by parent configuration with the first parent most
significant, exactly as Cpt stores them.  Serialization is canonical:
fixed key order, two-space indentation, probabilities printed with 17
significant digits so every float round-trips to the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .advisors import (
    EdgeReport,
    amalgamate_levels,
    amalgamation_suggest,
    delete_edge,
    edge_deletion_report,
)
from .bn_model import (BayesNet, Variable, _validate_and_mark,
                       topological_order)
from .bounds import path_impact
from .errors import DomainError, ParseError, ResourceLimitError
from .jtree import (JunctionTree, build_junction_tree, donor_target_path,
                    moralize)
from .tv_core import Cpt, ProbVec, _bad_rows, diameter

FORMAT_VERSION = "1"


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _f6(x: float) -> str:
    return format(float(x), ".6g")


def _f3(x: float) -> str:
    return format(float(x), ".3f")


# ---------------------------------------------------------------------------
# parsing


def _where(section: str, i: int | None = None) -> str:
    """The location of entry ``i`` of ``section``, or of the section."""
    return section if i is None else f"{section}[{i}]"


def _field(obj: dict, key: str, kind, section: str, i: int | None = None):
    """``obj[key]``, whose JSON type must be ``kind``; ``obj`` is entry
    ``i`` of ``section``, named only in an error."""
    if key not in obj:
        raise ParseError(f"missing field {key!r}", location=_where(section, i))
    value = obj[key]
    if type(value) is not kind:
        raise ParseError(f"field {key!r} has the wrong type",
                         location=f"{_where(section, i)}.{key}")
    return value


def _no_extras(obj: dict, allowed: frozenset, section: str,
               i: int | None = None):
    if not allowed.issuperset(obj):
        extras = [k for k in obj if k not in allowed]
        raise ParseError("unexpected field(s) " + ", ".join(map(repr, extras)),
                         location=_where(section, i))


_DOCUMENT_FIELDS = frozenset(("format_version", "variables", "cpts"))
_VARIABLE_FIELDS = frozenset(("name", "levels"))
_CPT_FIELDS = frozenset(("child", "parents", "rows"))


def _well_formed(doc) -> bool:
    """Whether ``_locate_defect`` finds nothing in ``doc``, decided by a
    few checks over whole lists instead of one per field."""
    if not (type(doc) is dict and doc.keys() == _DOCUMENT_FIELDS
            and doc["format_version"] == FORMAT_VERSION):
        return False
    raw_vars, raw_cpts = doc["variables"], doc["cpts"]
    if not (type(raw_vars) is list and type(raw_cpts) is list and raw_vars
            and set(map(type, raw_vars)) == {dict}
            and set(map(type, raw_cpts)) <= {dict}
            and set(map(len, raw_vars)) == {2}
            and set(map(len, raw_cpts)) <= {3}):
        return False
    try:
        names = [entry["name"] for entry in raw_vars]
        levels = [entry["levels"] for entry in raw_vars]
        children = [entry["child"] for entry in raw_cpts]
        parents = [entry["parents"] for entry in raw_cpts]
        rows = [entry["rows"] for entry in raw_cpts]
    except KeyError:
        return False
    chain = itertools.chain.from_iterable
    # each test runs only once those before it hold
    return (set(map(type, names)) == {str}
            and set(map(type, levels)) == {list} and all(levels)
            and set(map(type, chain(levels))) == {str}
            and len(set(names)) == len(names) == len(children)
            and set(map(type, children)) == {str}
            and set(children) == set(names)
            and set(map(type, parents)) <= {list}
            and set(map(type, chain(parents))) <= {str}
            and set(names).issuperset(chain(parents))
            and set(map(type, rows)) <= {list}
            and set(map(type, chain(rows))) <= {list}
            and set(map(type, chain(chain(rows)))) <= {float})


def _locate_defect(doc) -> None:
    """Raise a ParseError naming the first structural defect of ``doc``
    in document order, with its location; return if there is none."""
    if type(doc) is not dict:
        raise ParseError("top level must be an object", location="document")
    _no_extras(doc, _DOCUMENT_FIELDS, "document")
    version = _field(doc, "format_version", str, "document")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}",
                         location="format_version")
    raw_vars = _field(doc, "variables", list, "document")
    if not raw_vars:
        raise ParseError("empty variables list", location="variables")
    names: set[str] = set()
    for i, entry in enumerate(raw_vars):
        if type(entry) is not dict:
            raise ParseError("variable must be an object",
                             location=_where("variables", i))
        _no_extras(entry, _VARIABLE_FIELDS, "variables", i)
        name = _field(entry, "name", str, "variables", i)
        levels = _field(entry, "levels", list, "variables", i)
        if not levels:
            raise ParseError(f"variable {name!r} has no levels",
                             location=f"variables[{i}].levels")
        for j, lv in enumerate(levels):
            if type(lv) is not str:
                raise ParseError("level must be a string",
                                 location=f"variables[{i}].levels[{j}]")
        if name in names:
            raise ParseError(f"duplicate variable {name!r}",
                             location=f"variables[{i}].name")
        names.add(name)
    raw_cpts = _field(doc, "cpts", list, "document")
    children: set[str] = set()
    for i, entry in enumerate(raw_cpts):
        if type(entry) is not dict:
            raise ParseError("cpt must be an object",
                             location=_where("cpts", i))
        _no_extras(entry, _CPT_FIELDS, "cpts", i)
        child = _field(entry, "child", str, "cpts", i)
        if child not in names:
            raise ParseError(f"unknown variable {child!r}",
                             location=f"cpts[{i}].child")
        if child in children:
            raise ParseError(f"duplicate cpt for {child!r}",
                             location=f"cpts[{i}].child")
        children.add(child)
        for j, p in enumerate(_field(entry, "parents", list, "cpts", i)):
            if type(p) is not str:
                raise ParseError("parent must be a string",
                                 location=f"cpts[{i}].parents[{j}]")
            if p not in names:
                raise ParseError(f"unknown variable {p!r}",
                                 location=f"cpts[{i}].parents[{j}]")
        for k, raw in enumerate(_field(entry, "rows", list, "cpts", i)):
            if type(raw) is not list:
                raise ParseError("row must be an array",
                                 location=f"cpts[{i}].rows[{k}]")
            for m, x in enumerate(raw):
                if type(x) is not float:
                    raise ParseError("probability must be a number",
                                     location=f"cpts[{i}].rows[{k}][{m}]")
    missing = [e["name"] for e in raw_vars if e["name"] not in children]
    if missing:
        raise ParseError("missing cpt for " + ", ".join(map(repr, missing)),
                         location="cpts")


def _parsed_net(doc) -> BayesNet:
    """The net of a well-formed ``doc``, marked valid unless ``validate``
    may find something: building it gives unique names and known parents
    over their levels, so it checks for empty names, duplicate levels or
    parents, row counts and widths, masses and cycles."""
    levels = {v["name"]: tuple(v["levels"]) for v in doc["variables"]}
    entries = {t["child"]: t for t in doc["cpts"]}
    clean = all(levels) and all(len(set(ls)) == len(ls)
                                for ls in levels.values())
    span, by_width = {}, {}  # a fitting table's rows in its width's block
    for name, ls in levels.items():
        parents, rows = entries[name]["parents"], entries[name]["rows"]
        if (len(rows) == math.prod(len(levels[p]) for p in parents)
                and set(map(len, rows)) == {len(ls)}):
            block = by_width.setdefault(len(ls), [])
            span[name] = slice(len(block), len(block) + len(rows))
            block.extend(rows)
        clean = clean and name in span and len(set(parents)) == len(parents)
    blocks = {}
    for k, rows in by_width.items():
        flat = np.fromiter(itertools.chain.from_iterable(rows), np.float64,
                           len(rows) * k)
        flat.setflags(write=False)  # then no view of it can be writeable
        blocks[k] = flat.reshape(-1, k)
        clean = clean and not _bad_rows(blocks[k]).any()
    cpts = []
    for name, ls in levels.items():
        parents = tuple(entries[name]["parents"])
        parent_levels = tuple([levels[p] for p in parents])
        if name in span:
            grid = blocks[len(ls)][span[name]].reshape(
                tuple(map(len, parent_levels)) + (len(ls),))
            cpts.append(Cpt._over(name, ls, parents, parent_levels, grid))
        else:
            rows = [ProbVec(ls, raw) for raw in entries[name]["rows"]]
            cpts.append(Cpt(name, ls, parents, parent_levels, rows))
    net = BayesNet(tuple(itertools.starmap(Variable, levels.items())),
                   tuple(cpts))
    try:
        topological_order(net)
    except DomainError:  # a cycle
        clean = False
    object.__setattr__(net, "_validated", clean)
    return net


def parse_model(text: str, strict: bool = True):
    """Read a model document into a BayesNet.

    With ``strict`` (the default) a net that fails validation raises a
    ParseError; with ``strict=False`` the pair (net, violations) comes
    back instead so a caller can report the violations itself.
    Structural problems (bad JSON, unknown names, wrong shapes) raise
    either way, with the offending location in the message.  A
    well-formed document costs a few checks over whole lists; only a
    malformed one is walked field by field, to locate its first defect.
    It is then built and checked in passes over the whole model, each
    grid a read-only view into one array per row width; ``validate`` runs
    only to name what that finds.  Nothing is cached between calls.
    """
    try:
        # an integer too large for a float reads as inf, a violation
        doc = json.loads(text, parse_int=float)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, location=f"line {e.lineno}, column {e.colno}")
    except RecursionError:
        raise ParseError("arrays or objects nested too deeply",
                         location="document")
    if not _well_formed(doc):
        _locate_defect(doc)
    net = _parsed_net(doc)
    violations = _validate_and_mark(net)
    if strict and violations:
        raise ParseError("model failed validation: " + "; ".join(violations))
    return net if strict else (net, violations)


# ---------------------------------------------------------------------------
# serialization


def model_document(net: BayesNet) -> dict:
    """The model as the plain document structure the serializer writes."""
    return {
        "format_version": FORMAT_VERSION,
        "variables": [
            {"name": v.name, "levels": list(v.levels)}
            for v in net.variables
        ],
        "cpts": [
            {
                "child": t.child,
                "parents": list(t.parents),
                "rows": t._mass_rows(),
            }
            for t in net.cpts
        ],
    }


def _canonical(value, indent: str) -> str:
    """``value`` in the canonical layout, its closing bracket on a line
    indented by ``indent``.  A list of scalars takes one line, as does an
    object whose fields all fit on one; any other list or object takes a
    line per item.  A list of floats, such as a row, prints them with
    17 significant digits."""
    if isinstance(value, list) and set(map(type, value)) <= {float}:
        return "[" + ", ".join(map(_f17, value)) + "]"
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}: {_canonical(v, inner)}"
                 for k, v in value.items()]
        one_line = not any("\n" in item for item in items)
    elif isinstance(value, list):
        items = [_canonical(v, inner) for v in value]
        one_line = not any(isinstance(v, (list, dict)) for v in value)
    else:
        return json.dumps(value)
    opening, closing = "{}" if isinstance(value, dict) else "[]"
    if one_line:
        return opening + ", ".join(items) + closing
    return (f"{opening}\n{inner}" + f",\n{inner}".join(items)
            + f"\n{indent}{closing}")


def serialize_model(net: BayesNet) -> str:
    """Canonical text for ``model_document(net)``; byte-stable and exactly
    re-parseable."""
    return _canonical(model_document(net), "") + "\n"


# ---------------------------------------------------------------------------
# DOT export


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _brace_set(names) -> str:
    return "{" + ", ".join(names) + "}"


def emit_dot(net: BayesNet, annotations) -> str:
    """Annotated DOT text for a net.

    An EdgeReport renders the DAG with deletion costs on the edges; a
    JunctionTree renders the clique tree with separator labels.  The
    annotation must cover exactly this net.
    """
    if isinstance(annotations, EdgeReport):
        recorded = {(r.parent, r.child): r.delta for r in annotations.records}
        if set(recorded) != set(net.edges()) or \
                len(annotations.records) != len(net.edges()):
            raise DomainError(
                "edge report does not cover exactly this network's edges")
        lines = ["digraph model {"]
        for v in net.variables:
            lines.append(f'  "{_dot_escape(v.name)}";')
        for p, c in net.edges():
            lines.append(f'  "{_dot_escape(p)}" -> "{_dot_escape(c)}" '
                         f'[label="{_f3(recorded[(p, c)])}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if isinstance(annotations, JunctionTree):
        members = {v for c in annotations.cliques for v in c}
        if members != set(net.names()):
            raise DomainError(
                "junction tree does not cover exactly this network's "
                "variables")
        lines = ["digraph junction_tree {"]
        for i, c in enumerate(annotations.cliques):
            lines.append(f'  c{i} [label="{_dot_escape(_brace_set(c))}"];')
        for i, j, s in annotations.tree_edges:
            lines.append(f'  c{i} -> c{j} '
                         f'[dir=none, label="{_dot_escape(_brace_set(s))}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise DomainError("annotations must be an EdgeReport or a JunctionTree")


# ---------------------------------------------------------------------------
# commands: each builds one document, which --json prints and a renderer
# turns into the text


def _read_text(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError("model file is not valid UTF-8", location=path)


def _load(path: str) -> BayesNet:
    return parse_model(_read_text(path))


def _emit_json(doc: dict) -> str:
    """Exactly the text ``json.dumps`` prints for ``doc`` with ``indent=2``,
    plus a newline.

    ``json.dumps`` with any ``indent`` skips CPython's C encoder and
    runs a pure-Python one, a generator step per value; a model's CPT
    rows make thousands of them.  This writer takes the same decisions
    but prints a list of plain floats, every CPT row, in one C-level
    join.  Keys must be strings, as in every document the CLI prints.
    """
    out: list[str] = []
    _write_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _floats(values, sep: str) -> str:
    text = sep.join(map(float.__repr__, values))
    if "n" in text:  # no finite repr has an n; nan and inf both do
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append ``value`` to ``out``; ``newline`` is a line break plus the
    indentation of the line ``value`` starts on."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, float):
        out.append(_floats((value,), ""))
    elif isinstance(value, (list, tuple, dict)) and not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        if set(map(type, value)) == {float}:
            out.append("[" + inner + _floats(value, "," + inner)
                       + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:  # bool, None and int; anything else raises as json.dumps does
        out.append(json.dumps(value))


def _columns(header, rows, indent: str = "") -> list[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in [header] + rows:
        cells = [cell.ljust(widths[i]) for i, cell in enumerate(row)]
        lines.append((indent + "  ".join(cells)).rstrip())
    return lines


def _split_names(raw: str) -> list[str]:
    return [token.strip() for token in raw.split(",") if token.strip()]


def _doc(args, **fields) -> dict:
    return {"command": args.command, "model": args.model, **fields}


def _build_validate(args) -> dict:
    _, violations = parse_model(_read_text(args.model), strict=False)
    return _doc(args, ok=not violations, violations=violations)


def _render_validate(doc) -> list[str]:
    if doc["ok"]:
        return [f"{doc['model']}: ok"]
    return [f"{doc['model']}: {len(doc['violations'])} violation(s)",
            *(f"  - {v}" for v in doc["violations"])]


def _diameters_section(net: BayesNet) -> list[dict]:
    return [{"variable": v.name, "value": diameter(net.cpt(v.name))}
            for v in net.variables]


def _diameter_columns(doc, indent: str = "") -> list[str]:
    return _columns(("variable", "diameter"),
                    [(d["variable"], _f3(d["value"]))
                     for d in doc["diameters"]], indent)


def _build_diameters(args) -> dict:
    return _doc(args, diameters=_diameters_section(_load(args.model)))


def _edges_section(report: EdgeReport) -> list[dict]:
    return [{"parent": r.parent, "child": r.child, "delta": r.delta}
            for r in report.records]


def _edge_columns(doc, indent: str = "") -> list[str]:
    return _columns(("parent", "child", "delta"),
                    [(e["parent"], e["child"], _f3(e["delta"]))
                     for e in doc["edges"]], indent)


def _build_edges(args) -> dict | str:
    net = _load(args.model)
    report = edge_deletion_report(net)
    if args.dot:
        return emit_dot(net, report)
    return _doc(args, edges=_edges_section(report))


def _path_section(path) -> dict:
    return {
        "cliques": [list(c) for c in path.cliques],
        "separators": [list(s) for s in path.separators],
    }


def _path_query(args):
    """The net, the tree and clique path between the named donors and
    targets, and a document that names them."""
    net = _load(args.model)
    donor = _split_names(args.donor)
    target = _split_names(args.target)
    tree, path = donor_target_path(net, donor, target)
    return net, tree, path, _doc(args, donor=donor, target=target)


def _build_impact(args) -> dict:
    net, tree, path, doc = _path_query(args)
    result = path_impact(net, path, args.mode, args.limit, tree)
    return doc | {
        "mode": result.mode,
        "value": result.value,
        "factors": [
            {
                "table": f.table,
                "value": f.value,
                "provenance": f.provenance,
                "terms": list(f.terms),
            }
            for f in result.certificate
        ],
        "path": _path_section(path),
    }


def _render_impact(doc) -> list[str]:
    lines = [
        f"impact of {_brace_set(doc['donor'])} on "
        f"{_brace_set(doc['target'])} ({doc['mode']} mode): "
        f"{_f6(doc['value'])}",
        "path:",
    ]
    separators = doc["path"]["separators"]
    for i, c in enumerate(doc["path"]["cliques"]):
        lines.append(f"  {_brace_set(c)}")
        if i < len(separators):
            lines.append(f"    | {_brace_set(separators[i])}")
    lines.append("factors:")
    for f in doc["factors"]:
        lines.append(
            f"  {f['table']} = {_f6(f['value'])} [{f['provenance']}]")
        lines.extend(f"    {term}" for term in f["terms"])
    return lines


def _build_path(args) -> dict:
    _, _, path, doc = _path_query(args)
    return doc | _path_section(path)


def _render_path(doc) -> list[str]:
    return ["cliques:", *(f"  {_brace_set(c)}" for c in doc["cliques"]),
            "separators:",
            *([f"  {_brace_set(s)}" for s in doc["separators"]]
              or ["  (none)"])]


def _build_amalgamate(args) -> dict:
    net = _load(args.model)
    if args.group is None:
        candidates = amalgamation_suggest(net, args.variable)
        return _doc(args, variable=args.variable, candidates=[
            {"levels": list(pair), "cost": cost} for pair, cost in candidates
        ])
    group = [token.strip() for token in args.group.split(",")]
    merged, costs = amalgamate_levels(net, args.variable, group,
                                      allow_nonconsecutive=args.nominal)
    # the fused level sits where the group's first level was
    first = min(map(net.variable(args.variable).levels.index, group))
    return _doc(args, variable=args.variable, group=group,
                merged_level=merged.variable(args.variable).levels[first],
                costs=dict(sorted(costs.items())),
                model_after=model_document(merged))


def _render_amalgamate(doc) -> list[str]:
    if "candidates" in doc:
        return [f"merge candidates for {doc['variable']}:",
                *("  {} + {}: {}".format(*c["levels"], _f6(c["cost"]))
                  for c in doc["candidates"])]
    costs = [f"  {child}: {_f6(cost)}"
             for child, cost in doc["costs"].items()]
    return [f"merged levels of {doc['variable']} into "
            f"{doc['merged_level']!r}",
            "costs:", *(costs or ["  (no affected tables)"])]


def _build_delete_edge(args) -> dict:
    merged, cost = delete_edge(_load(args.model), args.donor, args.target)
    return _doc(args, parent=args.donor, child=args.target, cost=cost,
                model_after=model_document(merged))


def _render_delete_edge(doc) -> list[str]:
    model = doc["model_after"]
    levels = {v["name"]: v["levels"] for v in model["variables"]}
    table = next(t for t in model["cpts"] if t["child"] == doc["child"])
    parents = table["parents"]
    lines = [f"removed {doc['parent']} -> {doc['child']} "
             f"(cost {_f6(doc['cost'])})",
             f"rows of {doc['child']} | {', '.join(parents)}:" if parents
             else f"rows of {doc['child']}:"]
    # rows run over parent configurations, the first parent most significant
    configs = itertools.product(*(levels[p] for p in parents))
    for config, row in zip(configs, table["rows"]):
        lines.append(f"  ({', '.join(config)}): {' '.join(map(_f6, row))}")
    return lines


def _build_report(args) -> dict | str:
    net = _load(args.model)
    jt = build_junction_tree(moralize(net))
    if args.dot:
        return emit_dot(net, jt)
    return _doc(
        args,
        ok=True,
        diameters=_diameters_section(net),
        edges=_edges_section(edge_deletion_report(net)),
        junction_tree={
            "cliques": [list(c) for c in jt.cliques],
            "edges": [
                {"between": [i, j], "separator": list(s)}
                for i, j, s in jt.tree_edges
            ],
            "rip_order": list(jt.rip_order),
        },
    )


def _render_report(doc) -> list[str]:
    jt = doc["junction_tree"]
    return [
        f"model: {doc['model']}",
        f"variables: {len(doc['diameters'])}",
        "validation: ok",
        "diameters:", *_diameter_columns(doc, indent="  "),
        "edge deletion costs:",
        *(_edge_columns(doc, indent="  ") if doc["edges"]
          else ["  (none)"]),
        "junction tree:",
        "  cliques:",
        *(f"    c{i} = {_brace_set(c)}"
          for i, c in enumerate(jt["cliques"])),
        "  edges:",
        *(["    c{} - c{}: {}".format(*e["between"],
                                        _brace_set(e["separator"]))
           for e in jt["edges"]] or ["    (none)"]),
        "  rip order: " + " ".join(f"c{i}" for i in jt["rip_order"]),
    ]


# each command's builder and its text renderer; a builder returns the
# command's document, or DOT text under --dot
_COMMANDS = {
    "validate": (_build_validate, _render_validate),
    "diameters": (_build_diameters, _diameter_columns),
    "edges": (_build_edges, _edge_columns),
    "impact": (_build_impact, _render_impact),
    "path": (_build_path, _render_path),
    "amalgamate": (_build_amalgamate, _render_amalgamate),
    "delete-edge": (_build_delete_edge, _render_delete_edge),
    "report": (_build_report, _render_report),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="tvrobust",
        description="Robustness analysis for discrete Bayesian networks "
                    "in total variation distance.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    def add(name: str, help_: str, dot_help: str | None = None):
        """A subcommand; with ``dot_help`` it also takes ``--dot``, which
        excludes ``--json``."""
        p = sub.add_parser(name, help=help_)
        p.add_argument("model", help="path to a model file")
        out = p.add_mutually_exclusive_group()
        if dot_help:
            out.add_argument("--dot", action="store_true", help=dot_help)
        out.add_argument("--json", action="store_true",
                         help="emit a machine-readable report")
        return p

    add("validate", "check a model file and list any violations")
    add("diameters", "per-table diameters")
    add("edges", "edge deletion costs, largest first",
        "emit the annotated DAG as DOT")
    p = add("impact", "impact product from donor variables to targets")
    p.add_argument("--from", dest="donor", required=True, metavar="VARS",
                   help="comma-separated donor variables")
    p.add_argument("--to", dest="target", required=True, metavar="VARS",
                   help="comma-separated target variables")
    p.add_argument("--mode", choices=("exact", "bound"), default="exact",
                   help="oracle factor tables or elicited-diameter bounds")
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="state-space cap for the oracle")
    p = add("path", "clique path between donor and target variables")
    p.add_argument("--from", dest="donor", required=True, metavar="VARS",
                   help="comma-separated donor variables")
    p.add_argument("--to", dest="target", required=True, metavar="VARS",
                   help="comma-separated target variables")
    p = add("amalgamate", "suggest level merges, or apply one group")
    p.add_argument("variable", help="variable whose levels to merge")
    p.add_argument("--group", metavar="LEVELS", default=None,
                   help="comma-separated levels to merge (omit to rank "
                        "candidate pairs)")
    p.add_argument("--nominal", action="store_true",
                   help="allow a group that is not consecutive")
    p = add("delete-edge", "delete one edge, averaging the child's rows")
    p.add_argument("--from", dest="donor", required=True, metavar="PARENT",
                   help="parent end of the edge")
    p.add_argument("--to", dest="target", required=True, metavar="CHILD",
                   help="child end of the edge")
    add("report", "validation, diameters, edges, and the junction tree",
        "emit the junction tree as DOT")
    return parser


def run_cli(argv=None) -> int:
    """Run one command line; returns the process exit code.

    0 on success, 1 on a domain or input problem, 2 on a usage error.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits with an int status
        return e.code
    build, render = _COMMANDS[args.command]
    try:
        doc = build(args)
    except (DomainError, ResourceLimitError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    if isinstance(doc, str):  # DOT text
        sys.stdout.write(doc)
        return 0
    sys.stdout.write(_emit_json(doc) if args.json
                     else "\n".join(render(doc)) + "\n")
    # only validate's document can say the model failed
    return 0 if doc.get("ok", True) else 1


def main() -> None:
    raise SystemExit(run_cli())
