"""A ratchet on the public surface and on the library's definitions.

Every name in ``tvrobust.__all__``, and every module-level function and
class in ``src/tvrobust``, should be used by other library code or by
the benchmark, as a name or attribute in code (a mention in a docstring
or comment is not a use), or be documented in README.md.  So should
every public method of each class in ``__all__``, as an attribute in
code outside its own body or as a ``Class.method`` mention in README.md.
The sets below name the exceptions, which are used only by tests today.
They may only shrink: a new definition that nothing else uses fails
these tests, and so does a listed name that has since found a use and
should leave its list.
"""

import ast
import functools
import pathlib
import re
import types

import tvrobust

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tvrobust"

TEST_ONLY = set()

TEST_ONLY_METHODS = set()

# waits for the target-priced level merge (ROADMAP item 4)
UNUSED_DEFINITIONS = {"counterpart_cost"}


def _identifiers(tree) -> set:
    """Every name that ``tree`` reads or writes as code: each
    ``ast.Name`` and the attribute of each ``ast.Attribute``; docstrings,
    comments and other strings do not count."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


@functools.cache
def _modules() -> tuple:
    """(file name, [(definition name or None, identifiers)]) of each
    module, one pair per top-level statement; a function or class is
    named, with its decorators."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        out.append((path.name, [
            (node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             else None, _identifiers(node))
            for node in body]))
    return tuple(out)


@functools.cache
def _benchmark() -> set:
    return set().union(*(_identifiers(ast.parse(p.read_text(encoding="utf-8")))
                         for p in sorted((ROOT / "perfbench").glob("*.py"))))


def _used(name: str) -> bool:
    """Used in the code of another definition of the package (bar
    ``__init__``) or of the benchmark, or mentioned in README.md."""
    return (any(name in ids and defined != name
                for file_name, statements in _modules()
                if file_name != "__init__.py"
                for defined, ids in statements)
            or name in _benchmark()
            or re.search(rf"\b{re.escape(name)}\b",
                         (ROOT / "README.md").read_text(encoding="utf-8"))
            is not None)


def test_exports_used_only_by_tests_are_exactly_the_listed_ones():
    assert {name for name in tvrobust.__all__
            if not _used(name)} == TEST_ONLY


def test_definitions_used_only_by_tests_are_exactly_the_listed_ones():
    names = {name for _, statements in _modules()
             for name, _ in statements if name is not None}
    assert {name for name in names if not _used(name)} == UNUSED_DEFINITIONS


@functools.cache
def _attribute_uses() -> tuple:
    """(owner, attribute names) over the package (bar ``__init__``) and
    the benchmark: one entry per method of each top-level class, owned
    by (class, method), and one per other top-level statement or class
    body statement, owned by None."""
    files = [p for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    out = []
    for path in files:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            parts = node.body if isinstance(node, ast.ClassDef) else [node]
            for part in parts:
                out.append(((node.name, part.name) if part is not node
                            and isinstance(part, ast.FunctionDef) else None,
                            {a.attr for a in ast.walk(part)
                             if isinstance(a, ast.Attribute)}))
    return tuple(out)


def _public_methods() -> set:
    """(class, method) for each public function, class method, static
    method or property defined in the body of a class in ``__all__``."""
    kinds = (types.FunctionType, classmethod, staticmethod, property)
    return {(name, attr) for name in tvrobust.__all__
            if isinstance(cls := getattr(tvrobust, name), type)
            for attr, value in vars(cls).items()
            if not attr.startswith("_") and isinstance(value, kinds)}


def _method_used(cls: str, method: str) -> bool:
    """Read as an attribute in code outside the method's own body, or
    mentioned as ``Class.method`` in README.md."""
    return (any(method in attrs and owner != (cls, method)
                for owner, attrs in _attribute_uses())
            or re.search(rf"\b{cls}\.{method}\b",
                         (ROOT / "README.md").read_text(encoding="utf-8"))
            is not None)


def test_public_methods_used_only_by_tests_are_exactly_the_listed_ones():
    assert {f"{cls}.{method}" for cls, method in _public_methods()
            if not _method_used(cls, method)} == TEST_ONLY_METHODS
