"""A ratchet on the public surface and on the library's definitions.

Every name in ``tvrobust.__all__``, and every module-level function and
class in ``src/tvrobust``, should be used by other library code or by
the benchmark, as a name or attribute in code (a mention in a docstring
or comment is not a use), or be documented in README.md.  So should
every public method of each class in ``__all__``, as an attribute in
code outside its own body or as a ``Class.method`` mention in README.md.
Every parameter with a default of a function in ``__all__`` should be
passed, by position or keyword, by library or benchmark code outside
the function's own body, or be named in README.md as ``name=``.
The sets below name the exceptions, which are used only by tests today.
They may only shrink: a new definition that nothing else uses fails
these tests, and so does a listed name that has since found a use and
should leave its list.
"""

import ast
import functools
import inspect
import pathlib
import re
import types

import tvrobust

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tvrobust"

TEST_ONLY = set()

TEST_ONLY_METHODS = set()

UNUSED_DEFINITIONS = set()

TEST_ONLY_KNOBS = set()


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


def _code_files() -> list:
    """The package's modules (bar ``__init__``) and the benchmark's."""
    return ([p for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"]
            + sorted((ROOT / "perfbench").glob("*.py")))


@functools.cache
def _attribute_uses() -> tuple:
    """(owner, attribute names) over the package (bar ``__init__``) and
    the benchmark: one entry per method of each top-level class, owned
    by (class, method), and one per other top-level statement or class
    body statement, owned by None."""
    out = []
    for path in _code_files():
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


@functools.cache
def _calls() -> tuple:
    """(enclosing top-level definition or None, call) for every call in
    the package (bar ``__init__``) and the benchmark."""
    out = []
    for path in _code_files():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = (node.name if isinstance(
                node, (ast.FunctionDef, ast.ClassDef)) else None)
            out.extend((owner, call) for call in ast.walk(node)
                       if isinstance(call, ast.Call))
    return tuple(out)


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` passes the parameter ``name``: by keyword, by
    ``**``, or, when it has a ``position``, by that many positional
    arguments or a ``*`` argument."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(a, ast.Starred) for a in call.args))


def _knob_used(function: str, name: str, position: int | None) -> bool:
    """Passed to ``function`` by a call outside its own body, or named
    as ``name=`` in README.md."""
    return (any(owner != function and _passes(call, name, position)
                for owner, call in _calls()
                if (call.func.id if isinstance(call.func, ast.Name)
                    else getattr(call.func, "attr", None)) == function)
            or re.search(rf"\b{re.escape(name)}=",
                         (ROOT / "README.md").read_text(encoding="utf-8"))
            is not None)


def _knobs() -> set:
    """(function, parameter, position or None) for each parameter with a
    default of each function in ``__all__``; keyword-only parameters
    have no position."""
    out = set()
    for name in tvrobust.__all__:
        if not isinstance(fn := getattr(tvrobust, name), types.FunctionType):
            continue
        for i, param in enumerate(inspect.signature(fn).parameters.values()):
            if param.default is not inspect.Parameter.empty:
                out.add((name, param.name,
                         None if param.kind is param.KEYWORD_ONLY else i))
    return out


def test_knobs_used_only_by_tests_are_exactly_the_listed_ones():
    assert {f"{fn}.{param}" for fn, param, position in _knobs()
            if not _knob_used(fn, param, position)} == TEST_ONLY_KNOBS
