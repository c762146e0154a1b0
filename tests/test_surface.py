"""A ratchet on the public surface and on the library's definitions.

Every name in ``tvrobust.__all__``, and every module-level function and
class in ``src/tvrobust``, should be used by other library code, by the
benchmark, or be documented in README.md.  The sets below name the
exceptions, which are used only by tests today.  They may only shrink:
a new definition that nothing else uses fails these tests, and so does
a listed name that has since found a use and should leave its list.
"""

import ast
import functools
import pathlib
import re

import tvrobust

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tvrobust"

TEST_ONLY = set()

# waits for the target-priced level merge (ROADMAP item 3)
UNUSED_DEFINITIONS = {"counterpart_cost"}


@functools.cache
def _modules() -> tuple:
    """(file name, lines, {name: (first, last) line}) of each module,
    spanning its top-level functions and classes, decorators included."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        spans = {node.name: (min([node.lineno] + [d.lineno for d in
                                                  node.decorator_list]),
                             node.end_lineno)
                 for node in ast.parse(text).body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        out.append((path.name, text.splitlines(), spans))
    return tuple(out)


def _library_text(name: str) -> str:
    """The package's modules, bar ``__init__``, without the top-level
    definition of ``name`` itself."""
    parts = []
    for file_name, lines, spans in _modules():
        if file_name == "__init__.py":
            continue
        if name in spans:
            start, end = spans[name]
            lines = lines[:start - 1] + lines[end:]
        parts.append("\n".join(lines))
    return "\n".join(parts)


@functools.cache
def _benchmark_and_readme() -> str:
    return "\n".join(
        [p.read_text(encoding="utf-8")
         for p in sorted((ROOT / "perfbench").glob("*.py"))]
        + [(ROOT / "README.md").read_text(encoding="utf-8")])


def _used(name: str) -> bool:
    return any(re.search(rf"\b{re.escape(name)}\b", text)
               for text in (_library_text(name), _benchmark_and_readme()))


def test_exports_used_only_by_tests_are_exactly_the_listed_ones():
    assert {name for name in tvrobust.__all__
            if not _used(name)} == TEST_ONLY


def test_definitions_used_only_by_tests_are_exactly_the_listed_ones():
    names = {name for _, _, spans in _modules() for name in spans}
    assert {name for name in names if not _used(name)} == UNUSED_DEFINITIONS
