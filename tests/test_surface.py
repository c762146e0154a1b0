"""A ratchet on the public surface.

Every name in ``tvrobust.__all__`` should be used by the library itself,
by the benchmark, or be documented in README.md.  The names below are
used only by tests today.  The set may only shrink: a new export that
nothing else uses fails this test, and so does a listed name that has
since found a use and should leave the list.
"""

import ast
import pathlib
import re

import tvrobust

ROOT = pathlib.Path(__file__).resolve().parent.parent

TEST_ONLY = {
    "chain_diameter_bound",
    "diameter_sum_bound",
    "joint_perturb_bound",
    "joint_tv_bound",
}


def _library_text(name: str) -> str:
    """The package's modules, bar ``__init__``, without the top-level
    definition of ``name`` itself."""
    parts = []
    for path in sorted((ROOT / "src" / "tvrobust").glob("*.py")):
        if path.name == "__init__.py":
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.parse("\n".join(lines)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name == name:
                start = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                lines[start - 1:node.end_lineno] = []
        parts.append("\n".join(lines))
    return "\n".join(parts)


def test_exports_used_only_by_tests_are_exactly_the_listed_ones():
    elsewhere = "\n".join(
        [p.read_text(encoding="utf-8")
         for p in sorted((ROOT / "perfbench").glob("*.py"))]
        + [(ROOT / "README.md").read_text(encoding="utf-8")])
    unused = {
        name for name in tvrobust.__all__
        if not any(re.search(rf"\b{re.escape(name)}\b", text)
                   for text in (_library_text(name), elsewhere))
    }
    assert unused == TEST_ONLY
