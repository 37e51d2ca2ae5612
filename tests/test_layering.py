"""Which package modules each module of sgalg imports.

Claims are decided in `checks` alone: the float layer computes from the
scalars and the operator form only, and the library layers never reach up
into the suites; only the CLI, which dispatches to them, imports `checks`.
And the package defines nothing that only the tests reach.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sgalg"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def package_imports(module: str) -> set[str]:
    """The sibling modules named by the module's `from .x import` and
    `from . import x` statements, at any depth."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_numeric_imports_only_the_scalars_and_the_operator_form():
    assert package_imports("numeric") <= {"scalars", "operators"}


def test_only_the_cli_imports_checks():
    assert [m for m in MODULES if "checks" in package_imports(m)] == ["cli"]


# perfbench/tracing.py wraps these by name; run_suite finds each suite_* by name.
NAMED_OUTSIDE = {"pt_from_offsets", "enumerate_words"}


def test_every_definition_is_named_elsewhere_in_the_package():
    # A function, method or class that no other line of the package names is
    # reached only from the tests; the re-exports of __init__ do not count.
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    text = "\n".join(sources.values())
    unnamed = []
    for module, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__") or name in NAMED_OUTSIDE
                    or module == "checks" and name.startswith("suite_")):
                continue
            mentions = len(re.findall(rf"\b{name}\b", text))
            definitions = len(re.findall(rf"\b(?:def|class) {name}\b", text))
            if mentions == definitions:
                unnamed.append(f"{module}.{name}")
    assert unnamed == []
