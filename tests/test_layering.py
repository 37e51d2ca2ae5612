"""Which package modules each module of sgalg imports.

Claims are decided in `checks` alone: the float layer computes from the
scalars and the operator form only, and the library layers never reach up
into the suites; only the CLI, which dispatches to them, imports `checks`.
And the package defines nothing that only the tests reach, and no suite
takes a size that only the tests set.
"""

import ast
import inspect
import re
from collections import Counter
from pathlib import Path

from sgalg import checks

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
    # Each maximal word token is one whole-word mention; counted in one pass.
    mentions = Counter(re.findall(r"\w+", text))
    definitions = Counter(re.findall(r"\b(?:def|class) (\w+)", text))
    unnamed = []
    for module, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__") or name in NAMED_OUTSIDE
                    or module == "checks" and name.startswith("suite_")):
                continue
            if mentions[name] == definitions[name]:
                unnamed.append(f"{module}.{name}")
    assert unnamed == []


def test_suites_take_only_a_semigroup_and_a_seed():
    # A suite's sizes, windows and bands are constants printed in its reports'
    # parameters; shift37 is a fixed regression over S(2,3) that ignores s.
    for name in checks.SUITE_NAMES:
        if name == "shift37":
            continue
        params = inspect.signature(getattr(checks, f"suite_{name}")).parameters.values()
        expected = [("s", inspect.Parameter.empty)]
        if name not in checks._UNSEEDED:
            expected.append(("seed", 0))
        assert [(p.name, p.default) for p in params] == expected, name
