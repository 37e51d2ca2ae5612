"""Which package modules each module of sgalg imports.

Claims are decided in `checks` alone: the float layer computes from the
scalars and the operator form only, and the library layers never reach up
into the suites; only the CLI, which dispatches to them, imports `checks`.
And the package defines nothing that only the tests reach, and no suite
takes a size that only the tests set.
"""

import ast
import inspect
import io
import tokenize
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


# Definitions that no code of the package names, each with what reaches it.
NAMED_OUTSIDE = {
    "pt_from_offsets": "perfbench/tracing.py wraps it by name",
    "enumerate_words": "perfbench/tracing.py wraps it by name",
    "word_action": "the oracle the tests and perfbench/workloads.py check the exact layer by",
    "error": "cli._ArgumentParser's override of the hook argparse calls on a bad command line",
}


def code_names(source: str) -> Counter:
    """How often each name occurs as a NAME token of the source: a word in a
    docstring, a comment or any other string counts for nothing."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return Counter(tok.string for tok in tokens if tok.type == tokenize.NAME)


def test_every_definition_is_named_elsewhere_in_the_package():
    # A function, method or class that no other code of the package names is
    # reached only from the tests; the re-exports of __init__ do not count,
    # and run_suite finds each suite_* by name.
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    mentions = sum(map(code_names, sources.values()), Counter())
    trees = {module: ast.parse(source) for module, source in sources.items()}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    definitions = Counter(node.name for tree in trees.values()
                          for node in ast.walk(tree) if isinstance(node, kinds))
    unnamed = []
    for module, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            if not isinstance(node, kinds):
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
