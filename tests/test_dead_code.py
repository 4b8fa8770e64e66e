"""Every public top-level function and class in the package has a caller.

A caller is an identifier reference (a name, an attribute, or an import)
outside the definition itself, in the package sources or in the
acceptance gate.  Mentions in docstrings and comments do not count, and
unit tests do not count: a helper only the unit tests reach is dead code
with its own tests, and belongs in ``tests/helpers.py`` if a test needs it
as an oracle.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bayesrates"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# entry points reached from outside the package
EXEMPT = {("cli", "main")}


def _references(node: ast.AST) -> set[str]:
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _public_definitions(tree: ast.Module):
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            yield stmt


def find_uncalled() -> list[str]:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    outside = _references(ast.parse(ACCEPTANCE.read_text()))
    # references per top-level statement, so a definition never counts itself
    per_stmt = [
        (module, stmt, _references(stmt))
        for module, tree in trees.items()
        for stmt in tree.body
    ]
    uncalled = []
    for module, tree in trees.items():
        for definition in _public_definitions(tree):
            if (module, definition.name) in EXEMPT or definition.name in outside:
                continue
            if not any(
                definition.name in refs
                for _, stmt, refs in per_stmt
                if stmt is not definition
            ):
                uncalled.append(f"{module}.{definition.name}")
    return uncalled


def test_every_public_helper_has_a_caller():
    uncalled = find_uncalled()
    assert not uncalled, (
        "public definitions with no caller in src/ or the acceptance gate: "
        + ", ".join(uncalled)
    )
