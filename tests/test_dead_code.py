"""Every public top-level definition and every class member in the package has a reader.

Top level: a public function or class needs a caller, that is an
identifier reference (a name, an attribute, or an import) outside the
definition itself, in the package sources or in the acceptance gate.

Class members: each annotated field, each attribute a method assigns as
``self.<name> = ...``, and each non-dunder method or property of a package
class needs a reader, that is an attribute load of its name in the package
sources, a ``getattr`` with its name as a literal there, or its name used
as an attribute or as a keyword argument in the acceptance gate (which
builds some result types by keyword).

Mentions in docstrings and comments do not count, and unit tests do not
count: a helper only the unit tests reach is dead code with its own tests,
and belongs in ``tests/helpers.py`` if a test needs it as an oracle.

Both rules go by name, not by type: a dead member passes when its name is
read on some other object (a never-read ``delta`` field passes because
other code reads ``.delta``), so the rule guards against new dead state
but does not prove that every member passing it is alive.
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


def _package_trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def find_uncalled() -> list[str]:
    trees = _package_trees()
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


def _self_attributes(method: ast.FunctionDef):
    """Names the method stores on ``self`` by plain or annotated assignment."""
    for node in ast.walk(method):
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield target.attr


def _members(cls: ast.ClassDef):
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield stmt.target.id
        elif isinstance(stmt, ast.FunctionDef):
            yield from _self_attributes(stmt)
            if not (stmt.name.startswith("__") and stmt.name.endswith("__")):
                yield stmt.name


def _attribute_reads(tree: ast.AST) -> set[str]:
    """Attribute loads, plus getattr calls whose name is a string literal."""
    reads: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            reads.add(node.args[1].value)
    return reads


def _acceptance_names() -> set[str]:
    """Attributes the acceptance gate touches and keywords it passes."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(ACCEPTANCE.read_text())):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
    return names


def find_unread_members() -> list[str]:
    trees = _package_trees()
    read = set().union(*(_attribute_reads(tree) for tree in trees.values()))
    read |= _acceptance_names()
    unread = []
    for module, tree in trees.items():
        for cls in (s for s in tree.body if isinstance(s, ast.ClassDef)):
            unread.extend(
                f"{module}.{cls.name}.{name}"
                for name in dict.fromkeys(_members(cls)) if name not in read
            )
    return unread


def test_every_public_helper_has_a_caller():
    uncalled = find_uncalled()
    assert not uncalled, (
        "public definitions with no caller in src/ or the acceptance gate: "
        + ", ".join(uncalled)
    )


def test_every_class_member_has_a_reader():
    unread = find_unread_members()
    assert not unread, (
        "class fields, attributes, methods or properties that nothing in src/ or the "
        "acceptance gate reads: " + ", ".join(unread)
    )
