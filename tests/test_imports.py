"""Every module the package and its tests import is declared or standard.

A module that is installed only because another package needs it (mpmath,
which sympy pulls in) would pass locally and fail on a clean install, so
the import statements are read with ``ast`` and held to a fixed list.
"""
import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the import name of each dependency pyproject.toml declares, and its
# distribution name there
DECLARED = {"numpy": "numpy", "yaml": "pyyaml", "pytest": "pytest",
            "hypothesis": "hypothesis", "scipy": "scipy"}

# the package itself, and the tests' shared helpers module
LOCAL = {"bayesrates", "helpers"}

SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def imported_modules(path: Path) -> set[str]:
    """The top-level name of every absolute import anywhere in ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_imports_are_declared(path):
    undeclared = imported_modules(path) - sys.stdlib_module_names - LOCAL - DECLARED.keys()
    assert not undeclared, f"{path.name} imports undeclared {sorted(undeclared)}"


def test_declared_names_are_in_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    for dist in DECLARED.values():
        assert f'"{dist}>=' in text


def test_an_undeclared_import_is_seen(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import math\n\ndef f():\n    from mpmath import mp\n    return mp\n")
    assert imported_modules(probe) - sys.stdlib_module_names == {"mpmath"}
