"""Every text file the package reads or writes names its encoding.

Without ``encoding=``, ``read_text``, ``write_text`` and ``open`` follow the
locale, so a UTF-8 config fails to read under the C locale.  The calls are
found with ``ast`` and each must pass the keyword.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))

TEXT_CALLS = {"read_text", "write_text", "open"}


def calls_without_encoding(path: Path) -> list[str]:
    """``name:line`` of each text call in ``path`` that passes no ``encoding=``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in TEXT_CALLS and not any(k.arg == "encoding" for k in node.keywords):
            found.append(f"{name}:{node.lineno}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_text_calls_name_their_encoding(path):
    assert not calls_without_encoding(path), f"{path.name}: {calls_without_encoding(path)}"


def test_a_call_without_encoding_is_seen(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from pathlib import Path\n"
        "Path('a').read_text(encoding='utf-8')\n"
        "Path('a').write_text('x')\n"
        "with open('a') as fh:\n"
        "    pass\n",
        encoding="utf-8",
    )
    assert calls_without_encoding(probe) == ["write_text:3", "open:4"]
