"""The exit-code contract under fuzzed inputs.

Value mutations and raw byte corruption of the shipped configs, and byte
corruption of a shipped ``summary.json``, go through ``cli.main``: every run
ends in exit 0, 2, 3 or 4 (pass, criterion failure, config error, runtime
error), never in an escaped exception.  ``report`` parses the config, builds
its regime and reads the summary, so each example stays quick; the examples
are derandomized, so a run is repeatable.
"""
from __future__ import annotations

import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bayesrates.cli import main

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ("iid", "markov", "misspecified", "regression", "sieve", "smoke")
TEXTS = {name: (ROOT / "configs" / f"{name}.yaml").read_text() for name in SHIPPED}
SUMMARY = (ROOT / "out" / "iid" / "summary.json").read_bytes()
EXITS = {0, 2, 3, 4}

# a "key: value" line's value is swapped for one of these
TOKENS = (".nan", ".inf", "-.inf", "[]", "{}", "-1", "0", "1.0e+400", "9223372036854775808",
          "18446744073709551616", "abc", "[0, 1]", "[1.5, -2]", "true", "null", "'3'",
          "&a 5", "*a", "[&b 1, *b]", "-0.5", "2", "[0]", "[[1]]", "!!binary aGk=")
VALUE = re.compile(r"^(\s*[A-Za-z_]+:)[ ]+\S.*$")

FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def report(path: Path) -> int:
    """``report`` on the config at ``path``, writing only beside it."""
    return main(["report", "--config", str(path), "--out", str(path.parent / "out")])


@st.composite
def mutated_configs(draw) -> str:
    lines = TEXTS[draw(st.sampled_from(SHIPPED))].splitlines()
    values = [i for i, line in enumerate(lines) if VALUE.match(line)]
    for i in draw(st.lists(st.sampled_from(values), min_size=1, max_size=3)):
        lines[i] = VALUE.sub(lambda m: f"{m.group(1)} {draw(st.sampled_from(TOKENS))}", lines[i])
    return "\n".join(lines) + "\n"


@st.composite
def corrupted(draw, data: bytes) -> bytes:
    """``data`` with 1 to 4 bytes overwritten, inserted or deleted."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(out) - 1))
        byte = draw(st.integers(0, 255))
        op = draw(st.sampled_from(("set", "insert", "delete")))
        if op == "set":
            out[at] = byte
        elif op == "insert":
            out.insert(at, byte)
        elif len(out) > 1:
            del out[at]
    return bytes(out)


@FUZZ
@given(mutated_configs())
def test_mutated_config_exits_by_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plan.yaml"
        path.write_text(text)
        assert report(path) in EXITS


@FUZZ
@given(st.sampled_from(SHIPPED).flatmap(lambda name: corrupted(TEXTS[name].encode())))
def test_corrupted_config_bytes_exit_by_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plan.yaml"
        path.write_bytes(data)
        assert report(path) in EXITS


@FUZZ
@given(corrupted(SUMMARY))
def test_corrupted_summary_exits_by_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        out.mkdir()
        (out / "summary.json").write_bytes(data)
        assert main(["report", "--out", str(out)]) in EXITS
