"""Digests of CLI output directories, and of the committed ``out/``.

A digest holds, per output file, its sha256 and its CSV header without the
``# seed`` line, plus the seed and verification entries of ``summary.json``.
The benchmark compares each invocation's output directory against the digest
of the committed ``out/<config>/``: byte for byte at the config's recorded
seed, header for header at any other seed.  ``out/`` is tracked in the
repository, so a change that regenerates it on purpose moves the reference
with it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

SEED_LINE = 3  # write_csv's header: columns, units, statistic, seed, column names
HEADER_LINES = 5


def digest_dir(path: Path) -> dict:
    files = {}
    summary = None
    for f in sorted(path.iterdir()):
        data = f.read_bytes()
        if f.name == "summary.json":
            summary = json.loads(data)
            continue
        lines = data.decode("utf-8", "replace").split("\n")[:HEADER_LINES]
        files[f.name] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "header": [line for i, line in enumerate(lines) if i != SEED_LINE],
            "seed_line": lines[SEED_LINE] if len(lines) > SEED_LINE else "",
        }
    return {
        "files": files,
        "seed": None if summary is None else summary.get("seed"),
        "entries": None if summary is None else summary.get("verifications", {}),
    }


class MissingReference(Exception):
    """The checkout lacks a committed ``out/<config>/summary.json``."""


def load(root: Path, configs: list[str]) -> dict:
    """Digest of the committed ``out/<config>/`` per config."""
    digests = {}
    for c in configs:
        d = root / "out" / c
        if not (d / "summary.json").is_file():
            raise MissingReference(f"no committed reference: {d / 'summary.json'} is missing")
        digests[c] = digest_dir(d)
    return digests
