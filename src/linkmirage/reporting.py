"""Serialization of the CLI's outputs: one JSON text, and CSV cells by ``str``.

Floats take Python's shortest round-trip form (``0.8``, ``35.0``), so every
value reads back bit for bit; JSON writes NaN as ``NaN``, which ``json.load``
reads, and CSV writes it as ``nan``.
"""

from __future__ import annotations

import hashlib
import json


def json_text(obj) -> str:
    """The JSON text of every output: sorted keys, two-space indent, final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json_text(obj))


def write_csv(path, header, rows, comment_lines=()) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for line in comment_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()
