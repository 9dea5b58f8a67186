"""Deterministic serialization: canonical JSON and CSV with 17-digit floats."""

from __future__ import annotations

import hashlib
import math


def fmt_float(x: float) -> str:
    """17-significant-digit decimal form, round-trip safe for doubles."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    """JSON with sorted keys and 17-significant-digit floats."""

    def render(o, depth):
        inner = " " * (2 * (depth + 1))
        closer = " " * (2 * depth)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, str):
            return '"' + o.replace("\\", "\\\\").replace('"', '\\"') + '"'
        if isinstance(o, int):
            return str(o)
        if isinstance(o, float):
            return fmt_float(o)
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [f'{inner}"{k}": {render(o[k], depth + 1)}'
                     for k in sorted(o, key=str)]
            return "{\n" + ",\n".join(items) + "\n" + closer + "}"
        if isinstance(o, (list, tuple)):
            if not len(o):
                return "[]"
            items = [f"{inner}{render(x, depth + 1)}" for x in o]
            return "[\n" + ",\n".join(items) + "\n" + closer + "]"
        if hasattr(o, "item"):        # numpy scalar
            return render(o.item(), depth)
        if hasattr(o, "tolist"):      # numpy array
            return render(o.tolist(), depth)
        raise TypeError(f"cannot serialize {type(o)!r}")

    return render(obj, 0) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(canonical_json(obj))


def csv_cell(x) -> str:
    if isinstance(x, float):
        return fmt_float(x)
    return str(x)


def write_csv(path, header, rows, comment_lines=()) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for line in comment_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(csv_cell(x) for x in row) + "\n")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()
