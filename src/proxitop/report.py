"""Structured report documents with deterministic text and JSON renderings.

A document is a nested structure of dicts (insertion-ordered), lists and
scalars. The text renderer indents mappings and prefixes list items with
dashes; the JSON renderer is json.dumps with a fixed layout. Neither
introduces any ordering of its own, so a command that builds its
document deterministically emits identical bytes on every run.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from fractions import Fraction
from typing import Any

from .modelfile import Model, model_digest
from .spaces import GroundSpace


def format_subset(space: GroundSpace, mask: int) -> str:
    return space.format(mask)


def timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def model_header(model: Model, *, with_timestamp: bool) -> dict:
    space = model.space
    head = {
        "digest": model_digest(model),
        "points": list(space.points.labels),
        "open_sets": len(space.opens),
        "proximity_kind": model.proximity.kind,
    }
    if with_timestamp:
        head["timestamp"] = timestamp()
    return head


def _json_default(value: Any):
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"not JSON serializable: {value!r}")


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, default=_json_default) + "\n"


def render_text(doc: dict) -> str:
    lines: list[str] = []
    _render_value(doc, 0, lines, key=None)
    return "\n".join(lines) + "\n"


def _scalar_text(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    if isinstance(value, Fraction):
        return str(value)
    return str(value)


def _render_value(value: Any, indent: int, lines: list[str], key: str | None):
    pad = "  " * indent
    if isinstance(value, dict):
        if key is not None:
            lines.append(f"{pad}{key}:")
        for k, v in value.items():
            _render_value(v, indent + (0 if key is None else 1), lines, key=str(k))
    elif isinstance(value, (list, tuple)):
        if not value:
            lines.append(f"{pad}{key}: (none)")
            return
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            joined = ", ".join(_scalar_text(v) for v in value)
            lines.append(f"{pad}{key}: {joined}")
            return
        lines.append(f"{pad}{key}:")
        for v in value:
            if isinstance(v, (dict, list, tuple)):
                sub: list[str] = []
                _render_value(v, 0, sub, key=None)
                if sub:
                    lines.append(f"{pad}  - {sub[0].strip()}")
                    for extra in sub[1:]:
                        lines.append(f"{pad}    {extra}")
            else:
                lines.append(f"{pad}  - {_scalar_text(v)}")
    else:
        if isinstance(value, str) and "\n" in value:
            lines.append(f"{pad}{key}: |")
            for sub in value.rstrip("\n").split("\n"):
                lines.append(f"{pad}  {sub}")
        else:
            lines.append(f"{pad}{key}: {_scalar_text(value)}")
