"""Finding representation and rendering (human text and machine JSON)."""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Sequence

from .lexer import Position
from .microgrammar import Span


class Diagnostic(NamedTuple):
    """One finding (immutable named tuple)."""

    checker: str
    message: str
    file: str
    span: Span
    related: tuple[Position, str] | None = None  # e.g. the justifying dereference
    severity: str = "warning"


def sort_key(d: Diagnostic) -> tuple[str, int, str]:
    return (d.file, d.span.start.offset, d.checker)


def dedupe_and_sort(diags: Iterable[Diagnostic]) -> list[Diagnostic]:
    """Strict (file, start offset, checker id) order, exact duplicates dropped."""
    return list(dict.fromkeys(sorted(diags, key=sort_key)))


def render_text(diags: Sequence[Diagnostic]) -> str:
    """One finding per line; related positions on an indented note line."""
    lines: list[str] = []
    for d in diags:
        start = d.span.start
        lines.append(
            f"{d.file}:{start.line}:{start.column}: {d.severity} [{d.checker}]: {d.message}"
        )
        if d.related is not None:
            pos, note = d.related
            lines.append(f"  note: {note} at {pos.line}:{pos.column}")
    return "\n".join(lines)


def to_record(d: Diagnostic) -> dict:
    """The stable machine-readable shape (key order matters)."""
    record: dict = {
        "checker": d.checker,
        "message": d.message,
        "file": d.file,
        "start_line": d.span.start.line,
        "start_col": d.span.start.column,
        "end_line": d.span.end.line,
        "end_col": d.span.end.column,
    }
    if d.related is not None:
        pos, note = d.related
        record["related_line"] = pos.line
        record["related_col"] = pos.column
        record["related_note"] = note
    return record


def render_json(diags: Sequence[Diagnostic]) -> str:
    return json.dumps([to_record(d) for d in diags], indent=2)
