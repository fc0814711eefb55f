"""Findings: built by :func:`finding`, the one place their positions are resolved,
ordered by :func:`dedupe_and_sort`, and rendered as human text or machine JSON."""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .lexer import Position, position
from .microgrammar import Extent, Span


class Diagnostic(NamedTuple):
    """One finding (immutable named tuple)."""

    checker: str
    message: str
    file: str
    span: Span
    related: tuple[Position, str] | None = None  # e.g. the justifying dereference


def finding(checker: str, message: str, file: str, extent: Extent, related: tuple[int, str] | None = None) -> Diagnostic:
    """The finding at ``extent``, citing ``related``, an ``(offset, note)`` pair in the
    same source; its positions are resolved here, so no source text outlives its file."""
    if related is not None:
        offset, note = related
        related = (position(extent.source, offset), note)
    return Diagnostic(checker, message, file, extent.resolve(), related)


def dedupe_and_sort(diags: Iterable[Diagnostic]) -> list[Diagnostic]:
    """Strict (file, start offset, checker id) order, exact duplicates dropped."""
    return list(dict.fromkeys(sorted(diags, key=lambda d: (d.file, d.span.start.offset, d.checker))))


def render_text(diags: Sequence[Diagnostic]) -> str:
    """One warning per finding; related positions on an indented note line."""
    lines: list[str] = []
    for d in diags:
        start = d.span.start
        lines.append(
            f"{d.file}:{start.line}:{start.column}: warning [{d.checker}]: {d.message}"
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
    import json  # here, not at the top: a text-format run never pays for the import

    return json.dumps([to_record(d) for d in diags], indent=2)
