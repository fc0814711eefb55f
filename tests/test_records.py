"""Value semantics of the pipeline's small records.

Tokens, positions, spans, lex errors, findings and the null-deref log's
entries and events are immutable values: a field cannot be assigned, and
equal records hash equal, so sets and dicts deduplicate them.
"""

from __future__ import annotations

import pytest

from xcheck.checkers import DerefEvent, KillEvent, NonNullEntry, NullTestEvent, ResetEvent
from xcheck.diagnostics import Diagnostic, dedupe_and_sort
from xcheck.lexer import LexError, Position, Token, TokenKind
from xcheck.microgrammar import Span


def _pos(line: int = 1) -> Position:
    return Position(line, 1, 10 * (line - 1))


def _span(line: int = 1) -> Span:
    return Span(_pos(line), Position(line, 5, 10 * (line - 1) + 4))


def _diag(line: int = 1, message: str = "m") -> Diagnostic:
    return Diagnostic("null-deref", message, "a.c", _span(line), (_pos(1), "'p' dereferenced"))


# Each builder returns a fresh, equal instance on every call.
RECORDS = {
    "Position": lambda: _pos(2),
    "Token": lambda: Token(TokenKind.IDENTIFIER, "x", _pos()),
    "LexError": lambda: LexError("unknown-character", "unexpected character '@'", _pos()),
    "Span": lambda: _span(),
    "Diagnostic": lambda: _diag(),
    "NonNullEntry": lambda: NonNullEntry(("p", "->", "f"), _pos()),
    "DerefEvent": lambda: DerefEvent(("p",), _pos()),
    "NullTestEvent": lambda: NullTestEvent(("p",), _span()),
    "KillEvent": lambda: KillEvent("p", _pos()),
    "ResetEvent": lambda: ResetEvent(_pos()),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_cannot_be_assigned(name):
    record = RECORDS[name]()
    for field_name in type(record).__annotations__:
        with pytest.raises(AttributeError):
            setattr(record, field_name, None)


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_hash_equal_and_deduplicate(name):
    first, second = RECORDS[name](), RECORDS[name]()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1


def test_diagnostic_defaults():
    d = Diagnostic("loop-direction", "m", "a.c", _span())
    assert d.related is None and d.severity == "warning"


def test_token_repr_is_compact():
    assert repr(Token(TokenKind.IDENTIFIER, "x", Position(1, 1, 0))) == "Token(IDENTIFIER, 'x', 1:1)"


def test_dedupe_and_sort_drops_exact_duplicates():
    later, earlier = _diag(3), _diag(2)
    other_message = _diag(2, message="other")
    out = dedupe_and_sort([later, earlier, _diag(3), other_message, _diag(2)])
    assert out == [earlier, other_message, later]
