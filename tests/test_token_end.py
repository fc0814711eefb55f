"""End positions, checked against the source text.

``tests/reference_parser.py`` builds its spans with its ``token_end``, through
the shipped ``lexer.position``, so the parser oracle cannot see a wrong end
position.  Here
each token's end is recomputed from the text alone: the line, column and
offset of ``offset + len(text)``.  Every parsed node's span must end where
its last token does, and the records the lexer and parser build must be
instances of the named classes (a node's span is an ``Extent`` of offsets).
The walk also checks that the parse conserves the token stream: the slot
expressions' ranges are disjoint, and only the statement syntax (keywords,
brackets, the terminator, a label's ``:``) lies outside them.
"""

from __future__ import annotations

import bisect
import random

import pytest

from reference_parser import token_end
from support import C, CPP, JAVA, random_micro_program, random_token_source
from xcheck.fixtures import fixture_path
from xcheck.lexer import Position, Token, TokenKind, tokenize
from xcheck.microgrammar import (
    BODY,
    Extent,
    For,
    Span,
    Switch,
    parse_statements,
    walk_statements,
)
from xcheck.profiles import LanguageProfile

FIXTURES = ("object.c", "InstCombineAddSub.cpp", "CipherCore.java")
PROFILES = {"c": C, "cpp": CPP, "java": JAVA}
# A backslash before a newline continues a string literal onto the next line.
ESCAPED_NEWLINES = (
    'char *s = "ab\\\ncd"; x = 1;\n',
    'p = "\\\n\\\n"; if (p) q->a;\n',
    'x = "one\\\ntwo\\\nthree" + y;\n  z = \'\\\n\';\n',
    'if (a) {\n  s = "x\\\n  y";\n}\nb->c = "\\\n";',
)


def _end_from_source(source: str, tok: Token) -> Position:
    end = tok.pos.offset + len(tok.text)
    line_start = source.rfind("\n", 0, end) + 1
    return Position(source.count("\n", 0, end) + 1, end - line_start + 1, end)


def _expressions(stmt, tokens):
    """Every expression node under ``stmt``'s slots, nested ones too, each
    checked against the stream's ``tokens``: it reads as its range of them,
    and its children's ranges lie inside its own, disjoint and in source order."""
    todo = [part for role, part in stmt.parts() if role is not BODY and part is not None]
    while todo:
        expr = todo.pop()
        assert expr.tokens == tuple(tokens[expr.lo : expr.hi]), expr
        end = expr.lo
        for child in expr.children():
            assert end <= child.lo <= child.hi <= expr.hi, (expr, child)
            end = child.hi
        yield expr
        todo += expr.children()


def _check(source: str, profile: LanguageProfile) -> int:
    tokens = tokenize(source, profile).tokens
    for tok in tokens:
        assert type(tok) is Token and type(tok.pos) is Position
        assert source.startswith(tok.text, tok.pos.offset)
        end = token_end(tok)
        assert type(end) is Position
        assert end == _end_from_source(source, tok), (tok, source)

    offsets = [t.pos.offset for t in tokens]

    def ends_at_last_token(span: Extent) -> None:
        # The last token that starts inside the span must end where it ends.
        assert type(span) is Extent
        if span.start == span.end:
            return
        last = tokens[bisect.bisect_left(offsets, span.end.offset) - 1]
        assert span.start.offset <= last.pos.offset
        assert span.end == token_end(last), (span, last)

    nodes = 0
    shared = set()  # the token tuple every expression node holds: one per parse
    slots = []  # each statement's slot expressions, as ranges of the tuple
    for stmt in walk_statements(parse_statements(tokenize(source, profile), profile)):
        slots += [(part.lo, part.hi) for role, part in stmt.parts() if role is not BODY and part is not None]
        ends_at_last_token(stmt.span)
        spans = [arm.span for arm in stmt.cases] if isinstance(stmt, Switch) else []
        if isinstance(stmt, For):
            spans.append(stmt.header_span)
        for span in spans:
            ends_at_last_token(span)
        for expr in _expressions(stmt, tokens):
            shared.add(id(expr.toks))
            assert type(expr.span) is Extent
            covered = expr.tokens
            if covered:
                assert expr.span.end == token_end(covered[-1])
                ends_at_last_token(expr.span)
        nodes += 1
    assert len(shared) <= 1
    syntax = {text for pair in profile.open_close_pairs for text in pair} | {profile.stmt_terminator, ":"}
    end = 0
    for lo, hi in sorted(slots):
        assert end <= lo, ("slots overlap", tokens[lo:end])
        outside = [t for t in tokens[end:lo] if t.kind is not TokenKind.KEYWORD and t.text not in syntax]
        assert not outside, ("not in a slot", outside)
        end = hi
    assert all(t.kind is TokenKind.KEYWORD or t.text in syntax for t in tokens[end:]), tokens[end:]
    return nodes


@pytest.mark.parametrize("filename", FIXTURES)
@pytest.mark.parametrize("language", PROFILES)
def test_fixture_end_positions_match_the_source(filename, language):
    with open(fixture_path(filename), encoding="utf-8") as fh:
        assert _check(fh.read(), PROFILES[language]) > 0


def test_generated_program_end_positions_match_the_source():
    rng = random.Random(8180)
    assert sum(_check(random_micro_program(rng), C) for _ in range(300)) > 0


@pytest.mark.parametrize("language", PROFILES)
def test_token_soup_end_positions_match_the_source(language):
    rng = random.Random(8181)
    for _ in range(100):
        _check(random_token_source(rng, PROFILES[language], 256), PROFILES[language])


@pytest.mark.parametrize("source", ESCAPED_NEWLINES)
@pytest.mark.parametrize("language", PROFILES)
def test_escaped_newline_end_positions_match_the_source(source, language):
    _check(source, PROFILES[language])
    strings = [t for t in tokenize(source, PROFILES[language]).tokens if "\n" in t.text]
    assert strings and all(token_end(t).line > t.pos.line for t in strings)


@pytest.mark.parametrize("filename", FIXTURES)
def test_positions_past_the_counted_prefix_match_the_source(filename):
    # Positions within 8K characters of the file's start are counted, later
    # ones are looked up in the table of line starts: cover both, and a
    # resolved span's two ends.
    with open(fixture_path(filename), encoding="utf-8") as fh:
        source = "\n".join([fh.read()] * 16)
    language = {".c": "c", ".cpp": "cpp", ".java": "java"}[filename[filename.rindex("."):]]
    assert len(source) > 3 * 8192
    assert _check(source, PROFILES[language]) > 0
    for stmt in walk_statements(parse_statements(tokenize(source, PROFILES[language]), PROFILES[language])):
        assert stmt.span.resolve() == Span(stmt.span.start, stmt.span.end)
