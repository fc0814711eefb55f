"""Metamorphic invariants: edits that cannot matter never change findings.

The checkers never read positions, so inserting comment lines, blank lines
or (where no literal or directive can be split) inline block comments must
keep the ``(checker, message)`` sequence of the findings.  They compare
names only with each other, so renaming identifiers consistently keeps the
findings too, with the new names in the messages.  A ``--line-range`` that
covers the whole file is the same as none.
"""

from __future__ import annotations

import io
import random
import re

import pytest

from support import C, random_micro_program
from xcheck.checkers import run_checkers
from xcheck.cli import parse_args, run
from xcheck.diagnostics import dedupe_and_sort
from xcheck.fixtures import fixture_path
from xcheck.lexer import TokenKind, tokenize
from xcheck.microgrammar import parse_statements
from xcheck.profiles import LanguageProfile, builtin_registry, profile_for

FIXTURES = ("object.c", "InstCombineAddSub.cpp", "CipherCore.java")


def _messages(source: str, profile: LanguageProfile) -> list[tuple[str, str]]:
    stmts = parse_statements(tokenize(source, profile), profile)
    return [(d.checker, d.message) for d in dedupe_and_sort(run_checkers(stmts, profile, path="t"))]


def _add_comment_lines(source: str, profile: LanguageProfile, rng: random.Random) -> str:
    """Blank and line-comment lines after random lines; never after a line
    continued with a backslash, which would pull the insert into it."""
    extras = ([], [""], ["", ""], [f"{profile.line_comment} inserted"])
    out: list[str] = []
    for line in source.split("\n"):
        out.append(line)
        if not line.endswith("\\"):
            out.extend(rng.choice(extras))
    return "\n".join(out)


def _add_inline_comments(source: str, profile: LanguageProfile, rng: random.Random) -> str:
    """Block comments and blank lines at the spaces between tokens; only for
    sources whose spaces all separate tokens."""
    opener, closer = profile.block_comment
    pieces = (" ", f" {opener} c {closer} ", "\n\n")
    return re.sub(" ", lambda _: rng.choice(pieces), source)


@pytest.mark.parametrize("filename", FIXTURES)
def test_fixture_findings_survive_comment_lines(filename):
    profile = profile_for(filename)
    with open(fixture_path(filename), encoding="utf-8") as fh:
        source = fh.read()
    want = _messages(source, profile)
    rng = random.Random(filename)
    for _ in range(3):
        assert _messages(_add_comment_lines(source, profile, rng), profile) == want


def test_generated_program_findings_survive_comments():
    rng = random.Random(5150)
    total = 0
    for _ in range(500):
        source = random_micro_program(rng)
        want = _messages(source, C)
        total += len(want)
        assert _messages(_add_comment_lines(source, C, rng), C) == want, source
        assert _messages(_add_inline_comments(source, C, rng), C) == want, source
    assert total > 0


def _findings(source: str, profile: LanguageProfile) -> list[tuple[str, int, int | None, str]]:
    stmts = parse_statements(tokenize(source, profile), profile)
    return [
        (d.checker, d.span.start.line, d.related[0].line if d.related else None, d.message)
        for d in dedupe_and_sort(run_checkers(stmts, profile, path="t"))
    ]


def _rename_identifiers(source: str, profile: LanguageProfile) -> tuple[str, dict[str, str]]:
    """Every identifier token except null literals gets a fresh unique name,
    the same one at each occurrence, spliced in by offset."""
    idents = [
        t for t in tokenize(source, profile).tokens
        if t.kind is TokenKind.IDENTIFIER and t.text not in profile.null_literals
    ]
    mapping: dict[str, str] = {}
    for t in idents:
        mapping.setdefault(t.text, f"zz{len(mapping)}_renamed")
    assert not set(mapping.values()) & {t.text for t in idents}
    pieces, done = [], 0
    for t in idents:
        pieces += [source[done : t.pos.offset], mapping[t.text]]
        done = t.pos.offset + len(t.text)
    return "".join(pieces) + source[done:], mapping


def _renamed_message(message: str, mapping: dict[str, str]) -> str:
    """The names quoted in ``message`` (``'state->work'``) under ``mapping``."""

    def rename_quoted(quoted: re.Match[str]) -> str:
        return re.sub(r"[\w$]+", lambda m: mapping.get(m.group(), m.group()), quoted.group())

    return re.sub(r"'[^']*'", rename_quoted, message)


def _assert_renaming_keeps_findings(source: str, profile: LanguageProfile) -> int:
    renamed, mapping = _rename_identifiers(source, profile)
    want = [(c, line, rel, _renamed_message(msg, mapping)) for c, line, rel, msg in _findings(source, profile)]
    assert _findings(renamed, profile) == want, source
    return len(want)


@pytest.mark.parametrize("filename", FIXTURES)
def test_fixture_findings_survive_consistent_renaming(filename):
    with open(fixture_path(filename), encoding="utf-8") as fh:
        _assert_renaming_keeps_findings(fh.read(), profile_for(filename))


def test_generated_program_findings_survive_consistent_renaming():
    rng = random.Random(6160)
    total = sum(_assert_renaming_keeps_findings(random_micro_program(rng), C) for _ in range(500))
    assert total > 0


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    return run(parse_args(argv), registry=builtin_registry(), out=out, err=err), out.getvalue()


@pytest.mark.parametrize("filename", FIXTURES)
def test_full_file_line_range_equals_no_range(filename):
    path = fixture_path(filename)
    with open(path, encoding="utf-8") as fh:
        last = len(fh.read().splitlines())
    whole = _cli(["--format", "json", path])
    assert _cli(["--format", "json", "--line-range", f"1:{last}", path]) == whole
