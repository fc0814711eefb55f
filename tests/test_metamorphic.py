"""Metamorphic invariant: comments and blank lines never change findings.

The checkers never read positions, so inserting comment lines, blank lines
or (where no literal or directive can be split) inline block comments must
keep the ``(checker, message)`` sequence of the findings.
"""

from __future__ import annotations

import random
import re

import pytest

from support import C, random_micro_program
from xcheck.checkers import run_checkers
from xcheck.diagnostics import dedupe_and_sort
from xcheck.fixtures import fixture_path
from xcheck.lexer import tokenize
from xcheck.microgrammar import parse_statements
from xcheck.profiles import LanguageProfile, profile_for

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
