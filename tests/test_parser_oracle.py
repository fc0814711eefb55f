"""Differential test: the parser on one bracket table, refining each slot
as it is cut, against the old two-pass parser kept in ``reference_parser``.

On every input the statement trees (spans and ``incomplete`` marks
included, compared by ``repr``), the ``--dump-ast`` rendering and the
rendered findings must be identical.  Token conservation is checked too:
the tokens the shipped tree holds plus the reference's syntax-token ledger
are exactly the input tokens.
"""

from __future__ import annotations

import random

import pytest

from reference_parser import reference_parse_statements_debug
from support import (
    C,
    CPP,
    JAVA,
    alphabet_for,
    assert_token_conservation,
    long_chain_program,
    random_micro_program,
)
from xcheck.checkers import run_checkers
from xcheck.diagnostics import dedupe_and_sort, render_text
from xcheck.fixtures import fixture_path
from xcheck.lexer import tokenize
from xcheck.microgrammar import dump_statements, parse_statements
from xcheck.profiles import LanguageProfile, parse_profile_text

BUILTIN = (C, CPP, JAVA)
FIXTURES = ("object.c", "InstCombineAddSub.cpp", "CipherCore.java")

# `[ ]` are plain tokens here and `< >` are brackets, so an ordinary
# comparison opens a group, often one left open inside a `( )` group.
ANGLE_PROFILE = parse_profile_text(
    """\
name = angle
extensions = .ang
operators = < <= > >= == != = += -= ++ -- && || ! -> . + - * ::
keywords = if else while do for switch case default break return
punctuation = ( ) { } [ ] ; , : ?
pairs = ( ) { } < >
deref_ops = -> .
null_literals = NULL
"""
)

# "!" and "++" open bracket groups here, so a cut just after a leading "!"
# or "++" cuts a group open: refining what follows needs a scan of its own.
PREFIX_PAIRS_PROFILE = parse_profile_text(
    """\
name = prefix-pairs
extensions = .pp
operators = < <= > >= == != = += -= ++ -- && || ! -> . + - * ::
keywords = if else while do for switch case default break return
punctuation = ( ) { } [ ] ; , : ?
pairs = ( ) { } ! ? ++ ?
deref_ops = -> .
null_literals = NULL
"""
)


def _observed(stmts, profile: LanguageProfile) -> tuple:
    findings = render_text(dedupe_and_sort(run_checkers(stmts, profile, path="t")))
    return repr(stmts), dump_statements(stmts), findings


def _assert_same(source: str, profile: LanguageProfile) -> None:
    tokens = tokenize(source, profile).tokens
    stmts = parse_statements(tokens, profile)
    reference, acct = reference_parse_statements_debug(tokens, profile)
    got, want = _observed(stmts, profile), _observed(reference, profile)
    assert got == want, f"{profile.name}: parsers differ on {source!r}"
    assert_token_conservation(tokens, stmts, acct)


def _soups(seed: int, profiles, count: int) -> list[tuple[str, LanguageProfile]]:
    """Token soups drawn as in acceptance criterion 5: brackets unbalanced."""
    rng = random.Random(seed)
    alphabets = {p.name: alphabet_for(p) for p in profiles}
    out = []
    for i in range(count):
        profile = profiles[i % len(profiles)]
        roll = rng.random()
        max_len = 64 if roll < 0.7 else (256 if roll < 0.9 else 512)
        words = alphabets[profile.name]
        out.append((" ".join(rng.choice(words) for _ in range(rng.randint(0, max_len))), profile))
    return out


# Expression soup for the slots of generated statement skeletons: stray
# brackets close groups outside their block, and ":", ";" and "," land
# inside labels, headers and argument lists.
_SLOT_WORDS = (
    "a", "b", "p", "1", "NULL", "->", ".", "==", "<", ">", "=", "+=", "++", "&&", "||", "!",
    ",", ":", ";", "?", "(", "(", ")", "[", "]", "{", "}",
)


def _skeleton_program(rng: random.Random) -> str:
    def slot() -> str:
        return " ".join(rng.choice(_SLOT_WORDS) for _ in range(rng.randint(0, 6)))

    def stmt(depth: int) -> str:
        form = rng.randrange(9) if depth < 4 else 0
        if form == 0:
            return f"{slot()} ;"
        if form == 1:
            tail = f" else {stmt(depth + 1)}" if rng.random() < 0.5 else ""
            return f"if ( {slot()} ) {stmt(depth + 1)}{tail}"
        if form == 2:
            return f"while ( {slot()} ) {stmt(depth + 1)}"
        if form == 3:
            return f"do {stmt(depth + 1)} while ( {slot()} ) ;"
        if form == 4:
            return f"for ( {slot()} ; {slot()} ; {slot()} ) {stmt(depth + 1)}"
        if form == 5:
            arms = " ".join(f"case {slot()} : {stmt(depth + 1)}" for _ in range(rng.randint(0, 3)))
            return f"switch ( {slot()} ) {{ {arms} default {slot()} : {stmt(depth + 1)} }}"
        if form == 6:
            return "{ " + " ".join(stmt(depth + 1) for _ in range(rng.randint(0, 3))) + " }"
        if form == 7:
            return slot()  # no terminator
        return f"f ( {slot()} , {slot()} ) ;"

    return " ".join(stmt(0) for _ in range(rng.randint(1, 4)))


@pytest.mark.parametrize("profile", BUILTIN, ids=lambda p: p.name)
@pytest.mark.parametrize("filename", FIXTURES)
def test_fixtures_match_reference(filename, profile):
    with open(fixture_path(filename), encoding="utf-8") as fh:
        _assert_same(fh.read(), profile)


def test_micro_programs_match_reference():
    rng = random.Random(4711)
    for i in range(2_000):
        _assert_same(random_micro_program(rng), BUILTIN[i % 3])


def test_token_soups_match_reference():
    for source, profile in _soups(20240817, BUILTIN, 12_000):
        _assert_same(source, profile)


def test_statement_skeletons_match_reference():
    rng = random.Random(1312)
    profiles = BUILTIN + (ANGLE_PROFILE,)
    for i in range(4_000):
        _assert_same(_skeleton_program(rng), profiles[i % 4])


def test_profile_with_other_pairs_matches_reference():
    for source, profile in _soups(909, (ANGLE_PROFILE,), 3_000):
        _assert_same(source, profile)
    rng = random.Random(910)
    for _ in range(500):
        _assert_same(random_micro_program(rng), ANGLE_PROFILE)


def test_long_operator_chains_match_reference():
    """Chains of 100-300 terms cross the refinement depth cap of 128 levels."""
    rng = random.Random(1128)
    profiles = BUILTIN + (ANGLE_PROFILE, PREFIX_PAIRS_PROFILE)
    for i in range(40):
        _assert_same(long_chain_program(rng), profiles[i % 5])
