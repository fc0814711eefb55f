"""Differential test: the compiled lexer against the old character-at-a-time
scanner kept in ``reference_lexer``.

Tokens (kind, text, line, column, offset) and errors (kind, message,
position) must match exactly on the bundled fixtures, on seeded fuzz
strings, and under profile files whose comment, quote, escape and
preprocessor data differ from the built-in ones.
"""

from __future__ import annotations

import random

import pytest

from reference_lexer import reference_tokenize
from support import C, CPP, JAVA
from xcheck.fixtures import fixture_path
from xcheck.lexer import tokenize
from xcheck.profiles import LanguageProfile, parse_profile_text

BUILTIN = (C, CPP, JAVA)
FIXTURES = ("object.c", "InstCombineAddSub.cpp", "CipherCore.java")
SAMPLES_PER_PROFILE = 12_000

# The string quote is also the escape character, so a quote never closes a
# string; comments, the preprocessor prefix and the char quote all differ
# from the C family's.
ODD_PROFILE = parse_profile_text(
    """\
name = odd
extensions = .odd
line_comment = --
block_comment = {- -}
string_delims = ` "
escape = `
preprocessor = %%
operators = -> - = == < <= + ++ . :=
punctuation = ( ) [ ] ; ,
pairs = ( ) [ ]
"""
)
# One quote for strings and chars, a non-backslash escape, and a
# two-character preprocessor prefix that starts like an operator.
CARET_PROFILE = parse_profile_text(
    """\
name = caret
extensions = .crt
line_comment = ;;
block_comment = (* *)
string_delims = ' '
escape = ^
preprocessor = !#
operators = ! != * ** ( -> >>
punctuation = ( ) { } ;
pairs = ( ) { }
"""
)
# A block-comment opener and a preprocessor prefix that start with an
# identifier character, so the scanner must try them before identifiers; a
# line comment that starts like the block comment's closer; and punctuation
# characters (":", "-") that also start operators.
DOLLAR_PROFILE = parse_profile_text(
    """\
name = dollar
extensions = .dlr
line_comment = *#
block_comment = $* *$
string_delims = " '
escape = \\
preprocessor = $$
operators = :: := -> -- * + ++ = == < <=
punctuation = ( ) { } ; , : - ?
pairs = ( ) { }
"""
)

# Pieces the fuzz strings are made of.
_COMMON_PIECES = [
    " ", "  ", "\t", "\n", "\n", "\r\n", "\f", "\v",
    "//", "/*", "*/", "/", "*", "\\\n", "\\", "\n#", "#", "# define X \\\n 1\n",
    '"', "'", '\\"', "\\'", "\\\\", '"s"', "'c'",
    "0", "7", "42", "0x", "0X1p", "0x1P+3", "1e", "1E-", "1.5e+3", ".5", "e", "p", "x", ".", "+", "-", "_",
    "if", "NULL", "null", "a$b", "é", "λx", "ß", "中文", "\xa0", " ",
    "²", "٣", ".٣", "x²",
    "`", "@", "\x01", "\x1c", "~", "::", "->", ">>>=", "++", "&&", "<=", "=", "(", ")", "{", "}", ";",
]


def _pieces(profile: LanguageProfile) -> list[str]:
    own = [profile.line_comment, *profile.block_comment, *profile.string_delims, profile.escape_char]
    if profile.preprocessor_prefix:
        own += [profile.preprocessor_prefix, "\n" + profile.preprocessor_prefix]
    return _COMMON_PIECES + own + sorted(profile.operators)


def _fuzz_sources(profile: LanguageProfile, count: int) -> list[str]:
    rng = random.Random(profile.name)
    pieces = _pieces(profile)
    return ["".join(rng.choices(pieces, k=rng.randint(0, 40))) for _ in range(count)]


def _observed(stream):
    tokens = [(t.kind, t.text, t.pos.line, t.pos.column, t.pos.offset) for t in stream.tokens]
    errors = [(e.kind, e.message, e.pos) for e in stream.errors]
    return tokens, errors


def _assert_same(source: str, profile: LanguageProfile) -> None:
    got = _observed(tokenize(source, profile))
    want = _observed(reference_tokenize(source, profile))
    assert got == want, f"{profile.name}: lexers differ on {source!r}"


@pytest.mark.parametrize("profile", BUILTIN, ids=lambda p: p.name)
@pytest.mark.parametrize("filename", FIXTURES)
def test_fixtures_match_reference(filename, profile):
    with open(fixture_path(filename), encoding="utf-8") as fh:
        _assert_same(fh.read(), profile)


@pytest.mark.parametrize("profile", BUILTIN, ids=lambda p: p.name)
def test_fuzz_matches_reference(profile):
    for source in _fuzz_sources(profile, SAMPLES_PER_PROFILE):
        _assert_same(source, profile)


@pytest.mark.parametrize("profile", (ODD_PROFILE, CARET_PROFILE, DOLLAR_PROFILE), ids=lambda p: p.name)
def test_profile_file_data_matches_reference(profile):
    for source in _fuzz_sources(profile, SAMPLES_PER_PROFILE // 2):
        _assert_same(source, profile)
