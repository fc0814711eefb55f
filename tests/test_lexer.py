"""Lexer behavior: token classes, maximal munch, comments, recovery."""

import random

import pytest

from support import (
    C,
    CPP,
    JAVA,
    all_operator_tokenizations,
    greedy_operator_tokenization,
)
from xcheck import lexer
from xcheck.lexer import TokenKind, compile_scanner, tokenize
from xcheck.profiles import MalformedProfile, validate_profile


def texts(stream):
    return [t.text for t in stream.tokens]


def kinds(stream):
    return [t.kind for t in stream.tokens]


def test_longest_operator_wins():
    stream = tokenize("x <= 2", C)
    assert texts(stream) == ["x", "<=", "2"]
    assert kinds(stream) == [TokenKind.IDENTIFIER, TokenKind.OPERATOR, TokenKind.INT_LITERAL]


def test_empty_source():
    stream = tokenize("", C)
    assert stream.tokens == [] and stream.errors == []


def test_plus_plus_plus_matches_enumeration_oracle():
    # Expected value computed by enumerating every tokenization of "+++"
    # and picking the greedy one at each position.
    options = all_operator_tokenizations("+++", C.operators)
    assert sorted(options) == [["+", "+", "+"], ["+", "++"], ["++", "+"]]
    expected = greedy_operator_tokenization("+++", C.operators)
    assert expected == ["++", "+"]
    stream = tokenize("a+++b", C)
    assert texts(stream) == ["a", "++", "+", "b"]


def test_comment_produces_no_tokens_and_positions_hold():
    stream = tokenize("/* hi */ x", C)
    assert len(stream.tokens) == 1
    t = stream.tokens[0]
    assert t.text == "x" and t.pos.column == 10 and t.pos.offset == 9


def test_line_comments_and_block_comments():
    src = "a // trailing ; } if\nb /* c */ d\n/* multi\nline */ e"
    assert texts(tokenize(src, C)) == ["a", "b", "d", "e"]


def test_positions_point_into_source():
    src = 'if (x >= 3) foo("s\\"tr", \'c\');\nwhile (y) --y;'
    stream = tokenize(src, C)
    for t in stream.tokens:
        assert src[t.pos.offset : t.pos.offset + len(t.text)] == t.text
    offsets = [t.pos.offset for t in stream.tokens]
    assert offsets == sorted(offsets) and len(set(offsets)) == len(offsets)


def test_string_and_char_literals_are_single_tokens():
    stream = tokenize('f("a, (b;", \'\\n\')', JAVA)
    assert texts(stream) == ["f", "(", '"a, (b;"', ",", "'\\n'", ")"]
    assert stream.tokens[2].kind is TokenKind.STRING_LITERAL
    assert stream.tokens[4].kind is TokenKind.CHAR_LITERAL


def test_unterminated_string_recovers_at_next_line():
    stream = tokenize('x = "broken\ny;', C)
    assert [e.kind for e in stream.errors] == ["unterminated-string"]
    assert stream.errors[0].pos.line == 1
    # lexing resumed: the next line still tokenizes
    assert texts(stream)[-2:] == ["y", ";"]


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_a_backslash_before_a_line_end_continues_a_literal(end):
    stream = tokenize(f'x = "a\\{end}b";{end}c = \'\\{end}\';{end}', C)
    assert texts(stream) == ["x", "=", f'"a\\{end}b"', ";", "c", "=", f"'\\{end}'", ";"]
    assert kinds(stream)[2] is TokenKind.STRING_LITERAL and kinds(stream)[6] is TokenKind.CHAR_LITERAL
    assert stream.errors == []
    assert stream.tokens[3].pos.line == 2 and stream.tokens[4].pos.line == 3


def test_unterminated_block_comment_is_reported():
    stream = tokenize("a /* never closed", C)
    assert texts(stream) == ["a"]
    assert [e.kind for e in stream.errors] == ["unterminated-block-comment"]


def test_unknown_character_becomes_punctuation_with_warning():
    stream = tokenize("a ` b", C)
    assert texts(stream) == ["a", "`", "b"]
    assert stream.tokens[1].kind is TokenKind.PUNCTUATION
    assert [e.kind for e in stream.errors] == ["unknown-character"]


def test_java_annotation_at_sign_is_quiet_punctuation():
    stream = tokenize("@Override void f()", JAVA)
    assert texts(stream) == ["@", "Override", "void", "f", "(", ")"]
    assert stream.errors == []


def test_preprocessor_lines_are_skipped_with_continuation():
    src = '#include <stdio.h>\n#define MAX(a, b) \\\n  ((a) > (b) ? (a) : (b))\nint x;\n'
    stream = tokenize(src, C)
    assert texts(stream) == ["int", "x", ";"]
    assert stream.tokens[0].pos.line == 4


@pytest.mark.parametrize("profile", [C, CPP], ids=lambda p: p.name)
def test_prefix_inside_a_line_is_an_unknown_character(profile):
    stream = tokenize("x = a # b;\n  #define Q 1\ny = c;", profile)
    assert texts(stream) == ["x", "=", "a", "#", "b", ";", "y", "=", "c", ";"]
    assert stream.tokens[3].kind is TokenKind.PUNCTUATION
    assert [(e.kind, e.pos.line, e.pos.column) for e in stream.errors] == [("unknown-character", 1, 7)]


@pytest.mark.parametrize("piece", [" # b", " \xa0# b"], ids=["space", "nbsp"])
def test_a_line_of_mid_line_prefixes_is_read_a_bounded_number_of_times(monkeypatch, piece):
    # Whether a prefix starts a directive is decided from the characters just
    # before it, and only a directive is matched to the end of its line:
    # reading back to the line's start or on to its end for each prefix would
    # grow with the square of the line.
    read = 0

    class Source(str):
        def __getitem__(self, key):
            nonlocal read
            part = str.__getitem__(self, key)
            read += len(part)
            return part

    class CountingPattern:
        def __init__(self, pattern):
            self.pattern = pattern

        def match(self, source, pos):
            nonlocal read
            m = self.pattern.match(source, pos)
            read += m.end() - pos
            return m

    compile = lexer.compile_scanner
    monkeypatch.setattr(lexer, "compile_scanner", lambda *args: CountingPattern(compile(*args)))

    def cost(n):
        nonlocal read
        read = 0
        stream = tokenize(Source("int a = 1" + piece * n + ";"), C)
        assert texts(stream).count("#") == n
        return read

    cost200, cost400 = cost(200), cost(400)
    assert cost400 <= 2.2 * cost200, (cost200, cost400)


def test_one_scanner_serves_a_profile_with_mid_line_prefixes():
    compile_scanner.cache_clear()
    stream = tokenize("#include <a.h>\n" + "x = a # b # c;\n" * 50, C)
    assert texts(stream).count("#") == 100
    assert compile_scanner.cache_info().currsize == 1
    # A prefix in the middle of a line lexes as it does under the profile with no prefix.
    source = "x = a # b # c;"
    assert tokenize(source, C) == tokenize(source, C._replace(preprocessor_prefix=None))


@pytest.mark.parametrize(
    ("source", "profile", "expected", "unknown"),
    [
        ("#define Q 1\nx;", C, ["x", ";"], 0),
        ("\t\v\f #define Q 1\nx;", C, ["x", ";"], 0),
        ("y;\r\n#define Q 1\r\nx;", C, ["y", ";", "x", ";"], 0),
        ("#define X \\\r\n  y\r\nx;", C, ["x", ";"], 0),
        ("y; // note\n  #define Q 1\nx;", C, ["y", ";", "x", ";"], 0),
        ("/* a\n b */\n#define Q 1\nx;", C, ["x", ";"], 0),
        ("/* c */ #define Q 1\nx;", C, ["#", "define", "Q", "1", "x", ";"], 1),
        ("\xa0#define Q 1\nx;", C, ["\xa0", "#", "define", "Q", "1", "x", ";"], 1),
        ("\x1c#define Q 1\nx;", C, ["\x1c", "#", "define", "Q", "1", "x", ";"], 2),
        ("//! a \\\nx;", C._replace(preprocessor_prefix="//!"), ["x", ";"], 0),
        ("/*! a */ x;\n", C._replace(preprocessor_prefix="/*!"), ["x", ";"], 0),
    ],
    ids=[
        "file-start", "file-start-after-blanks", "after-crlf", "continued-over-crlf", "after-line-comment",
        "after-block-comment-line", "not-after-block-comment", "not-after-nbsp", "not-after-x1c",
        "line-comment-wins", "block-comment-wins",
    ],
)
def test_a_directive_is_a_prefix_after_blanks_at_a_line_start(source, profile, expected, unknown):
    stream = tokenize(source, profile)
    assert texts(stream) == expected
    assert [e.kind for e in stream.errors] == ["unknown-character"] * unknown


def test_the_scanner_is_entered_once_per_token(monkeypatch):
    # Whitespace, line comments and directives are skipped inside the next
    # token's match; a block comment and the end of input take one each.
    class CountingPattern:
        matches = 0

        def __init__(self, pattern):
            self.pattern = pattern

        def match(self, *args):
            CountingPattern.matches += 1
            return self.pattern.match(*args)

    compile = lexer.compile_scanner
    monkeypatch.setattr(lexer, "compile_scanner", lambda *args: CountingPattern(compile(*args)))
    rng = random.Random(5)
    gaps = [" ", "\t\f\v", "\r\n  ", " // note\n", "\n\n// a\n//\n \t"]
    words = ["if", "(", "p", ")", "x", "=", "1", ";"] * 20
    source = "#define Q 1\n" + "".join(w + rng.choice(gaps) for w in words) + "/* block */ y;\n"
    stream = tokenize(source, C)
    assert texts(stream) == words + ["y", ";"]
    assert CountingPattern.matches <= len(stream.tokens) + 2


@pytest.mark.parametrize(
    "fields",
    [{"block_comment": ("/*",)}, {"operators": frozenset()}, {"punctuation": C.punctuation | {"->"}}],
    ids=["block-comment-without-closer", "no-operators", "multi-character-punctuation"],
)
def test_a_malformed_profile_handed_to_tokenize_is_named(fields):
    # Derived with _replace, the profile never meets a registry: its scanner validates it.
    profile = C._replace(**fields)
    with pytest.raises(MalformedProfile) as validated:
        validate_profile(profile)
    with pytest.raises(MalformedProfile) as lexed:
        tokenize("a -> b", profile)
    assert str(lexed.value) == str(validated.value)


@pytest.mark.parametrize(
    "fields", [{"operators": set(C.operators)}, {"keywords": ["if"]}], ids=["set", "list"]
)
def test_a_profile_with_a_mutable_field_handed_to_tokenize_is_named(fields):
    # The scanner cache hashes the profile before validation could run.
    with pytest.raises(MalformedProfile, match="every field must be immutable"):
        tokenize("a", C._replace(**fields))


def test_tokenize_validates_a_profile_once_per_value(monkeypatch):
    compile_scanner.cache_clear()
    calls = []
    validate = lexer.validate_profile
    monkeypatch.setattr(lexer, "validate_profile", lambda profile: calls.append(profile.name) or validate(profile))
    for _ in range(20):
        tokenize("if (p) x = 1;", C)
        tokenize("a -> b", C._replace())  # an equal value shares the scanner
    assert calls == ["c"]


def test_hash_is_not_special_in_java():
    stream = tokenize("# x", JAVA)
    assert texts(stream) == ["#", "x"]
    assert [e.kind for e in stream.errors] == ["unknown-character"]


def test_keywords_are_profile_driven():
    c = tokenize("new delete class", C).tokens
    cpp = tokenize("new delete class", CPP).tokens
    assert [t.kind for t in c] == [TokenKind.IDENTIFIER] * 3
    assert [t.kind for t in cpp] == [TokenKind.KEYWORD] * 3


@pytest.mark.parametrize(
    "literal,kind",
    [
        ("42", TokenKind.INT_LITERAL),
        ("0x1F", TokenKind.INT_LITERAL),
        ("0755", TokenKind.INT_LITERAL),
        ("100L", TokenKind.INT_LITERAL),
        ("1_000", TokenKind.INT_LITERAL),
        ("3.14", TokenKind.FLOAT_LITERAL),
        (".5", TokenKind.FLOAT_LITERAL),
        ("1e10", TokenKind.FLOAT_LITERAL),
        ("1.5e-3", TokenKind.FLOAT_LITERAL),
        ("0x1p-3", TokenKind.FLOAT_LITERAL),
    ],
)
def test_numeric_literal_classes(literal, kind):
    stream = tokenize(literal, C)
    assert texts(stream) == [literal]
    assert stream.tokens[0].kind is kind


def test_numeric_then_operator_split():
    assert texts(tokenize("1+2", C)) == ["1", "+", "2"]
    assert texts(tokenize("i<=n", C)) == ["i", "<=", "n"]


def test_arrow_and_scope_tokens():
    assert texts(tokenize("a->b", CPP)) == ["a", "->", "b"]
    assert texts(tokenize("std::min", CPP)) == ["std", "::", "min"]
    assert texts(tokenize("A::B", C)) == ["A", "::", "B"]
    assert texts(tokenize("Runnable r = () -> x;", JAVA)).count("->") == 1


def test_maximal_munch_property_on_random_symbol_soup():
    rng = random.Random(7)
    pool = sorted(C.operators) + ["x", "y", " ", "42"]
    by_len = sorted(C.operators, key=len, reverse=True)
    for _ in range(100):
        src = "".join(rng.choice(pool) for _ in range(rng.randint(0, 30)))
        stream = tokenize(src, C)
        for t in stream.tokens:
            assert src[t.pos.offset : t.pos.offset + len(t.text)] == t.text
            if t.kind is TokenKind.OPERATOR:
                longest = next(op for op in by_len if src.startswith(op, t.pos.offset))
                assert t.text == longest, f"{t.text!r} is not maximal at {t.pos.offset} in {src!r}"


def test_round_trip_reconstruction():
    src = 'int a = 1; /* gap */ if (a) { s = "x;y"; } // tail\n'
    stream = tokenize(src, C)
    rebuilt = []
    prev_end = 0
    for t in stream.tokens:
        rebuilt.append(src[prev_end : t.pos.offset])
        rebuilt.append(t.text)
        prev_end = t.pos.offset + len(t.text)
    rebuilt.append(src[prev_end:])
    assert "".join(rebuilt) == src


def test_tokenize_is_deterministic():
    src = "for (i = 0; i < n; i++) total += i;"
    a, b = tokenize(src, C), tokenize(src, C)
    assert [(t.kind, t.text, t.pos) for t in a.tokens] == [(t.kind, t.text, t.pos) for t in b.tokens]


def test_token_at_bounds():
    stream = tokenize("a b c", C)
    assert stream.tokens[0].text == "a"
    assert stream.tokens[2].text == "c"
    with pytest.raises(IndexError):
        tokenize("a", C).tokens[1]


def test_non_ascii_digits_lex_as_identifier_text():
    # A number starts only at an ASCII digit; before this rule "²" and "٣"
    # made tokenize loop forever.
    stream = tokenize("x = ²;", C)
    assert texts(stream) == ["x", "=", "²", ";"]
    assert stream.tokens[2].kind is TokenKind.IDENTIFIER
    assert stream.errors == []
    stream = tokenize(".٣", C)
    assert texts(stream) == [".", "٣"]
    assert kinds(stream) == [TokenKind.OPERATOR, TokenKind.IDENTIFIER]


def test_fresh_profiles_never_share_a_stale_scanner():
    # Each profile is freed before the next is made, so a cache keyed by
    # id() would hand some of them the previous profile's operators.
    for i in range(40):
        operators = C.operators | {"++"} if i % 2 else C.operators - {"++"}
        profile = C._replace(operators=operators)
        expected = ["a", *greedy_operator_tokenization("++", operators), "b"]
        assert texts(tokenize("a++b", profile)) == expected, f"profile {i}"
        del profile
