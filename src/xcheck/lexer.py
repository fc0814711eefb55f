"""Profile-driven tokenizer.

Turns raw source text into a stream of tokens that hold offsets, not lines
(``tok.pos`` finds line and column when read).  Each profile's data
(comment syntax, quotes and escape, preprocessor prefix, operators) is
compiled into one regex scanner, cached by the profile's value and validated
once, when compiled: a malformed one raises ``MalformedProfile``.  Comments
never produce tokens; a number (one rule, hex or decimal), string or char
literal is one ``LITERAL`` token, and operators are matched with maximal
munch (the longest operator in the profile wins at every position), so "++"
can never lex as "+", "+".

Lexing never hard-fails and always terminates: every step consumes at
least one character.  Unterminated literals and unknown characters are
recorded on the stream as recoverable errors and scanning resumes.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from enum import Enum, auto
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .profiles import LanguageProfile, validate_profile


class TokenKind(Enum):
    IDENTIFIER = auto()
    KEYWORD = auto()
    OPERATOR = auto()
    PUNCTUATION = auto()
    LITERAL = auto()  # a number, string or char: no reader tells them apart by kind


# Members bound to module names once, here, and imported by the parser and
# checkers: on CPython 3.11 reading a member through its enum class costs
# several times a module-global read, and per-token loops pay it per token.
_IDENT, _KW, _OP, _PUNCT, _LIT = (
    TokenKind.IDENTIFIER, TokenKind.KEYWORD, TokenKind.OPERATOR, TokenKind.PUNCTUATION, TokenKind.LITERAL
)


# Hot loops build records with the C tuple constructor, skipping the Python
# frame of NamedTuple's generated ``__new__``; none of these classes overrides it.
_new = tuple.__new__


class Position(NamedTuple):
    """A point in a source file: 1-based line/column, 0-based offset, all in characters.

    Immutable named tuple, like the pipeline's other per-token, per-node and
    per-event records: it builds about twice as fast as a frozen dataclass.
    The lexer's and parser's hot loops build tokens and spans with
    ``tuple.__new__``; they are still instances of these classes.
    """

    line: int
    column: int
    offset: int


@lru_cache(maxsize=4)
def line_starts(source: str) -> tuple[int, ...]:
    """Where each line of ``source`` starts: one C-level pass per source read."""
    return (0, *map(re.Match.end, re.finditer("\n", source)))


def position(source: str, offset: int) -> Position:
    """Line, column and offset of ``offset`` in ``source``: within 8K characters of the file's
    start, counting the newlines before it is cheaper than the table of line starts."""
    if 0 <= offset < 8192:
        newline = source.rfind("\n", 0, offset)  # -1 on the first line: column offset + 1
        return _new(Position, (source.count("\n", 0, offset) + 1, offset - newline, offset))
    starts = line_starts(source)
    line = bisect_right(starts, offset)
    return _new(Position, (line, offset - starts[line - 1] + 1, offset))


class Token(NamedTuple):
    """One lexed token (immutable named tuple): ``text`` at ``offset`` in ``source``."""

    kind: TokenKind
    text: str
    offset: int
    source: str

    pos = property(lambda self: position(self.source, self.offset))

    def __repr__(self) -> str:  # compact, for test failure output
        return f"Token({self.kind.name}, {self.text!r}, {self.pos.line}:{self.pos.column})"


class LexError(NamedTuple):
    """Recoverable lexing problem (never aborts the file); immutable named tuple."""

    kind: str  # "unterminated-string" | "unterminated-block-comment" | "unknown-character"
    message: str
    pos: Position


class TokenStream(NamedTuple):
    """One file's tokens in offset order and its recoverable lexing errors (immutable named tuple)."""

    tokens: list[Token]
    source_path: str = "<input>"
    errors: Sequence[LexError] = ()


# Identifier characters are ASCII letters, digits, "_", "$" and every code
# point from U+0080 up, so these classes name only the ASCII characters that
# are left out; the equivalent explicit range up to U+10FFFF compiles about
# eight times slower.  A number starts only at an ASCII digit (or "." and an
# ASCII digit), so "²" or "٣" outside an identifier is identifier text too.
_IDENT_START = r"[^\x00-\x23\x25-\x40\x5b-\x5e\x60\x7b-\x7f]"
_IDENT_CHAR = r"[^\x00-\x23\x25-\x2f\x3a-\x40\x5b-\x5e\x60\x7b-\x7f]"
_NUMBER_BODY = r"[0-9A-Za-z_.]*"
# An exponent sign continues a number: 1e+5, 0x1p-3.
_HEX = rf"0[xX]{_NUMBER_BODY}(?:(?<=[pP])[+-]{_NUMBER_BODY})*"
_DECIMAL = rf"(?=\.?[0-9]){_NUMBER_BODY}(?:(?<=[eE])[+-]{_NUMBER_BODY})*"
# A directive's body, after its prefix, to the end of its line: a backslash
# before a line end (LF or CRLF) continues it onto the next line.
_DIRECTIVE = r"[^\\\n]*(?:\\(?:\r?\n)?[^\\\n]*)*"


def _quoted(name: str, quote: str, escape: str) -> str:
    # An escape takes any next character, or CRLF, so a backslash before LF or CRLF
    # continues the literal; an unescaped newline or the end of input ends it unterminated.
    q = re.escape(quote)
    plain = f"[^{q}{re.escape(escape)}\\n]*"
    return rf"(?P<{name}>{q}{plain}(?:{re.escape(escape)}(?:\r\n|[\s\S])?{plain})*(?P<{name}_end>{q})?)"


def _operator_rule(operators: Iterable[str]) -> str:
    """One alternative per first character, trying its continuations longest
    first (maximal munch) and the character alone, when an operator, last."""
    by_first: dict[str, list[str]] = {}
    for op in sorted(operators, key=lambda op: (-len(op), op)):
        by_first.setdefault(op[0], []).append(re.escape(op[1:]))
    alternatives = (f"{re.escape(first)}(?:{'|'.join(rests)})" for first, rests in by_first.items())
    return f"(?P<op>{'|'.join(alternatives)})"


@lru_cache(maxsize=32)
def compile_scanner(profile: LanguageProfile) -> re.Pattern[str]:
    """Compile ``profile`` into its scanner pattern, cached by the profile's value.

    ``validate_profile`` checks the profile here, once per value, and the
    scanner and ``tokenize`` trust its fields.

    One match takes one token: it skips a run of whitespace, line comments
    and directives, then tries the token rules, and only at the end of input
    does none match.  The skipped run is never given back, as the last rule,
    any single character, always matches a character that is left.

    A directive is the preprocessor prefix with only blanks (``[ \\t\\r\\f\\v]``,
    the characters the scanner skips) before it on its line, read to the end
    of its line; a line or block comment that starts at the same place wins.
    A prefix anywhere else is matched by the token rules like any other text.

    Each token is the one this order of rules decides: block-comment opener,
    string and char literals, numbers (one rule, hex tried first), identifiers,
    operators longest first (maximal munch), any single character.  The rules
    are tried in another order, so that ordinary code fails few of them before
    one matches, in which a rule moves ahead of another only where the two
    cannot start with the same character: the fixed openers (comment, quotes)
    that start with an identifier character, such as a ``$*`` comment;
    identifiers; one class of the punctuation characters that no other rule can
    start with; the other fixed openers; numbers; operators, one alternative
    per first character; and any single character.
    """
    validate_profile(profile)
    string_quote, char_quote = profile.string_delims
    line_comment, (block_open, _) = profile.line_comment, profile.block_comment
    blank = r"[ \t\r\f\v]*"
    at_start = after_line_end = ""
    if profile.preprocessor_prefix:
        openers = "".join(f"(?!{re.escape(opener)})" for opener in (line_comment, block_open) if opener)
        directive = f"{openers}{re.escape(profile.preprocessor_prefix)}{_DIRECTIVE}"
        # An empty alternative, "(?:X|)", costs less at each match than "(?:X)?", a repeat to sre.
        at_start, after_line_end = rf"(?:\A{blank}{directive}|)", f"(?:{directive}|)"
    # A line end takes the blank lines after it and a directive that starts the next.
    skipped = [rf"\n[ \t\r\n\f\v]*{after_line_end}"]
    if line_comment:
        skipped.append(rf"{re.escape(line_comment)}[^\n]*")
    skip = f"{at_start}{blank}(?:{'|'.join(skipped)})*"
    fixed = []  # (opener, rule), in deciding order
    if block_open:
        fixed.append((block_open, f"(?P<bc>{re.escape(block_open)})"))
    fixed.append((string_quote, _quoted("str", string_quote, profile.escape_char)))
    if char_quote != string_quote:
        fixed.append((char_quote, _quoted("chr", char_quote, profile.escape_char)))
    starts_ident = re.compile(_IDENT_START).match
    taken = {opener[0] for opener, _ in fixed} | {op[0] for op in profile.operators} | set("0123456789.")
    lone = sorted(p for p in profile.punctuation if p not in taken and not starts_ident(p))
    rules = [rule for opener, rule in fixed if starts_ident(opener)]
    rules.append(f"(?P<ident>{_IDENT_START}{_IDENT_CHAR}*)")
    if lone:
        rules.append(f"(?P<punct>[{''.join(map(re.escape, lone))}])")
    rules += [rule for opener, rule in fixed if not starts_ident(opener)]
    rules += [f"(?P<num>{_HEX}|{_DECIMAL})", _operator_rule(profile.operators), r"(?P<char>[\s\S])"]
    return re.compile(f"{skip}(?:{'|'.join(rules)})?")


def tokenize(source: str, profile: LanguageProfile, source_path: str = "<input>") -> TokenStream:
    """Tokenize ``source`` under ``profile``.

    Pure function of its inputs; the resulting stream is in strictly
    increasing offset order and contains nothing from comments or
    directives (C/C++ preprocessor lines).
    """
    try:
        match = compile_scanner(profile).match
    except TypeError:  # the cache could not hash the profile: say which rule it breaks
        validate_profile(profile)
        raise
    keywords = profile.keywords
    punctuation = profile.punctuation
    block_close = profile.block_comment[1]
    tokens: list[Token] = []
    errors: list[LexError] = []
    append = tokens.append
    pos, size = 0, len(source)
    while pos < size:
        m = match(source, pos)
        group = m.lastgroup
        if group is None:  # only whitespace, line comments and directives were left
            break
        pos = m.end()
        text = m[group]
        start = pos - len(text)
        if group == "bc":
            close = source.find(block_close, pos)
            if close < 0:
                message = "block comment is never closed"
                errors.append(LexError("unterminated-block-comment", message, position(source, start)))
                break
            pos = close + len(block_close)
            continue
        if group == "ident":
            kind = _KW if text in keywords else _IDENT
        elif group == "punct":
            kind = _PUNCT
        elif group == "op":
            kind = _OP
        elif group == "char":
            kind = _PUNCT
            if text not in punctuation:
                errors.append(LexError("unknown-character", f"unexpected character {text!r}", position(source, start)))
        else:
            kind = _LIT
            if group != "num" and m.group(f"{group}_end") is None:
                what = "string" if group == "str" else "char"
                errors.append(LexError("unterminated-string", f"unterminated {what} literal", position(source, start)))
        append(_new(Token, (kind, text, start, source)))
    return TokenStream(tokens, source_path, errors)
