"""Profile-driven tokenizer.

Turns raw source text into a stream of position-annotated tokens.
Each profile's data (comment syntax, quotes and escape, preprocessor
prefix, operators) is compiled into one regex scanner, cached on the
profile.  Comments never produce tokens, string/char literals collapse
into single tokens, and operators are matched with maximal munch (the
longest operator in the profile wins at every position), so "++"
can never lex as "+", "+".

Lexing never hard-fails and always terminates: every step consumes at
least one character.  Unterminated literals and unknown characters are
recorded on the stream as recoverable errors and scanning resumes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .profiles import LanguageProfile


class TokenKind(Enum):
    IDENTIFIER = auto()
    KEYWORD = auto()
    OPERATOR = auto()
    PUNCTUATION = auto()
    INT_LITERAL = auto()
    FLOAT_LITERAL = auto()
    STRING_LITERAL = auto()
    CHAR_LITERAL = auto()


class Position(NamedTuple):
    """A point in a source file: 1-based line/column, 0-based byte offset.

    Immutable named tuple, like the pipeline's other per-token, per-node and
    per-event records: it builds about twice as fast as a frozen dataclass.
    """

    line: int
    column: int
    offset: int


class Token(NamedTuple):
    """One lexed token (immutable named tuple)."""

    kind: TokenKind
    text: str
    pos: Position

    def __repr__(self) -> str:  # compact, for test failure output
        return f"Token({self.kind.name}, {self.text!r}, {self.pos.line}:{self.pos.column})"


def token_end(tok: Token) -> Position:
    """Position one past the last character of ``tok``."""
    text = tok.text
    newlines = text.count("\n")
    if newlines:
        tail = len(text) - text.rfind("\n") - 1
        return Position(tok.pos.line + newlines, tail + 1, tok.pos.offset + len(text))
    return Position(tok.pos.line, tok.pos.column + len(text), tok.pos.offset + len(text))


class LexError(NamedTuple):
    """Recoverable lexing problem (never aborts the file); immutable named tuple."""

    kind: str  # "unterminated-string" | "unterminated-block-comment" | "unknown-character"
    message: str
    pos: Position


@dataclass(slots=True)
class TokenStream:
    tokens: list[Token]
    source_path: str = "<input>"
    errors: list[LexError] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tokens)


def token_at(stream: TokenStream, index: int) -> Token:
    """Return the index-th token; raises IndexError when out of bounds."""
    if index < 0 or index >= len(stream.tokens):
        raise IndexError(f"token index {index} out of bounds for stream of {len(stream.tokens)}")
    return stream.tokens[index]


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


def _quoted(name: str, quote: str, escape: str) -> str:
    # An escape takes the next character whatever it is, a newline too; an
    # unescaped newline or the end of input ends an unterminated literal.
    q = re.escape(quote)
    plain = f"[^{q}{re.escape(escape)}\\n]*"
    return rf"(?P<{name}>{q}{plain}(?:{re.escape(escape)}[\s\S]?{plain})*(?P<{name}_end>{q})?)"


def compile_scanner(profile: LanguageProfile) -> tuple[re.Pattern[str], re.Pattern[str]]:
    """Compile ``profile`` into its two scanner patterns.

    The first tries, in order: whitespace, line comment, block-comment
    opener, preprocessor line, string and char literals, hex and decimal
    numbers, identifiers, operators longest first (maximal munch), and any
    single character.  The second is the same without the preprocessor
    line, for a prefix that does not start its line.  Use the copy cached on
    the profile, ``profile.scanner``.
    """
    string_quote, char_quote = profile.string_delims
    rules = [r"(?P<ws>[ \t\r\n\f\v]+)"]
    if profile.line_comment:
        rules.append(rf"(?P<lc>{re.escape(profile.line_comment)}[^\n]*)")
    if profile.block_comment[0]:
        rules.append(f"(?P<bc>{re.escape(profile.block_comment[0])})")
    preprocessor = None
    if profile.preprocessor_prefix:
        # A trailing backslash continues the directive onto the next line.
        prefix = re.escape(profile.preprocessor_prefix)
        preprocessor = rf"(?P<pp>(?={prefix})[^\\\n]*(?:\\\n?[^\\\n]*)*)"
        rules.append(preprocessor)
    rules.append(_quoted("str", string_quote, profile.escape_char))
    if char_quote != string_quote:
        rules.append(_quoted("chr", char_quote, profile.escape_char))
    rules += [f"(?P<hex>{_HEX})", f"(?P<num>{_DECIMAL})", f"(?P<ident>{_IDENT_START}{_IDENT_CHAR}*)"]
    operators = sorted((op for op in profile.operators if op), key=len, reverse=True)
    if operators:
        rules.append(f"(?P<op>{'|'.join(map(re.escape, operators))})")
    rules.append(r"(?P<punct>[\s\S])")
    master = re.compile("|".join(rules))
    if preprocessor is None:
        return master, master
    rules.remove(preprocessor)
    return master, re.compile("|".join(rules))


def tokenize(source: str, profile: LanguageProfile, source_path: str = "<input>") -> TokenStream:
    """Tokenize ``source`` under ``profile``.

    Pure function of its inputs; the resulting stream is in strictly
    increasing offset order and contains nothing from comments or
    (C/C++) preprocessor lines.
    """
    master, fallback = profile.scanner
    match = master.match
    keywords = profile.keywords
    punctuation = profile.punctuation
    block_close = profile.block_comment[1]
    tokens: list[Token] = []
    errors: list[LexError] = []
    append = tokens.append
    # ``line`` and ``line_start`` (offset where that line begins) hold for
    # offset ``synced``; each token catches them up from there, so newlines
    # are counted once each.
    line, line_start, synced = 1, 0, 0
    pos, size = 0, len(source)
    while pos < size:
        m = match(source, pos)
        group = m.lastgroup
        if group == "ws" or group == "lc":
            pos = m.end()
            continue
        newlines = source.count("\n", synced, pos)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", synced, pos) + 1
        synced = pos
        start = Position(line, pos - line_start + 1, pos)
        if group == "bc":
            close = source.find(block_close, m.end()) if block_close else -1
            if close < 0:
                message = "block comment is never closed"
                errors.append(LexError("unterminated-block-comment", message, start))
                break
            pos = close + len(block_close)
            continue
        if group == "pp":
            if not source[line_start:pos].strip():
                pos = m.end()
                continue
            m = fallback.match(source, pos)
            group = m.lastgroup
        text = m.group()
        if group == "ident":
            kind = TokenKind.KEYWORD if text in keywords else TokenKind.IDENTIFIER
        elif group == "op":
            kind = TokenKind.OPERATOR
        elif group == "punct":
            kind = TokenKind.PUNCTUATION
            if text not in punctuation:
                errors.append(LexError("unknown-character", f"unexpected character {text!r}", start))
        elif group == "num":
            floaty = "." in text or "e" in text[1:] or "E" in text[1:]
            kind = TokenKind.FLOAT_LITERAL if floaty else TokenKind.INT_LITERAL
        elif group == "hex":
            floaty = "." in text or "p" in text[2:] or "P" in text[2:]
            kind = TokenKind.FLOAT_LITERAL if floaty else TokenKind.INT_LITERAL
        else:
            kind = TokenKind.STRING_LITERAL if group == "str" else TokenKind.CHAR_LITERAL
            if m.group(f"{group}_end") is None:
                what = "string" if group == "str" else "char"
                errors.append(LexError("unterminated-string", f"unterminated {what} literal", start))
        append(Token(kind, text, start))
        pos = m.end()
    return TokenStream(tokens, source_path, errors)
