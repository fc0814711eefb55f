"""The character-at-a-time scanner that ``xcheck.lexer`` used before it
compiled each profile into one regex, kept as a test-only oracle.

``tests/test_lexer_oracle.py`` requires the production lexer to produce
exactly the tokens and errors this scanner produces.  The scanner is the
old one unchanged with seven exceptions.  Its operator table is built per
scanner instead of being cached by ``id(profile)``, which could hand a new
profile the table of a freed one.  A number starts only at an ASCII digit,
or at ``.`` and an ASCII digit, as in the shipped lexer: the old test
``ch.isdigit()`` also took a non-ASCII digit (``x = ²;``), for which
``scan_number`` emitted an empty token and never advanced.  A prefix starts
a directive only after blanks, the characters the main loop skips: the old
test ``str.strip()`` also took a no-break space (U+00A0) or U+001C, which
the main loop lexes as a token.  A backslash before CRLF continues a
directive, as one before LF does: C's first translation phase reads CRLF as
a line end.  For the same reason an escape before CRLF takes both characters,
so it continues a string or char literal as one before LF does.  Every
number, string and char is one ``LITERAL`` token, as in the shipped lexer:
the old one told integers from floats and strings from chars, and no reader
of a token's kind told them apart.  And it records its tokens and errors
with the line and column it tracks, in records of its own, since the
shipped ones carry an offset and resolve the rest when read.
"""

from __future__ import annotations

from typing import NamedTuple

from xcheck.lexer import Position, TokenKind, TokenStream
from xcheck.profiles import LanguageProfile


class Token(NamedTuple):
    kind: TokenKind
    text: str
    pos: Position


class LexError(NamedTuple):
    kind: str
    message: str
    pos: Position


_IDENT_START_EXTRA = "_$"
_ASCII_DIGITS = frozenset("0123456789")
_NUMBER_BODY = set("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_.")


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch in _IDENT_START_EXTRA or ord(ch) >= 0x80


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in _IDENT_START_EXTRA or ord(ch) >= 0x80


def _operator_table(profile: LanguageProfile) -> dict[str, list[str]]:
    table: dict[str, list[str]] = {}
    for op in profile.operators:
        table.setdefault(op[0], []).append(op)
    for ops in table.values():
        ops.sort(key=len, reverse=True)
    return table


class _Scanner:
    """Single pass over the source with line/column bookkeeping."""

    def __init__(self, source: str, profile: LanguageProfile, source_path: str):
        self.src = source
        self.profile = profile
        self.op_table = _operator_table(profile)
        self.i = 0
        self.line = 1
        self.col = 1
        self.line_start = 0  # offset where the current line begins
        self.tokens: list[Token] = []
        self.errors: list[LexError] = []

    def pos(self) -> Position:
        return Position(self.line, self.col, self.i)

    def peek(self, ahead: int = 0) -> str:
        j = self.i + ahead
        return self.src[j] if j < len(self.src) else ""

    def advance(self, n: int = 1) -> None:
        src = self.src
        for _ in range(n):
            if self.i >= len(src):
                return
            if src[self.i] == "\n":
                self.line += 1
                self.col = 1
                self.line_start = self.i + 1
            else:
                self.col += 1
            self.i += 1

    def startswith(self, text: str) -> bool:
        return bool(text) and self.src.startswith(text, self.i)

    def emit(self, kind: TokenKind, start: Position) -> None:
        self.tokens.append(Token(kind, self.src[start.offset : self.i], start))

    def error(self, kind: str, message: str, pos: Position) -> None:
        self.errors.append(LexError(kind, message, pos))

    # -- region skippers ---------------------------------------------------

    def skip_line_comment(self) -> None:
        while self.i < len(self.src) and self.src[self.i] != "\n":
            self.advance()

    def skip_block_comment(self) -> None:
        start = self.pos()
        self.advance(len(self.profile.block_comment[0]))
        close = self.profile.block_comment[1]
        while self.i < len(self.src):
            if self.startswith(close):
                self.advance(len(close))
                return
            self.advance()
        self.error("unterminated-block-comment", "block comment is never closed", start)

    def skip_preprocessor_line(self) -> None:
        # Consumes through end of line; a trailing backslash continues the
        # directive onto the next line.
        while self.i < len(self.src):
            ch = self.src[self.i]
            if ch == "\\" and self.peek(1) == "\n":
                self.advance(2)
                continue
            if ch == "\\" and self.peek(1) == "\r" and self.peek(2) == "\n":
                self.advance(3)
                continue
            if ch == "\n":
                return
            self.advance()

    # -- token scanners ----------------------------------------------------

    def scan_quoted(self, quote: str, what: str) -> None:
        start = self.pos()
        self.advance()  # opening quote
        escape = self.profile.escape_char
        while self.i < len(self.src):
            ch = self.src[self.i]
            if ch == escape:
                self.advance(3 if self.src.startswith("\r\n", self.i + 1) else 2)
                continue
            if ch == quote:
                self.advance()
                self.emit(TokenKind.LITERAL, start)
                return
            if ch == "\n":
                break
            self.advance()
        # Unterminated: keep what was consumed as the token, resume at the
        # newline (or end of input).
        self.error("unterminated-string", f"unterminated {what} literal", start)
        self.emit(TokenKind.LITERAL, start)

    def scan_number(self) -> None:
        start = self.pos()
        src = self.src
        is_hex = self.startswith("0x") or self.startswith("0X")
        while self.i < len(src):
            ch = src[self.i]
            if ch in _NUMBER_BODY:
                self.advance()
                continue
            # exponent sign: 1e+5, 0x1p-3
            if ch in "+-" and src[self.i - 1] in ("pP" if is_hex else "eE"):
                self.advance()
                continue
            break
        self.emit(TokenKind.LITERAL, start)

    def scan_identifier(self) -> None:
        start = self.pos()
        while self.i < len(self.src) and _is_ident_char(self.src[self.i]):
            self.advance()
        text = self.src[start.offset : self.i]
        kind = TokenKind.KEYWORD if text in self.profile.keywords else TokenKind.IDENTIFIER
        self.emit(kind, start)

    def scan_symbol(self) -> None:
        start = self.pos()
        ch = self.src[self.i]
        for op in self.op_table.get(ch, ()):
            if self.startswith(op):
                self.advance(len(op))
                self.emit(TokenKind.OPERATOR, start)
                return
        self.advance()
        self.emit(TokenKind.PUNCTUATION, start)
        if ch not in self.profile.punctuation:
            self.error("unknown-character", f"unexpected character {ch!r}", start)

    # -- main loop -----------------------------------------------------------

    def run(self) -> None:
        profile = self.profile
        src = self.src
        while self.i < len(src):
            ch = src[self.i]
            if ch in " \t\r\n\f\v":
                self.advance()
                continue
            if self.startswith(profile.line_comment):
                self.skip_line_comment()
                continue
            if self.startswith(profile.block_comment[0]):
                self.skip_block_comment()
                continue
            if (
                profile.preprocessor_prefix
                and self.startswith(profile.preprocessor_prefix)
                and not src[self.line_start : self.i].strip(" \t\r\f\v")
            ):
                self.skip_preprocessor_line()
                continue
            if ch == profile.string_delims[0]:
                self.scan_quoted(ch, "string")
                continue
            if ch == profile.string_delims[1]:
                self.scan_quoted(ch, "char")
                continue
            if ch in _ASCII_DIGITS or (ch == "." and self.peek(1) in _ASCII_DIGITS):
                self.scan_number()
                continue
            if _is_ident_start(ch):
                self.scan_identifier()
                continue
            self.scan_symbol()


def reference_tokenize(
    source: str, profile: LanguageProfile, source_path: str = "<input>"
) -> TokenStream:
    scanner = _Scanner(source, profile, source_path)
    scanner.run()
    return TokenStream(scanner.tokens, source_path, scanner.errors)
