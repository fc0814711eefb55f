"""Profile-driven tokenizer.

Turns raw source text into a stream of tokens that hold offsets, not lines
(``tok.pos`` finds line and column when read).  Each profile's data
(comment syntax, quotes and escape, preprocessor prefix, operators) is
compiled into one regex scanner, cached by the profile's value.  Comments
never produce tokens, string/char literals collapse into single tokens, and
operators are matched with maximal munch (the longest operator in the
profile wins at every position), so "++" can never lex as "+", "+".

Lexing never hard-fails and always terminates: every step consumes at
least one character.  Unterminated literals and unknown characters are
recorded on the stream as recoverable errors and scanning resumes.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from enum import Enum, auto
from functools import lru_cache
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


# Members bound to module names once: on CPython 3.11 reading a member
# through its enum class costs several times a module-global read, and
# per-token loops (here and in the parser and checkers) pay it per token.
_IDENT, _KW, _OP, _PUNCT = (
    TokenKind.IDENTIFIER, TokenKind.KEYWORD, TokenKind.OPERATOR, TokenKind.PUNCTUATION
)
_INT, _FLOAT, _STR, _CHAR = (
    TokenKind.INT_LITERAL, TokenKind.FLOAT_LITERAL, TokenKind.STRING_LITERAL, TokenKind.CHAR_LITERAL
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


def position(source: str, offset: int, since: Position = Position(1, 1, 0)) -> Position:
    """Line, column and offset of ``offset`` in ``source``: up to 8K characters past a known
    ``since``, counting the newlines in between is cheaper than the table of line starts."""
    if 0 <= offset - since.offset < 8192:
        newline = source.rfind("\n", since.offset, offset)
        column = offset - newline if newline >= 0 else since.column + offset - since.offset
        return _new(Position, (since.line + source.count("\n", since.offset, offset), column, offset))
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


def token_end(tok: Token) -> Position:
    """Position one past the last character of ``tok``."""
    return position(tok.source, tok.offset + len(tok.text))


class LexError(NamedTuple):
    """Recoverable lexing problem (never aborts the file); immutable named tuple."""

    kind: str  # "unterminated-string" | "unterminated-block-comment" | "unknown-character"
    message: str
    pos: Position


class _Slotted:
    """Value behaviour shared by the pipeline's mutable objects (the token
    stream and the tree nodes), read from ``__slots__``, which names each
    class's fields in constructor order.

    A subclass with fields and without its own ``__init__`` gets one taking them
    in that order, trailing ones defaulting as ``_defaults`` says; like ``namedtuple``'s,
    its source is compiled once per class, so building runs one assignment per field.

    They print as ``Name(field=value, ...)`` and equal only an object of
    the same class with equal fields, so they are not hashable.  They are
    plain slotted classes because ``dataclasses`` is slow to import and to
    apply, and the CLI pays both on every run.
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        names = cls.__slots__
        if "__init__" in cls.__dict__ or not names:
            return
        params = "".join(f", {n}=_defaults[{n!r}]" if n in cls._defaults else f", {n}" for n in names)
        body = "".join(f"\n    self.{n} = {n}" for n in names)
        scope = {"_defaults": cls._defaults, "__name__": cls.__module__}
        exec(f"def __init__(self{params}):{body}", scope)
        cls.__init__ = scope["__init__"]  # type: ignore[misc]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__slots__
        return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]


class TokenStream(_Slotted):
    __slots__ = ("tokens", "source_path", "errors")

    def __init__(
        self, tokens: list[Token], source_path: str = "<input>", errors: list[LexError] | None = None
    ) -> None:
        self.tokens, self.source_path = tokens, source_path
        self.errors = [] if errors is None else errors


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


@lru_cache(maxsize=32)
def compile_scanner(profile: LanguageProfile, directives: bool = True) -> re.Pattern[str]:
    """Compile ``profile`` into its scanner pattern, cached by the profile's value.

    One match takes one token: it skips a run of whitespace and line
    comments, then tries, in order: block-comment opener, preprocessor line
    (left out when ``directives`` is false), string and char literals, hex
    and decimal numbers, identifiers, operators longest first (maximal
    munch), and any single character.  Only at the end of input does no
    group match.  The skipped run is never given back, as one of these
    always matches a character that is left.
    The lexer needs the pattern without directives only for a preprocessor
    prefix that does not start its line, so it compiles that on first need.
    """
    string_quote, char_quote = profile.string_delims
    skip = [r"[ \t\r\n\f\v]+"]
    if profile.line_comment:
        skip.append(rf"{re.escape(profile.line_comment)}[^\n]*")
    rules = []
    if profile.block_comment[0]:
        rules.append(f"(?P<bc>{re.escape(profile.block_comment[0])})")
    if profile.preprocessor_prefix and directives:
        # A trailing backslash continues the directive onto the next line.
        prefix = re.escape(profile.preprocessor_prefix)
        rules.append(rf"(?P<pp>(?={prefix})[^\\\n]*(?:\\\n?[^\\\n]*)*)")
    rules.append(_quoted("str", string_quote, profile.escape_char))
    if char_quote != string_quote:
        rules.append(_quoted("chr", char_quote, profile.escape_char))
    rules += [f"(?P<hex>{_HEX})", f"(?P<num>{_DECIMAL})", f"(?P<ident>{_IDENT_START}{_IDENT_CHAR}*)"]
    operators = sorted((op for op in profile.operators if op), key=len, reverse=True)
    if operators:
        rules.append(f"(?P<op>{'|'.join(map(re.escape, operators))})")
    rules.append(r"(?P<punct>[\s\S])")
    return re.compile(f"(?:{'|'.join(skip)})*(?:{'|'.join(rules)})?")


def tokenize(source: str, profile: LanguageProfile, source_path: str = "<input>") -> TokenStream:
    """Tokenize ``source`` under ``profile``.

    Pure function of its inputs; the resulting stream is in strictly
    increasing offset order and contains nothing from comments or
    (C/C++) preprocessor lines.
    """
    match = compile_scanner(profile).match
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
        if group is None:  # only whitespace and line comments were left
            break
        pos = m.end()
        text = m[group]
        start = pos - len(text)
        if group == "bc":
            close = source.find(block_close, pos) if block_close else -1
            if close < 0:
                message = "block comment is never closed"
                errors.append(LexError("unterminated-block-comment", message, position(source, start)))
                break
            pos = close + len(block_close)
            continue
        if group == "pp":
            if not source[source.rfind("\n", 0, start) + 1 : start].strip():
                continue
            m = compile_scanner(profile, False).match(source, start)
            group = m.lastgroup
            pos = m.end()
            text = m[group]
        if group == "ident":
            kind = _KW if text in keywords else _IDENT
        elif group == "op":
            kind = _OP
        elif group == "punct":
            kind = _PUNCT
            if text not in punctuation:
                errors.append(LexError("unknown-character", f"unexpected character {text!r}", position(source, start)))
        elif group == "num":
            floaty = "." in text or "e" in text[1:] or "E" in text[1:]
            kind = _FLOAT if floaty else _INT
        elif group == "hex":
            floaty = "." in text or "p" in text[2:] or "P" in text[2:]
            kind = _FLOAT if floaty else _INT
        else:
            kind = _STR if group == "str" else _CHAR
            if m.group(f"{group}_end") is None:
                what = "string" if group == "str" else "char"
                errors.append(LexError("unterminated-string", f"unterminated {what} literal", position(source, start)))
        append(_new(Token, (kind, text, start, source)))
    return TokenStream(tokens, source_path, errors)
