"""Shared test helpers: token factories, random generators, and the
independent oracles the derived expectations are computed from."""

from __future__ import annotations

import random
import re
from collections import Counter
from typing import Iterable, Sequence

from xcheck.checkers import (
    DerefEvent,
    KillEvent,
    NullEvent,
    ResetEvent,
    NullTestEvent,
)
from xcheck.lexer import Position, Token, TokenKind, position, tokenize
from xcheck.microgrammar import (
    BODY,
    AccessPath,
    Assign,
    Atom,
    Block,
    Call,
    CaseArm,
    Compare,
    DoWhile,
    Expr,
    Extent,
    For,
    If,
    Logical,
    Not,
    Span,
    Stmt,
    Switch,
    Update,
    While,
    Wildcard,
    WildcardStmt,
)
from xcheck.profiles import LanguageProfile, profile_for

from reference_parser import ParseAccounting

C = profile_for("c")
CPP = profile_for("cpp")
JAVA = profile_for("java")


# ---------------------------------------------------------------------------
# Token / tree construction
# ---------------------------------------------------------------------------


def guess_kind(text: str, profile: LanguageProfile = C) -> TokenKind:
    if text in profile.keywords:
        return TokenKind.KEYWORD
    if text in profile.operators:
        return TokenKind.OPERATOR
    # a number starts at an ASCII digit, an identifier at an ASCII letter, "_", "$" or any non-ASCII
    # character, as the lexer's rules say
    if re.match(r"\.?[0-9]|[\"']", text):
        return TokenKind.LITERAL
    if re.match(r"[A-Za-z_$\x80-\U0010ffff]", text):
        return TokenKind.IDENTIFIER
    return TokenKind.PUNCTUATION


# The source of hand-built tokens: an empty text puts a token at offset k
# on line 1, column k + 1.
HAND_SOURCE = ""


def tok(text: str, offset: int = 0, profile: LanguageProfile = C) -> Token:
    return Token(guess_kind(text, profile), text, offset, HAND_SOURCE)


def toks(texts: Iterable[str], profile: LanguageProfile = C, base: int = 0) -> tuple[Token, ...]:
    out = []
    offset = base
    for text in texts:
        out.append(tok(text, offset=offset, profile=profile))
        offset += len(text) + 1
    return tuple(out)


def wild(texts: Iterable[str], profile: LanguageProfile = C, base: int = 0) -> Wildcard:
    tokens = toks(texts, profile, base)
    span = Span(tokens[0].pos, tokens[-1].pos) if tokens else Span(Position(1, 1, 0), Position(1, 1, 0))
    return Wildcard(tokens, span)


def parse_source(source: str, profile: LanguageProfile = C):
    from xcheck.microgrammar import parse_statements

    return parse_statements(tokenize(source, profile), profile)


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


def assert_refinement_sound(e: Expr) -> None:
    """Children cover disjoint, in-order sub-slices of the parent slice and
    no token is invented or permuted by refinement."""
    parent = e.tokens
    index_of = {id(t): i for i, t in enumerate(parent)}
    last_end = -1
    for child in e.children():
        child_toks = child.tokens
        positions = []
        for t in child_toks:
            assert id(t) in index_of, f"child token {t!r} not drawn from parent slice"
            positions.append(index_of[id(t)])
        assert positions == sorted(positions), "child tokens out of order"
        if positions:
            assert positions[0] > last_end, "child slices overlap or are unordered"
            last_end = positions[-1]
        assert_refinement_sound(child)


def assert_spans_nest(stmts: Sequence[Stmt]) -> None:
    prev_end = -1
    for s in stmts:
        assert s.span.start.offset <= s.span.end.offset
        assert s.span.start.offset >= prev_end, "sibling spans overlap"
        prev_end = s.span.end.offset
        kids = [kid for role, part in s.parts() if role is BODY for kid in part]
        for kid in kids:
            assert kid.span.start.offset >= s.span.start.offset
            assert kid.span.end.offset <= s.span.end.offset, "child span escapes parent"
        assert_spans_nest(kids)


def stmt_tokens(s: Stmt) -> list[Token]:
    """All tokens the tree nodes under a statement hold, in source order:
    every token but the syntax (keywords, brackets, terminators, colons)."""
    out: list[Token] = []
    for role, part in s.parts():
        if role is BODY:
            for child in part:
                out.extend(stmt_tokens(child))
        elif part is not None:
            out.extend(part.tokens)
    return out


def assert_token_conservation(
    tokens: Sequence[Token], stmts: Sequence[Stmt], acct: ParseAccounting
) -> None:
    """Every input token lands in exactly one tree slot or the syntax sink
    (the ledger of ``reference_parser``, which builds the same tree)."""
    reachable: list[Token] = []
    for s in stmts:
        reachable.extend(stmt_tokens(s))
    got = Counter(id(t) for t in reachable)
    got.update(id(t) for t in acct.syntax_tokens)
    want = Counter(id(t) for t in tokens)
    assert got == want, (
        f"conservation failed: {sum(want.values())} in, "
        f"{sum(got.values())} out ({len(want - got)} lost, {len(got - want)} extra)"
    )


# ---------------------------------------------------------------------------
# Lexer oracle: exhaustive tokenization of an operator string
# ---------------------------------------------------------------------------


def all_operator_tokenizations(s: str, operators: frozenset[str]) -> list[list[str]]:
    results: list[list[str]] = []

    def rec(i: int, acc: list[str]) -> None:
        if i == len(s):
            results.append(list(acc))
            return
        for op in operators:
            if s.startswith(op, i):
                acc.append(op)
                rec(i + len(op), acc)
                acc.pop()

    rec(0, [])
    return results


def greedy_operator_tokenization(s: str, operators: frozenset[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(s):
        best = max((op for op in operators if s.startswith(op, i)), key=len, default=None)
        assert best is not None, f"no operator matches at {i} in {s!r}"
        out.append(best)
        i += len(best)
    return out


# ---------------------------------------------------------------------------
# Random expression/statement trees (for the equality laws)
# ---------------------------------------------------------------------------

_IDENTS = ["a", "b", "i", "n", "p", "q", "state", "work"]
_LITS = ["0", "1", "42"]


class TreeGen:
    """Deterministic random trees; ``pos_base`` shifts every position so a
    clone generated from the same seed differs only in positions."""

    def __init__(self, seed: int, pos_base: int = 0):
        self.rng = random.Random(seed)
        self.pos_base = pos_base
        self.seq = 0

    def _offset(self) -> int:
        self.seq += 1
        return (self.pos_base + self.seq) * 3

    def _tok(self, text: str) -> Token:
        return Token(guess_kind(text), text, self._offset(), HAND_SOURCE)

    def _span(self) -> Extent:
        p = self._offset()
        return Extent(p, p, HAND_SOURCE)

    def _leaf_tokens(self, k: int) -> tuple[Token, ...]:
        pool = _IDENTS + _LITS + ["+", "-", "?", ":"]
        return tuple(self._tok(self.rng.choice(pool)) for _ in range(k))

    def expr(self, depth: int = 3) -> Expr:
        kinds = ["atom", "wild", "path"]
        if depth > 0:
            kinds += ["compare", "logical", "not", "update", "assign", "call"]
        kind = self.rng.choice(kinds)
        if kind == "atom":
            t = self._tok(self.rng.choice(_IDENTS + _LITS))
            return Atom(t, (t,))
        if kind == "wild":
            tokens = self._leaf_tokens(self.rng.randint(1, 4))
            return Wildcard(tokens, self._span())
        if kind == "path":
            root = self._tok(self.rng.choice(_IDENTS))
            steps = tuple(
                (self.rng.choice(["->", "."]), self._tok(self.rng.choice(_IDENTS)))
                for _ in range(self.rng.randint(1, 3))
            )
            flat = [root] + [t for _, t in steps]
            return AccessPath(root, steps, tuple(flat))
        if kind == "compare":
            op = self.rng.choice(["<", "<=", ">", ">=", "==", "!="])
            return Compare(op, self.expr(depth - 1), self.expr(depth - 1), ())
        if kind == "logical":
            op = self.rng.choice(["&&", "||"])
            return Logical(op, self.expr(depth - 1), self.expr(depth - 1), ())
        if kind == "not":
            return Not(self.expr(depth - 1), ())
        if kind == "update":
            op = self.rng.choice(["++", "--", "+=", "-="])
            value = self.expr(depth - 1) if op in ("+=", "-=") else None
            return Update(op, self.expr(depth - 1), (), value=value)
        if kind == "assign":
            return Assign(self.expr(depth - 1), self.expr(depth - 1), ())
        args = tuple(self.expr(depth - 1) for _ in range(self.rng.randint(0, 3)))
        return Call(self.expr(depth - 1), args, ())

    def body(self, depth: int, max_len: int = 3) -> list[Stmt]:
        return [self.stmt(depth) for _ in range(self.rng.randint(0, max_len))]

    def stmt(self, depth: int = 2) -> Stmt:
        kinds = ["wildstmt"]
        if depth > 0:
            kinds += ["block", "if", "while", "dowhile", "for", "switch"]
        kind = self.rng.choice(kinds)
        span = self._span()
        if kind == "wildstmt":
            return WildcardStmt(self.expr(2), span)
        if kind == "block":
            return Block(self.body(depth - 1), span)
        if kind == "if":
            elifs = [
                (self.expr(2), self.body(depth - 1))
                for _ in range(self.rng.randint(0, 2))
            ]
            else_body = self.body(depth - 1) if self.rng.random() < 0.5 else None
            return If(self.expr(2), self.body(depth - 1), elifs, else_body, span)
        if kind == "while":
            return While(self.expr(2), self.body(depth - 1), span)
        if kind == "dowhile":
            return DoWhile(self.body(depth - 1), self.expr(2), span)
        if kind == "for":
            def opt():
                return self.expr(2) if self.rng.random() < 0.7 else None

            return For(opt(), opt(), opt(), self.body(depth - 1), span, span)
        arms = [
            CaseArm(
                self.expr(1) if self.rng.random() < 0.8 else None,
                self.body(depth - 1),
                self._span(),
            )
            for _ in range(self.rng.randint(0, 3))
        ]
        return Switch(self.expr(2), arms, span)


# ---------------------------------------------------------------------------
# Random sources over a profile's alphabet (parser totality fuzz)
# ---------------------------------------------------------------------------


def alphabet_for(profile: LanguageProfile) -> list[str]:
    words = sorted(profile.operators) + sorted(profile.punctuation)
    words += ["if", "else", "while", "do", "for", "switch", "case", "default", "break", "return"]
    words += _IDENTS + _LITS + ['"str"', "'c'", "3.5"]
    # '#' would start a preprocessor line and vanish before parsing
    return [w for w in words if w != (profile.preprocessor_prefix or "")]


def random_token_source(rng: random.Random, profile: LanguageProfile, max_len: int) -> str:
    n = rng.randint(0, max_len)
    return " ".join(rng.choice(alphabet_for(profile)) for _ in range(n))


# ---------------------------------------------------------------------------
# Long operator chains: refinement at and past its depth cap
# ---------------------------------------------------------------------------

_CHAIN_OPS = ("&&", "||", "=", "+=", "==", "<", ">")


def random_chain(rng: random.Random, terms: int, nested: bool = True) -> str:
    """``terms`` operands, joined mostly by one operator of ``_CHAIN_OPS``
    and one time in twenty by another.  An operand may carry a leading
    ``!``, ``++`` or a trailing ``++``, be an access path, or (when
    ``nested``) a parenthesized chain or a call whose arguments are short
    chains."""

    def operand() -> str:
        roll = rng.random()
        if nested and roll < 0.06:
            return f"( {random_chain(rng, rng.randint(1, 6), nested=False)} )"
        if nested and roll < 0.12:
            args = (random_chain(rng, rng.randint(1, 3), nested=False) for _ in range(rng.randint(0, 3)))
            return f"f ( {' , '.join(args)} )"
        if roll < 0.22:
            return f"! {operand()}"
        if roll < 0.27:
            return f"++ {rng.choice(_IDENTS)}"
        if roll < 0.32:
            return f"{rng.choice(_IDENTS)} ++"
        if roll < 0.40:
            return f"{rng.choice(_IDENTS)} -> {rng.choice(_IDENTS)}"
        return rng.choice(_IDENTS + _LITS + ["NULL"])

    main = rng.choice(_CHAIN_OPS)
    words = [operand()]
    for _ in range(terms - 1):
        words += main if rng.random() < 0.95 else rng.choice(_CHAIN_OPS), operand()
    return " ".join(words)


def long_chain_program(rng: random.Random) -> str:
    """Statements around chains of 100-300 terms, which cross the parser's
    ``MAX_EXPR_DEPTH`` of 128 levels, and runs of one prefix operator."""

    def chain() -> str:
        return random_chain(rng, rng.randint(100, 300))

    forms = [
        lambda: f"if ( {chain()} ) f ( ) ;",
        lambda: f"{chain()} ;",
        lambda: f"while ( {chain()} ) {{ g ( p ) ; }}",
        lambda: f"for ( i = 0 ; {chain()} ; i ++ ) ;",
        lambda: f"p -> a ; if ( p && {chain()} ) h ( ) ;",
        lambda: f"x = {(rng.choice(('!', '++', '--')) + ' ') * rng.randint(100, 300)}{rng.choice(_IDENTS)} ;",
    ]
    return "\n".join(rng.choice(forms)() for _ in range(rng.randint(1, 3)))


# ---------------------------------------------------------------------------
# Random micro-programs and the brute-force null-deref oracle
# ---------------------------------------------------------------------------


def random_micro_program(rng: random.Random) -> str:
    names = ["p", "q", "r", "s"]
    fields = ["a", "b", "work"]

    def name() -> str:
        return rng.choice(names)

    def fld() -> str:
        return rng.choice(fields)

    def simple_stmt() -> str:
        forms = [
            lambda: f"{name()} = {name()}->{fld()}({name()});",
            lambda: f"{name()}->{fld()};",
            lambda: f"{name()}->{fld()}({name()});",
            lambda: f"{name()}->{fld()}->{fld()};",
            lambda: f"{name()} = {name()};",
            lambda: f"{name()}->{fld()} = {name()};",
            lambda: f"{name()}++;",
            lambda: f"x = {name()}->{fld()} + 1;",
        ]
        return rng.choice(forms)()

    def test_stmt() -> str:
        x = name()
        forms = [
            f"if ({x}) t();",
            f"if ({x}->{fld()}) t();",
            f"if ({x} == NULL) t();",
            f"if (NULL != {x}) t();",
            f"if (!{x}) t();",
            f"if ({x} && {x}->{fld()}) t();",
            f"while ({x}) t();",
            f"for (i = 0; {x}; i++) t();",
        ]
        return rng.choice(forms)

    def block_stmt() -> str:
        inner = " ".join(
            simple_stmt() if rng.random() < 0.6 else test_stmt()
            for _ in range(rng.randint(1, 3))
        )
        return f"if ({name()}) {{ {inner} }}"

    def control_stmt() -> str:
        # A do-while condition and a switch scrutinee or label are plain
        # slots: they dereference, but they never test for null.
        x, y = name(), name()
        forms = [
            lambda: f"do {{ {simple_stmt()} }} while ({x});",
            lambda: f"do {simple_stmt()} while ({x}->{fld()} + 1);",
            lambda: f"switch ({x}->{fld()}) {{ case 1: {simple_stmt()} break; "
            f"case {y}->{fld()} + 1: case 2: {test_stmt()} default: {simple_stmt()} }}",
            lambda: f"switch ({x}) {{ case {y}: {simple_stmt()} }}",
            lambda: f"if ({x} == NULL) t(); else if ({y}->{fld()}) {simple_stmt()} "
            f"else if ({y}) u(); else {{ {simple_stmt()} }}",
        ]
        return rng.choice(forms)()

    lines = []
    for _ in range(rng.randint(3, 14)):
        roll = rng.random()
        if roll < 0.45:
            lines.append(simple_stmt())
        elif roll < 0.75:
            lines.append(test_stmt())
        elif roll < 0.87:
            lines.append(block_stmt())
        else:
            lines.append(control_stmt())
    return "\n".join(lines)


def null_oracle(events: Sequence[NullEvent]) -> list[tuple[int, int, int]]:
    """Brute-force enumeration over (deref, test) pairs in the event log.

    Reports (test line, test column, cited deref line) exactly when a
    dereference of the same path precedes the test with no kill of the
    path's root and no reset in between, consuming candidate dereferences
    once reported so no chain reports twice.
    """
    evs = list(events)
    consumed: set[int] = set()
    found: list[tuple[int, int, int]] = []
    for j, ev in enumerate(evs):
        if not isinstance(ev, NullTestEvent):
            continue
        candidates = []
        for i in range(j):
            d = evs[i]
            if not isinstance(d, DerefEvent) or d.number != ev.number or i in consumed:
                continue
            blocked = False
            for k in range(i + 1, j):
                mid = evs[k]
                if isinstance(mid, ResetEvent):
                    blocked = True
                    break
                if isinstance(mid, KillEvent) and mid.root == ev.path[0]:
                    blocked = True
                    break
            if not blocked:
                candidates.append(i)
        if candidates:
            earliest = evs[min(candidates)]
            assert isinstance(earliest, DerefEvent)
            found.append((ev.span.start.line, ev.span.start.column, position(ev.span.source, earliest.offset).line))
            consumed.update(candidates)
    return found
