"""Deliberately incomplete parser: control-flow statements only.

Parsing happens in two steps, interleaved.  Step one scans the token
stream left to right and builds statement trees for ``if``/``while``/
``do``/``for``/``switch``/braced blocks; every expression slot and every
unrecognized token run is cut out as an uninterpreted *wildcard* (an
ordered token list).  When a structural parse fails partway, the scanner
recovers by advancing exactly one token and retrying, so no input can
make it abort.

Step two runs on each slot as soon as it is cut: a total expression
parser that recognizes just the shapes the checkers need (comparisons,
logical combinations, updates, assignments, calls, access paths) and
leaves the wildcard unchanged when nothing matches.

Both steps find brackets in one table built per token list in a single
pass (:func:`_bracket_table`) and work on index ranges of that list.

Every tree node records the token slice it covers and its source span;
structural equality and ordering deliberately ignore positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple, Sequence

from .lexer import Position, Token, TokenKind, TokenStream, token_end
from .profiles import LanguageProfile

# Beyond this nesting depth, block interiors and wildcard refinements stay
# unstructured.  Keeps the parser total on pathological inputs without
# leaning on the interpreter's recursion limit.
MAX_NESTING = 64
MAX_EXPR_DEPTH = 128

_COMPARE_OPS = frozenset({"<", "<=", ">", ">=", "==", "!="})
_UNARY_UPDATE_OPS = frozenset({"++", "--"})
_BINARY_UPDATE_OPS = frozenset({"+=", "-="})
_STARTERS = frozenset({"if", "while", "do", "for", "switch"})
_LABELS = ("case", "default")


class Span(NamedTuple):
    """A node's source extent, up to one past its last token (immutable named tuple)."""

    start: Position
    end: Position


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression tree nodes."""

    __slots__ = ()


@dataclass(slots=True)
class Wildcard(Expr):
    """An uninterpreted, ordered run of tokens."""

    tokens: tuple[Token, ...]
    span: Span
    incomplete: bool = False


@dataclass(slots=True)
class Compare(Expr):
    op: str  # < <= > >= == !=
    lhs: Expr
    rhs: Expr
    tokens: tuple[Token, ...]
    span: Span


@dataclass(slots=True)
class Logical(Expr):
    op: str  # && ||
    lhs: Expr
    rhs: Expr
    tokens: tuple[Token, ...]
    span: Span


@dataclass(slots=True)
class Not(Expr):
    operand: Expr
    tokens: tuple[Token, ...]
    span: Span


@dataclass(slots=True)
class Update(Expr):
    op: str  # ++ -- += -=
    target: Expr
    tokens: tuple[Token, ...]
    span: Span
    value: Expr | None = None  # right side of += / -=


@dataclass(slots=True)
class Assign(Expr):
    lhs: Expr
    rhs: Expr
    tokens: tuple[Token, ...]
    span: Span


@dataclass(slots=True)
class Call(Expr):
    callee: Expr
    args: tuple[Expr, ...]
    tokens: tuple[Token, ...]
    span: Span


@dataclass(slots=True)
class AccessPath(Expr):
    """identifier (deref_op identifier)+ — e.g. ``state->work``."""

    root: Token
    steps: tuple[tuple[str, Token], ...]
    tokens: tuple[Token, ...]
    span: Span


@dataclass(slots=True)
class Atom(Expr):
    token: Token
    tokens: tuple[Token, ...]
    span: Span


# ---------------------------------------------------------------------------
# Statement nodes
# ---------------------------------------------------------------------------


class Stmt:
    """Base class for statement tree nodes."""

    __slots__ = ()


@dataclass(slots=True)
class WildcardStmt(Stmt):
    expr: Expr
    span: Span
    incomplete: bool = False


@dataclass(slots=True)
class Block(Stmt):
    body: list[Stmt]
    span: Span
    incomplete: bool = False


@dataclass(slots=True)
class If(Stmt):
    cond: Expr
    then_body: list[Stmt]
    elifs: list[tuple[Expr, list[Stmt]]]  # flattened `else if` chain
    else_body: list[Stmt] | None
    span: Span
    incomplete: bool = False


@dataclass(slots=True)
class While(Stmt):
    cond: Expr
    body: list[Stmt]
    span: Span
    incomplete: bool = False


@dataclass(slots=True)
class DoWhile(Stmt):
    body: list[Stmt]
    cond: Expr
    span: Span
    incomplete: bool = False


@dataclass(slots=True)
class For(Stmt):
    init: Expr | None
    cond: Expr | None
    update: Expr | None
    body: list[Stmt]
    header_span: Span
    span: Span
    incomplete: bool = False


@dataclass(slots=True)
class CaseArm:
    label: Expr | None  # None marks a `default` arm
    body: list[Stmt]
    span: Span


@dataclass(slots=True)
class Switch(Stmt):
    scrutinee: Expr
    cases: list[CaseArm]
    span: Span
    incomplete: bool = False


# ---------------------------------------------------------------------------
# Bracket table
# ---------------------------------------------------------------------------


def _bracket_table(
    tokens: Sequence[Token], profile: LanguageProfile
) -> tuple[list[int], list[int]]:
    """The two bracket-match columns of a token tuple, in one pass.

    ``same[i]`` pairs ``(`` with ``)`` and ``{`` with ``}``, counting that
    kind only: these are the brackets the grammar itself spells out.
    ``any[i]`` pairs each opener of ``profile.open_close_pairs`` with the
    first later closer, of any kind, that brings the depth back down; a
    closer at depth zero changes nothing.  In both columns every other
    index maps to itself and an opener left unclosed maps to
    ``len(tokens)``.

    A match depends only on the tokens after its opener, so one table
    serves every index range ``[lo, hi)`` of the tuple: a match at or past
    ``hi`` means the opener is unclosed within the range.
    """
    n = len(tokens)
    same = list(range(n))
    any_ = same.copy()  # both columns share one int object per index (memory)
    opens = {o for o, _ in profile.open_close_pairs}
    closes = {c for _, c in profile.open_close_pairs}
    parens: list[int] = []
    braces: list[int] = []
    same_opens = {"(": parens, "{": braces}
    same_closes = {")": parens, "}": braces}
    brackets = opens | closes | same_opens.keys() | same_closes.keys()
    pending: list[int] = []
    for i, tok in enumerate(tokens):
        text = tok.text
        if text not in brackets:
            continue
        if text in opens:
            pending.append(i)
        elif text in closes and pending:
            any_[pending.pop()] = i
        if text in same_opens:
            same_opens[text].append(i)
        elif text in same_closes and same_closes[text]:
            same[same_closes[text].pop()] = i
    for i in pending:
        any_[i] = n
    for i in parens + braces:
        same[i] = n
    return same, any_


# ---------------------------------------------------------------------------
# Statement recognition with sliding-window recovery, refining as it cuts
# ---------------------------------------------------------------------------


class _StructuralMismatch(Exception):
    """A statement shape did not pan out; the scanner slides one token."""


@dataclass
class ParseAccounting:
    """Bookkeeping for the totality/conservation properties.

    ``syntax_tokens`` holds every consumed token that does not live inside
    a tree node: statement keywords, brackets, terminators, case colons,
    and tokens skipped over by sliding-window recovery.
    """

    syntax_tokens: list[Token] = field(default_factory=list)
    iterations: int = 0


class _Parser:
    """Both parsing steps over one token tuple and its bracket table.

    Every scan works on an index range ``[lo, hi)`` of ``toks`` and jumps
    over whole bracket groups through the table, so block interiors are
    neither copied nor rescanned per nesting level.  ``i`` is the next
    token of the range being parsed and ``hi`` its end.
    """

    def __init__(self, tokens: tuple[Token, ...], profile: LanguageProfile, acct: ParseAccounting):
        self.toks = tokens
        self.same, self.any = _bracket_table(tokens, profile)
        self.profile = profile
        self.acct = acct
        self.i = 0
        self.hi = len(tokens)

    # -- primitives ---------------------------------------------------------

    def _peek(self) -> Token | None:
        return self.toks[self.i] if self.i < self.hi else None

    def _take_syntax(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        self.acct.syntax_tokens.append(tok)
        return tok

    def _end_pos(self) -> Position:
        """End of the last token taken."""
        return token_end(self.toks[self.i - 1])

    def _span(self, lo: int, hi: int, fallback: Position) -> Span:
        if hi > lo:
            return Span(self.toks[lo].pos, token_end(self.toks[hi - 1]))
        return Span(fallback, fallback)

    def _is_kw(self, tok: Token | None, text: str) -> bool:
        return tok is not None and tok.kind is TokenKind.KEYWORD and tok.text == text

    def _balanced(self, open_text: str) -> tuple[int, int, bool, Token]:
        """Consume a ``(...)`` or ``{...}`` group at the cursor.

        Returns the interior range, whether the group closed before the
        end of the current range, and the opening token.
        """
        open_tok = self._peek()
        if open_tok is None or open_tok.text != open_text:
            raise _StructuralMismatch(f"expected {open_text!r}")
        self._take_syntax()
        lo, close = self.i, self.same[self.i - 1]
        if close < self.hi:
            self.i = close
            self._take_syntax()
            return lo, close, True, open_tok
        self.i = self.hi
        return lo, self.hi, False, open_tok

    # -- entry point ----------------------------------------------------------

    def parse(self, lo: int, hi: int, nesting: int) -> list[Stmt]:
        """The statements of ``toks[lo:hi]``; the caller's range is restored."""
        outer = self.i, self.hi
        self.i, self.hi = lo, hi
        syntax = self.acct.syntax_tokens
        out: list[Stmt] = []
        while self.i < hi:
            self.acct.iterations += 1
            start = self.i
            mark = len(syntax)
            try:
                stmt = self._statement(nesting)
            except _StructuralMismatch:
                # Sliding window: emit nothing, advance one token, retry.
                # Everything the failed attempt consumed is handed back.
                del syntax[mark:]
                self.i = start
                self._take_syntax()
                continue
            out.append(stmt)
            if self.i == start:  # defensive: progress must always hold
                self._take_syntax()
        self.i, self.hi = outer
        return out

    # -- statement forms ------------------------------------------------------

    def _statement(self, depth: int) -> Stmt:
        tok = self._peek()
        assert tok is not None
        if tok.text == "{":
            return self._block(depth)
        if tok.kind is TokenKind.KEYWORD and tok.text in _STARTERS and depth < MAX_NESTING:
            if tok.text == "if":
                return self._if(depth)
            if tok.text == "while":
                return self._while(depth)
            if tok.text == "do":
                return self._do_while(depth)
            if tok.text == "for":
                return self._for(depth)
            return self._switch(depth)
        return self._wildcard_stmt()

    def _wildcard_stmt(self) -> WildcardStmt:
        """Token run up to the statement terminator at depth zero.

        Stops (without consuming) before a depth-zero "{" so a following
        brace region is recognized as a block; an input that ends first
        yields the run flagged as incomplete.
        """
        toks, match, lo, hi = self.toks, self.any, self.i, self.hi
        term = self.profile.stmt_terminator
        k = lo
        while k < hi:
            text = toks[k].text
            if text == term or text == "{":
                break
            k = match[k] + 1
        stop = min(k, hi)
        incomplete = stop == hi
        self.i = stop
        terminator = self._take_syntax() if not incomplete and toks[stop].text == term else None
        anchor = terminator.pos if terminator is not None else toks[lo].pos
        end = token_end(terminator) if terminator is not None else token_end(toks[stop - 1])
        span = Span(toks[lo].pos if stop > lo else anchor, end)
        return WildcardStmt(self._slot(lo, stop, anchor, incomplete), span, incomplete=incomplete)

    def _slot(self, lo: int, hi: int, fallback: Position, incomplete: bool = False) -> Expr:
        """Refine the expression slot ``toks[lo:hi]`` as soon as it is cut.

        ``fallback`` anchors an empty slot's span; a slot that stays a
        wildcard keeps the ``incomplete`` mark of its cut.
        """
        anchor = self.toks[lo].pos if hi > lo else fallback
        expr = self._refine(lo, hi, 0, anchor)
        if incomplete and isinstance(expr, Wildcard):
            expr.incomplete = True
        return expr

    def _cond(self) -> tuple[Expr, bool]:
        lo, hi, ok, open_tok = self._balanced("(")
        return self._slot(lo, hi, open_tok.pos, incomplete=not ok), ok

    def _subparse(self, lo: int, hi: int, depth: int) -> list[Stmt]:
        if depth >= MAX_NESTING:
            if hi == lo:
                return []
            pos = self.toks[lo].pos
            return [WildcardStmt(self._slot(lo, hi, pos), self._span(lo, hi, pos))]
        return self.parse(lo, hi, depth)

    def _block(self, depth: int) -> Block:
        lo, hi, ok, open_tok = self._balanced("{")
        body = self._subparse(lo, hi, depth + 1)
        return Block(body, Span(open_tok.pos, self._end_pos()), incomplete=not ok)

    def _body(self, depth: int) -> tuple[list[Stmt], bool]:
        """Either a braced statement list or exactly one statement."""
        tok = self._peek()
        if tok is None:
            return [], True
        if tok.text == "{":
            lo, hi, ok, _ = self._balanced("{")
            return self._subparse(lo, hi, depth + 1), not ok
        return [self._statement(depth + 1)], False

    def _if(self, depth: int) -> If:
        if_tok = self._take_syntax()
        cond, ok = self._cond()
        then_body, inc = self._body(depth)
        incomplete = not ok or inc
        elifs: list[tuple[Expr, list[Stmt]]] = []
        else_body: list[Stmt] | None = None
        while self._is_kw(self._peek(), "else"):
            self._take_syntax()
            if self._is_kw(self._peek(), "if"):
                self._take_syntax()
                c2, ok2 = self._cond()
                b2, inc2 = self._body(depth)
                elifs.append((c2, b2))
                incomplete = incomplete or not ok2 or inc2
            else:
                else_body, inc3 = self._body(depth)
                incomplete = incomplete or inc3
                break
        return If(cond, then_body, elifs, else_body, Span(if_tok.pos, self._end_pos()), incomplete)

    def _while(self, depth: int) -> While:
        while_tok = self._take_syntax()
        cond, ok = self._cond()
        body, inc = self._body(depth)
        return While(cond, body, Span(while_tok.pos, self._end_pos()), not ok or inc)

    def _do_while(self, depth: int) -> DoWhile:
        do_tok = self._take_syntax()
        body, inc = self._body(depth)
        if not self._is_kw(self._peek(), "while"):
            raise _StructuralMismatch("do-body not followed by while")
        self._take_syntax()
        cond, ok = self._cond()
        nxt = self._peek()
        if nxt is not None and nxt.text == self.profile.stmt_terminator:
            self._take_syntax()
        return DoWhile(body, cond, Span(do_tok.pos, self._end_pos()), not ok or inc)

    def _for(self, depth: int) -> For:
        for_tok = self._take_syntax()
        lo, hi, ok, open_tok = self._balanced("(")
        header_span = Span(open_tok.pos, self._end_pos())
        init, cond, update = self._split_for_header(lo, hi, open_tok.pos)
        body, inc = self._body(depth)
        return For(init, cond, update, body, header_span, Span(for_tok.pos, self._end_pos()), not ok or inc)

    def _split_for_header(
        self, lo: int, hi: int, anchor: Position
    ) -> tuple[Expr | None, Expr | None, Expr | None]:
        """Split on depth-zero ";" into init/cond/update.

        Anything other than exactly two semicolons (range-for, for-each,
        malformed headers) degrades to a single wildcard condition.
        """
        toks, match = self.toks, self.any
        term = self.profile.stmt_terminator
        semis: list[int] = []
        k = lo
        while k < hi:
            if toks[k].text == term:
                semis.append(k)
            k = match[k] + 1
        if len(semis) != 2:
            if lo == hi:
                return None, None, None
            return None, self._slot(lo, hi, anchor), None
        a, b = semis
        self.acct.syntax_tokens.extend((toks[a], toks[b]))
        init, cond, update = (
            self._slot(x, y, anchor) if y > x else None
            for x, y in ((lo, a), (a + 1, b), (b + 1, hi))
        )
        return init, cond, update

    def _switch(self, depth: int) -> Switch:
        sw_tok = self._take_syntax()
        scrutinee, ok = self._cond()
        nxt = self._peek()
        if nxt is None or nxt.text != "{":
            raise _StructuralMismatch("switch without a braced body")
        lo, hi, ok2, _ = self._balanced("{")
        cases = self._split_cases(lo, hi, depth)
        return Switch(scrutinee, cases, Span(sw_tok.pos, self._end_pos()), not ok or not ok2)

    def _split_cases(self, lo: int, hi: int, depth: int) -> list[CaseArm]:
        """Cut the switch body into case/default arms at depth zero.

        An arm's body runs until the next depth-zero ``case``/``default``
        or the end of the body; tokens before the first label make the
        whole switch structurally unparseable (sliding window takes over).
        """
        if lo == hi:
            return []
        toks, match = self.toks, self.any
        first = toks[lo]
        if not (first.kind is TokenKind.KEYWORD and first.text in _LABELS):
            raise _StructuralMismatch("switch body does not start with a label")

        boundaries: list[int] = []
        k = lo
        while k < hi:
            tok = toks[k]
            if tok.kind is TokenKind.KEYWORD and tok.text in _LABELS:
                boundaries.append(k)
            k = match[k] + 1
        boundaries.append(hi)

        arms: list[CaseArm] = []
        for start, stop in zip(boundaries, boundaries[1:]):
            label_tok = toks[start]
            self.acct.syntax_tokens.append(label_tok)
            # label tokens run to the first depth-zero ":"
            k = start + 1
            while k < stop and toks[k].text != ":":
                k = match[k] + 1
            label_end = min(k, stop)
            body_lo = label_end
            if label_end < stop:
                self.acct.syntax_tokens.append(toks[label_end])
                body_lo += 1
            body = self._subparse(body_lo, stop, depth + 1)
            label: Expr | None
            if label_tok.text == "default":
                label = None
                # stray tokens between `default` and ":" go into the body
                if label_end > start + 1:
                    stray = self._slot(start + 1, label_end, label_tok.pos)
                    body.insert(0, WildcardStmt(stray, self._span(start + 1, label_end, label_tok.pos)))
            else:
                label = self._slot(start + 1, label_end, label_tok.pos)
            arms.append(CaseArm(label, body, Span(label_tok.pos, token_end(toks[stop - 1]))))
        return arms

    # -- expression refinement ------------------------------------------------

    def _refine(self, lo: int, hi: int, depth: int, anchor: Position) -> Expr:
        """Refine ``toks[lo:hi]`` into a recognized shape, else a wildcard.

        ``anchor`` is the slot's start, the span of any empty part.
        """
        toks = self.toks
        tokens = toks[lo:hi]
        span = self._span(lo, hi, anchor)
        if lo == hi or depth > MAX_EXPR_DEPTH:
            return Wildcard(tokens, span)
        depth += 1
        refine = self._refine

        # Operators at bracket depth zero (the closer of a depth-zero group
        # is at depth zero too).  Assign: the first bare "=" wins outright;
        # right-associative chains nest in the rhs.
        match = self.any
        or_at = and_at = -1
        comparisons: list[int] = []
        bin_updates: list[int] = []
        k = lo
        while k < hi:
            tok = toks[k]
            if tok.kind is TokenKind.OPERATOR:
                text = tok.text
                if text == "=":
                    return Assign(refine(lo, k, depth, anchor), refine(k + 1, hi, depth, anchor), tokens, span)
                if text == "||":
                    or_at = k
                elif text == "&&":
                    and_at = k
                elif text in _COMPARE_OPS:
                    comparisons.append(k)
                elif text in _BINARY_UPDATE_OPS:
                    bin_updates.append(k)
            m = match[k]
            k = m if m > k else k + 1

        # Logical: split at the last top-level "||", else the last "&&".
        for op, idx in (("||", or_at), ("&&", and_at)):
            if idx >= 0:
                return Logical(op, refine(lo, idx, depth, anchor), refine(idx + 1, hi, depth, anchor), tokens, span)

        # Compare: exactly one top-level comparison operator.  Two or more
        # (template/generic angle brackets, chained comparisons) stay wildcard.
        if len(comparisons) == 1:
            idx = comparisons[0]
            op = toks[idx].text
            return Compare(op, refine(lo, idx, depth, anchor), refine(idx + 1, hi, depth, anchor), tokens, span)

        # Not: leading "!".
        first, last = toks[lo], toks[hi - 1]
        if first.text == "!" and hi - lo > 1:
            return Not(refine(lo + 1, hi, depth, anchor), tokens, span)

        # Update: one top-level "+=" / "-=", or a leading/trailing "++" / "--".
        if len(bin_updates) == 1:
            idx = bin_updates[0]
            value = refine(idx + 1, hi, depth, anchor)
            return Update(toks[idx].text, refine(lo, idx, depth, anchor), tokens, span, value=value)
        if hi - lo >= 2 and last.text in _UNARY_UPDATE_OPS:
            return Update(last.text, refine(lo, hi - 1, depth, anchor), tokens, span)
        if hi - lo >= 2 and first.text in _UNARY_UPDATE_OPS:
            return Update(first.text, refine(lo + 1, hi, depth, anchor), tokens, span)

        # Call: access path (or bare identifier) + balanced "(...)" covering
        # the remainder; arguments split on depth-zero commas.
        k = self._path_end(lo, hi)
        if lo < k < hi and toks[k].text == "(" and self.same[k] == hi - 1:
            args: list[Expr] = []
            start = j = k + 1
            if start < hi - 1:
                while j < hi - 1:
                    if toks[j].text == ",":
                        args.append(refine(start, j, depth, anchor))
                        start = j + 1
                    j = match[j] + 1
                args.append(refine(start, hi - 1, depth, anchor))
            return Call(self._path(lo, k, anchor), tuple(args), tokens, span)

        # AccessPath: the whole run is ident (deref_op ident)+ exactly.
        if k == hi and hi - lo >= 3:
            return self._path(lo, hi, anchor)

        # Atom: any single token.
        if hi - lo == 1:
            return Atom(first, tokens, span)

        # Fully covering parentheses: strip and re-refine the interior, but
        # keep the original token slice on the node.
        if first.text == "(" and self.same[lo] == hi - 1:
            inner = refine(lo + 1, hi - 1, depth, anchor)
            return replace(inner, tokens=tokens, span=span)

        return Wildcard(tokens, span)

    def _path_end(self, lo: int, hi: int) -> int:
        """End of the maximal ``ident (deref_op ident)*`` prefix (``lo`` if none)."""
        toks = self.toks
        if toks[lo].kind is not TokenKind.IDENTIFIER:
            return lo
        deref_ops = self.profile.deref_ops
        k = lo + 1
        while (
            k + 1 < hi
            and toks[k].kind is TokenKind.OPERATOR
            and toks[k].text in deref_ops
            and toks[k + 1].kind is TokenKind.IDENTIFIER
        ):
            k += 2
        return k

    def _path(self, lo: int, hi: int, anchor: Position) -> Expr:
        toks = self.toks[lo:hi]
        span = self._span(lo, hi, anchor)
        if len(toks) == 1:
            return Atom(toks[0], toks, span)
        steps = tuple((toks[i].text, toks[i + 1]) for i in range(1, len(toks), 2))
        return AccessPath(toks[0], steps, toks, span)


def parse_expression(wildcard: Expr, profile: LanguageProfile) -> Expr:
    """Refine a wildcard into a recognized shape; never fails.

    Already-refined expressions pass through untouched, and a wildcard no
    rule matches is returned unchanged.
    """
    if not isinstance(wildcard, Wildcard):
        return wildcard
    tokens = tuple(wildcard.tokens)
    refined = _Parser(tokens, profile, ParseAccounting())._refine(0, len(tokens), 0, wildcard.span.start)
    if isinstance(refined, Wildcard):
        refined.incomplete = wildcard.incomplete
    return refined


# ---------------------------------------------------------------------------
# Whole-stream parse
# ---------------------------------------------------------------------------


def parse_statements(
    stream: TokenStream | Sequence[Token], profile: LanguageProfile
) -> list[Stmt]:
    stmts, _ = parse_statements_debug(stream, profile)
    return stmts


def parse_statements_debug(
    stream: TokenStream | Sequence[Token], profile: LanguageProfile
) -> tuple[list[Stmt], ParseAccounting]:
    """Like :func:`parse_statements` but also returns consumption bookkeeping."""
    tokens = tuple(stream.tokens if isinstance(stream, TokenStream) else stream)
    acct = ParseAccounting()
    stmts = _Parser(tokens, profile, acct).parse(0, len(tokens), 0)
    return stmts, acct

# ---------------------------------------------------------------------------
# Structural equality and total ordering (positions ignored)
# ---------------------------------------------------------------------------

Key = tuple  # nested tuples of strings; lexicographically comparable


def expr_key(e: Expr) -> Key:
    if isinstance(e, Wildcard):
        return ("Wildcard",) + tuple(t.text for t in e.tokens)
    if isinstance(e, Atom):
        return ("Atom", e.token.text)
    if isinstance(e, AccessPath):
        flat: list[str] = [e.root.text]
        for op, ident in e.steps:
            flat.append(op)
            flat.append(ident.text)
        return ("AccessPath",) + tuple(flat)
    if isinstance(e, Compare):
        return ("Compare", e.op, expr_key(e.lhs), expr_key(e.rhs))
    if isinstance(e, Logical):
        return ("Logical", e.op, expr_key(e.lhs), expr_key(e.rhs))
    if isinstance(e, Not):
        return ("Not", expr_key(e.operand))
    if isinstance(e, Update):
        value = expr_key(e.value) if e.value is not None else ("None",)
        return ("Update", e.op, expr_key(e.target), value)
    if isinstance(e, Assign):
        return ("Assign", expr_key(e.lhs), expr_key(e.rhs))
    if isinstance(e, Call):
        return ("Call", expr_key(e.callee), ("Args",) + tuple(expr_key(a) for a in e.args))
    raise TypeError(f"not an expression node: {e!r}")


def _body_key(stmts: Iterable[Stmt]) -> Key:
    return ("Body",) + tuple(stmt_key(s) for s in stmts)


def stmt_key(s: Stmt) -> Key:
    if isinstance(s, WildcardStmt):
        return ("WildcardStmt", expr_key(s.expr))
    if isinstance(s, Block):
        return ("Block", _body_key(s.body))
    if isinstance(s, If):
        elifs = tuple(("Arm", expr_key(c), _body_key(b)) for c, b in s.elifs)
        else_key = _body_key(s.else_body) if s.else_body is not None else ("NoElse",)
        return ("If", expr_key(s.cond), _body_key(s.then_body), ("Elifs",) + elifs, else_key)
    if isinstance(s, While):
        return ("While", expr_key(s.cond), _body_key(s.body))
    if isinstance(s, DoWhile):
        return ("DoWhile", _body_key(s.body), expr_key(s.cond))
    if isinstance(s, For):
        def opt(e: Expr | None) -> Key:
            return expr_key(e) if e is not None else ("None",)

        return ("For", opt(s.init), opt(s.cond), opt(s.update), _body_key(s.body))
    if isinstance(s, Switch):
        arms = tuple(
            ("Case", expr_key(a.label), _body_key(a.body))
            if a.label is not None
            else ("Default", _body_key(a.body))
            for a in s.cases
        )
        return ("Switch", expr_key(s.scrutinee), ("Arms",) + arms)
    raise TypeError(f"not a statement node: {s!r}")


def expr_equal(a: Expr, b: Expr) -> bool:
    """Same constructor, recursively equal children; token text only."""
    return expr_key(a) == expr_key(b)


def stmt_equal(a: Stmt, b: Stmt) -> bool:
    return stmt_key(a) == stmt_key(b)


# ---------------------------------------------------------------------------
# Tree walking and rendering helpers
# ---------------------------------------------------------------------------


def child_statements(s: Stmt) -> Iterator[Stmt]:
    if isinstance(s, (Block, While, DoWhile, For)):
        yield from s.body
    elif isinstance(s, If):
        yield from s.then_body
        for _, b in s.elifs:
            yield from b
        if s.else_body is not None:
            yield from s.else_body
    elif isinstance(s, Switch):
        for arm in s.cases:
            yield from arm.body


def walk_statements(stmts: Iterable[Stmt]) -> Iterator[Stmt]:
    """Every statement in the tree, pre-order, source order."""
    for s in stmts:
        yield s
        yield from walk_statements(child_statements(s))


def expr_tokens(e: Expr) -> tuple[Token, ...]:
    """The exact token slice a refined (or wild) expression covers."""
    return e.tokens  # type: ignore[attr-defined]


def stmt_tokens(s: Stmt) -> list[Token]:
    """All non-syntax tokens reachable from a statement node."""
    out: list[Token] = []

    def add_expr(e: Expr | None) -> None:
        if e is not None:
            out.extend(expr_tokens(e))

    if isinstance(s, WildcardStmt):
        add_expr(s.expr)
    elif isinstance(s, If):
        add_expr(s.cond)
        for c, _ in s.elifs:
            add_expr(c)
    elif isinstance(s, (While, DoWhile)):
        add_expr(s.cond)
    elif isinstance(s, For):
        add_expr(s.init)
        add_expr(s.cond)
        add_expr(s.update)
    elif isinstance(s, Switch):
        add_expr(s.scrutinee)
        for arm in s.cases:
            add_expr(arm.label)
    for child in child_statements(s):
        out.extend(stmt_tokens(child))
    return out


def _texts(e: Expr | None) -> str:
    import json as _json

    if e is None:
        return "[]"
    return _json.dumps([t.text for t in expr_tokens(e)])


def dump_statements(stmts: Sequence[Stmt], indent: int = 0) -> str:
    """Indented tree rendering, one node per line."""
    lines: list[str] = []
    pad = "  " * indent

    def at(span: Span) -> str:
        return f"@{span.start.line}:{span.start.column}"

    for s in stmts:
        if isinstance(s, WildcardStmt):
            lines.append(f"{pad}WildcardStmt {at(s.span)} {_texts(s.expr)}")
        elif isinstance(s, Block):
            lines.append(f"{pad}Block {at(s.span)}")
            lines.append(dump_statements(s.body, indent + 1))
        elif isinstance(s, If):
            lines.append(f"{pad}If {at(s.span)} {_texts(s.cond)}")
            lines.append(dump_statements(s.then_body, indent + 1))
            for c, b in s.elifs:
                lines.append(f"{pad}Elif {at(s.span)} {_texts(c)}")
                lines.append(dump_statements(b, indent + 1))
            if s.else_body is not None:
                lines.append(f"{pad}Else {at(s.span)}")
                lines.append(dump_statements(s.else_body, indent + 1))
        elif isinstance(s, While):
            lines.append(f"{pad}While {at(s.span)} {_texts(s.cond)}")
            lines.append(dump_statements(s.body, indent + 1))
        elif isinstance(s, DoWhile):
            lines.append(f"{pad}DoWhile {at(s.span)} {_texts(s.cond)}")
            lines.append(dump_statements(s.body, indent + 1))
        elif isinstance(s, For):
            lines.append(
                f"{pad}For {at(s.span)} {_texts(s.init)} {_texts(s.cond)} {_texts(s.update)}"
            )
            lines.append(dump_statements(s.body, indent + 1))
        elif isinstance(s, Switch):
            lines.append(f"{pad}Switch {at(s.span)} {_texts(s.scrutinee)}")
            for arm in s.cases:
                head = "Default" if arm.label is None else f"Case {_texts(arm.label)}"
                lines.append(f"{pad}  {head} @{arm.span.start.line}:{arm.span.start.column}")
                lines.append(dump_statements(arm.body, indent + 2))
    return "\n".join(line for line in lines if line)
