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
Every cut at bracket depth zero (statement ends, ``for`` header
semicolons, switch labels and colons, call arguments) goes through one
search that steps over whole bracket groups, :meth:`_Parser._find`.
Refinement's operator scan is the one exception: it must also look at each
group's closer, which can be an operator too (``pairs = ( ) < >`` makes
``>`` close ``<``, and ``>`` is still a comparison).  It runs once per
bracket level: a cut at a depth-zero operator never cuts a bracket group, so
the long side of a split (a ``Logical`` lhs, a ``Not`` operand, an
``++``/``--`` target) inherits its parent's operator lists, trimmed.

Every expression node records the token slice it covers.  A refined node
is never empty and reads its source span off that slice; a wildcard may be
empty, so it stores its span, which for an empty slot sits at the slot's
anchor.  Statement nodes store spans that also cover their keywords and
brackets.  Spans are offsets, resolved only when read (:class:`Extent`).
Structural equality and ordering deliberately ignore positions.

Each class declares its fields once, in ``__slots__``, from which it gets
its constructor, ``repr`` and ``==``.  Each statement class declares its
shape once, in ``parts()``: its expression slots and bodies in source
order, each tagged ``TEST`` (a condition whose truth picks a path),
``SLOT`` (any other expression slot) or ``BODY`` (a statement list).
Equality keys, the tree walk, the tree dump and the checkers' event log all
read that one declaration.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, NamedTuple, Sequence

from .lexer import Position, Token, TokenKind, TokenStream, _new, _Slotted, position
from .profiles import LanguageProfile

# Beyond this nesting depth, block interiors and wildcard refinements stay
# unstructured.  Keeps the parser total on pathological inputs without
# leaning on the interpreter's recursion limit.
MAX_NESTING = 64
MAX_EXPR_DEPTH = 128

_COMPARE_OPS = frozenset({"<", "<=", ">", ">=", "==", "!="})
_UNARY_UPDATE_OPS = frozenset({"++", "--"})
_BINARY_UPDATE_OPS = frozenset({"+=", "-="})
# The operators refinement splits at: a lone one still makes a shape, of empty parts.
_SPLIT_OPS = _COMPARE_OPS | _BINARY_UPDATE_OPS | {"=", "||", "&&"}
_STARTERS = frozenset({"if", "while", "do", "for", "switch"})
_LABELS = ("case", "default")

# Token kinds bound once for the per-token loops (see the note in ``lexer``).
_IDENT, _KW, _OP = TokenKind.IDENTIFIER, TokenKind.KEYWORD, TokenKind.OPERATOR


class Span(NamedTuple):
    """A finding's span: two resolved positions, up to one past the last token (immutable named tuple)."""

    start: Position
    end: Position


class Extent(NamedTuple):
    """A node's span as offsets into ``source`` (immutable named tuple); its
    positions resolve when read, and it prints as the ``Span`` they make."""

    lo: int
    hi: int
    source: str

    start = property(lambda self: position(self.source, self.lo))
    end = property(lambda self: position(self.source, self.hi))

    def resolve(self) -> Span:
        """Both positions, the end counted on from the start."""
        start = self.start
        return _new(Span, (start, position(self.source, self.hi, start)))

    def __repr__(self) -> str:
        return repr(self.resolve())


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------


class Expr(_Slotted):
    """Base class for expression tree nodes."""

    __slots__ = ()
    tokens: tuple[Token, ...]

    @property
    def span(self) -> Extent:
        """The extent of ``tokens``, which a refined node never leaves empty."""
        first, last = self.tokens[0], self.tokens[-1]
        return _new(Extent, (first.offset, last.offset + len(last.text), first.source))


class Wildcard(Expr):
    """An uninterpreted, ordered run of tokens; it may be empty, so its span
    is stored (an empty slot's sits at the slot's anchor)."""

    __slots__ = ("tokens", "span")


class Compare(Expr):
    __slots__ = ("op", "lhs", "rhs", "tokens")  # op: < <= > >= == !=


class Logical(Expr):
    __slots__ = ("op", "lhs", "rhs", "tokens")  # op: && ||


class Not(Expr):
    __slots__ = ("operand", "tokens")


class Update(Expr):
    # op: ++ -- += -=; value is the right side of += / -=
    __slots__ = ("op", "target", "tokens", "value")
    _defaults = {"value": None}


class Assign(Expr):
    __slots__ = ("lhs", "rhs", "tokens")


class Call(Expr):
    __slots__ = ("callee", "args", "tokens")


class AccessPath(Expr):
    """identifier (deref_op identifier)+ — e.g. ``state->work``."""

    __slots__ = ("root", "steps", "tokens")

    def path(self) -> tuple[str, ...]:
        """The flattened access chain: ``("state", "->", "work")``."""
        flat = [self.root.text]
        for op, ident in self.steps:
            flat += op, ident.text
        return tuple(flat)


class Atom(Expr):
    __slots__ = ("token", "tokens")


# ---------------------------------------------------------------------------
# Statement nodes
# ---------------------------------------------------------------------------


# The role of each part of a statement node (see ``Stmt.parts``).
TEST = "test"  # a condition whose truth value picks a path; may be None
SLOT = "slot"  # any other expression slot; may be None
BODY = "body"  # a list[Stmt]

Part = tuple[str, "Expr | list[Stmt] | None"]


class Stmt(_Slotted):
    """Base class for statement tree nodes."""

    __slots__ = ()
    _defaults = {"incomplete": False}

    def parts(self) -> Sequence[Part]:
        """The node's expression slots and bodies in source order, each
        tagged with its role; every walk over the tree reads this."""
        raise NotImplementedError


class WildcardStmt(Stmt):
    __slots__ = ("expr", "span", "incomplete")

    def parts(self) -> Sequence[Part]:
        return ((SLOT, self.expr),)


class Block(Stmt):
    __slots__ = ("body", "span", "incomplete")

    def parts(self) -> Sequence[Part]:
        return ((BODY, self.body),)


class If(Stmt):
    # elifs: the flattened `else if` chain, as (cond, body) pairs; else_body may be None
    __slots__ = ("cond", "then_body", "elifs", "else_body", "span", "incomplete")

    def parts(self) -> Sequence[Part]:
        parts: list[Part] = [(TEST, self.cond), (BODY, self.then_body)]
        for cond, body in self.elifs:
            parts += (TEST, cond), (BODY, body)
        if self.else_body is not None:
            parts.append((BODY, self.else_body))
        return parts


class While(Stmt):
    __slots__ = ("cond", "body", "span", "incomplete")

    def parts(self) -> Sequence[Part]:
        return ((TEST, self.cond), (BODY, self.body))


class DoWhile(Stmt):
    __slots__ = ("body", "cond", "span", "incomplete")

    def parts(self) -> Sequence[Part]:
        # a do-while condition is not a null-test position
        return ((BODY, self.body), (SLOT, self.cond))


class For(Stmt):
    __slots__ = ("init", "cond", "update", "body", "header_span", "span", "incomplete")

    def parts(self) -> Sequence[Part]:
        return ((SLOT, self.init), (TEST, self.cond), (SLOT, self.update), (BODY, self.body))


class CaseArm(_Slotted):
    __slots__ = ("label", "body", "span")  # label is None for a `default` arm


class Switch(Stmt):
    __slots__ = ("scrutinee", "cases", "span", "incomplete")  # cases: a list of CaseArm

    def parts(self) -> Sequence[Part]:
        parts: list[Part] = [(SLOT, self.scrutinee)]
        for arm in self.cases:
            parts += (SLOT, arm.label), (BODY, arm.body)
        return parts


# ---------------------------------------------------------------------------
# Scans over index ranges of a token tuple: brackets and access paths
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


def path_end(toks: Sequence[Token], lo: int, hi: int, deref_ops: Sequence[str]) -> int:
    """End of the maximal ``ident (deref_op ident)*`` run of ``toks[lo:hi]``
    that starts at ``lo`` (``lo`` itself when ``toks[lo]`` is no identifier)."""
    if toks[lo].kind is not _IDENT:
        return lo
    k = lo + 1
    while (
        k + 1 < hi
        and toks[k].kind is _OP
        and toks[k].text in deref_ops
        and toks[k + 1].kind is _IDENT
    ):
        k += 2
    return k


# ---------------------------------------------------------------------------
# Statement recognition with sliding-window recovery, refining as it cuts
# ---------------------------------------------------------------------------


class _StructuralMismatch(Exception):
    """A statement shape did not pan out; the scanner slides one token."""


class _Parser:
    """Both parsing steps over one token tuple and its bracket table.

    Every scan works on an index range ``[lo, hi)`` of ``toks`` and jumps
    over whole bracket groups through the table, so block interiors are
    neither copied nor rescanned per nesting level.  ``i`` is the next
    token of the range being parsed and ``hi`` its end.
    """

    def __init__(self, tokens: tuple[Token, ...], profile: LanguageProfile):
        self.toks = tokens
        self.source = tokens[0].source if tokens else ""
        self.same, self.any = _bracket_table(tokens, profile)
        self.profile = profile
        self.i = 0
        self.hi = len(tokens)

    # -- primitives ---------------------------------------------------------

    def _peek(self) -> Token | None:
        return self.toks[self.i] if self.i < self.hi else None

    def _take(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _since(self, start: int, k: int = 0) -> Extent:
        """From offset ``start`` to the end of token ``k - 1``, by default the last one taken."""
        last = self.toks[(k or self.i) - 1]
        return _new(Extent, (start, last.offset + len(last.text), self.source))

    def _span(self, lo: int, hi: int, fallback: int) -> Extent:
        return self._since(self.toks[lo].offset, hi) if hi > lo else _new(Extent, (fallback, fallback, self.source))

    def _is_kw(self, tok: Token | None, text: str) -> bool:
        return tok is not None and tok.kind is _KW and tok.text == text

    def _balanced(self, open_text: str) -> tuple[int, int, bool, Token]:
        """Consume a ``(...)`` or ``{...}`` group at the cursor.

        Returns the interior range, whether the group closed before the
        end of the current range, and the opening token.
        """
        open_tok = self._peek()
        if open_tok is None or open_tok.text != open_text:
            raise _StructuralMismatch(f"expected {open_text!r}")
        lo, close = self.i + 1, self.same[self.i]
        if close < self.hi:
            self.i = close + 1
            return lo, close, True, open_tok
        self.i = self.hi
        return lo, self.hi, False, open_tok

    def _find(self, lo: int, hi: int, texts: Sequence[str]) -> int:
        """The first index of ``[lo, hi)`` at bracket depth zero whose text
        is in ``texts``, else ``hi``; an opener is looked at, then its whole
        group is stepped over."""
        toks, match, k = self.toks, self.any, lo
        while k < hi and toks[k].text not in texts:
            k = match[k] + 1
        return k if k < hi else hi

    # -- entry point ----------------------------------------------------------

    def parse(self, lo: int, hi: int, nesting: int) -> list[Stmt]:
        """The statements of ``toks[lo:hi]``; the caller's range is restored."""
        outer = self.i, self.hi
        self.i, self.hi = lo, hi
        out: list[Stmt] = []
        while self.i < hi:
            start = self.i
            try:
                stmt = self._statement(nesting)
            except _StructuralMismatch:
                # Sliding window: emit nothing, advance one token, retry.
                self.i = start + 1
                continue
            out.append(stmt)
            if self.i == start:  # defensive: progress must always hold
                self.i += 1
        self.i, self.hi = outer
        return out

    # -- statement forms ------------------------------------------------------

    def _statement(self, depth: int) -> Stmt:
        tok = self._peek()
        assert tok is not None
        if tok.text == "{":
            return self._block(depth)
        if tok.kind is _KW and tok.text in _STARTERS and depth < MAX_NESTING:
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
        lo, term = self.i, self.profile.stmt_terminator
        self.i = stop = self._find(lo, self.hi, (term, "{"))
        if stop < self.hi and self.toks[stop].text == term:
            self._take()
        anchor = self.toks[lo].offset  # an empty run stops at its terminator ("{" starts a block)
        return WildcardStmt(self._slot(lo, stop, anchor), self._since(anchor), stop == self.hi)

    def _slot(self, lo: int, hi: int, fallback: int) -> Expr:
        """Refine the expression slot ``toks[lo:hi]`` as soon as it is cut.

        ``fallback`` anchors an empty slot's span.
        """
        anchor = self.toks[lo].offset if hi > lo else fallback
        return self._refine(lo, hi, 0, anchor)

    def _cond(self) -> tuple[Expr, bool]:
        lo, hi, ok, open_tok = self._balanced("(")
        return self._slot(lo, hi, open_tok.offset), ok

    def _subparse(self, lo: int, hi: int, depth: int) -> list[Stmt]:
        if depth >= MAX_NESTING:
            if hi == lo:
                return []
            pos = self.toks[lo].offset
            return [WildcardStmt(self._slot(lo, hi, pos), self._span(lo, hi, pos))]
        return self.parse(lo, hi, depth)

    def _block(self, depth: int) -> Block:
        lo, hi, ok, open_tok = self._balanced("{")
        body = self._subparse(lo, hi, depth + 1)
        return Block(body, self._since(open_tok.offset), incomplete=not ok)

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
        if_tok = self._take()
        cond, ok = self._cond()
        then_body, inc = self._body(depth)
        incomplete = not ok or inc
        elifs: list[tuple[Expr, list[Stmt]]] = []
        else_body: list[Stmt] | None = None
        while self._is_kw(self._peek(), "else"):
            self._take()
            if self._is_kw(self._peek(), "if"):
                self._take()
                c2, ok2 = self._cond()
                b2, inc2 = self._body(depth)
                elifs.append((c2, b2))
                incomplete = incomplete or not ok2 or inc2
            else:
                else_body, inc3 = self._body(depth)
                incomplete = incomplete or inc3
                break
        return If(cond, then_body, elifs, else_body, self._since(if_tok.offset), incomplete)

    def _while(self, depth: int) -> While:
        while_tok = self._take()
        cond, ok = self._cond()
        body, inc = self._body(depth)
        return While(cond, body, self._since(while_tok.offset), not ok or inc)

    def _do_while(self, depth: int) -> DoWhile:
        do_tok = self._take()
        body, inc = self._body(depth)
        if not self._is_kw(self._peek(), "while"):
            raise _StructuralMismatch("do-body not followed by while")
        self._take()
        cond, ok = self._cond()
        nxt = self._peek()
        if nxt is not None and nxt.text == self.profile.stmt_terminator:
            self._take()
        return DoWhile(body, cond, self._since(do_tok.offset), not ok or inc)

    def _for(self, depth: int) -> For:
        for_tok = self._take()
        lo, hi, ok, open_tok = self._balanced("(")
        header_span = self._since(open_tok.offset)
        init, cond, update = self._split_for_header(lo, hi, open_tok.offset)
        body, inc = self._body(depth)
        return For(init, cond, update, body, header_span, self._since(for_tok.offset), not ok or inc)

    def _split_for_header(
        self, lo: int, hi: int, anchor: int
    ) -> tuple[Expr | None, Expr | None, Expr | None]:
        """Split on depth-zero ";" into init/cond/update.

        Anything other than exactly two semicolons (range-for, for-each,
        malformed headers) degrades to a single wildcard condition.
        """
        semi = (self.profile.stmt_terminator,)
        a = self._find(lo, hi, semi)
        b = self._find(a + 1, hi, semi)
        if b == hi or self._find(b + 1, hi, semi) < hi:
            a, b = lo - 1, hi  # as if cut just outside the header: all condition
        init, cond, update = (
            self._slot(x, y, anchor) if y > x else None
            for x, y in ((lo, a), (a + 1, b), (b + 1, hi))
        )
        return init, cond, update

    def _switch(self, depth: int) -> Switch:
        sw_tok = self._take()
        scrutinee, ok = self._cond()
        nxt = self._peek()
        if nxt is None or nxt.text != "{":
            raise _StructuralMismatch("switch without a braced body")
        lo, hi, ok2, _ = self._balanced("{")
        cases = self._split_cases(lo, hi, depth)
        return Switch(scrutinee, cases, self._since(sw_tok.offset), not ok or not ok2)

    def _split_cases(self, lo: int, hi: int, depth: int) -> list[CaseArm]:
        """Cut the switch body into case/default arms at depth zero.

        An arm's body runs until the next depth-zero ``case``/``default``
        or the end of the body; tokens before the first label make the
        whole switch structurally unparseable (sliding window takes over).
        """
        if lo == hi:
            return []
        toks = self.toks
        boundaries: list[int] = []
        k = self._find(lo, hi, _LABELS)
        while k < hi:
            if toks[k].kind is _KW:
                boundaries.append(k)
            k = self._find(k + 1, hi, _LABELS)
        if not boundaries or boundaries[0] != lo:
            raise _StructuralMismatch("switch body does not start with a label")
        boundaries.append(hi)

        arms: list[CaseArm] = []
        for start, stop in zip(boundaries, boundaries[1:]):
            label_tok = toks[start]
            # label tokens run to the first depth-zero ":"
            label_end = self._find(start + 1, stop, (":",))
            body = self._subparse(min(label_end + 1, stop), stop, depth + 1)
            label: Expr | None
            if label_tok.text == "default":
                label = None
                # stray tokens between `default` and ":" go into the body
                if label_end > start + 1:
                    stray = self._slot(start + 1, label_end, label_tok.offset)
                    body.insert(0, WildcardStmt(stray, self._span(start + 1, label_end, label_tok.offset)))
            else:
                label = self._slot(start + 1, label_end, label_tok.offset)
            arms.append(CaseArm(label, body, self._span(start, stop, label_tok.offset)))
        return arms

    # -- expression refinement ------------------------------------------------

    def _refine(self, lo: int, hi: int, depth: int, anchor: int, ops: tuple | None = None) -> Expr:
        """Refine ``toks[lo:hi]`` into a recognized shape, else a wildcard.

        ``anchor`` is the slot's start offset, the span of any empty part.  ``ops``
        is the range's depth-zero ``||``, ``&&``, comparison and ``+=``/``-=``
        indices (four lists in source order) when the caller's scan has them.
        """
        toks = self.toks
        if hi - lo == 1 and depth <= MAX_EXPR_DEPTH:  # Atom: one token, unless a split operator
            first = toks[lo]
            if first.kind is not _OP or first.text not in _SPLIT_OPS:
                return Atom(first, (first,))
        tokens = toks[lo:hi]
        if lo == hi or depth > MAX_EXPR_DEPTH:
            return Wildcard(tokens, self._span(lo, hi, anchor))
        depth += 1
        refine = self._refine

        # Operators at bracket depth zero (the closer of a depth-zero group
        # is at depth zero too).  Assign: the first bare "=" wins outright;
        # right-associative chains nest in the rhs.
        match = self.any
        if ops is None:
            ops = ors, ands, comparisons, bin_updates = [], [], [], []
            k = lo
            while k < hi:
                tok = toks[k]
                if tok.kind is _OP:
                    text = tok.text
                    if text == "=":
                        return Assign(refine(lo, k, depth, anchor), refine(k + 1, hi, depth, anchor), tokens)
                    if text == "||":
                        ors.append(k)
                    elif text == "&&":
                        ands.append(k)
                    elif text in _COMPARE_OPS:
                        comparisons.append(k)
                    elif text in _BINARY_UPDATE_OPS:
                        bin_updates.append(k)
                m = match[k]
                k = m if m > k else k + 1
        else:
            ors, ands, comparisons, bin_updates = ops

        # Logical: split at the last top-level "||", else the last "&&".
        at = ors or ands
        if at:
            idx = at[-1]
            for x in ops:
                del x[bisect_left(x, idx):]  # what is left is the lhs's
            op = toks[idx].text
            return Logical(op, refine(lo, idx, depth, anchor, ops), refine(idx + 1, hi, depth, anchor), tokens)

        # Compare: exactly one top-level comparison operator.  Two or more
        # (template/generic angle brackets, chained comparisons) stay wildcard.
        if len(comparisons) == 1:
            idx = comparisons[0]
            op = toks[idx].text
            return Compare(op, refine(lo, idx, depth, anchor), refine(idx + 1, hi, depth, anchor), tokens)

        # Not: leading "!".  Its operand, like a "++"/"--" target below, keeps
        # the lists unless a profile pairs the token cut off as an opener.
        first, last = toks[lo], toks[hi - 1]
        if first.text == "!" and hi - lo > 1:
            return Not(refine(lo + 1, hi, depth, anchor, ops if match[lo] == lo else None), tokens)

        # Update: one top-level "+=" / "-=", or a leading/trailing "++" / "--".
        if len(bin_updates) == 1:
            idx = bin_updates[0]
            value = refine(idx + 1, hi, depth, anchor)
            return Update(toks[idx].text, refine(lo, idx, depth, anchor), tokens, value=value)
        if hi - lo >= 2 and last.text in _UNARY_UPDATE_OPS:
            return Update(last.text, refine(lo, hi - 1, depth, anchor, ops), tokens)
        if hi - lo >= 2 and first.text in _UNARY_UPDATE_OPS:
            return Update(first.text, refine(lo + 1, hi, depth, anchor, ops if match[lo] == lo else None), tokens)

        # Call: access path (or bare identifier) + balanced "(...)" covering
        # the remainder; arguments split on depth-zero commas.
        k = path_end(toks, lo, hi, self.profile.deref_ops)
        if lo < k < hi and toks[k].text == "(" and self.same[k] == hi - 1:
            args: list[Expr] = []
            if k + 1 < hi - 1:  # "()" has no arguments
                cut = k  # the "(", then each depth-zero ","
                while cut < hi - 1:
                    j = self._find(cut + 1, hi - 1, (",",))
                    args.append(refine(cut + 1, j, depth, anchor))
                    cut = j
            return Call(self._path(lo, k), tuple(args), tokens)

        # AccessPath: the whole run is ident (deref_op ident)+ exactly.
        if k == hi and hi - lo >= 3:
            return self._path(lo, hi)

        # Fully covering parentheses: strip and re-refine the interior, but
        # keep the original token slice on the node.
        if first.text == "(" and self.same[lo] == hi - 1:
            inner = refine(lo + 1, hi - 1, depth, anchor)
            inner.tokens = tokens  # a node just built: nothing else holds it
            if isinstance(inner, Wildcard):
                inner.span = self._span(lo, hi, anchor)
            return inner

        return Wildcard(tokens, self._span(lo, hi, anchor))

    def _path(self, lo: int, hi: int) -> Expr:
        toks = self.toks[lo:hi]
        if len(toks) == 1:
            return Atom(toks[0], toks)
        steps = tuple((toks[i].text, toks[i + 1]) for i in range(1, len(toks), 2))
        return AccessPath(toks[0], steps, toks)


def parse_expression(wildcard: Expr, profile: LanguageProfile) -> Expr:
    """Refine a wildcard into a recognized shape; never fails.

    Already-refined expressions and empty wildcards pass through untouched,
    and a wildcard no rule matches is returned unchanged.
    """
    if not isinstance(wildcard, Wildcard) or not wildcard.tokens:
        return wildcard
    tokens = tuple(wildcard.tokens)
    return _Parser(tokens, profile)._refine(0, len(tokens), 0, tokens[0].offset)


# ---------------------------------------------------------------------------
# Whole-stream parse
# ---------------------------------------------------------------------------


def parse_statements(
    stream: TokenStream | Sequence[Token], profile: LanguageProfile
) -> list[Stmt]:
    tokens = tuple(stream.tokens if isinstance(stream, TokenStream) else stream)
    return _Parser(tokens, profile).parse(0, len(tokens), 0)

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
        return ("AccessPath", *e.path())
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


def stmt_key(s: Stmt) -> Key:
    """``(class name, *part keys)``; a body keys as ``("Body", ...)`` and an
    empty slot as ``("None",)``, so no two distinct shapes share a key."""
    key: list = [type(s).__name__]
    for role, part in s.parts():
        if role is BODY:
            key.append(("Body", *map(stmt_key, part)))
        else:
            key.append(expr_key(part) if part is not None else ("None",))
    return tuple(key)


# ---------------------------------------------------------------------------
# Tree walking and rendering helpers
# ---------------------------------------------------------------------------


def walk_statements(stmts: Iterable[Stmt]) -> Iterator[Stmt]:
    """Every statement in the tree, pre-order, source order: one step per
    node, off one stack that holds the statements still to visit, last first."""
    stack = list(stmts)[::-1]
    while stack:
        s = stack.pop()
        yield s
        for role, part in reversed(s.parts()):
            if role is BODY:
                stack += reversed(part)


def _texts(e: Expr | None) -> str:
    import json as _json

    if e is None:
        return "[]"
    return _json.dumps([t.text for t in e.tokens])


def dump_statements(stmts: Sequence[Stmt], indent: int = 0) -> str:
    """Indented tree rendering, one node per line.

    A node prints as ``Name @line:col`` plus the texts of its expression
    slots, then its bodies one level deeper; ``If`` heads each elif and
    else, and ``Switch`` each arm, with a line of its own.
    """
    lines: list[str] = []
    pad = "  " * indent

    def at(span: Extent) -> str:
        return f"@{span.start.line}:{span.start.column}"

    for s in stmts:
        if isinstance(s, If):
            lines.append(f"{pad}If {at(s.span)} {_texts(s.cond)}")
            lines.append(dump_statements(s.then_body, indent + 1))
            for c, b in s.elifs:
                lines.append(f"{pad}Elif {at(s.span)} {_texts(c)}")
                lines.append(dump_statements(b, indent + 1))
            if s.else_body is not None:
                lines.append(f"{pad}Else {at(s.span)}")
                lines.append(dump_statements(s.else_body, indent + 1))
        elif isinstance(s, Switch):
            lines.append(f"{pad}Switch {at(s.span)} {_texts(s.scrutinee)}")
            for arm in s.cases:
                head = "Default" if arm.label is None else f"Case {_texts(arm.label)}"
                lines.append(f"{pad}  {head} {at(arm.span)}")
                lines.append(dump_statements(arm.body, indent + 2))
        else:
            parts = s.parts()
            texts = "".join(f" {_texts(part)}" for role, part in parts if role is not BODY)
            lines.append(f"{pad}{type(s).__name__} {at(s.span)}{texts}")
            for role, part in parts:
                if role is BODY:
                    lines.append(dump_statements(part, indent + 1))
    return "\n".join(line for line in lines if line)
