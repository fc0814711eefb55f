"""Test-only oracle: the statement parser and expression refinement as
they were before the parser moved onto one bracket table per file.

The structural pass (``_Parser``), the refinement (``_refine``) and the
tree walk that refines every slot after the parse (``_refine_stmts``) are
kept here, with the helpers they call, so that
``test_parser_oracle`` can require the shipped parser to build the same
trees, spans and findings.  Node classes are shared with the shipped
module, so trees compare by ``repr``.

Every scan at bracket depth zero (statement ends, the ``for`` header, case
labels and their colons, refinement's operators and call arguments) steps
over a group with one step of its own, :func:`_group_close`: a closer closes
only an opener of its own kind, and ``( )`` and ``{ }`` are brackets in
every profile.  The step counts tokens; it does not read the shipped
parser's bracket table.

It builds its spans from positions and stores each as the shipped parser's
``Extent`` of the two offsets (see ``Span`` below), so that the shipped
checkers, which read offsets, run on its trees too.  It places an empty
wildcard by steps of its own, not by the shipped ``_extent``: on entry it
indexes the file's tokens by offset; an empty condition sits at its ``(``, an
empty ``case`` label at its ``case``, and an empty statement run at the token
before its terminator; refinement passes each slice the token before it,
which a left part inherits from its parent and any other part takes from the
operator, ``(``, ``,`` or ``!`` in front of it.  Its ``incomplete`` marks are
``or``-ed over a statement's parts, so the oracle checks the shipped parser's
reading of them off the last part.

The reference also keeps the syntax-token ledger (``ParseAccounting``)
that the shipped parser does without: with it the tests check that every
input token lands in exactly one tree node or in the ledger.
"""

from __future__ import annotations

import functools
from typing import Sequence

from xcheck.lexer import Position, Token, TokenKind, TokenStream, position
from xcheck.microgrammar import (
    MAX_EXPR_DEPTH,
    MAX_NESTING,
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
    Stmt,
    Switch,
    Update,
    While,
    Wildcard,
    WildcardStmt,
)
from xcheck.profiles import LanguageProfile

_COMPARE_OPS = frozenset({"<", "<=", ">", ">=", "==", "!="})
_UNARY_UPDATE_OPS = frozenset({"++", "--"})
_BINARY_UPDATE_OPS = frozenset({"+=", "-="})
_STARTERS = frozenset({"if", "while", "do", "for", "switch"})


# The source of the token list being parsed, its tokens and each token's
# index by offset, set on entry.
_source = ""
_tokens: Sequence[Token] = ()
_index: dict[int, int] = {}


def token_end(tok: Token) -> Position:
    """Position one past the last character of ``tok``."""
    return position(tok.source, tok.offset + len(tok.text))


def Span(start: Position, end: Position) -> Extent:
    return Extent(start.offset, end.offset, _source)


def _token_before(tok: Token) -> Token:
    """The file's token before ``tok``; the first token has none, and stands
    for itself."""
    k = _index[tok.offset]
    return _tokens[k - 1] if k else tok


def _span_of(tokens: Sequence[Token], fallback: Position | None = None) -> Extent:
    if tokens:
        return Span(tokens[0].pos, token_end(tokens[-1]))
    pos = fallback or Position(1, 1, 0)
    return Span(pos, pos)


class _StructuralMismatch(Exception):
    """A statement shape did not pan out; the scanner slides one token."""


class ParseAccounting:
    """Bookkeeping for the totality/conservation properties.

    ``syntax_tokens`` holds every consumed token that does not live inside
    a tree node: statement keywords, brackets, terminators, case colons,
    and tokens skipped over by sliding-window recovery.
    """

    __slots__ = ("syntax_tokens", "iterations")

    def __init__(self) -> None:
        self.syntax_tokens: list[Token] = []
        self.iterations = 0


class _Parser:
    def __init__(
        self,
        tokens: Sequence[Token],
        profile: LanguageProfile,
        acct: ParseAccounting,
        nesting: int = 0,
    ):
        self.toks = tokens
        self.profile = profile
        self.acct = acct
        self.nesting = nesting
        self.i = 0
        self.last: Token | None = None

    # -- primitives ---------------------------------------------------------

    def _at_end(self) -> bool:
        return self.i >= len(self.toks)

    def _peek(self, ahead: int = 0) -> Token | None:
        j = self.i + ahead
        return self.toks[j] if j < len(self.toks) else None

    def _take(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        self.last = tok
        return tok

    def _take_syntax(self) -> Token:
        tok = self._take()
        self.acct.syntax_tokens.append(tok)
        return tok

    def _end_pos(self) -> Position:
        return token_end(self.last) if self.last is not None else Position(1, 1, 0)

    def _is_kw(self, tok: Token | None, text: str) -> bool:
        return tok is not None and tok.kind is TokenKind.KEYWORD and tok.text == text

    # -- entry point ----------------------------------------------------------

    def parse(self) -> list[Stmt]:
        out: list[Stmt] = []
        while not self._at_end():
            self.acct.iterations += 1
            start = self.i
            mark = len(self.acct.syntax_tokens)
            try:
                stmt = self._statement(self.nesting)
            except _StructuralMismatch:
                # Sliding window: emit nothing, advance one token, retry.
                # Everything the failed attempt consumed is handed back.
                del self.acct.syntax_tokens[mark:]
                self.i = start
                self.acct.syntax_tokens.append(self._take())
                continue
            out.append(stmt)
            if self.i == start:  # defensive: progress must always hold
                self.acct.syntax_tokens.append(self._take())
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
        start_tok = self._peek()
        assert start_tok is not None and start_tok.text != "{"
        term = self.profile.stmt_terminator
        collected: list[Token] = []
        terminator: Token | None = None
        incomplete = False
        while True:
            tok = self._peek()
            if tok is None:
                incomplete = True
                break
            if tok.text == term:
                terminator = self._take_syntax()
                break
            if tok.text == "{":
                break
            # the token, and the whole group it opens
            end = min(_group_close(self.toks, self.i, self.profile), len(self.toks) - 1)
            while self.i <= end:
                collected.append(self._take())
        if collected:
            wild = Wildcard(tuple(collected), _span_of(collected))
        else:  # only a terminator: the empty run sits at the token before it
            assert terminator is not None
            wild = Wildcard((), _span_of((), _token_before(terminator).pos))
        end = token_end(terminator) if terminator is not None else self._end_pos()
        span = Span(collected[0].pos if collected else terminator.pos, end)
        return WildcardStmt(wild, span, incomplete=incomplete)

    def _balanced(self, open_text: str, close_text: str) -> tuple[tuple[Token, ...], bool, Token]:
        open_tok = self._peek()
        if open_tok is None or open_tok.text != open_text:
            raise _StructuralMismatch(f"expected {open_text!r}")
        self._take_syntax()
        collected: list[Token] = []
        depth = 1
        while not self._at_end():
            tok = self._peek()
            assert tok is not None
            if tok.text == open_text:
                depth += 1
            elif tok.text == close_text:
                depth -= 1
                if depth == 0:
                    self._take_syntax()
                    return tuple(collected), True, open_tok
            self._take()
            collected.append(tok)
        return tuple(collected), False, open_tok

    def _cond(self) -> tuple[Wildcard, bool]:
        interior, ok, open_tok = self._balanced("(", ")")
        return Wildcard(interior, _span_of(interior, open_tok.pos)), ok

    def _subparse(self, tokens: Sequence[Token], depth: int) -> list[Stmt]:
        if depth >= MAX_NESTING:
            if not tokens:
                return []
            wild = Wildcard(tuple(tokens), _span_of(tokens))
            return [WildcardStmt(wild, _span_of(tokens))]
        sub = _Parser(tokens, self.profile, self.acct, nesting=depth)
        return sub.parse()

    def _block(self, depth: int) -> Block:
        interior, ok, open_tok = self._balanced("{", "}")
        body = self._subparse(interior, depth + 1)
        return Block(body, Span(open_tok.pos, self._end_pos()), incomplete=not ok)

    def _body(self, depth: int) -> tuple[list[Stmt], bool]:
        """Either a braced statement list or exactly one statement."""
        tok = self._peek()
        if tok is None:
            return [], True
        if tok.text == "{":
            interior, ok, _ = self._balanced("{", "}")
            return self._subparse(interior, depth + 1), not ok
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
        header, ok, open_tok = self._balanced("(", ")")
        header_span = Span(open_tok.pos, self._end_pos())
        init, cond, update = self._split_for_header(header, open_tok.pos)
        body, inc = self._body(depth)
        return For(init, cond, update, body, header_span, Span(for_tok.pos, self._end_pos()), not ok or inc)

    def _split_for_header(
        self, header: tuple[Token, ...], anchor: Position
    ) -> tuple[Expr | None, Expr | None, Expr | None]:
        """Split on depth-zero ";" into init/cond/update.

        Anything other than exactly two semicolons (range-for, for-each,
        malformed headers) degrades to a single wildcard condition.
        """
        semis: list[int] = []
        idx = 0
        while idx < len(header):
            if header[idx].text == self.profile.stmt_terminator:
                semis.append(idx)
            idx = _group_close(header, idx, self.profile) + 1
        if len(semis) != 2:
            if not header:
                return None, None, None
            return None, Wildcard(header, _span_of(header, anchor)), None
        a, b = semis
        self.acct.syntax_tokens.extend((header[a], header[b]))
        parts = (header[:a], header[a + 1 : b], header[b + 1 :])
        exprs = tuple(
            Wildcard(part, _span_of(part, anchor)) if part else None for part in parts
        )
        return exprs[0], exprs[1], exprs[2]

    def _switch(self, depth: int) -> Switch:
        sw_tok = self._take_syntax()
        scrutinee, ok = self._cond()
        if self._peek() is None or self._peek().text != "{":
            raise _StructuralMismatch("switch without a braced body")
        interior, ok2, _ = self._balanced("{", "}")
        cases = self._split_cases(interior, depth)
        return Switch(scrutinee, cases, Span(sw_tok.pos, self._end_pos()), not ok or not ok2)

    def _split_cases(self, interior: tuple[Token, ...], depth: int) -> list[CaseArm]:
        """Cut the switch body into case/default arms at depth zero.

        An arm's body runs until the next depth-zero ``case``/``default``
        or the end of the body; tokens before the first label make the
        whole switch structurally unparseable (sliding window takes over).
        """
        if not interior:
            return []
        first = interior[0]
        if not (first.kind is TokenKind.KEYWORD and first.text in ("case", "default")):
            raise _StructuralMismatch("switch body does not start with a label")

        # Pre-compute depth-zero label positions.
        boundaries: list[int] = []
        idx = 0
        while idx < len(interior):
            tok = interior[idx]
            if tok.kind is TokenKind.KEYWORD and tok.text in ("case", "default"):
                boundaries.append(idx)
            idx = _group_close(interior, idx, self.profile) + 1
        boundaries.append(len(interior))

        arms: list[CaseArm] = []
        for b_idx in range(len(boundaries) - 1):
            start, stop = boundaries[b_idx], boundaries[b_idx + 1]
            label_tok = interior[start]
            self.acct.syntax_tokens.append(label_tok)
            cur = start + 1
            # label tokens run to the first depth-zero ":"
            label_toks: list[Token] = []
            colon = None
            while cur < stop:
                tok = interior[cur]
                if tok.text == ":":
                    colon = tok
                    cur += 1
                    break
                end = min(_group_close(interior, cur, self.profile) + 1, stop)
                label_toks.extend(interior[cur:end])
                cur = end
            if colon is not None:
                self.acct.syntax_tokens.append(colon)
            body_toks = interior[cur:stop]
            body = self._subparse(body_toks, depth + 1)
            label: Expr | None
            if label_tok.text == "default":
                label = None
                # stray tokens between `default` and ":" go into the body
                if label_toks:
                    wild = Wildcard(tuple(label_toks), _span_of(label_toks, label_tok.pos))
                    body.insert(0, WildcardStmt(wild, wild.span))
            else:
                label = Wildcard(tuple(label_toks), _span_of(label_toks, label_tok.pos))
            last = interior[stop - 1] if stop > start else label_tok
            arms.append(CaseArm(label, body, Span(label_tok.pos, token_end(last))))
        return arms


@functools.lru_cache(maxsize=None)
def _kinds(profile: LanguageProfile) -> dict[str, str]:
    """Each bracket opener and its closer: the profile's pairs, and the
    ``( )`` and ``{ }`` that the grammar spells out."""
    return {**dict(profile.open_close_pairs), "(": ")", "{": "}"}


def _group_close(tokens: Sequence[Token], idx: int, profile: LanguageProfile) -> int:
    """Index of the closer that closes the opener ``tokens[idx]``, counting
    that opener's kind only; ``len(tokens)`` when none does, and ``idx``
    itself when the token opens no group.  Every scan at depth zero steps
    over a group with this."""
    open_text = tokens[idx].text
    close_text = _kinds(profile).get(open_text)
    if close_text is None:
        return idx
    depth = 0
    for k in range(idx, len(tokens)):
        text = tokens[k].text
        if text == open_text:
            depth += 1
        elif text == close_text:
            depth -= 1
            if depth == 0:
                return k
    return len(tokens)


def _depth_zero(tokens: Sequence[Token], profile: LanguageProfile) -> list[int]:
    """The indices at bracket depth zero, in order: a group's opener and its
    closer are, its interior is not.  The walk steps from an opener to its
    closer and looks at the closer too."""
    out: list[int] = []
    idx = 0
    while idx < len(tokens):
        out.append(idx)
        close = _group_close(tokens, idx, profile)
        idx = close if close > idx else idx + 1
    return out


def _path_prefix_len(tokens: Sequence[Token], profile: LanguageProfile) -> int:
    """Length of the maximal ``ident (deref_op ident)*`` prefix (0 if none)."""
    if not tokens or tokens[0].kind is not TokenKind.IDENTIFIER:
        return 0
    k = 1
    while (
        k + 1 < len(tokens)
        and tokens[k].kind is TokenKind.OPERATOR
        and tokens[k].text in profile.deref_ops
        and tokens[k + 1].kind is TokenKind.IDENTIFIER
    ):
        k += 2
    return k


def _path_expr(tokens: Sequence[Token]) -> Expr:
    toks = tuple(tokens)
    if len(toks) == 1:
        return Atom(toks[0], toks)
    steps = tuple((toks[i].text, toks[i + 1]) for i in range(1, len(toks), 2))
    return AccessPath(toks[0], steps, toks)


def parse_expression(wildcard: Expr, profile: LanguageProfile) -> Expr:
    """Refine a wildcard into a recognized shape; never fails.

    Already-refined expressions and empty wildcards, which the structural
    pass placed, pass through untouched, and a wildcard no rule matches is
    returned unchanged.
    """
    if not isinstance(wildcard, Wildcard) or not wildcard.tokens:
        return wildcard
    return _refine(wildcard.tokens, profile, 0, _token_before(wildcard.tokens[0]))


def _refine(tokens: tuple[Token, ...], profile: LanguageProfile, depth: int, before: Token) -> Expr:
    """``before`` is the file's token before ``tokens``, where an empty part
    sits: a left part inherits its parent's, any other part takes the
    operator, ``(``, ``,`` or ``!`` in front of it."""
    span = _span_of(tokens, before.pos)
    if not tokens or depth > MAX_EXPR_DEPTH:
        return Wildcard(tokens, span)

    # Atom: any single token, an operator too.
    if len(tokens) == 1:
        return Atom(tokens[0], tokens)

    def sub(part: tuple[Token, ...], before: Token) -> Expr:
        return _refine(part, profile, depth + 1, before)

    top = [
        (idx, tokens[idx].text)
        for idx in _depth_zero(tokens, profile)
        if tokens[idx].kind is TokenKind.OPERATOR
    ]

    # Assign: first top-level bare "=" (right-associative chains nest in rhs).
    for idx, text in top:
        if text == "=":
            return Assign(sub(tokens[:idx], before), sub(tokens[idx + 1 :], tokens[idx]), tokens)

    # Logical: split at the last top-level "||", else the last "&&".
    for op in ("||", "&&"):
        hits = [idx for idx, text in top if text == op]
        if hits:
            idx = hits[-1]
            return Logical(op, sub(tokens[:idx], before), sub(tokens[idx + 1 :], tokens[idx]), tokens)

    # Compare: exactly one top-level comparison operator.  Two or more
    # (template/generic angle brackets, chained comparisons) stay wildcard.
    comparisons = [(idx, text) for idx, text in top if text in _COMPARE_OPS]
    if len(comparisons) == 1:
        idx, op = comparisons[0]
        return Compare(op, sub(tokens[:idx], before), sub(tokens[idx + 1 :], tokens[idx]), tokens)

    # Not: leading "!".
    if tokens[0].text == "!" and len(tokens) > 1:
        return Not(sub(tokens[1:], tokens[0]), tokens)

    # Update: one top-level "+=" / "-=", or a leading/trailing "++" / "--".
    bin_updates = [(idx, text) for idx, text in top if text in _BINARY_UPDATE_OPS]
    if len(bin_updates) == 1:
        idx, op = bin_updates[0]
        return Update(op, sub(tokens[:idx], before), tokens, value=sub(tokens[idx + 1 :], tokens[idx]))
    if len(tokens) >= 2 and tokens[-1].text in _UNARY_UPDATE_OPS:
        return Update(tokens[-1].text, sub(tokens[:-1], before), tokens)
    if len(tokens) >= 2 and tokens[0].text in _UNARY_UPDATE_OPS:
        return Update(tokens[0].text, sub(tokens[1:], tokens[0]), tokens, prefix=True)

    # Call: access path (or bare identifier) + balanced "(...)" covering
    # the remainder; arguments split on depth-zero commas.
    k = _path_prefix_len(tokens, profile)
    if 1 <= k < len(tokens) and tokens[k].text == "(" and _group_close(tokens, k, profile) == len(tokens) - 1:
        interior = tokens[k + 1 : -1]
        args: list[Expr] = []
        if interior:
            start, sep = 0, tokens[k]  # each argument after its "(" or ","
            for idx in _depth_zero(interior, profile):
                if interior[idx].text == ",":
                    args.append(sub(interior[start:idx], sep))
                    start, sep = idx + 1, interior[idx]
            args.append(sub(interior[start:], sep))
        callee = _path_expr(tokens[:k])
        return Call(callee, tuple(args), tokens)

    # AccessPath: the whole run is ident (deref_op ident)+ exactly.
    if k == len(tokens) and k >= 3:
        return _path_expr(tokens)

    # Fully covering parentheses: strip and re-refine the interior, but
    # keep the original token slice on the node.
    if tokens[0].text == "(" and _group_close(tokens, 0, profile) == len(tokens) - 1:
        inner = sub(tokens[1:-1], tokens[0])
        inner.tokens = tokens  # a node just built: nothing else holds it
        if isinstance(inner, Wildcard):
            inner.span = span
        return inner

    return Wildcard(tokens, span)


def reference_parse_statements_debug(
    stream: TokenStream | Sequence[Token], profile: LanguageProfile
) -> tuple[list[Stmt], ParseAccounting]:
    """The old ``parse_statements_debug``: structural pass, then refinement."""
    global _source, _tokens, _index
    tokens = stream.tokens if isinstance(stream, TokenStream) else list(stream)
    _source = tokens[0].source if tokens else ""
    _tokens, _index = tokens, {tok.offset: k for k, tok in enumerate(tokens)}
    acct = ParseAccounting()
    stmts = _Parser(tokens, profile, acct).parse()
    _refine_stmts(stmts, profile)
    return stmts, acct


def _refine_stmts(stmts: list[Stmt], profile: LanguageProfile) -> None:
    for s in stmts:
        if isinstance(s, WildcardStmt):
            s.expr = parse_expression(s.expr, profile)
        elif isinstance(s, Block):
            _refine_stmts(s.body, profile)
        elif isinstance(s, If):
            s.cond = parse_expression(s.cond, profile)
            _refine_stmts(s.then_body, profile)
            s.elifs = [
                (parse_expression(c, profile), b) for c, b in s.elifs
            ]
            for _, b in s.elifs:
                _refine_stmts(b, profile)
            if s.else_body is not None:
                _refine_stmts(s.else_body, profile)
        elif isinstance(s, While):
            s.cond = parse_expression(s.cond, profile)
            _refine_stmts(s.body, profile)
        elif isinstance(s, DoWhile):
            s.cond = parse_expression(s.cond, profile)
            _refine_stmts(s.body, profile)
        elif isinstance(s, For):
            if s.init is not None:
                s.init = parse_expression(s.init, profile)
            if s.cond is not None:
                s.cond = parse_expression(s.cond, profile)
            if s.update is not None:
                s.update = parse_expression(s.update, profile)
            _refine_stmts(s.body, profile)
        elif isinstance(s, Switch):
            s.scrutinee = parse_expression(s.scrutinee, profile)
            for arm in s.cases:
                if arm.label is not None:
                    arm.label = parse_expression(arm.label, profile)
                _refine_stmts(arm.body, profile)

