"""Deliberately incomplete parser: control-flow statements only.

Parsing happens in two steps, interleaved.  Step one scans the token
stream left to right and builds statement trees for ``if``/``while``/
``do``/``for``/``switch``/braced blocks; every expression slot and every
unrecognized token run is cut out as an uninterpreted *wildcard* (an
ordered token list).  When a structural parse fails partway, the scanner
recovers by advancing exactly one token and retrying, so no input can
make it abort.  The scanner moves through a range with four primitives
(``_peek``, ``_accept``, ``_balanced`` and ``_find``), and the nesting cap
on a range lives in ``parse``: a range nested ``MAX_NESTING`` deep is one
wildcard statement.

Step two runs on each slot as soon as it is cut: a total expression
parser that recognizes just the shapes the checkers need (comparisons,
logical combinations, updates, assignments, calls, access paths) and
leaves the wildcard unchanged when nothing matches.  A one-token slot is
its ``Atom``, whatever the token: a lone ``==`` too.

Both steps find brackets in one table built per token list in a single
pass (:func:`_bracket_table`) and work on index ranges of that list.  Its
one rule: a closer closes only the last open bracket of its own kind, and
``( )`` and ``{ }`` are brackets in every profile.  Every cut at bracket
depth zero (statement ends, ``for`` header semicolons, switch labels and
colons, call arguments) goes through one search that steps over whole
bracket groups, :meth:`_Parser._find`.  Refinement's operator scan is the
one exception: it must also look at each group's closer, which can be an
operator too (``pairs = ( ) < >`` makes ``>`` close ``<``, and ``>`` is
still a comparison).  It runs once per bracket level: a cut at a depth-zero
operator never cuts a bracket group, so the long side of a split (a
``Logical`` lhs, a ``Not`` operand, an ``++``/``--`` target) inherits its
parent's operator lists, trimmed.

Every expression node records the tokens it covers as a range ``[lo, hi)``
of the file's token tuple, which the whole tree shares: refinement never
copies a slice, so a node's size does not depend on what it covers.  A
refined node is never empty; a wildcard may be empty, so it stores its span.
One function, :func:`_extent`, builds every extent from token indices: a
range runs from its first token's start to its last token's end, and an
empty range sits at the token before it (the ``(`` of ``if ()``, the ``=`` of
``x = ;``), or at the first token when nothing comes before it.  Statement
extents include their keywords and brackets.  Spans are offsets, resolved
only when read (:class:`Extent`).  Structural equality and ordering ignore
positions.  A statement is incomplete when its last part is.

Each class declares its fields once, in ``__slots__`` (an expression class
in ``_fields``, as its ``tokens`` is stored as the range), from which it gets
its constructor, ``repr`` and ``==``.  Both node kinds declare their shape
once.  A statement class does so in ``parts()``: its expression slots and
bodies in source order, each tagged ``TEST`` (a condition whose truth picks
a path), ``SLOT`` (any other expression slot) or ``BODY`` (a statement
list).  An expression class does so in ``children()``: its sub-expressions
in source order.  Equality keys, the tree walk, the tree dump and the
checkers' event log all read these declarations.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, NamedTuple, Sequence

from .lexer import Position, Token, TokenStream, _IDENT, _KW, _OP, _new, position
from .profiles import LanguageProfile

# Beyond this nesting depth, block interiors and wildcard refinements stay
# unstructured.  Keeps the parser total on pathological inputs without
# leaning on the interpreter's recursion limit.
MAX_NESTING = 64
MAX_EXPR_DEPTH = 128

_COMPARE_OPS = frozenset({"<", "<=", ">", ">=", "==", "!="})
_UNARY_UPDATE_OPS = frozenset({"++", "--"})
_BINARY_UPDATE_OPS = frozenset({"+=", "-="})
_LABELS = ("case", "default")


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
        """Both positions."""
        return _new(Span, (self.start, self.end))

    def __repr__(self) -> str:
        return repr(self.resolve())


def _extent(toks: Sequence[Token], lo: int, hi: int) -> Extent:
    """The extent of ``toks[lo:hi]``, the one rule for every node: a range runs
    from its first token's start to its last token's end; an empty range sits
    at the token before it, or at the first token when nothing comes before it."""
    if hi > lo:
        first, last = toks[lo], toks[hi - 1]
        return _new(Extent, (first.offset, last.offset + len(last.text), first.source))
    at = toks[lo - 1 if lo else 0]
    return _new(Extent, (at.offset, at.offset, at.source))


class _Slotted:
    """Value behaviour for the tree nodes only (``Expr``, ``Stmt`` and
    ``CaseArm``), read from ``_fields``, which names each class's fields in
    constructor order: its ``__slots__``, unless the class declares
    ``_fields`` itself because it stores a field in other slots.

    A subclass with fields gets a constructor taking them in that order,
    trailing ones defaulting as ``_defaults`` says; like ``namedtuple``'s, its
    source is compiled once per class (by ``_define_init``, which such a
    subclass extends), so building runs one assignment per field.

    They print as ``Name(field=value, ...)`` and equal only an object of
    the same class with equal fields, so they are not hashable.  They are
    plain slotted classes because ``dataclasses`` is slow to import and to
    apply, and the CLI pays both on every run.
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]
    _defaults: dict[str, object] = {}
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = names = cls.__dict__.get("_fields", cls.__slots__)
        if not names:
            return
        params = "".join(f", {n}=_defaults[{n!r}]" if n in cls._defaults else f", {n}" for n in names)
        cls._define_init(params, "".join(f"\n    self.{n} = {n}" for n in names))

    @classmethod
    def _define_init(cls, params: str, body: str) -> None:
        scope = {"_defaults": cls._defaults, "__name__": cls.__module__}
        exec(f"def __init__(self{params}):{body}", scope)
        cls.__init__ = scope["__init__"]  # type: ignore[misc]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self._fields
        return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------


class Expr(_Slotted):
    """Base class for expression tree nodes.

    The field ``tokens`` is stored as ``toks[lo:hi]``, the node's range of
    the file's token tuple; a subclass's other fields are its ``__slots__``,
    and its fields are those, then ``tokens``, unless it says otherwise in
    ``_fields``.  The constructor takes ``lo`` and ``hi`` after the fields,
    by default the whole of ``tokens``, and assigning ``tokens`` stores the
    whole sequence given.
    """

    __slots__ = ("toks", "lo", "hi")
    _fields = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__dict__.get("_fields", (*cls.__slots__, "tokens"))
        super().__init_subclass__()

    @classmethod
    def _define_init(cls, params: str, body: str) -> None:
        store = "self.toks, self.lo, self.hi = tokens, lo, len(tokens) if hi is None else hi"
        super()._define_init(params + ", lo=0, hi=None", body.replace("self.tokens = tokens", store))

    @property
    def tokens(self) -> tuple[Token, ...]:
        return self.toks[self.lo : self.hi]

    @tokens.setter
    def tokens(self, tokens: Sequence[Token]) -> None:
        self.toks, self.lo, self.hi = tokens, 0, len(tokens)

    @property
    def span(self) -> Extent:
        """The extent of ``tokens`` (see :func:`_extent`)."""
        return _extent(self.toks, self.lo, self.hi)

    def children(self) -> Sequence[Expr]:
        """The node's sub-expressions in source order (none for a leaf);
        every walk over an expression reads this."""
        return ()


class Wildcard(Expr):
    """An uninterpreted, ordered run of tokens; it may be empty, so its span is stored."""

    __slots__ = ("span",)
    _fields = ("tokens", "span")


class Compare(Expr):
    __slots__ = ("op", "lhs", "rhs")  # op: < <= > >= == !=

    def children(self) -> Sequence[Expr]:
        return (self.lhs, self.rhs)


class Logical(Expr):
    __slots__ = ("op", "lhs", "rhs")  # op: && ||

    def children(self) -> Sequence[Expr]:
        return (self.lhs, self.rhs)


class Not(Expr):
    __slots__ = ("operand",)

    def children(self) -> Sequence[Expr]:
        return (self.operand,)


class Update(Expr):
    # op: ++ -- += -=; value is the right side of += / -=; prefix marks ++x and --x
    __slots__ = ("op", "target", "value", "prefix")
    _fields = ("op", "target", "tokens", "value", "prefix")
    _defaults = {"value": None, "prefix": False}

    def children(self) -> Sequence[Expr]:
        return (self.target,) if self.value is None else (self.target, self.value)


class Assign(Expr):
    __slots__ = ("lhs", "rhs")

    def children(self) -> Sequence[Expr]:
        return (self.lhs, self.rhs)


class Call(Expr):
    __slots__ = ("callee", "args")

    def children(self) -> Sequence[Expr]:
        return (self.callee, *self.args)


class AccessPath(Expr):
    """identifier (deref_op identifier)+ — e.g. ``state->work``."""

    __slots__ = ("root", "steps")

    def path(self) -> tuple[str, ...]:
        """The flattened access chain: ``("state", "->", "work")``."""
        flat = [self.root.text]
        for op, ident in self.steps:
            flat += op, ident.text
        return tuple(flat)


class Atom(Expr):
    __slots__ = ("token",)


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


def _bracket_table(tokens: Sequence[Token], profile: LanguageProfile) -> list[int]:
    """The bracket-match column of a token tuple, in one pass.

    Each opener of ``profile.open_close_pairs``, and ``(`` and ``{``, maps to
    the first later closer of its own kind that closes it, counting that kind
    only, or to ``len(tokens)`` when none does; every other index maps to
    itself.  A match depends only on the tokens after its opener, so one table
    serves every index range ``[lo, hi)``: a match at or past ``hi`` means the
    opener is unclosed there.
    """
    n = len(tokens)
    match = list(range(n))
    kinds = {**dict(profile.open_close_pairs), "(": ")", "{": "}"}
    pending: dict[str, list[int]] = {o: [] for o in kinds}  # each kind's unclosed openers
    # a closer pops each kind it closes; a token never closes its own kind
    closed_by = {c: [pending[o] for o in kinds if kinds[o] == c != o] for c in kinds.values()}
    brackets = pending.keys() | closed_by.keys()
    for i, tok in enumerate(tokens):
        text = tok.text
        if text in brackets:
            for stack in closed_by.get(text, ()):
                if stack:
                    match[stack.pop()] = i
            if text in pending:
                pending[text].append(i)
                match[i] = n  # until a closer of its kind comes
    return match


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
    token of the range being parsed and ``hi`` its end.  Four primitives
    move through a range: :meth:`_peek` looks at the cursor's token,
    :meth:`_accept` steps over it if it is the one asked for,
    :meth:`_balanced` steps over a bracket group and :meth:`_find` searches
    at bracket depth zero.  :meth:`parse` alone caps a range's nesting.
    """

    def __init__(self, tokens: tuple[Token, ...], profile: LanguageProfile):
        self.toks = tokens
        self.match = _bracket_table(tokens, profile)
        self.profile = profile
        self.i = 0
        self.hi = len(tokens)

    # -- primitives ---------------------------------------------------------

    def _peek(self) -> Token | None:
        return self.toks[self.i] if self.i < self.hi else None

    def _accept(self, text: str, kind: str | None = None) -> bool:
        """Step over the cursor's token if its text is ``text`` and, when
        ``kind`` is given, its kind is ``kind``; say whether it did."""
        i = self.i
        if i < self.hi and self.toks[i].text == text and (kind is None or self.toks[i].kind is kind):
            self.i = i + 1
            return True
        return False

    def _balanced(self, open_text: str) -> tuple[int, int, bool]:
        """Consume a ``(...)`` or ``{...}`` group at the cursor.

        Returns the interior range ``[lo, hi)`` and whether the group closed
        before the end of the current range; the opener is ``toks[lo - 1]``.
        """
        if not self._accept(open_text):
            raise _StructuralMismatch(f"expected {open_text!r}")
        lo, close = self.i, self.match[self.i - 1]
        if close < self.hi:
            self.i = close + 1
            return lo, close, True
        self.i = self.hi
        return lo, self.hi, False

    def _find(self, lo: int, hi: int, texts: Sequence[str]) -> int:
        """The first index of ``[lo, hi)`` at bracket depth zero whose text
        is in ``texts``, else ``hi``; an opener is looked at, then its whole
        group is stepped over."""
        toks, match, k = self.toks, self.match, lo
        while k < hi and toks[k].text not in texts:
            k = match[k] + 1
        return k if k < hi else hi

    # -- entry point ----------------------------------------------------------

    def parse(self, lo: int, hi: int, nesting: int) -> list[Stmt]:
        """The statements of ``toks[lo:hi]``; the caller's range is restored.
        At ``MAX_NESTING`` and deeper the range is one wildcard statement,
        or none when it is empty."""
        if nesting >= MAX_NESTING:
            return [WildcardStmt(self._refine(lo, hi, 0), _extent(self.toks, lo, hi))] if hi > lo else []
        outer = self.i, self.hi
        self.i, self.hi = lo, hi
        out: list[Stmt] = []
        while self.i < hi:
            start = self.i
            try:
                out.append(self._statement(nesting))
            except _StructuralMismatch:
                # Sliding window: emit nothing, advance one token, retry.
                self.i = start + 1
        self.i, self.hi = outer
        return out

    # -- statement forms ------------------------------------------------------

    def _statement(self, depth: int) -> Stmt:
        """The statement at the cursor, which is a token of the range; a
        form gets the index of its keyword, already stepped over."""
        start = self.i
        tok = self.toks[start]
        if tok.text == "{":
            lo, body, ok = self._block(depth)
            return Block(body, _extent(self.toks, lo - 1, self.i), incomplete=not ok)
        form = self._FORMS.get(tok.text) if tok.kind is _KW and depth < MAX_NESTING else None
        if form is None:
            return self._wildcard_stmt()
        self.i += 1
        return form(self, start, depth)

    def _wildcard_stmt(self) -> WildcardStmt:
        """Token run up to the statement terminator at depth zero.

        Stops (without consuming) before a depth-zero "{" so a following
        brace region is recognized as a block; an input that ends first
        yields the run flagged as incomplete.
        """
        lo, term = self.i, self.profile.stmt_terminator
        self.i = stop = self._find(lo, self.hi, (term, "{"))
        self._accept(term)
        return WildcardStmt(self._refine(lo, stop, 0), _extent(self.toks, lo, self.i), stop == self.hi)

    def _cond(self) -> Expr:
        lo, hi, _ = self._balanced("(")
        return self._refine(lo, hi, 0)

    def _block(self, depth: int) -> tuple[int, list[Stmt], bool]:
        """The braced body at the cursor, the one reader of one: its interior's start
        (its ``{`` is ``toks[lo - 1]``), its statements and whether its ``{`` closed."""
        lo, hi, ok = self._balanced("{")
        return lo, self.parse(lo, hi, depth + 1), ok

    def _body(self, depth: int) -> tuple[list[Stmt], bool]:
        """Either a braced statement list or exactly one statement, and whether
        it is incomplete: missing, or its ``{`` unclosed.  A statement is
        incomplete when its last part is: an unclosed group leaves the cursor at
        the end of the range, so every body after it is missing, and an ``if``,
        ``while`` or ``for`` reads its last body's flag, a ``do`` its condition's
        ``(`` and a ``switch`` its ``{``."""
        tok = self._peek()
        if tok is None:
            return [], True
        if tok.text == "{":
            _, body, ok = self._block(depth)
            return body, not ok
        return [self._statement(depth + 1)], False

    def _if(self, start: int, depth: int) -> If:
        cond = self._cond()
        then_body, incomplete = self._body(depth)
        elifs: list[tuple[Expr, list[Stmt]]] = []
        else_body: list[Stmt] | None = None
        while self._accept("else", _KW):
            if self._accept("if", _KW):
                c2 = self._cond()
                b2, incomplete = self._body(depth)
                elifs.append((c2, b2))
            else:
                else_body, incomplete = self._body(depth)
                break
        return If(cond, then_body, elifs, else_body, _extent(self.toks, start, self.i), incomplete)

    def _while(self, start: int, depth: int) -> While:
        cond = self._cond()
        body, incomplete = self._body(depth)
        return While(cond, body, _extent(self.toks, start, self.i), incomplete)

    def _do_while(self, start: int, depth: int) -> DoWhile:
        body, _ = self._body(depth)
        if not self._accept("while", _KW):
            raise _StructuralMismatch("do-body not followed by while")
        lo, hi, ok = self._balanced("(")
        cond = self._refine(lo, hi, 0)
        self._accept(self.profile.stmt_terminator)
        return DoWhile(body, cond, _extent(self.toks, start, self.i), not ok)

    def _for(self, start: int, depth: int) -> For:
        lo, hi, _ = self._balanced("(")
        header_span = _extent(self.toks, lo - 1, self.i)
        init, cond, update = self._split_for_header(lo, hi)
        body, incomplete = self._body(depth)
        return For(init, cond, update, body, header_span, _extent(self.toks, start, self.i), incomplete)

    def _split_for_header(self, lo: int, hi: int) -> tuple[Expr | None, Expr | None, Expr | None]:
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
            self._refine(x, y, 0) if y > x else None
            for x, y in ((lo, a), (a + 1, b), (b + 1, hi))
        )
        return init, cond, update

    def _switch(self, start: int, depth: int) -> Switch:
        scrutinee = self._cond()
        lo, hi, ok = self._balanced("{")
        cases = self._split_cases(lo, hi, depth)
        return Switch(scrutinee, cases, _extent(self.toks, start, self.i), not ok)

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
            # label tokens run to the first depth-zero ":"
            label_end = self._find(start + 1, stop, (":",))
            body = self.parse(min(label_end + 1, stop), stop, depth + 1)
            label: Expr | None
            if toks[start].text == "default":
                label = None
                # stray tokens between `default` and ":" go into the body
                if label_end > start + 1:
                    body.insert(0, WildcardStmt(self._refine(start + 1, label_end, 0), _extent(toks, start + 1, label_end)))
            else:
                label = self._refine(start + 1, label_end, 0)
            arms.append(CaseArm(label, body, _extent(toks, start, stop)))
        return arms

    _FORMS = {"if": _if, "while": _while, "do": _do_while, "for": _for, "switch": _switch}

    # -- expression refinement ------------------------------------------------

    def _refine(self, lo: int, hi: int, depth: int, ops: tuple | None = None) -> Expr:
        """Refine ``toks[lo:hi]`` into a recognized shape, else a wildcard; within
        the depth cap, a one-token range is its ``Atom``, an operator too.

        ``ops`` is the range's depth-zero ``||``, ``&&``, comparison and
        ``+=``/``-=`` indices (four lists in source order) when the caller's
        scan has them.
        """
        toks = self.toks
        if hi - lo == 1 and depth <= MAX_EXPR_DEPTH:  # Atom: any one token
            return Atom(toks[lo], toks, lo, hi)
        if lo == hi or depth > MAX_EXPR_DEPTH:
            return Wildcard(toks, _extent(toks, lo, hi), lo, hi)
        depth += 1
        refine = self._refine

        # Operators at bracket depth zero (the closer of a depth-zero group
        # is at depth zero too).  Assign: the first bare "=" wins outright;
        # right-associative chains nest in the rhs.
        match = self.match
        if ops is None:
            ops = ors, ands, comparisons, bin_updates = [], [], [], []
            k = lo
            while k < hi:
                tok = toks[k]
                if tok.kind is _OP:
                    text = tok.text
                    if text == "=":
                        return Assign(refine(lo, k, depth), refine(k + 1, hi, depth), toks, lo, hi)
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
            return Logical(op, refine(lo, idx, depth, ops), refine(idx + 1, hi, depth), toks, lo, hi)

        # Compare: exactly one top-level comparison operator.  Two or more
        # (template/generic angle brackets, chained comparisons) stay wildcard.
        if len(comparisons) == 1:
            idx = comparisons[0]
            op = toks[idx].text
            return Compare(op, refine(lo, idx, depth), refine(idx + 1, hi, depth), toks, lo, hi)

        # Not: leading "!".  Its operand, like a "++"/"--" target below, keeps
        # the lists unless a profile pairs the token cut off as an opener.
        first, last = toks[lo], toks[hi - 1]
        if first.text == "!":
            return Not(refine(lo + 1, hi, depth, ops if match[lo] == lo else None), toks, lo, hi)

        # Update: one top-level "+=" / "-=", or a leading/trailing "++" / "--".
        if len(bin_updates) == 1:
            idx = bin_updates[0]
            value = refine(idx + 1, hi, depth)
            return Update(toks[idx].text, refine(lo, idx, depth), toks, value, False, lo, hi)
        if last.text in _UNARY_UPDATE_OPS:
            return Update(last.text, refine(lo, hi - 1, depth, ops), toks, None, False, lo, hi)
        if first.text in _UNARY_UPDATE_OPS:
            target = refine(lo + 1, hi, depth, ops if match[lo] == lo else None)
            return Update(first.text, target, toks, None, True, lo, hi)

        # Call: access path (or bare identifier) + balanced "(...)" covering
        # the remainder; arguments split on depth-zero commas.
        k = path_end(toks, lo, hi, self.profile.deref_ops)
        if lo < k < hi and toks[k].text == "(" and match[k] == hi - 1:
            args: list[Expr] = []
            if k + 1 < hi - 1:  # "()" has no arguments
                cut = k  # the "(", then each depth-zero ","
                while cut < hi - 1:
                    j = self._find(cut + 1, hi - 1, (",",))
                    args.append(refine(cut + 1, j, depth))
                    cut = j
            return Call(self._path(lo, k), tuple(args), toks, lo, hi)

        # AccessPath: the whole run is ident (deref_op ident)+ exactly.
        if k == hi:
            return self._path(lo, hi)

        # Fully covering parentheses: strip and re-refine the interior, but
        # widen the node's range over the parentheses.
        if first.text == "(" and match[lo] == hi - 1:
            inner = refine(lo + 1, hi - 1, depth)
            inner.lo, inner.hi = lo, hi  # a node just built: nothing else holds it
            if isinstance(inner, Wildcard):
                inner.span = _extent(toks, lo, hi)
            return inner

        return Wildcard(toks, _extent(toks, lo, hi), lo, hi)

    def _path(self, lo: int, hi: int) -> Expr:
        toks = self.toks
        if hi - lo == 1:
            return Atom(toks[lo], toks, lo, hi)
        steps = tuple((toks[i].text, toks[i + 1]) for i in range(lo + 1, hi, 2))
        return AccessPath(toks[lo], steps, toks, lo, hi)


def parse_expression(wildcard: Expr, profile: LanguageProfile) -> Expr:
    """Refine a wildcard into a recognized shape; never fails.

    Already-refined expressions and empty wildcards pass through untouched,
    and a wildcard no rule matches is returned unchanged.
    """
    if not isinstance(wildcard, Wildcard) or not wildcard.tokens:
        return wildcard
    tokens = tuple(wildcard.tokens)
    return _Parser(tokens, profile)._refine(0, len(tokens), 0)


# ---------------------------------------------------------------------------
# Whole-stream parse
# ---------------------------------------------------------------------------


def parse_statements(
    stream: TokenStream | Sequence[Token], profile: LanguageProfile
) -> list[Stmt]:
    """The statements of a token stream, or of a sequence of tokens, in source
    order; never raises: what no form matches is a wildcard statement."""
    tokens = tuple(stream.tokens if isinstance(stream, TokenStream) else stream)
    return _Parser(tokens, profile).parse(0, len(tokens), 0)

# ---------------------------------------------------------------------------
# Structural equality and total ordering (positions ignored)
# ---------------------------------------------------------------------------

Key = tuple  # nested tuples of strings; lexicographically comparable


def expr_key(e: Expr) -> Key:
    """A leaf keys as its texts; any other node as ``(class name, op if the
    class has one, *child keys)``, a prefix update's op marked as such, so no
    two distinct shapes share a key."""
    if isinstance(e, Atom):
        return ("Atom", e.token.text)
    if isinstance(e, Wildcard):
        return ("Wildcard",) + tuple(t.text for t in e.tokens)
    if isinstance(e, AccessPath):
        return ("AccessPath", *e.path())
    key = [type(e).__name__, e.op] if hasattr(e, "op") else [type(e).__name__]
    if isinstance(e, Update) and e.prefix:  # ``++x`` reads another value than ``x++``
        key[1] = "prefix " + e.op
    key += map(expr_key, e.children())
    return tuple(key)


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
        for role, part in () if s.__class__ is WildcardStmt else reversed(s.parts()):  # it has no bodies
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
