"""The four analysis passes.

Each checker is named once: its row in :data:`CHECKERS`, under the id its
findings carry as ``Diagnostic.checker``.  A row names the statement class its
function inspects, and the function takes one such node, ``(node, profile,
path)``; :func:`run_checkers` hands every such node to every such function in
one tree walk.  A row naming ``None`` reads the whole tree in source order,
``(stmts, profile, path="<input>")``.  Every checker runs through
:func:`run_checkers`, which returns the findings in ``dedupe_and_sort``'s
order: ``check_loop_direction`` and the other two node checkers' whole-tree
names select their one id.  No checker consults token positions to make a
decision: it hands ``diagnostics.finding`` an extent and an offset.

The null-dereference checker works from a linear event log (dereferences,
null tests, assignments that invalidate tracked paths, scope resets)
extracted by :func:`iter_null_events`; the log is also the surface the test
suite's brute-force oracle consumes.  Building and reading the log test each
node's and event's exact class once (``x.__class__ is Cls``), so no node class
may have a subclass; the redundancy checkers build a span only for a finding.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .diagnostics import Diagnostic, dedupe_and_sort, finding
from .lexer import _IDENT
from .microgrammar import (
    BODY,
    TEST,
    AccessPath,
    Assign,
    Atom,
    Call,
    Compare,
    Expr,
    Extent,
    For,
    If,
    Logical,
    Not,
    Stmt,
    Switch,
    Update,
    Wildcard,
    WildcardStmt,
    Key,
    expr_key,
    path_end,
    stmt_key,
    walk_statements,
)
from .profiles import LanguageProfile


# ---------------------------------------------------------------------------
# Null-dereference event model
# ---------------------------------------------------------------------------

# A tracked path is the flattened access chain: ("state", "->", "work").
Path = tuple[str, ...]


class DerefEvent(NamedTuple):
    """The path numbered ``number`` under ``root`` dereferenced at source ``offset`` (immutable named tuple)."""

    root: str
    number: int
    offset: int


class NullTestEvent(NamedTuple):
    """A path, numbered ``number``, compared against null or used bare as a truth value (immutable named tuple)."""

    path: Path
    number: int
    span: Extent


class KillEvent(NamedTuple):
    """Assignment/update to a root: every path from it is invalidated (immutable named tuple)."""

    root: str
    offset: int


class ResetEvent(NamedTuple):
    """Tracking state cleared (top-level compound statement finished); immutable named tuple."""

    offset: int


NullEvent = DerefEvent | NullTestEvent | KillEvent | ResetEvent


def _path_of(e: Expr) -> Path | None:
    if e.__class__ is Atom:
        return (e.token.text,) if e.token.kind is _IDENT else None
    return e.path() if e.__class__ is AccessPath else None


def _numbers(path: Path, numbers: dict) -> list[int]:
    """The numbers of ``path``'s prefixes in one log, the root's first and the
    whole path's last: a root is numbered by its name, a longer path by (its
    parent's number, op, name), so no prefix is ever copied."""
    number = numbers.setdefault(path[0], len(numbers))
    out = [number]
    for k in range(1, len(path), 2):
        number = numbers.setdefault((number, path[k], path[k + 1]), len(numbers))
        out.append(number)
    return out


def _deref_events(path: Path, offset: int, out: list[NullEvent], numbers: dict, include_full: bool) -> None:
    """Append the paths a dereference of ``path`` proves non-null.

    Reading ``a->b->c`` proves every proper prefix (``a``, ``a->b``);
    calling through the path (``state->work(...)``) additionally proves
    the full callee path.
    """
    proven = _numbers(path, numbers)
    for number in proven if include_full else proven[:-1]:
        out.append(DerefEvent(path[0], number, offset))


def _wildcard_deref_events(w: Wildcard, profile: LanguageProfile, out: list[NullEvent], numbers: dict) -> None:
    """Scan raw wildcard tokens for access-path runs, in the wildcard's
    range of the file's token tuple.

    Refinement leaves most statement content uninterpreted (``x = p->q + 1``
    has no recognized shape), but a dereference buried in it still counts.
    """
    toks, i, n = w.toks, w.lo, w.hi
    deref_ops = profile.deref_ops
    while i < n:
        # only an identifier followed by a dereference operator can start a path
        if toks[i].kind is not _IDENT or i + 1 == n or toks[i + 1].text not in deref_ops:
            i += 1
            continue
        k = path_end(toks, i, n, deref_ops)
        if k - i >= 3:
            path = tuple(t.text for t in toks[i:k])
            _deref_events(path, toks[i].offset, out, numbers, k < n and toks[k].text == "(")
        i = k


def _null_test_path(e: Compare, profile: LanguageProfile) -> Path | None:
    """The tested path of ``p == null`` / ``null != p`` (either side)."""

    def is_null(side: Expr) -> bool:
        return isinstance(side, Atom) and side.token.text in profile.null_literals

    left_null, right_null = is_null(e.lhs), is_null(e.rhs)
    if left_null == right_null:
        return None
    return _path_of(e.rhs if left_null else e.lhs)


def _expr_events(e: Expr, profile: LanguageProfile, truth: bool, out: list[NullEvent], numbers: dict) -> None:
    """Append the events of one expression, depth-first, left to right.

    ``truth`` marks truth-value operand positions inside an If/While/For
    condition (the condition itself, operands of logical connectives and
    negation); only those positions produce bare null-test events.  A node's
    null test comes before its children's events and its kill after them; a
    callee is dereferenced whole and not walked.  A bare path (an identifier
    or an access path) in a truth position is a null test, unless it is one
    token that is a null literal; a longer path also proves its proper prefixes.
    """
    cls = e.__class__
    if cls is Wildcard:
        _wildcard_deref_events(e, profile, out, numbers)
        return
    if cls is Atom:
        text = e.token.text
        if truth and e.token.kind is _IDENT and text not in profile.null_literals:
            out.append(NullTestEvent((text,), numbers.setdefault(text, len(numbers)), e.span))
        return
    if cls is AccessPath:
        path = e.path()
        if truth:
            out.append(NullTestEvent(path, _numbers(path, numbers)[-1], e.span))
        _deref_events(path, e.root.offset, out, numbers, include_full=False)
        return
    if cls is Compare:
        tested = _null_test_path(e, profile) if truth and e.op in ("==", "!=") else None
        if tested is not None:
            out.append(NullTestEvent(tested, _numbers(tested, numbers)[-1], e.span))
        children = (e.lhs, e.rhs)
    elif cls is Call:
        callee, children = e.callee, e.args
        if callee.__class__ is AccessPath:
            _deref_events(callee.path(), callee.root.offset, out, numbers, include_full=True)
    else:
        children = e.children()
    truth = truth and (cls is Logical or cls is Not)
    for child in children:
        if truth or child.__class__ is not Atom:  # an Atom outside a truth position has no events
            _expr_events(child, profile, truth, out, numbers)
    if cls is Assign or cls is Update:
        target = _path_of(children[0])
        if target is not None:
            out.append(KillEvent(target[0], e.toks[e.lo].offset))


def _body_events(body: Sequence[Stmt], profile: LanguageProfile, out: list[NullEvent], numbers: dict) -> None:
    for s in body:
        if s.__class__ is WildcardStmt:  # no bodies, and its one slot is no truth position
            _expr_events(s.expr, profile, False, out, numbers)
            continue
        for role, part in s.parts():
            if role is BODY:
                _body_events(part, profile, out, numbers)
            elif part is not None:
                _expr_events(part, profile, role is TEST, out, numbers)


def iter_null_events(stmts: Sequence[Stmt], profile: LanguageProfile) -> Iterator[NullEvent]:
    """The ordered event log the null-deref checker runs on, built in full
    before the first event is read: at most one call per tree node."""
    out: list[NullEvent] = []
    numbers: dict = {}  # each path's number in this log (see ``_numbers``)
    for s in stmts:
        _body_events((s,), profile, out, numbers)
        if s.__class__ is not WildcardStmt:
            # Function-boundary heuristic: leaving a top-level compound
            # statement (typically a function body) clears tracked state.
            out.append(ResetEvent(s.span.hi))
    return iter(out)


def check_null_deref(stmts: Sequence[Stmt], profile: LanguageProfile, path: str = "<input>") -> list[Diagnostic]:
    """Report paths tested against null after already being dereferenced."""
    diags: list[Diagnostic] = []
    nonnull: dict[str, dict[int, int]] = {}  # by root: each path number's earliest dereference offset
    for ev in iter_null_events(stmts, profile):
        cls = ev.__class__
        if cls is DerefEvent:
            nonnull.setdefault(ev.root, {}).setdefault(ev.number, ev.offset)
        elif cls is NullTestEvent:
            deref_at = nonnull.get(ev.path[0], {}).pop(ev.number, None)  # one report per chain
            if deref_at is not None:
                name = "".join(ev.path)
                message = f"'{name}' checked for null here but dereferenced earlier"
                diags.append(finding("null-deref", message, path, ev.span, (deref_at, f"'{name}' dereferenced")))
        elif cls is KillEvent:
            nonnull.pop(ev.root, None)
        else:
            nonnull.clear()
    return diags


# ---------------------------------------------------------------------------
# Redundancy checkers
# ---------------------------------------------------------------------------


def _body_span(body: Sequence[Stmt], fallback: Extent) -> Extent:
    return Extent(body[0].span.lo, body[-1].span.hi, fallback.source) if body else fallback


def _body_keys(bodies: Sequence[Sequence[Stmt]]) -> list[Key | None]:
    """Each body's key, or ``None`` if no other body has as many statements (it cannot
    repeat one): keying every body would key a nest's inner statements once per level."""
    sizes = Counter(map(len, bodies))
    return [tuple(map(stmt_key, b)) if sizes[len(b)] > 1 else None for b in bodies]


def _repeat_findings(
    items: Sequence, keys: Iterable[Key | None], span: Callable[..., Extent],
    checker: str, message: str, note: str, path: str,
) -> Iterator[Diagnostic]:
    """One finding per item whose key was seen before, at its span, citing the first
    occurrence's start; ``None`` keys are never compared, and no other span is built."""
    first: dict[Key, int] = {}
    for j, key in enumerate(keys):
        if key is not None:
            i = first.setdefault(key, j)
            if i != j:
                yield finding(checker, message, path, span(items[j]), (span(items[i]).lo, note))


def check_if_chain(node: If, profile: LanguageProfile, path: str) -> list[Diagnostic]:
    """Duplicate conditions and duplicate branch bodies in one if/else-if chain."""
    diags: list[Diagnostic] = []
    checker = "redundant-condition"
    if not node.elifs and node.else_body is None:
        return diags  # one arm repeats nothing
    parts = node.parts()
    conds: list[Expr] = [part for role, part in parts if role is TEST]
    diags += _repeat_findings(
        conds, map(expr_key, conds), lambda cond: cond.span, checker,
        "condition repeats an earlier condition of the same chain", "first tested here", path,
    )
    bodies: list[Sequence[Stmt]] = [part for role, part in parts if role is BODY]
    diags += _repeat_findings(
        bodies, _body_keys(bodies), lambda body: _body_span(body, node.span), checker,
        "branch body is identical to an earlier branch of the same chain", "identical branch here", path,
    )
    return diags


def check_switch(node: Switch, profile: LanguageProfile, path: str) -> list[Diagnostic]:
    """Duplicate labels and duplicate non-empty bodies across one switch's arms."""
    diags: list[Diagnostic] = []
    checker = "redundant-branch"
    arms = node.cases
    diags += _repeat_findings(
        arms, (expr_key(a.label) if a.label is not None else ("DefaultArm",) for a in arms),
        lambda arm: arm.label.span if arm.label is not None else arm.span, checker,
        "case label duplicates an earlier label of the same switch", "first labeled here", path,
    )
    # empty fallthrough arms are exempt: their key is the empty tuple
    diags += _repeat_findings(
        arms, (key or None for key in _body_keys([a.body for a in arms])), lambda arm: arm.span, checker,
        "case body is identical to an earlier case of the same switch", "identical case here", path,
    )
    return diags


# ---------------------------------------------------------------------------
# Loop direction checker
# ---------------------------------------------------------------------------

# (comparison op, update op) pairs where the update walks away from the bound.
WARNING_PAIRS: frozenset[tuple[str, str]] = frozenset(
    {(c, u) for c in ("<", "<=") for u in ("--", "-=")}
    | {(c, u) for c in (">", ">=") for u in ("++", "+=")}
)
_MIRRORED = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}


def check_for_loop(node: For, profile: LanguageProfile, path: str) -> list[Diagnostic]:
    """A for-loop whose bound comparison contradicts its update direction."""
    if not isinstance(node.cond, Compare) or not isinstance(node.update, Update):
        return []
    target = _path_of(node.update.target)
    if target is None:
        return []
    if _path_of(node.cond.lhs) == target:
        op = node.cond.op
    elif _path_of(node.cond.rhs) == target:  # ``n > i`` bounds ``i`` as ``i < n`` does
        op = _MIRRORED.get(node.cond.op, node.cond.op)
    else:
        return []
    if (op, node.update.op) not in WARNING_PAIRS:
        return []
    message = f"loop variable '{target[0]}' is updated with '{node.update.op}' but bounded by '{node.cond.op}'"
    return [finding("loop-direction", message, path, node.header_span)]


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


# Every checker, by the id ``--checkers`` takes and its findings carry, in the
# order ``run_checkers`` runs them: adding a checker is one function and one row.
# A row names the statement class whose nodes its function takes one at a time,
# or ``None`` for a function that reads the whole tree in source order.
CHECKERS: dict[str, tuple[type[Stmt] | None, Callable[..., list[Diagnostic]]]] = {
    "redundant-condition": (If, check_if_chain),
    "redundant-branch": (Switch, check_switch),
    "loop-direction": (For, check_for_loop),
    "null-deref": (None, check_null_deref),
}


def run_checkers(
    stmts: Sequence[Stmt],
    profile: LanguageProfile,
    enabled: Iterable[str] | None = None,
    path: str = "<input>",
) -> list[Diagnostic]:
    """Run the enabled checkers (by default all of ``CHECKERS``), the node
    checkers in one shared walk; their findings, deduplicated and ordered."""
    ids = set(CHECKERS if enabled is None else enabled)
    if not ids:
        raise ValueError("no checkers enabled")
    unknown = ids - CHECKERS.keys()
    if unknown:
        raise ValueError(f"unknown checker ids: {', '.join(sorted(unknown))}")
    diags: list[Diagnostic] = []
    by_class: dict[type[Stmt], list[Callable[..., list[Diagnostic]]]] = {}
    for checker, (cls, check) in CHECKERS.items():
        if checker in ids and cls is None:
            diags += check(stmts, profile, path)
        elif checker in ids:
            by_class.setdefault(cls, []).append(check)
    if by_class:
        for node in walk_statements(stmts):
            for check in by_class.get(type(node), ()):
                diags += check(node, profile, path)
    return dedupe_and_sort(diags)


# The node checkers' whole-tree names: each is ``run_checkers`` with its one id, in its order.
def check_redundant_conditions(stmts: Sequence[Stmt], profile: LanguageProfile, path: str = "<input>") -> list[Diagnostic]:
    return run_checkers(stmts, profile, ("redundant-condition",), path)


def check_redundant_branches(stmts: Sequence[Stmt], profile: LanguageProfile, path: str = "<input>") -> list[Diagnostic]:
    return run_checkers(stmts, profile, ("redundant-branch",), path)


def check_loop_direction(stmts: Sequence[Stmt], profile: LanguageProfile, path: str = "<input>") -> list[Diagnostic]:
    return run_checkers(stmts, profile, ("loop-direction",), path)
