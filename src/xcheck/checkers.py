"""The four analysis passes.

Each checker is an independent function from a refined statement list to
diagnostics; none of them ever consults token positions to make a decision
(positions are carried along for reporting only).

The null-dereference checker works from a linear event log (dereferences,
null tests, assignments that invalidate tracked paths, scope resets)
extracted by :func:`iter_null_events`; the log is also the surface the test
suite's brute-force oracle consumes.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

from .diagnostics import Diagnostic
from .lexer import Position, TokenKind
from .microgrammar import (
    AccessPath,
    Assign,
    Atom,
    Block,
    Call,
    CaseArm,
    Compare,
    DoWhile,
    Expr,
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
    Key,
    expr_key,
    expr_tokens,
    stmt_key,
    walk_statements,
)
from .profiles import LanguageProfile


class CheckerId(str, Enum):
    REDUNDANT_CONDITION = "redundant-condition"
    REDUNDANT_BRANCH = "redundant-branch"
    LOOP_DIRECTION = "loop-direction"
    NULL_DEREF = "null-deref"


ALL_CHECKER_IDS: tuple[str, ...] = tuple(c.value for c in CheckerId)


# ---------------------------------------------------------------------------
# Null-dereference event model
# ---------------------------------------------------------------------------

# A tracked path is the flattened access chain: ("state", "->", "work").
Path = tuple[str, ...]


def render_path(path: Path) -> str:
    return "".join(path)


class NonNullEntry(NamedTuple):
    """A path believed non-null because it was dereferenced (immutable named tuple)."""

    path: Path
    deref_pos: Position


class DerefEvent(NamedTuple):
    """A path dereferenced at ``pos`` (immutable named tuple)."""

    path: Path
    pos: Position


class NullTestEvent(NamedTuple):
    """A path compared against null or used bare as a truth value (immutable named tuple)."""

    path: Path
    span: Span


class KillEvent(NamedTuple):
    """Assignment/update to a root: every path from it is invalidated (immutable named tuple)."""

    root: str
    pos: Position


class ResetEvent(NamedTuple):
    """Tracking state cleared (top-level compound statement finished); immutable named tuple."""

    pos: Position


NullEvent = DerefEvent | NullTestEvent | KillEvent | ResetEvent


def _path_of(e: Expr) -> Path | None:
    if isinstance(e, Atom) and e.token.kind is TokenKind.IDENTIFIER:
        return (e.token.text,)
    if isinstance(e, AccessPath):
        flat: list[str] = [e.root.text]
        for op, ident in e.steps:
            flat.append(op)
            flat.append(ident.text)
        return tuple(flat)
    return None


def _lvalue_root(e: Expr) -> str | None:
    if isinstance(e, Atom) and e.token.kind is TokenKind.IDENTIFIER:
        return e.token.text
    if isinstance(e, AccessPath):
        return e.root.text
    return None


def _deref_events(e: AccessPath, include_full: bool) -> Iterator[DerefEvent]:
    """Paths a dereference proves non-null.

    Reading ``a->b->c`` proves every proper prefix (``a``, ``a->b``);
    calling through the path (``state->work(...)``) additionally proves
    the full callee path.
    """
    flat: list[str] = [e.root.text]
    for op, ident in e.steps:
        yield DerefEvent(tuple(flat), e.root.pos)
        flat.append(op)
        flat.append(ident.text)
    if include_full:
        yield DerefEvent(tuple(flat), e.root.pos)


def _wildcard_deref_events(w: Wildcard, profile: LanguageProfile) -> Iterator[DerefEvent]:
    """Scan raw wildcard tokens for access-path runs.

    Refinement leaves most statement content uninterpreted (``x = p->q + 1``
    has no recognized shape), but a dereference buried in it still counts.
    """
    toks = w.tokens
    deref_ops = profile.deref_ops
    n = len(toks)
    i = 0
    while i < n:
        if toks[i].kind is not TokenKind.IDENTIFIER:
            i += 1
            continue
        k = i + 1
        while (
            k + 1 < n
            and toks[k].kind is TokenKind.OPERATOR
            and toks[k].text in deref_ops
            and toks[k + 1].kind is TokenKind.IDENTIFIER
        ):
            k += 2
        if k - i >= 3:
            followed_by_call = k < n and toks[k].text == "("
            flat: list[str] = [toks[i].text]
            for j in range(i + 1, k, 2):
                yield DerefEvent(tuple(flat), toks[i].pos)
                flat.append(toks[j].text)
                flat.append(toks[j + 1].text)
            if followed_by_call:
                yield DerefEvent(tuple(flat), toks[i].pos)
        i = k if k > i + 1 else i + 1


def _null_test_path(e: Compare, profile: LanguageProfile) -> Path | None:
    """The tested path of ``p == null`` / ``null != p`` (either side)."""

    def is_null(side: Expr) -> bool:
        return isinstance(side, Atom) and side.token.text in profile.null_literals

    left_null, right_null = is_null(e.lhs), is_null(e.rhs)
    if left_null == right_null:
        return None
    return _path_of(e.rhs if left_null else e.lhs)


def _expr_events(e: Expr, profile: LanguageProfile, truth: bool) -> Iterator[NullEvent]:
    """Events of one expression, depth-first, left to right.

    ``truth`` marks truth-value operand positions inside an If/While/For
    condition (the condition itself, operands of logical connectives and
    negation); only those positions produce bare null-test events.
    """
    if isinstance(e, Wildcard):
        yield from _wildcard_deref_events(e, profile)
    elif isinstance(e, Atom):
        if (
            truth
            and e.token.kind is TokenKind.IDENTIFIER
            and e.token.text not in profile.null_literals
        ):
            yield NullTestEvent((e.token.text,), e.span)
    elif isinstance(e, AccessPath):
        if truth:
            path = _path_of(e)
            assert path is not None
            yield NullTestEvent(path, e.span)
        yield from _deref_events(e, include_full=False)
    elif isinstance(e, Compare):
        if truth and e.op in ("==", "!="):
            tested = _null_test_path(e, profile)
            if tested is not None:
                yield NullTestEvent(tested, e.span)
        yield from _expr_events(e.lhs, profile, False)
        yield from _expr_events(e.rhs, profile, False)
    elif isinstance(e, Logical):
        yield from _expr_events(e.lhs, profile, truth)
        yield from _expr_events(e.rhs, profile, truth)
    elif isinstance(e, Not):
        yield from _expr_events(e.operand, profile, truth)
    elif isinstance(e, Assign):
        yield from _expr_events(e.lhs, profile, False)
        yield from _expr_events(e.rhs, profile, False)
        root = _lvalue_root(e.lhs)
        if root is not None:
            yield KillEvent(root, e.span.start)
    elif isinstance(e, Update):
        yield from _expr_events(e.target, profile, False)
        if e.value is not None:
            yield from _expr_events(e.value, profile, False)
        root = _lvalue_root(e.target)
        if root is not None:
            yield KillEvent(root, e.span.start)
    elif isinstance(e, Call):
        if isinstance(e.callee, AccessPath):
            yield from _deref_events(e.callee, include_full=True)
        for arg in e.args:
            yield from _expr_events(arg, profile, False)


def _is_compound(s: Stmt) -> bool:
    return not isinstance(s, WildcardStmt)


def _stmt_events(s: Stmt, profile: LanguageProfile, depth: int) -> Iterator[NullEvent]:
    if isinstance(s, WildcardStmt):
        yield from _expr_events(s.expr, profile, False)
    elif isinstance(s, Block):
        yield from _walk_events(s.body, profile, depth + 1)
    elif isinstance(s, If):
        yield from _expr_events(s.cond, profile, True)
        yield from _walk_events(s.then_body, profile, depth + 1)
        for cond, body in s.elifs:
            yield from _expr_events(cond, profile, True)
            yield from _walk_events(body, profile, depth + 1)
        if s.else_body is not None:
            yield from _walk_events(s.else_body, profile, depth + 1)
    elif isinstance(s, While):
        yield from _expr_events(s.cond, profile, True)
        yield from _walk_events(s.body, profile, depth + 1)
    elif isinstance(s, DoWhile):
        yield from _walk_events(s.body, profile, depth + 1)
        # do-while conditions are not null-test positions
        yield from _expr_events(s.cond, profile, False)
    elif isinstance(s, For):
        if s.init is not None:
            yield from _expr_events(s.init, profile, False)
        if s.cond is not None:
            yield from _expr_events(s.cond, profile, True)
        if s.update is not None:
            yield from _expr_events(s.update, profile, False)
        yield from _walk_events(s.body, profile, depth + 1)
    elif isinstance(s, Switch):
        yield from _expr_events(s.scrutinee, profile, False)
        for arm in s.cases:
            if arm.label is not None:
                yield from _expr_events(arm.label, profile, False)
            yield from _walk_events(arm.body, profile, depth + 1)


def _walk_events(stmts: Sequence[Stmt], profile: LanguageProfile, depth: int) -> Iterator[NullEvent]:
    for s in stmts:
        yield from _stmt_events(s, profile, depth)
        if depth == 0 and _is_compound(s):
            # Function-boundary heuristic: leaving a top-level compound
            # statement (typically a function body) clears tracked state.
            yield ResetEvent(s.span.end)


def iter_null_events(stmts: Sequence[Stmt], profile: LanguageProfile) -> Iterator[NullEvent]:
    """The ordered event log the null-deref checker runs on."""
    yield from _walk_events(stmts, profile, 0)


def check_null_deref(
    stmts: Sequence[Stmt], profile: LanguageProfile, path: str = "<input>"
) -> list[Diagnostic]:
    """Report paths tested against null after already being dereferenced."""
    diags: list[Diagnostic] = []
    nonnull: dict[Path, NonNullEntry] = {}
    for ev in iter_null_events(stmts, profile):
        if isinstance(ev, DerefEvent):
            if ev.path not in nonnull:  # earliest dereference wins
                nonnull[ev.path] = NonNullEntry(ev.path, ev.pos)
        elif isinstance(ev, NullTestEvent):
            entry = nonnull.pop(ev.path, None)  # one report per chain
            if entry is not None:
                name = render_path(ev.path)
                diags.append(
                    Diagnostic(
                        checker=CheckerId.NULL_DEREF.value,
                        message=f"'{name}' checked for null here but dereferenced earlier",
                        file=path,
                        span=ev.span,
                        related=(entry.deref_pos, f"'{name}' dereferenced"),
                    )
                )
        elif isinstance(ev, KillEvent):
            stale = [p for p in nonnull if p[0] == ev.root]
            for p in stale:
                del nonnull[p]
            assert not any(p[0] == ev.root for p in nonnull)  # kill completeness
        else:
            nonnull.clear()
    return diags


# ---------------------------------------------------------------------------
# Redundancy checkers
# ---------------------------------------------------------------------------


def _body_span(body: Sequence[Stmt], fallback: Span) -> Span:
    if not body:
        return fallback
    return Span(body[0].span.start, body[-1].span.end)


def _repeats(keys: Iterable[Key | None]) -> Iterator[tuple[int, int]]:
    """``(later, first)`` index pairs: each key seen before, against its first
    occurrence, in order.  ``None`` keys are never compared."""
    first: dict[Key, int] = {}
    for j, key in enumerate(keys):
        if key is not None:
            i = first.setdefault(key, j)
            if i != j:
                yield j, i


def check_redundant_conditions(
    stmts: Sequence[Stmt], path: str = "<input>"
) -> list[Diagnostic]:
    """Duplicate conditions and duplicate branch bodies in if/else-if chains."""
    diags: list[Diagnostic] = []
    for node in walk_statements(stmts):
        if not isinstance(node, If):
            continue
        conds: list[Expr] = [node.cond] + [c for c, _ in node.elifs]
        for j, i in _repeats(expr_key(c) for c in conds):
            diags.append(
                Diagnostic(
                    checker=CheckerId.REDUNDANT_CONDITION.value,
                    message="condition repeats an earlier condition of the same chain",
                    file=path,
                    span=conds[j].span,
                    related=(conds[i].span.start, "first tested here"),
                )
            )
        bodies: list[Sequence[Stmt]] = [node.then_body] + [b for _, b in node.elifs]
        if node.else_body is not None:
            bodies.append(node.else_body)
        spans = [_body_span(b, node.span) for b in bodies]
        for j, i in _repeats(tuple(stmt_key(s) for s in b) for b in bodies):
            diags.append(
                Diagnostic(
                    checker=CheckerId.REDUNDANT_CONDITION.value,
                    message="branch body is identical to an earlier branch of the same chain",
                    file=path,
                    span=spans[j],
                    related=(spans[i].start, "identical branch here"),
                )
            )
    return diags


def check_redundant_branches(
    stmts: Sequence[Stmt], path: str = "<input>"
) -> list[Diagnostic]:
    """Duplicate labels and duplicate non-empty bodies across switch arms."""
    diags: list[Diagnostic] = []
    for node in walk_statements(stmts):
        if not isinstance(node, Switch):
            continue
        label_keys = (
            expr_key(a.label) if a.label is not None else ("DefaultArm",)
            for a in node.cases
        )
        for j, i in _repeats(label_keys):
            later = node.cases[j]
            span = later.label.span if later.label is not None else later.span
            earlier = node.cases[i]
            rel = earlier.label.span.start if earlier.label is not None else earlier.span.start
            diags.append(
                Diagnostic(
                    checker=CheckerId.REDUNDANT_BRANCH.value,
                    message="case label duplicates an earlier label of the same switch",
                    file=path,
                    span=span,
                    related=(rel, "first labeled here"),
                )
            )
        # empty fallthrough arms are exempt
        body_keys = (
            tuple(stmt_key(s) for s in a.body) if a.body else None for a in node.cases
        )
        for j, i in _repeats(body_keys):
            diags.append(
                Diagnostic(
                    checker=CheckerId.REDUNDANT_BRANCH.value,
                    message="case body is identical to an earlier case of the same switch",
                    file=path,
                    span=node.cases[j].span,
                    related=(node.cases[i].span.start, "identical case here"),
                )
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


def check_loop_direction(
    stmts: Sequence[Stmt], path: str = "<input>"
) -> list[Diagnostic]:
    """For-loops whose bound comparison contradicts the update direction."""
    diags: list[Diagnostic] = []
    for node in walk_statements(stmts):
        if not isinstance(node, For):
            continue
        if not isinstance(node.cond, Compare) or not isinstance(node.update, Update):
            continue
        var = _lvalue_root(node.update.target)
        if var is None:
            continue
        cond_texts = {t.text for t in expr_tokens(node.cond)}
        if var not in cond_texts:
            continue
        if (node.cond.op, node.update.op) in WARNING_PAIRS:
            diags.append(
                Diagnostic(
                    checker=CheckerId.LOOP_DIRECTION.value,
                    message=(
                        f"loop variable '{var}' is updated with '{node.update.op}' "
                        f"but bounded by '{node.cond.op}'"
                    ),
                    file=path,
                    span=node.header_span,
                )
            )
    return diags


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_checkers(
    stmts: Sequence[Stmt],
    profile: LanguageProfile,
    enabled: Iterable[str] | None = None,
    path: str = "<input>",
) -> list[Diagnostic]:
    """Run the enabled checkers independently and merge their findings."""
    ids = set(enabled) if enabled is not None else set(ALL_CHECKER_IDS)
    if not ids:
        raise ValueError("no checkers enabled")
    unknown = ids - set(ALL_CHECKER_IDS)
    if unknown:
        raise ValueError(f"unknown checker ids: {', '.join(sorted(unknown))}")
    diags: list[Diagnostic] = []
    if CheckerId.REDUNDANT_CONDITION.value in ids:
        diags.extend(check_redundant_conditions(stmts, path))
    if CheckerId.REDUNDANT_BRANCH.value in ids:
        diags.extend(check_redundant_branches(stmts, path))
    if CheckerId.LOOP_DIRECTION.value in ids:
        diags.extend(check_loop_direction(stmts, path))
    if CheckerId.NULL_DEREF.value in ids:
        diags.extend(check_null_deref(stmts, profile, path))
    diags.sort(key=lambda d: (d.file, d.span.start.offset, d.checker))
    return diags
