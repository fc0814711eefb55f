"""The four analysis passes.

Each checker is an independent function from a refined statement list to
diagnostics; none of them ever consults token positions to make a decision
(offsets are carried along for reporting, and resolved only for a finding).

The null-dereference checker works from a linear event log (dereferences,
null tests, assignments that invalidate tracked paths, scope resets)
extracted by :func:`iter_null_events`; the log is also the surface the test
suite's brute-force oracle consumes.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

from .diagnostics import Diagnostic, sort_key
from .lexer import TokenKind, position
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

# Token kinds bound once for the per-token loops (see the note in ``lexer``).
_IDENT = TokenKind.IDENTIFIER


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


class DerefEvent(NamedTuple):
    """A path dereferenced at source ``offset`` (immutable named tuple)."""

    path: Path
    offset: int


class NullTestEvent(NamedTuple):
    """A path compared against null or used bare as a truth value (immutable named tuple)."""

    path: Path
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
    if isinstance(e, Atom) and e.token.kind is _IDENT:
        return (e.token.text,)
    if isinstance(e, AccessPath):
        return e.path()
    return None


def _lvalue_root(e: Expr) -> str | None:
    path = _path_of(e)
    return path[0] if path is not None else None


def _deref_events(path: Path, offset: int, out: list[NullEvent], include_full: bool) -> None:
    """Append the paths a dereference of ``path`` proves non-null.

    Reading ``a->b->c`` proves every proper prefix (``a``, ``a->b``);
    calling through the path (``state->work(...)``) additionally proves
    the full callee path.
    """
    for k in range(1, len(path), 2):
        out.append(DerefEvent(path[:k], offset))
    if include_full:
        out.append(DerefEvent(path, offset))


def _wildcard_deref_events(w: Wildcard, profile: LanguageProfile, out: list[NullEvent]) -> None:
    """Scan raw wildcard tokens for access-path runs.

    Refinement leaves most statement content uninterpreted (``x = p->q + 1``
    has no recognized shape), but a dereference buried in it still counts.
    """
    toks = w.tokens
    deref_ops = profile.deref_ops
    n = len(toks)
    i = 0
    while i < n:
        if toks[i].kind is not _IDENT:
            i += 1
            continue
        k = path_end(toks, i, n, deref_ops)
        if k - i >= 3:
            path = tuple(t.text for t in toks[i:k])
            _deref_events(path, toks[i].offset, out, k < n and toks[k].text == "(")
        i = k


def _null_test_path(e: Compare, profile: LanguageProfile) -> Path | None:
    """The tested path of ``p == null`` / ``null != p`` (either side)."""

    def is_null(side: Expr) -> bool:
        return isinstance(side, Atom) and side.token.text in profile.null_literals

    left_null, right_null = is_null(e.lhs), is_null(e.rhs)
    if left_null == right_null:
        return None
    return _path_of(e.rhs if left_null else e.lhs)


def _expr_events(e: Expr, profile: LanguageProfile, truth: bool, out: list[NullEvent]) -> None:
    """Append the events of one expression, depth-first, left to right.

    ``truth`` marks truth-value operand positions inside an If/While/For
    condition (the condition itself, operands of logical connectives and
    negation); only those positions produce bare null-test events.
    """
    if isinstance(e, Wildcard):
        _wildcard_deref_events(e, profile, out)
    elif isinstance(e, Atom):
        if (
            truth
            and e.token.kind is _IDENT
            and e.token.text not in profile.null_literals
        ):
            out.append(NullTestEvent((e.token.text,), e.span))
    elif isinstance(e, AccessPath):
        path = e.path()
        if truth:
            out.append(NullTestEvent(path, e.span))
        _deref_events(path, e.root.offset, out, include_full=False)
    elif isinstance(e, Compare):
        if truth and e.op in ("==", "!="):
            tested = _null_test_path(e, profile)
            if tested is not None:
                out.append(NullTestEvent(tested, e.span))
        _expr_events(e.lhs, profile, False, out)
        _expr_events(e.rhs, profile, False, out)
    elif isinstance(e, Logical):
        _expr_events(e.lhs, profile, truth, out)
        _expr_events(e.rhs, profile, truth, out)
    elif isinstance(e, Not):
        _expr_events(e.operand, profile, truth, out)
    elif isinstance(e, Assign):
        _expr_events(e.lhs, profile, False, out)
        _expr_events(e.rhs, profile, False, out)
        root = _lvalue_root(e.lhs)
        if root is not None:
            out.append(KillEvent(root, e.tokens[0].offset))
    elif isinstance(e, Update):
        _expr_events(e.target, profile, False, out)
        if e.value is not None:
            _expr_events(e.value, profile, False, out)
        root = _lvalue_root(e.target)
        if root is not None:
            out.append(KillEvent(root, e.tokens[0].offset))
    elif isinstance(e, Call):
        if isinstance(e.callee, AccessPath):
            _deref_events(e.callee.path(), e.callee.root.offset, out, include_full=True)
        for arg in e.args:
            _expr_events(arg, profile, False, out)


def _stmt_events(s: Stmt, profile: LanguageProfile, out: list[NullEvent]) -> None:
    for role, part in s.parts():
        if role is BODY:
            for child in part:
                _stmt_events(child, profile, out)
        elif part is not None:
            _expr_events(part, profile, role is TEST, out)


def iter_null_events(stmts: Sequence[Stmt], profile: LanguageProfile) -> Iterator[NullEvent]:
    """The ordered event log the null-deref checker runs on, built in full
    before the first event is read: one call per tree node."""
    out: list[NullEvent] = []
    for s in stmts:
        _stmt_events(s, profile, out)
        if not isinstance(s, WildcardStmt):
            # Function-boundary heuristic: leaving a top-level compound
            # statement (typically a function body) clears tracked state.
            out.append(ResetEvent(s.span.hi))
    return iter(out)


def check_null_deref(
    stmts: Sequence[Stmt], profile: LanguageProfile, path: str = "<input>"
) -> list[Diagnostic]:
    """Report paths tested against null after already being dereferenced."""
    diags: list[Diagnostic] = []
    nonnull: dict[Path, int] = {}  # each path's earliest dereference offset
    for ev in iter_null_events(stmts, profile):
        if isinstance(ev, DerefEvent):
            nonnull.setdefault(ev.path, ev.offset)
        elif isinstance(ev, NullTestEvent):
            deref_at = nonnull.pop(ev.path, None)  # one report per chain
            if deref_at is not None:
                name = render_path(ev.path)
                diags.append(
                    Diagnostic(
                        checker=CheckerId.NULL_DEREF.value,
                        message=f"'{name}' checked for null here but dereferenced earlier",
                        file=path,
                        span=ev.span.resolve(),
                        related=(position(ev.span.source, deref_at), f"'{name}' dereferenced"),
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


def _body_span(body: Sequence[Stmt], fallback: Extent) -> Extent:
    return Extent(body[0].span.lo, body[-1].span.hi, fallback.source) if body else fallback


def _body_keys(bodies: Sequence[Sequence[Stmt]]) -> list[Key | None]:
    """Each body's key, or ``None`` if no other body has as many statements (it cannot
    repeat one): keying every body would key a nest's inner statements once per level."""
    sizes = Counter(map(len, bodies))
    return [tuple(map(stmt_key, b)) if sizes[len(b)] > 1 else None for b in bodies]


def _repeat_findings(
    keys: Iterable[Key | None], spans: Sequence[Extent], checker: CheckerId, message: str, note: str, path: str
) -> Iterator[Diagnostic]:
    """One finding per key seen before, at its span, citing the first
    occurrence's start; ``None`` keys are never compared."""
    first: dict[Key, int] = {}
    for j, key in enumerate(keys):
        if key is not None:
            i = first.setdefault(key, j)
            if i != j:
                yield Diagnostic(checker.value, message, path, spans[j].resolve(), (spans[i].start, note))


def check_redundant_conditions(
    stmts: Sequence[Stmt], path: str = "<input>"
) -> list[Diagnostic]:
    """Duplicate conditions and duplicate branch bodies in if/else-if chains."""
    diags: list[Diagnostic] = []
    checker = CheckerId.REDUNDANT_CONDITION
    for node in walk_statements(stmts):
        if not isinstance(node, If):
            continue
        conds: list[Expr] = [node.cond] + [c for c, _ in node.elifs]
        diags += _repeat_findings(
            map(expr_key, conds), [c.span for c in conds], checker,
            "condition repeats an earlier condition of the same chain", "first tested here", path,
        )
        bodies: list[Sequence[Stmt]] = [node.then_body] + [b for _, b in node.elifs]
        if node.else_body is not None:
            bodies.append(node.else_body)
        diags += _repeat_findings(
            _body_keys(bodies), [_body_span(b, node.span) for b in bodies], checker,
            "branch body is identical to an earlier branch of the same chain", "identical branch here", path,
        )
    return diags


def check_redundant_branches(
    stmts: Sequence[Stmt], path: str = "<input>"
) -> list[Diagnostic]:
    """Duplicate labels and duplicate non-empty bodies across switch arms."""
    diags: list[Diagnostic] = []
    checker = CheckerId.REDUNDANT_BRANCH
    for node in walk_statements(stmts):
        if not isinstance(node, Switch):
            continue
        arms = node.cases
        diags += _repeat_findings(
            (expr_key(a.label) if a.label is not None else ("DefaultArm",) for a in arms),
            [a.label.span if a.label is not None else a.span for a in arms], checker,
            "case label duplicates an earlier label of the same switch", "first labeled here", path,
        )
        # empty fallthrough arms are exempt: their key is the empty tuple
        diags += _repeat_findings(
            (key or None for key in _body_keys([a.body for a in arms])), [a.span for a in arms], checker,
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
        cond_texts = {t.text for t in node.cond.tokens}
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
                    span=node.header_span.resolve(),
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
    diags.sort(key=sort_key)
    return diags
