"""Measurement primitives: CLI processes, the in-process pipeline, spans.

Import this module only after ``src`` of the checkout under test is on
``sys.path``; it measures whichever ``xcheck`` that import finds.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from xcheck.checkers import (
    check_loop_direction,
    check_null_deref,
    check_redundant_branches,
    check_redundant_conditions,
    iter_null_events,
    run_checkers,
)
from xcheck.diagnostics import dedupe_and_sort, render_json, render_text, to_record
from xcheck.lexer import tokenize
from xcheck.microgrammar import (
    AccessPath,
    Assign,
    Atom,
    Call,
    Compare,
    DoWhile,
    For,
    If,
    Logical,
    Not,
    Switch,
    Update,
    While,
    Wildcard,
    WildcardStmt,
    parse_expression,
    parse_statements,
    walk_statements,
)

# `python -m xcheck` does nothing at this commit (there is no __main__.py),
# so the CLI is launched through its entry function.
CLI_CODE = "from xcheck.cli import main; main()"


@dataclass
class CliRun:
    wall_s: float
    rss_mb: float  # peak resident memory of this one process
    code: int
    stdout: str
    stderr: str


def run_cli(args: list[str], cwd: str, src_dir: str, timeout: float) -> CliRun:
    """Run the xcheck CLI once and time it from spawn to exit.

    The peak RSS comes from ``wait4`` on this child alone, so no earlier
    process can carry its peak into this number.
    """
    env = dict(os.environ, PYTHONPATH=src_dir)
    out_path = os.path.join(cwd, ".cli.stdout")
    err_path = os.path.join(cwd, ".cli.stderr")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_CODE, *args],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        lock = threading.Lock()
        exited = False

        def kill() -> None:
            with lock:
                if not exited:  # never signal a pid that may have been reused
                    proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # Wait without reaping, so the pid stays ours until `exited` is set.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                exited = True
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return CliRun(
            wall, usage.ru_maxrss / 1024.0, proc.returncode,
            out.read().decode("utf-8", "replace"), err.read().decode("utf-8", "replace"),
        )


def pipeline(path: str, source: str, profile) -> list:
    """One file to a verdict, as the CLI does it, with no spans."""
    stream = tokenize(source, profile, source_path=path)
    stmts = parse_statements(stream, profile)
    diags = dedupe_and_sort(run_checkers(stmts, profile, path=path))
    render_json(diags)
    return diags


def records(diags) -> list[dict]:
    return [to_record(d) for d in diags]


# -- speed reference -------------------------------------------------------------
#
# On a shared machine the CPU's speed swings by up to 2x within seconds.
# Each measurement is therefore bracketed by runs of a fixed,
# interpreter-bound reference loop on the same CPU, and its time is scaled
# to the speed at which that loop takes REF_NOMINAL_S (about its time on an
# uncontended 2-vCPU x86-64 VM under CPython 3.11).  Adjacent intervals slow
# down together, so the scaled time is far steadier than the raw one: on
# such a VM the spread over seeds of the per-file median fell from 7-33% to
# 4-6%, and that of the CLI's throughput from 10-20% to 3-7%.

REF_NOMINAL_S = 0.001
_REF_KEYS = tuple(f"k{i}" for i in range(64))


def reference_sample() -> float:
    start = time.perf_counter()
    table: dict[str, int] = {}
    for i in range(12_000):
        key = _REF_KEYS[i & 63]
        table[key] = table.get(key, 0) + len(key)
    return time.perf_counter() - start


def pin_to_one_cpu() -> int:
    """Pin this process, and the CLI processes it starts, to one CPU, so
    that the reference loop runs where the measured work runs."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def bracketed(items, run_one):
    """Run ``run_one`` on each item with reference samples before and after
    it; yields ``(item, result, seconds, scale)`` where ``scale`` converts
    this item's seconds to reference-speed seconds.  Each bracket averages
    enough reference runs to last about 5% of the item before it (1 to 50),
    so long items get a steadier reference than short ones."""

    def reference(last_seconds: float) -> float:
        n = max(1, min(50, round(0.05 * last_seconds / REF_NOMINAL_S)))
        return sum(reference_sample() for _ in range(n)) / n

    before = reference(0.0)
    for item in items:
        start = time.perf_counter()
        result = run_one(item)
        seconds = time.perf_counter() - start
        after = reference(seconds)
        yield item, result, seconds, 2 * REF_NOMINAL_S / (before + after)
        before = after


# -- tracing -------------------------------------------------------------------


class Tracer:
    """Spans kept in memory: ``[name, request, parent, start, end]``.

    A request is one file.  ``parent`` is the index of the enclosing span,
    or None for a root.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.scale: dict[str, float] = {}  # request -> reference-speed factor

    def begin(self, name: str, request: str, parent: int | None = None) -> int:
        self.spans.append([name, request, parent, time.perf_counter(), 0.0])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Total reference-speed self time per span name: duration minus the
        children's durations (children run one after another inside their
        parent)."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] is not None:
                own[s[2]] -= s[4] - s[3]
        totals: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            totals[s[0]] = totals.get(s[0], 0.0) + t * self.scale.get(s[1], 1.0)
        return totals

    def durations(self, name: str) -> dict[str, float]:
        """Reference-speed duration of each span called ``name``, by request."""
        return {
            s[1]: (s[4] - s[3]) * self.scale.get(s[1], 1.0) for s in self.spans if s[0] == name
        }


CHECKS = (
    ("null_deref", lambda stmts, profile, path: check_null_deref(stmts, profile, path)),
    ("redundant_condition", lambda stmts, profile, path: check_redundant_conditions(stmts, path)),
    ("redundant_branch", lambda stmts, profile, path: check_redundant_branches(stmts, path)),
    ("loop_direction", lambda stmts, profile, path: check_loop_direction(stmts, path)),
)


def expr_slots(stmt) -> list:
    """The expression slots of one statement node (not of its children)."""
    if isinstance(stmt, WildcardStmt):
        return [stmt.expr]
    if isinstance(stmt, If):
        return [stmt.cond] + [c for c, _ in stmt.elifs]
    if isinstance(stmt, (While, DoWhile)):
        return [stmt.cond]
    if isinstance(stmt, For):
        return [e for e in (stmt.init, stmt.cond, stmt.update) if e is not None]
    if isinstance(stmt, Switch):
        return [stmt.scrutinee] + [a.label for a in stmt.cases if a.label is not None]
    return []


def wild_tokens(expr) -> int:
    """Tokens left inside unrefined wildcards of a refined expression."""
    if isinstance(expr, Wildcard):
        return len(expr.tokens)
    if isinstance(expr, (Compare, Logical, Assign)):
        return wild_tokens(expr.lhs) + wild_tokens(expr.rhs)
    if isinstance(expr, Not):
        return wild_tokens(expr.operand)
    if isinstance(expr, Update):
        return wild_tokens(expr.target) + (wild_tokens(expr.value) if expr.value is not None else 0)
    if isinstance(expr, Call):
        return wild_tokens(expr.callee) + sum(wild_tokens(a) for a in expr.args)
    assert isinstance(expr, (Atom, AccessPath)), expr
    return 0


@dataclass
class FileCounts:
    tokens: int = 0
    lex_errors: int = 0
    stmts: int = 0
    incomplete: int = 0
    slots: int = 0
    refined: int = 0
    slot_tokens: int = 0
    wild_tokens: int = 0
    null_events: int = 0
    diagnostics: int = 0

    def add(self, other: "FileCounts") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


def traced_file(
    tracer: Tracer, path: str, source: str, profile, count: bool = False
) -> tuple[dict[str, int], FileCounts | None]:
    """The pipeline with one span per public call, then the refine re-run.

    The root span ``file`` covers exactly the pipeline.  The refine re-run
    (every expression slot rebuilt as a plain wildcard and refined again
    with the public ``parse_expression``) is measurement work the CLI never
    does, so it is a root span of its own for the same request.  Returns
    the findings per checker and, when ``count`` is set, the work counts,
    which are taken outside every span.
    """
    root = tracer.begin("file", path)
    s = tracer.begin("lexer.tokenize", path, root)
    stream = tokenize(source, profile, source_path=path)
    tracer.end(s)
    s = tracer.begin("microgrammar.parse_statements", path, root)
    stmts = parse_statements(stream, profile)
    tracer.end(s)
    found: dict[str, int] = {}
    diags: list = []
    for cid, check in CHECKS:
        s = tracer.begin(f"checkers.{cid}", path, root)
        out = check(stmts, profile, path)
        tracer.end(s)
        found[cid] = len(out)
        diags.extend(out)
    s = tracer.begin("diagnostics.render", path, root)
    final = dedupe_and_sort(diags)
    render_text(final)
    render_json(final)
    tracer.end(s)
    tracer.end(root)

    nodes = list(walk_statements(stmts))
    slots = [e for node in nodes for e in expr_slots(node)]
    wilds = [Wildcard(e.tokens, e.span) for e in slots]
    s = tracer.begin("microgrammar.parse_expression", path)
    refined = [parse_expression(w, profile) for w in wilds]
    tracer.end(s)

    if not count:
        return found, None
    return found, FileCounts(
        tokens=len(stream.tokens),
        lex_errors=len(stream.errors),
        stmts=len(nodes),
        incomplete=sum(1 for n in nodes if n.incomplete),
        slots=len(slots),
        refined=sum(1 for r in refined if not isinstance(r, Wildcard)),
        slot_tokens=sum(len(w.tokens) for w in wilds),
        wild_tokens=sum(wild_tokens(r) for r in refined),
        null_events=sum(1 for _ in iter_null_events(stmts, profile)),
        diagnostics=len(final),
    )
