"""Checker behavior, including the event-log oracle for derived cases."""

import random
import sys
from collections import Counter

import pytest

from support import (
    C,
    JAVA,
    null_oracle,
    parse_source,
    random_micro_program,
)
from xcheck.checkers import (
    ALL_CHECKER_IDS,
    CheckerId,
    DerefEvent,
    NullTestEvent,
    check_loop_direction,
    check_null_deref,
    check_redundant_branches,
    check_redundant_conditions,
    iter_null_events,
    run_checkers,
)
from xcheck import checkers, microgrammar
from xcheck.lexer import tokenize
from xcheck.microgrammar import parse_statements


def findings(diags):
    return [(d.checker, d.span.start.line, d.related[0].line if d.related else None) for d in diags]


# -- redundant conditions -----------------------------------------------------


def test_duplicate_elif_condition_reported_on_later_arm():
    stmts = parse_source("if (a > 0) f();\nelse if (a > 0) g();")
    diags = check_redundant_conditions(stmts)
    assert findings(diags) == [("redundant-condition", 2, 1)]


def test_equal_branch_bodies_reported():
    stmts = parse_source("if (a) f();\nelse if (b) f();")
    diags = check_redundant_conditions(stmts)
    assert findings(diags) == [("redundant-condition", 2, 1)]
    # oracle for the derived expectation: the two bodies flatten to the
    # same token texts, so statement-list equality must hold
    then_body, elif_body = stmts[0].then_body, stmts[0].elifs[0][1]
    flat = lambda body: [t.text for s in body for t in s.expr.tokens]
    assert flat(then_body) == flat(elif_body)


def test_distinct_conditions_and_bodies_are_clean():
    stmts = parse_source("if (a) f(); else if (b) g();")
    assert check_redundant_conditions(stmts) == []


def test_then_vs_else_duplicate_body():
    stmts = parse_source("if (a) { f(); g(); } else { f(); g(); }")
    assert len(check_redundant_conditions(stmts)) == 1


def test_nested_ifs_are_visited():
    stmts = parse_source("while (x) { if (c) m(); else if (c) n(); }")
    assert len(check_redundant_conditions(stmts)) == 1


def test_permuting_duplicate_arms_moves_the_report_later():
    a = check_redundant_conditions(parse_source("if (a) f(); else if (b) g(); else if (a) h();"))
    b = check_redundant_conditions(parse_source("if (b) g(); else if (a) f(); else if (a) h();"))
    assert len(a) == len(b) == 1
    assert a[0].span.start.offset > a[0].related[0].offset
    assert b[0].span.start.offset > b[0].related[0].offset


# -- redundant branches (switch) ------------------------------------------------


def test_duplicate_case_label():
    stmts = parse_source("switch (x) { case 1: f(); break; case 1: g(); break; }")
    diags = check_redundant_branches(stmts)
    assert len(diags) == 1 and "label" in diags[0].message


def test_empty_fallthrough_bodies_are_exempt():
    stmts = parse_source("switch (x) { case 1: case 2: f(); break; }")
    # derived from the case-extent rule: arm one's body is the empty list
    assert stmts[0].cases[0].body == []
    assert check_redundant_branches(stmts) == []


def test_duplicate_case_bodies():
    stmts = parse_source("switch (x) { case 1: f(); break; case 2: f(); break; }")
    diags = check_redundant_branches(stmts)
    assert len(diags) == 1 and "body" in diags[0].message


def test_duplicate_default_is_reported():
    stmts = parse_source("switch (x) { default: f(); break; default: g(); break; }")
    diags = check_redundant_branches(stmts)
    assert any("label" in d.message for d in diags)


def test_redundancy_checkers_key_each_arm_once(monkeypatch):
    # Arm i sits on line i + 1 (chain) and line ARMS + i + 3 (switch); the
    # last arm of each repeats arm 7.
    arms = 300
    lines = ["if (x == 0) f0();"]
    lines += [f"else if (x == {i}) f{i}();" for i in range(1, arms)]
    lines += ["else if (x == 7) f7();", "switch (x) {"]
    lines += [f"case {i}: g{i}(); break;" for i in range(arms)]
    lines += ["case 7: g7(); break;", "}"]
    stmts = parse_source("\n".join(lines))

    calls: Counter[str] = Counter()
    for name in ("expr_key", "stmt_key"):
        def counted(node, real=getattr(microgrammar, name), name=name):
            calls[name] += 1
            return real(node)

        monkeypatch.setattr(microgrammar, name, counted)
        monkeypatch.setattr(checkers, name, counted, raising=False)
    conds = check_redundant_conditions(stmts)
    branches = check_redundant_branches(stmts)

    # each arm's condition, label and body is keyed a bounded number of times
    assert sum(calls.values()) <= 20 * (arms + 1)
    assert findings(conds) == [("redundant-condition", arms + 1, 8)] * 2
    assert findings(branches) == [("redundant-branch", 2 * arms + 3, arms + 10)] * 2


# -- loop direction ---------------------------------------------------------------


def test_decrement_against_upper_bound_warns():
    diags = check_loop_direction(parse_source("for (i = 10; i < n; i--) f(i);"))
    assert len(diags) == 1 and diags[0].checker == "loop-direction"


def test_increment_toward_upper_bound_is_clean():
    assert check_loop_direction(parse_source("for (i = 0; i < n; i++) f(i);")) == []


def test_update_variable_absent_from_condition_is_clean():
    # oracle: token-membership scan of the condition for "i" fails
    stmts = parse_source("for (i = 10; j < n; i--) f(i);")
    cond_texts = {t.text for t in stmts[0].cond.tokens}
    assert "i" not in cond_texts
    assert check_loop_direction(stmts) == []


def test_increment_against_lower_bound_warns():
    diags = check_loop_direction(parse_source("for (i = n; i >= 0; i++) f(i);"))
    assert len(diags) == 1


def test_unrefined_header_parts_stay_silent():
    assert check_loop_direction(parse_source("for (i = 0; i < n; i = i + 2) f(i);")) == []


def test_warning_matrix_is_exactly_the_contradiction_set():
    compare_ops = ["<", "<=", ">", ">=", "==", "!="]
    update_ops = ["++", "--", "+=", "-="]
    expected_warn = {(c, u) for c in ("<", "<=") for u in ("--", "-=")} | {
        (c, u) for c in (">", ">=") for u in ("++", "+=")
    }
    got_warn = set()
    for cop in compare_ops:
        for uop in update_ops:
            update = f"i{uop}" if uop in ("++", "--") else f"i {uop} 2"
            src = f"for (i = 0; i {cop} n; {update}) f(i);"
            if check_loop_direction(parse_source(src)):
                got_warn.add((cop, uop))
    assert got_warn == expected_warn


# -- null dereference ---------------------------------------------------------------


def test_deref_then_check_c_style():
    src = "Value *o = I0->getOperand(0);\nif (I0) f();"
    diags = check_null_deref(parse_source(src), C)
    assert findings(diags) == [("null-deref", 2, 1)]


def test_member_access_then_check_java_style():
    src = "int cap = output.length - off;\nif ((output == null) || (cap < min)) g();"
    stmts = parse_statements(tokenize(src, JAVA), JAVA)
    diags = check_null_deref(stmts, JAVA)
    assert findings(diags) == [("null-deref", 2, 1)]


def test_root_assignment_kills_member_paths():
    src = "new_state = state->work(object, event);\nobject->state = state = new_state;\nif (state->work) { f(); }"
    assert check_null_deref(parse_source(src), C) == []


def test_without_the_kill_the_finding_returns():
    src = "new_state = state->work(object, event);\nif (state->work) { f(); }"
    diags = check_null_deref(parse_source(src), C)
    assert findings(diags) == [("null-deref", 2, 1)]


def test_guard_idiom_is_clean():
    # derived: instrument the event log and confirm the test event
    # precedes the dereference event
    stmts = parse_source("if (p && p->x) f();")
    events = list(iter_null_events(stmts, C))
    test_idx = next(i for i, e in enumerate(events) if isinstance(e, NullTestEvent))
    deref_idx = next(i for i, e in enumerate(events) if isinstance(e, DerefEvent))
    assert test_idx < deref_idx
    assert check_null_deref(stmts, C) == []


@pytest.mark.parametrize(
    "stmt,reported",
    [
        ("if (p) g();", True),
        ("if (a) g(); else if (p) h();", True),
        ("while (p) g();", True),
        ("for (i = 0; p; i++) g();", True),
        ("do g(); while (p);", False),
        ("for (p; i; p) g();", False),
        ("switch (p) { case p: g(); }", False),
    ],
)
def test_only_condition_positions_test_for_null(stmt, reported):
    diags = check_null_deref(parse_source(f"p->f(x);\n{stmt}"), C)
    assert findings(diags) == ([("null-deref", 2, 1)] if reported else [])


def test_not_null_comparison_also_counts_as_check():
    src = "p->f(x);\nif (p != NULL) g();"
    assert len(check_null_deref(parse_source(src), C)) == 1


def test_bang_test_counts_as_check():
    src = "p->f(x);\nif (!p) g();"
    assert len(check_null_deref(parse_source(src), C)) == 1


def test_one_report_per_chain():
    src = "p->f(x);\nif (p) g();\nif (p) h();"
    assert len(check_null_deref(parse_source(src), C)) == 1


def test_reassigned_pointer_walk_is_clean():
    src = "p = p->next;\nif (p) g();"
    assert check_null_deref(parse_source(src), C) == []


def test_update_kills_tracking():
    src = "p->f(x);\np++;\nif (p) g();"
    assert check_null_deref(parse_source(src), C) == []


# Known answers for the scope-reset rule: ``p->a(x);`` on line 1, ``if (p)``
# on line 2.  Leaving a top-level compound statement clears what was
# dereferenced; leaving a nested one, or a top-level plain statement, does not.
RESETTING = [
    "void f() { p->a(x); }\nvoid g() { if (p) h(); }",
    "{ p->a(x); }\nif (p) h();",
    "if (c) p->a(x);\nif (p) h();",
    "while (c) p->a(x);\nif (p) h();",
    "do p->a(x); while (c);\nif (p) h();",
    "for (;;) p->a(x);\nif (p) h();",
    "switch (c) { case 1: p->a(x); }\nif (p) h();",
]
KEEPING = [
    "void f() { { p->a(x); }\n if (p) h(); }",
    "void f() { if (c) p->a(x);\n if (p) h(); }",
    "p->a(x);\nif (p) h();",
]


def test_top_level_compound_resets_state():
    for src in RESETTING:
        assert check_null_deref(parse_source(src), C) == [], src
    for src in KEEPING:
        first, second = src.split("\n")
        got = [
            (d.span.start.line, d.span.start.column, d.related[0].line, d.related[0].column)
            for d in check_null_deref(parse_source(src), C)
        ]
        # one finding, at the tested ``p``, citing the dereferenced ``p``
        assert got == [(2, second.index("(p)") + 2, 1, first.index("p->") + 1)], src


def test_checker_matches_brute_force_oracle_on_random_programs():
    rng = random.Random(1234)
    for _ in range(60):
        src = random_micro_program(rng)
        stmts = parse_source(src)
        got = {
            (d.span.start.line, d.span.start.column, d.related[0].line)
            for d in check_null_deref(stmts, C)
        }
        want = set(null_oracle(list(iter_null_events(stmts, C))))
        assert got == want, f"divergence on:\n{src}"


def _tree_module_calls(fn):
    """How many Python calls (and generator resumptions) ``fn()`` makes in
    ``microgrammar`` and ``checkers``: a clock-free measure of its steps."""
    files = {microgrammar.__file__, checkers.__file__}
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code.co_filename in files

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_walks_and_the_event_log_take_one_step_per_node_at_any_depth():
    # Handing each node up through every enclosing level would make the
    # cost of a nest grow with the square of its depth.
    def costs(depth):
        stmts = parse_source("void f(void) {" + " if (p) { p->x = 1;" * depth + " }" * (depth + 1))
        walk = _tree_module_calls(lambda: list(microgrammar.walk_statements(stmts)))
        return walk, _tree_module_calls(lambda: list(iter_null_events(stmts, C)))

    (walk30, events30), (walk60, events60) = costs(30), costs(60)
    assert walk60 <= 2.2 * walk30, (walk30, walk60)
    assert events60 <= 2.2 * events30, (events30, events60)


@pytest.mark.parametrize(
    "level, close, check",
    [
        (" if (p) { p->x = 1;", " }", check_redundant_conditions),
        (" if (p) { p->x = 1;", " } else { q(); }", check_redundant_conditions),
        (" switch (p) { case 1: p->x = 1;", " }", check_redundant_branches),
    ],
    ids=["if", "if-else", "switch"],
)
def test_redundancy_checkers_key_a_nest_once_per_level(level, close, check):
    # A body no other arm matches in length cannot repeat one, so the
    # enclosing chains need not key it; keying it anyway would grow the cost
    # of a nest with the square of its depth.
    def cost(depth):
        stmts = parse_source("void f(void) {" + level * depth + close * depth + " }")
        return _tree_module_calls(lambda: check(stmts))

    cost30, cost60 = cost(30), cost(60)
    assert cost60 <= 2.2 * cost30, (cost30, cost60)


# -- driver ------------------------------------------------------------------------


def test_run_checkers_requires_a_nonempty_selection():
    import pytest

    with pytest.raises(ValueError):
        run_checkers([], C, enabled=())
    with pytest.raises(ValueError):
        run_checkers([], C, enabled=("no-such-checker",))


def test_checker_independence():
    src = (
        "if (a) f(); else if (a) f();\n"
        "switch (x) { case 1: m(); break; case 1: m(); break; }\n"
        "for (i = 0; i < n; i--) body();\n"
        "p->q(z);\nif (p) t();\n"
    )
    stmts = parse_source(src)
    together = run_checkers(stmts, C)
    for checker in ALL_CHECKER_IDS:
        alone = run_checkers(stmts, C, enabled=(checker,))
        assert alone == [d for d in together if d.checker == checker]
    assert {d.checker for d in together} == set(ALL_CHECKER_IDS)


def test_positions_are_reporting_only():
    src = "p->q(z);\nif (p) t();\nif (a) f(); else if (a) g();"
    shifted = "\n\n\n" + src.replace("\n", "\n\n")
    one = run_checkers(parse_source(src), C)
    two = run_checkers(parse_source(shifted), C)
    assert [(d.checker, d.message) for d in one] == [(d.checker, d.message) for d in two]


def test_results_are_sorted_by_position_then_checker():
    src = "for (i = 0; i < n; i--) { p->q(z); if (p) t(); }\nif (a) f(); else if (a) g();"
    diags = run_checkers(parse_source(src), C)
    keys = [(d.file, d.span.start.offset, d.checker) for d in diags]
    assert keys == sorted(keys)


def test_checker_ids_are_stable_strings():
    assert set(ALL_CHECKER_IDS) == {
        "redundant-condition",
        "redundant-branch",
        "loop-direction",
        "null-deref",
    }
    assert CheckerId.NULL_DEREF.value == "null-deref"


# -- findings hold resolved positions -------------------------------------------

# One finding from each checker, in a source whose text is easy to spot.
ALL_FOUR = """\
void f(struct s *p, int i, int a) {
  use(p->x);
  if (p == NULL) return;
  if (a > 0) g(); else if (a > 0) h();
  switch (a) { case 1: g(); break; case 1: h(); break; }
  for (i = 0; i < 10; i--) g();
}
"""


def _reachable(value, seen=None):
    """``value`` and everything inside it through tuples."""
    seen = [] if seen is None else seen
    seen.append(value)
    if isinstance(value, tuple):
        for item in value:
            _reachable(item, seen)
    return seen


def test_findings_hold_resolved_positions_and_no_source():
    from xcheck.lexer import Position
    from xcheck.microgrammar import Span

    diags = run_checkers(parse_source(ALL_FOUR), C, path="t.c")
    assert sorted({d.checker for d in diags}) == sorted(ALL_CHECKER_IDS)
    for d in diags:
        assert type(d.span) is Span
        positions = [d.span.start, d.span.end] + ([d.related[0]] if d.related else [])
        for pos in positions:
            assert type(pos) is Position
            line = ALL_FOUR.count("\n", 0, pos.offset) + 1
            column = pos.offset - ALL_FOUR.rfind("\n", 0, pos.offset)
            assert tuple(pos) == (line, column, pos.offset)
        assert not any(item is ALL_FOUR or item == ALL_FOUR for item in _reachable(d))
        assert ALL_FOUR not in repr(d) and "source" not in repr(d)
    null = next(d for d in diags if d.checker == CheckerId.NULL_DEREF.value)
    assert (tuple(null.span.start), tuple(null.span.end)) == ((3, 7, 55), (3, 16, 64))
    assert tuple(null.related[0]) == (2, 7, 42)
