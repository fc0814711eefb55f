"""Checker behavior, including the event-log oracle for derived cases."""

import os
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from support import (
    C,
    CPP,
    JAVA,
    null_oracle,
    parse_source,
    random_micro_program,
)
from xcheck.checkers import (
    CHECKERS,
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
from xcheck.profiles import profile_for


def findings(diags):
    return [(d.checker, d.span.start.line, d.related[0].line if d.related else None) for d in diags]


# -- redundant conditions -----------------------------------------------------


def test_duplicate_elif_condition_reported_on_later_arm():
    stmts = parse_source("if (a > 0) f();\nelse if (a > 0) g();")
    diags = check_redundant_conditions(stmts, C)
    assert findings(diags) == [("redundant-condition", 2, 1)]


def test_equal_branch_bodies_reported():
    stmts = parse_source("if (a) f();\nelse if (b) f();")
    diags = check_redundant_conditions(stmts, C)
    assert findings(diags) == [("redundant-condition", 2, 1)]
    # oracle for the derived expectation: the two bodies flatten to the
    # same token texts, so statement-list equality must hold
    then_body, elif_body = stmts[0].then_body, stmts[0].elifs[0][1]
    flat = lambda body: [t.text for s in body for t in s.expr.tokens]
    assert flat(then_body) == flat(elif_body)


def test_distinct_conditions_and_bodies_are_clean():
    stmts = parse_source("if (a) f(); else if (b) g();")
    assert check_redundant_conditions(stmts, C) == []


def test_then_vs_else_duplicate_body():
    stmts = parse_source("if (a) { f(); g(); } else { f(); g(); }")
    assert len(check_redundant_conditions(stmts, C)) == 1


def test_nested_ifs_are_visited():
    stmts = parse_source("while (x) { if (c) m(); else if (c) n(); }")
    assert len(check_redundant_conditions(stmts, C)) == 1


def test_permuting_duplicate_arms_moves_the_report_later():
    a = check_redundant_conditions(parse_source("if (a) f(); else if (b) g(); else if (a) h();"), C)
    b = check_redundant_conditions(parse_source("if (b) g(); else if (a) f(); else if (a) h();"), C)
    assert len(a) == len(b) == 1
    assert a[0].span.start.offset > a[0].related[0].offset
    assert b[0].span.start.offset > b[0].related[0].offset


@pytest.mark.parametrize(
    "chain, reported",
    [
        ("if (x++ > 0) g(); else if (++x > 0) h();", False),  # each tests another value of x
        ("if (x++ > 0) g(); else if (x++ > 0) h();", True),
        ("if ((x++) > 0) g(); else if (++x > 0) h();", False),
        ("if ((++x) > 0) g(); else if (++x > 0) h();", True),
        ("if (a) i++; else if (b) ++i;", False),  # bodies key structurally too
        ("if (a) --i; else if (b) --i;", True),
    ],
    ids=["post-pre", "post-post", "paren-post-pre", "paren-pre-pre", "bodies", "pre-bodies"],
)
def test_prefix_and_postfix_updates_key_apart(chain, reported):
    diags = check_redundant_conditions(parse_source("void f(int x) { " + chain + " }"), C)
    assert len(diags) == reported, diags


# -- redundant branches (switch) ------------------------------------------------


def test_duplicate_case_label():
    stmts = parse_source("switch (x) { case 1: f(); break; case 1: g(); break; }")
    diags = check_redundant_branches(stmts, C)
    assert len(diags) == 1 and "label" in diags[0].message


def test_empty_fallthrough_bodies_are_exempt():
    stmts = parse_source("switch (x) { case 1: case 2: f(); break; }")
    # derived from the case-extent rule: arm one's body is the empty list
    assert stmts[0].cases[0].body == []
    assert check_redundant_branches(stmts, C) == []


def test_scoped_case_labels_in_c_are_distinct():
    # A C++ header lexes as C: each label must keep its whole scoped name.
    stmts = parse_source("switch (c) { case Color::Red: f(); break; case Color::Blue: g(); break; }")
    assert check_redundant_branches(stmts, C) == []


def test_duplicate_case_bodies():
    stmts = parse_source("switch (x) { case 1: f(); break; case 2: f(); break; }")
    diags = check_redundant_branches(stmts, C)
    assert len(diags) == 1 and "body" in diags[0].message


def test_duplicate_default_is_reported():
    stmts = parse_source("switch (x) { default: f(); break; default: g(); break; }")
    diags = check_redundant_branches(stmts, C)
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
    conds = check_redundant_conditions(stmts, C)
    branches = check_redundant_branches(stmts, C)

    # each arm's condition, label and body is keyed a bounded number of times
    assert sum(calls.values()) <= 20 * (arms + 1)
    assert findings(conds) == [("redundant-condition", arms + 1, 8)] * 2
    assert findings(branches) == [("redundant-branch", 2 * arms + 3, arms + 10)] * 2


def test_an_if_with_one_arm_is_not_keyed(monkeypatch):
    one_arm = parse_source("\n".join(f"if (x == {i}) {{ if (p) f{i}(); }}" for i in range(150)))
    pair = parse_source("if (x == 0) f();\nelse f();")

    calls: Counter[str] = Counter()
    for name in ("expr_key", "stmt_key"):
        def counted(node, real=getattr(microgrammar, name), name=name):
            calls[name] += 1
            return real(node)

        monkeypatch.setattr(microgrammar, name, counted)
        monkeypatch.setattr(checkers, name, counted, raising=False)
    assert check_redundant_conditions(one_arm, C) == []
    assert calls == Counter()  # 300 ifs, none with an else
    # an if/else pair is still compared
    assert findings(check_redundant_conditions(pair, C)) == [("redundant-condition", 2, 1)]
    assert calls["stmt_key"] > 0


# -- loop direction ---------------------------------------------------------------


def test_decrement_against_upper_bound_warns():
    diags = check_loop_direction(parse_source("for (i = 10; i < n; i--) f(i);"), C)
    assert len(diags) == 1 and diags[0].checker == "loop-direction"


def test_increment_toward_upper_bound_is_clean():
    assert check_loop_direction(parse_source("for (i = 0; i < n; i++) f(i);"), C) == []


def test_update_variable_absent_from_condition_is_clean():
    # oracle: token-membership scan of the condition for "i" fails
    stmts = parse_source("for (i = 10; j < n; i--) f(i);")
    cond_texts = {t.text for t in stmts[0].cond.tokens}
    assert "i" not in cond_texts
    assert check_loop_direction(stmts, C) == []


def test_increment_against_lower_bound_warns():
    diags = check_loop_direction(parse_source("for (i = n; i >= 0; i++) f(i);"), C)
    assert len(diags) == 1


def test_unrefined_header_parts_stay_silent():
    assert check_loop_direction(parse_source("for (i = 0; i < n; i = i + 2) f(i);"), C) == []


def test_warning_matrix_is_exactly_the_contradiction_set():
    compare_ops = ["<", "<=", ">", ">=", "==", "!="]
    update_ops = ["++", "--", "+=", "-="]
    expected_warn = {(c, u) for c in ("<", "<=") for u in ("--", "-=")} | {
        (c, u) for c in (">", ">=") for u in ("++", "+=")
    }
    mirror = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
    got_warn, got_mirrored = set(), set()
    for cop in compare_ops:
        for uop in update_ops:
            update = f"i{uop}" if uop in ("++", "--") else f"i {uop} 2"
            src = f"for (i = 0; i {cop} n; {update}) f(i);"
            if check_loop_direction(parse_source(src), C):
                got_warn.add((cop, uop))
            if check_loop_direction(parse_source(f"for (i = 0; n {cop} i; {update}) f(i);"), C):
                got_mirrored.add((mirror[cop], uop))
    assert got_warn == expected_warn
    assert got_mirrored == expected_warn


@pytest.mark.parametrize(
    "header, reported",
    [
        ("for (i = 0; n > i; i++)", False),  # the bound on the left, read as i < n
        ("for (i = n; 0 < i; i++)", True),  # read as i > 0
        ("for (__i = 0; __s >= _S_min_len[__i+1]; ++__i)", False),  # libstdc++ ext/ropeimpl.h
        ("for (i = n; i + 1 < n; i--)", False),  # the variable inside a side
        ("for (p->i = n; p->i > 0; p->i++)", True),
        ("for (p->i = n; p > 0; p->i++)", False),
        ("for (i = 0; i < n; --i)", True),  # a prefix update walks the same way
    ],
    ids=["yoda", "mirrored", "libstdcxx", "expression-side", "path", "root-of-path", "prefix"],
)
def test_loop_direction_needs_the_update_target_as_one_whole_side(header, reported):
    assert len(check_loop_direction(parse_source(header + " f(i);"), C)) == reported


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


def test_a_kill_drops_every_path_from_its_root_and_no_other():
    src = "void h(void) { use(p->a->b); use(q->c); p = 0; if (p->a) f(); if (q) g(); }"
    assert [d.message for d in check_null_deref(parse_source(src), C)] == [
        "'q' checked for null here but dereferenced earlier"
    ]


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
        ("if (NULL) g();", False),
        ("if (0) g();", False),
        ("if (p->f) g();", True),
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


# Brace groups inside a function that a function-scope reset must not take for
# the end of a declaration: each sits between a dereference of ``p`` and its
# null test, and the use-then-check is still reported.  A lambda inside a
# function does not end the function's scope either.
IN_FUNCTION = {
    "java": ("class A {\n void m(Node p) {\n use(p.next);", "if (p == null) return;\n }\n}", [
        "synchronized (this) { tick(); }",
        "Runnable r = new Runnable() { public void run() { tick(); } };",
        "int[] xs = new int[] {1, 2};",
        "try { tick(); } finally { tock(); }",
    ]),
    "cpp": ("void f(Node *p) {\n use(p->x);", "if (p == nullptr) return;\n}", [
        "int xs[] = {1, 2};",
        "try { h(); } catch (...) { }",
        "auto g = [&](int k) { return k; };",
        "std::vector<int> v{1, 2};",
    ]),
    "c": ("static struct node *make(struct node *p) {\n use(p->x);", "if (p == NULL) return 0;\n return p;\n}", [
        "int xs[] = {1, 2};",
    ]),
}


@pytest.mark.parametrize(
    "language,stmt", [(language, stmt) for language, (_, _, stmts) in IN_FUNCTION.items() for stmt in stmts]
)
def test_a_brace_group_inside_a_function_keeps_its_state(language, stmt):
    head, tail, _ = IN_FUNCTION[language]
    profile = {"c": C, "cpp": CPP, "java": JAVA}[language]
    source = f"{head}\n {stmt}\n {tail}"
    use = head.count("\n") + 1  # the head's last line dereferences ``p``
    test = source.split("\n")[use + 1]
    diags = check_null_deref(parse_source(source, profile), profile)
    got = [(d.span.start.line, d.span.start.column, d.related[0].line) for d in diags]
    # one finding, at the tested ``p``, citing the line that dereferenced it
    assert got == [(use + 2, test.index("(p") + 2, use)]


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


def _tree_module_call_names(fn):
    """The Python calls (and generator resumptions) ``fn()`` makes in
    ``microgrammar`` and ``checkers``, counted by function name."""
    files = {microgrammar.__file__, checkers.__file__}
    calls = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            calls[frame.f_code.co_name] += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _tree_module_calls(fn):
    """How many Python calls (and generator resumptions) ``fn()`` makes in
    ``microgrammar`` and ``checkers``: a clock-free measure of its steps."""
    return sum(_tree_module_call_names(fn).values())


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


def test_a_kill_takes_one_step_at_any_number_of_tracked_paths():
    # Scanning every tracked path for each kill would grow with the square
    # of the dereferences that precede the assignments.
    def cost(n):
        src = "void f(void) {" + "".join(f" use(p{i}->a);" for i in range(n))
        stmts = parse_source(src + "".join(f" x{i} = 2;" for i in range(n)) + " }")
        return _tree_module_calls(lambda: check_null_deref(stmts, C))

    cost200, cost400 = cost(200), cost(400)
    assert cost400 <= 2.2 * cost200, (cost200, cost400)


def _long_path(steps):
    prefix = "p" + "->x" * (steps - 1)
    return parse_source(f"void f(void) {{ use({prefix}->x); if ({prefix}) g(); }}")


def test_a_long_access_path_logs_a_bounded_number_of_names_per_step():
    # Logging each prefix as its own tuple would grow the log with the square
    # of the path's length.
    def cost(steps):
        stmts = _long_path(steps)
        assert len(check_null_deref(stmts, C)) == 1
        events = list(iter_null_events(stmts, C))
        return sum(len(field) if isinstance(field, tuple) else 1 for ev in events for field in ev)

    cost500, cost1000 = cost(500), cost(1000)
    assert cost1000 <= 2.2 * cost500, (cost500, cost1000)


def test_the_log_of_a_long_access_path_stays_small():
    stmts = _long_path(4000)
    tracemalloc.start()
    try:
        list(iter_null_events(stmts, C))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, peak


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
        return _tree_module_calls(lambda: check(stmts, C))

    cost30, cost60 = cost(30), cost(60)
    assert cost60 <= 2.2 * cost30, (cost30, cost60)


_NO_REPEAT_CHAINS = {
    "else-if": lambda n: "void f(int x) { if (x == 0) g(0);" + "".join(f" else if (x == {i}) g({i});" for i in range(1, n)) + " }",
    "switch": lambda n: "void f(int x) { switch (x) {" + "".join(f" case {i}: g({i}); break;" for i in range(n)) + " } }",
}


@pytest.mark.parametrize("shape", sorted(_NO_REPEAT_CHAINS))
def test_a_chain_with_no_repeat_resolves_no_extent_and_costs_linear_steps(shape):
    # Only a repeat is reported, so only a repeat needs its span: building
    # every condition's, label's and body's extent up front is waste.
    def calls(n):
        stmts, diags = parse_source(_NO_REPEAT_CHAINS[shape](n)), []
        names = _tree_module_call_names(lambda: diags.extend(run_checkers(stmts, C)))
        assert diags == []
        return names

    calls300, calls600 = calls(300), calls(600)
    for names in (calls300, calls600):
        assert names["_extent"] == names["_body_span"] == 0, names
    cost300, cost600 = sum(calls300.values()), sum(calls600.values())
    assert cost600 <= 2 * cost300, (cost300, cost600)


def test_no_xcheck_class_subclasses_a_class_the_checkers_compare_exactly():
    # The checkers and the walk dispatch on ``x.__class__ is Cls``: a subclass
    # would silently take another branch, so it fails here instead.
    import importlib
    import pkgutil

    import xcheck
    from xcheck.checkers import KillEvent, ResetEvent
    from xcheck.microgrammar import (
        AccessPath, Assign, Atom, Call, Compare, For, If, Logical, Not, Switch, Update, Wildcard, WildcardStmt,
    )

    for module in pkgutil.walk_packages(xcheck.__path__, "xcheck."):
        importlib.import_module(module.name)
    exact = [
        Wildcard, Atom, AccessPath, Compare, Call, Logical, Not, Assign, Update,
        WildcardStmt, If, Switch, For, DerefEvent, NullTestEvent, KillEvent, ResetEvent,
    ]
    stack, subclasses = list(exact), []
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.split(".")[0] == "xcheck":
                subclasses.append(sub)
    assert subclasses == []


# -- driver ------------------------------------------------------------------------


def test_run_checkers_requires_a_nonempty_selection():
    import pytest

    with pytest.raises(ValueError):
        run_checkers([], C, enabled=())
    with pytest.raises(ValueError):
        run_checkers([], C, enabled=("no-such-checker",))


def test_a_checker_is_one_row(monkeypatch, tmp_path):
    import io

    from xcheck import cli
    from xcheck.diagnostics import finding
    from xcheck.microgrammar import While

    def check_demo(node, profile, path):
        return [finding("demo", "a while loop", path, node.span)]

    monkeypatch.setitem(checkers.CHECKERS, "demo", (While, check_demo))
    source = "void f(int x) {\n  while (x) x--;\n}\n"
    assert findings(run_checkers(parse_source(source), C, enabled=("demo",))) == [("demo", 2, None)]
    path = tmp_path / "t.c"
    path.write_text(source)
    for argv in (["--checkers", "demo", str(path)], [str(path)]):  # named, and among the default
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(cli.parse_args(argv), out=out, err=err) == 1, err.getvalue()
        assert out.getvalue() == f"{path}:2:3: warning [demo]: a while loop\n"
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["--checkers", "made-up", str(path)])
    assert exc.value.code == 2


def test_checker_independence(monkeypatch):
    src = (
        "if (a) f(); else if (a) f();\n"
        "switch (x) { case 1: m(); break; case 1: m(); break; }\n"
        "for (i = 0; i < n; i--) body();\n"
        "p->q(z);\nif (p) t();\n"
    )
    stmts = parse_source(src)
    walks = 0

    def counted(tree):
        nonlocal walks
        walks += 1
        return microgrammar.walk_statements(tree)

    monkeypatch.setattr(checkers, "walk_statements", counted)
    together = run_checkers(stmts, C)
    assert walks == 1  # every node checker shares one walk
    for checker in CHECKERS:
        walks = 0
        alone = run_checkers(stmts, C, enabled=(checker,))
        assert alone == [d for d in together if d.checker == checker]
        assert walks == (0 if checker == "null-deref" else 1), checker  # the event log reads the tree itself
    assert {d.checker for d in together} == set(CHECKERS)


WHOLE_TREE_NAMES = {
    "redundant-condition": check_redundant_conditions,
    "redundant-branch": check_redundant_branches,
    "loop-direction": check_loop_direction,
}


def _whole_tree_inputs():
    from xcheck.fixtures import builtin_cases, load_source

    golden = os.path.join(os.path.dirname(__file__), "golden")
    for case in builtin_cases():
        yield pytest.param(case.filename, load_source(case), profile_for(case.language), id=case.name)
    for name in ("all_forms.cpp", "empty_slots.c"):
        with open(os.path.join(golden, name), encoding="utf-8") as fh:
            yield pytest.param(name, fh.read(), profile_for(name), id=name)
    # A repeated condition on line 3 and a repeated body on line 2: the chain's
    # own order puts conditions first, run_checkers puts line 2 first.
    yield pytest.param("chain.c", "if (a) f();\nelse if (b) f();\nelse if (a) g();", C, id="else-if-chain")


@pytest.mark.parametrize("path, source, profile", _whole_tree_inputs())
def test_each_whole_tree_name_is_run_checkers_with_its_one_id(path, source, profile):
    stmts = parse_source(source, profile)
    for checker, check in WHOLE_TREE_NAMES.items():
        assert check(stmts, profile, path) == run_checkers(stmts, profile, (checker,), path), checker


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
    assert set(CHECKERS) == {
        "redundant-condition",
        "redundant-branch",
        "loop-direction",
        "null-deref",
    }


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
    assert sorted({d.checker for d in diags}) == sorted(CHECKERS)
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
    null = next(d for d in diags if d.checker == "null-deref")
    assert (tuple(null.span.start), tuple(null.span.end)) == ((3, 7, 55), (3, 16, 64))
    assert tuple(null.related[0]) == (2, 7, 42)
