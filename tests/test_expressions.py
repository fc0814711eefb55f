"""Wildcard refinement (the total expression parser) and structural equality."""

import random

import pytest

from support import (
    C,
    CPP,
    JAVA,
    TreeGen,
    assert_refinement_sound,
    parse_source,
    wild,
)
from xcheck.checkers import check_redundant_conditions, iter_null_events
from xcheck.lexer import tokenize
from xcheck.microgrammar import (
    AccessPath,
    Assign,
    Atom,
    Call,
    Compare,
    If,
    Logical,
    Not,
    Update,
    Wildcard,
    expr_key,
    parse_expression,
    parse_statements,
    stmt_key,
)


def refine(texts, profile=C):
    return parse_expression(wild(texts, profile), profile)


# -- refinement shapes ---------------------------------------------------------


def test_equality_comparison_with_null():
    e = refine(["output", "==", "null"], JAVA)
    assert isinstance(e, Compare) and e.op == "=="
    assert isinstance(e.lhs, Atom) and e.lhs.token.text == "output"
    assert isinstance(e.rhs, Atom) and e.rhs.token.text == "null"


def test_method_call_through_arrow_path():
    e = refine(["I0", "->", "getOperand", "(", "0", ")"], CPP)
    assert isinstance(e, Call)
    assert isinstance(e.callee, AccessPath)
    assert e.callee.root.text == "I0"
    assert [(op, t.text) for op, t in e.callee.steps] == [("->", "getOperand")]
    assert len(e.args) == 1 and e.args[0].token.text == "0"


def test_single_token_refines_to_atom():
    e = refine(["x"])
    assert isinstance(e, Atom) and e.token.text == "x"


@pytest.mark.parametrize("profile", [C, CPP, JAVA], ids=lambda p: p.name)
@pytest.mark.parametrize("op", ["=", "||", "&&", "<", "<=", ">", ">=", "==", "!=", "+=", "-="])
def test_a_lone_split_operator_is_its_shape_of_two_empty_parts(op, profile):
    # No shape of two empty parts: the slot is the operator's Atom, and the
    # outputs stay those that such a shape gives.
    source = f"if ({op}) f(); else if ({op}) g();"
    (stmt,) = parse_source(source, profile)
    second = source.rindex(op)
    for cond, at in ((stmt.cond, 4), (stmt.elifs[0][0], second)):
        assert isinstance(cond, Atom) and cond.token.text == op and expr_key(cond) == ("Atom", op)
        assert (cond.span.lo, cond.span.hi) == (at, at + len(op))
    # the two conditions key alike: one finding, at the second operator
    (diag,) = check_redundant_conditions([stmt], profile)
    assert (diag.span.start.offset, diag.related[0].offset) == (second, 4)
    # the slots add no null event (no test, dereference or kill): the log is the
    # reset at the end of the top-level if
    assert [type(e).__name__ for e in iter_null_events([stmt], profile)] == ["ResetEvent"]


def test_ternary_stays_wildcard():
    e = refine(["a", "?", "b", ":", "c"])
    assert isinstance(e, Wildcard)
    assert [t.text for t in e.tokens] == ["a", "?", "b", ":", "c"]


def test_assignment_chain_nests_to_the_right():
    e = refine(["object", "->", "state", "=", "state", "=", "new_state"])
    assert isinstance(e, Assign)
    assert isinstance(e.lhs, AccessPath) and e.lhs.root.text == "object"
    inner = e.rhs
    assert isinstance(inner, Assign)
    assert inner.lhs.token.text == "state" and inner.rhs.token.text == "new_state"


def test_logical_splits_and_parens_strip():
    e = refine(["(", "a", "==", "NULL", ")", "||", "(", "b", "<", "c", ")"])
    assert isinstance(e, Logical) and e.op == "||"
    assert isinstance(e.lhs, Compare) and e.lhs.op == "=="
    assert isinstance(e.rhs, Compare) and e.rhs.op == "<"
    # stripped-paren nodes keep the full covering slice
    assert [t.text for t in e.lhs.tokens] == ["(", "a", "==", "NULL", ")"]


def test_logical_precedence_over_and():
    e = refine(["a", "&&", "b", "||", "c"])
    assert isinstance(e, Logical) and e.op == "||"
    assert isinstance(e.lhs, Logical) and e.lhs.op == "&&"


def test_not_wraps_operand():
    e = refine(["!", "(", "p", ")"])
    assert isinstance(e, Not)
    assert isinstance(e.operand, Atom) and e.operand.token.text == "p"


def test_update_forms():
    trailing = refine(["x", "++"])
    assert isinstance(trailing, Update) and trailing.op == "++" and trailing.value is None
    leading = refine(["--", "x"])
    assert isinstance(leading, Update) and leading.op == "--"
    assert leading.target.token.text == "x"
    compound = refine(["i", "-=", "2"])
    assert isinstance(compound, Update) and compound.op == "-="
    assert compound.target.token.text == "i" and compound.value.token.text == "2"


def test_compare_requires_exactly_one_operator():
    # angle brackets of a template instantiation look like two comparisons
    e = refine(["foo", "<", "Bar", ">", "(", "x", ")"], CPP)
    assert isinstance(e, Wildcard)


def test_call_args_split_on_depth_zero_commas():
    e = refine(["f", "(", "a", ",", "g", "(", "b", ",", "c", ")", ",", "d", ")"])
    assert isinstance(e, Call) and len(e.args) == 3
    assert isinstance(e.args[1], Call) and len(e.args[1].args) == 2
    # empty parts: no argument for "()", an empty wildcard for each empty part
    for texts, empty in (
        ([], []),
        (["a", ","], [False, True]),
        ([",", "a"], [True, False]),
        (["a", ",", ",", "b"], [False, True, False]),
        ([","], [True, True]),
    ):
        e = refine(["f", "(", *texts, ")"])
        assert isinstance(e, Call), texts
        assert [isinstance(a, Wildcard) and a.tokens == () for a in e.args] == empty, texts


def test_call_requires_parens_to_cover_remainder():
    e = refine(["f", "(", "a", ")", ".", "g", "(", ")"])
    assert isinstance(e, Wildcard)  # method chains stay uninterpreted


def test_access_path_exact_match_only():
    path = refine(["state", "->", "work"])
    assert isinstance(path, AccessPath)
    assert path.root.text == "state"
    not_path = refine(["state", "->", "work", "+", "1"])
    assert isinstance(not_path, Wildcard)


def test_keyword_root_does_not_form_a_path():
    e = refine(["return", "p"])
    assert isinstance(e, Wildcard)


def test_compound_bitwise_assign_is_not_an_assignment():
    e = refine(["Flags", "&=", "I", "->", "getFastMathFlags", "(", ")"], CPP)
    assert isinstance(e, Wildcard)


def test_empty_wildcard_passes_through():
    from xcheck.lexer import Position
    from xcheck.microgrammar import Span

    anchor = Position(1, 1, 0)
    w = Wildcard((), Span(anchor, anchor))
    assert isinstance(parse_expression(w, C), Wildcard)


def test_refinement_never_fails_on_operator_soup():
    rng = random.Random(11)
    pool = ["(", ")", "=", "==", "&&", "!", "++", "--", "+=", ",", "a", "b", "1", "->", ".", "?", ":"]
    for _ in range(300):
        texts = [rng.choice(pool) for _ in range(rng.randint(1, 24))]
        e = refine(texts)
        assert_refinement_sound(e)
        # identical leaf coverage: the node covers exactly the input run
        assert [t.text for t in e.tokens] == texts


def test_refinement_soundness_on_real_statements():
    src = (
        "x = a->b->c(d, e) + 1;\n"
        "if (!(p == NULL) && q->r) s = t = u;\n"
        "for (i = 0; i < n; i += 2) total -= i;\n"
    )
    stmts = parse_statements(tokenize(src, C), C)
    for s in stmts:
        if hasattr(s, "expr"):
            assert_refinement_sound(s.expr)


# -- structural equality --------------------------------------------------------


def test_equality_ignores_positions():
    a = parse_source("if (x <= 2) f();")[0]
    b = parse_source("\n\n   if (x   <= 2)    f();")[0]
    assert stmt_key(a) == stmt_key(b)
    assert expr_key(a.cond) == expr_key(b.cond)


def test_different_constructors_are_never_equal():
    wildcard = wild(["x", "<=", "2"])
    compare = parse_expression(wild(["x", "<=", "2"]), C)
    assert isinstance(compare, Compare)
    assert expr_key(wildcard) != expr_key(compare)


def test_atoms_with_different_text_differ():
    assert expr_key(refine(["x"])) != expr_key(refine(["y"]))


def test_equality_laws_on_random_trees():
    for seed in range(80):
        a = TreeGen(seed).expr(3)
        clone = TreeGen(seed, pos_base=1000).expr(3)
        other = TreeGen(seed + 5000).expr(3)
        assert expr_key(a) == expr_key(a)
        assert expr_key(a) == expr_key(clone) and expr_key(clone) == expr_key(a)
        # equality agrees with the ordering: equal exactly when neither sorts first
        ka, ko = expr_key(a), expr_key(other)
        assert (ka == ko) == (not ka < ko and not ko < ka)


def test_statement_equality_laws_on_random_trees():
    for seed in range(60):
        a = TreeGen(seed).stmt(2)
        clone = TreeGen(seed, pos_base=777).stmt(2)
        assert stmt_key(a) == stmt_key(clone)


def test_order_is_total_over_mixed_trees():
    keys = [expr_key(TreeGen(seed).expr(3)) for seed in range(120)]
    keys.sort()  # must not raise on any pair the sort compares
    for i in range(len(keys) - 1):
        assert keys[i] <= keys[i + 1]


@pytest.mark.parametrize(
    "a,b",
    [
        ("if (a) f();", "if (a) f(); else {}"),
        ("switch (x) { default: f(); }", "switch (x) { case y: f(); }"),
        ("for (;;) f();", "for (;x;) f();"),
        ("for (x;;) f();", "for (;x;) f();"),
        # expressions key generically, by class, op and children
        ("f(a);", "f(a, b);"),
        ("f();", "f;"),
        ("x++;", "x += 1;"),
        ("x++;", "++x;"),  # they read different values of x
        ("if (!a) f();", "if (a) f();"),
        ("a = b;", "a == b;"),
    ],
)
def test_statement_key_tells_apart_shapes_that_differ(a, b):
    (sa,), (sb,) = parse_source(a), parse_source(b)
    assert stmt_key(sa) != stmt_key(sb)


def test_statement_key_tells_else_if_chain_from_nested_if_in_else():
    chain = parse_source("if (a) f(); else if (b) g();")[0]
    (cond, body), = chain.elifs
    nested = If(
        chain.cond, chain.then_body, [], [If(cond, body, [], None, chain.span)], chain.span, chain.incomplete
    )
    assert stmt_key(chain) != stmt_key(nested)
