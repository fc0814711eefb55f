"""Statement recognition: structure, recovery, spans, conservation, cost."""

import importlib.util
import os
import random
import sys
import tracemalloc

import pytest

from reference_parser import reference_parse_statements_debug
from support import (
    C,
    CPP,
    JAVA,
    assert_spans_nest,
    assert_token_conservation,
    parse_source,
    random_micro_program,
    random_token_source,
    toks,
)
from xcheck.checkers import check_null_deref
from xcheck.lexer import tokenize
from xcheck.microgrammar import (
    BODY,
    MAX_NESTING,
    AccessPath,
    Atom,
    Block,
    Call,
    Compare,
    DoWhile,
    For,
    If,
    Switch,
    Update,
    While,
    Wildcard,
    WildcardStmt,
    _bracket_table,
    _Parser,
    dump_statements,
    parse_statements,
    walk_statements,
)
from xcheck.profiles import parse_profile_text, profile_for


def table(texts, profile=C):
    return _bracket_table(toks(texts, profile), profile)


def parse_with_ledger(stream, profile=C):
    """The tree and the syntax-token ledger of the reference parser, which
    must build the same tree."""
    stmts = parse_statements(stream, profile)
    reference, acct = reference_parse_statements_debug(stream, profile)
    assert stmts == reference
    return stmts, acct


def debug_parse(source, profile=C):
    stmts, acct = parse_with_ledger(tokenize(source, profile), profile)
    return stmts, [t.text for t in acct.syntax_tokens], acct.iterations


# -- consuming single tokens (formerly the any_token primitive) ---------------


def test_any_token_consumes_one():
    # a failed statement shape hands back all it took and slides one token
    stmts, syntax, _ = debug_parse("do f();")
    assert syntax == ["do", ";"]
    assert len(stmts) == 1 and [t.text for t in stmts[0].expr.tokens] == ["f", "(", ")"]


def test_any_token_at_end_raises():
    # the parser never reads past the end of its range: no input, no loop,
    # and a body missing at the end is an empty, incomplete one
    assert debug_parse("") == ([], [], 0)
    node = parse_source("if (a)")[0]
    assert isinstance(node, If) and node.then_body == [] and node.incomplete


def test_any_token_single():
    stmts = parse_source("x")
    assert len(stmts) == 1 and [t.text for t in stmts[0].expr.tokens] == ["x"]


# -- statement runs (formerly the skip_to primitive) --------------------------


def test_skip_to_ignores_nested_terminators():
    # the ";" between parens sits at depth 1 and must not terminate
    stmts, syntax, _ = debug_parse("x = f(a; b);")
    assert len(stmts) == 1 and not stmts[0].incomplete
    assert [t.text for t in stmts[0].expr.tokens] == ["x", "=", "f", "(", "a", ";", "b", ")"]
    assert syntax == [";"]
    stmts = parse_source("x = (a; b); y;")
    assert [[t.text for t in s.expr.tokens] for s in stmts] == [["x", "=", "(", "a", ";", "b", ")"], ["y"]]


def test_skip_to_empty_statement():
    stmts, syntax, _ = debug_parse(";")
    assert len(stmts) == 1 and stmts[0].expr.tokens == () and not stmts[0].incomplete
    assert syntax == [";"]


def test_skip_to_missing_suffix_flags_and_returns_tokens():
    stmts, syntax, _ = debug_parse("a b")
    assert len(stmts) == 1 and stmts[0].incomplete
    assert isinstance(stmts[0].expr, Wildcard)
    assert [t.text for t in stmts[0].expr.tokens] == ["a", "b"]
    assert syntax == []


# -- the bracket table (formerly the balanced primitive) ----------------------


def test_balanced_counts_nested_pairs():
    assert table(["(", "a", "(", "b", ")", "c", ")"]) == [6, 1, 4, 3, 4, 5, 6]
    # a closer closes only the last open bracket of its own kind
    assert table(["(", "[", ")", "]"]) == [2, 3, 2, 3]
    # a closer that two kinds share closes the last open bracket of each
    shared = parse_profile_text("name = shared\noperators = ! ++ ?\npairs = ! ? ++ ?\n")
    assert table(["!", "++", "?", "?"], shared) == [2, 2, 2, 3]


def test_balanced_empty_interior():
    assert table(["(", ")"]) == [1, 1]


def test_balanced_unclosed_flags():
    # an unclosed opener matches the end; every other index maps to itself
    assert table(["(", "a", "{", "}"]) == [4, 1, 3, 3]
    # `( )` and `{ }` are brackets even where a profile's pairs leave them out
    angle_only = parse_profile_text("name = angle-only\noperators = < > = ;\npairs = < >\n")
    assert table(["(", "a", "{", "}"], angle_only) == [4, 1, 3, 3]
    assert table(["{", "<", "}", ">"], angle_only) == [2, 3, 2, 3]


# -- parse_statements: structure ----------------------------------------------


def test_if_then_while_statements():
    stmts = parse_source("if (x >= 3) foo();\nwhile (x <= 2) x++;")
    assert len(stmts) == 2
    first, second = stmts
    assert isinstance(first, If)
    assert isinstance(first.cond, Compare) and first.cond.op == ">="
    assert isinstance(first.cond.lhs, Atom) and first.cond.lhs.token.text == "x"
    assert isinstance(first.cond.rhs, Atom) and first.cond.rhs.token.text == "3"
    assert len(first.then_body) == 1
    call = first.then_body[0].expr
    assert isinstance(call, Call) and call.callee.token.text == "foo" and call.args == ()
    assert isinstance(second, While)
    assert isinstance(second.cond, Compare) and second.cond.op == "<="
    upd = second.body[0].expr
    assert isinstance(upd, Update) and upd.op == "++" and upd.target.token.text == "x"


def test_empty_source_parses_to_nothing():
    assert parse_source("") == []


def test_struct_region_degrades_but_if_is_recovered():
    stmts = parse_source("struct S { int a; }; if (p) q();")
    last = stmts[-1]
    assert isinstance(last, If)
    assert isinstance(last.cond, Atom) and last.cond.token.text == "p"
    # struct interior ends up behind a Block, not lost
    assert any(isinstance(s, Block) for s in stmts)


def test_for_with_empty_header_parts():
    stmts = parse_source("for (;;) x();")
    assert len(stmts) == 1
    loop = stmts[0]
    assert isinstance(loop, For)
    assert loop.init is None and loop.cond is None and loop.update is None
    assert len(loop.body) == 1


def test_for_header_splits_into_three_parts():
    loop = parse_source("for (i = 0; i < n; i++) work(i);")[0]
    assert isinstance(loop.init.lhs, Atom)
    assert isinstance(loop.cond, Compare) and loop.cond.op == "<"
    assert isinstance(loop.update, Update) and loop.update.op == "++"
    # a ";" inside brackets is not a header cut
    loop = parse_source("for (f(a;b); c; d) g();")[0]
    assert [[t.text for t in part.tokens] for part in (loop.init, loop.cond, loop.update)] == [
        ["f", "(", "a", ";", "b", ")"], ["c"], ["d"],
    ]


def test_range_for_header_degrades_to_single_condition():
    loop = parse_source("for (auto x : xs) use(x);", CPP)[0]
    assert isinstance(loop, For)
    assert loop.init is None and loop.update is None
    assert isinstance(loop.cond, Wildcard)
    assert [t.text for t in loop.cond.tokens] == ["auto", "x", ":", "xs"]
    # one or three depth-zero ";" degrade the same way
    for header in ("a;b", "a;b;c;d"):
        loop = parse_source(f"for ({header}) g();")[0]
        assert isinstance(loop, For) and loop.init is None and loop.update is None, header
        assert "".join(t.text for t in loop.cond.tokens) == header


def test_else_if_chain_is_flattened():
    stmts = parse_source("if (a) f(); else if (b) g(); else if (c) h(); else i();")
    assert len(stmts) == 1
    node = stmts[0]
    assert isinstance(node, If)
    assert [c.token.text for c, _ in node.elifs] == ["b", "c"]
    assert node.else_body is not None and len(node.else_body) == 1


def test_braced_bodies_are_statement_lists_not_wrapped_blocks():
    node = parse_source("if (a) { f(); g(); } else { h(); }")[0]
    assert len(node.then_body) == 2
    assert all(isinstance(s, WildcardStmt) for s in node.then_body)
    assert len(node.else_body) == 1


def test_do_while():
    stmts = parse_source("do { x--; } while (x > 0);")
    node = stmts[0]
    assert isinstance(node, DoWhile)
    assert isinstance(node.cond, Compare) and node.cond.op == ">"
    assert len(node.body) == 1


def test_nested_statements_are_descendants_not_siblings():
    stmts = parse_source("while (a) { if (b) { c(); } }")
    assert len(stmts) == 1
    outer = stmts[0]
    inner = outer.body[0]
    assert isinstance(inner, If)
    assert isinstance(inner.then_body[0], WildcardStmt)
    assert_spans_nest(stmts)


@pytest.mark.parametrize(
    "extra, interior, held",
    [
        (0, "x = 1; y = 2;", ["x", "=", "1", ";", "y", "=", "2", ";"]),
        (0, "", None),
        (2, "x = 1;", ["{", "{", "x", "=", "1", ";", "}", "}"]),
    ],
)
def test_a_brace_nest_past_the_cap_holds_its_interior_as_one_wildcard(extra, interior, held):
    depth = MAX_NESTING + extra
    stmts, _, _ = debug_parse("{" * depth + interior + "}" * depth)
    for _ in range(MAX_NESTING):
        (block,) = stmts
        assert isinstance(block, Block) and not block.incomplete
        stmts = block.body
    if held is None:
        assert stmts == []
    else:
        (wild,) = stmts
        assert isinstance(wild, WildcardStmt)
        assert [t.text for t in wild.expr.tokens] == held


def test_function_shaped_file_nests_body_in_block():
    src = "static int f(int x) { if (p) q(); return x; }"
    stmts = parse_source(src)
    assert isinstance(stmts[0], WildcardStmt)  # the signature run
    assert isinstance(stmts[1], Block)
    assert isinstance(stmts[1].body[0], If)


def test_empty_statement_is_allowed():
    stmts = parse_source(";;")
    assert len(stmts) == 2
    assert all(isinstance(s, WildcardStmt) and s.expr.tokens == () for s in stmts)


def test_switch_case_arms_and_fallthrough():
    src = "switch (x) { case 1: case 2: f(); break; default: g(); }"
    node = parse_source(src)[0]
    assert isinstance(node, Switch)
    assert len(node.cases) == 3
    one, two, dflt = node.cases
    assert one.body == []  # immediate fallthrough
    assert [t.text for t in one.label.tokens] == ["1"]
    assert len(two.body) == 2
    assert dflt.label is None and len(dflt.body) == 1
    # tokens between `default` and ":" open the arm's body
    dflt = parse_source("switch (x) { default y: g(); }")[0].cases[0]
    assert dflt.label is None
    assert [[t.text for t in s.expr.tokens] for s in dflt.body] == [["y"], ["g", "(", ")"]]
    # a label with no ":" keeps every token of its arm
    arm = parse_source("switch (x) { case 2 h(); }")[0].cases[0]
    assert [t.text for t in arm.label.tokens] == ["2", "h", "(", ")", ";"] and arm.body == []


def test_switch_scoped_label_colon_is_not_cut_short():
    node = parse_source("switch (x) { case Foo::bar: f(); }", CPP)[0]
    assert [t.text for t in node.cases[0].label.tokens] == ["Foo", "::", "bar"]
    node = parse_source("switch (x) { case a[1 ? 2 : 3]: f(); }")[0]
    assert [t.text for t in node.cases[0].label.tokens] == ["a", "[", "1", "?", "2", ":", "3", "]"]
    assert len(node.cases[0].body) == 1


def test_nested_switch_stays_nested():
    src = "switch (a) { case 1: switch (b) { case 2: f(); } break; }"
    outer = parse_source(src)[0]
    assert len(outer.cases) == 1
    inner = outer.cases[0].body[0]
    assert isinstance(inner, Switch) and len(inner.cases) == 1


def test_switch_with_leading_junk_slides_instead_of_guessing():
    stmts = parse_source("switch (x) { f(); case 1: g(); }")
    assert not any(isinstance(s, Switch) for s in stmts)


def test_sliding_window_recovers_after_false_start():
    src = "if if (a) f();"
    stream = tokenize(src, C)
    stmts, acct = parse_with_ledger(stream, C)
    ifs = [s for s in stmts if isinstance(s, If)]
    assert len(ifs) == 1
    assert isinstance(ifs[0].cond, Atom) and ifs[0].cond.token.text == "a"
    assert any(t.text == "if" for t in acct.syntax_tokens)  # the skipped starter
    assert_token_conservation(stream.tokens, stmts, acct)


def _body_with(stmt):
    """A function body whose first statement is ``stmt``, then a dereference
    of ``p`` and a null test of ``p``; the body and its findings."""
    stmts, _ = parse_with_ledger(tokenize(f"void h() {{\n  {stmt}\n  g(p->x);\n  if (p) k();\n}}\n", C))
    return stmts[-1].body, check_null_deref(stmts, C)


def test_a_bracket_left_open_inside_a_call_does_not_hold_the_call_open():
    # `[` stays open, but `)` still closes `(`: the statement ends at its `;`
    body, [finding] = _body_with("f(a[i);")
    assert [type(s) for s in body] == [WildcardStmt, WildcardStmt, If]
    assert (finding.span.start.line, finding.span.start.column) == (4, 7)
    assert (finding.related[0].line, finding.related[0].column) == (3, 5)


def test_a_closer_of_another_kind_does_not_close_a_call():
    # `]` closes no `(`: the call, and so the statement, runs to the end of the body
    body, findings = _body_with("f(a];")
    assert len(body) == 1 and isinstance(body[0], WildcardStmt) and body[0].incomplete
    assert findings == []


def test_labels_stay_inside_wildcard_content():
    stmts = parse_source("out: return ret;")
    assert len(stmts) == 1
    assert [t.text for t in stmts[0].expr.tokens] == ["out", ":", "return", "ret"]


@pytest.mark.parametrize(
    "src,profile",
    [
        ("if (x >= 3) foo(); while (x <= 2) x++;", C),
        ("struct S { int a; }; if (p) q();", C),
        ("switch (x) { case 1: case 2: f(); break; default: g(); }", C),
        ("do { x--; } while (x > 0); for (;;) y();", C),
        ("static int f(int x) { if (p) q(); return x; }", C),
        ("if if (a) f(); } stray { b; ; ;", C),
        ("template <typename T> T min(T a, T b) { return a < b ? a : b; }", CPP),
        ("class A { void m() { if (x == null) y(); } }", JAVA),
        ("for (auto x : xs) use(x); a[i] = b[j];", CPP),
        ("if (a", C),
        ("while (", C),
        ("do f();", C),  # no trailing while: slides
        ("case 5: x;", C),  # labels outside a switch degrade
    ],
)
def test_token_conservation_and_spans(src, profile):
    stream = tokenize(src, profile)
    stmts, acct = parse_with_ledger(stream, profile)
    assert_token_conservation(stream.tokens, stmts, acct)
    assert_spans_nest(stmts)


def _empty_wildcards(stmts):
    """Every empty ``Wildcard`` in the tree's expression slots, sub-expressions included."""
    stack = [part for s in walk_statements(stmts) for role, part in s.parts() if role is not BODY and part is not None]
    while stack:
        e = stack.pop()
        if isinstance(e, Wildcard) and e.lo == e.hi:
            yield e
        stack += e.children()


_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
_EMPTY_PARTS = ";\nx = ;\nf(a,);\nif (== b) g();\nz = w && ;\n"  # five empty parts


def _extent_rule_inputs():
    rng = random.Random(2711)
    for i in range(300):
        profile = (C, CPP, JAVA)[i % 3]
        yield random_micro_program(rng), profile
        yield random_token_source(rng, profile, 256), profile
    for name in sorted(os.listdir(_GOLDEN)):
        if not name.endswith(".out"):
            with open(os.path.join(_GOLDEN, name), encoding="utf-8") as fh:
                yield fh.read(), profile_for(name)
    yield _EMPTY_PARTS, C


def test_an_empty_part_sits_at_the_token_before_it():
    # one extent rule: an empty range sits at the token before it, or at the
    # file's first token when nothing comes before it
    seen = 0
    for source, profile in _extent_rule_inputs():
        for w in _empty_wildcards(parse_source(source, profile)):
            at = w.toks[w.lo - 1 if w.lo else 0].offset
            assert (w.span.lo, w.span.hi) == (at, at), (source, w)
            seen += 1
    assert seen > 100
    empties = sorted(_empty_wildcards(parse_source(_EMPTY_PARTS)), key=lambda w: w.lo)
    # the first ";", then the "=" of `x = ;`, the "," of `f(a,)`, the "(" of `if (== b)`, the "&&"
    assert [w.toks[w.lo - 1 if w.lo else 0].text for w in empties] == [";", "=", ",", "(", "&&"]


def test_incomplete_flag_propagates_on_truncated_input():
    stmts = parse_source("if (a")
    assert stmts and stmts[0].incomplete


def test_dump_format_shape():
    out = dump_statements(parse_source("if (x >= 3) foo();"))
    lines = out.splitlines()
    assert lines[0].startswith('If @1:1 ["x", ">=", "3"]')
    assert lines[1].strip().startswith('WildcardStmt @1:13 ["foo", "(", ")"]')


def test_parse_accepts_stream_or_token_list():
    stream = tokenize("x;", C)
    a = parse_statements(stream, C)
    b = parse_statements(stream.tokens, C)
    assert len(a) == len(b) == 1


# -- refinement cost: one operator scan per bracket level ----------------------


class _CountingList(list):
    """A list that counts its reads by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


CHAINS = {
    "&&": lambda n: "if (" + " && ".join(f"a{j}" for j in range(n)) + ") f();",
    "||": lambda n: "if (" + " || ".join(f"a{j}" for j in range(n)) + ") f();",
    "!": lambda n: "if (" + "! " * n + "a) f();",
    "++": lambda n: "x = " + "++ " * n + "a;",
    "=": lambda n: " = ".join(f"a{j}" for j in range(n)) + ";",
}


@pytest.mark.parametrize("n", (1000, 2000))
@pytest.mark.parametrize("op", sorted(CHAINS))
def test_refinement_reads_each_bracket_match_a_bounded_number_of_times(op, n):
    # Rescanning a chain's long side at each of its 128 levels would read
    # the bracket table about 120 times per token; no clock is needed.
    tokens = tuple(tokenize(CHAINS[op](n), C).tokens)
    parser = _Parser(tokens, C)
    parser.match = counting = _CountingList(parser.match)
    assert parser.parse(0, len(tokens), 0) == parse_statements(tokens, C)
    assert counting.reads <= 4 * len(tokens), counting.reads / len(tokens)


# -- tree memory: each expression node holds a range, not a slice -------------

_CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "corpus.py")


def _and_chain(n: int) -> str:
    """The benchmark's ``and_chain`` shape of ``n`` terms."""
    spec = importlib.util.spec_from_file_location("bench_corpus", _CORPUS)
    corpus = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(corpus)
    return corpus.and_chain(random.Random(0), n).text


def _tree_bytes(source: str) -> int:
    """What ``parse_statements`` leaves allocated, given the file's token tuple."""
    tokens = tuple(tokenize(source, C).tokens)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = parse_statements(tokens, C)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert tree
    return after - before


@pytest.mark.parametrize(
    "make, bound",
    [
        # 20,000 nested calls refine to 128 levels above one wildcard of
        # about 40,000 tokens; a slice per level held 62 MB
        (lambda: "x = " + "g(" * 20_000 + "y" + ")" * 20_000 + ";", 1_000_000),
        # 1,000 terms, a 128-level chain: a slice per level held 2 MB
        (lambda: _and_chain(1000), 200_000),
    ],
    ids=["nested_call", "and_chain"],
)
def test_the_tree_does_not_copy_the_tokens_it_covers(make, bound):
    assert _tree_bytes(make()) < bound
