"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line and enforcing its time budget.

Derived expectations come from independent oracles (exhaustive operator
enumeration, the brute-force event-triple oracle, structural token
accounting), never from the code path under test.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

import pytest

from support import (
    C,
    CPP,
    JAVA,
    TreeGen,
    alphabet_for,
    greedy_operator_tokenization,
    null_oracle,
    parse_source,
    random_micro_program,
    random_token_source,
    stmt_tokens,
)
from xcheck.checkers import check_loop_direction, check_null_deref, iter_null_events
from xcheck.cli import parse_args, run
from xcheck.diagnostics import to_record
from xcheck.fixtures import case_by_name, fixture_path, run_fixture
from xcheck.lexer import TokenKind, tokenize
from xcheck.microgrammar import (
    MAX_NESTING,
    _Parser,
    expr_key,
    parse_statements,
    stmt_key,
)


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} {title}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        print(f"[acceptance] criterion {number:02d} {title}: FAIL (over budget: {elapsed:.2f}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.2f}s")
    print(f"[acceptance] criterion {number:02d} {title}: PASS ({elapsed:.2f}s)")


def _single_null_deref(report):
    records = report.actual
    assert report.passed, "\n".join(report.diff)
    assert len(records) == 1
    assert records[0]["checker"] == "null-deref"
    return records[0]


def test_criterion_01_openjdk_ciphercore():
    with criterion(1, "OpenJDK CipherCore finding", budget_s=1.0):
        record = _single_null_deref(run_fixture(case_by_name("ciphercore")))
        assert record["start_line"] == 888
        assert record["related_line"] == 886


def test_criterion_02_llvm_instcombine_window():
    with criterion(2, "LLVM InstCombineAddSub window finding", budget_s=1.0):
        case = case_by_name("instcombine")
        assert case.line_range == (440, 516)
        record = _single_null_deref(run_fixture(case))
        assert record["start_line"] == 490
        assert record["related_line"] == 456


def test_criterion_03_linux_object_correction():
    with criterion(3, "Linux object.c non-finding plus mutation", budget_s=1.0):
        clean = run_fixture(case_by_name("object"))
        assert clean.passed and clean.actual == []
        record = _single_null_deref(run_fixture(case_by_name("object-mutated")))
        assert record["start_line"] == 250
        assert record["related_line"] == 233


def test_criterion_04_cross_language_port_is_profile_data_only():
    with criterion(4, "cross-language port via deref_ops only", budget_s=5.0):
        # One implementation, one configuration knob: two profiles that are
        # identical except for deref_ops must disagree on an arrow deref.
        java_with_arrow = JAVA._replace(deref_ops=("->", "."))
        src = "a->b;\nif (a) x();\n"

        def analyze(profile):
            stmts = parse_statements(tokenize(src, profile), profile)
            return check_null_deref(stmts, profile)

        assert len(analyze(java_with_arrow)) == 1
        assert analyze(JAVA) == []

        # The shared dot operator behaves identically across profiles.
        dot_src = "a.b;\nif (a) x();\n"
        for profile in (C, CPP, JAVA):
            stmts = parse_statements(tokenize(dot_src, profile), profile)
            assert len(check_null_deref(stmts, profile)) == 1

        # And the two corpus cases run through this same single function.
        cpp_case = run_fixture(case_by_name("instcombine"))
        java_case = run_fixture(case_by_name("ciphercore"))
        assert cpp_case.passed and java_case.passed


def test_criterion_05_parser_totality_fuzz(monkeypatch):
    iterations = 0
    statement = _Parser._statement

    def counted(self, depth):
        nonlocal iterations
        iterations += 1
        start = self.i
        stmt = statement(self, depth)
        # progress: a statement that is returned has moved past the cursor's
        # token, and no further than the end of the range being parsed
        assert start < self.i <= self.hi
        return stmt

    monkeypatch.setattr(_Parser, "_statement", counted)
    with criterion(5, "parser totality fuzz (12,000 samples)", budget_s=60.0):
        rng = random.Random(20240817)
        alphabets = {p.name: alphabet_for(p) for p in (C, CPP, JAVA)}
        samples = 12_000
        for i in range(samples):
            profile = (C, CPP, JAVA)[i % 3]
            roll = rng.random()
            max_len = 64 if roll < 0.7 else (256 if roll < 0.9 else 512)
            n = rng.randint(0, max_len)
            words = alphabets[profile.name]
            src = " ".join(rng.choice(words) for _ in range(n))
            stream = tokenize(src, profile)
            assert len(stream.tokens) <= 512
            iterations = 0
            stmts = parse_statements(stream, profile)  # may not abort
            # progress: every statement attempt at every nesting level
            # consumes at least one token of its own slice
            assert iterations <= max(1, len(stream.tokens)) * (MAX_NESTING + 1)
            # the tree holds distinct input tokens in source order (the
            # parser oracle checks the full conservation law on these samples)
            index = {id(t): i for i, t in enumerate(stream.tokens)}
            held = [index[id(t)] for s in stmts for t in stmt_tokens(s)]
            assert held == sorted(set(held))


def test_criterion_06_maximal_munch_and_round_trip():
    with criterion(6, "maximal munch + round trip (1,000 samples)", budget_s=10.0):
        rng = random.Random(60451)
        pool = sorted(C.operators) + ["x", "y0", "_z", " ", "\n", "if", "42"]
        by_len = sorted(C.operators, key=len, reverse=True)
        for _ in range(1_000):
            src = "".join(rng.choice(pool) for _ in range(rng.randint(0, 40)))
            stream = tokenize(src, C)
            prev_end = 0
            rebuilt = []
            for t in stream.tokens:
                assert src[t.pos.offset : t.pos.offset + len(t.text)] == t.text
                rebuilt.append(src[prev_end : t.pos.offset])
                rebuilt.append(t.text)
                prev_end = t.pos.offset + len(t.text)
            rebuilt.append(src[prev_end:])
            assert "".join(rebuilt) == src  # comments/whitespace live in gaps
            for t in stream.tokens:
                if t.kind is TokenKind.OPERATOR:
                    longest = next(op for op in by_len if src.startswith(op, t.pos.offset))
                    assert t.text == longest


def test_criterion_07_null_deref_oracle_equivalence():
    with criterion(7, "null-deref vs brute-force oracle (500 programs)", budget_s=30.0):
        rng = random.Random(7_0707)
        for _ in range(500):
            src = random_micro_program(rng)
            stream = tokenize(src, C)
            while len(stream.tokens) > 200:
                src = "\n".join(src.splitlines()[:-1])
                stream = tokenize(src, C)
            stmts = parse_statements(stream, C)
            got = {
                (d.span.start.line, d.span.start.column, d.related[0].line)
                for d in check_null_deref(stmts, C)
            }
            want = set(null_oracle(list(iter_null_events(stmts, C))))
            assert got == want, f"oracle divergence on:\n{src}"


def test_criterion_08_loop_direction_matrix():
    with criterion(8, "loop-direction operator matrix", budget_s=5.0):
        expected = {(c, u) for c in ("<", "<=") for u in ("--", "-=")} | {
            (c, u) for c in (">", ">=") for u in ("++", "+=")
        }
        got = set()
        for cop in ("<", "<=", ">", ">=", "==", "!="):
            for uop in ("++", "--", "+=", "-="):
                update = f"i{uop}" if uop in ("++", "--") else f"i {uop} 2"
                diags = check_loop_direction(parse_source(f"for (i = 0; i {cop} n; {update}) f();"), C)
                assert len(diags) <= 1
                if diags:
                    got.add((cop, uop))
        assert got == expected


def test_criterion_09_equality_laws():
    with criterion(9, "equality laws on 1,000 random trees", budget_s=10.0):
        expr_keys = []
        for seed in range(500):
            a = TreeGen(seed).expr(3)
            b = TreeGen(seed, pos_base=10_000).expr(3)
            c = TreeGen(seed, pos_base=20_000).expr(3)
            other = TreeGen(seed + 900_000).expr(3)
            ka, kb, kc, ko = expr_key(a), expr_key(b), expr_key(c), expr_key(other)
            assert ka == ka  # reflexive
            assert ka == kb and kb == ka  # symmetric
            assert kb == kc and ka == kc  # transitive
            # equality agrees with the ordering: equal exactly when neither sorts first
            assert (ka == ko) == (not ka < ko and not ko < ka)
            expr_keys.append(expr_key(a))
            expr_keys.append(expr_key(other))
        for seed in range(500):
            a = TreeGen(seed).stmt(2)
            b = TreeGen(seed, pos_base=10_000).stmt(2)
            c = TreeGen(seed, pos_base=20_000).stmt(2)
            ka, kb, kc = stmt_key(a), stmt_key(b), stmt_key(c)
            assert ka == ka
            assert ka == kb and kb == ka
            assert kb == kc and ka == kc
        # the ordering is total (sorting never hits an incomparable pair)
        # and consistent with equality
        expr_keys.sort()
        for x, y in zip(expr_keys, expr_keys[1:]):
            assert x <= y


def test_criterion_10_cli_contract(tmp_path, capsys):
    with criterion(10, "CLI exit codes and JSON round trip", budget_s=10.0):
        import io

        def invoke(argv):
            out, err = io.StringIO(), io.StringIO()
            code = run(parse_args(argv), out=out, err=err)
            return code, out.getvalue(), err.getvalue()

        cipher = fixture_path("CipherCore.java")
        inst = fixture_path("InstCombineAddSub.cpp")
        obj = fixture_path("object.c")

        code, out, _ = invoke(["--format", "json", cipher])
        assert code == 1
        records = json.loads(out)
        assert [r["start_line"] for r in records] == [888]

        code, out, _ = invoke(["--format", "json", "--lang", "cpp", "--line-range", "440:516", inst])
        assert code == 1
        assert [r["start_line"] for r in json.loads(out)] == [490]

        code, out, _ = invoke([obj])
        assert code == 0 and out == ""

        code, out, err = invoke(["definitely-missing.c"])
        assert code == 2 and out == "" and "definitely-missing.c" in err

        # JSON output reproduces the diagnostics record-for-record
        case = case_by_name("ciphercore")
        report = run_fixture(case)
        code, out, _ = invoke(["--format", "json", cipher])
        parsed = json.loads(out)
        for got, want in zip(parsed, report.actual, strict=True):
            assert {**got, "file": "x"} == {**want, "file": "x"}
