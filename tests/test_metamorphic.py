"""Metamorphic invariants: edits that cannot matter never change findings.

The checkers never read positions, so inserting comment lines, blank lines
or (where no literal or directive can be split) inline block comments must
keep the ``(checker, message)`` sequence of the findings.  They compare
names only with each other, so renaming identifiers consistently keeps the
findings too, with the new names in the messages.  A ``--line-range`` that
covers the whole file is the same as none, and one run naming several inputs
is the same as running each alone.  Writing every line end as CRLF keeps the
tokens, the lex errors and the findings where they were: a carriage return
before a newline is a blank, and a backslash before CRLF continues a line as
one before LF does.
"""

from __future__ import annotations

import io
import json
import os
import random
import re

import pytest

from support import C, random_micro_program
from xcheck.checkers import run_checkers
from xcheck.cli import parse_args, run
from xcheck.fixtures import fixture_path
from xcheck.lexer import TokenKind, tokenize
from xcheck.microgrammar import parse_statements
from xcheck.profiles import LanguageProfile, profile_for

FIXTURES = ("object.c", "InstCombineAddSub.cpp", "CipherCore.java")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _messages(source: str, profile: LanguageProfile) -> list[tuple[str, str]]:
    stmts = parse_statements(tokenize(source, profile), profile)
    return [(d.checker, d.message) for d in run_checkers(stmts, profile, path="t")]


def _add_comment_lines(source: str, profile: LanguageProfile, rng: random.Random) -> str:
    """Blank and line-comment lines after random lines; never after a line
    continued with a backslash, which would pull the insert into it."""
    extras = ([], [""], ["", ""], [f"{profile.line_comment} inserted"])
    out: list[str] = []
    for line in source.split("\n"):
        out.append(line)
        if not line.endswith("\\"):
            out.extend(rng.choice(extras))
    return "\n".join(out)


def _add_inline_comments(source: str, profile: LanguageProfile, rng: random.Random) -> str:
    """Block comments and blank lines at the spaces between tokens; only for
    sources whose spaces all separate tokens."""
    opener, closer = profile.block_comment
    pieces = (" ", f" {opener} c {closer} ", "\n\n")
    return re.sub(" ", lambda _: rng.choice(pieces), source)


@pytest.mark.parametrize("filename", FIXTURES)
def test_fixture_findings_survive_comment_lines(filename):
    profile = profile_for(filename)
    with open(fixture_path(filename), encoding="utf-8") as fh:
        source = fh.read()
    want = _messages(source, profile)
    rng = random.Random(filename)
    for _ in range(3):
        assert _messages(_add_comment_lines(source, profile, rng), profile) == want


def test_generated_program_findings_survive_comments():
    rng = random.Random(5150)
    total = 0
    for _ in range(500):
        source = random_micro_program(rng)
        want = _messages(source, C)
        total += len(want)
        assert _messages(_add_comment_lines(source, C, rng), C) == want, source
        assert _messages(_add_inline_comments(source, C, rng), C) == want, source
    assert total > 0


def _findings(source: str, profile: LanguageProfile) -> list[tuple[str, int, int | None, str]]:
    stmts = parse_statements(tokenize(source, profile), profile)
    return [
        (d.checker, d.span.start.line, d.related[0].line if d.related else None, d.message)
        for d in run_checkers(stmts, profile, path="t")
    ]


def _rename_identifiers(source: str, profile: LanguageProfile) -> tuple[str, dict[str, str]]:
    """Every identifier token except null literals gets a fresh unique name,
    the same one at each occurrence, spliced in by offset."""
    idents = [
        t for t in tokenize(source, profile).tokens
        if t.kind is TokenKind.IDENTIFIER and t.text not in profile.null_literals
    ]
    mapping: dict[str, str] = {}
    for t in idents:
        mapping.setdefault(t.text, f"zz{len(mapping)}_renamed")
    assert not set(mapping.values()) & {t.text for t in idents}
    pieces, done = [], 0
    for t in idents:
        pieces += [source[done : t.pos.offset], mapping[t.text]]
        done = t.pos.offset + len(t.text)
    return "".join(pieces) + source[done:], mapping


def _renamed_message(message: str, mapping: dict[str, str]) -> str:
    """The names quoted in ``message`` (``'state->work'``) under ``mapping``."""

    def rename_quoted(quoted: re.Match[str]) -> str:
        return re.sub(r"[\w$]+", lambda m: mapping.get(m.group(), m.group()), quoted.group())

    return re.sub(r"'[^']*'", rename_quoted, message)


def _assert_renaming_keeps_findings(source: str, profile: LanguageProfile) -> int:
    renamed, mapping = _rename_identifiers(source, profile)
    want = [(c, line, rel, _renamed_message(msg, mapping)) for c, line, rel, msg in _findings(source, profile)]
    assert _findings(renamed, profile) == want, source
    return len(want)


@pytest.mark.parametrize("filename", FIXTURES)
def test_fixture_findings_survive_consistent_renaming(filename):
    with open(fixture_path(filename), encoding="utf-8") as fh:
        _assert_renaming_keeps_findings(fh.read(), profile_for(filename))


def test_generated_program_findings_survive_consistent_renaming():
    rng = random.Random(6160)
    total = sum(_assert_renaming_keeps_findings(random_micro_program(rng), C) for _ in range(500))
    assert total > 0


def test_concatenated_files_keep_each_files_findings():
    """Findings of ``A + "\\n{}\\n" + B`` are A's plus B's moved down by A's
    lines: the empty block between them resets the tracked null-deref state,
    so nothing leaks from A into B."""
    rng = random.Random(7170)
    total = 0
    for _ in range(500):
        a, b = random_micro_program(rng), random_micro_program(rng)
        shift = a.count("\n") + 2
        want = _findings(a, C) + [
            (checker, line + shift, related if related is None else related + shift, message)
            for checker, line, related, message in _findings(b, C)
        ]
        total += len(want)
        assert _findings(a + "\n{}\n" + b, C) == want, (a, b)
    assert total > 0


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    return run(parse_args(argv), out=out, err=err), out.getvalue()


@pytest.mark.parametrize("filename", FIXTURES)
def test_full_file_line_range_equals_no_range(filename):
    path = fixture_path(filename)
    with open(path, encoding="utf-8") as fh:
        last = len(fh.read().splitlines())
    whole = _cli(["--format", "json", path])
    assert _cli(["--format", "json", "--line-range", f"1:{last}", path]) == whole


@pytest.mark.parametrize("dangling", [False, True])
def test_several_inputs_print_the_union_of_single_input_runs(tmp_path, dangling):
    rng = random.Random(7)
    tree = tmp_path / "tree"
    tree.mkdir()
    for i in range(6):
        (tree / f"p{i}.c").write_text(random_micro_program(rng))
    if dangling:  # unreadable: the tree's run, and so the combined one, exits 2
        os.symlink(tree / "missing.c", tree / "q.c")
    # p2.c, inside the tree too, has a finding: the union drops its duplicate
    inputs = [fixture_path("CipherCore.java"), str(tree), str(tree / "p2.c")]
    singles = [_cli(["--format", "json", path]) for path in inputs]
    union = {json.dumps(r, sort_keys=True): r for _, out in singles for r in json.loads(out)}
    want = sorted(union.values(), key=lambda r: (r["file"], r["start_line"], r["start_col"], r["checker"]))
    code, out = _cli(["--format", "json", *inputs])
    assert json.loads(out) == want and len(want) > 1
    assert code == max(code for code, _ in singles) == (2 if dangling else 1)


# Each construct that spans or ends a line, with a finding after it.
_LINE_END_CASES = (
    "#define NEXT(p) \\\n  ((p)->next)\nvoid f(struct s *p) {\n  x = p->q;\n  if (p == NULL) g();\n}\n",
    'void f(struct s *p) {\n  x = p->q; m = "one \\\ntwo";\n  if (p == NULL) g();\n}\n',
    "void f(struct s *p) {\n  x = p->q; c = '\\\n';\n  if (p == NULL) g();\n}\n",
    "void f(struct s *p) {\n  x = p->q; /* a block\n  comment */ if (p == NULL) g();\n}\n",
    "void f(struct s *p) {\n  x = p->q; // a line comment\n  if (p == NULL) g();\n}\n",
)


def _line_end_inputs() -> list[tuple[str, LanguageProfile]]:
    paths = [fixture_path(name) for name in FIXTURES] + [os.path.join(GOLDEN, n) for n in ("all_forms.cpp", "empty_slots.c")]
    inputs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            inputs.append((fh.read(), profile_for(path)))
    rng = random.Random(8180)
    inputs += [(random_micro_program(rng), C) for _ in range(200)]
    return inputs + [(source, C) for source in _LINE_END_CASES]


def _lexed_and_found(source: str, profile: LanguageProfile) -> tuple[list, list, list]:
    """Token kinds and texts (a CRLF read as LF), lex errors and findings by line and column."""
    stream = tokenize(source, profile)
    stmts = parse_statements(stream, profile)
    return (
        [(t.kind, t.text.replace("\r\n", "\n")) for t in stream.tokens],
        [(e.kind, e.pos.line, e.pos.column) for e in stream.errors],
        [
            (d.checker, d.span.start.line, d.span.start.column, d.related and (d.related[0].line, d.related[0].column))
            for d in run_checkers(stmts, profile, path="t")
        ],
    )


def test_crlf_line_ends_keep_tokens_lex_errors_and_findings():
    total = 0
    for source, profile in _line_end_inputs():
        assert "\r" not in source
        want = _lexed_and_found(source, profile)
        assert _lexed_and_found(source.replace("\n", "\r\n"), profile) == want, source
        total += len(want[2])
    assert total > 0
