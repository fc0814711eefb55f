"""Smoke test of ``tools/differential.py`` on a small corpus."""

import importlib.util
import os
import pathlib
import re
import shutil
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "differential.py")


def differential(old_root, new_root, programs=5):
    argv = [sys.executable, TOOL, old_root, new_root, "--programs", str(programs), "--seeds"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def src_lines(root):
    return sum(path.read_bytes().count(b"\n") for path in pathlib.Path(root, "src", "xcheck").glob("*.py"))


def mutant(tmp_path, module, rebinding):
    """A root under ``tmp_path`` holding a copy of this checkout's ``src/``
    whose ``xcheck/<module>.py`` ends with ``rebinding``: code that rebinds
    one of the module's names, so that the mutant reads no line of its text."""
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "xcheck" / f"{module}.py"
    path.write_text(path.read_text() + "\n\n" + textwrap.dedent(rebinding))
    return str(tmp_path)


def test_a_tree_agrees_with_itself():
    proc = differential(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "no difference" in proc.stdout
    lines = src_lines(ROOT)
    assert lines > 0
    assert proc.stdout.splitlines()[0] == f"differential: src/xcheck/*.py: old {lines} lines, new {lines} lines, +0"


def test_a_changed_dump_is_reported(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "xcheck" / "cli.py"
    cli.write_text(cli.read_text().replace("// AST ", "// TREE ") + "# one\n# two\n")
    proc = differential(ROOT, str(tmp_path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "stdout line 1:" in proc.stdout and "// TREE" in proc.stdout
    lines = src_lines(ROOT)
    assert proc.stdout.splitlines()[0] == f"differential: src/xcheck/*.py: old {lines} lines, new {lines + 2} lines, +2"


def test_a_changed_line_range_window_is_reported(tmp_path):
    new_root = mutant(tmp_path, "cli", """
        _analyze_source = analyze_source

        def analyze_source(source, profile, path, line_range, checkers):  # the window is ignored
            return _analyze_source(source, profile, path, None, checkers)
    """)
    proc = differential(ROOT, new_root)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "differ with --line-range" in proc.stdout


def test_every_differing_file_is_counted_by_group_and_stream(tmp_path):
    new_root = mutant(tmp_path, "checkers", """
        _finding = finding

        def finding(checker, message, *rest):  # a null-deref finding says it otherwise
            return _finding(checker, message.upper() if checker == "null-deref" else message, *rest)
    """)
    proc = differential(ROOT, new_root)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "differ at stdout line" in proc.stdout
    assert "15 files differ at" not in proc.stdout.splitlines()[1]  # the corpus size is no count of differing files
    summary = proc.stdout.splitlines()[-1]
    # 3 fixtures, 2 golden inputs, 5 programs and 5 soups; two fixtures and one
    # golden input hold a null-deref finding, and so do some of the programs
    found = re.fullmatch(r"differential: (\d+) of 15 files differ: fixtures 2, golden 1, programs (\d+); by stream: findings \1", summary)
    assert found and int(found[1]) == 3 + int(found[2]), summary


def test_a_changed_null_event_log_is_reported(tmp_path):
    new_root = mutant(tmp_path, "checkers", """
        _iter_null_events = iter_null_events

        def iter_null_events(stmts, profile):  # every DerefEvent twice: no finding changes
            for event in _iter_null_events(stmts, profile):
                yield from (event, event) if event.__class__ is DerefEvent else (event,)
    """)
    proc = differential(ROOT, new_root)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    first, summary = proc.stdout.splitlines()[1], proc.stdout.splitlines()[-1]
    assert "differ in the token digests, null-event logs, statement key classes or incomplete marks at stdout line" in first
    assert re.fullmatch(r"differential: \d+ of 15 files differ: .*; by stream: log \d+", summary), summary


def test_a_changed_incomplete_mark_is_reported(tmp_path):
    # no block is incomplete: no CLI output changes, only the log run's marks
    new_root = mutant(tmp_path, "microgrammar", """
        _parse_statements = parse_statements

        def parse_statements(stream, profile):
            stmts = _parse_statements(stream, profile)
            for s in walk_statements(stmts):
                if s.__class__ is Block:
                    s.incomplete = False
            return stmts
    """)
    proc = differential(ROOT, new_root)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    first, summary = proc.stdout.splitlines()[1], proc.stdout.splitlines()[-1]
    assert "differ in the token digests, null-event logs, statement key classes or incomplete marks at stdout line" in first
    assert re.fullmatch(r"differential: \d+ of 15 files differ: .*; by stream: log \d+", summary), summary


def test_a_changed_token_kind_is_reported(tmp_path):
    # every literal lexes as punctuation: the dump prints only token texts, and no reader
    # of a kind reads either, so only the log run's token digests differ
    new_root = mutant(tmp_path, "lexer", """
        _tokenize = tokenize

        def tokenize(source, profile, source_path="<input>"):
            stream = _tokenize(source, profile, source_path)
            return stream._replace(tokens=[t._replace(kind=_PUNCT) if t.kind is _LIT else t for t in stream.tokens])
    """)
    proc = differential(ROOT, new_root)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    first, summary = proc.stdout.splitlines()[1], proc.stdout.splitlines()[-1]
    assert "differ in the token digests, null-event logs, statement key classes or incomplete marks at stdout line" in first
    assert "tokens" in proc.stdout.splitlines()[2]
    assert re.fullmatch(r"differential: \d+ of \d+ files differ: .*; by stream: tokens \d+", summary), summary


def test_each_corpus_row_writes_its_share_of_n_in_its_languages(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # write_corpus puts the checkout's directories first
    spec = importlib.util.spec_from_file_location("differential", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.write_corpus(str(tmp_path), 30, [])  # N = 30: each row of N // 10 files reaches Java
    every = {".c", ".cpp", ".java"}
    expected = {
        "fixtures": (3, every),
        "golden": (2, {".c", ".cpp"}),
        "programs": (30, {".c"}),
        "soups": (30, every),
        "chains": (3, every),
        "nests": (3, every),
        "comments": (3, every),
        "kills": (3, every),
        "prefixes": (3, {".c", ".cpp"}),
        "loops": (3, every),
        "paths": (3, every),
        "parens": (3, every),
        "brackets": (3, every),
        "lone_ops": (3, every),
        "do_nests": (3, every),
        "bom": (3, every),
        "directives": (3, {".c", ".cpp"}),
        "unbraced": (3, every),
        "profiled": (3, {".odd"}),
    }
    written = {d: os.listdir(tmp_path / d) for d in os.listdir(tmp_path)}
    assert {d: (len(names), {os.path.splitext(n)[1] for n in names}) for d, names in written.items()} == expected


def test_the_log_reads_a_marked_file_as_the_cli_does(tmp_path):
    # The CLI drops a leading U+FEFF, so the log of a marked file is that of the unmarked one.
    spec = importlib.util.spec_from_file_location("differential", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = "use ( p->x ) ;\nif ( p == NULL ) return ;\n"
    logs = []
    for name, text in (("marked", "\ufeff" + source), ("plain", source)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "f.c").write_text(text, encoding="utf-8")
        proc = tool.run_side(ROOT, [tool.LOG_CODE, str(tmp_path / name)])
        assert proc.returncode == 0, proc.stderr
        logs.append(proc.stdout.replace(str(tmp_path / name), "DIR"))
    assert "DerefEvent" in logs[1] and "NullTestEvent" in logs[1]
    assert logs[0] == logs[1]


def test_a_tree_is_compared_in_place_and_leaves_the_status(tmp_path):
    tree = tmp_path / "tree"
    (tree / "sub").mkdir(parents=True)
    (tree / "a.c").write_text("void f(int i) { for (i = 0; i == n; i--) g(); }\n")
    (tree / "sub" / "b.java").write_text("class B { void f(P p) { use(p.x); if (p != null) g(); char c = 'x; } }\n")
    (tree / "notes.txt").write_text("not analyzed\n")
    # i == n with i-- is a finding
    new_root = mutant(tmp_path, "checkers", 'WARNING_PAIRS = WARNING_PAIRS | {("==", "--"), ("==", "-=")}\n')
    argv = [sys.executable, TOOL, ROOT, new_root, "--programs", "0", "--seeds", "--tree", str(tree), "--tree", f"c={tree}"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    # no corpus file holds such a loop, so only the trees differ, and the status is the corpus's
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "no difference" in lines[1]
    side = r"findings {}; lex warnings 1 \(unterminated char literal 1\); [\d.]+ s, peak [\d.]+ MB, exit 1"
    expected = [
        rf"differential: tree {re.escape(str(tree))}, 2 files with a profile",
        "  old: " + side.format(r"1 \(null-deref 1\)"),
        "  new: " + side.format(r"2 \(loop-direction 1, null-deref 1\)"),
        rf"differential: tree {re.escape(str(tree))}: 1 of 2 files differ: a.c 1; by stream: findings 1",
        # forced to C, the Java file's null test is no null test: null is no C literal
        rf"differential: tree c={re.escape(str(tree))}, 2 files with a profile",
        "  old: " + side.format(r"0 \(none\)").replace("exit 1", "exit 0"),
        "  new: " + side.format(r"1 \(loop-direction 1\)"),
        rf"differential: tree c={re.escape(str(tree))}: 1 of 2 files differ: a.c 1; by stream: findings 1; "
        "1 runs differ in their exit code or in output that names no file",
    ]
    assert len(lines) == 2 + len(expected), proc.stdout
    for pattern, line in zip(expected, lines[2:]):
        assert re.fullmatch(pattern, line), (pattern, line)


def test_a_changed_profile_reader_is_reported(tmp_path):
    # a given string_delims is ignored; no built-in profile gives one, so only the --profile run differs
    new_root = mutant(tmp_path, "profiles", """
        _KEYS = {**_KEYS, "string_delims": (*_KEYS["string_delims"][:2], lambda _: _seq(_KEYS["string_delims"][1]))}
    """)
    proc = differential(ROOT, new_root, programs=10)  # N = 10: one soup in the --profile run's profile
    assert proc.returncode == 1, proc.stdout + proc.stderr
    first, summary = proc.stdout.splitlines()[1], proc.stdout.splitlines()[-1]
    assert "the runs differ with --profile " in first
    assert re.fullmatch(r"differential: 1 of \d+ files differ: profiled 1; by stream: .*", summary), summary
