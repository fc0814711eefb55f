"""Smoke test of ``tools/differential.py`` on a small corpus."""

import importlib.util
import os
import pathlib
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "differential.py")


def differential(old_root, new_root, programs=5):
    argv = [sys.executable, TOOL, old_root, new_root, "--programs", str(programs), "--seeds"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def src_lines(root):
    return sum(path.read_bytes().count(b"\n") for path in pathlib.Path(root, "src", "xcheck").glob("*.py"))


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
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "xcheck" / "cli.py"
    source = cli.read_text()
    assert "if line_range is not None:" in source
    cli.write_text(source.replace("if line_range is not None:", "if False:"))  # the window is ignored
    proc = differential(ROOT, str(tmp_path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "differ with --line-range" in proc.stdout


def test_every_differing_file_is_counted_by_group_and_stream(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    checkers = tmp_path / "src" / "xcheck" / "checkers.py"
    source = checkers.read_text()
    assert "checked for null here but dereferenced earlier" in source
    checkers.write_text(source.replace("checked for null here", "tested for null"))
    proc = differential(ROOT, str(tmp_path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "differ at stdout line" in proc.stdout
    assert "15 files differ at" not in proc.stdout.splitlines()[1]  # the corpus size is no count of differing files
    summary = proc.stdout.splitlines()[-1]
    # 3 fixtures, 2 golden inputs, 5 programs and 5 soups; two fixtures and one
    # golden input hold a null-deref finding, and so do some of the programs
    found = re.fullmatch(r"differential: (\d+) of 15 files differ: fixtures 2, golden 1, programs (\d+); by stream: findings \1", summary)
    assert found and int(found[1]) == 3 + int(found[2]), summary


def test_a_changed_null_event_log_is_reported(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    checkers = tmp_path / "src" / "xcheck" / "checkers.py"
    source = checkers.read_text()
    append = "out.append(DerefEvent(path[0], number, offset))"
    assert source.count(append) == 1
    checkers.write_text(source.replace(append, f"{append}; {append}"))  # every DerefEvent twice: no finding changes
    proc = differential(ROOT, str(tmp_path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    first, summary = proc.stdout.splitlines()[1], proc.stdout.splitlines()[-1]
    assert "differ in the null-event logs, statement key classes or incomplete marks at stdout line" in first
    assert re.fullmatch(r"differential: \d+ of 15 files differ: .*; by stream: log \d+", summary), summary


def test_a_changed_incomplete_mark_is_reported(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    parser = tmp_path / "src" / "xcheck" / "microgrammar.py"
    source = parser.read_text()
    block = "Block(body, _extent(self.toks, lo - 1, self.i), incomplete=not ok)"
    assert source.count(block) == 1
    # no block is incomplete: no CLI output changes, only the log run's marks
    parser.write_text(source.replace(block, block.replace("not ok", "False")))
    proc = differential(ROOT, str(tmp_path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    first, summary = proc.stdout.splitlines()[1], proc.stdout.splitlines()[-1]
    assert "differ in the null-event logs, statement key classes or incomplete marks at stdout line" in first
    assert re.fullmatch(r"differential: \d+ of 15 files differ: .*; by stream: log \d+", summary), summary


def test_a_changed_token_kind_is_reported(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    lexer = tmp_path / "src" / "xcheck" / "lexer.py"
    source = lexer.read_text()
    hex_kind = '''floaty = "." in text or "p" in text[2:] or "P" in text[2:]
            kind = _FLOAT if floaty else _INT'''
    assert source.count(hex_kind) == 1
    # 0x1f lexes as a FLOAT_LITERAL: the dump prints only its text, so only the log run differs
    lexer.write_text(source.replace(hex_kind, hex_kind.replace("_FLOAT if floaty else _INT", "_INT if floaty else _FLOAT")))
    proc = differential(ROOT, str(tmp_path), programs=10)  # N = 10: one file of the directives row, which masks with hex
    assert proc.returncode == 1, proc.stdout + proc.stderr
    first, summary = proc.stdout.splitlines()[1], proc.stdout.splitlines()[-1]
    assert "differ in the null-event logs, statement key classes or incomplete marks at stdout line" in first
    assert "tokens" in proc.stdout.splitlines()[2]
    assert re.fullmatch(r"differential: \d+ of \d+ files differ: .*; by stream: log \d+", summary), summary


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
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    checkers = tmp_path / "src" / "xcheck" / "checkers.py"
    source = checkers.read_text()
    pairs = '{(c, u) for c in ("<", "<=") for u in ("--", "-=")}'
    assert source.count(pairs) == 1
    checkers.write_text(source.replace(pairs, pairs.replace('"<=")', '"<=", "==")')))  # i == n with i-- is a finding
    argv = [sys.executable, TOOL, ROOT, str(tmp_path), "--programs", "0", "--seeds", "--tree", str(tree), "--tree", f"c={tree}"]
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
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    profiles = tmp_path / "src" / "xcheck" / "profiles.py"
    source = profiles.read_text()
    row = '"string_delims": ("string_delims", "\\" \'", _seq),'
    assert source.count(row) == 1
    # a given string_delims is ignored; no built-in profile gives one, so only the --profile run differs
    profiles.write_text(source.replace(row, row.replace("_seq", "lambda _: _seq('\" \\'')")))
    proc = differential(ROOT, str(tmp_path), programs=10)  # N = 10: one soup in the --profile run's profile
    assert proc.returncode == 1, proc.stdout + proc.stderr
    first, summary = proc.stdout.splitlines()[1], proc.stdout.splitlines()[-1]
    assert "the runs differ with --profile " in first
    assert re.fullmatch(r"differential: 1 of \d+ files differ: profiled 1; by stream: .*", summary), summary
