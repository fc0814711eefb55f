"""CLI contract: flag parsing, exit codes, output channels."""

import argparse
import errno
import io
import json
import os
import subprocess
import sys

import pytest

import xcheck
from xcheck.cli import parse_args, run
from xcheck.fixtures import case_by_name, fixture_path, load_source
from xcheck.profiles import DEFAULT_REGISTRY, Registry, UnknownLanguage

MINI_PROFILE_TEXT = """\
name = mini
extensions = .mini
operators = . == != < > = ! && ||
keywords = if else while for
deref_ops = .
null_literals = nil
"""


def invoke(argv_or_config):
    out, err = io.StringIO(), io.StringIO()
    config = argv_or_config if isinstance(argv_or_config, argparse.Namespace) else parse_args(argv_or_config)
    code = run(config, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# -- parse_args -----------------------------------------------------------------


def test_defaults():
    config = parse_args(["--format", "json", "a.c"])
    assert config.format == "json"
    assert config.paths == ["a.c"]
    assert set(config.checkers) == {
        "redundant-condition",
        "redundant-branch",
        "loop-direction",
        "null-deref",
    }
    assert config.line_range is None and not config.dump_ast


def test_checker_subset():
    config = parse_args(["--checkers", "loop-direction", "a.c"])
    assert config.checkers == ("loop-direction",)


def test_unknown_checker_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(["--checkers", "made-up", "a.c"])
    assert exc.value.code == 2


def test_reversed_line_range_exits_2():
    with pytest.raises(SystemExit) as exc:
        parse_args(["--line-range", "516:440", "a.c"])
    assert exc.value.code == 2


def test_malformed_line_range_exits_2():
    with pytest.raises(SystemExit) as exc:
        parse_args(["--line-range", "abc", "a.c"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        parse_args(["--frobnicate", "a.c"])
    assert exc.value.code == 2


def test_line_range_parses():
    assert parse_args(["--line-range", "440:516", "a.c"]).line_range == (440, 516)


# -- run ------------------------------------------------------------------------


def test_missing_file_exits_2():
    code, out, err = invoke(["missing.c"])
    assert code == 2 and out == "" and "missing.c" in err


def test_unknown_extension_of_explicit_file_exits_2(tmp_path):
    path = tmp_path / "notes.xyz"
    path.write_text("if (p) q();")
    code, _, err = invoke([str(path)])
    assert code == 2 and "no profile" in err


def test_lang_override_rescues_unknown_extension(tmp_path):
    path = tmp_path / "notes.xyz"
    path.write_text("p->f(x);\nif (p) q();\n")
    code, out, _ = invoke(["--lang", "c", str(path)])
    assert code == 1 and "null-deref" in out


def test_clean_file_exits_0(tmp_path):
    path = tmp_path / "ok.c"
    path.write_text("if (p) q();\n")
    code, out, _ = invoke([str(path)])
    assert code == 0 and out == ""


def test_finding_exits_1_and_prints_text(tmp_path):
    path = tmp_path / "bad.c"
    path.write_text("p->f(x);\nif (p) q();\n")
    code, out, _ = invoke([str(path)])
    assert code == 1
    assert out.splitlines()[0].startswith(f"{path}:2:5: warning [null-deref]:")


def test_json_format_round_trips(tmp_path):
    path = tmp_path / "bad.c"
    path.write_text("p->f(x);\nif (p) q();\n")
    code, out, _ = invoke(["--format", "json", str(path)])
    records = json.loads(out)
    assert code == 1 and len(records) == 1
    assert records[0]["checker"] == "null-deref"
    assert records[0]["file"] == str(path)
    assert records[0]["start_line"] == 2 and records[0]["related_line"] == 1


def test_directory_walk_skips_unknown_extensions(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "bad.c").write_text("p->f(x);\nif (p) q();\n")
    (tmp_path / "README.md").write_text("# not source\n")
    code, out, err = invoke([str(tmp_path)])
    assert code == 1
    assert "README.md" in err and "skipping" in err
    assert "README.md" not in out


def test_directory_output_order_is_deterministic(tmp_path):
    (tmp_path / "b.c").write_text("p->f(x);\nif (p) q();\n")
    (tmp_path / "a.c").write_text("q->f(x);\nif (q) r();\n")
    _, first, _ = invoke([str(tmp_path)])
    _, second, _ = invoke([str(tmp_path)])
    assert first == second
    lines = first.splitlines()
    assert lines[0].startswith(str(tmp_path / "a.c"))
    assert lines[2].startswith(str(tmp_path / "b.c"))


def test_unreadable_file_is_reported_and_the_rest_still_analyzed(tmp_path):
    (tmp_path / "a.c").write_text("p->f(x);\nif (p) q();\n")
    os.symlink(tmp_path / "missing.c", tmp_path / "b.c")
    (tmp_path / "c.c").write_text("q->f(x);\nif (q) r();\n")
    code, out, err = invoke([str(tmp_path)])
    assert code == 2
    lines = out.splitlines()
    assert lines[0].startswith(f"{tmp_path / 'a.c'}:2:5: warning [null-deref]:")
    assert lines[2].startswith(f"{tmp_path / 'c.c'}:2:5: warning [null-deref]:")
    assert err.splitlines() == [f"xcheck: error: {tmp_path / 'b.c'}: {os.strerror(errno.ENOENT)}"]


def test_link_to_a_directory_is_reported_and_not_followed(tmp_path):
    (tmp_path / "real").mkdir()
    (tmp_path / "real" / "bad.c").write_text("p->f(x);\nif (p) q();\n")
    (tmp_path / "dir").mkdir()
    link = tmp_path / "dir" / "l"
    os.symlink(os.path.join("..", "real"), link)
    code, out, err = invoke([str(tmp_path / "dir")])
    assert (code, out) == (0, "")
    assert err.splitlines() == [f"xcheck: skipping {link} (link to a directory, not followed)"]
    # A link named on the command line is followed.
    code, out, err = invoke([str(link)])
    assert code == 1 and out.startswith(f"{link / 'bad.c'}:2:5: warning [null-deref]:")
    assert err == ""


@pytest.mark.parametrize("locked", ["sub", "."])
def test_unreadable_directory_is_reported_and_the_rest_still_analyzed(tmp_path, monkeypatch, locked):
    (tmp_path / "a.c").write_text("p->f(x);\nif (p) q();\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.c").write_text("q->f(x);\nif (q) r();\n")
    (tmp_path / "z.c").write_text("r->f(x);\nif (r) s();\n")
    denied = os.path.normpath(tmp_path / locked)
    real_scandir = os.scandir

    def scandir(path):  # a permission check that holds even for root
        if os.path.normpath(path) == denied:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", scandir)
    code, out, err = invoke([str(tmp_path)])
    assert code == 2
    assert err.splitlines() == [f"xcheck: error: {denied}: {os.strerror(errno.EACCES)}"]
    analyzed = [line.split(":")[0] for line in out.splitlines() if "warning" in line]
    assert analyzed == ([] if locked == "." else [str(tmp_path / "a.c"), str(tmp_path / "z.c")])


GOOD_C = "p->f(x);\nif (p) q();\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--dump-ast", "GOOD.c", "notes.xyz"],
        ["--dump-ast", "--lang", "nosuch", "GOOD.c"],
        ["--dump-ast", "GOOD.c", "missing.c"],
        ["--line-range", "1:5", "DIR"],
        ["DIR", "missing.c"],
    ],
)
def test_usage_error_prints_nothing_to_stdout_and_analyzes_nothing(tmp_path, argv):
    (tmp_path / "GOOD.c").write_text(GOOD_C)
    (tmp_path / "notes.xyz").write_text("if (p) q();")
    (tmp_path / "DIR").mkdir()
    (tmp_path / "DIR" / "notes.xyz").write_text("if (p) q();")
    names = {"GOOD.c", "notes.xyz", "missing.c", "DIR"}
    code, out, err = invoke([str(tmp_path / a) if a in names else a for a in argv])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("xcheck: error: ")


@pytest.mark.parametrize("lang, lookups", [([], 4), (["--lang", "c"], 5)])
def test_each_file_profile_is_looked_up_once(tmp_path, monkeypatch, lang, lookups):
    for name in ("a.c", "b.c", "c.c"):
        (tmp_path / name).write_text(GOOD_C)
    (tmp_path / "notes.xyz").write_text("p->f(x);\nif (p) q();\n")
    calls = []
    for lookup in ("resolve", "resolve_path"):
        real = getattr(Registry, lookup)
        monkeypatch.setattr(Registry, lookup, lambda self, key, real=real: calls.append(key) or real(self, key))
    code, out, err = invoke([*lang, str(tmp_path)])
    assert len(calls) == lookups
    assert code == 1 and out.count("null-deref") == 3 and "notes.xyz" not in out
    assert err.splitlines() == [f"xcheck: skipping {tmp_path / 'notes.xyz'} (no profile for extension)"]


def _invoke_process(argv, cwd):
    """The CLI in a process of its own, so that an input it blocks on fails the test by timeout."""
    src_dir = os.path.dirname(os.path.dirname(xcheck.__file__))
    pythonpath = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "xcheck", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=30,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_a_fifo_met_in_a_walk_is_skipped_and_the_rest_analyzed(tmp_path):
    (tmp_path / "a.c").write_text(GOOD_C)
    os.mkfifo(tmp_path / "b.c")
    (tmp_path / "c.c").write_text(GOOD_C)
    code, out, err = _invoke_process(["."], tmp_path)
    assert code == 1
    assert [line.split(":")[0] for line in out.splitlines() if "warning" in line] == ["./a.c", "./c.c"]
    assert err.splitlines() == ["xcheck: skipping ./b.c (not a regular file)"]


def test_a_named_fifo_is_a_setup_error(tmp_path):
    (tmp_path / "a.c").write_text(GOOD_C)
    os.mkfifo(tmp_path / "b.c")
    code, out, err = _invoke_process(["a.c", "b.c"], tmp_path)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["xcheck: error: not a regular file or directory: b.c"]


def test_lang_is_looked_up_by_language_name_only(tmp_path):
    (tmp_path / "x.txt").write_text("p.f(x);\nif (p == null) q();\n")
    code, out, err = _invoke_process(["--lang", "foo.java", "x.txt"], tmp_path)
    assert (code, out) == (2, "") and err.startswith("xcheck: error: no profile for 'foo.java'")
    code, out, _ = _invoke_process(["--lang", "java", "x.txt"], tmp_path)
    assert code == 1 and "null-deref" in out


def test_an_input_profile_is_looked_up_by_extension_only(tmp_path):
    (tmp_path / "c").write_text(GOOD_C)
    code, out, err = _invoke_process(["c"], tmp_path)
    assert (code, out) == (2, "") and err.startswith("xcheck: error: no profile for 'c'")
    code, out, _ = _invoke_process(["--lang", "c", "c"], tmp_path)
    assert code == 1 and "null-deref" in out


def test_line_range_requires_single_file(tmp_path):
    (tmp_path / "a.c").write_text("x;\n")
    config = parse_args(["--line-range", "1:5", str(tmp_path)])
    code, _, err = invoke(config)
    assert code == 2 and "line-range" in err


def test_line_range_filters_but_keeps_original_positions():
    case = case_by_name("instcombine")
    path = fixture_path(case.filename)
    windowed_code, windowed_out, _ = invoke(
        ["--lang", "cpp", "--line-range", "440:516", "--format", "json", path]
    )
    full_code, full_out, _ = invoke(["--lang", "cpp", "--format", "json", path])
    windowed = json.loads(windowed_out)
    full = json.loads(full_out)
    assert windowed_code == full_code == 1
    assert len(windowed) == 1 and len(full) == 2
    assert all(440 <= r["start_line"] <= 516 for r in windowed)
    # the same finding carries identical positions in both modes
    target = [r for r in full if r["start_line"] == windowed[0]["start_line"]]
    assert target and {**target[0], "file": "x"} == {**windowed[0], "file": "x"}


# Window edges here cut through a block comment over lines 2-3, a string
# whose escaped newline runs from line 4 into 5, and a directive continued
# from line 6 onto 7.
LINE_RANGE_SOURCE = (
    "int a = 1;\n"
    "/* a comment\n"
    "   over two lines */ b = 2;\n"
    'char *s = "one\\\n'
    'two"; c = 3;\n'
    "#define M(x) \\\n"
    "    (x + 1)\n"
    "if (p) d = p->e;\n"
    "if (p == NULL) f = 5;"
)


def test_line_range_keeps_the_tokens_that_start_inside_the_window(monkeypatch):
    from xcheck import cli
    from xcheck.checkers import CHECKERS
    from xcheck.lexer import tokenize
    from xcheck.profiles import profile_for

    c = profile_for("c")
    all_tokens = tokenize(LINE_RANGE_SOURCE, c).tokens
    assert {t.pos.line for t in all_tokens} == {1, 3, 4, 5, 8, 9}
    kept = []
    monkeypatch.setattr(cli, "parse_statements", lambda tokens, profile: kept.append(tokens) or [])
    for first in range(1, 12):
        for last in range(first, 12):
            cli.analyze_source(LINE_RANGE_SOURCE, c, "t.c", (first, last), tuple(CHECKERS))
            assert kept.pop() == [t for t in all_tokens if first <= t.pos.line <= last], (first, last)


def test_line_range_prints_the_lex_warnings_that_start_inside_the_window(tmp_path):
    path = tmp_path / "lr.c"
    path.write_text("int a = @;\nvoid f(struct s *p) {\n  use(p->a);\n  if (p == NULL) return;\n}\nint b = @;\n")
    code, out, err = invoke(["--line-range", "2:5", str(path)])
    assert code == 1 and f"{path}:4:7: warning [null-deref]" in out and err == ""
    _, _, err = invoke(["--line-range", "1:1", str(path)])
    assert err == f"{path}:1:9: lex-warning: unexpected character '@'\n"
    # a block comment left open runs to the end of the file, over any later window
    path.write_text("int a;\n/* open\nint b = @;\n")
    _, _, err = invoke(["--line-range", "3:3", str(path)])
    assert err.splitlines() == [f"{path}:2:1: lex-warning: block comment is never closed"]
    _, _, err = invoke(["--line-range", "1:1", str(path)])
    assert err == ""


def test_dump_ast_prints_tree_before_findings(tmp_path):
    path = tmp_path / "bad.c"
    path.write_text("p->f(x);\nif (p) q();\n")
    code, out, _ = invoke(["--dump-ast", str(path)])
    assert code == 1
    assert out.splitlines()[0].startswith("// AST")
    assert "If @2:1" in out
    assert "null-deref" in out


def test_profile_flag_registers_language(tmp_path):
    profile_file = tmp_path / "mini.profile"
    profile_file.write_text(MINI_PROFILE_TEXT)
    source = tmp_path / "demo.mini"
    source.write_text("x = p.f;\nif (p == nil) g();\n")
    code, out, _ = invoke(["--profile", str(profile_file), str(source)])
    assert code == 1 and "null-deref" in out


def test_a_profile_file_may_start_with_a_byte_order_mark(tmp_path):
    profile_file = tmp_path / "mini.profile"
    profile_file.write_bytes(b"\xef\xbb\xbf" + MINI_PROFILE_TEXT.encode())
    source = tmp_path / "demo.mini"
    source.write_text("x = p.f;\nif (p == nil) g();\n")
    code, out, err = invoke(["--profile", str(profile_file), str(source)])
    assert (code, err) == (1, "") and "null-deref" in out


def assert_only_builtins(registry):
    """``registry`` still resolves the three built-ins and never took the loaded profile."""
    assert [registry.resolve(name).name for name in ("c", "cpp", "java")] == ["c", "cpp", "java"]
    with pytest.raises(UnknownLanguage):
        registry.resolve("mini")
    with pytest.raises(UnknownLanguage):
        registry.resolve_path("demo.mini")


def test_profile_flag_validates_only_the_loaded_profile(tmp_path, monkeypatch):
    from xcheck import profiles

    calls = []
    validate = profiles.validate_profile
    monkeypatch.setattr(profiles, "validate_profile", lambda p: calls.append(p.name) or validate(p))
    profile_file = tmp_path / "mini.profile"
    profile_file.write_text(MINI_PROFILE_TEXT)
    source = tmp_path / "demo.mini"
    source.write_text("x = p.f;\nif (p == nil) g();\n")
    code, out, _ = invoke(["--profile", str(profile_file), str(source)])
    assert code == 1 and "null-deref" in out
    assert calls == ["mini"]  # the built-ins were validated when registered, not again
    assert_only_builtins(DEFAULT_REGISTRY)


def test_profile_flag_leaves_the_default_registry_untouched(tmp_path, monkeypatch):
    # The runs below use the process-wide registry; its tables are swapped
    # for copies that monkeypatch restores, so nothing leaks to other tests.
    monkeypatch.setattr(DEFAULT_REGISTRY, "_by_name", dict(DEFAULT_REGISTRY._by_name))
    monkeypatch.setattr(DEFAULT_REGISTRY, "_by_ext", dict(DEFAULT_REGISTRY._by_ext))
    profile_file = tmp_path / "mini.profile"
    profile_file.write_text(MINI_PROFILE_TEXT)
    source = tmp_path / "demo.mini"
    source.write_text("x = p.f;\nif (p == nil) g();\n")
    results = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        code = run(parse_args(["--profile", str(profile_file), str(source)]), out=out, err=err)
        results.append((code, out.getvalue()))
    assert results[0] == results[1]
    assert results[0][0] == 1 and "null-deref" in results[0][1]
    assert_only_builtins(DEFAULT_REGISTRY)


def test_exit_codes_cover_the_three_fixtures():
    cipher = fixture_path("CipherCore.java")
    inst = fixture_path("InstCombineAddSub.cpp")
    obj = fixture_path("object.c")
    assert invoke([cipher])[0] == 1
    assert invoke(["--lang", "cpp", "--line-range", "440:516", inst])[0] == 1
    assert invoke([obj])[0] == 0
    assert invoke(["no-such-file.c"])[0] == 2


def test_non_ascii_digit_outside_identifier_exits_0(tmp_path):
    path = tmp_path / "sup.c"
    path.write_text("int f(void) {\n    return ²;\n}\n", encoding="utf-8")
    code, out, err = invoke([str(path)])
    assert code == 0 and out == "" and err == ""


BOM_SOURCE = "#include <stdio.h>\nvoid f(struct s *p) {\n  use(p->a);\n  if (p == NULL) return;\n}\n"


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    # only a leading U+FEFF goes, and line 1's columns count from after it
    bom, plain = tmp_path / "bom.c", tmp_path / "plain.c"
    bom.write_bytes(b"\xef\xbb\xbf" + BOM_SOURCE.encode())
    plain.write_text(BOM_SOURCE)
    code, out, err = invoke(["--dump-ast", str(bom)])
    assert code == 1 and err == ""
    assert out.splitlines()[1].startswith('WildcardStmt @2:1 ["void", ')
    found = []
    for path in (bom, plain):
        code, out, err = invoke(["--format", "json", str(path)])
        found.append([{k: v for k, v in d.items() if k != "file"} for d in json.loads(out)])
    assert found[0] == found[1]
    assert [(d["start_line"], d["start_col"], d["related_line"], d["related_col"]) for d in found[0]] == [(4, 7, 3, 7)]


def test_python_dash_m_runs_the_cli():
    src_dir = os.path.dirname(os.path.dirname(xcheck.__file__))
    pythonpath = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    proc = subprocess.run(
        [sys.executable, "-m", "xcheck", "--format", "json", fixture_path("CipherCore.java")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    records = json.loads(proc.stdout)
    assert [(r["checker"], r["start_line"], r["related_line"]) for r in records] == [
        ("null-deref", 888, 886)
    ]
