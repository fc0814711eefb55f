"""CLI contract: flag parsing, exit codes, output channels."""

import errno
import io
import json
import os
import subprocess
import sys

import pytest

import xcheck
from xcheck.cli import BadRange, RunConfig, parse_args, run
from xcheck.fixtures import case_by_name, fixture_path, load_source
from xcheck.profiles import builtin_registry

MINI_PROFILE_TEXT = """\
name = mini
extensions = .mini
operators = . == != < > = ! && ||
keywords = if else while for
deref_ops = .
null_literals = nil
"""


def invoke(argv_or_config, registry=None):
    out, err = io.StringIO(), io.StringIO()
    config = argv_or_config if isinstance(argv_or_config, RunConfig) else parse_args(argv_or_config)
    code = run(config, registry=registry or builtin_registry(), out=out, err=err)
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
