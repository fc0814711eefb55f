"""Smoke test of ``tools/differential.py`` on a small corpus."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "differential.py")


def differential(old_root, new_root):
    argv = [sys.executable, TOOL, old_root, new_root, "--programs", "5", "--seeds"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def test_a_tree_agrees_with_itself():
    proc = differential(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "no difference" in proc.stdout


def test_a_changed_dump_is_reported(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "xcheck" / "cli.py"
    cli.write_text(cli.read_text().replace("// AST ", "// TREE "))
    proc = differential(ROOT, str(tmp_path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "stdout line 1:" in proc.stdout and "// TREE" in proc.stdout


def test_a_changed_line_range_window_is_reported(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "xcheck" / "cli.py"
    source = cli.read_text()
    assert "if line_range is not None:" in source
    cli.write_text(source.replace("if line_range is not None:", "if False:"))  # the window is ignored
    proc = differential(ROOT, str(tmp_path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "differ with --line-range" in proc.stdout
