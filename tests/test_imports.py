"""What a CLI run loads.

The CLI is a short-lived process, so every module it imports is paid for
on every run.  Each check runs in a fresh interpreter (``-S``: no site
hooks, so nothing else preloads a module) and diffs ``sys.modules``.
"""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

SOURCE = (
    "void f(struct s *p) {\n"
    "  int x = p->v;\n"
    "  if (p == NULL) return;\n"
    "  for (i = 0; i < n; i--) g(i);\n"
    "}\n"
)

# Never imported by a default run: slow to import, or needed only elsewhere.
HEAVY = {"dataclasses", "inspect", "json"}


def _run(tmp_path, code: str) -> tuple[set[str], str]:
    """Modules that ``code`` adds to a fresh interpreter, and what it prints."""
    (tmp_path / "a.c").write_text(SOURCE)
    script = (
        "import io, sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "with open('modules.txt', 'w') as fh:\n"
        "    fh.write('\\n'.join(set(sys.modules) - before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set((tmp_path / "modules.txt").read_text().split()), proc.stdout


def test_importing_the_cli_loads_no_heavy_module(tmp_path):
    added, _ = _run(tmp_path, "import xcheck.cli")
    assert "xcheck.cli" in added
    assert not added & HEAVY, sorted(added & HEAVY)


def test_a_text_format_run_loads_no_heavy_module(tmp_path):
    code = (
        "from xcheck.cli import parse_args, run\n"
        "out = io.StringIO()\n"
        "run(parse_args(['a.c']), out=out)\n"
        "print(out.getvalue(), end='')"
    )
    added, out = _run(tmp_path, code)
    assert "[null-deref]" in out and "[loop-direction]" in out
    assert not added & HEAVY, sorted(added & HEAVY)


def test_a_json_format_run_prints_the_same_bytes(tmp_path):
    code = "from xcheck.cli import parse_args, run\nrun(parse_args(['--format', 'json', 'a.c']))"
    added, out = _run(tmp_path, code)
    assert "json" in added
    assert out == (
        "[\n"
        "  {\n"
        '    "checker": "null-deref",\n'
        '    "message": "\'p\' checked for null here but dereferenced earlier",\n'
        '    "file": "a.c",\n'
        '    "start_line": 3,\n'
        '    "start_col": 7,\n'
        '    "end_line": 3,\n'
        '    "end_col": 16,\n'
        '    "related_line": 2,\n'
        '    "related_col": 11,\n'
        '    "related_note": "\'p\' dereferenced"\n'
        "  },\n"
        "  {\n"
        '    "checker": "loop-direction",\n'
        '    "message": "loop variable \'i\' is updated with \'--\' but bounded by \'<\'",\n'
        '    "file": "a.c",\n'
        '    "start_line": 4,\n'
        '    "start_col": 7,\n'
        '    "end_line": 4,\n'
        '    "end_col": 26\n'
        "  }\n"
        "]\n"
    )
