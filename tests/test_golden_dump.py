"""`--dump-ast --format json` output pinned byte for byte.

The golden files under ``tests/golden/`` hold the stdout of
``xcheck --dump-ast --format json NAME`` run in the source's directory:
the statement tree of each input followed by its findings.  They pin the
dump format itself, which the parser oracle cannot (it renders both sides
with the same ``dump_statements``).  ``all_forms.cpp`` has every statement
form: do-while, ``for(;;)``, a range-for that degrades, if/elif/else
chains, a switch with ``default`` and stray tokens before its ``:``,
nested blocks, and input cut short.  ``empty_slots.c`` has empty
conditions, case labels and assignment sides: its two findings are
positioned at the anchors of empty wildcards (the open parenthesis of an
empty condition, the ``case`` keyword of an empty label).
"""

import io
import os

import pytest

from xcheck.cli import parse_args, run
from xcheck.fixtures import fixture_path

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
FIXTURES = os.path.dirname(fixture_path("object.c"))

CASES = [
    (FIXTURES, "object.c", 0),
    (FIXTURES, "InstCombineAddSub.cpp", 1),
    (FIXTURES, "CipherCore.java", 1),
    (GOLDEN, "all_forms.cpp", 1),
    (GOLDEN, "empty_slots.c", 1),
]


@pytest.mark.parametrize("directory,name,code", CASES, ids=[c[1] for c in CASES])
def test_dump_ast_json_matches_golden(directory, name, code, monkeypatch):
    monkeypatch.chdir(directory)
    out, err = io.StringIO(), io.StringIO()
    assert run(parse_args(["--dump-ast", "--format", "json", name]), out, err) == code
    with open(os.path.join(GOLDEN, name + ".out"), encoding="utf-8") as fh:
        assert out.getvalue() == fh.read()
