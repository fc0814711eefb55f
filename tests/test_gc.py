"""The CLI process runs without the cyclic garbage collector.

``cli.main`` turns the collector off before it parses its arguments.  That
is sound only while the pipeline makes no reference cycles, so that reference
counting alone frees every token, node, event and finding; the first test
holds the pipeline to that.  The others check the policy itself: a CLI
process, started the way the benchmark starts it, runs no collection, and
``run()`` in process leaves the collector as its caller set it.
"""

from __future__ import annotations

import gc
import importlib.util
import io
import os
import random
import subprocess
import sys

import pytest

from support import long_chain_program, random_micro_program, random_token_source
from xcheck.checkers import CHECKERS, run_checkers
from xcheck.cli import analyze_source, parse_args, run
from xcheck.diagnostics import render_text
from xcheck.lexer import tokenize
from xcheck.microgrammar import MAX_NESTING, dump_statements, parse_statements
from xcheck.profiles import DEFAULT_REGISTRY, profile_for

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(SRC, "xcheck", "fixtures")
GOLDEN = os.path.join(ROOT, "tests", "golden")
CORPUS = os.path.join(ROOT, "bench", "corpus.py")
SHAPE_SIZES = {  # small sizes, each still past the cap its shape stresses
    "and_chain": 200,
    "deep_braces": 100,
    "elif_chain": 40,
    "big_switch": 40,
    "long_line": 4000,
    "open_comment": 4000,
}


def _bench_corpus():
    spec = importlib.util.spec_from_file_location("bench_corpus", CORPUS)
    corpus = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(corpus)
    return corpus


def _nests(depth: int) -> list[str]:
    """Each control form nested ``depth`` deep, with a dereference and a null test inside."""
    inner = "use(p->x); if (p == NULL) g();"
    return [
        "void f(void) {" + "if (p->x) {" * depth + inner + "}" * depth + "}",
        "void f(void) {" + "{" * depth + inner + "}" * depth + "}",
        "void f(void) {" + "while (q) " * depth + inner + "}",
        "void f(void) {" + "for (i = 0; i < n; i++) " * depth + inner + "}",
        "void f(void) {" + "switch (k) { case 1: " * depth + inner + "}" * depth + "}",
        "void f(void) {" + "do " * depth + inner + "}",
    ]


def _inputs() -> list[tuple[str, str, str]]:
    """(source, profile name, path) for every input shape the test suite generates."""
    out = []
    for directory in (FIXTURES, GOLDEN):
        for name in sorted(os.listdir(directory)):
            path = os.path.join(directory, name)
            if name.endswith((".c", ".cpp", ".java")):
                with open(path, encoding="utf-8") as fh:
                    out.append((fh.read(), DEFAULT_REGISTRY.resolve_path(path).name, path))
    rng = random.Random(23)
    for language in ("c", "cpp", "java"):
        profile = profile_for(language)
        out += [(random_token_source(rng, profile, 256), language, f"soup.{language}") for _ in range(30)]
        out.append(("int f() { g(); /* a comment that is never closed\n int x;", language, "open-comment"))
        out.append(('void f() { s = "a string that is never closed\n g(); }', language, "open-string"))
    out += [(random_micro_program(rng), "c", "program.c") for _ in range(60)]
    out += [(long_chain_program(rng), "c", "chain.c") for _ in range(10)]
    corpus = _bench_corpus()
    out += [(corpus.shape(name, 23, n).text, "c", f"{name}.c") for name, n in SHAPE_SIZES.items()]
    out += [(source, "c", "nest.c") for source in _nests(MAX_NESTING + 36)]
    return out


def _pipeline(source: str, language: str, path: str) -> None:
    profile = profile_for(language)
    stmts = parse_statements(tokenize(source, profile, source_path=path).tokens, profile)
    render_text(run_checkers(stmts, profile, path=path))
    dump_statements(stmts)
    third = source.count("\n") // 3 + 1
    analyze_source(source, profile, path, (third, 2 * third), tuple(CHECKERS))


def test_the_pipeline_makes_no_reference_cycles():
    # Built first: long_chain_program's recursive closure makes cycles of its own.
    inputs = _inputs()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for source, language, path in inputs:
            _pipeline(source, language, path)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# Runs the CLI as the benchmark does, and writes how many collections ran
# between the entry and the process's exit.
CLI_SCRIPT = """
import atexit, gc
from xcheck.cli import main

def collections():
    return sum(generation["collections"] for generation in gc.get_stats())

def write_count():
    with open("collections.txt", "w") as fh:
        fh.write(str(collections() - before))

before = collections()
atexit.register(write_count)
main()
"""


def test_the_cli_process_runs_no_collection(tmp_path):
    corpus = _bench_corpus()
    files = corpus.tree("mixed", 23, 100)
    for f in files:
        path = tmp_path / "tree" / f.relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f.text, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CLI_SCRIPT, "tree"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stdout.splitlines()) >= sum(len(f.findings) for f in files)
    assert (tmp_path / "collections.txt").read_text() == "0"


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_run_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    (tmp_path / "a.c").write_text("void f(struct s *p) { int x = p->v; if (p == NULL) return; }\n")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run(parse_args([str(tmp_path / "a.c")]), out=io.StringIO()) == 1
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
