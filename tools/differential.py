"""Differential check: do two xcheck source trees behave the same?

Run from anywhere::

    python3 tools/differential.py OLD_ROOT NEW_ROOT [--programs N] [--seeds S ...]

Each ROOT is a checkout (the directory holding ``src/``).  One corpus is
written to a temporary directory: the bundled regression fixtures, the
golden-dump inputs under ``tests/golden/``, ``N`` seeded
``random_micro_program``s, ``N`` seeded token soups
(``random_token_source``) and ``N // 10`` seeded ``long_chain_program``s
(operator chains that cross the refinement depth cap), the last two spread
over C, C++ and Java, from ``tests/support.py``, and, for each seed, the
benchmark's three workloads (``tree_mixed``, ``docs_heavy`` and the six
``stress_shapes``) from ``bench/``.  The corpus comes from this checkout,
so both sides see the same files.

The CLI then runs once per side, ``xcheck --dump-ast --format json DIR``
with ``ROOT/src`` on ``PYTHONPATH``, and the exit codes, stdout and stderr
are compared.  The first difference is printed and the exit status is 1;
when the two sides agree the status is 0.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import subprocess
import sys
import tempfile
from itertools import zip_longest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_CODE = "from xcheck.cli import main; main()"
FIXTURES = ("object.c", "InstCombineAddSub.cpp", "CipherCore.java")
GOLDEN = os.path.join(ROOT, "tests", "golden")
SOUP_LANGUAGES = (("c", ".c"), ("cpp", ".cpp"), ("java", ".java"))
SOUP_MAX_TOKENS = 256
WORKLOADS = ("tree_mixed", "docs_heavy", "stress_shapes")


def write_corpus(dest: str, programs: int, seeds: list[int]) -> None:
    sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "tests", "bench")]
    import run as bench_run
    from support import long_chain_program, random_micro_program, random_token_source
    from xcheck.profiles import profile_for

    os.makedirs(os.path.join(dest, "fixtures"))
    for name in FIXTURES:
        shutil.copy(os.path.join(ROOT, "src", "xcheck", "fixtures", name), os.path.join(dest, "fixtures"))
    os.makedirs(os.path.join(dest, "golden"))
    for name in sorted(os.listdir(GOLDEN)):
        if not name.endswith(".out"):
            shutil.copy(os.path.join(GOLDEN, name), os.path.join(dest, "golden"))
    os.makedirs(os.path.join(dest, "programs"))
    rng = random.Random(0)
    for i in range(programs):
        with open(os.path.join(dest, "programs", f"p{i:04d}.c"), "w", encoding="utf-8") as fh:
            fh.write(random_micro_program(rng))
    os.makedirs(os.path.join(dest, "soups"))
    rng = random.Random(1)
    for i in range(programs):
        language, extension = SOUP_LANGUAGES[i % len(SOUP_LANGUAGES)]
        source = random_token_source(rng, profile_for(language), SOUP_MAX_TOKENS)
        with open(os.path.join(dest, "soups", f"s{i:04d}{extension}"), "w", encoding="utf-8") as fh:
            fh.write(source)
    os.makedirs(os.path.join(dest, "chains"))
    rng = random.Random(2)
    for i in range(programs // 10):
        _, extension = SOUP_LANGUAGES[i % len(SOUP_LANGUAGES)]
        with open(os.path.join(dest, "chains", f"c{i:04d}{extension}"), "w", encoding="utf-8") as fh:
            fh.write(long_chain_program(rng))
    for seed in seeds:
        for workload in WORKLOADS:
            files, _ = bench_run.build_workload(workload, seed)
            bench_run.write_tree(os.path.join(dest, f"{workload}-{seed}"), files)


def run_side(root: str, corpus: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(root), "src")}
    return subprocess.run(
        [sys.executable, "-c", CLI_CODE, "--dump-ast", "--format", "json", corpus],
        capture_output=True,
        text=True,
        env=env,
        timeout=900,
    )


def first_difference(old: subprocess.CompletedProcess, new: subprocess.CompletedProcess) -> str | None:
    if old.returncode != new.returncode:
        return f"exit code: old {old.returncode}, new {new.returncode}"
    for channel in ("stdout", "stderr"):
        pairs = zip_longest(getattr(old, channel).splitlines(True), getattr(new, channel).splitlines(True))
        for number, (a, b) in enumerate(pairs, 1):
            if a != b:
                return f"{channel} line {number}:\n  old: {a!r}\n  new: {b!r}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_root")
    parser.add_argument("new_root")
    parser.add_argument("--programs", type=int, default=500, help="generated programs (default 500)")
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2], help="bench corpus seeds (default 1 2)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="xcheck-diff-") as corpus:
        write_corpus(corpus, args.programs, args.seeds)
        files = sum(len(names) for _, _, names in os.walk(corpus))
        old, new = run_side(args.old_root, corpus), run_side(args.new_root, corpus)
    diff = first_difference(old, new)
    if diff is not None:
        print(f"differential: {files} files differ at {diff}")
        return 1
    print(
        f"differential: {files} files, no difference "
        f"(exit {old.returncode}, {len(old.stdout.splitlines())} stdout lines, "
        f"{len(old.stderr.splitlines())} stderr lines)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
