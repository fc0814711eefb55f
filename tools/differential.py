"""Differential check: do two xcheck source trees behave the same?

Run from anywhere::

    python3 tools/differential.py OLD_ROOT NEW_ROOT [--programs N] [--seeds S ...] [--tree [LANG=]DIR ...]

Each ROOT is a checkout (the directory holding ``src/``).  One corpus is
written to a temporary directory: the bundled regression fixtures, the
golden-dump inputs under ``tests/golden/``, the generated rows of
``write_corpus``'s table, and, for each seed, the benchmark's three
workloads (``tree_mixed``, ``docs_heavy`` and the six ``stress_shapes``)
from ``bench/``.  The rows, each seeded by its place in the table, are:
``N`` ``random_micro_program``s (C) and ``N`` token soups
(``random_token_source``) from ``tests/support.py``; ``N // 10`` each of
``long_chain_program``s (operator chains that cross the refinement depth
cap), deep nests (``if``/``while``/``for``/``switch``/block nests that cross
the parser's nesting cap, dereferencing and testing for null at each level),
comment-dense soups (words joined by runs of whitespace, line comments and
block comments in each profile's own delimiters), kill programs (many roots
dereferenced, then assignments to some of them among null tests of roots and
paths), lines of mid-line preprocessor prefixes between directives (C and C++
only), ``for`` headers over every comparison and update operator, functions over access
paths of 50-500 steps, and functions whose conditions, call arguments and
assignments are wrapped in 1-200 layers of parentheses and nested calls
around null tests and dereferences (some past the refinement depth cap),
functions whose statements leave a bracket of one kind open inside a
group of another kind (``f ( a [ i ) ;``, ``f ( a ] ;``) among dereferences
and null tests, and functions in which each operator that refinement splits
at (``= || && < <= > >= == != += -=``) stands alone in a slot (an ``if`` or
``while`` condition, each ``for`` part, a call argument, a ``case`` label,
``( ( OP ) )`` and ``! OP``), between a dereference and a null test, with one
lone ``else if`` condition and one lone ``case`` label repeated, and functions
that put ``do`` nests between a dereference and a null test (an unclosed ``do
do ... do g ( p->x ) ;`` of 40-200 levels, across the parser's nesting cap, a
closed ``do do g ( ) ; while ( a ) ; while ( b ) ;``, and a ``do { ... } while
( p`` cut short at the function's end), and files that start with U+FEFF, a
byte-order mark, whose first statement dereferences a path that a later
statement tests, and C and C++ functions that dereference and test for null
around directives (at the file's start, after blanks, after line-comment
and block-comment lines, ``#if``/``#endif`` groups with continuation lines,
prefixes after a block comment on the same line, and CRLF line ends in some
files), and functions that put a chain of 40-200 unbraced heads (``if ( a )``,
``while ( b )``, ``for ( i = 0 ; i < n ; i ++ )``, ``if ( c ) g ( ) ; else``
and ``if ( p ) q->x ( ) ; else if ( p )``), across the nesting cap on
single-statement bodies, between a dereference and a null test; all but the
programs, the prefix lines and the directives spread over C, C++ and Java.
Last come ``N // 10`` token soups in ``PROFILE_TEXT``, a profile that sets
every key of the profile-file format, most of them away from their
defaults.  The corpus comes from this checkout, so both sides see the same
files.

The first line printed gives each side's line count of ``src/xcheck/*.py``
(as ``wc -l`` counts) and the difference.

The CLI then runs on each side, with ``ROOT/src`` on ``PYTHONPATH``: once as
``xcheck --dump-ast --format json DIR``, once naming several inputs (a
fixture file, the golden directory and the generated-programs directory), once
over the soups in ``PROFILE_TEXT`` with ``--profile`` naming a file that holds
it (written outside the corpus, so that a walk of the corpus skips those
soups), and once per fixture and golden input with ``--line-range`` set to the
middle third of that file's lines.  One more run, again on each side's own
``src/``, reads each corpus file with a profile as the CLI does (a leading
U+FEFF dropped) and prints a SHA-1 digest of its token stream (the kind,
text and offset of each token and each lex error), its null-event log
(``iter_null_events``), the class index of each ``walk_statements`` node,
nodes with equal ``stmt_key`` sharing a class, and the indices of the walked
statements marked ``incomplete`` (``LOG_CODE``): a refactor must keep all
four, and the CLI shows none of them (its dump prints token texts, not
kinds).
The exit codes, stdout and stderr of each run are compared.  When they
differ, the first difference is printed, then how many corpus files differ
in any run, by corpus directory and by stream (dump, findings, stderr, the
log's token digests as ``tokens`` and the rest of the log as ``log``), and
the exit status is 1; when the two sides agree the status is 0.

Each ``--tree DIR`` (repeatable; ``LANG=DIR`` forces a profile as ``--lang``
does) adds a local source tree, read in place: each side runs ``xcheck
--format json`` over it once, and prints its findings per checker, its lex
warnings by kind, its wall time and the CLI's own peak resident memory
(``VmHWM``, which the child reads from ``/proc/self/status`` as it exits and
writes outside the compared streams; a new program image starts its own),
then how many of the tree's files differ in their findings or stderr (of the
files with a profile for their extension: a walk reads no other, ``LANG=``
or not).  Trees differ from machine to machine, so a difference there is
printed but leaves the exit status as the corpus set it.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from itertools import zip_longest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_CODE = "from xcheck.cli import main; main()"
# Per corpus file with a profile, under a "// LOG path" header: the SHA-1 of
# the token stream, (kind, text, offset) of each token and each lex error, so
# that a token's kind counts though the dump prints only its text; the
# null-event log, one event a line as a tuple (an extent as its two offsets),
# then the class index of each walked statement: statements with equal
# stmt_key share a class, and classes are numbered in order of first
# appearance; then the indices of the walked statements that are incomplete.
LOG_CODE = """
import hashlib, os, sys
from xcheck.checkers import iter_null_events
from xcheck.lexer import tokenize
from xcheck.microgrammar import Extent, parse_statements, stmt_key, walk_statements
from xcheck.profiles import UnknownLanguage, profile_for
for root, dirs, names in os.walk(sys.argv[1]):
    dirs.sort()
    for name in sorted(names):
        path = os.path.join(root, name)
        try:
            profile = profile_for(path)
        except UnknownLanguage:
            continue
        with open(path, encoding="utf-8", errors="replace") as fh:
            source = fh.read().removeprefix("\ufeff")  # as the CLI reads it: a byte-order mark is no source
        stream = tokenize(source, profile)
        stmts = parse_statements(stream, profile)
        print("// LOG", path)
        tokens = [(t.kind.name, t.text, t.offset) for t in stream.tokens]
        errors = [(e.kind, e.message, e.pos.offset) for e in stream.errors]
        print("tokens", hashlib.sha1(repr((tokens, errors)).encode()).hexdigest())
        for event in iter_null_events(stmts, profile):
            print((type(event).__name__, *((x.lo, x.hi) if isinstance(x, Extent) else x for x in event)))
        classes, walked = {}, list(walk_statements(stmts))
        print("classes", *(classes.setdefault(stmt_key(s), len(classes)) for s in walked))
        print("incomplete", *(i for i, s in enumerate(walked) if s.incomplete))
"""
# The CLI, run over a tree, writing its peak resident memory in kB to the file
# named by its first argument once it exits.
TREE_CODE = """
import atexit, sys
peak_to = sys.argv.pop(1)

def write_peak():
    with open("/proc/self/status") as status, open(peak_to, "w") as out:
        out.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))

atexit.register(write_peak)
from xcheck.cli import main
main()
"""
FIXTURES = ("object.c", "InstCombineAddSub.cpp", "CipherCore.java")
GOLDEN = os.path.join(ROOT, "tests", "golden")
LANGUAGES = (("c", ".c"), ("cpp", ".cpp"), ("java", ".java"))
SOUP_MAX_TOKENS = 256
NEST_DEPTHS = (40, 100)  # around the parser's MAX_NESTING of 64
DO_DEPTHS = (40, 200)  # across MAX_NESTING; an unclosed nest costs its square, so capped
UNBRACED_DEPTHS = (40, 200)  # across MAX_NESTING
WORKLOADS = ("tree_mixed", "docs_heavy", "stress_shapes")
LONE_OPS = ("=", "||", "&&", "<", "<=", ">", ">=", "==", "!=", "+=", "-=")  # the operators refinement splits at
HEADERS = {"// AST ": "dump", "// LOG ": "log"}  # a section header's start -> its stream
# Read by each side's own reader through --profile: every key set, most of them
# away from their defaults.
PROFILE_TEXT = """\
name = odd
extensions = .odd
line_comment = --
block_comment = {- -}
string_delims = ` "
escape = `
operators = -> - = == < <= + ++ . :=
keywords = if else while do for switch case default break return
punctuation = ( ) { } [ ] ; ,
stmt_terminator = ;
deref_ops = -> .
null_literals = nil
pairs = ( ) [ ]
preprocessor = %%
"""


def deep_nest(rng: random.Random, profile) -> str:
    """A function body of nested control statements, each level dereferencing
    a pointer and testing one for null before the next level opens."""
    null, arrow = min(profile.null_literals), profile.deref_ops[0]
    depth = rng.randint(*NEST_DEPTHS)
    words = ["f ( ) {"]
    for _ in range(depth):
        p, q = rng.choice("pqr"), rng.choice("pqr")
        words.append(f"{p}{arrow}f = {q}{arrow}g ;")
        words.append(rng.choice((
            f"if ( {p} != {null} ) {{",
            f"while ( {p} ) {{",
            f"for ( i = 0 ; {p} ; i ++ ) {{",
            f"switch ( {p}{arrow}k ) {{ case 1 : if ( {q} == {null} ) g ( ) ;",
            f"{{ if ( ! {p} ) h ( ) ; else if ( {q} ) {q}{arrow}h ( ) ;",
        )))
    return " ".join(words) + " }" * (depth + 1)


def kill_program(rng: random.Random, profile) -> str:
    """A function body that dereferences many roots, then mixes assignments to
    some of them with null tests of roots and of paths."""
    null, arrow = min(profile.null_literals), profile.deref_ops[0]
    roots = [f"r{i}" for i in range(rng.randint(5, 40))]
    words = ["f ( ) {"] + [f"use ( {r}{arrow}a{arrow}b ) ;" for r in roots]
    for _ in range(2 * len(roots)):
        r = rng.choice(roots)
        words.append(rng.choice((
            f"{r} = {null} ;",
            f"{r} ++ ;",
            f"{r}{arrow}a = {rng.choice(roots)} ;",
            f"if ( {r} ) g ( ) ;",
            f"if ( {r}{arrow}a != {null} ) g ( ) ;",
            f"if ( {r}{arrow}a{arrow}b ) {r}{arrow}c ( ) ;",
        )))
    return " ".join(words) + " }"


def prefix_lines(rng: random.Random, profile) -> str:
    """Lines of many mid-line preprocessor prefixes, some after a no-break
    space, between directives that start their lines after blanks."""
    prefix = profile.preprocessor_prefix
    pieces = (f" {prefix} b", f"\xa0{prefix} b", f" \xa0 {prefix}", f"{prefix}{prefix}")
    lines = []
    for i in range(rng.randint(2, 6)):
        lines.append(f"int a{i} = 1" + "".join(rng.choice(pieces) for _ in range(rng.randint(1, 60))) + " ;")
        blanks = rng.choice(("", " ", "\xa0", "\t \xa0"))
        lines.append(blanks + rng.choice((f"{prefix}define Q{i} 1", f"{prefix}define M{i}(x) \\\n  x")))
    return "\n".join(lines) + "\n"


def loop_headers(rng: random.Random, profile) -> str:
    """``for`` loops over every comparison and update operator, the update's
    target on the left of the comparison, on its right, inside an expression
    side, or absent from it."""
    arrow = profile.deref_ops[0]
    loops = []
    for compare in ("<", "<=", ">", ">=", "==", "!="):
        for update in ("++", "--", "+=", "-="):
            var = rng.choice(("i", "j", f"p{arrow}i"))
            step = f"{var} {update} 2" if update.endswith("=") else rng.choice((f"{var} {update}", f"{update} {var}"))
            bound = rng.choice(("n", "0", f"n - {var}", "j"))
            sides = ((var, bound), (bound, var), (f"{var} + 1", bound), (bound, f"a [ {var} ]"), ("k", bound))
            left, right = rng.choice(sides)
            loops.append(f"for ( {var} = 0 ; {left} {compare} {right} ; {step} ) g ( {var} ) ;")
    rng.shuffle(loops)
    return "f ( ) { " + " ".join(loops) + " }"


def long_paths(rng: random.Random, profile) -> str:
    """Functions that dereference, reassign and null-test access paths of
    50-500 steps, and their prefixes."""
    null, arrow = min(profile.null_literals), profile.deref_ops[0]
    words = []
    for f in range(rng.randint(1, 3)):
        root, steps = rng.choice("pq"), [rng.choice("xyz") for _ in range(rng.randint(50, 500))]
        words.append(f"f{f} ( ) {{")
        for _ in range(rng.randint(3, 8)):
            path = root + "".join(f"{arrow}{step}" for step in steps[: rng.randint(50, len(steps))])
            words.append(rng.choice((
                f"use ( {path} ) ;",
                f"{path} ( ) ;",
                f"{path} = {null} ;",
                f"{root} = {null} ;",
                f"if ( {path} ) g ( ) ;",
                f"if ( {path} != {null} ) g ( ) ;",
            )))
        words.append("}")
    return " ".join(words)


def paren_nests(rng: random.Random, profile) -> str:
    """A function body whose conditions, call arguments and assignments wrap
    null tests and dereferences in 1-200 layers of parentheses and calls."""
    null, arrow = min(profile.null_literals), profile.deref_ops[0]

    def wrap(inner: str) -> str:
        # half the nests keep a null test in a truth position: no call layer
        layers = ("( {} )", "! ( {} )", "( {} ) && b") + rng.choice(((), ("g ( {} )", "h ( a , {} )")))
        for _ in range(rng.choice((rng.randint(1, 5), rng.randint(1, 200)))):
            inner = rng.choice(layers).format(inner)
        return inner

    words = ["f ( ) {"]
    for _ in range(rng.randint(3, 10)):
        p = rng.choice("pqr")
        core = rng.choice((f"{p} == {null}", f"{null} != {p}", p, f"{p}{arrow}x", f"{p}{arrow}x ( )", f"{p} = {null}"))
        words.append(rng.choice((
            f"use ( {p}{arrow}v ) ;",
            f"if ( {wrap(core)} ) g ( ) ;",
            f"while ( {wrap(core)} ) {p}{arrow}w ;",
            f"use ( {wrap(core)} ) ;",
            f"{p} = {wrap(core)} ;",
        )))
    return " ".join(words) + " }"


def crossed_brackets(rng: random.Random, profile) -> str:
    """Functions whose statements leave a bracket of one kind open inside a
    group of another kind, among dereferences and null tests whose findings
    depend on where recovery ends each statement."""
    null, arrow = min(profile.null_literals), profile.deref_ops[0]
    words = []
    for f in range(rng.randint(1, 4)):
        words.append(f"f{f} ( ) {{")
        for _ in range(rng.randint(3, 12)):
            p = rng.choice("pqr")
            words.append(rng.choice((
                "f ( a [ i ) ;",
                "f ( a ] ;",
                "g ( { ) ;",
                "x = [ ( b ] ;",
                f"if ( {p} [ i ) use ( {p}{arrow}v ) ;",
                f"use ( {p}{arrow}v ) ;",
                f"if ( {p} ) g ( ) ;",
                f"if ( {p} == {null} ) return ;",
            )))
        words.append("}")
    return "\n".join(words) + "\n"


def lone_ops(rng: random.Random, profile) -> str:
    """Functions in which each split operator stands alone in a slot, between a
    dereference of ``p`` and its null test, so the findings depend on the slots;
    each function repeats one lone ``else if`` condition and one lone ``case`` label."""
    null, arrow = min(profile.null_literals), profile.deref_ops[0]
    words = []
    for f in range(rng.randint(1, 3)):
        words.append(f"f{f} ( ) {{ use ( p{arrow}x ) ;")
        for op in rng.sample(LONE_OPS, len(LONE_OPS)):
            words.append(rng.choice((
                f"if ( {op} ) g ( ) ;",
                f"while ( {op} ) g ( ) ;",
                f"for ( {op} ; i < n ; i ++ ) g ( ) ;",
                f"for ( i = 0 ; {op} ; i ++ ) g ( ) ;",
                f"for ( i = 0 ; i < n ; {op} ) g ( ) ;",
                f"g ( a , {op} ) ;",
                f"switch ( k ) {{ case {op} : g ( ) ; }}",
                f"if ( ( ( {op} ) ) ) g ( ) ;",
                f"if ( ! {op} ) g ( ) ;",
            )))
        op = rng.choice(LONE_OPS)
        words.append(f"if ( {op} ) g ( ) ; else if ( {op} ) h ( ) ;")
        words.append(f"switch ( k ) {{ case {op} : g ( ) ; break ; case {op} : h ( ) ; }}")
        words.append(f"if ( p == {null} ) return ; }}")
    return "\n".join(words) + "\n"


def do_nests(rng: random.Random, profile) -> str:
    """Functions that put ``do`` nests between a dereference of ``p`` and its
    null test: an unclosed nest across the nesting cap, which recovery slides
    through, a closed nest, and, in half of them, a ``do { ... } while ( p``
    whose condition the function's end cuts short, swallowing the null test."""
    null, arrow = min(profile.null_literals), profile.deref_ops[0]
    words = []
    for f in range(rng.randint(1, 3)):
        shapes = ["do " * rng.randint(*DO_DEPTHS) + f"g ( p{arrow}x ) ;", "do do g ( ) ; while ( a ) ; while ( b ) ;"]
        rng.shuffle(shapes)
        if rng.random() < 0.5:
            shapes.append(f"do {{ g ( p{arrow}x ) ; }} while ( p")
        words += [f"f{f} ( ) {{ use ( p{arrow}x ) ;", *shapes, f"if ( p == {null} ) return ; }}"]
    return "\n".join(words) + "\n"


def unbraced_nests(rng: random.Random, profile) -> str:
    """Functions that put a chain of unbraced ``if``, ``while``, ``for`` and
    ``else`` heads, across the nesting cap, between a dereference of ``p`` and
    its null test; the chain's last statement dereferences ``p`` again."""
    null, arrow = min(profile.null_literals), profile.deref_ops[0]
    heads = (
        "if ( a )",
        "while ( b )",
        "for ( i = 0 ; i < n ; i ++ )",
        "if ( c ) g ( ) ; else",
        f"if ( p ) q{arrow}x ( ) ; else if ( p )",
    )
    words = []
    for f in range(rng.randint(1, 3)):
        chain = [rng.choice(heads) for _ in range(rng.randint(*UNBRACED_DEPTHS))]
        words += [f"f{f} ( ) {{ use ( p{arrow}x ) ;", *chain, f"g ( p{arrow}y ) ; if ( p == {null} ) return ; }}"]
    return "\n".join(words) + "\n"


def marked(rng: random.Random, profile) -> str:
    """A file that starts with U+FEFF, a byte-order mark, whose first statement
    dereferences a path (through a call or an argument) that a later statement
    tests for null."""
    null, arrow = min(profile.null_literals), profile.deref_ops[0]
    path = arrow.join([rng.choice("pqr"), *["next"] * rng.randint(0, 2)])
    first = rng.choice([f"{path}{arrow}f ( ) ;", f"use ( {path}{arrow}x ) ;"])
    filler = [f"g ( {i} ) ;" for i in range(rng.randint(0, 3))]
    return "\n".join(["\ufeff" + first, *filler, f"if ( {path} == {null} ) return ;"]) + "\n"


def directive_lines(rng: random.Random, profile) -> str:
    """Functions that dereference ``p`` and test it for null around directives:
    one at the file's start, others after blanks, after line-comment and
    block-comment lines, ``#if``/``#endif`` groups with continuation lines,
    and prefixes after a block comment on the same line; code masks with hex
    numbers.  Some files end their lines with CRLF and have no continuation
    lines."""
    prefix, null, arrow = profile.preprocessor_prefix, min(profile.null_literals), profile.deref_ops[0]
    end = "\r\n" if rng.random() < 0.3 else "\n"

    def directive(i: int) -> str:
        body = rng.choice((f"define F{i} 0x{i:x}", f"include <h{i}.h>", f"undef F{i}", "pragma once"))
        return rng.choice(("", " ", "\t", " \t ", "\f", "\v  ")) + prefix + body

    lines = [directive(0)]
    for f in range(rng.randint(1, 3)):
        lines += [f"int f{f} ( struct s * p ) {{", f"  use ( p{arrow}x ) ;"]
        for i in range(rng.randint(2, 6)):
            lines += rng.choice((
                [directive(i)],
                [f"  // note {i}", directive(i)],
                [f"  /* note {i}", "     more */", directive(i)],
                [f"{prefix}if F{i} &&" + (" \\" if end == "\n" else ""), f"  defined ( G{i} )", "  g ( ) ;", f"{prefix}endif"],
                [f"  /* why */ {prefix} define H{i} 1", f"  g ( a ) ; /* and */ {prefix} b ;"],
            ))
            lines.append(f"  g ( p{arrow}flags & 0x{rng.randrange(1, 256):x} ) ;")
        lines += [f"  if ( p == {null} ) return ;", "}"]
    return end.join(lines) + end


def commented_soup(rng: random.Random, profile, words: list[str]) -> str:
    """``words`` joined by runs of whitespace, line comments and block comments."""
    line, (opener, closer) = profile.line_comment, profile.block_comment

    def gap() -> str:
        pieces = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.5:
                pieces.append("".join(rng.choice(" \t\f\v\r\n") for _ in range(rng.randint(1, 6))))
            elif roll < 0.75:
                pieces.append(f"{line} note {rng.choice(words)}\n")
            else:
                pieces.append(f"{opener} note" + rng.choice(" \n") + f"{rng.choice(words)} {closer}")
        return "".join(pieces)

    return "".join(word + gap() for word in words)


def write_corpus(dest: str, programs: int, seeds: list[int]) -> None:
    sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "tests", "bench")]
    import run as bench_run
    from support import long_chain_program, random_micro_program, random_token_source
    from xcheck.profiles import DEFAULT_REGISTRY, Registry, parse_profile_text

    registry = Registry(DEFAULT_REGISTRY)
    registry.register(parse_profile_text(PROFILE_TEXT))

    os.makedirs(os.path.join(dest, "fixtures"))
    for name in FIXTURES:
        shutil.copy(os.path.join(ROOT, "src", "xcheck", "fixtures", name), os.path.join(dest, "fixtures"))
    os.makedirs(os.path.join(dest, "golden"))
    for name in sorted(os.listdir(GOLDEN)):
        if not name.endswith(".out"):
            shutil.copy(os.path.join(GOLDEN, name), os.path.join(dest, "golden"))
    def soup(rng: random.Random, profile) -> str:
        return random_token_source(rng, profile, SOUP_MAX_TOKENS)

    # (directory, file letter, share of N, languages, make(rng, profile)): row i
    # is generated from random.Random(i), its languages taken in turn; append rows
    # at the end, so that the earlier rows keep their seeds and their files.
    rows = (
        ("programs", "p", 1, LANGUAGES[:1], lambda rng, _: random_micro_program(rng)),
        ("soups", "s", 1, LANGUAGES, soup),
        ("chains", "c", 10, LANGUAGES, lambda rng, _: long_chain_program(rng)),
        ("nests", "n", 10, LANGUAGES, deep_nest),
        ("comments", "k", 10, LANGUAGES, lambda rng, profile: commented_soup(rng, profile, soup(rng, profile).split())),
        ("kills", "x", 10, LANGUAGES, kill_program),
        ("prefixes", "d", 10, LANGUAGES[:2], prefix_lines),  # Java has no preprocessor
        ("loops", "l", 10, LANGUAGES, loop_headers),
        ("paths", "a", 10, LANGUAGES, long_paths),
        ("parens", "w", 10, LANGUAGES, paren_nests),
        ("brackets", "b", 10, LANGUAGES, crossed_brackets),
        ("lone_ops", "o", 10, LANGUAGES, lone_ops),
        ("do_nests", "m", 10, LANGUAGES, do_nests),
        ("bom", "u", 10, LANGUAGES, marked),
        ("directives", "e", 10, LANGUAGES[:2], directive_lines),
        ("unbraced", "h", 10, LANGUAGES, unbraced_nests),
        ("profiled", "f", 10, (("odd", ".odd"),), soup),  # read with --profile only
    )
    for seed, (directory, letter, share, languages, make) in enumerate(rows):
        os.makedirs(os.path.join(dest, directory))
        rng = random.Random(seed)
        for i in range(programs // share):
            language, extension = languages[i % len(languages)]
            with open(os.path.join(dest, directory, f"{letter}{i:04d}{extension}"), "w", encoding="utf-8") as fh:
                fh.write(make(rng, registry.resolve(language)))
    for seed in seeds:
        for workload in WORKLOADS:
            files, _ = bench_run.build_workload(workload, seed)
            bench_run.write_tree(os.path.join(dest, f"{workload}-{seed}"), files)


def line_range_runs(corpus: str) -> list[list[str]]:
    """``--line-range FIRST:LAST FILE`` for each fixture and golden input,
    FIRST:LAST being the middle third of the file's lines."""
    runs = []
    for group in ("fixtures", "golden"):
        for name in sorted(os.listdir(os.path.join(corpus, group))):
            path = os.path.join(corpus, group, name)
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().count("\n") + 1
            first = lines // 3 + 1
            runs.append(["--line-range", f"{first}:{max(first, 2 * lines // 3)}", path])
    return runs


def run_side(root: str, argv: list[str]) -> subprocess.CompletedProcess:
    """``python -c CODE ARGS...`` (``argv``) with ``ROOT/src`` on ``PYTHONPATH``."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(root), "src")}
    return subprocess.run([sys.executable, "-c", *argv], capture_output=True, text=True, env=env, timeout=900)


def first_difference(old: subprocess.CompletedProcess, new: subprocess.CompletedProcess) -> str | None:
    if old.returncode != new.returncode:
        return f"exit code: old {old.returncode}, new {new.returncode}"
    for channel in ("stdout", "stderr"):
        pairs = zip_longest(getattr(old, channel).splitlines(True), getattr(new, channel).splitlines(True))
        for number, (a, b) in enumerate(pairs, 1):
            if a != b:
                return f"{channel} line {number}:\n  old: {a!r}\n  new: {b!r}"
    return None


def by_file(proc: subprocess.CompletedProcess, corpus: str) -> dict[tuple[str, str | None], list]:
    """A run's output split by the corpus file each piece names, as
    (stream, path relative to the corpus) -> pieces: dump and log sections by
    their ``// AST`` and ``// LOG`` headers (a log's token digest line as a
    ``tokens`` stream of its own), findings by their ``file`` field,
    stderr lines by the path they name.  The exit code, and what names no file, go under
    (stream, None)."""
    names = re.compile(re.escape(os.path.join(corpus, "")) + r"([^\s:]+)")

    def file_of(text: str) -> str | None:
        match = names.search(text)
        return match and match[1]

    pieces = defaultdict(list)
    pieces["exit", None].append(proc.returncode)
    for line in proc.stderr.splitlines():
        pieces["stderr", file_of(line)].append(line)
    findings = re.search(r"^\[", proc.stdout, re.M)  # no dump or log line starts with '['
    cut = findings.start() if findings else len(proc.stdout)
    stream, path = "dump", None
    for line in proc.stdout[:cut].splitlines():
        if line[:7] in HEADERS:
            stream, path = HEADERS[line[:7]], file_of(line)
        pieces["tokens" if stream == "log" and line.startswith("tokens ") else stream, path].append(line)
    try:
        for record in json.loads(proc.stdout[cut:]):
            pieces["findings", file_of(record["file"])].append(record)
    except ValueError:  # a side that stopped before printing its findings
        pieces["findings", None].append(proc.stdout[cut:])
    return pieces


def differing_files(results: list, corpus: str, files: int) -> str:
    """How many corpus files differ in any run, by corpus directory and by stream."""
    streams: dict[str, set[str]] = defaultdict(set)
    whole_runs = 0
    for old, new in results:
        a, b = by_file(old, corpus), by_file(new, corpus)
        keys = {key for key in a.keys() | b.keys() if a.get(key) != b.get(key)}
        whole_runs += any(path is None for _, path in keys)
        for stream, path in keys:
            if path is not None:
                streams[stream].add(path)
    differing = set().union(*streams.values())
    groups = Counter(path.split(os.sep)[0] for path in differing)
    text = f"{len(differing)} of {files} files differ"
    if differing:
        text += ": " + ", ".join(f"{group} {n}" for group, n in sorted(groups.items()))
        text += "; by stream: " + ", ".join(f"{s} {len(streams[s])}" for s in ("dump", "findings", "stderr", "tokens", "log") if streams[s])
    if whole_runs:
        text += f"; {whole_runs} runs differ in their exit code or in output that names no file"
    return text


def where(run: list[str], corpus: str) -> str:
    """How a run of several arguments is named in a report: its arguments,
    corpus paths relative to the corpus."""
    named = " ".join(os.path.relpath(a, corpus) if a.startswith(corpus) else a for a in run)
    return f" with {named}," if len(run) > 1 else ""


def counted(counts: Counter) -> str:
    """``total (key n, ...)``, keys in sorted order."""
    return f"{sum(counts.values())} ({', '.join(f'{k} {n}' for k, n in sorted(counts.items())) or 'none'})"


def tree_side(root: str, tree: str, lang: str | None) -> tuple[subprocess.CompletedProcess, str]:
    """One side's run over a tree, and the line that reports it."""
    with tempfile.TemporaryDirectory(prefix="xcheck-peak-") as scratch:
        peak = os.path.join(scratch, "peak")
        start = time.perf_counter()
        proc = run_side(root, [TREE_CODE, peak, "--format", "json", *(["--lang", lang] if lang else []), tree])
        wall = time.perf_counter() - start
        with open(peak) as fh:
            peak_mb = int(fh.read()) / 1024
    try:
        findings = "findings " + counted(Counter(record["checker"] for record in json.loads(proc.stdout)))
    except ValueError:
        findings = "no findings array on stdout"
    warnings = (line.partition(": lex-warning: ")[2] for line in proc.stderr.splitlines())
    kinds = Counter(re.match(r"[^'\"]*", w)[0].strip() for w in warnings if w)  # the message, less its quoted text
    return proc, f"{findings}; lex warnings {counted(kinds)}; {wall:.1f} s, peak {peak_mb:.1f} MB, exit {proc.returncode}"


def compare_tree(old_root: str, new_root: str, spec: str) -> str:
    """The report of both sides' runs over the tree ``[LANG=]DIR``."""
    forced = re.fullmatch(r"(\w+)=(.+)", spec)
    lang, tree = forced.groups() if forced else (None, spec)
    from xcheck.profiles import DEFAULT_REGISTRY, UnknownLanguage  # write_corpus put this checkout's src first

    files = 0  # those a walk analyzes: the ones with a profile for their extension
    for parent, _, names in os.walk(tree):
        for name in names:
            try:
                DEFAULT_REGISTRY.resolve_path(os.path.join(parent, name))
                files += 1
            except UnknownLanguage:
                pass
    old, old_line = tree_side(old_root, tree, lang)
    new, new_line = tree_side(new_root, tree, lang)
    return (
        f"differential: tree {spec}, {files} files with a profile\n  old: {old_line}\n  new: {new_line}\n"
        f"differential: tree {spec}: {differing_files([(old, new)], tree, files)}"
    )


def src_lines(root: str) -> int:
    """The line count of ``ROOT/src/xcheck/*.py``, as ``wc -l`` counts it."""
    return sum(path.read_bytes().count(b"\n") for path in pathlib.Path(root, "src", "xcheck").glob("*.py"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_root")
    parser.add_argument("new_root")
    parser.add_argument("--programs", type=int, default=500, help="generated programs (default 500)")
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2], help="bench corpus seeds (default 1 2)")
    parser.add_argument(
        "--tree", action="append", default=[], metavar="[LANG=]DIR",
        help="also compare a local tree, read in place; LANG= forces a profile (repeatable)",
    )
    args = parser.parse_args(argv)
    old_lines, new_lines = src_lines(args.old_root), src_lines(args.new_root)
    print(f"differential: src/xcheck/*.py: old {old_lines} lines, new {new_lines} lines, {new_lines - old_lines:+d}")
    with tempfile.TemporaryDirectory(prefix="xcheck-diff-") as scratch:
        corpus, profile = os.path.join(scratch, "corpus"), os.path.join(scratch, "odd.profile")
        write_corpus(corpus, args.programs, args.seeds)
        with open(profile, "w", encoding="utf-8") as fh:
            fh.write(PROFILE_TEXT)
        files = sum(len(names) for _, _, names in os.walk(corpus))
        several = [os.path.join(corpus, d) for d in (os.path.join("fixtures", FIXTURES[-1]), "golden", "programs")]
        runs = [[corpus], several, ["--profile", profile, os.path.join(corpus, "profiled")]] + line_range_runs(corpus)
        labelled = [(where(run, corpus), [CLI_CODE, "--dump-ast", "--format", "json", *run]) for run in runs]
        labelled.append((" in the token digests, null-event logs, statement key classes or incomplete marks", [LOG_CODE, corpus]))
        results = [(run_side(args.old_root, argv), run_side(args.new_root, argv)) for _, argv in labelled]
    for (label, _), (old, new) in zip(labelled, results):
        diff = first_difference(old, new)
        if diff is not None:
            print(f"differential: over {files} corpus files, the runs differ{label} at {diff}")
            print(f"differential: {differing_files(results, corpus, files)}")
            status = 1
            break
    else:
        whole = results[0][0]
        print(
            f"differential: {files} files, one multi-input run, one --profile run, {len(runs) - 3} "
            f"line-range windows and the token and null-event logs, no difference "
            f"(exit {whole.returncode}, {len(whole.stdout.splitlines())} stdout lines, "
            f"{len(whole.stderr.splitlines())} stderr lines)"
        )
        status = 0
    for spec in args.tree:  # a tree's difference is printed, and leaves the status
        print(compare_tree(args.old_root, args.new_root, spec))
    return status


if __name__ == "__main__":
    sys.exit(main())
