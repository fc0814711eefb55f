"""Seeded known-answer source trees for the benchmark.

Every generator returns :class:`SourceFile` objects whose expected
findings are fixed by construction: filler code is written so that no
checker can fire on it, and each planted bug records the
``(checker, line, related_line)`` the checker must report.  The answer
never comes from running xcheck, and nothing here imports the test suite,
so edits to the tests cannot move a workload.

The same seed always gives a byte-identical tree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

NULL_DEREF = "null-deref"
REDUNDANT_CONDITION = "redundant-condition"
REDUNDANT_BRANCH = "redundant-branch"
LOOP_DIRECTION = "loop-direction"

Finding = tuple[str, int, "int | None"]  # (checker, start_line, related_line)


@dataclass
class SourceFile:
    relpath: str
    text: str
    findings: list[Finding]
    # (lex error kind, line) pairs the CLI must print as lex warnings.
    warnings: list[tuple[str, int]] = field(default_factory=list)

    def expected(self) -> list[Finding]:
        return sorted(self.findings, key=finding_order)


def finding_order(f: Finding) -> tuple:
    return (f[1], f[0], f[2] or 0)


@dataclass(frozen=True)
class Dialect:
    ext: str
    arrow: str  # dereference operator used for pointer/object access
    null: str
    string_type: str
    preprocessor: bool


C = Dialect(".c", "->", "NULL", "const char *", True)
CPP = Dialect(".cpp", "->", "nullptr", "const char *", True)
JAVA = Dialect(".java", ".", "null", "String ", False)
DIALECTS = (C, CPP, JAVA)

_WORDS = (
    "request buffer state handler value queue entry index offset length "
    "table cache record header payload channel context option result "
    "checksum window block cursor stream packet frame parser token scope "
    "limit counter timeout retry socket engine module device config"
).split()


class _Out:
    """Line-numbered source writer that records planted findings."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.findings: list[Finding] = []
        self.depth = 0

    def put(self, text: str = "") -> int:
        self.lines.append("    " * self.depth + text if text else "")
        return len(self.lines)

    def open(self, text: str) -> int:
        line = self.put(f"{text} {{")
        self.depth += 1
        return line

    def close(self, text: str = "}") -> int:
        self.depth -= 1
        return self.put(text)

    def plant(self, checker: str, line: int, related: int | None = None) -> None:
        self.findings.append((checker, line, related))

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


class _Fn:
    """Names of one function.  Every name carries the function's index so
    that no tracked path leaks into another function: Java class bodies and
    C++ namespaces do not reset the null-deref state between methods."""

    def __init__(self, d: Dialect, k: int) -> None:
        self.d = d
        self.k = k
        self.fresh_count = 0
        self.ctx = f"ctx{k}"
        self.n = f"n{k}"
        self.total = f"total{k}"
        self.i = f"i{k}"
        self.count = f"count{k}"
        self.mode = f"mode{k}"
        self.ready = f"ready{k}"
        self.const = 10 * k  # keeps constants of sibling chains apart

    def fresh(self, stem: str) -> str:
        self.fresh_count += 1
        return f"{stem}{self.k}_{self.fresh_count}"

    def path(self, *parts: str) -> str:
        return self.d.arrow.join(parts)

    def decl(self, type_c: str, name: str, value: str) -> str:
        """Declaration of a struct pointer (C/C++) or object (Java)."""
        if self.d is JAVA:
            return f"{type_c.capitalize()} {name} = {value};"
        return f"struct {type_c} *{name} = {value};"


# -- filler statements: none of these can make a checker fire --------------


def _f_call(o: _Out, f: _Fn, rng: random.Random) -> None:
    o.put(f'log_event({f.path(f.ctx, "name")}, "{_words(rng, 3)}", {f.n});')


def _f_chain_read(o: _Out, f: _Fn, rng: random.Random) -> None:
    counter = rng.choice(("hits", "misses", "bytes", "drops"))
    o.put(f"{f.total} += {f.path(f.ctx, 'stats', counter)};")


def _f_chain_call(o: _Out, f: _Fn, rng: random.Random) -> None:
    op = rng.choice(("flush", "reset", "poll", "sync"))
    o.put(f"{f.path(f.ctx, 'ops', op)}({f.ctx}, {f.n});")


def _f_elif(o: _Out, f: _Fn, rng: random.Random) -> None:
    arms = rng.randint(2, 5)
    bounds = sorted(rng.sample(range(1, 500), arms))
    f.const += 10
    o.open(f"if ({f.n} < {bounds[0]})")
    o.put(f"{f.total} += {f.const};")
    for j, b in enumerate(bounds[1:], 1):
        o.close(f"}} else if ({f.n} < {b}) {{")
        o.depth += 1
        o.put(f"{f.total} += {f.const + j};")
    if rng.random() < 0.6:
        o.close("} else {")
        o.depth += 1
        o.put(f"{f.total} -= {f.const};")
    o.close()


def _f_for_up(o: _Out, f: _Fn, rng: random.Random) -> None:
    o.open(f"for ({f.i} = 0; {f.i} < {f.n}; {f.i}++)")
    o.put(f"{f.total} += {f.i} * {rng.randint(2, 9)};")
    o.close()


def _f_for_down(o: _Out, f: _Fn, rng: random.Random) -> None:
    o.open(f"for ({f.i} = {f.n} - 1; {f.i} >= 0; {f.i}--)")
    o.put(f"{f.total} -= {f.i} % {rng.randint(2, 9)};")
    o.close()


def _f_while(o: _Out, f: _Fn, rng: random.Random) -> None:
    o.put(f"{f.count} = {f.n};")
    o.open(f"while ({f.count} > {rng.randint(0, 3)})")
    o.put(f"{f.count}--;")
    o.put(f"{f.total} += {rng.randint(1, 99)};")
    o.close()


def _f_switch(o: _Out, f: _Fn, rng: random.Random) -> None:
    labels = sorted(rng.sample(range(0, 40), rng.randint(2, 5)))
    o.open(f"switch ({f.mode})")
    for j, label in enumerate(labels):
        o.put(f"case {label}:")
        o.depth += 1
        o.put(f"{f.total} += {f.const + 100 + j};")
        o.put("break;")
        o.depth -= 1
    o.put("default:")
    o.depth += 1
    o.put(f"{f.total} = 0;")
    o.put("break;")
    o.depth -= 1
    o.close()


def _f_line_comment(o: _Out, f: _Fn, rng: random.Random) -> None:
    o.put(f"// {_words(rng, rng.randint(4, 10))}")


def _f_block_comment(o: _Out, f: _Fn, rng: random.Random) -> None:
    o.put(f"/* {_words(rng, 6)}")
    for _ in range(rng.randint(0, 2)):
        o.put(f" * {_words(rng, 7)}")
    o.put(" */")


def _f_string(o: _Out, f: _Fn, rng: random.Random) -> None:
    name = f.fresh("msg")
    text = _words(rng, rng.randint(3, 8)).replace(" ", rng.choice((" ", " -> ", ", ")))
    o.put(f'{f.d.string_type}{name} = "{text} \\"%d\\"";')
    o.put(f"emit({name}, {f.total});")


def _f_flag(o: _Out, f: _Fn, rng: random.Random) -> None:
    o.open(f"if ({f.ready})")
    o.put(f"{f.total} += {rng.randint(1, 50)};")
    o.close()


def _f_guard(o: _Out, f: _Fn, rng: random.Random) -> None:
    """Null test first, dereference after: the correct order, never reported."""
    name = f.fresh("item")
    o.put(f.decl("item", name, f"lookup({f.ctx}, {f.n})"))
    o.open(f"if ({name} == {f.d.null})")
    o.put("return -1;")
    o.close()
    o.put(f"{f.total} += {f.path(name, 'len')};")


def _f_reassign(o: _Out, f: _Fn, rng: random.Random) -> None:
    name = f.fresh("node")
    o.put(f.decl("node", name, f.path(f.ctx, "head")))
    o.open(f"while ({name} != {f.d.null})")
    o.put(f"{f.total} += {f.path(name, 'weight')};")
    o.put(f"{name} = {f.path(name, 'next')};")
    o.close()


FILLERS = (
    _f_call, _f_chain_read, _f_chain_call, _f_elif, _f_for_up, _f_for_down,
    _f_while, _f_switch, _f_line_comment, _f_block_comment, _f_string,
    _f_flag, _f_guard, _f_reassign,
)


# -- planted findings -------------------------------------------------------


def _p_null_deref(o: _Out, f: _Fn, rng: random.Random) -> None:
    name = f.fresh("obj")
    o.put(f.decl("obj", name, f"acquire({f.n})"))
    variant = rng.randrange(3)
    if variant == 2:
        deref = o.put(f"{f.path(name, 'ops', 'run')}({f.n});")
    else:
        deref = o.put(f"{f.total} += {f.path(name, 'size')};")
    for _ in range(rng.randint(0, 2)):
        rng.choice((_f_line_comment, _f_chain_read, _f_for_up))(o, f, rng)
    if variant == 0:
        test = o.open(f"if ({name} == {f.d.null})")
    elif variant == 1:
        test = o.open(f"if (!{name})")
    else:
        test = o.open(f"if ({f.path(name, 'ops')} == {f.d.null})")
    o.put("return -1;")
    o.close()
    o.plant(NULL_DEREF, test, deref)


def _p_redundant_condition(o: _Out, f: _Fn, rng: random.Random) -> None:
    values = rng.sample(range(1, 60), rng.randint(2, 4))
    repeat = rng.randrange(len(values))
    f.const += 10
    first = o.open(f"if ({f.mode} == {values[0]})")
    lines = [first]
    o.put(f"{f.total} += {f.const};")
    for j, v in enumerate(values[1:], 1):
        lines.append(o.close(f"}} else if ({f.mode} == {v}) {{"))
        o.depth += 1
        o.put(f"{f.total} += {f.const + j};")
    again = o.close(f"}} else if ({f.mode} == {values[repeat]}) {{")
    o.depth += 1
    o.put(f"{f.total} -= {f.const};")
    o.close()
    o.plant(REDUNDANT_CONDITION, again, lines[repeat])


def _p_redundant_branch(o: _Out, f: _Fn, rng: random.Random) -> None:
    labels = rng.sample(range(0, 40), rng.randint(2, 5))
    repeat = rng.randrange(len(labels))
    o.open(f"switch ({f.mode})")
    label_lines = []
    for j, label in enumerate(labels + [labels[repeat]]):
        label_lines.append(o.put(f"case {label}:"))
        o.depth += 1
        o.put(f"{f.total} += {f.const + 200 + j};")
        o.put("break;")
        o.depth -= 1
    o.close()
    o.plant(REDUNDANT_BRANCH, label_lines[-1], label_lines[repeat])


_WRONG_LOOPS = (
    ("{i} = 0", "{i} < {n}", "{i}--"),
    ("{i} = 0", "{i} <= {n}", "{i} -= 2"),
    ("{i} = {n}", "{i} > 0", "{i}++"),
    ("{i} = {n}", "{i} >= 0", "{i} += 1"),
)


def _p_loop_direction(o: _Out, f: _Fn, rng: random.Random) -> None:
    parts = [p.format(i=f.i, n=f.n) for p in rng.choice(_WRONG_LOOPS)]
    header = o.open(f"for ({'; '.join(parts)})")
    o.put(f"{f.total} += {f.i};")
    o.close()
    o.plant(LOOP_DIRECTION, header, None)


PLANTS = (_p_null_deref, _p_redundant_condition, _p_redundant_branch, _p_loop_direction)


# -- whole files --------------------------------------------------------------


def _function(o: _Out, d: Dialect, k: int, rng: random.Random, plants, n_filler: int) -> None:
    f = _Fn(d, k)
    params = (
        f"Context {f.ctx}, int {f.n}" if d is JAVA else f"struct context *{f.ctx}, int {f.n}"
    )
    if d is JAVA:
        o.open(f"int handle{k}({params})")
    elif d is CPP:
        o.open(f"int Engine::handle{k}({params})")
    else:
        o.open(f"static int handle{k}({params})")
    o.put(f"int {f.total} = 0;")
    o.put(f"int {f.i};")
    o.put(f"int {f.count};")
    o.put(f"int {f.mode} = {f.n} % 7;")
    o.put(f"int {f.ready} = {f.n} > 2;")
    steps = [rng.choice(FILLERS) for _ in range(n_filler)]
    for plant in plants:
        steps.insert(rng.randint(0, len(steps)), plant)
    for step in steps:
        step(o, f, rng)
    o.put(f"return {f.total};")
    o.close()


def _file_prologue(o: _Out, d: Dialect, rng: random.Random, name: str) -> None:
    o.put(f"/* {name}: {_words(rng, 6)} */")
    if d.preprocessor:
        for header in rng.sample(("stdio.h", "stdlib.h", "string.h", "errno.h", "stdint.h"), 3):
            o.put(f"#include <{header}>")
        o.put(f'#include "{name}.h"')
    else:
        o.put(f"package org.example.{rng.choice(_WORDS)};")
        o.put("import java.util.List;")
        o.put("import java.util.Map;")
    o.put()


def _open_unit(o: _Out, d: Dialect, name: str) -> None:
    if d is JAVA:
        o.open(f"public final class {name.capitalize()}")
    elif d is CPP:
        o.open(f"namespace {name}")


def _close_unit(o: _Out, d: Dialect) -> None:
    if d is not C:
        o.close()


def _plan_plants(rng: random.Random, n_funcs: int, n_plants: int) -> list[list]:
    per_fn: list[list] = [[] for _ in range(n_funcs)]
    for _ in range(n_plants):
        per_fn[rng.randrange(n_funcs)].append(rng.choice(PLANTS))
    return per_fn


def mixed_file(rng: random.Random, index: int) -> SourceFile:
    """Ordinary function code with 1-3 planted findings."""
    d = DIALECTS[index % 3]
    name = f"unit{index:03d}"
    o = _Out()
    _file_prologue(o, d, rng, name)
    _open_unit(o, d, name)
    # A fixed function count keeps the per-file cost unimodal, so the median
    # file does not jump between size clusters from one seed to the next.
    n_funcs = 3
    plants = _plan_plants(rng, n_funcs, rng.randint(0, 2))
    # Every file gets at least one of each kind across the tree: the kinds
    # cycle with the file index, the rest are drawn at random.
    plants[0].append(PLANTS[index % 4])
    for k in range(n_funcs):
        _function(o, d, k, rng, plants[k], rng.randint(4, 8))
        o.put()
    _close_unit(o, d)
    relpath = f"pkg{index % 7}/mod{index % 3}/{name}{d.ext}"
    return SourceFile(relpath, o.text(), o.findings)


_LICENSE = (
    "Copyright (c) {year} The {proj} Authors. All rights reserved.",
    "",
    "Licensed under the Apache License, Version 2.0 (the \"License\");",
    "you may not use this file except in compliance with the License.",
    "You may obtain a copy of the License at",
    "",
    "    http://www.apache.org/licenses/LICENSE-2.0",
    "",
    "Unless required by applicable law or agreed to in writing, software",
    "distributed under the License is distributed on an \"AS IS\" BASIS,",
    "WITHOUT WARRANTIES OR CONDITIONS OF ANY KIND, either express or implied.",
    "See the License for the specific language governing permissions and",
    "limitations under the License.",
)


def _doc_comment(o: _Out, rng: random.Random, lines: int) -> None:
    o.put("/**")
    for _ in range(lines):
        o.put(f" * {_words(rng, rng.randint(6, 12))}")
    o.put(f" * @param {rng.choice(_WORDS)} {_words(rng, 5)}")
    o.put(f" * @return {_words(rng, 4)}")
    o.put(" */")


def _commented_code(o: _Out, d: Dialect, rng: random.Random) -> None:
    """Dead code in comments.  Uncommented, it would be a null-deref finding;
    the lexer must skip it, so the known answer has nothing for it."""
    p, arrow, null = f"old{rng.randint(0, 999)}", d.arrow, d.null
    if rng.random() < 0.5:
        o.put(f"// int v = {p}{arrow}size;")
        o.put(f"// if ({p} == {null}) {{")
        o.put("//     return -1;")
        o.put("// }")
    else:
        o.put("/*")
        o.put(f"    {p}{arrow}ops{arrow}run({p});")
        o.put(f"    if ({p}{arrow}ops == {null}) {{ return 0; }}")
        o.put(f"    for (i = 0; i < n; i--) {{ {_words(rng, 2).replace(' ', '_')}(i); }}")
        o.put("*/")


def _string_table(o: _Out, d: Dialect, rng: random.Random, k: int) -> None:
    if d is JAVA:
        o.open(f"static final String[] TABLE{k} =")
    else:
        o.open(f"static const char *const table{k}[] =")
    for _ in range(rng.randint(10, 24)):
        o.put(f'"{_words(rng, rng.randint(5, 12))}",')
    o.close("};")


def _macros(o: _Out, rng: random.Random, k: int) -> None:
    for j in range(rng.randint(3, 8)):
        o.put(f"#define {rng.choice(_WORDS).upper()}_{k}_{j} {rng.randint(0, 4096)}")
    o.put(f"#define CHECK_{k}(x) \\")
    o.put("    do { \\")
    o.put("        if ((x) < 0) { return -1; } \\")
    o.put("    } while (0)")


def docs_file(rng: random.Random, index: int) -> SourceFile:
    """Mostly comments, directives and string tables around sparse code."""
    d = DIALECTS[index % 3]
    name = f"doc{index:03d}"
    o = _Out()
    o.put("/*")
    year, proj = rng.randint(2001, 2024), rng.choice(_WORDS).capitalize()
    for line in _LICENSE:
        o.put(f" * {line.format(year=year, proj=proj)}".rstrip())
    o.put(" */")
    _file_prologue(o, d, rng, name)
    _open_unit(o, d, name)
    n_funcs = 2
    plants = _plan_plants(rng, n_funcs, 0)
    plants[0].append(PLANTS[index % 4])
    for k in range(n_funcs):
        if d.preprocessor:
            _macros(o, rng, k)
        for _ in range(rng.randint(1, 3)):
            _commented_code(o, d, rng)
        _string_table(o, d, rng, k)
        _doc_comment(o, rng, rng.randint(8, 20))
        _function(o, d, k, rng, plants[k], rng.randint(1, 3))
        o.put()
    _close_unit(o, d)
    relpath = f"docs{index % 5}/{name}{d.ext}"
    return SourceFile(relpath, o.text(), o.findings)


def tree(kind: str, seed: int, files: int) -> list[SourceFile]:
    gen = {"mixed": mixed_file, "docs": docs_file}[kind]
    rng = random.Random(f"{kind}:{seed}")
    return [gen(rng, i) for i in range(files)]


# -- pathological shapes -------------------------------------------------------
#
# One C file each.  ``n`` is the shape's size parameter; the benchmark times
# every shape at n and at 2n to track how its cost grows.


def and_chain(rng: random.Random, n: int) -> SourceFile:
    """One ``if`` whose condition is ``n`` flags joined by ``&&``."""
    o = _Out()
    o.open("int gate(int seed)")
    terms = [f"f{j}" for j in range(n)]
    o.put("if (" + " && ".join(terms[:16]))
    for j in range(16, n, 16):
        o.put("    && " + " && ".join(terms[j : j + 16]))
    o.put(") {")
    o.depth += 1
    o.put(f"return {rng.randint(1, 9)};")
    o.close()
    o.put("return 0;")
    o.close()
    return SourceFile("and_chain.c", o.text(), [])


def deep_braces(rng: random.Random, n: int) -> SourceFile:
    """``n`` nested braced blocks, one assignment at each level."""
    o = _Out()
    o.open("void nest(int v)")
    for _ in range(n):
        o.lines.append("{ " + f"v = v + {rng.randint(1, 9)};")
    o.lines.extend("}" for _ in range(n))
    o.close()
    return SourceFile("deep_braces.c", o.text(), [])


def elif_chain(rng: random.Random, n: int) -> SourceFile:
    """``n`` ``else if`` arms; the last arm repeats one earlier condition."""
    o = _Out()
    o.open("int pick(int m)")
    o.put("int r = 0;")
    lines = [o.open("if (m == 0)")]
    o.put("r = 1000;")
    for j in range(1, n):
        lines.append(o.close(f"}} else if (m == {j}) {{"))
        o.depth += 1
        o.put(f"r = {1000 + j};")
    repeat = rng.randrange(n // 2, n)
    again = o.close(f"}} else if (m == {repeat}) {{")
    o.depth += 1
    o.put("r = -1;")
    o.close()
    o.put("return r;")
    o.close()
    return SourceFile("elif_chain.c", o.text(), [(REDUNDANT_CONDITION, again, lines[repeat])])


def big_switch(rng: random.Random, n: int) -> SourceFile:
    """A ``switch`` of ``n`` distinct arms plus one duplicate label."""
    o = _Out()
    o.open("int dispatch(int m)")
    o.put("int r = 0;")
    o.open("switch (m)")
    label_lines = []
    for j in range(n):
        label_lines.append(o.put(f"case {j}:"))
        o.put(f"    r = {1000 + j};")
        o.put("    break;")
    repeat = rng.randrange(n // 2, n)
    again = o.put(f"case {repeat}:")
    o.put("    r = -1;")
    o.put("    break;")
    o.close()
    o.put("return r;")
    o.close()
    return SourceFile("big_switch.c", o.text(), [(REDUNDANT_BRANCH, again, label_lines[repeat])])


def long_line(rng: random.Random, n: int) -> SourceFile:
    """A whole function on one line of about ``n`` bytes, with one
    wrong-direction loop in the middle."""
    parts = ["int flat(int n) { int r = 0; int i;"]
    size = len(parts[0])
    planted = False
    while size < n:
        if not planted and size > n // 2:
            part = " for (i = 0; i < n; i--) { r += i; }"
            planted = True
        else:
            part = rng.choice((
                f" r += n * {rng.randint(1, 99)};",
                f" r = step(r, {rng.randint(1, 99)});",
                f' log_value("{_words(rng, 2)}", r);',
            ))
        parts.append(part)
        size += len(part)
    parts.append(" return r; }\n")
    return SourceFile("long_line.c", "".join(parts), [(LOOP_DIRECTION, 1, None)])


def open_comment(rng: random.Random, n: int) -> SourceFile:
    """About ``n`` bytes of code behind an unclosed ``/*`` at byte 0."""
    lines = ["/* start of a comment that is never closed"]
    size = len(lines[0])
    while size < n:
        line = f"    if (p == NULL) {{ total += p->{rng.choice(_WORDS)}; }}"
        lines.append(line)
        size += len(line) + 1
    return SourceFile(
        "open_comment.c",
        "\n".join(lines) + "\n",
        [],
        warnings=[("unterminated-block-comment", 1)],
    )


SHAPES = {
    "and_chain": and_chain,
    "deep_braces": deep_braces,
    "elif_chain": elif_chain,
    "big_switch": big_switch,
    "long_line": long_line,
    "open_comment": open_comment,
}


def shape(name: str, seed: int, n: int) -> SourceFile:
    return SHAPES[name](random.Random(f"{name}:{seed}:{n}"), n)
