"""Embedded regression corpus.

Three reconstructed snippets (C, C++, Java) pad real finding sites to
known line numbers with neutral comment lines; golden JSON files next to
them pin the expected diagnostics exactly.  A fourth case mutates the C
snippet (the root reassignment blanked out, line numbering preserved) and
must flip from zero findings to one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from ..checkers import ALL_CHECKER_IDS
from ..cli import analyze_source
from ..diagnostics import dedupe_and_sort, to_record
from ..profiles import profile_for


@dataclass(frozen=True)
class FixtureCase:
    name: str
    filename: str  # bundled source file and the `file` field of findings
    language: str
    line_range: tuple[int, int] | None
    golden: str  # bundled expected-diagnostics JSON
    anchors: dict[int, str]  # line number -> required line prefix
    blank_line: int | None = None  # mutation: this line is emptied


@dataclass(frozen=True)
class FixtureReport:
    case: FixtureCase
    passed: bool
    expected: list[dict]
    actual: list[dict]
    diff: list[str]


_OBJECT_ANCHORS = {
    232: "/* linux/fs/fscache/object.c */",
    233: "new_state = state->work(object, event);",
    248: "object->state = state = new_state;",
    250: "if (state->work) {",
}

_CASES: tuple[FixtureCase, ...] = (
    FixtureCase(
        name="ciphercore",
        filename="CipherCore.java",
        language="java",
        line_range=None,
        golden="ciphercore.expected.json",
        anchors={
            885: "/* jdk/src/share/classes/com/sun/crypto/provider/CipherCore.java */",
            886: "int outputCapacity = output.length - outputOffset;",
            888: "if ((output == null) || (outputCapacity < minOutSize)) {",
        },
    ),
    FixtureCase(
        name="instcombine",
        filename="InstCombineAddSub.cpp",
        language="cpp",
        line_range=(440, 516),
        golden="instcombine.expected.json",
        anchors={
            455: "/* llvm/lib/Transforms/InstCombine/InstCombineAddSub.cpp */",
            456: "Value *Opnd0_0 = I0->getOperand(0);",
            490: "if (I0) Flags &= I->getFastMathFlags();",
        },
    ),
    FixtureCase(
        name="object",
        filename="object.c",
        language="c",
        line_range=None,
        golden="object.expected.json",
        anchors=_OBJECT_ANCHORS,
    ),
    FixtureCase(
        name="object-mutated",
        filename="object.c",
        language="c",
        line_range=None,
        golden="object_mutated.expected.json",
        anchors=_OBJECT_ANCHORS,
        blank_line=248,
    ),
)


def builtin_cases() -> tuple[FixtureCase, ...]:
    return _CASES


def case_by_name(name: str) -> FixtureCase:
    for case in _CASES:
        if case.name == name:
            return case
    raise KeyError(name)


def _read(name: str) -> str:
    return resources.files(__package__).joinpath(name).read_text(encoding="utf-8")


def fixture_path(filename: str) -> str:
    """Filesystem path of a bundled fixture source file."""
    return str(resources.files(__package__).joinpath(filename))


def load_source(case: FixtureCase) -> str:
    source = _read(case.filename)
    if case.blank_line is not None:
        lines = source.splitlines()
        lines[case.blank_line - 1] = ""
        source = "\n".join(lines) + "\n"
    return source


def expected_records(case: FixtureCase) -> list[dict]:
    return json.loads(_read(case.golden))


def verify_line_anchors(case: FixtureCase) -> None:
    """Key statements must sit at exactly their advertised line numbers."""
    lines = _read(case.filename).splitlines()
    for lineno, prefix in case.anchors.items():
        got = lines[lineno - 1] if lineno <= len(lines) else "<missing>"
        if not got.startswith(prefix):
            raise AssertionError(
                f"{case.filename}:{lineno} expected to start with {prefix!r}, got {got!r}"
            )


def run_pipeline(case: FixtureCase) -> list[dict]:
    profile = profile_for(case.language)
    _, _, diags = analyze_source(
        load_source(case), profile, case.filename, case.line_range, ALL_CHECKER_IDS
    )
    return [to_record(d) for d in dedupe_and_sort(diags)]


def run_fixture(case: FixtureCase) -> FixtureReport:
    """Execute the pipeline and diff the findings against the golden file."""
    verify_line_anchors(case)
    expected = expected_records(case)
    actual = run_pipeline(case)
    diff: list[str] = []
    if actual != expected:
        for rec in expected:
            if rec not in actual:
                diff.append(f"missing: {json.dumps(rec)}")
        for rec in actual:
            if rec not in expected:
                diff.append(f"unexpected: {json.dumps(rec)}")
        if not diff:
            diff.append("records match as sets but differ in order")
    return FixtureReport(case, actual == expected, expected, actual, diff)
