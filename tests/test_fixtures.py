"""The embedded corpus must reproduce its golden findings exactly."""

import pytest

from xcheck.fixtures import (
    builtin_cases,
    case_by_name,
    expected_records,
    load_source,
    run_fixture,
    verify_line_anchors,
)


@pytest.mark.parametrize("case", builtin_cases(), ids=lambda c: c.name)
def test_fixture_matches_golden(case):
    report = run_fixture(case)
    assert report.passed, "\n".join(report.diff)


@pytest.mark.parametrize("case", builtin_cases(), ids=lambda c: c.name)
def test_line_anchors_hold(case):
    verify_line_anchors(case)


def _expected(name):
    return [(r["checker"], r["start_line"], r.get("related_line")) for r in expected_records(case_by_name(name))]


def test_ciphercore_expectations():
    assert _expected("ciphercore") == [("null-deref", 888, 886)]


def test_instcombine_expectations():
    assert _expected("instcombine") == [("null-deref", 490, 456)]


def test_object_expectations():
    assert _expected("object") == []
    assert _expected("object-mutated") == [("null-deref", 250, 233)]


def test_mutation_keeps_line_numbering():
    case = case_by_name("object-mutated")
    original = load_source(case_by_name("object"))
    mutated = load_source(case)
    assert original.count("\n") == mutated.count("\n")
    assert mutated.splitlines()[case.blank_line - 1] == ""
    assert original.splitlines()[case.blank_line - 1] == "object->state = state = new_state;"


def test_failure_report_carries_a_diff():
    case = case_by_name("ciphercore")
    broken = type(case)(
        name=case.name,
        filename=case.filename,
        language=case.language,
        line_range=(1, 10),  # window excludes the finding
        golden=case.golden,
        anchors=case.anchors,
    )
    report = run_fixture(broken)
    assert not report.passed
    assert any(line.startswith("missing:") for line in report.diff)
