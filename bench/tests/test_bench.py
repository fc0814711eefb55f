"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH, SRC]

import corpus  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from xcheck.profiles import profile_for  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_generator_is_deterministic():
    for kind in ("mixed", "docs"):
        a, b = corpus.tree(kind, 7, 12), corpus.tree(kind, 7, 12)
        assert [(f.relpath, f.text, f.findings) for f in a] == [(f.relpath, f.text, f.findings) for f in b]
        assert [f.text for f in corpus.tree(kind, 8, 12)] != [f.text for f in a]
    for name, n in run.SHAPE_SIZES.items():
        assert corpus.shape(name, 3, n // 4).text == corpus.shape(name, 3, n // 4).text


def test_every_checker_is_planted():
    planted = {f[0] for sf in corpus.tree("mixed", 1, 8) for f in sf.findings}
    assert planted == {
        corpus.NULL_DEREF, corpus.REDUNDANT_CONDITION, corpus.REDUNDANT_BRANCH, corpus.LOOP_DIRECTION,
    }


def _cli_over(tmp_path, files):
    run.write_tree(str(tmp_path / "tree"), files)
    return harness.run_cli(["--format", "json", "tree"], str(tmp_path), SRC, 60.0)


def test_known_answer_matches_cli(tmp_path):
    files = corpus.tree("mixed", 5, 6) + corpus.tree("docs", 5, 3)
    result = _cli_over(tmp_path, files)
    gate = run.Gate({os.path.join("tree", f.relpath): f for f in files})
    gate.check_cli(result)
    assert gate.failures == {}


def test_known_answer_flags_a_wrong_expectation(tmp_path):
    files = corpus.tree("mixed", 5, 3)
    result = _cli_over(tmp_path, files)
    checker, line, related = files[1].findings[0]
    files[1].findings[0] = (checker, line + 1, related)
    files[2].warnings.append(("unterminated-block-comment", 1))
    gate = run.Gate({os.path.join("tree", f.relpath): f for f in files})
    gate.check_cli(result)
    assert sorted(gate.failures) == [os.path.join("tree", files[1].relpath), os.path.join("tree", files[2].relpath)]
    assert "known answer" in gate.failures[os.path.join("tree", files[1].relpath)]


def test_open_comment_gate(tmp_path):
    shape = corpus.shape("open_comment", 1, 2048)
    run.write_tree(str(tmp_path), [shape])
    gate = run.Gate({})
    gate.check_open_comment(harness.run_cli(["--format", "json", shape.relpath], str(tmp_path), SRC, 60.0))
    assert gate.failures == {} and gate.attempted == 1


def test_self_times_account_for_the_file_span():
    tracer = harness.Tracer()
    source = corpus.tree("mixed", 2, 1)[0]
    harness.traced_file(tracer, source.relpath, source.text, profile_for(source.relpath))
    own = tracer.self_times()
    file_span = sum(tracer.durations("file").values())
    assert sum(own[name] for name in run.LAYERS) + own["file"] == pytest.approx(file_span)


def _run_bench(cwd: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", "tree_mixed",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(trace):
    spec = _spec()
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    every = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    proc = _run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    table = lines[2 : next(i for i, line in enumerate(lines) if line.startswith(("gate:", "accounting")))]
    assert table and {line.split()[0] for line in table} <= every


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(str(tmp_path), 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
