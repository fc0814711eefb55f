"""``tools/bench_pairs.py``: its summary rule and its refusal to compare
trees that hold bytecode caches.  No benchmark is run."""

from __future__ import annotations

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "file_ms_p50", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "throughput_kb_s", "unit": "KB/s", "better": "higher", "bound": 0.25},
]


def _runs(parent_ms, change_ms, parent_kb, change_kb):
    sides = zip(parent_ms, change_ms, parent_kb, change_kb)
    return [
        {
            "seed": seed,
            "parent": {"file_ms_p50": a, "throughput_kb_s": c},
            "change": {"file_ms_p50": b, "throughput_kb_s": d},
        }
        for seed, (a, b, c, d) in enumerate(sides, 1)
    ]


def test_summary_counts_wins_in_each_metrics_better_direction():
    runs = _runs(
        parent_ms=[1.2, 1.3, 1.25, 1.22, 1.28],
        change_ms=[1.1, 1.12, 1.25, 1.05, 1.11],  # one tie, four wins
        parent_kb=[100, 110, 105, 95, 100],
        change_kb=[90, 100, 95, 85, 90],  # lower throughput is worse
    )
    summary = bench_pairs.summarize(runs, METRICS)
    ms, kb = summary["file_ms_p50"], summary["throughput_kb_s"]
    assert ms["parent"] == {"median": 1.25, "q1": 1.22, "q3": 1.28}
    assert ms["change"]["median"] == 1.11
    assert (ms["pairs"], ms["change_wins"]) == (5, 4)
    assert ms["median_gain"] == pytest.approx(0.14) and ms["parent_iqr"] == pytest.approx(0.06)
    assert not ms["gain_shown"]  # 4/5 pairs is under nine in ten
    assert ms["runs"][0] == {"seed": 1, "parent": 1.2, "change": 1.1}
    assert kb["change_wins"] == 0 and kb["median_gain"] == -10
    assert kb["worse_share"] == pytest.approx(0.1) and kb["bound"] == 0.25
    assert not kb["gain_shown"]


def test_summary_shows_a_gain_only_beyond_the_parents_spread():
    wide = _runs([1.0, 2.0, 1.5, 1.2, 1.8], [0.9, 1.9, 1.4, 1.1, 1.7], [1] * 5, [1] * 5)
    narrow = _runs([1.2, 1.21, 1.22, 1.2, 1.21], [1.1, 1.1, 1.12, 1.11, 1.1], [1] * 5, [1] * 5)
    assert bench_pairs.summarize(wide, METRICS)["file_ms_p50"]["change_wins"] == 5
    assert not bench_pairs.summarize(wide, METRICS)["file_ms_p50"]["gain_shown"]
    assert bench_pairs.summarize(narrow, METRICS)["file_ms_p50"]["gain_shown"]
    equal = bench_pairs.summarize(narrow, METRICS)["throughput_kb_s"]
    assert equal["change_wins"] == 0 and str(equal["median_gain"]) == "0.0"


def test_summary_flags_a_metric_worse_than_its_bound(capsys):
    runs = _runs(
        parent_ms=[1.0, 1.0, 1.0, 1.0, 1.0],
        change_ms=[1.3, 1.3, 1.3, 1.3, 1.3],  # 30% slower: past the 0.2 bound
        parent_kb=[100] * 5,
        change_kb=[80] * 5,  # 20% lower: inside the 0.25 bound
    )
    summary = bench_pairs.summarize(runs, METRICS)
    ms, kb = summary["file_ms_p50"], summary["throughput_kb_s"]
    assert ms["worse_share"] == pytest.approx(0.3) and ms["beyond_bound"] is True
    assert kb["worse_share"] == pytest.approx(0.2) and kb["beyond_bound"] is False
    bench_pairs.print_table("w", summary)
    lines = capsys.readouterr().out.splitlines()
    flagged = [line.split()[0] for line in lines[1:] if line.endswith("worse than bound")]
    assert flagged == ["file_ms_p50"]


def test_refuses_to_start_while_a_tree_holds_a_bytecode_cache(tmp_path, monkeypatch, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        (root / "src" / "xcheck").mkdir(parents=True)
    stale = new / "src" / "xcheck" / "__pycache__"
    stale.mkdir()

    def no_benchmark(*args):
        raise AssertionError("the benchmark must not run")

    monkeypatch.setattr(bench_pairs, "run_bench", no_benchmark)
    argv = [str(old), str(new), "--workload", "docs_heavy", "--seeds", "1"]
    assert bench_pairs.main(argv) == 2
    assert str(stale) in capsys.readouterr().err
    assert bench_pairs.stale_caches(str(old)) == []


def test_src_loc_counts_lines_as_wc_l_does(tmp_path):
    package = tmp_path / "src" / "xcheck"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\nw = 4")  # no newline after the last line: wc -l counts 1
    (package / "notes.txt").write_text("not source\n")
    assert bench_pairs.src_lines(str(tmp_path)) == 3
