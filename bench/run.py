"""xcheck benchmark: known-answer corpora, CLI throughput, per-layer spans.

Run from the root of a checkout (the directory holding ``src/`` and
``BENCHMARK.json``)::

    python3 bench/run.py --workload tree_mixed --seed 1 --seconds 20 --trace 0

The workload is generated from ``--seed`` into ``.bench_work/<workload>/``.
For ``--seconds`` the benchmark repeats rounds; each round times the CLI on
an empty file (start-up), the CLI on the whole tree, and the in-process
pipeline on every file.  ``--trace 1`` adds a traced in-process pass per
round and reports the per-layer metrics instead of the end-to-end ones.
The benchmark pins itself and its CLI processes to one CPU and reports
every time at the speed of a reference loop run on that CPU around each
measurement (see ``harness.bracketed``); the table also shows the times
as measured.
Every run checks every CLI verdict against the generator's known answer,
the in-process findings against the CLI's, the bundled regression
fixtures, and the unterminated-comment warning.

A table for people comes first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names
and units are those declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import shutil
import statistics
import sys
import time

import corpus

TREE_FILES = 120
# Sizes n of the stress shapes.  Each shape is also timed at 2n in the
# traced run.  They are far below ROADMAP item 1's sizes (8,000-term &&,
# 2,000-case switch, 1 MB line) so that a run can repeat every shape
# several times; the quadratic shapes still grow about 4x per doubling.
SHAPE_SIZES = {
    "and_chain": 1000,
    "deep_braces": 500,
    "elif_chain": 300,
    "big_switch": 300,
    "long_line": 32_000,
    "open_comment": 128_000,
}
WORKLOADS = ("tree_mixed", "docs_heavy", "stress_shapes")
MIN_ROUNDS = 3
# Rounds stop here even short of MIN_ROUNDS, so that a much slower commit
# still ends within the 180 s a run may take.
HARD_LIMIT_S = 140.0
# CLI runs of one round: start-up on an empty file, then the whole tree.
ROUND_CLI_RUNS = ("empty.c", "empty.c", "tree", "empty.c", "empty.c", "tree")
CLI_TIMEOUT_S = 60.0
CHECKER_IDS = ("null_deref", "redundant_condition", "redundant_branch", "loop_direction")
# Span names of the pipeline's layers inside a file span.
LAYERS = (
    "lexer.tokenize",
    "microgrammar.parse_statements",
    *(f"checkers.{cid}" for cid in CHECKER_IDS),
    "diagnostics.render",
)


def build_workload(name: str, seed: int) -> tuple[list[corpus.SourceFile], dict[str, corpus.SourceFile]]:
    """The files of a workload and, for stress_shapes, each shape at 2n."""
    if name == "tree_mixed":
        return corpus.tree("mixed", seed, TREE_FILES), {}
    if name == "docs_heavy":
        return corpus.tree("docs", seed, TREE_FILES), {}
    files = [corpus.shape(s, seed, n) for s, n in SHAPE_SIZES.items()]
    doubled = {f.relpath: corpus.shape(s, seed, 2 * n) for f, (s, n) in zip(files, SHAPE_SIZES.items())}
    return files, doubled


def write_tree(base: str, files: list[corpus.SourceFile]) -> None:
    for f in files:
        path = os.path.join(base, f.relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f.text)


_WARNING = re.compile(r"^(.*):(\d+):\d+: lex-warning: (.*)$")
_WARNING_KINDS = {
    "block comment is never closed": "unterminated-block-comment",
    "unterminated string literal": "unterminated-string",
    "unterminated char literal": "unterminated-string",
}


def lex_warnings(stderr: str) -> dict[str, list[tuple[str, int]]]:
    """``(kind, line)`` of each lex warning the CLI printed, by file."""
    out: dict[str, list[tuple[str, int]]] = {}
    for line in stderr.splitlines():
        m = _WARNING.match(line)
        if m:
            path, lineno, message = m.group(1), int(m.group(2)), m.group(3)
            kind = _WARNING_KINDS.get(message, "unknown-character" if message.startswith("unexpected") else message)
            out.setdefault(path, []).append((kind, lineno))
    return out


def finding_keys(recs: list[dict]) -> list[tuple]:
    keys = [(r["checker"], r["start_line"], r.get("related_line")) for r in recs]
    return sorted(keys, key=corpus.finding_order)


class Gate:
    """Correctness checks; each failing item is listed once with its reason."""

    def __init__(self, expected: dict[str, corpus.SourceFile]) -> None:
        self.expected = expected
        self.attempted = len(expected)
        self.failures: dict[str, str] = {}

    def fail(self, item: str, reason: str) -> None:
        self.failures.setdefault(item, reason)

    def check_cli(self, run) -> dict[str, list[dict]]:
        """Compare one CLI run over the tree with the known answer; returns
        the CLI's records by file."""
        by_file: dict[str, list[dict]] = {p: [] for p in self.expected}
        try:
            recs = json.loads(run.stdout)
        except json.JSONDecodeError:
            recs = None
        if run.code not in (0, 1) or not isinstance(recs, list):
            for path in self.expected:
                self.fail(path, f"CLI exit {run.code}: {run.stderr.strip()[-200:]}")
            return by_file
        for rec in recs:
            if rec.get("file") not in by_file:
                self.fail(str(rec.get("file")), "finding for a file outside the tree")
                continue
            by_file[rec["file"]].append(rec)
        warnings = lex_warnings(run.stderr)
        for path, source in self.expected.items():
            got = finding_keys(by_file[path])
            if got != source.expected():
                self.fail(path, f"findings {got} != known answer {source.expected()}")
            if sorted(warnings.get(path, [])) != sorted(source.warnings):
                self.fail(path, f"lex warnings {warnings.get(path, [])} != {source.warnings}")
        want_code = 1 if any(s.findings for s in self.expected.values()) else 0
        if run.code != want_code:
            self.fail("cli-exit-code", f"exit {run.code}, expected {want_code}")
        return by_file

    def check_same(self, path: str, inproc: list[dict], cli: list[dict]) -> None:
        if inproc != cli:
            self.fail(path, f"in-process findings {finding_keys(inproc)} != CLI {finding_keys(cli)}")

    def check_fixtures(self) -> None:
        from xcheck.fixtures import builtin_cases, run_fixture

        for case in builtin_cases():
            self.attempted += 1
            report = run_fixture(case)
            if not report.passed:
                self.fail(f"fixture:{case.name}", "; ".join(report.diff))

    def check_open_comment(self, run) -> None:
        self.attempted += 1
        warnings = [w for ws in lex_warnings(run.stderr).values() for w in ws]
        if run.code != 0 or warnings != [("unterminated-block-comment", 1)]:
            self.fail("gate:open_comment", f"exit {run.code}, lex warnings {warnings}")


def median(values):
    return statistics.median(values)


def quantile_90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    begun = time.perf_counter()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "xcheck", "cli.py")):
        print("bench: no src/xcheck here; run from the root of an xcheck checkout", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness  # needs src on sys.path
    import xcheck
    from xcheck.profiles import profile_for

    if not os.path.abspath(xcheck.__file__).startswith(src + os.sep):
        print(f"bench: imported {xcheck.__file__}, not this checkout's xcheck", file=sys.stderr)
        return 2

    files, doubled = build_workload(args.workload, args.seed)
    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    write_tree(os.path.join(work, "tree"), files)
    open(os.path.join(work, "empty.c"), "w").close()
    gate_file = corpus.shape("open_comment", args.seed, 4096)
    write_tree(os.path.join(work, "gate"), [gate_file])

    expected = {os.path.join("tree", f.relpath): f for f in files}
    inputs = []
    for path in expected:
        with open(os.path.join(work, path), encoding="utf-8", errors="replace") as fh:
            inputs.append((path, fh.read(), profile_for(path)))
    inputs_2n = [
        (os.path.join("2n", rel), f.text, profile_for(f.relpath)) for rel, f in doubled.items()
    ]
    tree_kb = sum(len(src_text.encode("utf-8")) for _, src_text, _ in inputs) / 1000.0

    def cli(*paths: str):
        return harness.run_cli(["--format", "json", *paths], work, src, CLI_TIMEOUT_S)

    gate = Gate(expected)
    gate.check_fixtures()
    gate.check_open_comment(cli(os.path.join("gate", gate_file.relpath)))
    cli("empty.c")  # warm-up: byte-compiles the sources once, outside timing
    cli("tree")

    setup: list[float] = []  # seconds at reference speed
    raw_setup: list[float] = []
    cli_runs = []  # (run, reference-speed scale)
    # Per-file seconds scaled to reference speed, and as measured.
    per_file: dict[str, list[float]] = {path: [] for path in expected}
    raw_file: dict[str, list[float]] = {path: [] for path in expected}
    traced_rounds: list[dict] = []
    counts = harness.FileCounts()
    findings_by_checker: dict[str, int] = {cid: 0 for cid in CHECKER_IDS}
    tracers: list[harness.Tracer] = []

    # The benchmark's own objects (corpus, inputs) need not be scanned by
    # every collection the measured code triggers, as they would not be in
    # the CLI process.
    gc.collect()
    gc.freeze()
    harness.pin_to_one_cpu()
    started = time.perf_counter()
    deadline = started + args.seconds
    rounds = 0
    hard_deadline = begun + HARD_LIMIT_S
    while time.perf_counter() < (hard_deadline if rounds < MIN_ROUNDS else deadline):
        for target, run, _, scale in harness.bracketed(ROUND_CLI_RUNS, cli):
            if target == "empty.c":
                if run.code != 0 or run.stdout.strip() != "[]":
                    gate.fail("gate:empty", f"exit {run.code} on an empty file")
                setup.append(run.wall_s * scale)
                raw_setup.append(run.wall_s)
            else:
                cli_runs.append((run, scale))
                cli_records = gate.check_cli(run)

        total = 0.0
        untraced = harness.bracketed(inputs, lambda item: harness.pipeline(*item))
        for (path, _, _), diags, seconds, scale in untraced:
            per_file[path].append(seconds * scale)
            raw_file[path].append(seconds)
            total += seconds * scale
            if rounds == 0:
                gate.check_same(path, harness.records(diags), cli_records[path])

        if args.trace:
            tracer = harness.Tracer()
            first = rounds == 0
            traced = harness.bracketed(inputs, lambda item: harness.traced_file(tracer, *item, count=first))
            for (path, _, _), (found, fc), _, scale in traced:
                tracer.scale[path] = scale
                if fc is not None:
                    counts.add(fc)
                    for cid, n in found.items():
                        findings_by_checker[cid] += n
            tracer_2n = harness.Tracer()
            for (path, _, _), _, _, scale in harness.bracketed(
                inputs_2n, lambda item: harness.traced_file(tracer_2n, *item)
            ):
                tracer_2n.scale[path] = scale
            tracers += [tracer, tracer_2n]
            traced_rounds.append(round_layers(tracer, tracer_2n, total, cli_runs[-1][0].wall_s * cli_runs[-1][1]))
        rounds += 1
    measured_s = time.perf_counter() - started

    setup_s = median(setup)
    file_ms = [median(ts) * 1000.0 for ts in per_file.values()]
    raw_ms = [median(ts) * 1000.0 for ts in raw_file.values()]
    shape_rows = {
        f"shape.{f.relpath[:-2]}.s": median(per_file[os.path.join("tree", f.relpath)])
        for f in files
        if args.workload == "stress_shapes"
    }
    if args.trace:
        values = layer_metrics(traced_rounds, setup_s, counts, findings_by_checker)
        samples = f"{rounds} traced rounds"
    else:
        values = {
            # All source processed over all CLI wall time: under the bimodal
            # speed of a shared CPU this is steadier than a median run.
            "throughput_kb_s": tree_kb * len(cli_runs) / sum(r.wall_s * c for r, c in cli_runs),
            "file_ms_p50": median(file_ms),
            "file_ms_p90": quantile_90(file_ms),
            "peak_rss_mb": median([r.rss_mb for r, _ in cli_runs]),
            "setup_s": setup_s,
        }
        samples = {
            "throughput_kb_s": f"{len(cli_runs)} CLI runs over {tree_kb:.1f} KB "
            f"({tree_kb * len(cli_runs) / sum(r.wall_s for r, _ in cli_runs):.4g} as measured)",
            "file_ms_p50": f"{len(file_ms)} files x {rounds} rounds ({median(raw_ms):.4g} as measured)",
            "file_ms_p90": f"{len(file_ms)} files x {rounds} rounds ({quantile_90(raw_ms):.4g} as measured)",
            "peak_rss_mb": f"{len(cli_runs)} CLI runs",
            "setup_s": f"{len(setup)} CLI runs on an empty file ({median(raw_setup):.4g} as measured)",
        }

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(declared):
        print(f"bench: metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json", file=sys.stderr)
        return 3

    if args.trace:
        write_spans(os.path.join(work, "spans.jsonl"), tracers)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(files)} files  {tree_kb:.1f} KB  {rounds} rounds in {measured_s:.1f} s")
    print(f"{'metric':36} {'value':>14} {'unit':8} samples")
    for name, value in values.items():
        n = samples if isinstance(samples, str) else samples[name]
        print(f"{name:36} {value:14.6g} {declared[name]:8} {n}")
    if not args.trace:
        for name, value in shape_rows.items():
            print(f"{name:36} {value:14.6g} {'s':8} {rounds} rounds (untraced)")
    else:
        print_accounting(traced_rounds)
    failed = len(gate.failures)
    print(f"gate: failed_share {failed}/{gate.attempted} = {failed / gate.attempted:.4f}")
    for item, reason in sorted(gate.failures.items()):
        print(f"gate: FAIL {item}: {reason}")
    result = {
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


def round_layers(tracer, tracer_2n, untraced_total: float, cli_wall: float) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    own = tracer.self_times()
    file_spans = tracer.durations("file")
    file_s = sum(file_spans.values())
    layers = {name: own.get(name, 0.0) for name in LAYERS}
    row = {
        "lexer.busy_s": layers["lexer.tokenize"],
        "microgrammar.parse_s": layers["microgrammar.parse_statements"],
        "microgrammar.refine_s": own.get("microgrammar.parse_expression", 0.0),
        "diagnostics.render_s": layers["diagnostics.render"],
        "trace.file_s": file_s,
        "trace.residue_s": own.get("file", 0.0),
        "trace.overhead_share": (file_s - untraced_total) / untraced_total,
        "layers_s": sum(layers.values()),
        "cli_wall_s": cli_wall,
    }
    for cid in CHECKER_IDS:
        row[f"checkers.{cid}.busy_s"] = layers[f"checkers.{cid}"]
    spans_2n = tracer_2n.durations("file")
    for path, t in file_spans.items():
        name = os.path.basename(path)[:-2]
        if name in SHAPE_SIZES:
            row[f"shape.{name}.s"] = t
            row[f"shape.{name}.doubling_ratio"] = spans_2n[os.path.join("2n", os.path.basename(path))] / t
    return row


def layer_metrics(rounds: list[dict], setup_s: float, c, findings: dict[str, int]) -> dict[str, float]:
    """Medians over traced rounds, plus the counts of the first round."""
    med = {key: median([r[key] for r in rounds]) for key in rounds[0]}
    out = {
        "lexer.busy_s": med["lexer.busy_s"],
        "lexer.tokens": c.tokens,
        "lexer.mtok_s": c.tokens / med["lexer.busy_s"] / 1e6,
        "lexer.errors": c.lex_errors,
        "microgrammar.parse_s": med["microgrammar.parse_s"],
        "microgrammar.structural_s": med["microgrammar.parse_s"] - med["microgrammar.refine_s"],
        "microgrammar.stmts": c.stmts,
        "microgrammar.incomplete": c.incomplete,
        "microgrammar.refine_s": med["microgrammar.refine_s"],
        "microgrammar.slots": c.slots,
        "microgrammar.refined_share": c.refined / c.slots if c.slots else 0.0,
        "microgrammar.wild_token_share": c.wild_tokens / c.slot_tokens if c.slot_tokens else 0.0,
    }
    for cid, n in findings.items():
        out[f"checkers.{cid}.busy_s"] = med[f"checkers.{cid}.busy_s"]
        out[f"checkers.{cid}.findings"] = n
    out["checkers.null_deref.events"] = c.null_events
    out["diagnostics.render_s"] = med["diagnostics.render_s"]
    out["diagnostics.findings"] = c.diagnostics
    out["cli.other_s"] = med["cli_wall_s"] - setup_s - med["layers_s"]
    out["trace.file_s"] = med["trace.file_s"]
    out["trace.residue_share"] = med["trace.residue_s"] / med["trace.file_s"]
    out["trace.overhead_share"] = med["trace.overhead_share"]
    # Shape metrics exist only where the workload holds the shape.
    for name in SHAPE_SIZES:
        out[f"shape.{name}.s"] = med.get(f"shape.{name}.s", 0.0)
        out[f"shape.{name}.doubling_ratio"] = med.get(f"shape.{name}.doubling_ratio", 0.0)
    return out


def print_accounting(rounds: list[dict]) -> None:
    r = rounds[len(rounds) // 2]
    print(f"accounting (round {len(rounds) // 2}): layer self times {r['layers_s']:.6f} s "
          f"+ residue {r['trace.residue_s']:.6f} s = file spans {r['trace.file_s']:.6f} s; "
          f"refine re-run {r['microgrammar.refine_s']:.6f} s outside the file spans")


def write_spans(path: str, tracers) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in tracers:
            for name, request, parent, start, end in t.spans:
                fh.write(json.dumps({"name": name, "request": request, "parent": parent,
                                     "start": start, "end": end}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
