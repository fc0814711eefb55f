"""Paired benchmark runs: is a change faster than its parent?

Run from anywhere::

    python3 tools/bench_pairs.py OLD_ROOT NEW_ROOT --workload W --seeds 601 602 ... \\
        [--trace 0|1] [--out BENCH.json]

Each ROOT is a checkout (the directory holding ``src/``, ``bench/`` and
``BENCHMARK.json``); OLD_ROOT is the parent, NEW_ROOT the change.  For each
seed the tool runs ``python3 bench/run.py --workload W --seed N --seconds S
--trace T`` once in each root, one after the other; the side that runs first
alternates from pair to pair.  ``S`` is the ``run_seconds`` of NEW_ROOT's
``BENCHMARK.json``, so both sides run as long as the benchmark sets.

For each metric the benchmark declares (end-to-end with ``--trace 0``, per
layer with ``--trace 1``) it prints each side's median and quartiles, the
pairs the change won (ties count for neither), the gap between the medians
in the metric's better direction, and the parent's interquartile range.
A metric whose median is worse than the parent's by more than the bound the
benchmark declares for it is flagged ``worse than bound``.
With ``--out`` the summary is written as JSON; a file that already exists is
read first, so runs of several workloads collect in one file.

A ``__pycache__`` under either ``src/`` would let one side skip compiling
its sources, which moves ``setup_s`` and ``peak_rss_mb``, so the tool
refuses to start (exit 2) until they are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # differential.py sits beside this file
from differential import src_lines  # noqa: E402  (the differential's src/ line count, as wc -l gives it)

RUN_TIMEOUT_S = 600


def stale_caches(root: str) -> list[str]:
    """Every ``__pycache__`` directory under ``root/src``."""
    found = []
    for dirpath, dirnames, _ in os.walk(os.path.join(root, "src")):
        found += [os.path.join(dirpath, d) for d in dirnames if d == "__pycache__"]
    return sorted(found)


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict[str, dict]:
    """Per metric: both sides' quartiles, the change's pair wins, the median
    gap in the metric's better direction and the parent's IQR; for a metric
    with a ``bound``, the share by which the change is worse and whether
    that share exceeds the bound.

    ``runs`` holds one ``{"seed", "parent", "change"}`` per pair, each side a
    ``{metric name: value}`` map; ``metrics`` are the benchmark's
    declarations (``name``, ``unit``, ``better``).
    """
    out = {}
    for spec in metrics:
        name = spec["name"]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        p, c = quartiles(parent), quartiles(change)
        gain = sign * (c["median"] - p["median"]) + 0.0  # no "-0" for equal medians
        iqr = p["q3"] - p["q1"]
        wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": p,
            "change": c,
            "pairs": len(runs),
            "change_wins": wins,
            "median_gain": round(gain, 6),
            "parent_iqr": round(iqr, 6),
            # The claim rule: at least nine pairs in ten, and a median gap
            # wider than the parent's own spread.
            "gain_shown": wins >= 0.9 * len(runs) and gain > iqr,
            "runs": [{"seed": r["seed"], "parent": a, "change": b} for r, a, b in zip(runs, parent, change)],
        }
        if "bound" in spec and p["median"]:
            out[name]["bound"] = spec["bound"]
            out[name]["worse_share"] = round(-gain / abs(p["median"]), 6)
            # The regression rule: no worse than the parent by more than the bound.
            out[name]["beyond_bound"] = out[name]["worse_share"] > spec["bound"]
    return out


def run_bench(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``root``; its final JSON line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: bench exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def environment(seconds: float) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu, "run_seconds": seconds}


def print_table(workload: str, summary: dict[str, dict]) -> None:
    head = f"{'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} wins gain parent_iqr"
    print(f"{workload}: {'metric':<34} {head}")
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        print(
            f"{'':{len(workload) + 2}}{name:<34} {p['median']:>12.5g} [{p['q1']:.5g}, {p['q3']:.5g}]"
            f" {c['median']:>12.5g} [{c['q1']:.5g}, {c['q3']:.5g}]"
            f" {s['change_wins']}/{s['pairs']} {s['median_gain']:+.4g} {s['parent_iqr']:.4g}"
            f"{'  gain shown' if s['gain_shown'] else ''}"
            f"{'  worse than bound' if s.get('beyond_bound') else ''}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_root")
    parser.add_argument("new_root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="JSON file to write (merged into when it exists)")
    args = parser.parse_args(argv)

    stale = stale_caches(args.old_root) + stale_caches(args.new_root)
    if stale:
        print("bench_pairs: remove these bytecode caches first:", *stale, sep="\n  ", file=sys.stderr)
        return 2
    with open(os.path.join(args.new_root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    roots = {"parent": args.old_root, "change": args.new_root}

    runs, failed = [], {side: {"failed": 0, "attempted": 0} for side in roots}
    for i, seed in enumerate(args.seeds):
        pair = {"seed": seed}
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_bench(roots[side], args.workload, seed, seconds, args.trace)
            pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
            failed[side]["failed"] += result["failed"]
            failed[side]["attempted"] += result["attempted"]
        runs.append(pair)
        print(f"pair {i + 1}/{len(args.seeds)} (seed {seed}) done", file=sys.stderr)

    summary = summarize(runs, spec["per_layer" if args.trace else "end_to_end"])
    print_table(args.workload, summary)
    if args.out:
        doc: dict = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                doc = json.load(fh)
        doc["environment"] = environment(seconds)
        doc["src_loc"] = {side: src_lines(root) for side, root in roots.items()}
        section = doc.setdefault("per_layer" if args.trace else "end_to_end", {})
        section[args.workload] = {"seeds": args.seeds, "failed": failed, "metrics": summary}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
