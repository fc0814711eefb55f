"""Command-line entry point.

Setup checks all the command line names (the ``--line-range`` shape,
``--profile``, ``--lang`` as a language name, each path as (file, profile)
pairs by extension); a problem there prints just ``xcheck: error: ...`` to
stderr and exits 2, nothing analyzed.  Then each file runs through the
pipeline and findings go to stdout.  What a walk skips and what cannot be read
are reported on stderr; the rest still run: exit 2 if something could not be
read, else 1 (findings) or 0 (clean).  ``--lang`` forces the profile but does
not widen a directory walk.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .checkers import CHECKERS, run_checkers
from .diagnostics import Diagnostic, dedupe_and_sort, render_json, render_text
from .lexer import LexError, line_starts, tokenize
from .microgrammar import Stmt, dump_statements, parse_statements
from .profiles import (
    DEFAULT_REGISTRY,
    LanguageProfile,
    ProfileError,
    Registry,
    UnknownLanguage,
    load_profile_file,
)


def _parse_line_range(value: str) -> tuple[int, int]:
    first, sep, last = value.partition(":")
    if not sep or not first.isdigit() or not last.isdigit():
        raise argparse.ArgumentTypeError("expected --line-range FIRST:LAST (1-based)")
    a, b = int(first), int(last)
    if a < 1 or b < a:
        raise argparse.ArgumentTypeError(f"bad line range {value!r}: need 1 <= FIRST <= LAST")
    return a, b


def _parse_checkers(value: str) -> tuple[str, ...]:
    ids = tuple(part.strip() for part in value.split(",") if part.strip())
    unknown = [c for c in ids if c not in CHECKERS]
    if unknown or not ids:
        known = ", ".join(CHECKERS)
        raise argparse.ArgumentTypeError(
            f"unknown checker(s) {', '.join(unknown) or '<none>'} (known: {known})"
        )
    return ids


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="xcheck",
        description="Lightweight static bug finder for C, C++, and Java.",
    )
    parser.add_argument("paths", nargs="+", help="source files or directories")
    parser.add_argument("--lang", dest="lang_override", help="force a language profile by name")
    parser.add_argument(
        "--checkers",
        type=_parse_checkers,
        default=tuple(CHECKERS),
        help=f"comma-separated checker ids (default: all of {', '.join(CHECKERS)})",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--line-range",
        type=_parse_line_range,
        default=None,
        metavar="FIRST:LAST",
        help="analyze only this 1-based line window (single file input only)",
    )
    parser.add_argument("--dump-ast", action="store_true", help="print the parsed statement tree")
    parser.add_argument("--profile", dest="profile_file", help="register an extra language profile file")
    return parser.parse_args(argv)


def _collect_files(
    paths: list[str], registry: Registry, forced: LanguageProfile | None, notes: list[str]
) -> tuple[list[tuple[str, LanguageProfile]], bool]:
    """Expand paths to (file, profile) pairs in deterministic order, and whether
    some directory could not be read.  A walked file needs a profile for its
    extension, ``forced`` or not, and must be a regular file; what is skipped or
    unreadable is noted in ``notes``, for the caller to print once every path
    has been expanded."""
    out: list[tuple[str, LanguageProfile]] = []
    failed: list[OSError] = []
    for raw in paths:
        if os.path.isdir(raw):
            for root, dirs, names in os.walk(raw, onerror=failed.append):
                dirs.sort()
                for link in filter(os.path.islink, (os.path.join(root, d) for d in dirs)):
                    notes.append(f"xcheck: skipping {link} (link to a directory, not followed)")
                for name in sorted(names):
                    full = os.path.join(root, name)
                    try:
                        profile = registry.resolve_path(full)
                    except UnknownLanguage:
                        notes.append(f"xcheck: skipping {full} (no profile for extension)")
                        continue
                    # a FIFO would block the read; a dangling link is read, to report it
                    if not os.path.isfile(full) and os.path.exists(full):
                        notes.append(f"xcheck: skipping {full} (not a regular file)")
                        continue
                    out.append((full, forced or profile))
        elif os.path.isfile(raw):
            out.append((raw, forced or registry.resolve_path(raw)))
        elif os.path.exists(raw):
            raise ValueError(f"not a regular file or directory: {raw}")
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    for exc in failed:
        notes.append(f"xcheck: error: {exc.filename}: {exc.strerror or exc}")
    return out, bool(failed)


def analyze_source(
    source: str,
    profile: LanguageProfile,
    path: str,
    line_range: tuple[int, int] | None,
    checkers: tuple[str, ...],
) -> tuple[list[LexError], list[Stmt], list[Diagnostic]]:
    """One file through the pipeline: lex, keep the tokens and lex warnings that
    start in the 1-based ``line_range`` (all of them when ``None``), parse, run
    ``checkers``.  An unterminated block comment that starts before the window
    ends runs over the window, so its warning is kept too."""
    stream = tokenize(source, profile, source_path=path)
    tokens, errors = stream.tokens, stream.errors
    if line_range is not None:  # the window as offsets, found once
        starts = (*line_starts(source), len(source))
        lo, hi = (starts[min(n, len(starts)) - 1] for n in (line_range[0], line_range[1] + 1))
        tokens = [t for t in tokens if lo <= t.offset < hi]
        errors = [
            e for e in errors
            if e.pos.offset < hi and (lo <= e.pos.offset or e.kind == "unterminated-block-comment")
        ]
    stmts = parse_statements(tokens, profile)
    return errors, stmts, run_checkers(stmts, profile, checkers, path=path)


def run(args: argparse.Namespace, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    registry = DEFAULT_REGISTRY
    try:
        if args.line_range is not None and (len(args.paths) != 1 or os.path.isdir(args.paths[0])):
            raise ValueError("--line-range requires exactly one input file")
        if args.profile_file is not None:
            # extend a copy (of already validated profiles): the process-wide
            # registry must read the same after the run
            registry = Registry(DEFAULT_REGISTRY)
            load_profile_file(args.profile_file, registry)
        forced = registry.resolve(args.lang_override) if args.lang_override else None
        notes: list[str] = []
        files, unreadable = _collect_files(args.paths, registry, forced, notes)
    except (OSError, ProfileError, ValueError) as exc:
        print(f"xcheck: error: {exc}", file=err)
        return 2
    for note in notes:
        print(note, file=err)
    all_diags: list[Diagnostic] = []
    for path, profile in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                source = fh.read().removeprefix("\ufeff")  # a leading U+FEFF is a byte-order mark, not source
        except OSError as exc:
            print(f"xcheck: error: {path}: {exc.strerror or exc}", file=err)
            unreadable = True
            continue
        lex_errors, stmts, diags = analyze_source(source, profile, path, args.line_range, args.checkers)
        for lex_err in lex_errors:
            where = f"{path}:{lex_err.pos.line}:{lex_err.pos.column}"
            print(f"{where}: lex-warning: {lex_err.message}", file=err)
        if args.dump_ast:
            print(f"// AST {path}", file=out)
            tree = dump_statements(stmts)
            if tree:
                print(tree, file=out)
        all_diags.extend(diags)
    all_diags = dedupe_and_sort(all_diags)
    if args.format == "json":
        print(render_json(all_diags), file=out)
    else:
        text = render_text(all_diags)
        if text:
            print(text, file=out)
    return 2 if unreadable else 1 if all_diags else 0


def main(argv: list[str] | None = None) -> int:
    """The process entry: parse ``argv`` (default ``sys.argv[1:]``), run, exit."""
    # Reference counting frees every token, node, event and finding the
    # pipeline builds, so the cyclic collector's scans buy this short-lived
    # process nothing (tests/test_gc.py's test_the_pipeline_makes_no_reference_cycles
    # keeps that true); argparse and the json encoder leave a few cycles, once
    # per run.  The process ends here, so nothing is restored; run() and the
    # library leave the collector alone.
    gc.disable()
    sys.exit(run(parse_args(sys.argv[1:] if argv is None else argv)))
