"""Command-line entry point.

Resolves inputs to (file, profile) pairs, runs the pipeline, renders
findings to stdout, and exits 0 (clean), 1 (findings), or 2 (usage/IO
error; an unreadable file is reported and skipped, the rest still run).
Logs and errors go to stderr; stdout carries output only.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

from .checkers import ALL_CHECKER_IDS, run_checkers
from .diagnostics import Diagnostic, dedupe_and_sort, render_json, render_text
from .lexer import TokenStream, tokenize
from .microgrammar import dump_statements, parse_statements
from .profiles import (
    DEFAULT_REGISTRY,
    ProfileError,
    Registry,
    UnknownLanguage,
    load_profile_file,
)


class BadRange(Exception):
    pass


@dataclass
class RunConfig:
    paths: list[str]
    lang_override: str | None = None
    checkers: tuple[str, ...] = ALL_CHECKER_IDS
    format: str = "text"  # "text" | "json"
    line_range: tuple[int, int] | None = None
    dump_ast: bool = False
    profile_file: str | None = None


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
    unknown = [c for c in ids if c not in ALL_CHECKER_IDS]
    if unknown or not ids:
        known = ", ".join(ALL_CHECKER_IDS)
        raise argparse.ArgumentTypeError(
            f"unknown checker(s) {', '.join(unknown) or '<none>'} (known: {known})"
        )
    return ids


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xcheck",
        description="Lightweight static bug finder for C, C++, and Java.",
    )
    parser.add_argument("paths", nargs="+", help="source files or directories")
    parser.add_argument("--lang", dest="lang", help="force a language profile by name")
    parser.add_argument(
        "--checkers",
        type=_parse_checkers,
        default=ALL_CHECKER_IDS,
        help=f"comma-separated checker ids (default: all of {', '.join(ALL_CHECKER_IDS)})",
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
    return parser


def parse_args(argv: list[str]) -> RunConfig:
    ns = build_arg_parser().parse_args(argv)
    return RunConfig(
        paths=ns.paths,
        lang_override=ns.lang,
        checkers=ns.checkers,
        format=ns.format,
        line_range=ns.line_range,
        dump_ast=ns.dump_ast,
        profile_file=ns.profile_file,
    )


def _collect_files(config: RunConfig, registry: Registry, err) -> list[tuple[str, str]]:
    """Expand paths to (file, language-or-path) pairs in deterministic order."""
    out: list[tuple[str, str]] = []
    for raw in config.paths:
        if os.path.isdir(raw):
            for root, dirs, names in os.walk(raw):
                dirs.sort()
                for name in sorted(names):
                    full = os.path.join(root, name)
                    try:
                        registry.resolve(full)
                    except UnknownLanguage:
                        print(f"xcheck: skipping {full} (no profile for extension)", file=err)
                        continue
                    out.append((full, config.lang_override or full))
        elif os.path.isfile(raw):
            out.append((raw, config.lang_override if config.lang_override else raw))
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return out


def analyze_file(
    path: str,
    lang: str,
    config: RunConfig,
    registry: Registry,
    err,
) -> tuple[list[Diagnostic], TokenStream, list]:
    profile = registry.resolve(lang)
    with open(path, encoding="utf-8", errors="replace") as fh:
        source = fh.read()
    stream = tokenize(source, profile, source_path=path)
    for lex_err in stream.errors:
        print(
            f"{path}:{lex_err.pos.line}:{lex_err.pos.column}: lex-warning: {lex_err.message}",
            file=err,
        )
    tokens = stream.tokens
    if config.line_range is not None:
        first, last = config.line_range
        tokens = [t for t in tokens if first <= t.pos.line <= last]
    stmts = parse_statements(tokens, profile)
    diags = run_checkers(stmts, profile, config.checkers, path=path)
    return diags, stream, stmts


def run(config: RunConfig, registry: Registry = DEFAULT_REGISTRY, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        if config.profile_file is not None:
            load_profile_file(config.profile_file, registry)
        files = _collect_files(config, registry, err)
        if config.line_range is not None:
            if len(files) != 1 or not os.path.isfile(config.paths[0]):
                raise BadRange("--line-range requires exactly one input file")
        all_diags: list[Diagnostic] = []
        unreadable = False
        for path, lang in files:
            try:
                diags, _stream, stmts = analyze_file(path, lang, config, registry, err)
            except OSError as exc:
                print(f"xcheck: error: {path}: {exc.strerror or exc}", file=err)
                unreadable = True
                continue
            if config.dump_ast:
                print(f"// AST {path}", file=out)
                tree = dump_statements(stmts)
                if tree:
                    print(tree, file=out)
            all_diags.extend(diags)
    except (FileNotFoundError, OSError, ProfileError, BadRange, ValueError) as exc:
        print(f"xcheck: error: {exc}", file=err)
        return 2
    all_diags = dedupe_and_sort(all_diags)
    if config.format == "json":
        print(render_json(all_diags), file=out)
    else:
        text = render_text(all_diags)
        if text:
            print(text, file=out)
    return 2 if unreadable else 1 if all_diags else 0


def main(argv: list[str] | None = None) -> int:
    config = parse_args(sys.argv[1:] if argv is None else argv)
    code = run(config)
    sys.exit(code)
