"""Per-language knowledge: operators, keywords, comment syntax, dereference
operators, and null literals.

Everything else in the analyzer is language-agnostic; adding a language is a
data change, not a code change.  The built-in C, C++ and Java profiles are
written below in the same profile-file format that ``--profile`` loads, and
are read by the same :func:`parse_profile_text`.
"""

from __future__ import annotations

import os
from typing import NamedTuple


class ProfileError(Exception):
    """Base class for profile registry problems."""


class UnknownLanguage(ProfileError):
    pass


class DuplicateName(ProfileError):
    pass


class MalformedProfile(ProfileError):
    pass


class LanguageProfile(NamedTuple):
    """One language's lexical and syntactic data: an immutable value that
    compares and hashes by value (a named tuple), so the lexer caches its
    compiled scanner by value.  Derive a variant with ``profile._replace()``."""

    name: str
    file_extensions: frozenset[str]
    line_comment: str
    block_comment: tuple[str, str]
    string_delims: tuple[str, str]  # (string quote, char quote)
    escape_char: str
    operators: frozenset[str]
    keywords: frozenset[str]
    punctuation: frozenset[str]
    stmt_terminator: str
    deref_ops: tuple[str, ...]
    null_literals: frozenset[str]
    open_close_pairs: tuple[tuple[str, str], ...]
    # Lines whose first non-blank text starts with this prefix are skipped
    # like comments (with backslash continuation). None disables the rule.
    preprocessor_prefix: str | None = None


def validate_profile(profile: LanguageProfile) -> None:
    """Raise MalformedProfile when the profile's own invariants fail."""
    try:
        hash(profile)  # the lexer caches its scanner by the profile's value
    except TypeError:
        raise MalformedProfile(f"profile {profile.name!r}: every field must be immutable") from None
    problems: list[str] = []
    if not profile.name:
        problems.append("name is empty")
    if not profile.operators:
        problems.append("operator set is empty")
    if any(not op for op in profile.operators):
        problems.append("operator set contains an empty string")
    if not set(profile.deref_ops) <= profile.operators:
        problems.append("deref_ops must be a subset of operators")
    if not profile.stmt_terminator:
        problems.append("stmt_terminator is empty")
    if len(profile.string_delims) != 2 or any(len(q) != 1 for q in profile.string_delims):
        problems.append("string_delims must be two single-character quotes")
    if len(profile.escape_char) != 1:
        problems.append("escape_char must be a single character")
    opens = [o for o, _ in profile.open_close_pairs]
    if len(set(opens)) != len(opens):
        problems.append("open_close_pairs has a duplicate opening token")
    if any(not o or not c for o, c in profile.open_close_pairs):
        problems.append("open_close_pairs contains an empty token")
    for ext in profile.file_extensions:
        if not ext.startswith("."):
            problems.append(f"extension {ext!r} must start with '.'")
    if problems:
        raise MalformedProfile(f"profile {profile.name!r}: " + "; ".join(problems))


class Registry:
    """Name/extension lookup for language profiles.

    Built once at startup; dynamic registration is supported only before
    analysis begins, after which reads are safe from any thread.
    """

    def __init__(self, base: Registry | None = None) -> None:
        self._by_name: dict[str, LanguageProfile] = dict(base._by_name) if base else {}
        self._by_ext: dict[str, LanguageProfile] = dict(base._by_ext) if base else {}

    def register(self, profile: LanguageProfile) -> None:
        validate_profile(profile)
        if profile.name in self._by_name:
            raise DuplicateName(f"language {profile.name!r} is already registered")
        for ext in profile.file_extensions:
            if ext.lower() in self._by_ext:
                raise DuplicateName(
                    f"extension {ext!r} is already claimed by {self._by_ext[ext.lower()].name!r}"
                )
        self._by_name[profile.name] = profile
        for ext in profile.file_extensions:
            self._by_ext[ext.lower()] = profile

    def resolve(self, name_or_path: str) -> LanguageProfile:
        """Explicit language name first, then registered file extension."""
        if name_or_path in self._by_name:
            return self._by_name[name_or_path]
        ext = os.path.splitext(name_or_path)[1].lower()
        if ext in self._by_ext:
            return self._by_ext[ext]
        known = ", ".join(sorted(self._by_name))
        raise UnknownLanguage(f"no profile for {name_or_path!r} (registered: {known})")

    def names(self) -> list[str]:
        return sorted(self._by_name)


# --------------------------------------------------------------------------
# Profile definition files
# --------------------------------------------------------------------------
#
# One language per file, `key = value` lines, `#` starts a comment line,
# list values are whitespace-separated.  Only `name` and `operators` are
# required; a key left out takes its default (C's comment, quote, escape,
# terminator, punctuation `( ) { } [ ] ; , : ?` and pairs, and otherwise
# nothing).  Example:
#
#     name = mini
#     extensions = .mini .mn
#     line_comment = //
#     block_comment = /* */
#     string_delims = " '
#     escape = \
#     operators = . == != < > = ! && ||
#     keywords = if else while for
#     punctuation = ( ) { } [ ] ; ,
#     stmt_terminator = ;
#     deref_ops = .
#     null_literals = nil
#     pairs = ( ) { } [ ]
#     preprocessor = #

_LIST_KEYS = {
    "extensions", "operators", "keywords", "punctuation",
    "deref_ops", "null_literals", "pairs", "block_comment", "string_delims",
}
_SCALAR_KEYS = {"name", "line_comment", "escape", "stmt_terminator", "preprocessor"}


def parse_profile_text(text: str) -> LanguageProfile:
    """Read a profile in the profile-file format and validate it."""
    profile = _read_profile_text(text)
    validate_profile(profile)
    return profile


def _read_profile_text(text: str) -> LanguageProfile:
    """A profile from the profile-file format, not validated (each caller validates once)."""
    values: dict[str, list[str] | str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MalformedProfile(f"profile file line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in values:
            raise MalformedProfile(f"profile file line {lineno}: key {key!r} is given twice")
        if key in _LIST_KEYS:
            values[key] = value.split()
        elif key in _SCALAR_KEYS:
            values[key] = value
        else:
            raise MalformedProfile(f"profile file line {lineno}: unknown key {key!r}")

    block = values.get("block_comment", ["/*", "*/"])
    if len(block) != 2:
        raise MalformedProfile("block_comment needs exactly two tokens (open close)")
    quotes = values.get("string_delims", ['"', "'"])
    if len(quotes) != 2:
        raise MalformedProfile("string_delims needs exactly two tokens (string char)")
    pair_tokens = values.get("pairs", ["(", ")", "{", "}", "[", "]"])
    if len(pair_tokens) % 2:
        raise MalformedProfile("pairs needs an even number of tokens")
    for key in ("name", "operators"):
        if key not in values:
            raise MalformedProfile(f"profile file is missing required key {key!r}")
    pairs = tuple(
        (pair_tokens[i], pair_tokens[i + 1]) for i in range(0, len(pair_tokens), 2)
    )
    return LanguageProfile(
        name=values["name"],
        file_extensions=frozenset(values.get("extensions", [])),
        line_comment=values.get("line_comment", "//"),
        block_comment=(block[0], block[1]),
        string_delims=(quotes[0], quotes[1]),
        escape_char=values.get("escape", "\\"),
        operators=frozenset(values["operators"]),
        keywords=frozenset(values.get("keywords", [])),
        punctuation=frozenset(values.get("punctuation", list("(){}[];,:?"))),
        stmt_terminator=values.get("stmt_terminator", ";"),
        deref_ops=tuple(values.get("deref_ops", [])),
        null_literals=frozenset(values.get("null_literals", [])),
        open_close_pairs=pairs,
        preprocessor_prefix=values.get("preprocessor") or None,  # type: ignore[arg-type]
    )


# --------------------------------------------------------------------------
# Built-in profiles, in the profile-file format
# --------------------------------------------------------------------------

_C_TEXT = (
    "name = c\n"
    "extensions = .c .h\n"
    "operators = ... <<= >>= -> ++ -- << >> <= >= == != && || += -= *= /= %= &= ^= |="
    " + - * / % < > = ! & | ^ ~ .\n"
    "keywords = auto break case char const continue default do double else enum extern"
    " float for goto if inline int long register restrict return short signed sizeof"
    " static struct switch typedef union unsigned void volatile while _Alignas _Alignof"
    " _Atomic _Bool _Complex _Generic _Imaginary _Noreturn _Static_assert _Thread_local\n"
    "deref_ops = -> .\n"
    "null_literals = NULL\n"
    "preprocessor = #\n"
)

_CPP_TEXT = (
    "name = cpp\n"
    "extensions = .cpp .cc .cxx .hpp .hh .hxx\n"
    "operators = ... <<= >>= -> ++ -- << >> <= >= == != && || += -= *= /= %= &= ^= |="
    " + - * / % < > = ! & | ^ ~ . :: ->* .*\n"
    "keywords = alignas alignof and and_eq asm auto bitand bitor bool break case catch"
    " char char16_t char32_t class compl const constexpr const_cast continue decltype"
    " default delete do double dynamic_cast else enum explicit export extern false float"
    " for friend goto if inline int long mutable namespace new noexcept not not_eq"
    " nullptr operator or or_eq private protected public register reinterpret_cast"
    " return short signed sizeof static static_assert static_cast struct switch template"
    " this thread_local throw true try typedef typeid typename union unsigned using"
    " virtual void volatile wchar_t while xor xor_eq\n"
    "deref_ops = -> .\n"
    "null_literals = NULL nullptr\n"
    "preprocessor = #\n"
)

_JAVA_TEXT = (
    "name = java\n"
    "extensions = .java\n"
    "operators = >>>= <<= >>= >>> ... -> :: ++ -- << >> <= >= == != && || += -= *= /= %="
    " &= ^= |= + - * / % < > = ! & | ^ ~ .\n"
    "keywords = abstract assert boolean break byte case catch char class const continue"
    " default do double else enum extends final finally float for goto if implements"
    " import instanceof int interface long native new package private protected public"
    " return short static strictfp super switch synchronized this throw throws transient"
    " try void volatile while true false null\n"
    "punctuation = ( ) { } [ ] ; , : ? @\n"
    "deref_ops = .\n"
    "null_literals = null\n"
)


def builtin_registry() -> Registry:
    """A fresh registry holding the built-in C, C++, and Java profiles."""
    registry = Registry()
    for text in (_C_TEXT, _CPP_TEXT, _JAVA_TEXT):
        registry.register(_read_profile_text(text))
    return registry


DEFAULT_REGISTRY = builtin_registry()


def profile_for(name_or_path: str, registry: Registry | None = None) -> LanguageProfile:
    return (registry or DEFAULT_REGISTRY).resolve(name_or_path)


def load_profile_file(path: str, registry: Registry | None = None) -> LanguageProfile:
    """Parse a profile definition file and register it."""
    with open(path, encoding="utf-8") as fh:
        profile = _read_profile_text(fh.read())
    (registry or DEFAULT_REGISTRY).register(profile)
    return profile
