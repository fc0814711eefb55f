"""Per-language knowledge: operators, keywords, comment syntax, dereference
operators, and null literals.

Everything else in the analyzer is language-agnostic; adding a language is a
data change, not a code change.  The built-in C, C++ and Java profiles are
written below in the profile-file format that ``--profile`` loads, read by the
same ``_read_profile_text`` and validated once, by :meth:`Registry.register`.
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
    # A line that starts with this prefix after blanks (space, tab, CR, FF, VT)
    # is a directive, skipped to its end like a comment (a backslash before the
    # line end continues it); a prefix elsewhere is text. None: no directives.
    preprocessor_prefix: str | None = None


def validate_profile(profile: LanguageProfile) -> None:
    """Raise MalformedProfile when the profile's own invariants fail: every
    field immutable; ``name`` and ``stmt_terminator`` non-empty; ``operators``
    non-empty, with no empty operator, and holding every ``deref_ops`` entry;
    ``string_delims`` two single-character quotes and ``escape_char`` one
    character; ``block_comment`` an (opener, closer) pair, an empty opener
    meaning no block comments and any other needing a closer; ``punctuation``
    single characters; ``open_close_pairs`` non-empty tokens with distinct
    openers; each extension starting with '.'."""
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
    if len(profile.block_comment) != 2 or (profile.block_comment[0] and not profile.block_comment[1]):
        problems.append("block_comment must be an (opener, closer) pair, with a closer if it has an opener")
    longer = ", ".join(repr(p) for p in sorted(profile.punctuation) if len(p) != 1)
    if longer:
        problems.append(f"punctuation {longer} must be single characters (a longer symbol belongs in operators)")
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

    def resolve(self, name: str) -> LanguageProfile:
        """The profile registered under the language ``name``."""
        return self._lookup(self._by_name, name, name)

    def resolve_path(self, path: str) -> LanguageProfile:
        """The profile registered for ``path``'s file extension (case-insensitive)."""
        return self._lookup(self._by_ext, os.path.splitext(path)[1].lower(), path)

    def _lookup(self, table: dict[str, LanguageProfile], key: str, asked: str) -> LanguageProfile:
        if key in table:
            return table[key]
        known = ", ".join(sorted(self._by_name))
        raise UnknownLanguage(f"no profile for {asked!r} (registered: {known})")


# --------------------------------------------------------------------------
# Profile definition files
# --------------------------------------------------------------------------
#
# One language per file, `key = value` lines, `#` starts a comment line,
# list values are whitespace-separated.  The rows of `_KEYS` are the keys,
# each with its default written in this format; `name` and `operators` have
# none and are required.  `punctuation` lists single characters: a longer
# symbol is an operator.  An empty `block_comment` means no block comments.


def _set(value: str) -> frozenset[str]:
    return frozenset(value.split())


def _seq(value: str) -> tuple[str, ...]:
    return tuple(value.split())


def _pairs(value: str) -> tuple[tuple[str, str], ...]:
    words = value.split()
    if len(words) % 2:
        raise MalformedProfile("pairs needs an even number of tokens")
    return tuple(zip(words[::2], words[1::2]))


# key: (LanguageProfile field, default in the profile-file format or None for
# a required key, how the value's text becomes the field's value)
_KEYS = {
    "name": ("name", None, str),
    "extensions": ("file_extensions", "", _set),
    "line_comment": ("line_comment", "//", str),
    "block_comment": ("block_comment", "/* */", lambda value: _seq(value) or ("", "")),
    "string_delims": ("string_delims", "\" '", _seq),
    "escape": ("escape_char", "\\", str),
    "operators": ("operators", None, _set),
    "keywords": ("keywords", "", _set),
    "punctuation": ("punctuation", "( ) { } [ ] ; , : ?", _set),
    "stmt_terminator": ("stmt_terminator", ";", str),
    "deref_ops": ("deref_ops", "", _seq),
    "null_literals": ("null_literals", "", _set),
    "pairs": ("open_close_pairs", "( ) { } [ ]", _pairs),
    "preprocessor": ("preprocessor_prefix", "", lambda value: value or None),
}


def parse_profile_text(text: str) -> LanguageProfile:
    """Read a profile in the profile-file format and validate it."""
    profile = _read_profile_text(text)
    validate_profile(profile)
    return profile


def _read_profile_text(text: str) -> LanguageProfile:
    """A profile from the profile-file format, not validated (each caller validates once)."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MalformedProfile(f"profile file line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise MalformedProfile(f"profile file line {lineno}: key {key!r} is given twice")
        if key not in _KEYS:
            raise MalformedProfile(f"profile file line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    fields = {_KEYS[key][0]: _KEYS[key][2](value) for key, value in values.items()}
    for key, (field, default, read) in _KEYS.items():
        if key not in values:
            if default is None:
                raise MalformedProfile(f"profile file is missing required key {key!r}")
            fields[field] = read(default)
    return LanguageProfile(**fields)


# --------------------------------------------------------------------------
# Built-in profiles, in the profile-file format
# --------------------------------------------------------------------------

# C23 made "::" a punctuator, and ".h" headers of C++ code lex as C: "case Foo::Bar:" stays whole.
_C_TEXT = (
    "name = c\n"
    "extensions = .c .h\n"
    "operators = ... <<= >>= -> ++ -- << >> <= >= == != && || += -= *= /= %= &= ^= |="
    " + - * / % < > = ! & | ^ ~ . ::\n"
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


# The built-in C, C++ and Java profiles; a fresh registry that holds them is
# its copy, ``Registry(DEFAULT_REGISTRY)``.
DEFAULT_REGISTRY = Registry()
for _text in (_C_TEXT, _CPP_TEXT, _JAVA_TEXT):
    DEFAULT_REGISTRY.register(_read_profile_text(_text))
del _text


def profile_for(name_or_path: str) -> LanguageProfile:
    """A built-in profile by language name, else by the path's file extension."""
    try:
        return DEFAULT_REGISTRY.resolve(name_or_path)
    except UnknownLanguage:
        return DEFAULT_REGISTRY.resolve_path(name_or_path)


def load_profile_file(path: str, registry: Registry) -> LanguageProfile:
    """Parse a profile definition file and register it in ``registry``."""
    with open(path, encoding="utf-8") as fh:
        profile = _read_profile_text(fh.read().removeprefix("\ufeff"))
    registry.register(profile)
    return profile
