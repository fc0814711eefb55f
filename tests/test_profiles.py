"""Registry behavior and the per-language data deltas."""


import pytest

from support import C, CPP, JAVA
from xcheck.profiles import (
    DuplicateName,
    LanguageProfile,
    MalformedProfile,
    Registry,
    UnknownLanguage,
    builtin_registry,
    parse_profile_text,
    profile_for,
)

MINI_PROFILE_TEXT = """\
# toy language for registry tests
name = mini
extensions = .mini .mn
line_comment = //
operators = . == != < > = ! && || ++ --
keywords = if else while for do switch case default
deref_ops = .
null_literals = nil
stmt_terminator = ;
"""


def test_profile_for_by_name():
    assert profile_for("java").name == "java"
    assert profile_for("cpp").name == "cpp"


def test_profile_for_by_path_extension():
    assert profile_for("src/object.c").name == "c"
    assert profile_for("deep/dir/Thing.java").name == "java"
    assert profile_for("x.CC".lower()).name == "cpp"


def test_header_files_default_to_c():
    assert profile_for("include/foo.h").name == "c"


@pytest.mark.parametrize(
    "path,name",
    [
        ("a.c", "c"), ("a.h", "c"),
        ("a.cpp", "cpp"), ("a.cc", "cpp"), ("a.cxx", "cpp"),
        ("a.hpp", "cpp"), ("a.hh", "cpp"), ("a.hxx", "cpp"),
        ("a.java", "java"),
        ("LEGACY.HPP", "cpp"),
    ],
)
def test_builtin_extension_map(path, name):
    assert profile_for(path).name == name


def test_java_has_no_preprocessor_and_at_is_punctuation():
    assert JAVA.preprocessor_prefix is None
    assert "@" in JAVA.punctuation
    assert C.preprocessor_prefix == CPP.preprocessor_prefix == "#"


def test_unknown_language_lists_known_names():
    with pytest.raises(UnknownLanguage) as exc:
        profile_for("file.xyz")
    assert "c" in str(exc.value) and "java" in str(exc.value)


def test_name_takes_precedence_over_extension():
    registry = builtin_registry()
    # "c" resolves as a name even though it has no dot at all
    assert registry.resolve("c").name == "c"


def test_register_and_resolve_round_trip():
    registry = builtin_registry()
    mini = parse_profile_text(MINI_PROFILE_TEXT)
    registry.register(mini)
    assert registry.resolve("mini") is mini
    assert registry.resolve("game.mn") is mini


def test_register_duplicate_name_rejected():
    registry = builtin_registry()
    with pytest.raises(DuplicateName):
        registry.register(C)


def test_register_extension_differing_only_in_case_rejected():
    registry = builtin_registry()
    upper_c = C._replace(name="upper-c", file_extensions=frozenset({".C"}))
    with pytest.raises(DuplicateName):
        registry.register(upper_c)
    assert registry.resolve("x.c") is registry.resolve("c")


def test_register_empty_operator_set_rejected():
    registry = Registry()
    with pytest.raises(MalformedProfile):
        registry.register(
            LanguageProfile(
                name="broken",
                file_extensions=frozenset(),
                line_comment="//",
                block_comment=("/*", "*/"),
                string_delims=('"', "'"),
                escape_char="\\",
                operators=frozenset(),
                keywords=frozenset(),
                punctuation=frozenset(),
                stmt_terminator=";",
                deref_ops=(),
                null_literals=frozenset(),
                open_close_pairs=(("(", ")"),),
            )
        )


def test_register_profile_with_a_mutable_field_rejected():
    with pytest.raises(MalformedProfile, match="must be immutable"):
        Registry().register(C._replace(operators=set(C.operators)))
    with pytest.raises(MalformedProfile, match="must be immutable"):
        Registry().register(C._replace(deref_ops=list(C.deref_ops)))


def test_deref_ops_must_be_operators():
    with pytest.raises(MalformedProfile):
        parse_profile_text(MINI_PROFILE_TEXT.replace("deref_ops = .", "deref_ops = =>"))


@pytest.mark.parametrize(
    "old, new",
    [
        ("name = mini", "name ="),
        ("operators = . == != < > = ! && || ++ --", "operators ="),
        ("extensions = .mini .mn", "extensions = mini .mn"),
        ("stmt_terminator = ;", "stmt_terminator = ;\nescape = ab\npairs = ( ) ( ]"),
    ],
)
def test_parse_profile_text_alone_rejects_an_invalid_profile(old, new):
    # Each text parses into a profile; only its validation finds the fault.
    with pytest.raises(MalformedProfile, match=r"^profile '"):
        parse_profile_text(MINI_PROFILE_TEXT.replace(old, new))


def test_unknown_profile_key_rejected():
    with pytest.raises(MalformedProfile):
        parse_profile_text(MINI_PROFILE_TEXT + "color = blue\n")


def test_repeated_profile_key_rejected_with_its_line():
    text = "name = t\noperators = . = ==\n# a list split over two lines\noperators = + -\n"
    with pytest.raises(MalformedProfile, match=r"line 4: key 'operators' is given twice"):
        parse_profile_text(text)
    with pytest.raises(MalformedProfile, match="'name'"):
        parse_profile_text(MINI_PROFILE_TEXT + "name = other\n")


WITHOUT_NAME = MINI_PROFILE_TEXT.replace("name = mini\n", "")


@pytest.mark.parametrize(
    "text, message",
    [
        (WITHOUT_NAME, "profile file is missing required key 'name'"),
        (MINI_PROFILE_TEXT.replace("operators =", "#"), "profile file is missing required key 'operators'"),
        ("extensions = .t\n", "profile file is missing required key 'name'"),  # name is checked first
        (WITHOUT_NAME + "pairs = ( ) [\n", "pairs needs an even number of tokens"),  # after the shape checks
    ],
)
def test_a_missing_required_key_is_named(text, message):
    with pytest.raises(MalformedProfile) as err:
        parse_profile_text(text)
    assert str(err.value) == message

def test_any_line_starting_with_hash_is_a_comment():
    text = "#\n#x = 1\n  #no space after the hash\n" + MINI_PROFILE_TEXT
    assert parse_profile_text(text) == parse_profile_text(MINI_PROFILE_TEXT)


def test_builtin_language_deltas():
    # C vs C++: null literal spelling differs
    assert C.null_literals != CPP.null_literals
    assert "nullptr" in CPP.null_literals and "nullptr" not in C.null_literals
    # C++ vs Java: dereference operators and keyword sets differ
    assert CPP.deref_ops != JAVA.deref_ops
    assert "->" in CPP.deref_ops and "->" not in JAVA.deref_ops
    assert CPP.keywords != JAVA.keywords


def test_builtin_invariants():
    for profile in (C, CPP, JAVA):
        assert set(profile.deref_ops) <= profile.operators
        assert profile.stmt_terminator == ";"
        assert dict(profile.open_close_pairs) == {"(": ")", "{": "}", "[": "]"}


def test_profile_file_loading(tmp_path):
    path = tmp_path / "mini.profile"
    path.write_text(MINI_PROFILE_TEXT)
    registry = builtin_registry()
    from xcheck.profiles import load_profile_file

    mini = load_profile_file(str(path), registry)
    assert registry.resolve("mini") is mini
    assert mini.null_literals == frozenset({"nil"})
    assert mini.preprocessor_prefix is None
