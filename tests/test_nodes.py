"""Value semantics of the tree nodes.

Unlike the immutable records in ``test_records``, tree nodes are mutable
slotted objects: refinement's paren-strip widens a node's range of
``tokens`` after building it.  Only statements carry ``incomplete``, set when
the parser builds them; a ``Wildcard`` is ``Wildcard(tokens, span)``.
They compare equal only to a node of the same class with equal fields,
are not hashable, and print as ``Name(field=value, ...)`` in field order.
"""

from __future__ import annotations

import inspect
import random

import pytest

from support import TreeGen, parse_source, random_micro_program
from xcheck.lexer import Position, TokenStream, tokenize
from xcheck.microgrammar import (
    BODY,
    AccessPath,
    Assign,
    Atom,
    Block,
    Call,
    CaseArm,
    Compare,
    DoWhile,
    Expr,
    For,
    If,
    Logical,
    Not,
    Span,
    Switch,
    Update,
    While,
    Wildcard,
    WildcardStmt,
    parse_expression,
    walk_statements,
)
from xcheck.profiles import profile_for

# Every node class with its fields in constructor order.
FIELDS = {
    Wildcard: ("tokens", "span"),
    Compare: ("op", "lhs", "rhs", "tokens"),
    Logical: ("op", "lhs", "rhs", "tokens"),
    Not: ("operand", "tokens"),
    Update: ("op", "target", "tokens", "value", "prefix"),
    Assign: ("lhs", "rhs", "tokens"),
    Call: ("callee", "args", "tokens"),
    AccessPath: ("root", "steps", "tokens"),
    Atom: ("token", "tokens"),
    WildcardStmt: ("expr", "span", "incomplete"),
    Block: ("body", "span", "incomplete"),
    If: ("cond", "then_body", "elifs", "else_body", "span", "incomplete"),
    While: ("cond", "body", "span", "incomplete"),
    DoWhile: ("body", "cond", "span", "incomplete"),
    For: ("init", "cond", "update", "body", "header_span", "span", "incomplete"),
    CaseArm: ("label", "body", "span"),
    Switch: ("scrutinee", "cases", "span", "incomplete"),
}

# The refined expression classes: never empty, they read their span off
# their tokens instead of storing one.
REFINED = [Compare, Logical, Not, Update, Assign, Call, AccessPath, Atom]

# The trailing fields a constructor may leave out, with their defaults.
DEFAULTS = {cls: {"incomplete": False} for cls in FIELDS if "incomplete" in FIELDS[cls]}
DEFAULTS[Update] = {"value": None, "prefix": False}

# After its fields, an expression's constructor takes the range of ``tokens``
# the node covers, by default all of it.
RANGE = {"lo": 0, "hi": None}

# Pairs of classes whose constructors take the same positional values.
# Compare and Logical also have the same field names in the same order, so
# only the class tells them apart; WildcardStmt and Block differ in the name
# of their first field (expr, body), and Wildcard (tokens, span) fills only
# the first two of Block's fields and leaves incomplete at its default.
SAME_SHAPE = [(Compare, Logical), (WildcardStmt, Block), (Wildcard, Block)]


def _values(cls) -> list:
    return [f"{name}-value" for name in FIELDS[cls]]


def _build(cls):
    return cls(*_values(cls))


def _range(cls) -> list:
    """The constructor's arguments after the fields: an expression's range."""
    return list(RANGE.values()) if issubclass(cls, Expr) else []


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_repr_names_every_field_in_order(cls):
    inner = ", ".join(f"{name}={value!r}" for name, value in zip(FIELDS[cls], _values(cls)))
    assert repr(_build(cls)) == f"{cls.__name__}({inner})"


def test_repr_of_a_refined_tree():
    c = profile_for("c")
    tokens = tuple(tokenize("(p)", c).tokens)
    expr = parse_expression(Wildcard(tokens, Span(tokens[0].pos, Position(1, 4, 3))), c)
    assert repr(expr) == (
        "Atom(token=Token(IDENTIFIER, 'p', 1:2), tokens=(Token(PUNCTUATION, '(', 1:1), "
        "Token(IDENTIFIER, 'p', 1:2), Token(PUNCTUATION, ')', 1:3)))"
    )
    assert Span(expr.span.start, expr.span.end) == Span(Position(1, 1, 0), Position(1, 4, 3))
    tokens = tuple(tokenize("(a, b", c).tokens)
    expr = parse_expression(Wildcard(tokens, Span(tokens[0].pos, Position(1, 6, 5))), c)
    assert repr(expr) == (
        "Wildcard(tokens=(Token(PUNCTUATION, '(', 1:1), Token(IDENTIFIER, 'a', 1:2), "
        "Token(PUNCTUATION, ',', 1:3), Token(IDENTIFIER, 'b', 1:5)), "
        "span=Span(start=Position(line=1, column=1, offset=0), end=Position(line=1, column=6, offset=5)))"
    )


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_keyword_construction_matches_positional(cls):
    by_keyword = cls(**dict(zip(FIELDS[cls], _values(cls))))
    for name, value in zip(FIELDS[cls], _values(cls)):
        assert getattr(by_keyword, name) == value
    assert by_keyword == _build(cls)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_trailing_fields_take_their_defaults(cls):
    defaults = DEFAULTS.get(cls, {})
    required = [n for n in FIELDS[cls] if n not in defaults]
    assert list(FIELDS[cls][: len(required)]) == required
    node = cls(*_values(cls)[: len(required)])
    for name, value in defaults.items():
        assert getattr(node, name) is value
    with pytest.raises(TypeError):
        cls(*_values(cls)[: len(required) - 1])
    with pytest.raises(TypeError):
        cls(*_values(cls), *_range(cls), "one too many")


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_equal_by_class_and_every_field(cls):
    node = _build(cls)
    assert node == _build(cls) and not node != _build(cls)
    for i, name in enumerate(FIELDS[cls]):
        values = _values(cls)
        values[i] = "other"
        changed = cls(*values)
        assert node != changed and not node == changed, name
    assert node != tuple(_values(cls))


@pytest.mark.parametrize("first, second", SAME_SHAPE, ids=lambda c: c.__name__)
def test_same_field_values_in_another_class_are_unequal(first, second):
    values = [f"v{i}" for i in range(len(FIELDS[first]))]
    a, b = first(*values), second(*values)
    assert a != b and b != a
    assert not a == b


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_nodes_are_not_hashable(cls):
    with pytest.raises(TypeError):
        hash(_build(cls))


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_fields_are_assignable_and_no_others_exist(cls):
    node = _build(cls)
    for name in FIELDS[cls]:
        setattr(node, name, "new")
        assert getattr(node, name) == "new"
    with pytest.raises(AttributeError):
        node.not_a_field = 1  # slotted: no per-node dict


@pytest.mark.parametrize("cls", REFINED, ids=lambda c: c.__name__)
def test_refined_span_is_derived_from_tokens_and_read_only(cls):
    c = profile_for("c")
    node = cls(*_values(cls))
    node.tokens = tuple(tokenize('a\n"x\\\nyz"', c).tokens)  # the last token spans a line break
    assert Span(node.span.start, node.span.end) == Span(Position(1, 1, 0), Position(3, 4, 9))
    with pytest.raises(AttributeError):
        node.span = node.span


@pytest.mark.parametrize("cls", [c for c in FIELDS if "incomplete" in FIELDS[c]], ids=lambda c: c.__name__)
def test_incomplete_can_be_set_after_construction(cls):
    node = cls(*_values(cls)[:-1])
    assert node.incomplete is False
    node.incomplete = True
    assert node.incomplete is True
    assert node != cls(*_values(cls)[:-1])


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_constructor_takes_the_fields_in_order_with_only_the_declared_defaults(cls):
    params = inspect.signature(cls).parameters
    expected = RANGE if issubclass(cls, Expr) else {}
    assert tuple(params) == FIELDS[cls] + tuple(expected)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
    defaults = {name: p.default for name, p in params.items() if p.default is not p.empty}
    assert defaults == {**DEFAULTS.get(cls, {}), **expected}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_constructor_rejects_a_wrong_argument_list(cls):
    values = _values(cls)
    required = len(FIELDS[cls]) - len(DEFAULTS.get(cls, {}))
    for args, kwargs in [
        (values[: required - 1], {}),
        (values + _range(cls) + ["one too many"], {}),
        (values, {"not_a_field": 1}),
        (values, {FIELDS[cls][0]: values[0]}),  # a field given twice
    ]:
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\)"):
            cls(*args, **kwargs)


def test_token_stream_defaults_to_no_errors_and_the_input_path():
    stream = TokenStream([])
    assert stream.errors == () and stream.source_path == "<input>"
    assert stream == TokenStream([], "<input>", ())


def _expression_fields(expr: Expr) -> list[Expr]:
    """The reference for ``children()``: the expression-valued fields found
    through ``__slots__``, in slot order, tuple fields flattened and ``None``
    skipped."""
    found = []
    for name in type(expr).__slots__:
        value = getattr(expr, name)
        found += [v for v in (value if isinstance(value, tuple) else (value,)) if isinstance(v, Expr)]
    return found


def test_children_are_every_expression_field_in_slot_order():
    rng = random.Random(1818)
    roots = [TreeGen(seed).expr(3) for seed in range(200)]
    for _ in range(200):
        for stmt in walk_statements(parse_source(random_micro_program(rng))):
            roots += [part for role, part in stmt.parts() if role is not BODY and part is not None]
    seen = set()
    todo = roots
    while todo:
        expr = todo.pop()
        seen.add(type(expr))
        fields = _expression_fields(expr)  # walked by the reference, not by children()
        assert list(expr.children()) == fields, expr
        todo += fields
    assert seen == set(Expr.__subclasses__())
