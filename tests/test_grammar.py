"""Round trips and error positions for the text grammar, and the reprs that
write it."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mirpath.algebra import (
    EMPTY_FOREST,
    FormalSum,
    Grading,
    enumerate_populated,
    forest_basis,
    prelie_graft,
)
from mirpath.grammar import (
    ParseError,
    format_forest,
    format_formal_sum,
    format_multi_index,
    parse_forest,
    parse_formal_sum,
    parse_multi_index,
)
from mirpath.group import GroupElement
from mirpath.translation import Character, coproduct_minus


def test_parse_factor_with_exponent():
    mi = parse_multi_index("z(1,0)z(1,1)^2")
    assert mi.entries == (((1, 0), 1), ((1, 1), 2))


def test_parse_one_is_empty():
    assert parse_forest("1") == EMPTY_FOREST
    assert parse_multi_index("1").is_empty


def test_parse_forest_with_repeated_component():
    f = parse_forest("z(1,0)*z(1,0)")
    assert f.cardinality() == 2
    assert f.components[0] == f.components[1]


def test_whitespace_ignored_everywhere():
    assert parse_forest(" z(1,0) * z(1,0) z(1,1) ") == parse_forest("z(1,0)*z(1,0)z(1,1)")
    assert parse_multi_index("z( 1 , 0 ) ^ 2") == parse_multi_index("z(1,0)^2")


def test_repeated_factor_accumulates():
    assert parse_multi_index("z(1,0)z(1,0)") == parse_multi_index("z(1,0)^2")


@pytest.mark.parametrize(
    "bad",
    ["z(1,0", "z(1)", "w(1,0)", "z(1,0)^", "z(1,0)*", "", "z(1,0)+z(1,1)", "2"],
)
def test_malformed_inputs_rejected(bad):
    with pytest.raises(ParseError):
        parse_forest(bad)


def test_zero_exponent_rejected_with_position():
    with pytest.raises(ParseError) as exc:
        parse_multi_index("z(1,0)^0")
    assert exc.value.position == 7


def test_negative_letter_rejected():
    with pytest.raises(ParseError):
        parse_multi_index("z(-1,0)")
    with pytest.raises(ParseError):
        parse_multi_index("z(1,-2)")


def test_letter_outside_declared_alphabet():
    with pytest.raises(ParseError):
        parse_multi_index("z(3,0)", d=2)


def test_format_is_canonical():
    # same multiset in two spellings, one canonical form
    s1 = format_forest(parse_forest("z(1,1)z(1,0)*z(0,0)"))
    s2 = format_forest(parse_forest("z(0,0)*z(1,0)z(1,1)"))
    assert s1 == s2
    assert s1 == "z(0,0)*z(1,0)z(1,1)"


@given(st.sampled_from(forest_basis(2, 4)))
def test_forest_round_trip(f):
    assert parse_forest(format_forest(f), d=2) == f


@given(st.sampled_from(enumerate_populated(2, 5)))
def test_multi_index_round_trip(mi):
    assert parse_multi_index(format_multi_index(mi), d=2) == mi


def test_formal_sum_round_trip_with_signs_and_rationals():
    text = "+(1/2) z(1,0)z(1,1) -(3) z(1,0)*z(1,0) +(2/7) 1"
    s = parse_formal_sum(text, d=1)
    assert format_formal_sum(s) == "+(2/7) 1 -(3) z(1,0)*z(1,0) +(1/2) z(1,0)z(1,1)"
    assert parse_formal_sum(format_formal_sum(s), d=1) == s


def test_formal_sum_zero():
    assert parse_formal_sum("0") == FormalSum.zero()
    assert format_formal_sum(FormalSum.zero()) == "0"


def test_formal_sum_merges_repeated_terms():
    s = parse_formal_sum("+(1/2) z(1,0) +(1/2) z(1,0)")
    assert format_formal_sum(s) == "+(1) z(1,0)"


def test_formal_sum_cancellation_drops_term():
    s = parse_formal_sum("+(1) z(1,0) -(1) z(1,0)")
    assert s == FormalSum.zero()


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("0 z(1,0)", "trailing input", 2),
        ("(1) z(1,0)", "expected '+' or '-' before a summand", 0),
        ("+(1/0) z(1,0)", "zero denominator", 4),
    ],
)
def test_malformed_formal_sum_names_its_position(text, message, position):
    with pytest.raises(ParseError) as exc:
        parse_formal_sum(text)
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


def test_trailing_input_after_a_multi_index_names_its_position():
    with pytest.raises(ParseError) as exc:
        parse_multi_index("z(1,0) 1")
    assert str(exc.value) == "trailing input (at position 7)"
    assert exc.value.position == 7


def _z(text):
    return parse_multi_index(text, d=1)


# the repr of each printed type writes its keys in the grammar
REPRS = {
    "graft": (  # the README quick-start line
        lambda: prelie_graft(_z("z(1,0)"), _z("z(1,0)")),
        "FormalSum('+(1) z(1,0)z(1,1)')",
    ),
    "coproduct": (  # keys are tensor pairs
        lambda: coproduct_minus(_z("z(0,0)z(1,1)")),
        "FormalSum('+(1) 1 ⊗ z(0,0)z(1,1) +(1) z(0,0) ⊗ z(0,0)z(1,1) "
        "+(1) z(0,0)*z(1,0) ⊗ z(0,0)z(0,1) +(1) z(0,0)z(1,1) ⊗ z(0,0)')",
    ),
    "forest": (
        lambda: parse_forest("z(1,0)*z(0,0)", d=1),
        "Forest('z(0,0)*z(1,0)')",
    ),
    "group-element": (
        lambda: GroupElement(1, Grading(2, Fraction(1, 2)), {_z("z(1,0)"): 0.5}),
        "GroupElement(d=1, Grading(max_norm=2, gamma=Fraction(1, 2)), "
        "values={MultiIndex('z(1,0)', d=1): 0.5})",
    ),
    "character": (
        lambda: Character(0, {_z("z(1,0)z(1,1)"): Fraction(1, 2), _z("z(0,0)"): 1}, d=1),
        "Character(direction=0, {z(0,0): 1, z(1,0)z(1,1): 1/2}, d=1)",
    ),
}


@pytest.mark.parametrize("build, text", REPRS.values(), ids=REPRS)
def test_repr_writes_the_grammar_form(build, text):
    assert repr(build()) == text
