from fractions import Fraction

import pytest

from cycledec.ratio import (
    BACKEND,
    Rat,
    parse_rat,
    rat_decimal,
    rat_str,
    to_rat,
)


def test_backend_is_fractions():
    assert BACKEND == "fractions" and Rat is Fraction


def test_parse_and_format_round_trip():
    for text in ("3/4", "-3/4", "0/1", "17/1"):
        assert rat_str(parse_rat(text)) == text


def test_parse_bare_integer():
    assert parse_rat("-5") == Rat(-5)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rat("1/2/3")
    with pytest.raises(ValueError):
        parse_rat("1/-2")


def test_to_rat_rejects_floats():
    with pytest.raises(TypeError):
        to_rat(0.5)


def test_to_rat_returns_rationals_unchanged():
    q = Rat(-7, 3)
    assert to_rat(q) is q
    assert type(to_rat(5)) is Rat and to_rat(5) == 5
    assert to_rat("-7/3") == q


def test_normalization():
    q = Rat(6, 4)
    assert (q.numerator, q.denominator) == (3, 2)


def test_rat_decimal_rounding():
    assert rat_decimal(Rat(1, 3), 3) == "0.333"
    assert rat_decimal(Rat(-7, 3), 4) == "-2.3333"
    assert rat_decimal(Rat(999, 1000), 2) == "1.00"
    assert rat_decimal(Rat(1, 8), 1) == "0.1"
    assert rat_decimal(Rat(-1, 1000), 2) == "0.00"
    assert rat_decimal(Rat(5, 2), 0) == "3"
