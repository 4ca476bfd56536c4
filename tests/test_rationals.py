import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seifol.errors import DegenerateExpansion, NoEvenExpansion, NotationError
from seifol.rationals import (
    CANONICAL_POSITIVE,
    EVEN_TERMS,
    ContinuedFraction,
    cf_eval,
    cf_expand,
    parse_continued_fraction,
    parse_fraction,
    parse_int,
    parse_rational,
    quoted_int,
)


@pytest.mark.parametrize(
    "terms,expected",
    [
        ((2, -2), Fraction(3, 2)),
        ((1, 1, 1), Fraction(3, 2)),
        ((5,), Fraction(5)),
        ((6, 3), Fraction(19, 3)),
    ],
)
def test_cf_eval_known_values(terms, expected):
    assert cf_eval(ContinuedFraction(terms)) == expected


def test_cf_eval_two_bridge_identities():
    # [2l, -2k] = (4kl - 1)/(2k) and equals [2l-1, 1, 2k-1]
    for k in range(1, 6):
        for l in range(1, 6):
            value = Fraction(4 * k * l - 1, 2 * k)
            assert cf_eval(ContinuedFraction((2 * l, -2 * k))) == value
            assert cf_eval(ContinuedFraction((2 * l - 1, 1, 2 * k - 1))) == value


def test_cf_eval_degenerate():
    # [2, 1, -1]: the tail [1, -1] evaluates to 0
    with pytest.raises(DegenerateExpansion):
        cf_eval(ContinuedFraction((2, 1, -1)))


def test_terms_must_be_nonzero_and_nonempty():
    with pytest.raises(ValueError):
        ContinuedFraction((2, 0, 3))
    with pytest.raises(ValueError):
        ContinuedFraction(())


def test_expand_canonical_examples():
    assert cf_expand(Fraction(5)).terms == (5,)
    assert cf_expand(Fraction(19, 3)).terms == (6, 3)
    assert cf_eval(cf_expand(Fraction(19, 3))) == Fraction(19, 3)


def test_expand_canonical_rejects_unit_interval():
    with pytest.raises(DegenerateExpansion):
        cf_expand(Fraction(1, 2), CANONICAL_POSITIVE)
    with pytest.raises(DegenerateExpansion):
        cf_expand(Fraction(0), CANONICAL_POSITIVE)


def test_expand_even_examples():
    assert cf_expand(Fraction(3, 2), EVEN_TERMS).terms == (2, -2)
    for k in range(1, 5):
        for l in range(1, 5):
            cf = cf_expand(Fraction(4 * k * l - 1, 2 * k), EVEN_TERMS)
            assert all(t % 2 == 0 for t in cf.terms)
            assert cf_eval(cf) == Fraction(4 * k * l - 1, 2 * k)


@pytest.mark.parametrize("value", [Fraction(3, 5), Fraction(1, 2), Fraction(0), Fraction(1)])
def test_expand_even_nonexistent(value):
    with pytest.raises(NoEvenExpansion):
        cf_expand(value, EVEN_TERMS)


@given(st.lists(st.integers(-9, 9).filter(lambda x: x != 0), min_size=1, max_size=6))
def test_round_trip_on_value(terms):
    cf = ContinuedFraction(tuple(terms))
    try:
        value = cf_eval(cf)
    except DegenerateExpansion:
        return
    even = all(t % 2 == 0 for t in terms)
    policy = EVEN_TERMS if even else CANONICAL_POSITIVE
    try:
        back = cf_expand(value, policy)
    except (DegenerateExpansion, NoEvenExpansion):
        # only possible when the value leaves the policy's domain
        assert -1 < value < 1 or (policy == EVEN_TERMS and value.denominator % 2 == 1)
        return
    assert cf_eval(back) == value
    if even:
        assert all(t % 2 == 0 for t in back.terms)


def test_field_axioms_random_sample():
    rng = random.Random(20240817)

    def rand():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 50))

    for _ in range(10_000):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + 0 == a and a * 1 == a
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1


def test_parsing():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_continued_fraction("[2,-2]").terms == (2, -2)
    assert str(ContinuedFraction((2, -2))) == "[2,-2]"


def test_number_reader_grammar_is_int():
    for text in ["7", "-7", "+7", " 7 ", "1_000", "007", "-0"]:
        assert parse_int(text) == int(text)
    assert parse_fraction("3/-4") == (3, -4)
    assert parse_fraction(" 1 / 0 ") == (1, 0)
    assert parse_fraction("+5") == (5, None)
    assert parse_rational("3/-4") == Fraction(-3, 4)


@pytest.mark.parametrize("text", ["", " ", "x", "1.5", "1__0", "_1", "1_", "--1", "1/2/3", "/2", "2/"])
def test_number_reader_refusals(text):
    with pytest.raises(NotationError):
        parse_fraction(text)


def test_quoted_int_cuts_past_forty_digits():
    # str() is the oracle below the interpreter's default limit of 4300 digits
    rng = random.Random(40)
    for digits in list(range(1, 90)) + [1000, 4000]:
        for n in (10 ** (digits - 1), 10**digits - 1, rng.randrange(10 ** (digits - 1), 10**digits)):
            text = str(n)
            head = text[:40] + ("..." if digits > 40 else "")
            assert (quoted_int(n), quoted_int(-n)) == (head, "-" + head), n
    assert quoted_int(0) == "0"
    # past the limit, where str() of the whole integer would raise
    assert quoted_int(-(10**5000) - 1) == "-1" + "0" * 39 + "..."
    assert quoted_int(2**20000) == "3980276840337966592354307206191202453704..."  # 6021 digits
