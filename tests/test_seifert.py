import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifol.errors import NotationError
from seifol.foliation import decide_excellence
from seifol.seifert import (
    H1Order,
    SeifertInvariants,
    euler_number,
    format_seifert,
    h1_order,
    h1_order_snf,
    normalize,
    parse_seifert,
    reverse_orientation,
)

M = parse_seifert


def random_invariants(rng):
    fibers = []
    for _ in range(rng.randint(0, 5)):
        alpha = rng.randint(1, 20)
        if alpha == 1:
            fibers.append((1, rng.randint(-4, 4)))
            continue
        while True:
            beta = rng.randint(-40, 40)
            if beta != 0 and gcd(alpha, beta) == 1:
                break
        fibers.append((alpha, beta))
    return SeifertInvariants(rng.randint(-5, 5), tuple(fibers))


# any coprime pair (alpha, beta) with alpha >= 1, by reducing beta/alpha
fibers = st.tuples(st.integers(-60, 60), st.integers(1, 30)).map(lambda p: Fraction(*p))
forms = st.builds(
    SeifertInvariants,
    st.integers(-6, 6),
    st.lists(fibers.map(lambda x: (x.denominator, x.numerator)), max_size=6).map(tuple),
)


class TestAgainstFractionFormulas:
    """The integer Euler number, the one-step reversal and the early return
    of ``normalize``, each against the formula it replaced."""

    @settings(max_examples=50)
    @given(forms)
    def test_h1_order_is_abs_euler_times_product(self, si):
        e = si.b + sum(Fraction(beta, alpha) for alpha, beta in si.fibers)
        order = abs(e) * prod(alpha for alpha, _ in si.fibers)
        assert euler_number(si) == e
        assert h1_order(si) == (H1Order.finite(int(order)) if e else H1Order.infinite()) == h1_order_snf(si)

    @settings(max_examples=50)
    @given(forms)
    def test_normal_forms_are_kept_and_reversed_in_one_step(self, si):
        nsi = normalize(si)
        assert nsi.normalized and list(nsi.fibers) == sorted(nsi.fibers)
        assert normalize(nsi) is nsi
        negated = SeifertInvariants(-nsi.b, tuple((alpha, -beta) for alpha, beta in nsi.fibers))
        assert reverse_orientation(nsi) == normalize(negated)


class TestNormalize:
    def test_trefoil_style_absorption(self):
        assert normalize(M("M(1, -1/2, -1/3, -1/5)")) == M("M(-2; 1/2, 2/3, 4/5)")

    def test_identity_case(self):
        assert normalize(M("M(0)")) == M("M(0)")

    def test_double_cover_of_four_three(self):
        assert normalize(M("M(1/2, -1/3, -1/3)")) == M("M(-2; 1/2, 2/3, 2/3)")

    def test_idempotent_and_exact(self):
        rng = random.Random(11)
        for _ in range(1000):
            si = random_invariants(rng)
            nsi = normalize(si)
            assert nsi.normalized
            assert normalize(nsi) == nsi
            assert euler_number(nsi) == euler_number(si)
            assert h1_order(nsi) == h1_order(si)


class TestReverseOrientation:
    def test_normalized_form(self):
        assert reverse_orientation(M("M(-2; 1/2, 2/3, 4/5)")) == M("M(-1; 1/2, 1/3, 1/5)")

    def test_trivial(self):
        assert reverse_orientation(M("M(0)")) == M("M(0)")

    def test_four_fold_two_seven(self):
        assert reverse_orientation(M("M(-2; 1/2, 5/7, 5/7)")) == M("M(-1; 1/2, 2/7, 2/7)")

    def test_involution_and_euler_negation(self):
        rng = random.Random(12)
        for _ in range(500):
            si = normalize(random_invariants(rng))
            rev = reverse_orientation(si)
            assert reverse_orientation(rev) == si
            assert euler_number(rev) == -euler_number(si)


class TestEulerAndHomology:
    def test_poincare_sphere(self):
        si = M("M(-2; 1/2, 2/3, 4/5)")
        assert euler_number(si) == Fraction(-1, 30)
        assert h1_order(si) == H1Order.finite(1)

    def test_trivial(self):
        assert euler_number(M("M(0)")) == 0
        assert h1_order(M("M(0)")) == H1Order.infinite()

    def test_lens_like(self):
        si = M("M(-1; 2/5, 2/5)")
        assert euler_number(si) == Fraction(-1, 5)
        assert h1_order(si) == H1Order.finite(5)
        assert decide_excellence(si).reason == "lens-type"

    def test_closed_formula_matches_snf_oracle(self):
        rng = random.Random(13)
        for _ in range(500):
            si = random_invariants(rng)
            assert h1_order(si) == h1_order_snf(si)


class TestManyFibers:
    """The presentation-matrix order agrees with the closed formula far past
    the fiber counts at which the row-and-column Smith normal form kept in
    ``test_snf.py`` blows up: its entries grow exponentially with the
    number of fibers."""

    @pytest.mark.parametrize("b", [-1, 0])
    @pytest.mark.parametrize("f", [24, 40, 60])
    def test_unit_fractions(self, f, b):
        si = SeifertInvariants(b, tuple((a, 1) for a in range(2, f + 2)))
        assert h1_order_snf(si) == h1_order(si)

    def test_random_forms(self):
        rng = random.Random(41)
        for _ in range(20):
            fibers = []
            for _ in range(rng.randint(20, 60)):
                alpha = rng.randint(2, 500)
                beta = rng.choice([b for b in range(-alpha, alpha) if b and gcd(alpha, b) == 1])
                fibers.append((alpha, beta))
            si = SeifertInvariants(rng.randint(-3, 3), tuple(fibers))
            assert h1_order_snf(si) == h1_order(si)

    def test_zero_euler_number(self):
        si = SeifertInvariants(0, tuple((a, s) for a in range(2, 18) for s in (1, -1)))
        assert len(si.fibers) == 32 and euler_number(si) == 0
        assert h1_order_snf(si) == h1_order(si) == H1Order.infinite()


class TestNotation:
    @pytest.mark.parametrize(
        "text",
        ["M(0)", "M(-2; 1/2, 2/3, 4/5)", "M(3; -7/2)", "M(1; 4/1, 1/2)"],
    )
    def test_round_trip(self, text):
        si = parse_seifert(text)
        assert parse_seifert(format_seifert(si)) == si

    def test_whitespace_and_semicolon_insensitive(self):
        assert M("M( -1 ; 1/2 , 1/3 )") == M("M(-1,1/2,1/3)")

    def test_integer_fibers_accepted(self):
        # "k" entries in non-leading position are multiplicity-one fibers
        si = M("M(1/2, 2, -1/3)")
        assert si.fibers == ((2, 1), (1, 2), (3, -1))
        assert normalize(si) == normalize(M("M(2; 1/2, -1/3)"))

    @pytest.mark.parametrize("bad", ["M", "M()", "M(1/0)", "M(2/4)", "X(1)"])
    def test_rejects(self, bad):
        with pytest.raises(NotationError):
            parse_seifert(bad)

    @settings(max_examples=300)
    @given(
        st.lists(
            st.one_of(
                st.integers(-6, 6).map(str),
                st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(lambda t: f"{t[0]}/{t[1]}"),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_refusals_are_notation_errors(self, tokens):
        # the reader refuses every form the constructor would, so no bare
        # ValueError escapes: zero, negative and non-reduced tokens included
        text = "M(" + ", ".join(tokens) + ")"
        try:
            si = parse_seifert(text)
        except NotationError:
            return
        assert isinstance(si, SeifertInvariants)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SeifertInvariants(0, ((4, 2),))
        with pytest.raises(ValueError):
            SeifertInvariants(0, ((2, 0),))
        with pytest.raises(ValueError):
            SeifertInvariants(0, ((0, 1),))
