import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seifol.errors import FiberSlopeFilling
from seifol.foliation import decide_horizontal, has_witness
from seifol.link_surgery import (
    Slope,
    TorusLinkExterior,
    fill,
    ml_to_mf,
    negative_surgery_is_excellent,
    parse_slope,
)
from seifol.seifert import SeifertInvariants, h1_order, normalize, parse_seifert, reverse_orientation
from seifol.torus_covers import brieskorn_invariants

from helpers import base_fibers, reference_witness

M = parse_seifert


def valid_exteriors(d_max=4, rs_max=5):
    for d in range(1, d_max + 1):
        for r in range(1, rs_max + 1):
            for s in range(1, rs_max + 1):
                if gcd(r, s) != 1:
                    continue
                if d == 1 and (r < 2 or s < 2):
                    continue
                if r == 1 and s == 1 and d < 3:
                    continue
                yield TorusLinkExterior(d, r, s)


class TestBasisChange:
    def test_negative_integer_slope(self):
        assert ml_to_mf(Slope(-5, 1), 2, 3) == (-11, 1)

    def test_meridian_fixed(self):
        assert ml_to_mf(Slope(1, 0), 2, 3) == (1, 0)

    def test_longitude(self):
        assert ml_to_mf(Slope(0, 1), 2, 3) == (-6, 1)


class TestFill:
    def test_trefoil_exterior_minus_two(self):
        si = fill(TorusLinkExterior(1, 2, 3), [Slope(-2, 1)])
        assert si == M("M(-1; 1/2, 1/3, 1/8)")

    def test_two_component_unknotted_fibers(self):
        si = fill(TorusLinkExterior(2, 1, 2), [Slope(-2, 1), Slope(-2, 1)])
        assert si == M("M(-1; 1/2, 1/4, 1/4)")

    @pytest.mark.parametrize(
        "ext, slopes, form",
        [
            ((2, 3, 1), [(-2, 1), (-2, 1)], "M(-1; 2/3, 1/5, 1/5)"),
            ((3, 1, 1), [(-2, 1)] * 3, "M(-1; 1/3, 1/3, 1/3)"),
            ((2, 1, 3), [(5, 2), (-1, 1)], "M(1; 2/3, 1/4)"),
        ],
    )
    def test_unit_torus_parameter(self, ext, slopes, form):
        # r or s = 1 makes an ambient fiber regular; normalization drops it
        assert fill(TorusLinkExterior(*ext), [Slope(a, c) for a, c in slopes]) == M(form)

    def test_meridian_filling_gives_sphere(self):
        si = fill(TorusLinkExterior(1, 2, 3), [Slope(1, 0)])
        assert si == M("M(-1; 1/2, 1/3)")
        assert h1_order(si).order == 1

    def test_three_component_unlink_like(self):
        si = fill(TorusLinkExterior(3, 1, 1), [Slope(-2, 1)] * 3)
        assert si == M("M(-1; 1/3, 1/3, 1/3)")

    def test_fiber_slope_rejected(self):
        with pytest.raises(FiberSlopeFilling):
            fill(TorusLinkExterior(1, 2, 3), [Slope(6, 1)])

    def test_meridian_fill_lens_like(self):
        # filling every component along its meridian gives back S^3 = Sigma(r, s, 1),
        # on the link and on its mirror; the formula matches the hand-derived fibration
        fillings = 0
        for ext in valid_exteriors(d_max=4, rs_max=24):
            sphere = brieskorn_invariants(ext.r, ext.s, 1)
            assert sphere == normalize(SeifertInvariants(-1, base_fibers(ext.r, ext.s))), ext
            meridians = [Slope(1, 0)] * ext.d
            si = fill(ext, meridians)
            assert si == sphere and h1_order(si).order == 1, ext
            mirrored = fill(ext, meridians, mirror=True)
            assert mirrored == normalize(reverse_orientation(sphere)), ext
            assert h1_order(mirrored).order == 1, ext
            fillings += 2
        assert fillings == 2776

    def test_permutation_invariance(self):
        rng = random.Random(41)
        ext = TorusLinkExterior(3, 2, 5)
        for _ in range(50):
            slopes = []
            while len(slopes) < 3:
                a, c = rng.randint(-9, 9), rng.randint(0, 3)
                try:
                    sl = Slope(a, c)
                except ValueError:
                    continue
                if a - c * 10 != 0:
                    slopes.append(sl)
            reference = fill(ext, slopes)
            rng.shuffle(slopes)
            assert fill(ext, slopes) == reference

    def test_mirror_is_reversed_negated(self):
        ext = TorusLinkExterior(2, 2, 3)
        slopes = [Slope(5, 1), Slope(3, 1)]
        direct = fill(ext, [Slope(-5, 1), Slope(-3, 1)])
        assert fill(ext, slopes, mirror=True) == normalize(reverse_orientation(direct))

    @settings(max_examples=50)
    @given(
        st.sampled_from(list(valid_exteriors(d_max=3))),
        st.lists(st.tuples(st.integers(-40, 40), st.integers(-12, 12)), min_size=3, max_size=3),
    )
    def test_filled_fibers_match_fraction_reduction(self, ext, pairs):
        slopes = [Slope(a // gcd(a, c), c // gcd(a, c)) for a, c in pairs[: ext.d] if (a, c) != (0, 0)]
        assume(len(slopes) == ext.d)
        fibers = []
        for sl in slopes:
            am, c = ml_to_mf(sl, ext.r, ext.s)
            assume(am != 0)
            frac = Fraction(-c, am)
            fibers.append((frac.denominator, frac.numerator))
        expected = normalize(SeifertInvariants(-1, base_fibers(ext.r, ext.s) + tuple(fibers)))
        assert fill(ext, slopes) == expected

    def test_exterior_validation(self):
        with pytest.raises(ValueError):
            TorusLinkExterior(1, 1, 2)
        with pytest.raises(ValueError):
            TorusLinkExterior(2, 1, 1)
        with pytest.raises(ValueError):
            TorusLinkExterior(2, 2, 4)


class TestNegativeSurgeries:
    @pytest.mark.parametrize(
        "d,r,s,ks,m,a",
        [
            (1, 2, 3, (2,), 7, 3),
            (2, 1, 2, (2, 2), 3, 1),
            (3, 1, 1, (2, 2, 2), 2, 1),
        ],
    )
    def test_examples(self, d, r, s, ks, m, a):
        ext = TorusLinkExterior(d, r, s)
        assert negative_surgery_is_excellent(ext, ks).excellent
        si = fill(ext, [Slope(-k, 1) for k in ks])
        decision = decide_horizontal(si)
        assert decision.horizontal and decision.condition == 2
        assert has_witness(si, m, a)

    def test_sweep_all_excellent(self):
        # permutation invariance of fill makes multisets of coefficients enough
        cases = 0
        for ext in valid_exteriors():
            for ks in combinations_with_replacement(range(2, 6), ext.d):
                verdict = negative_surgery_is_excellent(ext, ks)
                assert verdict.excellent, (ext, ks, verdict)
                cases += 1
        assert cases >= 300

    def test_construction_witness_valid_when_r_s_at_least_two(self):
        for ext in valid_exteriors():
            if ext.r < 2 or ext.s < 2:
                continue
            m, a = reference_witness(ext.r, ext.s)
            for ks in combinations_with_replacement((2, 5), ext.d):
                si = fill(ext, [Slope(-k, 1) for k in ks])
                assert has_witness(si, m, a), (ext, ks)

    def test_coefficient_validation(self):
        with pytest.raises(ValueError):
            negative_surgery_is_excellent(TorusLinkExterior(1, 2, 3), [1])

    def test_double_cover_multislopes_on_mirror(self):
        # the doubled-knot decomposition fills the mirror of T(2,4) along
        # (n1-2, n2-2); excellence transfers across the orientation flip
        from seifol.foliation import decide_excellence

        ext = TorusLinkExterior(2, 1, 2)
        for n1 in range(4, 8):
            for n2 in range(4, 8):
                si = fill(ext, [Slope(n1 - 2, 1), Slope(n2 - 2, 1)], mirror=True)
                assert decide_excellence(si).excellent, (n1, n2)


def test_parse_slope():
    assert parse_slope("-2/1") == Slope(-2, 1)
    assert parse_slope("3") == Slope(3, 1)
    assert parse_slope("1/0") == Slope(1, 0)
