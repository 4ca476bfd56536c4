import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seifol.errors import DegenerateParameter, NotationError
from seifol.foliation import decide_horizontal
from seifol.gluing import (
    ALL_INTEGERS,
    SlopeMap,
    apply_slope_map,
    cable_family_check,
    cable_family_invariants,
    cable_gluing_matrix,
    compose_slope_maps,
    fixed_unit_fraction_slopes,
    get_cable_row,
    load_cable_rows,
    reduce_slope,
    whitehead_gluing_matrix,
)
from seifol.seifert import SeifertInvariants, normalize, parse_seifert, reverse_orientation

from helpers import cable_composition_factors, identity_map, swap_basis, whitehead_composition_factors

M = parse_seifert


def random_unimodular(rng, steps=8):
    f = identity_map()
    for _ in range(steps):
        k = rng.randint(-3, 3)
        f = f @ rng.choice([SlopeMap(1, k, 0, 1), SlopeMap(1, 0, k, 1), SlopeMap(0, 1, 1, 0)])
    return f


class TestSlopeMaps:
    def test_cable_identification_fixes_one_half(self):
        # the (1,2)-cable gluing sends the slope value x to 1 - x
        f = swap_basis(cable_gluing_matrix(1))
        assert apply_slope_map(f, (1, 2)) == (1, 2)

    def test_whitehead_image_of_unit_fractions(self):
        wh = whitehead_gluing_matrix()
        for k in range(-10, 11):
            assert apply_slope_map(wh, (1, k)) == reduce_slope((k - 2, 2 * k - 3))

    def test_identity(self):
        assert apply_slope_map(identity_map(), (3, 7)) == (3, 7)

    def test_composed_cable_matrix(self):
        for r in range(0, 6):
            composite = compose_slope_maps(cable_composition_factors(r))
            assert composite.rows == ((1, 0), (2 * r + 1, -1))

    def test_whitehead_composition(self):
        assert compose_slope_maps(whitehead_composition_factors()).rows == ((-2, 1), (-3, 2))

    def test_compose_identity(self):
        e = identity_map()
        assert compose_slope_maps([e, e]) == e

    def test_determinant_multiplicative_and_associative(self):
        rng = random.Random(51)
        for _ in range(200):
            a, b, c = (random_unimodular(rng) for _ in range(3))
            assert ((a @ b) @ c) == (a @ (b @ c))
            assert (a @ b).det == a.det * b.det

    def test_whitehead_attach_identity(self):
        # mu -> l = -2m + b, lambda -> m sends mu + n*lambda to (n-2)m + b
        into_clasp = whitehead_composition_factors()[0]
        for n in range(-10, 11):
            image = (
                into_clasp.m11 * 1 + into_clasp.m12 * n,
                into_clasp.m21 * 1 + into_clasp.m22 * n,
            )
            assert image == (n - 2, 1)

    def test_determinant_validation(self):
        with pytest.raises(ValueError):
            SlopeMap(2, 0, 0, 1)

    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
    def test_intersection_pairing_preserved(self, a, c, a2, c2):
        if (a, c) == (0, 0) or (a2, c2) == (0, 0):
            return
        f = SlopeMap(2, 1, 1, 1)  # any fixed unimodular map
        x1, y1 = f.m11 * a + f.m12 * c, f.m21 * a + f.m22 * c
        x2, y2 = f.m11 * a2 + f.m12 * c2, f.m21 * a2 + f.m22 * c2
        assert abs(x1 * y2 - y1 * x2) == abs(a * c2 - c * a2)

    def test_pairing_preserved_random_maps(self):
        rng = random.Random(52)
        for _ in range(1000):
            f = random_unimodular(rng)
            a, c = rng.randint(-20, 20), rng.randint(-20, 20)
            a2, c2 = rng.randint(-20, 20), rng.randint(-20, 20)
            x1, y1 = f.m11 * a + f.m12 * c, f.m21 * a + f.m22 * c
            x2, y2 = f.m11 * a2 + f.m12 * c2, f.m21 * a2 + f.m22 * c2
            assert abs(x1 * y2 - y1 * x2) == abs(a * c2 - c * a2)


class TestFixedUnitFractions:
    def brute_force(self, f, bound=1000):
        out = set()
        for k in range(-bound, bound + 1):
            a, c = f.m11 + f.m12 * k, f.m21 + f.m22 * k
            if a != 0 and c % a == 0:
                out.add(k)
        return out

    def test_whitehead(self):
        wh = whitehead_gluing_matrix()
        assert fixed_unit_fraction_slopes(wh) == frozenset({1, 3})
        assert apply_slope_map(wh, (1, 1)) == (1, 1)
        assert apply_slope_map(wh, (1, 3)) == (1, 3)

    def test_identity_all(self):
        assert fixed_unit_fraction_slopes(identity_map()) is ALL_INTEGERS
        assert 12345 in ALL_INTEGERS

    def test_cable_p2(self):
        f = swap_basis(cable_gluing_matrix(2))
        assert fixed_unit_fraction_slopes(f) == frozenset({0, 1})
        assert self.brute_force(f, 100) == {0, 1}

    def test_against_brute_force(self):
        rng = random.Random(53)
        for _ in range(20):
            f = random_unimodular(rng)
            fixed = fixed_unit_fraction_slopes(f)
            brute = self.brute_force(f)
            if fixed is ALL_INTEGERS:
                assert len(brute) == 2001
            else:
                assert brute == set(fixed)


class TestCableFamilies:
    def test_manifest_loads(self):
        rows = load_cable_rows()
        displayed = [r for r in rows.values() if not r.provisional]
        assert len(displayed) >= 14
        assert len(rows) == 22

    def test_unknown_label(self):
        with pytest.raises(NotationError):
            get_cable_row("nope")

    def test_manifest_field_goldens(self):
        row = get_cable_row("c235")
        assert row.cover == (2, 3, 5)
        assert row.count == 1 and row.b == 1
        assert row.base_fibers == ((2, -1), (5, -1))
        assert (row.num, row.den) == ((2, -3), (-6, 10))
        assert not row.reversed_ and row.k_max == 0 and not row.provisional
        row = get_cable_row("c323b")
        assert row.cover == (3, 2, 3) and row.count == 3
        assert row.base_fibers == () and row.b == 1
        assert (row.num, row.den) == ((-1, -2), (2, 3))
        row = get_cable_row("c523a")
        assert row.provisional and row.base_fibers == ((3, 2), (5, 4))

    def test_family_235_at_zero(self):
        row = get_cable_row("c235")
        assert cable_family_invariants(row, 0) == normalize(M("M(1, -1/2, -1/5, -3/10)"))

    def test_invariants_match_fraction_assembly(self):
        # the recipe fill_piece replaced: the fiber f(k) as a reduced
        # Fraction, assembled, normalized, and reversed where the row says so
        checked = 0
        for row in load_cable_rows().values():
            for k in range(-60, 11):
                num, den = row.num[0] * k + row.num[1], row.den[0] * k + row.den[1]
                expected = None
                if den != 0:
                    f = Fraction(num, den)
                    fibers = row.base_fibers + ((f.denominator, f.numerator),) * row.count
                    expected = normalize(SeifertInvariants(row.b, fibers))
                if expected is None or len(expected.fibers) < 3:
                    with pytest.raises(DegenerateParameter):
                        cable_family_invariants(row, k)
                    continue
                if row.reversed_:
                    expected = reverse_orientation(expected)
                assert cable_family_invariants(row, k) == expected, (row.label, k)
                checked += 1
        assert checked > 20 * 60

    def test_family_332_second_variant(self):
        row = get_cable_row("c332b")
        assert cable_family_invariants(row, -1) == M("M(-2; 1/2, 1/2, 1/2, 1/5)")

    def test_family_22q_first_variant(self):
        row = get_cable_row("c22q3a")
        assert cable_family_invariants(row, 0) == M("M(-1; 1/3, 1/3, 1/3)")

    @pytest.mark.parametrize(
        "label,k,expected",
        [
            ("c253", 0, "M(-2; 1/2, 2/3, 5/6)"),
            ("c325a", 0, "M(-2; 2/3, 4/5, 8/15)"),
            ("c325b", -3, "M(-2; 2/3, 2/3, 4/5)"),
            ("c243a", -2, "M(-2; 2/3, 2/3, 3/5)"),
            ("c243b", 0, "M(-2; 2/3, 2/3, 2/3)"),
            ("c332a", -2, "M(-2; 1/2, 1/2, 1/2, 1/4)"),
            ("c423a", -2, "M(-2; 1/2, 1/2, 2/3, 2/3)"),
            ("c423b", 0, "M(-2; 1/2, 2/3, 2/3, 1/6)"),
            ("c234", 0, "M(-2; 1/2, 3/4, 3/4)"),
            ("c432", 0, "M(-2; 1/2, 3/4, 3/4)"),
            ("c323a", 0, "M(-2; 2/3, 2/3, 2/3)"),
            ("c22q5a", 0, "M(-1; 1/5, 2/5, 2/5)"),
            ("c22q3b", -3, "M(-1; 1/3, 1/3, 1/3)"),
            ("c22q5b", -4, "M(-1; 1/3, 2/5, 2/5)"),
            ("c323b", -3, "M(-2; 2/3, 2/3, 2/3)"),
            ("c352", 0, "M(-2; 1/2, 2/3, 5/6)"),
            ("c523a", -2, "M(-2; 2/3, 3/5, 4/5)"),
            ("c523b", 0, "M(-2; 2/3, 4/5, 8/15)"),
            ("c532", 0, "M(-2; 1/2, 4/5, 7/10)"),
        ],
    )
    def test_family_goldens(self, label, k, expected):
        assert cable_family_invariants(get_cable_row(label), k) == M(expected)

    @pytest.mark.parametrize(
        "label,k_lo,k_hi",
        [("c235", -10, 0), ("c423a", -10, -2), ("c323a", -10, 0)],
    )
    def test_check_examples(self, label, k_lo, k_hi):
        report = cable_family_check(get_cable_row(label), k_lo, k_hi)
        assert report.ok
        assert len(report.checked) == k_hi - k_lo + 1

    def test_failures_are_k_values(self):
        # c235 widened past its manifest bound k <= 0 fails from k = 2 on
        report = cable_family_check(replace(get_cable_row("c235"), k_max=4), -1, 4)
        assert report.checked == (-1, 0, 1, 2, 3, 4)
        assert report.failures == (2, 3, 4) and not report.ok

    def test_all_rows_horizontal_on_window(self):
        for row in load_cable_rows().values():
            report = cable_family_check(row, -10, 10)
            assert report.ok, (row.label, report.failures)
            assert report.checked
            for k in report.checked:
                si = cable_family_invariants(row, k)
                assert decide_horizontal(si).horizontal

    def test_degenerate_parameter(self):
        # c243b at k = 1 has fiber 0/1, collapsing to two exceptional fibers
        with pytest.raises(DegenerateParameter):
            cable_family_invariants(get_cable_row("c243b"), 1)
