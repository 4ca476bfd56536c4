from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifol import torus_covers
from seifol.foliation import decide_excellence, decide_horizontal
from seifol.seifert import SeifertInvariants, euler_number, h1_order, normalize, parse_seifert, reverse_orientation
from seifol.torus_covers import (
    CONSISTENT,
    NOT_COMPUTABLE,
    TorusCoverQuery,
    branched_invariants,
    brieskorn_invariants,
    classify_torus_cover,
    cross_validate,
    crosscheck_sweep,
    sweep_queries,
)
from torus_cover_oracle import ROUTES as ORACLE_ROUTES
from torus_cover_oracle import branched_invariants as oracle_invariants
from torus_cover_oracle import divisor_invariants, exception_label, four_fold_two_strand, special_table_raw

M = parse_seifert


class TestClassifier:
    @pytest.mark.parametrize(
        "n,p,q,excellent",
        [
            (2, 3, 5, False),
            (6, 2, 3, True),
            (2, 2, 7, False),
            (4, 2, 5, True),
            (2, 2, 11, False),
            (5, 2, 3, False),
            (6, 2, 5, True),
            (2, 3, 4, False),
            (3, 4, 3, True),
        ],
    )
    def test_examples(self, n, p, q, excellent):
        assert classify_torus_cover(TorusCoverQuery(n, p, q)).excellent == excellent

    def test_exception_labels(self):
        assert exception_label(TorusCoverQuery(2, 3, 5)) == "(v)"
        assert exception_label(TorusCoverQuery(2, 2, 9)) == "(iii)"
        assert exception_label(TorusCoverQuery(2, 4, 3)) == "(iv)"
        assert exception_label(TorusCoverQuery(4, 3, 2)) == "(i)"
        assert exception_label(TorusCoverQuery(6, 2, 3)) is None

    def test_matches_exception_table(self):
        # Milnor's inequality against the published list, both p/q orders
        checked = 0
        for n in range(2, 41):
            for p in range(2, 41):
                for q in range(2, 41):
                    if gcd(p, q) != 1:
                        continue
                    qr = TorusCoverQuery(n, p, q)
                    finite = exception_label(qr) is not None
                    verdict = classify_torus_cover(qr)
                    assert verdict.excellent != finite, (n, p, q)
                    assert verdict.reason == ("finite" if finite else "infinite") + "-fundamental-group"
                    checked += 1
        assert checked == 2 * 17550  # each unordered query in both orders

    def test_symmetric_in_p_q(self):
        for qr in sweep_queries(6, 6, 6):
            swapped = TorusCoverQuery(qr.n, qr.q, qr.p)
            assert classify_torus_cover(qr).excellent == classify_torus_cover(swapped).excellent

    def test_query_validation(self):
        with pytest.raises(ValueError):
            TorusCoverQuery(1, 2, 3)
        with pytest.raises(ValueError):
            TorusCoverQuery(2, 2, 4)
        with pytest.raises(ValueError):
            TorusCoverQuery(2, 1, 5)


class TestBranchedInvariants:
    def test_double_cover_of_three_five(self):
        r = branched_invariants(TorusCoverQuery(2, 3, 5))
        assert r.invariants == M("M(-2; 1/2, 2/3, 4/5)")

    def test_double_cover_of_two_five(self):
        r = branched_invariants(TorusCoverQuery(2, 2, 5))
        assert r.invariants == M("M(-1; 2/5, 2/5)")

    def test_triple_cover_of_three_two(self):
        r = branched_invariants(TorusCoverQuery(3, 3, 2))
        assert r.invariants == M("M(-2; 1/2, 1/2, 1/2)")

    def test_four_fold_of_two_five(self):
        r = branched_invariants(TorusCoverQuery(4, 2, 5))
        assert r.invariants == M("M(-1; 1/2, 1/5, 1/5)")

    def test_five_fold_of_two_three(self):
        r = branched_invariants(TorusCoverQuery(5, 2, 3))
        assert sorted(a for a, _ in r.invariants.fibers) == [2, 3, 5]
        assert euler_number(r.invariants) == Fraction(-1, 30)
        assert r.invariants == branched_invariants(TorusCoverQuery(2, 3, 5)).invariants

    def test_six_fold_of_two_three_unsupported(self):
        r = branched_invariants(TorusCoverQuery(6, 2, 3))
        assert not r.known

    def test_six_fold_of_three_five(self):
        # exponent 6 shares 3 with p: three copies of the fiber over 5
        r = branched_invariants(TorusCoverQuery(6, 3, 5))
        assert r.invariants == M("M(-3; 1/2, 4/5, 4/5, 4/5)")
        assert euler_number(r.invariants) == Fraction(-90, 30**2)
        assert h1_order(r.invariants).order == 25

    def test_matches_case_split_oracle(self):
        answered = unsupported = 0
        routes = set()
        for n in range(2, 22):
            for p in range(2, 22):
                for q in range(2, 22):
                    if gcd(p, q) != 1:
                        continue
                    qr = TorusCoverQuery(n, p, q)
                    r = branched_invariants(qr)
                    assert r.known == (gcd(n, p) == 1 or gcd(n, q) == 1), qr
                    unsupported += not r.known
                    expected = oracle_invariants(qr)
                    if expected.known:
                        answered += 1
                        routes.add(expected.route)
                        assert r.invariants == expected.invariants, qr
        # ordered (p, q) pairs count every unordered query twice
        assert (answered, unsupported) == (2 * 1494, 2 * 137)
        assert routes == set(ORACLE_ROUTES)

    def test_consistent_on_wide_sweep(self):
        report = crosscheck_sweep(21, 21, 21)
        assert report["inconsistencies"] == []
        assert report["queries"] == 2380
        assert report["computable"] == report["consistent"] == 2380 - 137

    def test_brieskorn_coprime_covers(self):
        for n in range(2, 14):
            for p in range(2, 14):
                for q in range(p + 1, 14):
                    if gcd(p, q) != 1 or gcd(n, p * q) != 1:
                        continue
                    r = branched_invariants(TorusCoverQuery(n, p, q))
                    assert euler_number(r.invariants) == Fraction(-1, p * q * n)
                    assert h1_order(r.invariants).order == 1

    def test_symmetry_in_p_q(self):
        for qr in sweep_queries(9, 9, 9):
            a = branched_invariants(qr)
            b = branched_invariants(TorusCoverQuery(qr.n, qr.q, qr.p))
            assert a.known == b.known
            if a.known:
                assert a.invariants == b.invariants

    @settings(max_examples=50)
    @given(st.integers(2, 60), st.integers(2, 60), st.integers(2, 60))
    def test_brieskorn_form_is_already_normal(self, a1, a2, a3):
        si = brieskorn_invariants(a1, a2, a3)
        assert normalize(si) is si

    def test_divisor_agrees_with_published_table(self):
        # both routes must give identical normalized invariants
        cases = [(3, 3, 2)] + [(2, 2, q) for q in (3, 5, 7, 9)] + [(2, 4, 3)]
        for n, p, q in cases:
            if p % n == 0:
                formula = normalize(divisor_invariants(n, p, q))
            else:
                formula = normalize(divisor_invariants(n, q, p))
            raw = special_table_raw(n, p, q)
            assert raw is not None
            assert normalize(raw) == formula
            assert branched_invariants(TorusCoverQuery(n, p, q)).invariants == formula

    def test_table_agrees_with_four_fold_formula(self):
        assert normalize(special_table_raw(4, 2, 3)) == normalize(four_fold_two_strand(3))
        assert branched_invariants(TorusCoverQuery(4, 2, 3)).invariants == normalize(four_fold_two_strand(3))

    def test_four_fold_subcase_fractions(self):
        # odd k: b = -1 and the repeated fiber equals (k-1)/(4k-2)
        for q in (5, 9, 13):
            k = (q + 1) // 2
            si = normalize(four_fold_two_strand(q))
            assert si.b == -1
            repeated = [Fraction(be, a) for a, be in si.fibers if a != 2]
            assert repeated == [Fraction(k - 1, 4 * k - 2)] * 2
        # even k: b = -2, and reversal carries fiber k/(4k-2)
        for q in (7, 11, 15):
            k = (q + 1) // 2
            si = normalize(four_fold_two_strand(q))
            assert si.b == -2
            rev = reverse_orientation(si)
            repeated = [Fraction(be, a) for a, be in rev.fibers if a != 2]
            assert repeated == [Fraction(k, 4 * k - 2)] * 2


class TestCrossValidation:
    @pytest.mark.parametrize("n,p,q", [(2, 3, 5), (4, 2, 7), (3, 3, 2)])
    def test_examples(self, n, p, q):
        assert cross_validate(TorusCoverQuery(n, p, q)).status == CONSISTENT

    def test_not_computable(self):
        check = cross_validate(TorusCoverQuery(6, 2, 3))
        assert check.status == NOT_COMPUTABLE
        assert check.verdict == classify_torus_cover(TorusCoverQuery(6, 2, 3))
        assert check.verdict.decision is None

    def test_sweep_consistency(self):
        report = crosscheck_sweep(9, 9, 9)
        assert report["inconsistencies"] == []
        assert report["computable"] == 146
        assert report["consistent"] == report["computable"]

    def test_sweep_classifies_each_query_once(self, monkeypatch):
        calls = []
        original = torus_covers.classify_torus_cover

        def counting(qr):
            calls.append(qr)
            return original(qr)

        monkeypatch.setattr(torus_covers, "classify_torus_cover", counting)
        report = crosscheck_sweep(9, 9, 9)
        assert report["queries"] == 152
        assert len(calls) == 152 and len(set(calls)) == 152

    def test_sweep_builds_at_most_two_forms_per_computable_query(self, monkeypatch):
        # an operation count, not a timing: the cover's form, and its
        # reversal when condition 3 is tried; nothing is normalized twice
        built = []
        post_init = SeifertInvariants.__post_init__

        def counting(si):
            built.append(si)
            post_init(si)

        monkeypatch.setattr(SeifertInvariants, "__post_init__", counting)
        report = crosscheck_sweep(9, 9, 9)
        assert report["computable"] == 146
        assert 0 < len(built) <= 2 * report["computable"]

    def test_four_fold_two_seven(self):
        r = branched_invariants(TorusCoverQuery(4, 2, 7))
        assert r.invariants == M("M(-2; 1/2, 5/7, 5/7)")
        assert decide_horizontal(r.invariants).horizontal
        assert decide_excellence(r.invariants).excellent
