"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a failing assertion marks the corresponding criterion as failed.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd

from seifol.foliation import decide_horizontal, has_witness, witness_search
from seifol.gluing import (
    cable_family_check,
    compose_slope_maps,
    fixed_unit_fraction_slopes,
    load_cable_rows,
    whitehead_gluing_matrix,
)
from seifol.link_surgery import Slope, TorusLinkExterior, fill, negative_surgery_is_excellent
from seifol.presentations import (
    coarse_obstruction,
    present_pretzel_cover,
    present_two_bridge_cover,
    pretzel_exterior_relators,
)
from seifol.seifert import (
    SeifertInvariants,
    euler_number,
    h1_order,
    h1_order_snf,
    normalize,
    parse_seifert,
    reverse_orientation,
)
from seifol.torus_covers import (
    TorusCoverQuery,
    branched_invariants,
    classify_torus_cover,
    crosscheck_sweep,
    sweep_queries,
)
from seifol.words import free_reduce
from helpers import cable_composition_factors, reference_witness, sign_profile, whitehead_composition_factors
from torus_cover_oracle import divisor_invariants, special_table_raw

M = parse_seifert


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_classifier_reproduction_sweep():
    start = time.perf_counter()
    rep = crosscheck_sweep(9, 9, 9)
    elapsed = time.perf_counter() - start
    assert rep["inconsistencies"] == [], rep["inconsistencies"]
    assert rep["computable"] == 146
    assert rep["consistent"] == rep["computable"]
    assert elapsed < 5.0, f"sweep took {elapsed:.2f}s"
    report(1, f"{rep['computable']} computable covers all consistent in {elapsed:.2f}s")


def test_criterion_02_exception_list_exactness():
    listed = (
        {(n, 2, 3) for n in range(2, 6)}
        | {(n, 2, 5) for n in range(2, 4)}
        | {(2, 2, 7), (2, 2, 9), (2, 2, 11), (2, 3, 4), (2, 3, 5)}
    )
    assert len(listed) == 11
    in_sweep = {t for t in listed if t[2] <= 9}
    found = {
        (qr.n, qr.p, qr.q)
        for qr in sweep_queries(9, 9, 9)
        if not classify_torus_cover(qr).excellent
    }
    assert found == in_sweep, found.symmetric_difference(in_sweep)
    # the eleventh listed query lies outside the 9/9/9 sweep window
    for n, p, q in listed:
        assert not classify_torus_cover(TorusCoverQuery(n, p, q)).excellent
    report(2, f"classifier exceptions = listed set ({len(in_sweep)} in sweep + (2,2,11))")


def test_criterion_03_poincare_check():
    r = branched_invariants(TorusCoverQuery(2, 3, 5))
    si = r.invariants
    assert si == M("M(-2; 1/2, 2/3, 4/5)")
    assert euler_number(si) == Fraction(-1, 30)
    assert h1_order(si).order == 1
    decision = decide_horizontal(si)
    assert not decision.horizontal and decision.condition is None
    # the exhaustive search bound here is max alpha = 5, on both orientations
    assert max(a for a, _ in si.fibers) == 5
    assert witness_search(reverse_orientation(si).fibers, m_max=5) is None
    report(3, "double cover of (3,5): M(-2; 1/2, 2/3, 4/5), e = -1/30, |H1| = 1, no foliation")


def test_criterion_04_torus_link_surgery_sweep():
    start = time.perf_counter()
    cases = 0
    for d in range(1, 5):
        for r in range(1, 6):
            for s in range(1, 6):
                if gcd(r, s) != 1:
                    continue
                if d == 1 and (r < 2 or s < 2):
                    continue
                if r == 1 and s == 1 and d < 3:
                    continue
                ext = TorusLinkExterior(d, r, s)
                # fill is permutation invariant (tested separately), so
                # multisets of coefficients cover the full product sweep
                for ks in combinations_with_replacement(range(2, 6), d):
                    verdict = negative_surgery_is_excellent(ext, ks)
                    assert verdict.excellent, (d, r, s, ks, verdict)
                    cases += 1
                    if r >= 2 and s >= 2:
                        m, a = reference_witness(r, s)
                        si = fill(ext, tuple(Slope(-k, 1) for k in ks))
                        assert has_witness(si, m, a), (d, r, s, ks)
    elapsed = time.perf_counter() - start
    assert cases >= 300
    assert elapsed < 10.0, f"surgery sweep took {elapsed:.2f}s"
    report(4, f"{cases} negative surgeries all excellent in {elapsed:.2f}s")


def test_criterion_05_divisor_table_agreement():
    cases = [(3, 3, 2)] + [(2, 2, q) for q in (3, 5, 7, 9)] + [(2, 4, 3)]
    for n, p, q in cases:
        formula = (
            divisor_invariants(n, p, q) if p % n == 0 else divisor_invariants(n, q, p)
        )
        raw = special_table_raw(n, p, q)
        assert raw is not None, (n, p, q)
        assert normalize(raw) == normalize(formula), (n, p, q)
        assert branched_invariants(TorusCoverQuery(n, p, q)).invariants == normalize(formula), (n, p, q)
    report(5, f"divisor formula and Neumann-Raymond match the published forms on {len(cases)} covers")


def test_criterion_06_cable_families():
    rows = load_cable_rows()
    displayed = [row for row in rows.values() if not row.provisional]
    assert len(displayed) >= 14
    failures = []
    for row in displayed:
        rep = cable_family_check(row, -10, row.k_max)
        if not rep.ok:
            failures.append((row.label, rep.failures))
        assert rep.checked
    assert failures == []
    report(6, f"{len(displayed)} displayed rows horizontal over k <= case bound (0 failures)")


def test_criterion_07_gluing_calculus():
    for r in range(0, 6):
        composite = compose_slope_maps(cable_composition_factors(r))
        assert composite.rows == ((1, 0), (2 * r + 1, -1)), r
    assert compose_slope_maps(whitehead_composition_factors()).rows == ((-2, 1), (-3, 2))
    assert fixed_unit_fraction_slopes(whitehead_gluing_matrix()) == frozenset({1, 3})
    report(7, "cable composites for r in 0..5, doubling composition, fixed slopes {1, 3}")


def test_criterion_08_sign_tables():
    expected_first = {0: "+-o-+o", 1: "o+-o-+", 2: "-o++o-"}
    expected_second = {0: "+-o+-o", 1: "o+-o+-", 2: "-o+-o+"}
    pres = present_pretzel_cover(2, 3, 1)
    symbols = {"+": "+", "-": "-", "absent": "o", "mixed": "!"}
    cells = 0
    for i in range(3):
        for table, rel in ((expected_first, pres.relators[i]), (expected_second, pres.relators[3 + i])):
            prof = sign_profile(rel, pres.generators)
            row = "".join(symbols[prof[g]] for g in pres.generators)
            assert row == table[i], (i, row, table[i])
            cells += len(row)
    assert cells == 36
    report(8, "36 sign-table cells match")


def test_criterion_09_obstruction_results():
    start = time.perf_counter()
    for k, l, m in product(range(1, 4), repeat=3):
        assert coarse_obstruction(present_pretzel_cover(k, l, m)).obstructed, (k, l, m)
    base = ("+", "+", "-", "-")
    orbit = set()
    for r in range(4):
        rotated = base[r:] + base[:r]
        orbit.add(rotated)
        orbit.add(tuple("-" if s == "+" else "+" for s in rotated))
    for k, l in product(range(1, 4), repeat=2):
        rep = coarse_obstruction(present_two_bridge_cover(k, l, 4))
        assert not rep.obstructed
        assert set(rep.survivors) == orbit, (k, l)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"obstruction runs took {elapsed:.2f}s"
    report(
        9,
        f"27 pretzel covers obstructed; two-bridge survivors = the "
        f"{len(orbit)}-element orbit of (+,+,-,-) in {elapsed:.2f}s",
    )


def test_criterion_10_free_triviality():
    for k, l, m in product(range(1, 4), repeat=3):
        r1, r2, r3 = pretzel_exterior_relators(k, l, m)
        assert not free_reduce(r1 * r2 * r3), (k, l, m)
    report(10, "relator product freely trivial for all 27 parameter triples")


def test_criterion_11_property_suites_aggregate():
    # The full invariant suites live in the per-module tests; this re-runs a
    # representative sample of each non-desk-reproducible substitute.
    rng = random.Random(99)

    def random_invariants():
        fibers = []
        for _ in range(rng.randint(0, 5)):
            alpha = rng.randint(1, 15)
            if alpha == 1:
                fibers.append((1, rng.randint(-3, 3)))
                continue
            while True:
                beta = rng.randint(-30, 30)
                if beta != 0 and gcd(alpha, beta) == 1:
                    break
            fibers.append((alpha, beta))
        return SeifertInvariants(rng.randint(-4, 4), tuple(fibers))

    for _ in range(300):
        si = random_invariants()
        nsi = normalize(si)
        assert normalize(nsi) == nsi
        assert euler_number(nsi) == euler_number(si)
        assert h1_order(si) == h1_order_snf(si)
        if nsi.normalized:
            assert reverse_orientation(reverse_orientation(nsi)) == nsi
        if len(nsi.fibers) >= 3:
            max_alpha = max(a for a, _ in nsi.fibers)
            assert witness_search(nsi.fibers) == witness_search(
                nsi.fibers, m_max=2 * max_alpha * max_alpha
            )
    report(11, "normalization, homology-oracle, and witness-bound samples agree (900 checks)")
