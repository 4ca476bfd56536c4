import random
from math import gcd

import pytest

from seifol.foliation import (
    FoliationDecision,
    decide_excellence,
    decide_horizontal,
    has_witness,
    verify_witness,
    witness_search,
)
from seifol.seifert import SeifertInvariants, normalize, parse_seifert, reverse_orientation

M = parse_seifert
REASONS = ("positive-b1", "horizontal-foliation", "lens-type", "no-horizontal-foliation")


def random_normalized(rng, n_min=3, n_max=5, alpha_max=12):
    fibers = []
    for _ in range(rng.randint(n_min, n_max)):
        alpha = rng.randint(2, alpha_max)
        while True:
            beta = rng.randint(1, alpha - 1)
            if gcd(alpha, beta) == 1:
                break
        fibers.append((alpha, beta))
    return SeifertInvariants(rng.randint(-6, 2), tuple(sorted(fibers)))


class TestDecideHorizontal:
    def test_poincare_sphere_has_none(self):
        decision = decide_horizontal(M("M(-2; 1/2, 2/3, 4/5)"))
        assert decision == FoliationDecision(False)

    def test_torus_link_fill_witness(self):
        # first witness in (m, a, pair) order; the construction witness
        # (m, a) = (7, 3) from the surgery recipe is also valid
        decision = decide_horizontal(M("M(-1; 1/2, 1/3, 1/8)"))
        assert decision.horizontal and decision.condition == 2
        assert (decision.witness.m, decision.witness.a) == (5, 2)
        assert has_witness(M("M(-1; 1/2, 1/3, 1/8)"), 7, 3)

    def test_condition_one(self):
        decision = decide_horizontal(M("M(-2; 1/2, 1/2, 1/2, 1/5)"))
        assert decision.horizontal and decision.condition == 1
        assert decision.witness is None

    def test_condition_three_via_reversal(self):
        decision = decide_horizontal(M("M(-2; 1/2, 5/7, 5/7)"))
        assert decision.horizontal and decision.condition == 3
        assert (decision.witness.m, decision.witness.a) == (3, 1)
        assert decision.witness.on_reverse

    def test_inapplicable(self):
        # fewer than three fibers, or not normalized: decide_excellence's forms
        for form in ("M(0)", "M(-1; 2/5, 2/5)", "M(1, -1/2, -1/3, -1/5)"):
            with pytest.raises(ValueError):
                decide_horizontal(M(form))

    def test_returned_witnesses_verify(self):
        rng = random.Random(31)
        for _ in range(300):
            si = random_normalized(rng)
            decision = decide_horizontal(si)
            if decision.witness is None:
                continue
            target = reverse_orientation(si) if decision.witness.on_reverse else si
            assert verify_witness(
                target, decision.witness.m, decision.witness.a, decision.witness.roles
            )

    def test_permutation_invariance(self):
        rng = random.Random(32)
        for _ in range(60):
            si = random_normalized(rng)
            base = decide_horizontal(si)
            fibers = list(si.fibers)
            for _ in range(10):
                rng.shuffle(fibers)
                other = decide_horizontal(SeifertInvariants(si.b, tuple(fibers)))
                assert other.horizontal == base.horizontal and other.condition == base.condition

    def test_orientation_duality(self):
        rng = random.Random(33)
        for _ in range(200):
            si = random_normalized(rng)
            rev = reverse_orientation(si)
            d_si = decide_horizontal(si)
            d_rev = decide_horizontal(rev)
            assert (d_si.condition == 3) == (d_rev.condition == 2)
            assert d_si.horizontal == d_rev.horizontal

    def test_search_bound_against_brute_force(self):
        # oracle: widen the m-range to 2 * (max alpha)^2; the bounded search
        # must agree because a last-role fiber forces m below max alpha
        rng = random.Random(34)
        for _ in range(200):
            si = random_normalized(rng, alpha_max=12)
            max_alpha = max(a for a, _ in si.fibers)
            bounded = witness_search(si.fibers)
            brute = witness_search(si.fibers, m_max=2 * max_alpha * max_alpha)
            assert bounded == brute


class TestDecideExcellence:
    def test_examples(self):
        assert not decide_excellence(M("M(-2; 1/2, 2/3, 4/5)")).excellent
        verdict = decide_excellence(M("M(-1; 2/5, 2/5)"))
        assert not verdict.excellent and verdict.reason == "lens-type"
        verdict = decide_excellence(M("M(0)"))
        assert verdict.excellent and verdict.reason == "positive-b1"

    def test_verdict_carries_decision(self):
        for form in ("M(-1; 1/2, 1/3, 1/8)", "M(-2; 1/2, 5/7, 5/7)", "M(-2; 1/2, 2/3, 4/5)", "M(1, -1/2, -1/3, -1/5)"):
            assert decide_excellence(M(form)).decision == decide_horizontal(normalize(M(form)))
        for form in ("M(0)", "M(-1; 2/5, 2/5)", "M(-1; 1/2, 1/4, 1/4)"):
            assert decide_excellence(M(form)).decision is None

    def test_unnormalized_accepted(self):
        assert not decide_excellence(M("M(1, -1/2, -1/3, -1/5)")).excellent

    def test_reason_vocabulary(self):
        rng = random.Random(35)
        for _ in range(200):
            si = normalize(random_normalized(rng, n_min=0 if rng.random() < 0.3 else 3))
            assert decide_excellence(si).reason in REASONS
