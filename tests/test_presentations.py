import json
import random
from itertools import product

import pytest

from seifol.cli import main
from seifol.errors import IndivisibleSurgery, TooManyGenerators
from seifol.presentations import (
    GroupPresentation,
    coarse_obstruction,
    parse_presentation,
    present_pretzel_cover,
    present_two_bridge_cover,
    pretzel_exterior_relators,
    pretzel_surgery_description,
)
from seifol.words import Word, free_reduce

from helpers import inverse, sign_profile

# expected sign tables for the threefold pretzel cover; columns are
# x0 x1 x2 y0 y1 y2 and "o" marks an absent generator
TABLE_FIRST = {
    0: "+-o-+o",
    1: "o+-o-+",
    2: "-o++o-",
}
TABLE_SECOND = {
    0: "+-o+-o",
    1: "o+-o+-",
    2: "-o+-o+",
}


def profile_string(pres, rel):
    symbols = {"+": "+", "-": "-", "absent": "o", "mixed": "!"}
    prof = sign_profile(rel, pres.generators)
    return "".join(symbols[prof[g]] for g in pres.generators)


def brute_force_obstruction(pres):
    """Oracle for coarse_obstruction: decide all 2^n assignments one by one,
    testing every relator on each.  Returns (obstructed,
    assignments_checked, survivors)."""
    index = {g: i for i, g in enumerate(pres.generators)}
    compiled = [
        tuple((index[g], 1 if e > 0 else -1) for g, e in rel.letters)
        for rel in pres.relators
        if rel.letters
    ]
    survivors = []
    checked = 0
    for sigma in product((1, -1), repeat=len(pres.generators)):
        checked += 1
        violated = False
        for rel in compiled:
            first = rel[0][1] * sigma[rel[0][0]]
            if all(s * sigma[i] == first for i, s in rel[1:]):
                violated = True
                break
        if not violated:
            survivors.append(tuple("+" if s == 1 else "-" for s in sigma))
    survivors.sort()
    return not survivors, checked, tuple(survivors)


def report_fields(report):
    return report.obstructed, report.assignments_checked, report.survivors


def random_presentation(rng):
    n = rng.randint(0, 9)
    gens = tuple(f"g{i}" for i in range(n))
    relators = []
    for _ in range(rng.randint(0, 7)):
        if not gens or rng.random() < 0.05:
            relators.append(Word())
            continue
        letters = []
        for _ in range(rng.randint(1, 6)):
            g = rng.choice(gens[: rng.randint(1, n)])
            letters.append((g, rng.choice((1, -1)) * rng.choice((1, 1, 1, 2, 3))))
        relators.append(Word(letters))
    return GroupPresentation(gens, tuple(relators))


def killed_survivors(pres, survivors):
    """Bitset of the survivors under which some relator is a same-sign
    product, checked letter by letter for all survivors at once: bit j of
    ``plus[g]`` is set when survivor j labels g "+"."""
    everyone = (1 << len(survivors)) - 1
    to_bits = str.maketrans("+-", "10")
    plus = {
        g: int("".join(column).translate(to_bits) or "0", 2)
        for g, column in zip(pres.generators, zip(*survivors))
    }
    killed = 0
    for rel in pres.relators:
        if not rel.letters:
            continue
        all_positive = all_negative = everyone
        for g, e in rel.letters:
            positive = plus[g] if e > 0 else everyone ^ plus[g]
            all_positive &= positive
            all_negative &= everyone ^ positive
        killed |= all_positive | all_negative
    return killed


def orbit_of_plus_plus_minus_minus():
    """Rotation-and-global-negation orbit of (+,+,-,-)."""
    base = ("+", "+", "-", "-")
    orbit = set()
    for r in range(4):
        rotated = base[r:] + base[:r]
        orbit.add(rotated)
        orbit.add(tuple("-" if s == "+" else "+" for s in rotated))
    return orbit


class TestTwoBridgePresentation:
    def test_relators_at_base_parameters(self):
        pres = present_two_bridge_cover(1, 1, 4)
        assert [str(r) for r in pres.relators] == [
            "x0^-1 x1 x2^-1",
            "x1^-1 x2 x3^-1",
            "x2^-1 x3 x0^-1",
            "x3^-1 x0 x1^-1",
            "x0 x1 x2 x3",
        ]

    def test_structure_counts(self):
        pres = present_two_bridge_cover(1, 1, 2)
        assert len(pres.generators) == 2
        assert len(pres.relators) == 3

    def test_sign_profile_of_first_relator(self):
        pres = present_two_bridge_cover(2, 3, 4)
        assert profile_string(pres, pres.relators[0]) == "-+-o"

    def test_profiles_parameter_independent(self):
        reference = None
        for k, l in product(range(1, 4), repeat=2):
            pres = present_two_bridge_cover(k, l, 4)
            profiles = tuple(profile_string(pres, r) for r in pres.relators)
            if reference is None:
                reference = profiles
            assert profiles == reference

    def test_abelianization_finite(self):
        # rational homology spheres for all small parameters
        for k, l in product(range(1, 4), repeat=2):
            order = present_two_bridge_cover(k, l, 4).abelianization_order()
            assert order is not None and order >= 1

    def test_abelianization_matches_branched_cover_homology(self):
        # k = l = 1 is the fourfold cover of the (2,3) torus knot: |H1| = 3
        assert present_two_bridge_cover(1, 1, 4).abelianization_order() == 3


class TestPretzelPresentation:
    def test_sign_tables_cell_for_cell(self):
        for k, l, m in product(range(1, 4), repeat=3):
            pres = present_pretzel_cover(k, l, m)
            for i in range(3):
                assert profile_string(pres, pres.relators[i]) == TABLE_FIRST[i], (k, l, m, i)
                assert profile_string(pres, pres.relators[3 + i]) == TABLE_SECOND[i], (k, l, m, i)

    def test_branching_relators_all_positive(self):
        pres = present_pretzel_cover(1, 1, 1)
        assert profile_string(pres, pres.relators[6]) == "+++ooo"
        assert profile_string(pres, pres.relators[7]) == "ooo+++"

    def test_spec_like_examples(self):
        pres = present_pretzel_cover(1, 1, 1)
        prof = sign_profile(pres.relators[0], pres.generators)
        assert prof == {"x0": "+", "x1": "-", "x2": "absent", "y0": "-", "y1": "+", "y2": "absent"}
        prof = sign_profile(pres.relators[4], pres.generators)
        assert prof["x1"] == "+" and prof["x2"] == "-" and prof["y1"] == "+" and prof["y2"] == "-"


class TestExteriorRelators:
    def test_product_freely_trivial(self):
        for k, l, m in product(range(1, 4), repeat=3):
            r1, r2, r3 = pretzel_exterior_relators(k, l, m)
            assert not free_reduce(r1 * r2 * r3), (k, l, m)

    def test_individual_relators_nontrivial(self):
        r1, r2, r3 = pretzel_exterior_relators(1, 1, 1)
        assert free_reduce(r1) and free_reduce(r2) and free_reduce(r3)


class TestCoarseObstruction:
    def test_single_generator_torsion(self):
        report = coarse_obstruction(GroupPresentation(("a",), (Word([("a", 1)]),)))
        assert report.obstructed and report.assignments_checked == 2

    def test_pretzel_covers_obstructed(self):
        for k, l, m in product(range(1, 4), repeat=3):
            pres = present_pretzel_cover(k, l, m)
            report = coarse_obstruction(pres)
            assert report.obstructed, (k, l, m)
            assert report.assignments_checked == 64
            assert report_fields(report) == brute_force_obstruction(pres), (k, l, m)

    def test_two_bridge_survivors_form_the_orbit(self):
        expected = orbit_of_plus_plus_minus_minus()
        for k, l in product(range(1, 4), repeat=2):
            report = coarse_obstruction(present_two_bridge_cover(k, l, 4))
            assert not report.obstructed
            assert set(report.survivors) == expected, (k, l)

    def test_invariance_under_renaming_and_relator_moves(self):
        import random

        rng = random.Random(71)
        for builder in (
            lambda: present_two_bridge_cover(2, 2, 4),
            lambda: present_pretzel_cover(1, 2, 3),
        ):
            pres = builder()
            base = coarse_obstruction(pres)

            # renaming, transported to the survivor tuples
            renamed = GroupPresentation(
                tuple(f"g{i}" for i in range(len(pres.generators))),
                tuple(
                    Word(
                        [
                            (f"g{pres.generators.index(g)}", e)
                            for g, e in rel.letters
                        ]
                    )
                    for rel in pres.relators
                ),
            )
            assert coarse_obstruction(renamed).survivors == base.survivors

            # cyclic permutation, inversion, and exponent-magnitude changes
            mutated_relators = []
            for rel in pres.relators:
                ls = list(rel.letters)
                cut = rng.randrange(len(ls))
                ls = ls[cut:] + ls[:cut]
                w = Word(ls)
                if rng.random() < 0.5:
                    w = inverse(w)
                w = Word([(g, (1 if e > 0 else -1) * rng.randint(1, 5)) for g, e in w.letters])
                mutated_relators.append(w)
            mutated = GroupPresentation(pres.generators, tuple(mutated_relators))
            assert coarse_obstruction(mutated).survivors == base.survivors

    def test_generator_cap(self):
        gens = tuple(f"t{i}" for i in range(25))
        with pytest.raises(TooManyGenerators):
            coarse_obstruction(GroupPresentation(gens, ()))

    def test_mixed_sign_generator_cannot_violate_alone(self):
        # x occurs with both exponent signs, so no assignment makes the
        # relator a same-sign product
        pres = GroupPresentation(("x", "y"), (Word([("x", 1), ("y", 1), ("x", -1)]),))
        report = coarse_obstruction(pres)
        assert not report.obstructed and len(report.survivors) == 4


class TestObstructionAgainstOracle:
    """The branch-and-prune search must reproduce the 2^n enumeration:
    the verdict, the count and every survivor, in order."""

    def test_two_bridge_covers(self):
        cases = [(k, l, n) for k, l in product(range(1, 4), repeat=2) for n in range(2, 13)]
        for k, l, n in cases + [(1, 1, 14)]:
            pres = present_two_bridge_cover(k, l, n)
            assert report_fields(coarse_obstruction(pres)) == brute_force_obstruction(pres), (k, l, n)

    def test_random_presentations(self):
        rng = random.Random(20140625)
        seen = {"no generators": 0, "empty relator": 0, "repeated letter": 0,
                "mixed signs": 0, "exponent above 1": 0, "obstructed": 0, "unobstructed": 0}
        for _ in range(1200):
            pres = random_presentation(rng)
            expected = brute_force_obstruction(pres)
            assert report_fields(coarse_obstruction(pres)) == expected, pres
            seen["no generators"] += not pres.generators
            seen["obstructed" if expected[0] else "unobstructed"] += 1
            for rel in pres.relators:
                names = [g for g, _ in rel.letters]
                seen["empty relator"] += not rel.letters
                seen["repeated letter"] += len(set(names)) < len(names)
                seen["mixed signs"] += any(sign_profile(rel, pres.generators)[g] == "mixed" for g in names)
                seen["exponent above 1"] += any(abs(e) > 1 for _, e in rel.letters)
        assert all(seen.values()), seen

    def test_large_two_bridge_covers(self):
        for n in (16, 20, 24):
            pres = present_two_bridge_cover(1, 1, n)
            report = coarse_obstruction(pres)
            survivors = report.survivors
            assert report.assignments_checked == 2**n
            assert not report.obstructed
            assert list(survivors) == sorted(set(survivors)), n
            negations = {tuple("-" if s == "+" else "+" for s in sv) for sv in survivors}
            assert negations == set(survivors), n
            assert killed_survivors(pres, survivors) == 0, n


class TestPretzelSurgery:
    def test_examples(self):
        d = pretzel_surgery_description(3, 1, 1, "+")
        assert d.strands == (3, 3, 3) and str(d.coefficient) == "1" and d.orientation_reversed
        d = pretzel_surgery_description(3, 4, 1, "-")
        assert d.strands == (3, 3, 3) and str(d.coefficient) == "-1/3"
        assert not d.orientation_reversed
        d = pretzel_surgery_description(5, 2, 2, "+")
        assert d.strands == (5, 5, 5, 5, 5) and str(d.coefficient) == "1"

    def test_indivisible(self):
        with pytest.raises(IndivisibleSurgery):
            pretzel_surgery_description(3, 2, 1, "+")


def test_presentation_text_round_trip(capsys):
    # the generators and relators that `present` prints are the file syntax
    for family, params, pres in [
        ("twobridge", (2, 1, 3), present_two_bridge_cover(2, 1, 3)),
        ("pretzel", (1, 2, 3), present_pretzel_cover(1, 2, 3)),
    ]:
        assert main(["present", family, *map(str, params)]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert payload["relators"] == [str(rel) for rel in pres.relators]
        text = "; ".join(["gens: " + " ".join(payload["generators"])] + ["rel: " + r for r in payload["relators"]])
        assert parse_presentation(text) == pres
    assert parse_presentation("gens: a b; rel: a^-1 b^2").relators[0].letters == (
        ("a", -1),
        ("b", 2),
    )
