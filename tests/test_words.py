import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seifol.errors import ZeroExponent
from seifol.words import Word, free_reduce

from helpers import inverse

letters = st.lists(
    st.tuples(st.sampled_from("xyz"), st.integers(-4, 4).filter(bool)), max_size=20
)


def test_construction_merges_runs():
    w = Word([("x", 2), ("x", 3), ("y", -1)])
    assert w.letters == (("x", 5), ("y", -1))


def test_construction_drops_cancelling_run_without_cascading():
    w = Word([("x", 2), ("y", 1), ("y", -1), ("x", -1)])
    assert w.letters == (("x", 2), ("x", -1))
    assert free_reduce(w).letters == (("x", 1),)


def test_zero_exponent_letters_rejected():
    with pytest.raises(ZeroExponent):
        Word([("x", 0)])


class TestFreeReduce:
    def test_simple_cancellation(self):
        assert not free_reduce(Word([("x", 1), ("x", -1)]))

    def test_residual_letter(self):
        assert free_reduce(Word([("x", 2), ("y", 1), ("y", -1), ("x", -1)])).letters == (
            ("x", 1),
        )

    def test_idempotent_random(self):
        rng = random.Random(61)
        for _ in range(500):
            w = Word(
                [(rng.choice("xy"), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(0, 12))]
            )
            r = free_reduce(w)
            assert free_reduce(r) == r

    @given(letters)
    def test_confluence_against_single_step_reduction(self, ls):
        # oracle: repeatedly cancel the first adjacent inverse pair
        w = Word(ls)
        flat = []
        for g, e in w.letters:
            flat.extend([(g, 1 if e > 0 else -1)] * abs(e))
        changed = True
        while changed:
            changed = False
            for i in range(len(flat) - 1):
                if flat[i][0] == flat[i + 1][0] and flat[i][1] == -flat[i + 1][1]:
                    del flat[i : i + 2]
                    changed = True
                    break
        assert free_reduce(w) == Word(flat)

    @given(letters)
    def test_reduction_in_random_order_is_confluent(self, ls):
        rng = random.Random(sum(abs(e) for _, e in ls) + len(ls))
        w = Word(ls)
        flat = []
        for g, e in w.letters:
            flat.extend([(g, 1 if e > 0 else -1)] * abs(e))
        while True:
            sites = [
                i
                for i in range(len(flat) - 1)
                if flat[i][0] == flat[i + 1][0] and flat[i][1] == -flat[i + 1][1]
            ]
            if not sites:
                break
            i = rng.choice(sites)
            del flat[i : i + 2]
        assert free_reduce(w) == Word(flat)


def test_inverse_and_product():
    w = Word([("x", 2), ("y", -1)])
    assert inverse(w).letters == (("y", 1), ("x", -2))
    assert not free_reduce(w * inverse(w))
    assert str(w) == "x^2 y^-1"
