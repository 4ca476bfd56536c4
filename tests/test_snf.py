import random
from itertools import combinations
from math import gcd, prod

import pytest

from seifol.presentations import present_pretzel_cover, present_two_bridge_cover
from seifol.seifert import SeifertInvariants, euler_number, homology_presentation
from seifol.snf import cokernel_order

# -- oracle: Smith normal form by row and column operations ----------------------
#
# Exact but exponential in the size of the matrix (entries explode through the
# row-sum step in ``_divisibility_offender``); kept here as the reference that
# ``cokernel_order`` is compared against on small matrices.


def smith_normal_form(matrix) -> list[int]:
    """Return the diagonal of the Smith normal form of an integer matrix.

    The result has length min(rows, cols); entries are nonnegative, each
    divides the next, and trailing zeros indicate rank deficiency.
    """
    rows = [list(map(int, r)) for r in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    size = min(m, n)
    diag: list[int] = []
    t = 0
    while t < size:
        pivot = _smallest_nonzero(rows, t, m, n)
        if pivot is None:
            break
        _move_pivot(rows, t, pivot)
        while True:
            _make_pivot_positive(rows, t)
            if _clear_column(rows, t, m):
                continue
            if _clear_row(rows, t, n):
                continue
            offender = _divisibility_offender(rows, t, m, n)
            if offender is not None:
                rows[t] = [x + y for x, y in zip(rows[t], rows[offender])]
                continue
            break
        diag.append(abs(rows[t][t]))
        t += 1
    diag.extend([0] * (size - len(diag)))
    return diag


def _smallest_nonzero(rows, t, m, n):
    best = None
    for i in range(t, m):
        for j in range(t, n):
            v = abs(rows[i][j])
            if v and (best is None or v < abs(rows[best[0]][best[1]])):
                best = (i, j)
    return best


def _move_pivot(rows, t, pivot):
    i, j = pivot
    rows[t], rows[i] = rows[i], rows[t]
    if j != t:
        for r in rows:
            r[t], r[j] = r[j], r[t]


def _make_pivot_positive(rows, t):
    if rows[t][t] < 0:
        rows[t] = [-x for x in rows[t]]


def _clear_column(rows, t, m):
    """One pass of column clearing; returns True if the pivot shrank."""
    for i in range(m):
        if i == t or not rows[i][t]:
            continue
        q = rows[i][t] // rows[t][t]
        rows[i] = [x - q * y for x, y in zip(rows[i], rows[t])]
        if rows[i][t]:
            rows[t], rows[i] = rows[i], rows[t]
            return True
    return False


def _clear_row(rows, t, n):
    for j in range(n):
        if j == t or not rows[t][j]:
            continue
        q = rows[t][j] // rows[t][t]
        for r in rows:
            r[j] -= q * r[t]
        if rows[t][j]:
            for r in rows:
                r[t], r[j] = r[j], r[t]
            return True
    return False


def _divisibility_offender(rows, t, m, n):
    p = abs(rows[t][t])
    for i in range(t + 1, m):
        for j in range(t + 1, n):
            if rows[i][j] % p:
                return i
    return None


def oracle_order(matrix, generators):
    """The cokernel order read off the Smith normal form: the product of the
    nonzero diagonal, or None below full rank."""
    if generators == 0:
        return 1
    if not matrix:
        return None
    nonzero = [x for x in smith_normal_form(matrix) if x]
    return prod(nonzero) if len(nonzero) == generators else None


def minors_gcd(matrix, k):
    """gcd of all k x k minors, the classical determinantal invariant."""
    m, n = len(matrix), len(matrix[0])
    g = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            g = gcd(g, _det([[matrix[i][j] for j in cols] for i in rows]))
    return g


def _det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j] * _det([row[:j] + row[j + 1 :] for row in a[1:]]) for j in range(n))


def test_known_diagonal():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[4]]) == [4]


def test_divisibility_chain_and_minor_invariants():
    rng = random.Random(7)
    for _ in range(120):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        diag = smith_normal_form(mat)
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a != 0 and b % a == 0
            # zeros only at the end
            if a == 0:
                assert b == 0
        # d_1 ... d_k = gcd of k x k minors
        running = 1
        for k, d in enumerate(diag, start=1):
            running *= d
            assert running == minors_gcd(mat, k)


def test_cokernel_order():
    # Z^2 / <(2,0),(0,3)> has order 6
    assert cokernel_order([[2, 0], [0, 3]], 2) == 6
    # one relation on two generators leaves a free factor
    assert cokernel_order([[2, 0]], 2) is None
    assert cokernel_order([], 0) == 1
    assert cokernel_order([], 2) is None
    # unimodular: trivial quotient
    assert cokernel_order([[1, 1], [0, 1]], 2) == 1
    # more relations than generators: Z^2 / <(4,6),(6,4),(2,2)> = Z/2 + Z/2
    assert cokernel_order([[4, 6], [6, 4], [2, 2]], 2) == 4
    with pytest.raises(ValueError):
        cokernel_order([[1, 2], [3]], 2)
    with pytest.raises(ValueError):
        cokernel_order([[1, 2]], 3)


def test_matches_oracle_on_random_matrices():
    rng = random.Random(2024)
    seen = {"wide": 0, "tall": 0, "square": 0, "zero row": 0, "rank deficient": 0, "finite": 0}
    for _ in range(2400):
        m, n = rng.randint(0, 7), rng.randint(0, 6)
        scale = rng.choice([3, 9, 60])
        density = rng.choice([0.2, 0.4, 0.7])
        mat = [[rng.randint(-scale, scale) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
        expected = oracle_order(mat, n)
        assert cokernel_order(mat, n) == expected, mat
        if m and n:
            seen["wide" if m < n else "tall" if m > n else "square"] += 1
            seen["zero row"] += any(not any(row) for row in mat)
            seen["rank deficient"] += expected is None and m >= n
            seen["finite"] += expected is not None
    assert min(seen.values()) >= 100, seen


def test_matches_oracle_on_branched_cover_presentations():
    for k in range(1, 4):
        for l in range(1, 4):
            for n in range(2, 13):
                pres = present_two_bridge_cover(k, l, n)
                matrix = pres.abelianization_matrix()
                assert pres.abelianization_order() == oracle_order(matrix, n), (k, l, n)
    for k in range(1, 5):
        for l in range(1, 5):
            for m in range(1, 5):
                pres = present_pretzel_cover(k, l, m)
                matrix = pres.abelianization_matrix()
                assert pres.abelianization_order() == oracle_order(matrix, 6), (k, l, m)


def test_matches_oracle_on_seifert_forms():
    rng = random.Random(31)
    forms = []
    for _ in range(300):
        fibers = []
        for _ in range(rng.randint(0, 12)):
            alpha = rng.randint(1, 30)
            beta = rng.choice([b for b in range(-60, 61) if b and gcd(alpha, b) == 1])
            fibers.append((alpha, beta))
        forms.append(SeifertInvariants(rng.randint(-4, 4), tuple(fibers)))
    # Euler number zero: fibers cancelling in pairs, and a unit-fraction sum
    forms.append(SeifertInvariants(0, tuple((a, s) for a in range(2, 8) for s in (1, -1))))
    forms.append(SeifertInvariants(-1, ((2, 1), (3, 1), (6, 1))))
    assert sum(euler_number(si) == 0 for si in forms) >= 2
    for si in forms:
        matrix = homology_presentation(si)
        generators = len(si.fibers) + 1
        assert cokernel_order(matrix, generators) == oracle_order(matrix, generators), si
