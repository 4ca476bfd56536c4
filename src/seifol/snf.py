"""Order of a finitely presented abelian group, in polynomial time.

Used as the independent oracle for first-homology computations: the
closed-form order elsewhere in the package is cross-checked against the
index computed here.  The method is the modular one of Domich, Kannan and
Trotter (1987).  Fraction-free elimination gives the rank and a multiple D
of the index (a gcd of nonzero maximal minors); the row lattice then
contains D·Z^n, so the rest of the elimination runs on entries reduced
modulo D and no entry grows.
"""

from __future__ import annotations

from math import gcd


def cokernel_order(matrix, generators: int) -> int | None:
    """Order of Z^generators modulo the row lattice; None when infinite.

    ``matrix`` has one row per relation and ``generators`` columns.  The
    quotient is finite exactly when the row lattice has full rank.
    """
    if generators == 0:
        return 1
    if not matrix:
        return None
    rows = [list(map(int, r)) for r in matrix]
    if any(len(r) != generators for r in rows):
        raise ValueError("ragged matrix")
    rank, minor = _rank_and_minor(rows, generators)
    if rank < generators:
        return None
    if len(rows) == generators:
        return minor
    return _index_modulo(rows, generators, minor)


def _rank_and_minor(rows, n):
    """Rank r of the rows and the gcd of some nonzero r×r minors.

    Bareiss elimination: every intermediate entry is a minor of the input,
    so the divisions are exact and entry sizes stay polynomial.  At the
    last pivot step the candidate pivots are r×r minors; their gcd is
    returned, and the gcd of all r×r minors divides it.  A step leaves a
    row with a zero in the pivot column only rescaled by pivot / prev, and
    these factors telescope, so such rows are brought up to date only when
    next needed: ``since[i]`` is the ``prev`` their entries are current at.
    """
    a = [r[:] for r in rows]
    since = [1] * len(a)
    rank, prev, minor = 0, 1, 0
    for j in range(n):
        live = [i for i in range(rank, len(a)) if a[i][j]]
        if not live:
            continue
        for i in live:
            if since[i] != prev:
                a[i][j:] = [x * prev // since[i] for x in a[i][j:]]
                since[i] = prev
        minor = gcd(*(a[i][j] for i in live))
        p = live[0]
        a[rank], a[p] = a[p], a[rank]
        since[rank], since[p] = since[p], since[rank]
        top = a[rank][j:]
        pivot = top[0]
        for i in live[1:]:
            f = a[i][j]
            a[i][j:] = [(x * pivot - f * y) // prev for x, y in zip(a[i][j:], top)]
            since[i] = pivot
        prev = pivot
        rank += 1
    return rank, minor


def _index_modulo(rows, n, d):
    """[Z^n : L] for a row lattice L whose index divides d.

    Then L contains d·Z^n and Z^n / L = Z^n / (L + d·Z^n), so entries are
    reduced modulo d.  Column by column, a pivot row absorbs every other
    row's entry in that column by unimodular extended-gcd steps, and then
    d·e_j: the pivot g = gcd(pivot entry, d) is a factor of the index.  The
    rows left have index dividing d / g in the remaining columns, which
    becomes the new modulus; the row d·e_j yields is zero modulo it.
    """
    rows = [[x % d for x in r] for r in rows]
    index = 1
    for j in range(n):
        if d == 1:
            break
        live = [row for row in rows if row[j] % d]
        if not live:
            return index * d
        pivot = live[0]
        for row in live[1:]:
            a, b = pivot[j] % d, row[j] % d
            g, s, t = _xgcd(a, b)
            u, v = a // g, b // g
            top, rest = pivot[j:], row[j:]
            if t:  # else the pivot entry divides b and the pivot row stays
                pivot[j:] = [(s * p + t * x) % d for p, x in zip(top, rest)]
            row[j:] = [(u * x - v * p) % d for p, x in zip(top, rest)]
        g = gcd(pivot[j], d)
        index *= g
        d //= g
        rows = [row for row in rows if row is not pivot]
    return index


def _xgcd(a, b):
    """(g, s, t) with g = gcd(a, b) = s·a + t·b, for a > 0 and b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0
