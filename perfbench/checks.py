"""Independent output checks for the benchmark.

Nothing here imports seifol.  Each check recomputes an answer by a route
that differs from the package's own: witness existence by an interval test
per multiplicity (not the package's scan over numerators), first homology
by a Bareiss determinant or by cyclotomic resultants (not the closed form
or the Smith normal form), the sign obstruction by evaluating each relator
letter by letter, and free reduction on single letters.

Fibers are ``(alpha, beta)`` pairs, as in the package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd


# -- Seifert forms -----------------------------------------------------------


def normal_form(b, fibers):
    """Integer parts absorbed into b, multiplicity-one fibers dropped, sorted."""
    out = []
    for alpha, beta in fibers:
        q, r = divmod(beta, alpha)
        b += q
        if r:
            out.append((alpha, r))
    return b, tuple(sorted(out))


def euler(b, fibers):
    return b + sum((Fraction(beta, alpha) for alpha, beta in fibers), Fraction(0))


def witness_exists(fibers, m_max):
    """True when some 0 < a < m <= m_max and ordered pair (i, j) satisfy the
    condition-2 inequalities.  For each m the admissible numerators of a
    role pair form an integer interval, so no loop over a is needed."""
    n = len(fibers)
    for m in range(2, m_max + 1):
        hard = {idx for idx, (al, be) in enumerate(fibers) if be * m >= al}
        if len(hard) > 2:
            continue
        for i in range(n):
            ai, bi = fibers[i]
            lo = bi * m // ai + 1  # a/m > bi/ai
            for j in range(n):
                if j == i or not hard <= {i, j}:
                    continue
                aj, bj = fibers[j]
                hi = m - bj * m // aj - 1  # (m - a)/m > bj/aj
                if max(lo, 1) <= min(hi, m - 1):
                    return True
    return False


def witness_holds(fibers, m, a, roles):
    """The three strict inequalities of a condition-2 witness."""
    i, j = roles
    if not (0 < a < m) or i == j or not (0 <= i < len(fibers) and 0 <= j < len(fibers)):
        return False
    (ai, bi), (aj, bj) = fibers[i], fibers[j]
    if Fraction(bi, ai) >= Fraction(a, m) or Fraction(bj, aj) >= Fraction(m - a, m):
        return False
    return all(Fraction(be, al) < Fraction(1, m) for k, (al, be) in enumerate(fibers) if k not in roles)


def reversed_form(b, fibers):
    """Normalized orientation reversal of a normalized form."""
    return normal_form(-b, tuple((al, -be) for al, be in fibers))


def horizontal(b, fibers, m_max=None):
    """Three-condition criterion on a normalized form with >= 3 fibers.
    Returns the condition number that holds, or None."""
    n = len(fibers)
    if -(n - 2) <= b <= -2:
        return 1
    bound = m_max if m_max is not None else max(al for al, _ in fibers)
    if b == -1 and witness_exists(fibers, bound):
        return 2
    if b == -(n - 1) and witness_exists(reversed_form(b, fibers)[1], bound):
        return 3
    return None


def excellence(b, fibers):
    """(excellent, reason) for any Seifert form over the sphere."""
    b, fibers = normal_form(b, fibers)
    if euler(b, fibers) == 0:
        return True, "positive-b1"
    if len(fibers) <= 2:
        return False, "lens-type"
    if horizontal(b, fibers) is not None:
        return True, "horizontal-foliation"
    return False, "no-horizontal-foliation"


# -- integer linear algebra ------------------------------------------------------


def determinant(matrix):
    """Exact determinant by fraction-free Bareiss elimination."""
    a = [list(r) for r in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def cokernel_size(matrix, cols):
    """Order of Z^cols modulo the row lattice, as the gcd of the maximal
    minors; None when every maximal minor vanishes (infinite quotient)."""
    if cols == 0:
        return 1
    g = 0
    for rows in combinations(matrix, cols):
        g = gcd(g, determinant(rows))
        if g == 1:
            return 1
    return g or None


def seifert_h1(b, fibers):
    """|H_1| of M(b; fibers) from the determinant of its square presentation
    matrix; None when infinite."""
    n = len(fibers)
    rows = [[alpha if k == i else 0 for k in range(n)] + [beta] for i, (alpha, beta) in enumerate(fibers)]
    rows.append([1] * n + [-b])
    return abs(determinant(rows)) or None


def surgery_h1(slopes, linking):
    """|H_1| of a_i/c_i surgery on a link whose components pairwise link
    ``linking`` times: H_1 is presented by a_i mu_i + c_i linking
    sum_{j != i} mu_j.  None when infinite."""
    d = len(slopes)
    rows = [[a if i == j else c * linking for j in range(d)] for i, (a, c) in enumerate(slopes)]
    return abs(determinant(rows)) or None


# -- torus-knot covers ----------------------------------------------------------


def _divisors(n):
    return [k for k in range(1, n + 1) if n % k == 0]


def _prime_power_base(n):
    """The prime p when n = p^k with k >= 1, else None."""
    for p in range(2, n + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
    return None


def _totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _cyclotomic_resultant(m, n):
    """|Res(Phi_m, Phi_n)| for distinct m, n > 1 (Apostol): p^phi(min) when
    the larger index over the smaller is a power of the prime p, else 1."""
    lo, hi = min(m, n), max(m, n)
    if hi % lo == 0:
        p = _prime_power_base(hi // lo)
        if p:
            return p ** _totient(lo)
    return 1


def torus_cover_h1(n, p, q):
    """|H_1| of the n-fold cyclic branched cover of the (p, q) torus knot:
    the product of |Delta(zeta)| over the nontrivial n-th roots of unity,
    where Delta = prod Phi_d over d | pq with d dividing neither p nor q.
    None when infinite (some Phi_d vanishes at an n-th root of unity)."""
    order = 1
    for d in _divisors(p * q):
        if p % d == 0 or q % d == 0:
            continue
        for e in _divisors(n)[1:]:
            if d == e:
                return None
            order *= _cyclotomic_resultant(d, e)
    return order


def torus_cover_finite(n, p, q):
    """The cover is spherical (finite fundamental group) exactly when
    1/n + 1/p + 1/q > 1."""
    return Fraction(1, n) + Fraction(1, p) + Fraction(1, q) > 1


# -- words and sign assignments ------------------------------------------------


def free_reduce_letters(syllables):
    """Free reduction of a syllable list, expanded to single letters."""
    stack = []
    for g, e in syllables:
        unit = 1 if e > 0 else -1
        for _ in range(abs(e)):
            if stack and stack[-1] == (g, -unit):
                stack.pop()
            else:
                stack.append((g, unit))
    return stack


def relator_killed(syllables, sign):
    """True when every letter of the relator has the same sign under
    ``sign`` (a dict generator -> +1/-1): then it is a same-sign product."""
    values = {(1 if e > 0 else -1) * sign[g] for g, e in syllables}
    return len(values) == 1


def surviving_assignments(generators, relators):
    """All sign assignments, as '+'/'-' tuples, that no relator kills."""
    out = []
    for signs in product((1, -1), repeat=len(generators)):
        sign = dict(zip(generators, signs))
        if not any(relator_killed(rel, sign) for rel in relators if rel):
            out.append(tuple("+" if s == 1 else "-" for s in signs))
    return sorted(out)


# -- continued fractions and slopes ----------------------------------------------


def cf_value(terms):
    """Value of [p_1, ..., p_m], or None when a tail vanishes."""
    value = Fraction(terms[-1])
    for p in reversed(terms[:-1]):
        if value == 0:
            return None
        value = p + 1 / value
    return value


def apply_map(m, slope):
    """Image of a slope under a 2x2 matrix, sign-fixed and primitive."""
    a, c = slope
    x, y = m[0] * a + m[1] * c, m[2] * a + m[3] * c
    g = gcd(x, y)
    x, y = x // g, y // g
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return x, y
