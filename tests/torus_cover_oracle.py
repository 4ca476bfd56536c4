"""Oracle: the case-split route to torus-knot cover invariants.

Four special routes -- coprime exponents, a cover order dividing p or q,
the fourfold cover of a two-strand knot, and a table of small published
forms -- each with its own formula.  ``seifol.torus_covers`` replaced them
with the single Neumann--Raymond formula; this copy is kept as the reference
that formula is compared against wherever a route applies.

``exception_label`` is the published list of the covers with finite
fundamental group, which ``seifol.torus_covers.classify_torus_cover``
replaced with Milnor's inequality 1/n + 1/p + 1/q > 1.
"""

from math import gcd
from typing import NamedTuple

from seifol.seifert import SeifertInvariants, normalize
from seifol.torus_covers import TorusCoverQuery

from helpers import torus_fiber_betas

ROUTE_COPRIME = "coprime"
ROUTE_DIVISOR = "divisor"
ROUTE_SIGMA4 = "sigma4-two-strand"
ROUTE_TABLE = "special-table"
ROUTES = (ROUTE_COPRIME, ROUTE_DIVISOR, ROUTE_SIGMA4, ROUTE_TABLE)


class OracleResult(NamedTuple):
    """The oracle's invariants and the route that gave them; both ``None``
    when no route applies."""

    invariants: SeifertInvariants | None
    route: str | None

    @property
    def known(self) -> bool:
        return self.invariants is not None


def branched_invariants(qr: TorusCoverQuery) -> OracleResult:
    n, p, q = qr.n, qr.p, qr.q
    if gcd(n, p * q) == 1:
        return OracleResult(normalize(brieskorn_invariants(p, q, n)), ROUTE_COPRIME)
    if p % n == 0:
        return OracleResult(normalize(divisor_invariants(n, p, q)), ROUTE_DIVISOR)
    if q % n == 0:
        return OracleResult(normalize(divisor_invariants(n, q, p)), ROUTE_DIVISOR)
    if n == 4 and p == 2:
        return OracleResult(normalize(four_fold_two_strand(q)), ROUTE_SIGMA4)
    if n == 4 and q == 2:
        return OracleResult(normalize(four_fold_two_strand(p)), ROUTE_SIGMA4)
    raw = special_table_raw(n, p, q)
    if raw is not None:
        return OracleResult(normalize(raw), ROUTE_TABLE)
    return OracleResult(None, None)


def brieskorn_invariants(p: int, q: int, n: int) -> SeifertInvariants:
    """Unique Seifert form with multiplicities {p, q, n} and Euler number
    -1/(pqn); the betas are fixed by modular inverses and b is then forced."""
    total = p * q * n
    fibers = []
    weighted = 0
    for alpha in (p, q, n):
        cof = total // alpha
        beta = (-pow(cof, -1, alpha)) % alpha
        fibers.append((alpha, beta))
        weighted += beta * cof
    b, rem = divmod(-1 - weighted, total)
    assert rem == 0
    return SeifertInvariants(b, tuple(fibers))


def divisor_invariants(n: int, p: int, q: int) -> SeifertInvariants:
    """Cover order dividing the strand count p: one fiber over p/n plus n
    copies of a common fiber over q, with beta_1 q + beta_2 p = -1 and
    0 < beta_2 < q."""
    assert p % n == 0
    beta1, beta2 = torus_fiber_betas(p, q)
    return SeifertInvariants(0, ((p // n, beta1),) + ((q, beta2),) * n)


def four_fold_two_strand(q: int) -> SeifertInvariants:
    """Fourfold cover of the (2, q) torus knot for odd q: write q = 2k - 1
    and c = floor(k^2/q) + 1; the invariants are
    M(k - 2c; 1/2, (cq - k^2)/q, (cq - k^2)/q)."""
    assert q % 2 == 1 and q >= 3
    k = (q + 1) // 2
    c = k * k // q + 1
    num = c * q - k * k
    return SeifertInvariants(k - 2 * c, ((2, 1), (q, num), (q, num)))


def special_table_raw(n: int, p: int, q: int) -> SeifertInvariants | None:
    """Fixed table of small covers, stored in their as-published unnormalized
    form; keys are symmetric in p and q."""
    lo, hi = min(p, q), max(p, q)
    if (n, lo) == (2, 2):  # twofold cover of a two-strand knot: lens space
        beta2 = (hi - 1) // 2
        return SeifertInvariants(0, ((1, -1), (hi, beta2), (hi, beta2)))
    table = {
        (8, 2, 3): SeifertInvariants(-1, ((4, 1), (3, 1), (3, 1))),
        (9, 2, 3): SeifertInvariants(0, ((3, 1), (1, 1), (2, -1), (2, -1), (2, -1))),
        (3, 2, 3): SeifertInvariants(0, ((2, -1), (2, -1), (2, -1), (1, 1))),
        (4, 2, 3): SeifertInvariants(0, ((2, -1), (1, 1), (3, -1), (3, -1))),
        (2, 3, 4): SeifertInvariants(0, ((2, 1), (3, -1), (3, -1))),
        (2, 3, 5): SeifertInvariants(1, ((2, -1), (3, -1), (5, -1))),
    }
    return table.get((n, lo, hi))


def exception_label(qr: TorusCoverQuery) -> str | None:
    pq = {qr.p, qr.q}
    n = qr.n
    if pq == {2, 3} and 2 <= n <= 5:
        return "(i)"
    if pq == {2, 5} and 2 <= n <= 3:
        return "(ii)"
    if 2 in pq and max(pq) >= 7 and n == 2:
        return "(iii)"
    if pq == {3, 4} and n == 2:
        return "(iv)"
    if pq == {3, 5} and n == 2:
        return "(v)"
    return None
