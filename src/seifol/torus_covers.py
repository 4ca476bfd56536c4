"""Seifert invariants of cyclic branched covers of torus knots.

``branched_invariants`` computes normalized invariants of the n-fold
cyclic branched cover of the (p, q) torus knot in the cases where an
explicit description is available:

* ``gcd(n, pq) = 1`` -- a Brieskorn sphere with fiber multiplicities
  p, q, n and Euler number -1/(pqn);
* ``n`` divides p or q -- the divisor formula with r copies of a common
  fiber;
* ``(n, p or q) = (4, 2)`` -- the two-strand fourfold-cover formula;
* a fixed table of the remaining small covers.

Everything else is reported as Unsupported (a value, not an error): the
general classification has mixed-gcd cases this package does not model.

``classify_torus_cover`` is the independent finite/infinite fundamental
group classifier, and ``cross_validate`` checks the two routes agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import NotationError
from .foliation import ExcellenceVerdict, decide_excellence
from .seifert import SeifertInvariants, normalize, torus_fiber_betas

SOURCE_COPRIME = "coprime"
SOURCE_DIVISOR = "divisor"
SOURCE_SIGMA4 = "sigma4-two-strand"
SOURCE_TABLE = "special-table"

CONSISTENT = "Consistent"
INCONSISTENT = "Inconsistent"
NOT_COMPUTABLE = "NotComputable"


@dataclass(frozen=True)
class TorusCoverQuery:
    n: int
    p: int
    q: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("cover order must be at least 2")
        if self.p < 2 or self.q < 2:
            raise ValueError("torus knot parameters must be at least 2")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"p = {self.p} and q = {self.q} must be coprime")


@dataclass(frozen=True)
class BranchedInvariantsResult:
    invariants: SeifertInvariants | None
    source: str | None

    @property
    def known(self) -> bool:
        return self.invariants is not None


UNSUPPORTED = BranchedInvariantsResult(None, None)


def classify_torus_cover(qr: TorusCoverQuery) -> ExcellenceVerdict:
    """Excellent iff the fundamental group of the cover is infinite.

    The finite cases form a short exception list; the verdict's reason
    records which exception fired.
    """
    label = exception_label(qr)
    if label:
        return ExcellenceVerdict(False, f"exception {label}")
    return ExcellenceVerdict(True, "infinite-fundamental-group")


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


def branched_invariants(qr: TorusCoverQuery) -> BranchedInvariantsResult:
    n, p, q = qr.n, qr.p, qr.q
    if gcd(n, p * q) == 1:
        return BranchedInvariantsResult(normalize(brieskorn_invariants(p, q, n)), SOURCE_COPRIME)
    if p % n == 0:
        return BranchedInvariantsResult(normalize(divisor_invariants(n, p, q)), SOURCE_DIVISOR)
    if q % n == 0:
        return BranchedInvariantsResult(normalize(divisor_invariants(n, q, p)), SOURCE_DIVISOR)
    if n == 4 and p == 2:
        return BranchedInvariantsResult(normalize(four_fold_two_strand(q)), SOURCE_SIGMA4)
    if n == 4 and q == 2:
        return BranchedInvariantsResult(normalize(four_fold_two_strand(p)), SOURCE_SIGMA4)
    raw = special_table_raw(n, p, q)
    if raw is not None:
        return BranchedInvariantsResult(normalize(raw), SOURCE_TABLE)
    return UNSUPPORTED


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


@dataclass(frozen=True)
class CrossCheck:
    status: str
    details: str = ""


def cross_validate(qr: TorusCoverQuery) -> CrossCheck:
    """Compare the classifier with the decision derived from the invariants."""
    result = branched_invariants(qr)
    if not result.known:
        return CrossCheck(NOT_COMPUTABLE)
    derived = decide_excellence(result.invariants)
    asserted = classify_torus_cover(qr)
    if derived.excellent == asserted.excellent:
        return CrossCheck(CONSISTENT)
    return CrossCheck(
        INCONSISTENT,
        f"classifier says {asserted.kind} but invariants {result.invariants} "
        f"decide {derived.kind} ({derived.reason})",
    )


def sweep_queries(n_max: int, p_max: int, q_max: int):
    """All valid queries with n <= n_max, p < q, p <= p_max, q <= q_max."""
    for n in range(2, n_max + 1):
        for p in range(2, p_max + 1):
            for q in range(p + 1, q_max + 1):
                if gcd(p, q) == 1:
                    yield TorusCoverQuery(n, p, q)


def crosscheck_sweep(n_max: int, p_max: int, q_max: int) -> dict:
    """Reproducibility sweep: cross-validate every computable query."""
    total = computable = consistent = 0
    inconsistencies = []
    total_l_spaces = []
    for qr in sweep_queries(n_max, p_max, q_max):
        total += 1
        if not classify_torus_cover(qr).excellent:
            total_l_spaces.append((qr.n, qr.p, qr.q))
        check = cross_validate(qr)
        if check.status == NOT_COMPUTABLE:
            continue
        computable += 1
        if check.status == CONSISTENT:
            consistent += 1
        else:
            inconsistencies.append({"query": (qr.n, qr.p, qr.q), "details": check.details})
    return {
        "queries": total,
        "computable": computable,
        "consistent": consistent,
        "inconsistencies": inconsistencies,
        "total_l_spaces": sorted(total_l_spaces),
    }


def parse_query(n: str, p: str, q: str) -> TorusCoverQuery:
    try:
        return TorusCoverQuery(int(n), int(p), int(q))
    except ValueError as exc:
        raise NotationError(str(exc)) from exc
