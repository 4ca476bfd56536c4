"""Seifert invariants of cyclic branched covers of torus knots.

``branched_invariants`` computes normalized invariants of the n-fold
cyclic branched cover of the (p, q) torus knot.  That cover is the
Brieskorn manifold with exponents (n, p, q), whose Seifert invariants are
given by one formula of Neumann--Raymond (1978): see
``brieskorn_invariants``.  Its base orbifold has genus g with
2g = (gcd(n, p) - 1)(gcd(n, q) - 1).  Invariants here live over the
two-sphere, so a cover with g >= 1 is reported as Unsupported (a value,
not an error).  The three-sphere fibered by (r, s) torus knots is the case
(r, s, 1), the piece ``link_surgery`` fills.

``classify_torus_cover`` is the independent route: Milnor's (1975)
criterion that the fundamental group of the cover is finite iff
1/n + 1/p + 1/q > 1.  ``cross_validate`` checks the two routes agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

from .errors import NotationError
from .foliation import ExcellenceVerdict, decide_excellence
from .rationals import parse_int, quoted_int
from .seifert import SeifertInvariants

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
            raise ValueError(f"p = {quoted_int(self.p)} and q = {quoted_int(self.q)} must be coprime")


@dataclass(frozen=True)
class BranchedInvariantsResult:
    invariants: SeifertInvariants | None

    @property
    def known(self) -> bool:
        return self.invariants is not None


UNSUPPORTED = BranchedInvariantsResult(None)


def classify_torus_cover(qr: TorusCoverQuery) -> ExcellenceVerdict:
    """Excellent iff the fundamental group of the cover is infinite, that
    is iff 1/n + 1/p + 1/q <= 1, tested in integers."""
    n, p, q = qr.n, qr.p, qr.q
    if p * q + n * q + n * p > n * p * q:
        return ExcellenceVerdict(False, "finite-fundamental-group")
    return ExcellenceVerdict(True, "infinite-fundamental-group")


def branched_invariants(qr: TorusCoverQuery) -> BranchedInvariantsResult:
    """The n-fold cover is the Brieskorn manifold with exponents (n, p, q);
    Unsupported exactly when its base orbifold has positive genus."""
    n, p, q = qr.n, qr.p, qr.q
    if gcd(n, p) > 1 and gcd(n, q) > 1:
        return UNSUPPORTED
    return BranchedInvariantsResult(brieskorn_invariants(n, p, q))


def brieskorn_invariants(a1: int, a2: int, a3: int) -> SeifertInvariants:
    """Seifert form of the Brieskorn manifold with three exponents, after
    Neumann--Raymond (1978).

    With l the lcm of the exponents, exponent a_i contributes
    gcd(a_j, a_k) fibers of multiplicity alpha_i = l / lcm(a_j, a_k), each
    with beta_i = -(l / a_i)^(-1) mod alpha_i, and none when alpha_i = 1;
    the Euler number is -a_1 a_2 a_3 / l^2, which forces b.  Pairwise
    coprime exponents give a Brieskorn sphere with Euler number
    -1/(a_1 a_2 a_3).  The base genus is not recorded, so the form
    describes the manifold only when the base is a sphere.

    The form is already normalized, and its fibers are sorted, so
    ``normalize`` returns it as it is.  A fiber is kept only when
    alpha_i >= 2.  A prime dividing alpha_i divides l to a higher power than
    it divides a_j and a_k, so that power is the one in a_i and the prime
    does not divide l / a_i.  Hence l / a_i is a unit mod alpha_i, and so is
    beta_i: it is coprime to alpha_i, never 0, and 0 < beta_i < alpha_i.
    """
    exponents = (a1, a2, a3)
    l = lcm(*exponents)
    total = l * l
    fibers = []
    weighted = 0
    for i, a in enumerate(exponents):
        aj, ak = exponents[:i] + exponents[i + 1 :]
        alpha = l // lcm(aj, ak)
        if alpha == 1:
            continue
        beta = (-pow(l // a, -1, alpha)) % alpha
        count = gcd(aj, ak)
        fibers += [(alpha, beta)] * count
        weighted += count * beta * (total // alpha)
    b, rem = divmod(-prod(exponents) - weighted, total)
    assert rem == 0
    return SeifertInvariants(b, tuple(sorted(fibers)))


@dataclass(frozen=True)
class CrossCheck:
    """Outcome of :func:`cross_validate`; ``verdict`` is the classifier's."""

    status: str
    verdict: ExcellenceVerdict
    details: str = ""


def cross_validate(qr: TorusCoverQuery) -> CrossCheck:
    """Compare the classifier with the decision derived from the invariants."""
    asserted = classify_torus_cover(qr)
    result = branched_invariants(qr)
    if not result.known:
        return CrossCheck(NOT_COMPUTABLE, asserted)
    derived = decide_excellence(result.invariants)
    if derived.excellent == asserted.excellent:
        return CrossCheck(CONSISTENT, asserted)
    return CrossCheck(
        INCONSISTENT,
        asserted,
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
        check = cross_validate(qr)
        if not check.verdict.excellent:
            total_l_spaces.append((qr.n, qr.p, qr.q))
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
    n, p, q = parse_int(n), parse_int(p), parse_int(q)
    try:
        return TorusCoverQuery(n, p, q)
    except ValueError as exc:
        raise NotationError(str(exc)) from exc
