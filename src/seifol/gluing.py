"""Integer slope-map calculus and the parametrized cable Seifert families.

A SlopeMap is a determinant +/-1 integer 2x2 matrix acting on primitive
slope pairs by plain matrix-vector multiplication.  Slopes here are bare
pairs ``(a, c)`` with the meridian coefficient first, printed ``a/c``;
reduction fixes the sign by making the second coordinate nonnegative.

Named matrices from the satellite decompositions come in two ordered
bases.  The cable gluing matrix ``[[1, 0], [2r+1, -1]]`` is derived in the
(longitude, meridian) order, while the doubling matrix ``[[-2, 1], [-3, 2]]``
is in (meridian, longitude) order; conjugating by the swap ``[[0, 1], [1, 0]]``
converts between the two.

``fill_piece`` is the one place where a slope becomes a fiber; torus-link
surgery (``link_surgery.fill``) and the cable families both fill through it.

Cable families: filling the branched-cover complement of the companion
along a one-parameter family of lifted slopes yields Seifert invariants
whose last fiber is a linear-fractional function of the parameter k.  The
families are a table of ``CableCaseRow`` values in this module, one row per
case and variant, and ``cable_family_check`` verifies the expected
horizontal range.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DegenerateParameter, NotationError
from .foliation import decide_horizontal
from .rationals import quoted, quoted_int
from .seifert import SeifertInvariants, normalize, reverse_orientation


@dataclass(frozen=True)
class SlopeMap:
    m11: int
    m12: int
    m21: int
    m22: int

    def __post_init__(self):
        if self.det not in (1, -1):
            raise ValueError(f"slope map must have determinant +/-1, got {quoted_int(self.det)}")

    @property
    def det(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    @property
    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.m11, self.m12), (self.m21, self.m22))

    def __matmul__(self, other: "SlopeMap") -> "SlopeMap":
        return SlopeMap(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )


def reduce_slope(pair: tuple[int, int]) -> tuple[int, int]:
    """Primitive representative with nonnegative second coordinate."""
    a, c = pair
    if (a, c) == (0, 0):
        raise ValueError("zero slope")
    g = gcd(abs(a), abs(c))
    a, c = a // g, c // g
    if c < 0 or (c == 0 and a < 0):
        a, c = -a, -c
    return a, c


def apply_slope_map(f: SlopeMap, slope: tuple[int, int]) -> tuple[int, int]:
    a, c = slope
    return reduce_slope((f.m11 * a + f.m12 * c, f.m21 * a + f.m22 * c))


def fill_piece(b: int, fibers, slopes) -> SeifertInvariants:
    """Normalized invariants of the Seifert piece M(b; fibers) over the disk,
    one boundary torus filled along each slope.

    A slope (alpha, beta) in (section, fiber) coordinates adds the fiber
    beta/alpha, reduced with alpha >= 0.  The fiber slope alpha = 0 would add
    a fiber of multiplicity 0, which ``SeifertInvariants`` refuses; callers
    refuse it first, each with its own error.
    """
    filled = tuple(reduce_slope((beta, alpha))[::-1] for alpha, beta in slopes)
    return normalize(SeifertInvariants(b, tuple(fibers) + filled))


def compose_slope_maps(maps) -> SlopeMap:
    """Composite of the maps listed in application order (first applied first)."""
    maps = tuple(maps)
    if not maps:
        raise ValueError("need at least one slope map")
    out = maps[0]
    for f in maps[1:]:
        out = f @ out
    return out


class AllIntegers:
    """Symbolic value: every integer qualifies.  ``ALL_INTEGERS`` is the one
    instance."""

    def __repr__(self):
        return "All"

    def __contains__(self, k):
        return isinstance(k, int)


ALL_INTEGERS = AllIntegers()


def fixed_unit_fraction_slopes(f: SlopeMap):
    """All integers k with f(1/k) again of the form 1/k'.

    The image of (1, k) is (m11 + m12 k, m21 + m22 k).  Because the
    determinant is a unit, any common divisor of the two coordinates
    divides it, so the image numerator is already reduced: the unit-fraction
    condition is exactly m11 + m12 k = +/-1.  No search is needed.
    """
    if f.m12 == 0:
        return ALL_INTEGERS  # m11 is forced to +/-1 by the determinant
    out = set()
    for target in (1, -1):
        q, r = divmod(target - f.m11, f.m12)
        if r == 0:
            out.add(q)
    return frozenset(out)


def cable_gluing_matrix(p: int) -> SlopeMap:
    """Gluing between the two companion copies in the double branched cover
    of a (p, 2) cable, in the (longitude, meridian) ordered basis; sends the
    slope value x to p - x."""
    return SlopeMap(1, 0, p, -1)


def whitehead_gluing_matrix() -> SlopeMap:
    """Gluing between two companion copies in a cyclic branched cover of an
    untwisted double, in the (meridian, longitude) ordered basis."""
    return SlopeMap(-2, 1, -3, 2)


@dataclass(frozen=True)
class CableCaseRow:
    """One parametrized Seifert family from a satellite decomposition.

    The filled manifold is M(b; base fibers, f(k) repeated ``count`` times)
    with f(k) = (num[0] * k + num[1]) / (den[0] * k + den[1]); fibers are
    (alpha, beta) pairs.  ``reversed_`` asks for an orientation flip after
    assembly, and the family is expected horizontal for k <= k_max.
    Provisional rows were derived here by the same section and fiber
    bookkeeping as the published ones, keeping both unit-pairing sign
    choices where the orientation is undetermined, but have no printed
    counterpart.
    """

    label: str
    cover: tuple[int, int, int]
    count: int
    b: int
    base_fibers: tuple[tuple[int, int], ...]
    num: tuple[int, int]
    den: tuple[int, int]
    reversed_: bool
    k_max: int
    provisional: bool


# Columns: label, cover (n, p, q), count, b, base fibers, num and den of
# f(k), reversed_, k_max, provisional.  The comment is the row's eta value
# from its derivation.
_CABLE_ROWS = (
    CableCaseRow("c235", (2, 3, 5), 1, 1, ((2, -1), (5, -1)), (2, -3), (-6, 10), False, 0, False),  # eta = -3
    CableCaseRow("c253", (2, 5, 3), 1, 1, ((2, -1), (3, -1)), (2, -1), (-10, 6), False, 0, False),  # eta = -1
    CableCaseRow("c325a", (3, 2, 5), 1, 1, ((3, -1), (5, -1)), (3, -7), (-6, 15), False, 0, False),  # eta = -7
    CableCaseRow("c325b", (3, 2, 5), 1, 1, ((3, -1), (5, -1)), (-3, -8), (6, 15), False, -3, False),  # eta = -8
    CableCaseRow("c243a", (2, 4, 3), 1, 0, ((3, -1), (3, -1)), (2, 1), (4, 3), False, -2, False),  # eta = 1
    CableCaseRow("c243b", (2, 4, 3), 1, 0, ((3, -1), (3, -1)), (2, -2), (4, -3), False, 0, False),  # eta = 2
    CableCaseRow("c332a", (3, 3, 2), 1, 0, ((2, -1), (2, -1), (2, -1)), (3, 1), (3, 2), False, -2, False),  # eta = 1
    CableCaseRow("c332b", (3, 3, 2), 1, 0, ((2, -1), (2, -1), (2, -1)), (-3, 3), (-3, 2), False, 0, False),  # eta = 3
    CableCaseRow("c423a", (4, 2, 3), 1, 0, ((2, -1), (3, -1), (3, -1)), (4, 5), (4, 6), False, -2, False),  # eta = 5
    CableCaseRow("c423b", (4, 2, 3), 1, 0, ((2, -1), (3, -1), (3, -1)), (-4, 7), (-4, 6), False, 0, False),  # eta = 7
    CableCaseRow("c22q3a", (2, 2, 3), 1, 0, ((3, 1), (3, 1)), (2, -2), (-2, 3), False, 0, False),  # eta = -2
    CableCaseRow("c22q3b", (2, 2, 3), 1, 0, ((3, 1), (3, 1)), (-2, -4), (2, 3), False, -3, False),  # eta = -4
    CableCaseRow("c22q5a", (2, 2, 5), 1, 0, ((5, 2), (5, 2)), (2, -4), (-2, 5), False, 0, False),  # eta = -4
    CableCaseRow("c22q5b", (2, 2, 5), 1, 0, ((5, 2), (5, 2)), (-2, -6), (2, 5), False, -4, False),  # eta = -6
    CableCaseRow("c234", (2, 3, 4), 2, 0, ((2, 1),), (1, -1), (-3, 4), False, 0, False),  # eta = -1
    CableCaseRow("c432", (4, 3, 2), 2, 1, ((2, -1),), (2, -1), (-6, 4), False, 0, False),  # eta = -1
    CableCaseRow("c323a", (3, 2, 3), 3, 1, (), (1, -1), (-2, 3), False, 0, False),  # eta = -1
    CableCaseRow("c323b", (3, 2, 3), 3, 1, (), (-1, -2), (2, 3), False, -3, False),  # eta = -2
    CableCaseRow("c352", (3, 5, 2), 1, -2, ((2, 1), (3, 2)), (-12, 5), (-15, 6), False, 0, True),  # eta = 5
    CableCaseRow("c523a", (5, 2, 3), 1, -2, ((3, 2), (5, 4)), (5, 7), (10, 15), False, -2, True),  # eta = 7
    CableCaseRow("c523b", (5, 2, 3), 1, -2, ((3, 2), (5, 4)), (-5, 8), (-10, 15), False, 0, True),  # eta = 8
    CableCaseRow("c532", (5, 3, 2), 1, -2, ((2, 1), (5, 4)), (-10, 7), (-15, 10), False, 0, True),  # eta = 7
)
_CABLE_ROW_BY_LABEL = {row.label: row for row in _CABLE_ROWS}


def load_cable_rows() -> dict[str, CableCaseRow]:
    """Every cable family by label, in table order."""
    return dict(_CABLE_ROW_BY_LABEL)


def get_cable_row(label: str) -> CableCaseRow:
    if label not in _CABLE_ROW_BY_LABEL:
        known = ", ".join(sorted(_CABLE_ROW_BY_LABEL))
        raise NotationError(f"unknown cable case {quoted(label)}; known: {known}")
    return _CABLE_ROW_BY_LABEL[label]


def cable_family_invariants(row: CableCaseRow, k: int) -> SeifertInvariants:
    """Normalized invariants of the family member at parameter k: the row's
    piece filled along the slope (den(k), num(k)), ``count`` times."""
    num = row.num[0] * k + row.num[1]
    den = row.den[0] * k + row.den[1]
    if den == 0:
        raise DegenerateParameter(f"{row.label}: fiber undefined at k = {k}")
    si = fill_piece(row.b, row.base_fibers, ((den, num),) * row.count)
    if len(si.fibers) < 3:
        raise DegenerateParameter(
            f"{row.label}: k = {k} collapses to {len(si.fibers)} exceptional fibers"
        )
    if row.reversed_:
        si = reverse_orientation(si)
    return si


@dataclass(frozen=True)
class CableCheckReport:
    checked: tuple[int, ...]
    failures: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def cable_family_check(row: CableCaseRow, k_min: int, k_max: int) -> CableCheckReport:
    """Decide horizontality for every k in [k_min, k_max] that lies in the
    row's expected-horizontal range, reporting the k values that fail."""
    checked = tuple(range(k_min, min(k_max, row.k_max) + 1))
    failures = tuple(
        k for k in checked if not decide_horizontal(cable_family_invariants(row, k)).horizontal
    )
    return CableCheckReport(checked, failures)
