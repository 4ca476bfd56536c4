"""Existence of horizontal foliations and the excellence verdict.

A normalized Seifert manifold over the two-sphere with ``n >= 3``
exceptional fibers carries a horizontal foliation exactly when one of
three conditions holds:

1. ``-(n - 2) <= b <= -2``;
2. ``b = -1`` and there are integers ``0 < a < m`` such that, after
   permuting the fibers, ``beta_1/alpha_1 < a/m``,
   ``beta_2/alpha_2 < (m - a)/m`` and ``beta_j/alpha_j < 1/m`` for the
   rest;
3. ``b = -(n - 1)`` and condition 2 holds for the orientation reversal.

Coprimality of ``a`` and ``m`` is deliberately not tested; it is redundant.

The witness search in condition 2 is exhaustive for ``m`` up to the largest
fiber multiplicity: any fiber in the last role forces
``m < alpha/beta <= max(alpha)``, and with ``n >= 3`` at least one fiber
plays that role, so no witness exists beyond the bound.  The first witness
in the order (smallest ``m``, then ``a``, then the ordered index pair) is
returned, so results are deterministic.

``decide_horizontal`` accepts only the forms the criterion covers
(normalized, three or more fibers) and always answers yes or no;
``decide_excellence`` settles every other form before it is called.
"""

from __future__ import annotations

from dataclasses import dataclass

from .seifert import SeifertInvariants, _euler_numerator, normalize, reverse_orientation

REASON_POSITIVE_B1 = "positive-b1"
REASON_HORIZONTAL = "horizontal-foliation"
REASON_LENS = "lens-type"
REASON_NO_HORIZONTAL = "no-horizontal-foliation"


@dataclass(frozen=True)
class Witness:
    """Condition-2 data: ``0 < a < m`` and the ordered pair of fiber indices
    playing the first two roles.  ``on_reverse`` marks a witness certified on
    the orientation reversal (condition 3)."""

    m: int
    a: int
    roles: tuple[int, int]
    on_reverse: bool = False


@dataclass(frozen=True)
class FoliationDecision:
    """``condition`` is the number of the condition that holds, and
    ``witness`` its data for conditions 2 and 3; both are ``None`` when no
    horizontal foliation exists."""

    horizontal: bool
    condition: int | None = None
    witness: Witness | None = None


@dataclass(frozen=True)
class ExcellenceVerdict:
    """``decision`` is the foliation decision the verdict rests on; it is
    ``None`` exactly when the foliation criterion was not applied: for
    reasons ``positive-b1`` and ``lens-type``, and for the verdicts of
    :func:`~seifol.torus_covers.classify_torus_cover`."""

    excellent: bool
    reason: str
    decision: FoliationDecision | None = None

    @property
    def kind(self) -> str:
        return "Excellent" if self.excellent else "TotalLSpace"


def witness_search(
    fibers: tuple[tuple[int, int], ...], m_max: int | None = None
) -> tuple[int, int, tuple[int, int]] | None:
    """First (m, a, (i, j)) satisfying the condition-2 inequalities.

    ``m`` runs from 2 to ``m_max`` (default: the largest multiplicity).
    Pure integer arithmetic; exactness is preserved by cross-multiplying.
    """
    n = len(fibers)
    if m_max is None:
        m_max = max(a for a, _ in fibers)
    for m in range(2, m_max + 1):
        # role-3 test beta/alpha < 1/m, precomputed per fiber
        hard = [idx for idx, (al, be) in enumerate(fibers) if be * m >= al]
        if len(hard) > 2:
            continue
        hard_set = set(hard)
        for a in range(1, m):
            for i in range(n):
                ai, bi = fibers[i]
                if bi * m >= a * ai:
                    continue
                for j in range(n):
                    if j == i:
                        continue
                    aj, bj = fibers[j]
                    if bj * m >= (m - a) * aj:
                        continue
                    if hard_set <= {i, j}:
                        return m, a, (i, j)
    return None


def verify_witness(si: SeifertInvariants, m: int, a: int, roles: tuple[int, int]) -> bool:
    """Re-check the three strict inequalities for an explicit witness."""
    if not (0 < a < m):
        return False
    i, j = roles
    fibers = si.fibers
    if i == j or not (0 <= i < len(fibers) and 0 <= j < len(fibers)):
        return False
    ai, bi = fibers[i]
    aj, bj = fibers[j]
    if bi * m >= a * ai or bj * m >= (m - a) * aj:
        return False
    return all(be * m < al for idx, (al, be) in enumerate(fibers) if idx not in (i, j))


def has_witness(si: SeifertInvariants, m: int, a: int) -> bool:
    """True when some role assignment validates the pair ``(m, a)``."""
    n = len(si.fibers)
    return any(
        verify_witness(si, m, a, (i, j)) for i in range(n) for j in range(n) if i != j
    )


def decide_horizontal(si: SeifertInvariants) -> FoliationDecision:
    """Apply the three-condition criterion to a normalized Seifert form.

    Raises ``ValueError`` for unnormalized input or fewer than three fibers;
    those forms belong to :func:`decide_excellence`.
    """
    if not si.normalized:
        raise ValueError("the criterion needs a normalized form")
    n = len(si.fibers)
    if n < 3:
        raise ValueError("the criterion needs at least 3 exceptional fibers")
    b = si.b
    if -(n - 2) <= b <= -2:
        return FoliationDecision(True, condition=1)
    if b == -1 or b == -(n - 1):
        # condition 3 is condition 2 on the orientation reversal
        on_reverse = b != -1
        found = witness_search((reverse_orientation(si) if on_reverse else si).fibers)
        if found:
            m, a, roles = found
            return FoliationDecision(True, 3 if on_reverse else 2, Witness(m, a, roles, on_reverse))
    return FoliationDecision(False)


def decide_excellence(si: SeifertInvariants) -> ExcellenceVerdict:
    """Excellent versus total-L-space status of a Seifert manifold.

    Zero Euler number means positive first Betti number, hence excellent.
    A lens-type manifold (at most two fibers) has finite cyclic fundamental
    group, never left-orderable.  Otherwise the horizontal-foliation
    criterion decides, and its decision is kept on the verdict.
    """
    nsi = normalize(si)
    if _euler_numerator(nsi)[0] == 0:
        return ExcellenceVerdict(True, REASON_POSITIVE_B1)
    if len(nsi.fibers) <= 2:
        return ExcellenceVerdict(False, REASON_LENS)
    decision = decide_horizontal(nsi)
    reason = REASON_HORIZONTAL if decision.horizontal else REASON_NO_HORIZONTAL
    return ExcellenceVerdict(decision.horizontal, reason, decision)
