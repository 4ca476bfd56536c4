"""Dehn fillings of torus-link exteriors along regular fibers.

The exterior of the (dr, ds) torus link is Sigma(r, s, 1), the three-sphere
fibered by (r, s) torus knots, with d regular fibers drilled out; its form
is ``torus_covers.brieskorn_invariants(r, s, 1)``, the covers' formula.  It
is filled along one slope per component.  In the meridian-fiber basis the
fiber slope is excluded; every other multislope yields a Seifert manifold
over the two-sphere, filled by ``gluing.fill_piece``.

Slopes are primitive integer pairs ``(a, c)`` in the meridian-longitude
basis; ``a/c``-notation puts the meridian coefficient first.  The longitude
and fiber differ by ``fiber = longitude + rs * meridian``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import FiberSlopeFilling, NotationError
from .foliation import ExcellenceVerdict, decide_excellence
from .gluing import fill_piece
from .rationals import QUOTE_CHARS, parse_fraction, quoted, quoted_int
from .seifert import SeifertInvariants, reverse_orientation
from .torus_covers import brieskorn_invariants

@dataclass(frozen=True)
class Slope:
    a: int
    c: int

    def __post_init__(self):
        if (self.a, self.c) == (0, 0):
            raise ValueError("slope cannot be zero")
        if gcd(abs(self.a), abs(self.c)) != 1:
            raise ValueError(f"slope ({self.a}, {self.c}) is not primitive")

    def __str__(self) -> str:
        return f"{self.a}/{self.c}"


def parse_slope(text: str) -> Slope:
    a, c = parse_fraction(text)  # 1/0 is the meridian
    try:
        return Slope(a, 1 if c is None else c)
    except ValueError as exc:
        # the constructor's message repeats both numbers, so past the quoting
        # limit only the rule is named; (0, 0) is not primitive either
        reason = exc if len(text) <= QUOTE_CHARS else "not primitive"
        raise NotationError(f"bad slope {quoted(text)}: {reason}") from exc


@dataclass(frozen=True)
class TorusLinkExterior:
    """Exterior of the (dr, ds) torus link, gcd(r, s) = 1: Sigma(r, s, 1)
    with d regular fibers drilled out.

    A single component needs r, s >= 2, and the unlink-like case
    r = s = 1 needs at least three components; those hypotheses make the
    filling recipe valid.
    """

    d: int
    r: int
    s: int

    def __post_init__(self):
        if self.d < 1 or self.r < 1 or self.s < 1:
            raise ValueError("component count and torus parameters must be positive")
        if gcd(self.r, self.s) != 1:
            raise ValueError(f"r = {quoted_int(self.r)} and s = {quoted_int(self.s)} must be coprime")
        if self.d == 1 and (self.r < 2 or self.s < 2):
            raise ValueError("a single component requires r, s >= 2")
        if self.r == 1 and self.s == 1 and self.d < 3:
            raise ValueError("r = s = 1 requires at least 3 components")


def ml_to_mf(sl: Slope, r: int, s: int) -> tuple[int, int]:
    """Coefficients of a meridian-longitude slope in the meridian-fiber
    basis: a*mu + c*lambda = (a - c*r*s)*mu + c*phi."""
    return sl.a - sl.c * r * s, sl.c


def fill(ext: TorusLinkExterior, slopes, mirror: bool = False) -> SeifertInvariants:
    """Normalized invariants of the filled exterior.

    The piece is ``brieskorn_invariants(r, s, 1)``, each component a regular
    fiber of it.  One meridian-longitude slope per component; a*mu + c*lambda
    is the slope (a - c*r*s, -c) of ``fill_piece``.  A slope with
    ``a - c*r*s = 0`` runs along the fiber and is rejected: that filling is
    not covered by this recipe.  With ``mirror=True`` the surgery is done on
    the mirror link, computed by negating every slope and reversing the
    orientation of the result.
    """
    slopes = tuple(slopes)
    if len(slopes) != ext.d:
        raise ValueError(f"expected {quoted_int(ext.d)} slopes, got {len(slopes)}")
    if mirror:
        flipped = tuple(Slope(-sl.a, sl.c) for sl in slopes)
        return reverse_orientation(fill(ext, flipped))
    filling = []
    for sl in slopes:
        am, c = ml_to_mf(sl, ext.r, ext.s)
        if am == 0:
            raise FiberSlopeFilling(f"slope {sl} is the fiber slope of T({ext.d * ext.r},{ext.d * ext.s})")
        filling.append((am, -c))
    sphere = brieskorn_invariants(ext.r, ext.s, 1)
    return fill_piece(sphere.b, sphere.fibers, filling)


def negative_surgery_is_excellent(ext: TorusLinkExterior, ks) -> ExcellenceVerdict:
    """Verdict for the multislope (-k_1, ..., -k_d) with every k_i >= 2."""
    ks = tuple(ks)
    if len(ks) != ext.d:
        raise ValueError(f"expected {ext.d} surgery coefficients, got {len(ks)}")
    if any(k < 2 for k in ks):
        raise ValueError("surgery coefficients must be at least 2")
    return decide_excellence(fill(ext, tuple(Slope(-k, 1) for k in ks)))
