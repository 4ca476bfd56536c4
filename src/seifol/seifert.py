"""Seifert invariants over the two-sphere base.

A value ``M(b; beta_1/alpha_1, ..., beta_n/alpha_n)`` is stored as the
integer part ``b`` together with ``(alpha, beta)`` pairs.  Conventions:

* every pair is coprime, ``alpha >= 1``, and ``beta = 0`` forces ``alpha = 1``;
* the Euler number is ``e = b + sum(beta_i/alpha_i)``;
* a representation is *normalized* when every fiber has ``alpha >= 2`` and
  ``0 < beta < alpha`` (integer parts absorbed into ``b``);
* orientation reversal negates ``b`` and every ``beta``.

Only the orientable two-sphere base is supported: that covers every
computation this package performs, and the constructor has no base field
to set.  Values are immutable and all operations are pure, so everything
here is safe for concurrent use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import NotationError
from .rationals import parse_fraction, quoted
from .snf import cokernel_order


@dataclass(frozen=True)
class SeifertInvariants:
    b: int
    fibers: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not isinstance(self.b, int) or isinstance(self.b, bool):
            raise ValueError(f"integer part must be an int, got {self.b!r}")
        for alpha, beta in self.fibers:
            if alpha < 1:
                raise ValueError(f"fiber multiplicity {alpha} must be positive")
            if gcd(alpha, beta) != 1:
                raise ValueError(f"fiber {beta}/{alpha} is not reduced")
            if beta == 0 and alpha != 1:
                raise ValueError("a zero fiber must have multiplicity 1")

    @property
    def normalized(self) -> bool:
        """True when every fiber satisfies 0 < beta < alpha with alpha >= 2."""
        return all(a >= 2 and 0 < be < a for a, be in self.fibers)

    def __str__(self) -> str:
        return format_seifert(self)


@dataclass(frozen=True)
class H1Order:
    """Order of first homology: a positive integer, or None for infinite."""

    order: int | None

    def __post_init__(self):
        if self.order is not None and self.order < 1:
            raise ValueError("finite homology order must be positive")

    @property
    def is_finite(self) -> bool:
        return self.order is not None

    @classmethod
    def finite(cls, order: int) -> "H1Order":
        return cls(order)

    @classmethod
    def infinite(cls) -> "H1Order":
        return cls(None)


def normalize(si: SeifertInvariants) -> SeifertInvariants:
    """Canonical representative of the same oriented manifold.

    Integer parts of the fibers are absorbed into ``b``, multiplicity-one
    fibers disappear, and the remaining fibers are sorted so that equal
    manifolds compare equal.  The Euler number is preserved exactly.  A
    form that is already normalized and sorted is returned as it is.
    """
    b = si.b
    out = []
    for alpha, beta in si.fibers:
        if alpha == 1:
            b += beta
            continue
        r = beta % alpha  # in 1..alpha-1 because gcd(alpha, beta) = 1
        b += (beta - r) // alpha
        out.append((alpha, r))
    fibers = tuple(sorted(out))
    if b == si.b and fibers == si.fibers:
        return si
    return SeifertInvariants(b, fibers)


def reverse_orientation(si: SeifertInvariants) -> SeifertInvariants:
    """Invariants of the same manifold with the opposite orientation.

    Negates ``b`` and every fiber.  A normalized input gives the normalized
    form of that negation, ``M(-b - n; (alpha_i - beta_i)/alpha_i)`` sorted:
    each ``-beta_i/alpha_i`` is ``-1 + (alpha_i - beta_i)/alpha_i``.
    """
    if si.normalized:
        fibers = tuple(sorted((a, a - be) for a, be in si.fibers))
        return SeifertInvariants(-si.b - len(si.fibers), fibers)
    return SeifertInvariants(-si.b, tuple((a, -be) for a, be in si.fibers))


def _euler_numerator(si: SeifertInvariants) -> tuple[int, int]:
    """``(N, L)`` with ``e = N / L`` over the common denominator
    ``L = lcm(alpha_i)``, not reduced; e vanishes exactly when N does."""
    common = lcm(*(a for a, _ in si.fibers))
    return si.b * common + sum(be * (common // a) for a, be in si.fibers), common


def euler_number(si: SeifertInvariants) -> Fraction:
    """Exact Euler number ``b + sum(beta_i / alpha_i)``, summed in integers
    over the common denominator ``L = lcm(alpha_i)``."""
    return Fraction(*_euler_numerator(si))


def h1_order(si: SeifertInvariants) -> H1Order:
    """Order of first homology, by the closed formula |e| * prod(alpha).

    Infinite exactly when the Euler number vanishes.  With ``e = N / L`` the
    order is ``|N| * prod(alpha) // L``, exact because ``L = lcm(alpha_i)``
    divides the product.  Cross-checked in the test suite against
    :func:`h1_order_snf`, the cokernel order of the presentation matrix from
    :func:`homology_presentation`.
    """
    num, common = _euler_numerator(si)
    if num == 0:
        return H1Order.infinite()
    return H1Order.finite(abs(num) * prod(a for a, _ in si.fibers) // common)


def homology_presentation(si: SeifertInvariants) -> list[list[int]]:
    """Presentation matrix for H_1: one column per fiber class plus the
    regular-fiber class, rows ``alpha_i x_i + beta_i h`` and
    ``x_1 + ... + x_n - b h``."""
    n = len(si.fibers)
    rows = []
    for i, (alpha, beta) in enumerate(si.fibers):
        row = [0] * (n + 1)
        row[i] = alpha
        row[n] = beta
        rows.append(row)
    rows.append([1] * n + [-si.b])
    return rows


def h1_order_snf(si: SeifertInvariants) -> H1Order:
    """Same quantity as :func:`h1_order`, computed independently of the closed
    formula as the cokernel order of :func:`homology_presentation`."""
    order = cokernel_order(homology_presentation(si), len(si.fibers) + 1)
    return H1Order.finite(order) if order is not None else H1Order.infinite()


def parse_seifert(text: str) -> SeifertInvariants:
    """Parse the notation ``M(b; b1/a1, b2/a2, ...)``.

    The semicolon is optional and whitespace is ignored.  A leading integer
    token is the integer part ``b``; integer tokens elsewhere are
    multiplicity-one fibers.  ``M(0)`` is the empty fibration.
    """
    s = re.sub(r"\s+", "", text)
    m = re.match(r"^M\((.*)\)$", s)
    if not m:
        raise NotationError(f"not a Seifert form: {quoted(text)}")
    body = m.group(1)
    if not body:
        raise NotationError("empty Seifert form; write M(0) for the trivial case")
    tokens = re.split(r"[;,]", body)
    b = 0
    fibers: list[tuple[int, int]] = []
    for pos, tok in enumerate(tokens):
        num, den = parse_fraction(tok)
        if den is None:
            if pos == 0:
                b = num
            else:
                fibers.append((1, num))
            continue
        if den == 0:
            raise NotationError(f"zero multiplicity in token {quoted(tok)}")
        if den < 0:  # store multiplicities positive
            num, den = -num, -den
        if gcd(den, num) != 1:
            raise NotationError(f"fiber {quoted(tok)} is not in lowest terms")
        fibers.append((den, num))
    return SeifertInvariants(b, tuple(fibers))


def format_seifert(si: SeifertInvariants) -> str:
    if not si.fibers:
        return f"M({si.b})"
    body = ", ".join(f"{be}/{a}" for a, be in si.fibers)
    return f"M({si.b}; {body})"
