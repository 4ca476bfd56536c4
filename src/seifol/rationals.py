"""Exact rational numbers, the number reader, and continued fractions.

All arithmetic in this package is exact; floating point is never used.
Rationals are the stdlib ``fractions.Fraction``.

Every number read from text goes through ``parse_int`` or ``parse_fraction``:
Python's ``int()`` grammar, and one short ``NotationError`` for a malformed or
over-long number.  Callers keep their own rules (zero denominators, lowest terms).

Continued fractions follow the convention

    a/b = p_1 + 1/(p_2 + 1/(... + 1/p_m))

with every term a nonzero integer.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateExpansion, NoEvenExpansion, NotationError

CANONICAL_POSITIVE = "canonical-positive"
EVEN_TERMS = "even-terms"
# the most characters of an input that a refusal repeats
QUOTE_CHARS = 40


def quoted(text: str) -> str:
    """How a refusal names its input: the ``repr`` of at most the first
    ``QUOTE_CHARS`` characters, followed by ``...`` when cut."""
    return f"{text[:QUOTE_CHARS]!r}{'...' if len(text) > QUOTE_CHARS else ''}"


def quoted_int(n: int) -> str:
    """How a refusal names an integer: all of it up to ``QUOTE_CHARS``
    digits, else its first ``QUOTE_CHARS`` digits followed by ``...``.  A
    longer integer is cut by division before it is printed, so this works
    past the interpreter's digit limit for ``str``."""
    size = abs(n)
    if size < 10**QUOTE_CHARS:
        return str(n)
    # log10(2) > 0.301029995, so 10**low <= 2**(bit_length - 1) <= |n|
    low = (size.bit_length() - 1) * 301029995 // 10**9
    head = str(size // 10 ** (low - QUOTE_CHARS + 1))
    return f"{'-' if n < 0 else ''}{head[:QUOTE_CHARS]}..."


def parse_int(text: str) -> int:
    """Read an integer in Python's ``int()`` grammar, or raise one short NotationError."""
    try:
        return int(text)
    except ValueError:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and sum(c.isdigit() for c in text) > limit:
            raise NotationError(f"integer longer than {limit} digits, the interpreter's limit") from None
        raise NotationError(f"not an integer: {quoted(text)}") from None


def parse_fraction(text: str) -> tuple[int, int | None]:
    """``"a/b"`` as ``(a, b)``, any ``b``, and ``"a"`` as ``(a, None)``."""
    num, slash, den = text.partition("/")
    return parse_int(num), parse_int(den) if slash else None


def parse_rational(text: str) -> Fraction:
    """Parse ``"a/b"`` or ``"a"`` into an exact rational."""
    num, den = parse_fraction(text)
    if den == 0:
        raise NotationError(f"zero denominator: {quoted(text)}")
    return Fraction(num, den or 1)


@dataclass(frozen=True)
class ContinuedFraction:
    """A bracket expansion ``[p_1, ..., p_m]`` with nonzero integer terms."""

    terms: tuple[int, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("continued fraction needs at least one term")
        for t in self.terms:
            if not isinstance(t, int) or isinstance(t, bool):
                raise ValueError(f"term {t!r} is not an integer")
            if t == 0:
                raise ValueError("continued fraction terms must be nonzero")

    def __str__(self) -> str:
        return "[" + ",".join(str(t) for t in self.terms) + "]"


def parse_continued_fraction(text: str) -> ContinuedFraction:
    """Parse a bracketed comma list such as ``"[2,-2]"``."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise NotationError(f"not a bracketed list: {quoted(text)}")
    body = s[1:-1].strip()
    if not body:
        raise NotationError("empty continued fraction")
    terms = tuple(parse_int(tok) for tok in body.split(","))
    try:
        return ContinuedFraction(terms)
    except ValueError as exc:
        raise NotationError(f"bad continued fraction {quoted(text)}: {exc}") from exc


def cf_eval(cf: ContinuedFraction) -> Fraction:
    """Evaluate a continued fraction to the exact rational it represents.

    Raises DegenerateExpansion if a tail evaluates to zero, which would
    force division by zero on the next step.
    """
    value = Fraction(cf.terms[-1])
    for p in reversed(cf.terms[:-1]):
        if value == 0:
            text = ",".join(quoted_int(t) for t in cf.terms)
            cut = "..." if len(text) > QUOTE_CHARS else ""
            raise DegenerateExpansion(f"zero intermediate denominator in [{text[:QUOTE_CHARS]}{cut}]")
        value = p + 1 / value
    return value


def _quoted_fraction(r: Fraction) -> str:
    """``str(r)`` with each integer quoted by ``quoted_int``."""
    if r.denominator == 1:
        return quoted_int(r.numerator)
    return f"{quoted_int(r.numerator)}/{quoted_int(r.denominator)}"


def cf_expand(r: Fraction, policy: str = CANONICAL_POSITIVE) -> ContinuedFraction:
    """Expand a rational into a continued fraction under the given policy.

    canonical-positive is greedy floor division.  Values in [0, 1) have no
    expansion with a nonzero leading term, so they are rejected.

    even-terms produces an expansion with every term even.  Such an
    expansion exists exactly when one of numerator and denominator is even
    and |r| > 1; otherwise NoEvenExpansion is raised.
    """
    r = Fraction(r)
    a, b = r.numerator, r.denominator
    if policy == CANONICAL_POSITIVE:
        if 0 <= r < 1:
            raise DegenerateExpansion(
                f"{_quoted_fraction(r)} lies in [0, 1); greedy expansion would need a zero leading term"
            )
    elif policy == EVEN_TERMS:
        if a % 2 == 1 and b % 2 == 1:
            raise NoEvenExpansion(f"{_quoted_fraction(r)} has odd numerator and denominator")
        if -1 < r < 1:
            raise NoEvenExpansion(f"{_quoted_fraction(r)} lies in (-1, 1); all tails of an even expansion exceed 1")
    else:
        raise ValueError(f"unknown expansion policy {policy!r}")
    terms = []
    while b != 1:
        # even-terms: the nearest even integer to a/b; parity forces
        # |a - p*b| < b, so there are no ties.  canonical-positive: the
        # floor, whose remainder is positive, so later terms are >= 1.
        p = 2 * ((a + b) // (2 * b)) if policy == EVEN_TERMS else a // b
        terms.append(p)
        a, b = b, a - p * b
        if b < 0:
            a, b = -a, -b
    terms.append(a)
    return ContinuedFraction(tuple(terms))
