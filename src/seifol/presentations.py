"""Group presentations of branched covers and the coarse order obstruction.

The obstruction is sign-level only: in a left-ordered group a product of
elements that are all positive (or all negative) cannot be the identity.
A {+,-} labeling of the generators under which some relator becomes such a
product is impossible, so if every labeling is impossible the group admits
no left order in which all generators are nontrivial.  The labelings are
searched depth first with pruning: a partial labeling is abandoned as soon
as one of its fully labeled relators is a same-sign product, and only
labelings with the first generator positive are searched, since negating a
labeling preserves every verdict.  Refined inequality arguments that kill
individual surviving labelings are out of scope here; survivors are
reported as data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import IndivisibleSurgery, NotationError, TooManyGenerators
from .rationals import parse_int, quoted, quoted_int
from .snf import cokernel_order
from .words import Word

PLUS = "+"
MINUS = "-"

GENERATOR_CAP = 24


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        declared = set(self.generators)
        for rel in self.relators:
            undeclared = rel.generators() - declared
            if undeclared:
                raise ValueError(f"relator uses undeclared generators {quoted(' '.join(sorted(undeclared)))}")

    def abelianization_matrix(self) -> list[list[int]]:
        return [[rel.exponent_sum(g) for g in self.generators] for rel in self.relators]

    def abelianization_order(self) -> int | None:
        """Order of the abelianized group, as the cokernel order of the exponent-sum
        matrix (:func:`seifol.snf.cokernel_order`); None if infinite."""
        return cokernel_order(self.abelianization_matrix(), len(self.generators))


@dataclass(frozen=True)
class ObstructionReport:
    obstructed: bool
    assignments_checked: int
    survivors: tuple[tuple[str, ...], ...] = ()
    # The certificate assumes every generator is nontrivial; trivial
    # generators must be excluded by a separate argument.
    nontriviality_assumed: bool = field(default=True)


def coarse_obstruction(pres: GroupPresentation) -> ObstructionReport:
    """Decide every {+,-} assignment, rejecting those under which some
    relator is a same-sign product.

    A letter (g, e) contributes sign(e) * sigma(g); a relator is violated
    when every contribution agrees.  With bit i of sigma set when generator
    i is "+", a relator whose generators occur only with positive exponents
    in ``pos`` and only with negative ones in ``neg`` is violated exactly
    when ``sigma & (pos | neg)`` is ``pos`` or ``neg``.  A generator
    appearing with both exponent signs keeps its relator from ever being
    violated, so such relators are dropped.

    Each relator is checked at the depth of its last generator, and a
    branch dies there if it is violated.  Only sigma(g_0) = "+" is searched;
    the "-" half is the negation of those survivors.  ``assignments_checked``
    counts all 2^n assignments decided, pruned ones included.  Survivors
    are returned sorted ("+" before "-"); an empty survivor list is the
    obstruction certificate.
    """
    gens = pres.generators
    n = len(gens)
    if n > GENERATOR_CAP:
        raise TooManyGenerators(f"{n} generators exceeds cap {GENERATOR_CAP}")
    if not n:
        return ObstructionReport(False, 1, ((),))
    index = {g: i for i, g in enumerate(gens)}
    # checks[d]: (mask, pos, neg) of the relators whose last generator is d
    checks = [[] for _ in gens]
    for rel in pres.relators:
        pos = neg = 0
        for g, e in rel.letters:
            if e > 0:
                pos |= 1 << index[g]
            else:
                neg |= 1 << index[g]
        if (pos or neg) and not pos & neg:
            mask = pos | neg
            checks[mask.bit_length() - 1].append((mask, pos, neg))
    plus, minus = (PLUS,), (MINUS,)
    found, negated = [], []
    # (sigma, depth, signs, negated signs); "-" children are pushed first
    # so that "+" children are popped first and survivors come out sorted
    stack = [] if checks[0] else [(1, 1, plus, minus)]
    while stack:
        sigma, depth, signs, flipped = stack.pop()
        if depth == n:
            found.append(signs)
            negated.append(flipped)
            continue
        for child, s, f in ((sigma, minus, plus), (sigma | 1 << depth, plus, minus)):
            for mask, pos, neg in checks[depth]:
                part = child & mask
                if part == pos or part == neg:
                    break
            else:
                stack.append((child, depth + 1, signs + s, flipped + f))
    negated.reverse()
    survivors = tuple(found + negated)
    return ObstructionReport(not survivors, 1 << n, survivors)


def present_two_bridge_cover(k: int, l: int, n: int) -> GroupPresentation:
    """Fundamental group of the n-fold cyclic branched cover of the
    two-bridge knot with bracket expansion [2l, -2k].

    Generators x_0 ... x_{n-1}; for each i mod n the relator

        (x_i^-k x_{i+1}^k)^l (x_{i+2}^-k x_{i+1}^k)^(l-1) (x_{i+2}^-k x_{i+1}^(k-1))

    plus the product relation x_0 x_1 ... x_{n-1} = 1.
    """
    if k < 1 or l < 1:
        raise ValueError("twist parameters must be positive")
    if n < 2:
        raise ValueError("cover order must be at least 2")
    names = tuple(f"x{i}" for i in range(n))
    relators = []
    for i in range(n):
        xi, xi1, xi2 = names[i], names[(i + 1) % n], names[(i + 2) % n]
        letters = []
        letters += [(xi, -k), (xi1, k)] * l
        letters += [(xi2, -k), (xi1, k)] * (l - 1)
        letters.append((xi2, -k))
        if k > 1:
            letters.append((xi1, k - 1))
        relators.append(Word(letters))
    relators.append(Word([(g, 1) for g in names]))
    return GroupPresentation(names, tuple(relators))


def present_pretzel_cover(k: int, l: int, m: int) -> GroupPresentation:
    """Fundamental group of the threefold cyclic branched cover of the
    (2k+1, 2l+1, 2m+1) pretzel knot.

    Generators x_0, x_1, x_2, y_0, y_1, y_2; for each i mod 3 the relators

        (x_i y_i^-1)^m x_i (x_{i+1} y_{i+1}^-1)^-m y_{i+1}^(k+1) y_i^-(k+1)
        y_i^(k+1) y_{i+1}^-k x_{i+1}^-(l+1) x_i^l

    plus the branching relations x_0 x_1 x_2 = 1 and y_0 y_1 y_2 = 1,
    which are ordinary relators here.
    """
    if k < 1 or l < 1 or m < 1:
        raise ValueError("pretzel parameters must be positive")
    xs = ("x0", "x1", "x2")
    ys = ("y0", "y1", "y2")
    relators = []
    for i in range(3):
        j = (i + 1) % 3
        first = [(xs[i], 1), (ys[i], -1)] * m
        first += [(xs[i], 1)]
        first += [(ys[j], 1), (xs[j], -1)] * m  # (x_j y_j^-1)^-m expanded
        first += [(ys[j], k + 1), (ys[i], -(k + 1))]
        relators.append(Word(first))
    for i in range(3):
        j = (i + 1) % 3
        relators.append(Word([(ys[i], k + 1), (ys[j], -k), (xs[j], -(l + 1)), (xs[i], l)]))
    relators.append(Word([(g, 1) for g in xs]))
    relators.append(Word([(g, 1) for g in ys]))
    return GroupPresentation(xs + ys, tuple(relators))


def pretzel_exterior_relators(k: int, l: int, m: int) -> tuple[Word, Word, Word]:
    """The three relators of the (2k+1, 2l+1, 2m+1) pretzel knot group on
    meridians x, y, z.  Their product is trivial in the free group, which is
    why one of them is redundant."""
    if k < 1 or l < 1 or m < 1:
        raise ValueError("pretzel parameters must be positive")
    # relator i is one expression in (a, b, c) = the meridians rotated i
    # times and twists (p, q) = (m, k), (k, l), (l, m)
    gens, twists = ("x", "y", "z"), (m, k, l)
    relators = []
    for i in range(3):
        a, b, c = gens[i], gens[(i + 1) % 3], gens[(i + 2) % 3]
        p, q = twists[i], twists[(i + 1) % 3]
        relators.append(
            Word(
                [(a, 1), (b, -1)] * p
                + [(a, 1)]
                + [(b, 1), (a, -1)] * p
                + [(b, 1), (c, -1)] * (q + 1)
                + [(c, -1)]
                + [(c, 1), (b, -1)] * (q + 1)
            )
        )
    return tuple(relators)


@dataclass(frozen=True)
class PretzelSurgery:
    """Surgery description of a branched cover of a two-bridge knot from the
    [2(2k+1), +/-(2l+1)] family: 1/d surgery on an n-strand pretzel knot."""

    strands: tuple[int, ...]
    coefficient: Fraction
    orientation_reversed: bool


def pretzel_surgery_description(n: int, k: int, l: int, sign: str) -> PretzelSurgery:
    """For n dividing 2k+1, the n-fold cover is (sign 1/d)-surgery on the
    pretzel knot with n strands of 2l+1 half-twists, d = (2k+1)/n; the
    positive-sign cover carries the reversed orientation."""
    if n <= 1 or k < 1 or l < 1:
        raise ValueError("need n > 1 and positive twist parameters")
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if (2 * k + 1) % n != 0:
        raise IndivisibleSurgery(f"{quoted_int(n)} does not divide 2k+1 = {quoted_int(2 * k + 1)}")
    d = (2 * k + 1) // n
    coeff = Fraction(1, d) if sign == "+" else Fraction(-1, d)
    return PretzelSurgery(((2 * l + 1),) * n, coeff, sign == "+")


def parse_presentation(text: str) -> GroupPresentation:
    """Parse ``gens: a b c; rel: a b c; rel: a^-1 b`` into a presentation."""
    chunks = [c.strip() for c in text.replace("\n", ";").split(";") if c.strip()]
    gens: tuple[str, ...] | None = None
    relators = []
    for chunk in chunks:
        if chunk.startswith("gens:"):
            if gens is not None:
                raise NotationError("multiple 'gens:' sections")
            gens = tuple(chunk[len("gens:") :].split())
        elif chunk.startswith("rel:"):
            letters = []
            for tok in chunk[len("rel:") :].split():
                name, caret, exp = tok.partition("^")
                if not (name.isascii() and name.isidentifier()):
                    raise NotationError(f"bad letter {quoted(tok)}")
                exp = parse_int(exp) if caret else 1
                if exp == 0:
                    raise NotationError(f"zero exponent in {quoted(tok)}")
                letters.append((name, exp))
            relators.append(Word(letters))
        else:
            raise NotationError(f"unrecognized section {quoted(chunk)}")
    if gens is None:
        raise NotationError("missing 'gens:' section")
    try:
        return GroupPresentation(gens, tuple(relators))
    except ValueError as exc:
        raise NotationError(str(exc)) from exc
