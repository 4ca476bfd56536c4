"""Words in a free group, stored as syllables (generator, nonzero exponent).

Construction performs one merging pass: maximal runs of a single generator
are summed and runs cancelling to zero are dropped.  It does not cascade,
so cancellations exposed by a dropped run are left for :func:`free_reduce`.
"""

from __future__ import annotations

from itertools import groupby

from .errors import ZeroExponent


class Word:
    """Immutable word over named generators."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        merged = []
        for gen, run in groupby(letters, key=lambda letter: letter[0]):
            total = 0
            for _, e in run:
                if not isinstance(e, int) or isinstance(e, bool) or e == 0:
                    raise ZeroExponent(f"letter ({gen!r}, {e!r}) has no valid exponent")
                total += e
            if total:
                merged.append((gen, total))
        object.__setattr__(self, "letters", tuple(merged))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def generators(self) -> set:
        return {g for g, _ in self.letters}

    def exponent_sum(self, gen) -> int:
        return sum(e for g, e in self.letters if g == gen)

    def __repr__(self):
        return f"Word({self!s})"

    def __str__(self):
        if not self.letters:
            return "1"
        return " ".join(g if e == 1 else f"{g}^{e}" for g, e in self.letters)


def free_reduce(w: Word) -> Word:
    """Freely reduced normal form: cascaded cancellation of adjacent
    inverse syllables.  Idempotent, and independent of reduction order."""
    stack: list[tuple] = []
    for g, e in w.letters:
        if stack and stack[-1][0] == g:
            total = stack[-1][1] + e
            stack.pop()
            if total:
                stack.append((g, total))
        else:
            stack.append((g, e))
    return Word(tuple(stack))
