"""Exception hierarchy shared by all modules.

Every domain error carries a stable ``code`` string so the command-line
front end can report it in machine-readable output.
"""


class SeifolError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "domain-error"


class DegenerateExpansion(SeifolError):
    """A continued fraction hits a zero intermediate denominator."""

    code = "degenerate-expansion"


class NoEvenExpansion(SeifolError):
    """The requested all-even continued fraction does not exist."""

    code = "no-even-expansion"


class FiberSlopeFilling(SeifolError):
    """A filling slope coincides with the fiber slope of the boundary torus."""

    code = "fiber-slope-filling"


class DegenerateParameter(SeifolError):
    """A parametrized fiber family is undefined or collapses at this parameter."""

    code = "degenerate-parameter"


class ZeroExponent(SeifolError):
    """A word template contains a zero power."""

    code = "zero-exponent"


class TooManyGenerators(SeifolError):
    """More generators than the sign-assignment search accepts (``GENERATOR_CAP``)."""

    code = "too-many-generators"


class IndivisibleSurgery(SeifolError):
    """The cover order does not divide the twisting parameter."""

    code = "indivisible-surgery"


class NotationError(SeifolError):
    """Unparseable text input (rational, Seifert form, presentation, ...)."""

    code = "notation-error"
