"""Small constructions that only the tests use.

Each restates a fact from a derivation (a witness, a matrix factorization)
or reads a value in a way the package itself has no use for.
"""

from seifol.gluing import SlopeMap
from seifol.presentations import MINUS, PLUS
from seifol.words import Word

MIXED = "mixed"
ABSENT = "absent"


def torus_fiber_betas(r: int, s: int) -> tuple[int, int]:
    """The numerators (beta_1, beta_2) of the exceptional fibers beta_1/r and
    beta_2/s of the three-sphere fibered by (r, s) torus knots:
    beta_1 s + beta_2 r = -1 and 0 <= beta_2 < s, for coprime r and s."""
    beta2 = (-pow(r, -1, s)) % s
    beta1, rem = divmod(-1 - beta2 * r, s)
    assert rem == 0
    return beta1, beta2


def base_fibers(r: int, s: int) -> tuple[tuple[int, int], ...]:
    """The fibers (beta_1 + r)/r and beta_2/s that make M(-1; ...) the
    three-sphere fibered by (r, s) torus knots: derived by hand, apart from
    the Neumann--Raymond formula it checks.  An entry of multiplicity one is
    a regular fiber, which normalization drops."""
    beta1, beta2 = torus_fiber_betas(r, s)
    return ((r, beta1 + r), (s, beta2))


def reference_witness(r: int, s: int) -> tuple[int, int]:
    """The pair (m, a) = (rs + 1, beta_2 r + 1) that always validates the
    negative-surgery fillings when r, s >= 2."""
    if r < 2 or s < 2:
        raise ValueError("reference witness needs r, s >= 2")
    _, beta2 = torus_fiber_betas(r, s)
    return r * s + 1, beta2 * r + 1


def sign_profile(rel: Word, generators) -> dict[str, str]:
    """Per-generator exponent signs in one relator: "+", "-", "mixed" or "absent"."""
    out = {}
    for g in generators:
        signs = {e > 0 for gg, e in rel.letters if gg == g}
        if not signs:
            out[g] = ABSENT
        elif signs == {True}:
            out[g] = PLUS
        elif signs == {False}:
            out[g] = MINUS
        else:
            out[g] = MIXED
    return out


def inverse(w: Word) -> Word:
    return Word(tuple((g, -e) for g, e in reversed(w.letters)))


def identity_map() -> SlopeMap:
    return SlopeMap(1, 0, 0, 1)


def inverse_map(f: SlopeMap) -> SlopeMap:
    d = f.det
    return SlopeMap(f.m22 * d, -f.m12 * d, -f.m21 * d, f.m11 * d)


def swap_basis(f: SlopeMap) -> SlopeMap:
    """Conjugate by the basis swap, converting between the two coordinate
    orders of a boundary torus."""
    return SlopeMap(f.m22, f.m21, f.m12, f.m11)


def cable_composition_factors(r: int) -> tuple[SlopeMap, SlopeMap, SlopeMap]:
    """The factors A, B, A^-1 whose application-order composite is the cable
    gluing matrix for p = 2r + 1."""
    a = SlopeMap(r + 1, -1, -r, 1)
    b = SlopeMap(0, 1, 1, 0)
    return a, b, inverse_map(a)


def whitehead_composition_factors() -> tuple[SlopeMap, SlopeMap, SlopeMap]:
    """Application-order factors of the doubling matrix: rewrite boundary
    coordinates into the clasp-link basis (meridian m, zero-framed
    longitude b), swap the two components, and rewrite back."""
    into_clasp = SlopeMap(-2, 1, 1, 0)  # mu -> -2m + b, lambda -> m
    swap = SlopeMap(0, 1, 1, 0)  # m <-> b
    back = SlopeMap(0, 1, 1, 2)  # m -> lambda, b -> mu + 2 lambda
    return into_clasp, swap, back
