"""External consistency: first homology of every computable branched cover
must match the torus-knot Alexander polynomial evaluated over roots of unity,
computed exactly with resultants.  This oracle shares no code with the
Seifert-invariant formulas it checks."""

import sympy as sp

from seifol.seifert import h1_order
from seifol.torus_covers import branched_invariants, sweep_queries

t = sp.symbols("t")


def alexander_torus(p, q):
    num = (t ** (p * q) - 1) * (t - 1)
    den = (t**p - 1) * (t**q - 1)
    poly, rem = sp.div(sp.expand(num), sp.expand(den), t)
    assert rem == 0
    return sp.Poly(poly, t)


def branched_h1_from_alexander(n, p, q):
    """|prod over nontrivial n-th roots of unity| of the Alexander polynomial;
    zero signals infinite first homology."""
    delta = alexander_torus(p, q)
    res = sp.resultant(sp.Poly(t**n - 1, t), delta)
    return abs(int(sp.Integer(res) / delta.eval(1)))


def test_h1_matches_alexander_oracle_on_sweep():
    checked = 0
    for qr in sweep_queries(9, 9, 9):
        result = branched_invariants(qr)
        if not result.known:
            continue
        checked += 1
        mine = h1_order(result.invariants).order
        oracle = branched_h1_from_alexander(qr.n, qr.p, qr.q)
        expected = None if oracle == 0 else oracle
        assert mine == expected, (qr, mine, expected)
    assert checked == 146
