"""The four workloads.

Each workload makes seeded blocks of inputs (``block``), answers one input
with calls into seifol (``run``, the timed part) and judges the answer with
the independent code in ``checks`` (``check``, untimed).  ``check`` returns
``None`` for a correct answer, ``UNSUPPORTED`` when the package declined to
answer, and otherwise a message describing the mismatch.

Every block holds a fixed number of inputs of each kind, shuffled, so that
seeds change the inputs but not the mix; that keeps medians and tail
percentiles steady from seed to seed.  Calls go through module attributes
(``seifol.fill``, ``seifol.cli.main``) so that the traced run sees them.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd

import checks
import seifol
import seifol.cli
import seifol.seifert

UNSUPPORTED = "unsupported"


def _beta(rng, alpha):
    """A random numerator coprime to alpha in 1..alpha-1."""
    while True:
        beta = rng.randint(1, alpha - 1)
        if gcd(alpha, beta) == 1:
            return beta


def _fibers(rng, n, lo=2, hi=30):
    out = []
    for _ in range(n):
        alpha = rng.randint(lo, hi)
        out.append((alpha, _beta(rng, alpha)))
    return out


def _same_verdict(verdict, b, fibers):
    expected = checks.excellence(b, fibers)
    if (verdict.excellent, verdict.reason) != expected:
        return f"verdict {verdict.excellent}/{verdict.reason}, expected {expected}"
    return None


# -- decide ----------------------------------------------------------------------


class Decide:
    """Seifert forms in notation: parse, decide excellence, order of H_1."""

    def block(self, rng):
        # 24 tight forms over 12 depth strata, half with the two large
        # ratios summing past 1, plus one deepest refutation: 2 % of the
        # items, so the 99th percentile falls inside that one class.
        forms = [self._tight(rng, 0.8 * (k // 2 + rng.random()) / 12, over=k % 2) for k in range(24)]
        forms.append(self._tight(rng, 0.95 + 0.05 * rng.random(), over=1, small=2))
        forms += [(rng.randint(-(n - 2), -2), _fibers(rng, n)) for n in [rng.randint(4, 6) for _ in range(5)]]
        forms += [(-1, _fibers(rng, rng.randint(3, 5))) for _ in range(5)]
        forms += [self._reversed(rng) for _ in range(5)]
        forms += [self._zero_euler(rng) for _ in range(3)]
        forms += [(rng.randint(-3, 2), _fibers(rng, rng.randint(0, 2))) for _ in range(3)]
        for _ in range(4):
            n = rng.randint(3, 5)
            forms.append((rng.choice((rng.randint(0, 2), rng.randint(-n - 2, -n))), _fibers(rng, n)))
        rng.shuffle(forms)
        return [self._notation(rng, b, fibers) for b, fibers in forms]

    @staticmethod
    def _tight(rng, depth, over, small=None):
        """b = -1 with two large-ratio fibers that nearly fill the unit
        interval (``over`` = 1 pushes their sum past 1, which refutes
        condition 2) and 1 to 3 small-ratio fibers of multiplicity a few
        hundred.  Any witness needs a large m, and a refutation scans every
        m up to alpha/beta of the first small fiber, which ``depth`` in
        [0, 1) sets between 4 and 64."""
        a1 = rng.randint(3, 40)
        b1 = _beta(rng, a1)
        a2 = rng.randint(3, 40)
        b2 = min(max(1, (a1 - b1) * a2 // a1 + over), a2 - 1)
        while gcd(a2, b2) != 1:
            b2 += 1 if over else -1
        fibers = [(a1, b1), (a2, b2)]
        for _ in range(small or rng.randint(1, 3)):
            alpha = rng.randint(100, 500)
            beta = max(1, int(alpha / 4 ** (1 + 2 * depth)))
            depth += (1 - depth) * rng.random()  # later fibers become hard later
            while gcd(alpha, beta) != 1:
                beta -= 1
            fibers.append((alpha, beta))
        return -1, fibers

    @staticmethod
    def _reversed(rng):
        """Orientation reversal of a b = -1 form: b = -(n - 1), condition 3."""
        fibers = _fibers(rng, rng.randint(3, 5))
        return 1 - len(fibers), [(alpha, alpha - beta) for alpha, beta in fibers]

    @staticmethod
    def _zero_euler(rng):
        fibers = _fibers(rng, rng.randint(2, 4), hi=12)
        total = sum(Fraction(beta, alpha) for alpha, beta in fibers)
        rest = -total % 1
        if rest:
            fibers.append((rest.denominator, rest.numerator))
        return -int(total + rest), fibers

    @staticmethod
    def _notation(rng, b, fibers):
        """Unnormalized notation: shifted numerators, negated pairs and
        multiplicity-one tokens.  Returns (text, b, fibers as written)."""
        written = []
        for alpha, beta in fibers:
            shift = rng.choice((0, 0, 0, 1, -1, 2))
            written.append((alpha, beta + shift * alpha))
            b -= shift
        if rng.random() < 0.3:
            t = rng.randint(-2, 2) or 1
            written.insert(rng.randint(0, len(written)), (1, t))
            b -= t
        tokens = [
            f"{-beta}/{-alpha}" if alpha > 1 and rng.random() < 0.2 else (f"{beta}/{alpha}" if alpha > 1 else str(beta))
            for alpha, beta in written
        ]
        text = f"M({b}{rng.choice(('; ', ';', ', '))}{', '.join(tokens)})" if tokens else f"M({b})"
        return text, b, tuple(written), rng.random() < 0.25

    @staticmethod
    def run(item):
        si = seifol.parse_seifert(item[0])
        return si, seifol.decide_excellence(si), seifol.h1_order(si)

    @staticmethod
    def check(item, out):
        text, b, fibers, deep = item
        si, verdict, h1 = out
        if (si.b, si.fibers) != (b, fibers):
            return f"{text} parsed as {si}"
        wrong = _same_verdict(verdict, b, fibers)
        if wrong:
            return f"{text}: {wrong}"
        if h1.order != checks.seifert_h1(b, fibers):
            return f"{text}: H1 {h1.order}, determinant says {checks.seifert_h1(b, fibers)}"
        nb, nf = checks.normal_form(b, fibers)
        alpha_max = max((al for al, _ in nf), default=0)
        if deep and verdict.reason == "no-horizontal-foliation" and alpha_max <= 60:
            if checks.horizontal(nb, nf, m_max=2 * alpha_max**2) is not None:
                return f"{text}: a witness exists with m <= 2 alpha^2"
        return None


# -- families ----------------------------------------------------------------------

COVER_WINDOW = 21


class Families:
    """Torus-knot covers, torus-link fillings and cable families."""

    def __init__(self):
        w = COVER_WINDOW
        self.queries = [
            (n, p, q) for n in range(2, w + 1) for p in range(2, w + 1) for q in range(p + 1, w + 1) if gcd(p, q) == 1
        ]
        self.labels = sorted(seifol.load_cable_rows())

    def block(self, rng):
        items = [("cover",) + rng.choice(self.queries) for _ in range(14)]
        items += [self._fill(rng) for _ in range(4)]
        for deepest, shallowest in ((-60, -36), (-35, -10)):
            label = rng.choice(self.labels)
            k_max = seifol.get_cable_row(label).k_max
            k_min = rng.randint(deepest, shallowest)
            items.append(("cable", label, k_min, rng.randint(k_max - 3, k_max + 2), rng.randint(k_min, k_max)))
        rng.shuffle(items)
        return items

    @staticmethod
    def _fill(rng):
        while True:
            d, r, s = rng.randint(1, 4), rng.randint(1, 7), rng.randint(1, 7)
            if gcd(r, s) == 1 and not (d == 1 and min(r, s) < 2) and not (r == s == 1 and d < 3):
                break
        mirror = rng.random() < 0.3
        fiber = -r * s if mirror else r * s  # the fiber slope is fiber/1
        slopes = []
        while len(slopes) < d:
            a, c = rng.randint(-40, 40), rng.randint(0, 4)
            if gcd(a, c) == 1 and a != c * fiber:
                slopes.append((a, c))
        return ("fill", d, r, s, tuple(slopes), mirror)

    @staticmethod
    def run(item):
        kind = item[0]
        if kind == "cover":
            qr = seifol.TorusCoverQuery(*item[1:])
            status = seifol.cross_validate(qr).status
            result = seifol.branched_invariants(qr)
            if not result.known:
                return status, None, None, None
            si = result.invariants
            return status, si, seifol.h1_order(si), seifol.seifert.h1_order_snf(si)
        if kind == "fill":
            _, d, r, s, slopes, mirror = item
            ext = seifol.TorusLinkExterior(d, r, s)
            si = seifol.fill(ext, [seifol.Slope(a, c) for a, c in slopes], mirror=mirror)
            return si, seifol.decide_excellence(si)
        _, label, k_min, k_max, _ = item
        return seifol.cable_family_check(seifol.get_cable_row(label), k_min, k_max)

    def check(self, item, out):
        kind = item[0]
        if kind == "cover":
            n, p, q = item[1:]
            status, si, h1, h1_snf = out
            if si is None:
                return UNSUPPORTED if status == "NotComputable" else f"{item}: status {status} without invariants"
            expected = checks.torus_cover_h1(n, p, q)
            if status != "Consistent" or not h1.order == h1_snf.order == expected:
                return f"{item}: {status}, H1 {h1.order} / SNF {h1_snf.order}, cyclotomic {expected}"
            if checks.excellence(si.b, si.fibers)[0] == checks.torus_cover_finite(n, p, q):
                return f"{item}: {si} disagrees with the spherical test"
            return None
        if kind == "fill":
            _, d, r, s, slopes, mirror = item
            si, verdict = out
            expected = checks.surgery_h1(slopes, -r * s if mirror else r * s)
            if checks.seifert_h1(si.b, si.fibers) != expected:
                return f"{item}: {si} has H1 {checks.seifert_h1(si.b, si.fibers)}, linking matrix says {expected}"
            wrong = _same_verdict(verdict, si.b, si.fibers)
            return f"{item}: {wrong}" if wrong else None
        _, label, k_min, k_max, k_probe = item
        row = seifol.get_cable_row(label)
        if not out.ok or out.checked != tuple(range(k_min, min(k_max, row.k_max) + 1)):
            return f"{item}: checked {out.checked[:3]}..., failures {out.failures}"
        if k_probe <= row.k_max and not self._cable_horizontal(row, k_probe):
            return f"{item}: k = {k_probe} is not horizontal by the independent check"
        return None

    @staticmethod
    def _cable_horizontal(row, k):
        f = Fraction(row.num[0] * k + row.num[1], row.den[0] * k + row.den[1])
        b, fibers = checks.normal_form(row.b, row.base_fibers + ((f.denominator, f.numerator),) * row.count)
        if row.reversed_:
            b, fibers = checks.reversed_form(b, fibers)
        return checks.horizontal(b, fibers) is not None


# -- certify ---------------------------------------------------------------------------

FULL_ENUMERATION_MAX = 8


class Certify:
    """The sign search, the Smith normal form and free reduction."""

    def block(self, rng):
        items = [("twobridge", rng.randint(1, 3), rng.randint(1, 3), n) for n in range(3, 10)] * 2
        items += [("twobridge", rng.randint(1, 3), rng.randint(1, 3), rng.randint(10, 12)) for _ in range(5)]
        items.append(("twobridge", rng.randint(1, 3), rng.randint(1, 3), 14))
        items += [("pretzel", rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)) for _ in range(10)]
        for _ in range(15):
            alphas = rng.sample(range(2, 41), rng.randint(6, 13))
            items.append(("snf", rng.randint(-3, 1), tuple((a, _beta(rng, a)) for a in alphas)))
        for _ in range(3):
            items.append(("snf", rng.randint(-3, 1), tuple((a, 1) for a in range(2, rng.randint(10, 17) + 2))))
        rng.shuffle(items)
        return items

    @staticmethod
    def run(item):
        kind = item[0]
        if kind == "snf":
            si = seifol.SeifertInvariants(item[1], item[2])
            return seifol.h1_order(si), seifol.seifert.h1_order_snf(si)
        if kind == "twobridge":
            pres = seifol.present_two_bridge_cover(*item[1:])
            return pres, seifol.coarse_obstruction(pres), pres.abelianization_order(), None
        pres = seifol.present_pretzel_cover(*item[1:])
        r1, r2, r3 = seifol.pretzel_exterior_relators(*item[1:])
        product = seifol.free_reduce(r1 * r2 * r3)
        return pres, seifol.coarse_obstruction(pres), pres.abelianization_order(), (product, (r1, r2, r3))

    @staticmethod
    def check(item, out):
        if item[0] == "snf":
            h1, h1_snf = out
            expected = checks.seifert_h1(item[1], item[2])
            if not h1.order == h1_snf.order == expected:
                return f"{item}: H1 {h1.order} / SNF {h1_snf.order}, determinant {expected}"
            return None
        pres, report, order, pretzel = out
        gens = pres.generators
        relators = [rel.letters for rel in pres.relators]
        matrix = [[sum(e for g, e in rel if g == gen) for gen in gens] for rel in relators]
        if order != checks.cokernel_size(matrix, len(gens)):
            return f"{item}: abelianization order {order}, minors give {checks.cokernel_size(matrix, len(gens))}"
        if report.obstructed == bool(report.survivors):
            return f"{item}: obstructed={report.obstructed} with {len(report.survivors)} survivors"
        for survivor in report.survivors:
            sign = {g: 1 if s == "+" else -1 for g, s in zip(gens, survivor)}
            if any(checks.relator_killed(rel, sign) for rel in relators if rel):
                return f"{item}: survivor {''.join(survivor)} is killed by a relator"
        if len(gens) <= FULL_ENUMERATION_MAX and list(report.survivors) != checks.surviving_assignments(gens, relators):
            return f"{item}: survivors differ from the full enumeration"
        if pretzel is not None:
            product, rels = pretzel
            if product.letters or checks.free_reduce_letters([x for r in rels for x in r.letters]):
                return f"{item}: relator product reduces to {product}"
        return None


# -- cli -------------------------------------------------------------------------------


class Cli:
    """argv vectors through ``seifol.cli.main`` in process, output captured."""

    def __init__(self):
        self.labels = sorted(seifol.load_cable_rows())
        self.makers = [
            self._cf_eval, self._cf_expand, self._seifert, self._seifert, self._seifert, self._classify,
            self._invariants, self._crosscheck, self._surgery, self._surgery, self._slope, self._cable,
            self._present, self._lo_check, self._pretzel_surgery, self._usage,
        ]

    def block(self, rng):
        # Two of each maker plus the default nine-window sweep: one item in
        # 33, so the 99th percentile falls inside that one class.
        items = [make(rng) for make in self.makers for _ in range(2)] + [self._default_sweep()]
        rng.shuffle(items)
        return items

    # Each maker returns (argv, expected exit code, expected error code or
    # None, payload check or None).

    @staticmethod
    def _cf_eval(rng):
        terms = [rng.choice((-3, -2, -1, 1, 2, 3, 4)) for _ in range(rng.randint(1, 6))]
        value = checks.cf_value(terms)
        argv = ["cf", "eval", "[" + ",".join(map(str, terms)) + "]"]
        if value is None:
            return argv, 1, "degenerate-expansion", None
        return argv, 0, None, lambda p: p == {"value": str(value)}

    @staticmethod
    def _cf_expand(rng):
        value = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        even = rng.random() < 0.5
        argv = ["cf", "expand"] + (["--policy", "even-terms"] if even else []) + ["--", str(value)]
        a, b = value.numerator, value.denominator
        if even and (a % 2 and b % 2 or abs(value) < 1):
            return argv, 1, "no-even-expansion", None
        if not even and 0 <= value < 1:
            return argv, 1, "degenerate-expansion", None

        def ok(p):
            terms = p["terms"]
            return checks.cf_value(terms) == value and (not even or all(t % 2 == 0 for t in terms))

        return argv, 0, None, ok

    @staticmethod
    def _seifert(rng):
        n = rng.randint(0, 5)
        b = -1 if rng.random() < 0.5 else rng.randint(-n - 1, 1)
        text, b, fibers, _ = Decide._notation(rng, b, _fibers(rng, n))
        return Cli.seifert_item(rng.choice(("normalize", "reverse", "euler", "h1", "decide", "decide")), text, b, fibers)

    @staticmethod
    def seifert_item(op, text, b, fibers):
        argv = ["seifert", op, text]
        if op == "normalize":
            nb, nf = checks.normal_form(b, fibers)
            return argv, 0, None, lambda p: (p["b"], [(f["alpha"], f["beta"]) for f in p["fibers"]]) == (nb, list(nf))
        if op == "reverse":
            return argv, 0, None, lambda p: checks.euler(p["b"], [(f["alpha"], f["beta"]) for f in p["fibers"]]) == -checks.euler(b, fibers)
        if op == "euler":
            return argv, 0, None, lambda p: p == {"euler": str(checks.euler(b, fibers))}
        if op == "h1":
            order = checks.seifert_h1(b, fibers)
            return argv, 0, None, lambda p: p == {"order": order, "finite": order is not None}
        excellent, reason = checks.excellence(b, fibers)

        def ok(p):
            if (p["verdict"] == "Excellent", p["reason"]) != (excellent, reason):
                return False
            if "m" not in p:
                return True
            nb, nf = checks.normal_form(b, fibers)
            if p.get("on_reverse"):
                nb, nf = checks.reversed_form(nb, nf)
            return checks.witness_holds(nf, p["m"], p["a"], tuple(p["roles"]))

        return argv, 0, None, ok

    @staticmethod
    def _classify(rng):
        n, p, q = rng.randint(2, 8), rng.randint(2, 9), rng.randint(2, 11)
        argv = ["classify", str(n), str(p), str(q)]
        if p == q or gcd(p, q) != 1:
            return argv, 1, "notation-error", None
        finite = checks.torus_cover_finite(n, p, q)
        return argv, 0, None, lambda pl: (pl["verdict"] == "TotalLSpace") == finite

    @staticmethod
    def _invariants(rng):
        while True:
            n, p, q = rng.randint(2, 12), rng.randint(2, 12), rng.randint(2, 12)
            if p != q and gcd(p, q) == 1:
                break
        order = checks.torus_cover_h1(n, p, q)
        return ["invariants", str(n), str(p), str(q)], 0, None, lambda pl: not pl["known"] or pl["h1"] == order

    @staticmethod
    def _crosscheck(rng):
        sweep = [rng.randint(2, 6) for _ in range(3)]
        count = sum(
            1 for _n in range(2, sweep[0] + 1) for p in range(2, sweep[1] + 1) for q in range(p + 1, sweep[2] + 1) if gcd(p, q) == 1
        )
        argv = ["crosscheck", "--sweep"] + [str(x) for x in sweep]
        return argv, 0, None, lambda pl: pl["inconsistencies"] == [] and pl["queries"] == count

    @staticmethod
    def _default_sweep():
        count = sum(1 for p in range(2, 10) for q in range(p + 1, 10) if gcd(p, q) == 1) * 8
        return ["crosscheck"], 0, None, lambda pl: pl["inconsistencies"] == [] and pl["queries"] == count

    @staticmethod
    def _surgery(rng):
        _, d, r, s, slopes, mirror = Families._fill(rng)
        argv = ["surgery", str(d), str(r), str(s), "--"] + [f"{a}/{c}" for a, c in slopes]
        if mirror:
            argv.insert(1, "--mirror")
        order = checks.surgery_h1(slopes, -r * s if mirror else r * s)

        def ok(p):
            b, fibers = p["b"], [(f["alpha"], f["beta"]) for f in p["fibers"]]
            excellent, reason = checks.excellence(b, fibers)
            return checks.seifert_h1(b, fibers) == order and (p["verdict"] == "Excellent", p["reason"]) == (excellent, reason)

        if rng.random() < 0.1:  # the fiber slope of the first component
            argv[-d] = f"{-r * s if mirror else r * s}/1"
            return argv, 1, "fiber-slope-filling", None
        return argv, 0, None, ok

    @staticmethod
    def _slope(rng):
        m = rng.choice(((1, 0, 5, -1), (-2, 1, -3, 2), (3, -1, -2, 1), (0, 1, 1, 0), (1, 1, 2, 3), (2, 1, 1, 1)))
        op = rng.choice(("apply", "compose", "fixed"))
        text = ",".join(map(str, m))
        if op == "apply":
            slope = (rng.randint(-9, 9), 1)
            x, y = checks.apply_map(m, slope)
            return ["slope", "apply", "--", text, f"{slope[0]}/1"], 0, None, lambda p: (p["a"], p["c"]) == (x, y)
        if op == "compose":
            if rng.random() < 0.2:
                return ["slope", "compose", "--", "1,2,3,4"], 1, "notation-error", None
            m2 = (1, 1, 0, 1)
            prod = [m2[0] * m[0] + m2[1] * m[2], m2[0] * m[1] + m2[1] * m[3], m2[2] * m[0] + m2[3] * m[2], m2[2] * m[1] + m2[3] * m[3]]
            return ["slope", "compose", "--", text, "1,1,0,1"], 0, None, lambda p: sum(p["matrix"], []) == prod
        fixed = [k for k in range(-50, 51) if m[0] + m[1] * k in (1, -1)]
        return ["slope", "fixed", "--", text], 0, None, lambda p: p["fixed"] == "all" if m[1] == 0 else p["fixed"] == fixed

    def _cable(self, rng):
        label = rng.choice(self.labels)
        k_max = seifol.get_cable_row(label).k_max
        if rng.random() < 0.5:
            return ["cable", "check", label, str(k_max - 8), str(k_max)], 0, None, lambda p: p["ok"] and len(p["checked"]) == 9
        if rng.random() < 0.1:
            return ["cable", "family", label + "x", "0"], 1, "notation-error", None
        return ["cable", "family", label, str(rng.randint(-20, k_max))], 0, None, lambda p: p["decision"]["horizontal"]

    @staticmethod
    def _present(rng):
        if rng.random() < 0.5:
            n = rng.randint(2, 9)
            return ["present", "twobridge", "1", "2", str(n)], 0, None, lambda p: len(p["relators"]) == n + 1
        return ["present", "pretzel", "1", "2", "3"], 0, None, lambda p: len(p["relators"]) == 8

    @staticmethod
    def _lo_check(rng):
        if rng.random() < 0.5:
            k, l, n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 7)
            argv = ["lo", "check", f"builtin:twobridge:{k},{l},{n}"]
        else:
            k, l, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            argv = ["lo", "check", f"builtin:pretzel:{k},{l},{m}"]
        return argv, 0, None, lambda p: p["obstructed"] == (p["survivors"] == [])

    @staticmethod
    def _pretzel_surgery(rng):
        n, k, l = rng.randint(2, 5), rng.randint(1, 7), rng.randint(1, 4)
        sign = rng.choice("+-")
        argv = ["pretzel-surgery", str(n), str(k), str(l), sign]
        if (2 * k + 1) % n:
            return argv, 1, "indivisible-surgery", None
        coeff = Fraction(1 if sign == "+" else -1, (2 * k + 1) // n)
        return argv, 0, None, lambda p: p["coefficient"] == str(coeff) and p["strands"] == [2 * l + 1] * n

    @staticmethod
    def _usage(rng):
        argv = rng.choice((
            ["frobnicate"],
            ["seifert", "explode", "M(0)"],
            ["classify", "2", "3"],
            ["surgery", "1", "two", "3", "1/1"],
            ["seifert", "decide", "M(1/0)"],
            ["seifert", "h1", "M(-1; 2/4, 1/3)"],
        ))
        if argv[0] == "seifert" and argv[1] != "explode":
            return argv, 1, "notation-error", None
        return argv, 2, None, None

    @staticmethod
    def run(item):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = seifol.cli.main(list(item[0]))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    @staticmethod
    def check(item, out):
        argv, want_code, want_error, payload_ok = item
        code, text = out
        if code != want_code:
            return f"{argv}: exit {code}, expected {want_code}"
        if code == 2:
            return None if text == "" else f"{argv}: usage error wrote to stdout"
        try:
            doc = json.loads(text)
        except ValueError:
            return f"{argv}: output is not JSON: {text[:80]!r}"
        if want_error is not None:
            ok = doc.get("status") == "error" and doc.get("code") == want_error and isinstance(doc.get("message"), str)
            return None if ok else f"{argv}: {doc}"
        if doc.get("status") != "ok" or doc.get("schema") != "seifol/1" or not payload_ok(doc["payload"]):
            return f"{argv}: {text[:200]}"
        return None


WORKLOADS = {"decide": Decide, "families": Families, "certify": Certify, "cli": Cli}
