"""Command-line front end.

Every subcommand prints a single JSON document on standard output:

    {"status": "ok", "schema": "seifol/1", "payload": {...}}

Exit codes: 0 for success, 1 for a domain error, reported as the JSON error
document ``{"status": "error", "code": ..., "message": ...}`` with a stable
code, and 2 for a usage error.  A result holding an integer too long to
print is a ``domain-error`` too.  ``--pretty``
indents the output; there is no color and no environment configuration.

``main(argv)`` may be called many times in one process: it returns the exit
code, and a usage error raises ``SystemExit(2)``.  The parser is built once
per process, on the first call.  The inputs that grow the work by count
are capped (``CABLE_WINDOW_CAP``, ``SWEEP_CAP``, ``BUILTIN_PARAMETER_CAP``,
``STRAND_CAP``, ``FIBER_CAP``) and refused with a ``domain-error`` above the
cap, before any work is done.  Four shapes still run unbounded: they reach
the witness scan, quadratic in the largest fiber multiplicity, with no cap.
They are ``cable family c235 99999999999999999999``,
``seifert decide "M(-1; 1/2, 2/3, 1/100000007)"``,
``surgery 1 2 3 -- 1000000007/1`` and ``surgery 2 1000000007 1 1/1 1/1``,
where the large torus parameter is itself a fiber multiplicity.  A cap would
hide the scan, so they stay unbounded until the scan is replaced.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from math import gcd

from . import gluing, link_surgery, presentations, rationals, torus_covers
from .errors import NotationError, SeifolError, TooManyGenerators
from .foliation import FoliationDecision, decide_excellence, decide_horizontal
from .seifert import (
    SeifertInvariants,
    euler_number,
    format_seifert,
    h1_order,
    normalize,
    parse_seifert,
    reverse_orientation,
)

SCHEMA = "seifol/1"
# Largest ``cable check`` window, counted over the k values actually checked,
# largest bound of a ``crosscheck`` sweep, largest parameter of a builtin
# presentation, largest ``pretzel-surgery`` strand count, and largest
# ``invariants`` fiber count 1 + gcd(n, p) + gcd(n, q).  At every cap a call
# takes under a second (Python 3.11, 2-CPU x86_64); the library functions
# themselves are not capped.
CABLE_WINDOW_CAP = 1000
SWEEP_CAP = 30
BUILTIN_PARAMETER_CAP = 1000
STRAND_CAP = 1000
FIBER_CAP = 2000


def _integer(text: str) -> int:
    """The ``type`` of every integer argument: the reader's grammar, and its
    short message as the usage error."""
    try:
        return rationals.parse_int(text)
    except NotationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _error_message(exc: Exception) -> str:
    # Python's message for an integer past the int-to-str digit limit points
    # to sys.set_int_max_str_digits(), which a command-line user cannot call
    if type(exc) is ValueError and "integer string conversion" in str(exc):
        limit = sys.get_int_max_str_digits()
        return f"result holds an integer longer than {limit} digits, the interpreter's limit"
    return str(exc)


def _seifert_payload(si: SeifertInvariants) -> dict:
    return {
        "b": si.b,
        "fibers": [{"alpha": a, "beta": be} for a, be in si.fibers],
        "notation": format_seifert(si),
    }


def _decision_payload(decision: FoliationDecision) -> dict:
    out: dict = {"horizontal": decision.horizontal}
    if decision.condition is not None:
        out["condition"] = decision.condition
    if decision.witness is not None:
        w = decision.witness
        out["m"] = w.m
        out["a"] = w.a
        out["roles"] = w.roles
        if w.on_reverse:
            out["on_reverse"] = True
    return out


def _cmd_cf_eval(args):
    cf = rationals.parse_continued_fraction(args.cf)
    return {"value": str(rationals.cf_eval(cf))}


def _cmd_cf_expand(args):
    r = rationals.parse_rational(args.value)
    cf = rationals.cf_expand(r, args.policy)
    return {"terms": cf.terms, "notation": str(cf)}


def _cmd_seifert(args):
    si = parse_seifert(args.form)
    op = args.op
    if op == "normalize":
        return _seifert_payload(normalize(si))
    if op == "reverse":
        return _seifert_payload(reverse_orientation(si))
    if op == "euler":
        return {"euler": str(euler_number(si))}
    if op == "h1":
        h = h1_order(si)
        return {"order": h.order, "finite": h.is_finite}
    if op == "decide":
        verdict = decide_excellence(si)
        payload = _decision_payload(verdict.decision) if verdict.decision else {}
        payload["verdict"] = verdict.kind
        payload["reason"] = verdict.reason
        return payload
    raise AssertionError(op)


def _cmd_classify(args):
    qr = torus_covers.parse_query(args.n, args.p, args.q)
    verdict = torus_covers.classify_torus_cover(qr)
    return {"verdict": verdict.kind, "reason": verdict.reason}


def _cmd_invariants(args):
    qr = torus_covers.parse_query(args.n, args.p, args.q)
    fibers = 1 + gcd(qr.n, qr.p) + gcd(qr.n, qr.q)
    if fibers > FIBER_CAP:
        raise SeifolError(f"{rationals.quoted_int(fibers)} fibers exceeds cap {FIBER_CAP}")
    result = torus_covers.branched_invariants(qr)
    if not result.known:
        return {"known": False}
    si = result.invariants
    payload = _seifert_payload(si)
    payload["known"] = True
    payload["euler"] = str(euler_number(si))
    payload["h1"] = h1_order(si).order
    return payload


def _cmd_crosscheck(args):
    n_max, p_max, q_max = args.sweep
    bound = max(args.sweep)
    if bound > SWEEP_CAP:
        raise SeifolError(f"sweep bound {rationals.quoted_int(bound)} exceeds cap {SWEEP_CAP}")
    return torus_covers.crosscheck_sweep(n_max, p_max, q_max)


def _cmd_surgery(args):
    ext = link_surgery.TorusLinkExterior(args.d, args.r, args.s)
    slopes = [link_surgery.parse_slope(s) for s in args.slopes]
    si = link_surgery.fill(ext, slopes, mirror=args.mirror)
    payload = _seifert_payload(si)
    verdict = decide_excellence(si)
    payload["verdict"] = verdict.kind
    payload["reason"] = verdict.reason
    return payload


def _parse_matrix(text: str) -> gluing.SlopeMap:
    parts = text.replace("[", " ").replace("]", " ").replace(",", " ").split()
    if len(parts) != 4:
        raise NotationError(f"need 4 matrix entries, got {rationals.quoted(text)}")
    a, b, c, d = (rationals.parse_int(p) for p in parts)
    try:
        return gluing.SlopeMap(a, b, c, d)
    except ValueError as exc:
        raise NotationError(str(exc)) from exc


def _cmd_slope_apply(args):
    f = _parse_matrix(args.matrix)
    sl = link_surgery.parse_slope(args.slope)
    a, c = gluing.apply_slope_map(f, (sl.a, sl.c))
    return {"slope": f"{a}/{c}", "a": a, "c": c}


def _cmd_slope_compose(args):
    maps = [_parse_matrix(m) for m in args.matrices]
    f = gluing.compose_slope_maps(maps)
    return {"matrix": f.rows, "det": f.det}


def _cmd_slope_fixed(args):
    f = _parse_matrix(args.matrix)
    fixed = gluing.fixed_unit_fraction_slopes(f)
    if fixed is gluing.ALL_INTEGERS:
        return {"fixed": "all"}
    return {"fixed": sorted(fixed)}


def _cmd_cable_family(args):
    row = gluing.get_cable_row(args.case)
    si = gluing.cable_family_invariants(row, args.k)
    payload = _seifert_payload(si)
    payload["decision"] = _decision_payload(decide_horizontal(si))
    return payload


def _cmd_cable_check(args):
    row = gluing.get_cable_row(args.case)
    width = min(args.kmax, row.k_max) - args.kmin + 1
    if width > CABLE_WINDOW_CAP:
        raise SeifolError(f"window of {rationals.quoted_int(width)} values exceeds cap {CABLE_WINDOW_CAP}")
    report = gluing.cable_family_check(row, args.kmin, args.kmax)
    return {"checked": report.checked, "failures": report.failures, "ok": report.ok}


_BUILTIN_COVERS = {
    "twobridge": (presentations.present_two_bridge_cover, "k l n"),
    "pretzel": (presentations.present_pretzel_cover, "k l m"),
}


def _builtin_cover(family: str, params) -> presentations.GroupPresentation:
    if family not in _BUILTIN_COVERS:
        raise NotationError(f"unknown builtin {rationals.quoted(family)}")
    build, names = _BUILTIN_COVERS[family]
    if len(params) != 3:
        raise NotationError(f"{family} takes parameters {names}")
    cap = presentations.GENERATOR_CAP
    if family == "twobridge" and params[2] > cap:
        # n is the generator count; refuse before building n relators
        raise TooManyGenerators(f"{rationals.quoted_int(params[2])} generators exceeds cap {cap}")
    largest = max(params)
    if largest > BUILTIN_PARAMETER_CAP:
        raise SeifolError(f"{family} parameter {rationals.quoted_int(largest)} exceeds cap {BUILTIN_PARAMETER_CAP}")
    return build(*params)


def _cmd_present(args):
    pres = _builtin_cover(args.family, args.params)
    return {"generators": pres.generators, "relators": [str(r) for r in pres.relators]}


def _load_presentation(source: str) -> presentations.GroupPresentation:
    if source.startswith("builtin:"):
        name, _, params = source[len("builtin:") :].partition(":")
        values = [rationals.parse_int(x) for x in params.split(",")] if params else []
        return _builtin_cover(name, values)
    if source == "-":
        return presentations.parse_presentation(sys.stdin.read())
    with open(source, encoding="utf-8") as fh:
        return presentations.parse_presentation(fh.read())


def _cmd_lo_check(args):
    pres = _load_presentation(args.presentation)
    report = presentations.coarse_obstruction(pres)
    return {
        "obstructed": report.obstructed,
        "assignments_checked": report.assignments_checked,
        "survivors": ["".join(s) for s in report.survivors],
        "nontriviality_assumed": report.nontriviality_assumed,
    }


def _cmd_pretzel_surgery(args):
    if args.n > STRAND_CAP:
        raise SeifolError(f"{rationals.quoted_int(args.n)} strands exceeds cap {STRAND_CAP}")
    desc = presentations.pretzel_surgery_description(args.n, args.k, args.l, args.sign)
    return {
        "strands": desc.strands,
        "coefficient": str(desc.coefficient),
        "orientation_reversed": desc.orientation_reversed,
    }


def build_parser() -> argparse.ArgumentParser:
    """A new parser on every call; ``main`` shares one (see ``_parser``)."""
    # --pretty is accepted both before and after the subcommand; SUPPRESS on
    # the per-command copy keeps it from clobbering the top-level value.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--pretty", action="store_true", default=argparse.SUPPRESS, help="indent the JSON output"
    )
    parser = argparse.ArgumentParser(
        prog="seifol",
        description="Exact computations with Seifert invariants of branched "
        "covers, horizontal foliations, and left-order obstructions.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cf = sub.add_parser("cf", help="continued fractions")
    cf_sub = p_cf.add_subparsers(dest="op", required=True)
    p = cf_sub.add_parser("eval", parents=[common], help="evaluate a bracket expansion")
    p.add_argument("cf", help='bracketed list, e.g. "[2,-2]"')
    p.set_defaults(handler=_cmd_cf_eval)
    p = cf_sub.add_parser("expand", parents=[common], help="expand a rational")
    p.add_argument("value", help='rational, e.g. "19/3"')
    p.add_argument(
        "--policy",
        choices=[rationals.CANONICAL_POSITIVE, rationals.EVEN_TERMS],
        default=rationals.CANONICAL_POSITIVE,
    )
    p.set_defaults(handler=_cmd_cf_expand)

    p = sub.add_parser("seifert", parents=[common], help="operations on Seifert forms")
    p.add_argument("op", choices=["normalize", "reverse", "euler", "h1", "decide"])
    p.add_argument("form", help='e.g. "M(-1; 1/2, 1/3, 1/8)"')
    p.set_defaults(handler=_cmd_seifert)

    p = sub.add_parser("classify", parents=[common], help="finite/infinite classifier for torus-knot covers")
    p.add_argument("n")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("invariants", parents=[common], help="Seifert invariants of a torus-knot cover")
    p.add_argument("n")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("crosscheck", parents=[common], help="cross-validate classifier against invariants")
    p.add_argument("--sweep", nargs=3, type=_integer, default=[9, 9, 9], metavar=("N", "P", "Q"))
    p.set_defaults(handler=_cmd_crosscheck)

    p = sub.add_parser("surgery", parents=[common], help="fill a torus-link exterior")
    p.add_argument("d", type=_integer)
    p.add_argument("r", type=_integer)
    p.add_argument("s", type=_integer)
    p.add_argument("slopes", nargs="+", help='meridian-longitude slopes "a/c"')
    p.add_argument("--mirror", action="store_true", help="surger the mirror link")
    p.set_defaults(handler=_cmd_surgery)

    p_slope = sub.add_parser("slope", help="slope-map calculus")
    slope_sub = p_slope.add_subparsers(dest="op", required=True)
    p = slope_sub.add_parser("apply", parents=[common])
    p.add_argument("matrix", help='"[[a,b],[c,d]]" or "a,b,c,d"')
    p.add_argument("slope", help='"a/c"')
    p.set_defaults(handler=_cmd_slope_apply)
    p = slope_sub.add_parser("compose", parents=[common])
    p.add_argument("matrices", nargs="+", help="matrices in application order")
    p.set_defaults(handler=_cmd_slope_compose)
    p = slope_sub.add_parser("fixed", parents=[common])
    p.add_argument("matrix")
    p.set_defaults(handler=_cmd_slope_fixed)

    p_cable = sub.add_parser("cable", help="parametrized cable families")
    cable_sub = p_cable.add_subparsers(dest="op", required=True)
    p = cable_sub.add_parser("family", parents=[common])
    p.add_argument("case")
    p.add_argument("k", type=_integer)
    p.set_defaults(handler=_cmd_cable_family)
    p = cable_sub.add_parser("check", parents=[common])
    p.add_argument("case")
    p.add_argument("kmin", type=_integer)
    p.add_argument("kmax", type=_integer)
    p.set_defaults(handler=_cmd_cable_check)

    p = sub.add_parser("present", parents=[common], help="branched-cover group presentations")
    p.add_argument("family", choices=["twobridge", "pretzel"])
    p.add_argument("params", nargs="+", type=_integer)
    p.set_defaults(handler=_cmd_present)

    p_lo = sub.add_parser("lo", help="left-order obstruction search")
    lo_sub = p_lo.add_subparsers(dest="op", required=True)
    p = lo_sub.add_parser("check", parents=[common])
    p.add_argument(
        "presentation",
        help='file, "-" for stdin, or builtin:pretzel:k,l,m / builtin:twobridge:k,l,n',
    )
    p.set_defaults(handler=_cmd_lo_check)

    p = sub.add_parser("pretzel-surgery", parents=[common], help="surgery description of a two-bridge cover")
    p.add_argument("n", type=_integer)
    p.add_argument("k", type=_integer)
    p.add_argument("l", type=_integer)
    p.add_argument("sign", choices=["+", "-"])
    p.set_defaults(handler=_cmd_pretzel_surgery)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use and then shared by every
    call in the process.  Sharing is safe because ``parse_args`` returns a
    new namespace and leaves the parser as it was.  Handlers are bound by
    ``set_defaults`` when the parser is built, so a ``_cmd_*`` function
    replaced after the first call is not seen; call ``_parser.cache_clear()``
    after replacing one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    indent = 2 if args.pretty else None
    # serializing inside the try makes a payload json cannot write (an
    # integer past the int-to-str digit limit) an error document too
    try:
        document = {"status": "ok", "schema": SCHEMA, "payload": args.handler(args)}
        text, code = json.dumps(document, indent=indent, sort_keys=True), 0
    except (SeifolError, ValueError, OSError) as exc:
        error = exc.code if isinstance(exc, SeifolError) else "domain-error"
        document = {"status": "error", "code": error, "message": _error_message(exc)}
        text, code = json.dumps(document, indent=indent, sort_keys=True), 1
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; devnull keeps the flush at exit quiet (Python docs recipe)
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
