import io
import json
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

from seifol import cli, foliation, gluing, presentations, seifert, torus_covers
from seifol.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestGoldenExamples:
    def test_classify(self, capsys):
        code, doc = run(capsys, "classify", "2", "3", "5")
        assert code == 0
        assert doc["payload"] == {"verdict": "TotalLSpace", "reason": "finite-fundamental-group"}

    def test_seifert_decide(self, capsys):
        code, doc = run(capsys, "seifert", "decide", "M(-1; 1/2, 1/3, 1/8)")
        assert code == 0
        payload = doc["payload"]
        assert payload["horizontal"] is True
        assert payload["condition"] == 2
        # first witness in deterministic order; the construction witness
        # (m, a) = (7, 3) is checked as valid in the surgery tests
        assert (payload["m"], payload["a"]) == (5, 2)
        assert payload["verdict"] == "Excellent"

    def test_cf_eval(self, capsys):
        code, doc = run(capsys, "cf", "eval", "[2,-2]")
        assert code == 0
        assert doc["payload"] == {"value": "3/2"}


class TestSubcommands:
    def test_cf_expand_even(self, capsys):
        code, doc = run(capsys, "cf", "expand", "3/2", "--policy", "even-terms")
        assert code == 0 and doc["payload"]["terms"] == [2, -2]

    def test_seifert_normalize(self, capsys):
        code, doc = run(capsys, "seifert", "normalize", "M(1, -1/2, -1/3, -1/5)")
        assert doc["payload"]["notation"] == "M(-2; 1/2, 2/3, 4/5)"

    def test_seifert_euler_h1(self, capsys):
        _, doc = run(capsys, "seifert", "euler", "M(-2; 1/2, 2/3, 4/5)")
        assert doc["payload"]["euler"] == "-1/30"
        _, doc = run(capsys, "seifert", "h1", "M(-1; 2/5, 2/5)")
        assert doc["payload"] == {"order": 5, "finite": True}

    def test_invariants(self, capsys):
        code, doc = run(capsys, "invariants", "2", "2", "5")
        assert doc["payload"]["notation"] == "M(-1; 2/5, 2/5)"
        code, doc = run(capsys, "invariants", "6", "3", "5")
        assert code == 0
        assert doc["payload"]["notation"] == "M(-3; 1/2, 4/5, 4/5, 4/5)"
        assert doc["payload"]["h1"] == 25
        assert "source" not in doc["payload"]
        code, doc = run(capsys, "invariants", "6", "2", "3")
        assert code == 0
        assert doc["payload"] == {"known": False}

    def test_crosscheck_sweep(self, capsys):
        code, doc = run(capsys, "crosscheck", "--sweep", "5", "5", "5")
        assert code == 0
        assert doc["payload"]["inconsistencies"] == []

    def test_surgery(self, capsys):
        code, doc = run(capsys, "surgery", "1", "2", "3", "--", "-2/1")
        assert doc["payload"]["notation"] == "M(-1; 1/2, 1/3, 1/8)"
        assert doc["payload"]["verdict"] == "Excellent"

    def test_slope_commands(self, capsys):
        _, doc = run(capsys, "slope", "apply", "[[-2,1],[-3,2]]", "1/5")
        assert doc["payload"]["slope"] == "3/7"
        _, doc = run(
            capsys, "slope", "compose", "3,-1,-2,1", "0,1,1,0", "1,1,2,3"
        )
        assert doc["payload"]["matrix"] == [[1, 0], [5, -1]]
        _, doc = run(capsys, "slope", "fixed", "[[-2,1],[-3,2]]")
        assert doc["payload"]["fixed"] == [1, 3]
        _, doc = run(capsys, "slope", "fixed", "1,0,0,1")
        assert doc["payload"]["fixed"] == "all"

    def test_cable_commands(self, capsys):
        _, doc = run(capsys, "cable", "family", "c332b", "-1")
        assert doc["payload"]["notation"] == "M(-2; 1/2, 1/2, 1/2, 1/5)"
        assert "provenance" not in doc
        _, doc = run(capsys, "cable", "check", "c235", "-10", "0")
        assert doc["payload"]["ok"] is True

    def test_present_and_lo(self, capsys):
        _, doc = run(capsys, "present", "twobridge", "1", "1", "4")
        assert doc["payload"]["generators"] == ["x0", "x1", "x2", "x3"]
        _, doc = run(capsys, "lo", "check", "builtin:pretzel:1,1,1")
        assert doc["payload"]["obstructed"] is True
        _, doc = run(capsys, "lo", "check", "builtin:twobridge:1,1,4")
        assert doc["payload"]["obstructed"] is False
        assert len(doc["payload"]["survivors"]) == 4

    def test_lo_check_file(self, tmp_path, capsys):
        path = tmp_path / "pres.txt"
        path.write_text("gens: a; rel: a")
        _, doc = run(capsys, "lo", "check", str(path))
        assert doc["payload"]["obstructed"] is True

    def test_pretzel_surgery(self, capsys):
        _, doc = run(capsys, "pretzel-surgery", "3", "4", "1", "-")
        assert doc["payload"] == {
            "strands": [3, 3, 3],
            "coefficient": "-1/3",
            "orientation_reversed": False,
        }

    def test_pretty_flag_both_positions(self, capsys):
        code = main(["--pretty", "cf", "eval", "[5]"])
        first = capsys.readouterr().out
        code = main(["cf", "eval", "[5]", "--pretty"])
        second = capsys.readouterr().out
        assert first == second and "\n  " in first


class TestLoCheckGoldens:
    """Full stdout of ``lo check``, pinned byte for byte."""

    TWOBRIDGE_1_1_6 = (
        '{"payload": {"assignments_checked": 64, "nontriviality_assumed": true, "obstructed": false, '
        '"survivors": ["++++--", "+++--+", "+++---", "++--++", "++---+", "++----", "+--+++", "+---++", "+----+", '
        '"-++++-", "-+++--", "-++---", '
        '"--++++", "--+++-", "--++--", "---+++", "---++-", "----++"]}, '
        '"schema": "seifol/1", "status": "ok"}\n'
    )
    PRETZEL_1_2_3 = (
        '{"payload": {"assignments_checked": 64, "nontriviality_assumed": true, "obstructed": true, '
        '"survivors": []}, "schema": "seifol/1", "status": "ok"}\n'
    )

    def test_twobridge_1_1_6(self, capsys):
        assert main(["lo", "check", "builtin:twobridge:1,1,6"]) == 0
        assert capsys.readouterr().out == self.TWOBRIDGE_1_1_6

    def test_pretzel_1_2_3(self, capsys):
        assert main(["lo", "check", "builtin:pretzel:1,2,3"]) == 0
        assert capsys.readouterr().out == self.PRETZEL_1_2_3


class TestDocumentGoldens:
    """Full stdout of the commands whose documents once carried a top-level
    ``provenance`` key, pinned byte for byte without it."""

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (
                ["invariants", "6", "3", "5"],
                '{"b": -3, "euler": "-1/10", "fibers": [{"alpha": 2, "beta": 1}, {"alpha": 5, "beta": 4}, '
                '{"alpha": 5, "beta": 4}, {"alpha": 5, "beta": 4}], "h1": 25, "known": true, '
                '"notation": "M(-3; 1/2, 4/5, 4/5, 4/5)"}',
            ),
            (
                ["cable", "family", "c332b", "-1"],
                '{"b": -2, "decision": {"condition": 1, "horizontal": true}, "fibers": [{"alpha": 2, "beta": 1}, '
                '{"alpha": 2, "beta": 1}, {"alpha": 2, "beta": 1}, {"alpha": 5, "beta": 1}], '
                '"notation": "M(-2; 1/2, 1/2, 1/2, 1/5)"}',
            ),
            (
                ["cable", "check", "c235", "-3", "0"],
                '{"checked": [-3, -2, -1, 0], "failures": [], "ok": true}',
            ),
        ],
        ids=["invariants", "cable-family", "cable-check"],
    )
    def test_document(self, capsys, argv, payload):
        assert main(argv) == 0
        expected = '{"payload": ' + payload + ', "schema": "seifol/1", "status": "ok"}\n'
        assert capsys.readouterr().out == expected


class TestDecideGoldens:
    """Full stdout of ``seifert decide`` on every branch and of the default
    ``crosscheck``, pinned byte for byte."""

    @pytest.mark.parametrize(
        "form, payload",
        [
            (  # condition 1
                "M(-2; 1/2, 1/2, 1/2, 1/5)",
                '{"condition": 1, "horizontal": true, "reason": "horizontal-foliation", "verdict": "Excellent"}',
            ),
            (  # condition 2
                "M(-1; 1/2, 1/3, 1/8)",
                '{"a": 2, "condition": 2, "horizontal": true, "m": 5, "reason": "horizontal-foliation", '
                '"roles": [1, 0], "verdict": "Excellent"}',
            ),
            (  # condition 3
                "M(-2; 1/2, 5/7, 5/7)",
                '{"a": 1, "condition": 3, "horizontal": true, "m": 3, "on_reverse": true, '
                '"reason": "horizontal-foliation", "roles": [1, 0], "verdict": "Excellent"}',
            ),
            (  # refuted on the reversal
                "M(-2; 1/2, 2/3, 4/5)",
                '{"horizontal": false, "reason": "no-horizontal-foliation", "verdict": "TotalLSpace"}',
            ),
            (  # refuted at b = -1
                "M(-1; 1/2, 1/2, 1/2)",
                '{"horizontal": false, "reason": "no-horizontal-foliation", "verdict": "TotalLSpace"}',
            ),
            (  # the verdict needs no foliation criterion: no decision fields
                "M(-1; 2/5, 2/5)",
                '{"reason": "lens-type", "verdict": "TotalLSpace"}',
            ),
            (
                "M(0)",
                '{"reason": "positive-b1", "verdict": "Excellent"}',
            ),
            (  # e = 0 with three fibers
                "M(-1; 1/2, 1/4, 1/4)",
                '{"reason": "positive-b1", "verdict": "Excellent"}',
            ),
            (  # unnormalized input
                "M(1, -1/2, -1/3, -1/5)",
                '{"horizontal": false, "reason": "no-horizontal-foliation", "verdict": "TotalLSpace"}',
            ),
        ],
    )
    def test_decide(self, capsys, form, payload):
        assert main(["seifert", "decide", form]) == 0
        expected = '{"payload": ' + payload + ', "schema": "seifol/1", "status": "ok"}\n'
        assert capsys.readouterr().out == expected

    CROSSCHECK = (
        '{"payload": {"computable": 146, "consistent": 146, "inconsistencies": [], "queries": 152, '
        '"total_l_spaces": [[2, 2, 3], [2, 2, 5], [2, 2, 7], [2, 2, 9], [2, 3, 4], [2, 3, 5], '
        '[3, 2, 3], [3, 2, 5], [4, 2, 3], [5, 2, 3]]}, "schema": "seifol/1", "status": "ok"}\n'
    )

    def test_default_crosscheck(self, capsys):
        assert main(["crosscheck"]) == 0
        assert capsys.readouterr().out == self.CROSSCHECK

    def test_decide_searches_once(self, capsys, monkeypatch):
        calls = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(foliation, "witness_search", counting("witness_search", foliation.witness_search))
        wrapped = counting("normalize", seifert.normalize)
        for module in (seifert, foliation, cli):
            monkeypatch.setattr(module, "normalize", wrapped)
        # condition 2; e = 0 with three fibers; lens type: the last two need no search
        for form, searches in [("M(-1; 1/2, 1/3, 1/8)", 1), ("M(-1; 1/2, 1/4, 1/4)", 0), ("M(-1; 2/5, 2/5)", 0)]:
            calls.update(witness_search=0, normalize=0)
            assert main(["seifert", "decide", form]) == 0
            assert calls == {"witness_search": searches, "normalize": 1}, form


class TestErrorHandling:
    def test_domain_error_exit_one(self, capsys):
        code, doc = run(capsys, "surgery", "1", "2", "3", "6/1")
        assert code == 1
        assert doc["status"] == "error" and doc["code"] == "fiber-slope-filling"

    def test_notation_error(self, capsys):
        code, doc = run(capsys, "seifert", "euler", "M(2/4)")
        assert code == 1 and doc["code"] == "notation-error"

    @pytest.mark.parametrize(
        "source, message",
        [
            ("builtin:twobridge:1,2", "twobridge takes parameters k l n"),
            ("builtin:pretzel:1,2,3,4", "pretzel takes parameters k l m"),
            ("builtin:twobridge", "twobridge takes parameters k l n"),
            ("builtin:twobridge:1,x,3", "not an integer: 'x'"),
        ],
    )
    def test_builtin_parameter_count(self, capsys, source, message):
        code, doc = run(capsys, "lo", "check", source)
        assert code == 1
        assert doc == {"status": "error", "code": "notation-error", "message": message}

    def test_generator_cap_refused_before_building(self, capsys, monkeypatch):
        def unexpected(*args):
            raise AssertionError("presentation built beyond the generator cap")

        monkeypatch.setattr(presentations, "present_two_bridge_cover", unexpected)
        monkeypatch.setitem(cli._BUILTIN_COVERS, "twobridge", (unexpected, "k l n"))
        refused = {"status": "error", "code": "too-many-generators", "message": "25 generators exceeds cap 24"}
        assert run(capsys, "lo", "check", "builtin:twobridge:1,1,25") == (1, refused)
        assert run(capsys, "present", "twobridge", "1", "1", "25") == (1, refused)

    def test_cable_window_cap_refused_before_checking(self, capsys, monkeypatch):
        def unexpected(*args):
            raise AssertionError("cable window checked beyond the cap")

        cap = cli.CABLE_WINDOW_CAP
        with monkeypatch.context() as patched:
            patched.setattr(gluing, "cable_family_check", unexpected)
            # c235 has k_max = 0, so the checked window is [kmin, 0] however large kmax is
            for kmin, kmax in [(-cap, 0), (-cap, 10**9), (-(10**9), 0)]:
                refused = {
                    "status": "error",
                    "code": "domain-error",
                    "message": f"window of {1 - kmin} values exceeds cap {cap}",
                }
                assert run(capsys, "cable", "check", "c235", str(kmin), str(kmax)) == (1, refused)
        code, doc = run(capsys, "cable", "check", "c235", str(1 - cap), "500")
        assert code == 0 and doc["payload"]["ok"] is True
        assert doc["payload"]["checked"] == list(range(1 - cap, 1))

    def test_sweep_cap_refused_before_sweeping(self, capsys, monkeypatch):
        def unexpected(*args):
            raise AssertionError("sweep run beyond the cap")

        cap = cli.SWEEP_CAP
        with monkeypatch.context() as patched:
            patched.setattr(torus_covers, "crosscheck_sweep", unexpected)
            for sweep in [(cap + 1, 2, 3), (2, cap + 1, 3), (2, 3, 10**9)]:
                refused = {
                    "status": "error",
                    "code": "domain-error",
                    "message": f"sweep bound {max(sweep)} exceeds cap {cap}",
                }
                assert run(capsys, "crosscheck", "--sweep", *map(str, sweep)) == (1, refused)
        code, doc = run(capsys, "crosscheck", "--sweep", str(cap), str(cap), str(cap))
        assert code == 0 and doc["payload"]["inconsistencies"] == []
        assert doc["payload"]["queries"] == sum(1 for _ in torus_covers.sweep_queries(cap, cap, cap))

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
        reason="integers of any length convert to str",
    )
    def test_unprintable_payload_is_an_error_document(self, capsys):
        # fibers 1/(10^9 + i): with 500, |H1| has about 4500 digits, past the
        # int-to-str limit, when json writes it; with 900 the Euler number's
        # numerator is past it too, when the handler writes it as a string
        limit = sys.get_int_max_str_digits()
        message = f"result holds an integer longer than {limit} digits, the interpreter's limit"
        for op, count in [("h1", 500), ("euler", 900)]:
            form = "M(-1; " + ", ".join(f"1/{10**9 + i}" for i in range(count)) + ")"
            assert main(["seifert", op, form]) == 1
            captured = capsys.readouterr()
            assert captured.err == ""
            doc = json.loads(captured.out)
            assert doc == {"status": "error", "code": "domain-error", "message": message}

    BIG = "7" * 5000  # past the int-to-str digit limit

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
        reason="integers of any length convert from str",
    )
    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (["cf", "expand", BIG], None),
            (["seifert", "decide", f"M(-1; 1/2, 1/3, 1/{BIG})"], None),
            (["lo", "check", "-"], f"gens: a; rel: a^{BIG}"),
            (["classify", BIG, "3", "5"], None),
            (["invariants", "2", BIG, "5"], None),
            (["cf", "eval", f"[2,{BIG}]"], None),
            (["surgery", "1", "2", "3", "--", f"{BIG}/1"], None),
            (["slope", "apply", f"1,{BIG},0,1", "1/1"], None),
            (["lo", "check", f"builtin:twobridge:1,1,{BIG}"], None),
        ],
        ids=["cf-expand", "seifert", "exponent", "classify", "invariants", "cf-eval", "slope", "matrix", "builtin"],
    )
    def test_over_long_integer_is_a_short_notation_error(self, capsys, monkeypatch, argv, stdin):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["status"] == "error" and doc["code"] == "notation-error"
        assert "set_int_max_str_digits" not in doc["message"]
        assert len(doc["message"]) < 200
        assert doc["message"] == f"integer longer than {sys.get_int_max_str_digits()} digits, the interpreter's limit"

    def test_malformed_long_token_message_stays_short(self, capsys):
        code, doc = run(capsys, "cf", "expand", "x" * 5000)
        assert (code, doc["code"]) == (1, "notation-error")
        assert doc["message"] == "not an integer: " + repr("x" * 40) + "..."

    def test_widened_number_grammar(self, capsys, monkeypatch):
        # every number is read with Python's int() grammar: a signed
        # denominator, a "+" sign and "_" separators are accepted everywhere
        for argv, same in [
            (["cf", "expand", "--", "3/-4"], ["cf", "expand", "--", "-3/4"]),
            (["cf", "expand", " +1_9 / 3 "], ["cf", "expand", "19/3"]),
            (["seifert", "normalize", "M(+3/4, -1/+2)"], ["seifert", "normalize", "M(0; 3/4, -1/2)"]),
            (["seifert", "euler", "M(1_0; 1/2)"], ["seifert", "euler", "M(10; 1/2)"]),
        ]:
            assert run(capsys, *argv) == run(capsys, *same)
        _, doc = run(capsys, "cf", "expand", "--", "3/-4")
        assert doc["payload"]["terms"] == [-1, 4]
        monkeypatch.setattr(sys, "stdin", io.StringIO("gens: a b; rel: a^+1_0 b^-1"))
        code, doc = run(capsys, "lo", "check", "-")
        monkeypatch.setattr(sys, "stdin", io.StringIO("gens: a b; rel: a^10 b^-1"))
        assert (code, doc) == run(capsys, "lo", "check", "-")
        assert code == 0

    def test_builtin_parameter_cap_refused_before_building(self, capsys, monkeypatch):
        def unexpected(*args):
            raise AssertionError("presentation built beyond the parameter cap")

        cap = cli.BUILTIN_PARAMETER_CAP
        with monkeypatch.context() as patched:
            for family, names in [("twobridge", "k l n"), ("pretzel", "k l m")]:
                patched.setitem(cli._BUILTIN_COVERS, family, (unexpected, names))
            for family, params in [
                ("pretzel", (1, 1, cap + 1)),
                ("pretzel", (10**6, 1, 1)),
                ("twobridge", (1, cap + 1, 3)),
                ("twobridge", (cap + 1, 1, 24)),
            ]:
                value = max(params)
                refused = {
                    "status": "error",
                    "code": "domain-error",
                    "message": f"{family} parameter {value} exceeds cap {cap}",
                }
                assert run(capsys, "present", family, *map(str, params)) == (1, refused)
                builtin = f"builtin:{family}:" + ",".join(map(str, params))
                assert run(capsys, "lo", "check", builtin) == (1, refused)
            # the generator cap is checked first and keeps its own code
            code, doc = run(capsys, "present", "twobridge", "1", "1", "1000000")
            assert (code, doc["code"]) == (1, "too-many-generators")
        code, doc = run(capsys, "present", "pretzel", str(cap), str(cap), str(cap))
        assert code == 0 and len(doc["payload"]["relators"]) == 8
        code, doc = run(capsys, "lo", "check", f"builtin:twobridge:{cap},{cap},2")
        assert code == 0 and doc["payload"]["assignments_checked"] == 4

    def test_strand_cap_refused_before_describing(self, capsys, monkeypatch):
        def unexpected(*args):
            raise AssertionError("surgery described beyond the strand cap")

        cap = cli.STRAND_CAP
        with monkeypatch.context() as patched:
            patched.setattr(presentations, "pretzel_surgery_description", unexpected)
            for n, k in [(cap + 1, 10**6), (2 * cap + 1, cap), (10**9, 10**9)]:
                refused = {"status": "error", "code": "domain-error", "message": f"{n} strands exceeds cap {cap}"}
                assert run(capsys, "pretzel-surgery", str(n), str(k), "1", "+") == (1, refused)
        # n divides the odd 2k + 1 = 3n, so the largest accepted n is odd
        n = cap - 1 + cap % 2
        code, doc = run(capsys, "pretzel-surgery", str(n), str((3 * n - 1) // 2), "1", "+")
        assert code == 0 and doc["payload"]["strands"] == [3] * n
        assert doc["payload"]["coefficient"] == "1/3"

    def test_fiber_cap_refused_before_building(self, capsys, monkeypatch):
        def unexpected(*args):
            raise AssertionError("cover built beyond the fiber cap")

        cap = cli.FIBER_CAP
        with monkeypatch.context() as patched:
            patched.setattr(torus_covers, "branched_invariants", unexpected)
            # 1 + gcd(n, p) + gcd(n, q) fibers at most
            for n, p, q in [(cap, cap, 3), (200000, 200000, 3), (6 * cap, 2 * cap, 3)]:
                fibers = 1 + gcd(n, p) + gcd(n, q)
                refused = {"status": "error", "code": "domain-error", "message": f"{fibers} fibers exceeds cap {cap}"}
                assert run(capsys, "invariants", str(n), str(p), str(q)) == (1, refused)
        # a large n with small gcds stays accepted
        code, doc = run(capsys, "invariants", str(10**12 + 1), "2", "3")
        assert code == 0 and doc["payload"]["known"] is True
        code, doc = run(capsys, "invariants", str(cap - 2), str(cap - 2), "5")
        assert code == 0 and len(doc["payload"]["fibers"]) == cap - 2

    def test_closed_pipe_exits_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before anything is written
        try:
            result = subprocess.run(
                [sys.executable, "-m", "seifol.cli", "present", "twobridge", "1", "1", "24"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(SRC)},
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert result.stderr == b""
        assert result.returncode == 1

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["surgery", "{}", "2", "3", "1/1"],
            ["cable", "family", "c235", "{}"],
            ["cable", "check", "c235", "-3", "{}"],
            ["present", "pretzel", "1", "{}", "3"],
            ["crosscheck", "--sweep", "9", "{}", "9"],
            ["pretzel-surgery", "3", "{}", "1", "+"],
        ],
        ids=["surgery", "cable-family", "cable-check", "present", "crosscheck", "pretzel-surgery"],
    )
    def test_integer_arguments_read_by_the_reader(self, capsys, argv):
        # every integer argument has the reader's grammar and its short
        # message; a refusal stays a usage error: exit 2, nothing on stdout
        refused = [("x" * 5000, "not an integer: " + repr("x" * 40) + "..."), ("two", "not an integer: 'two'")]
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            refused.append(("7" * 5000, f"integer longer than {limit} digits, the interpreter's limit"))
        for token, message in refused:
            with pytest.raises(SystemExit) as err:
                main([a.format(token) for a in argv])
            captured = capsys.readouterr()
            assert (err.value.code, captured.out) == (2, "")
            assert len(captured.err) < 300 and message in captured.err
        assert main([a.format("+1_0") for a in argv]) in (0, 1)  # int()'s grammar, as before
        capsys.readouterr()

    @staticmethod
    def quoted(text):
        return repr(text[:40]) + ("..." if len(text) > 40 else "")

    REFUSALS = {
        "cf-expand": lambda d, q: (["cf", "expand", f"{d}/0"], f"zero denominator: {q(d + '/0')}"),
        "cf-list": lambda d, q: (["cf", "eval", f"[{d}"], f"not a bracketed list: {q('[' + d)}"),
        "cf-terms": lambda d, q: (
            ["cf", "eval", f"[{d}, 0]"],
            f"bad continued fraction {q(f'[{d}, 0]')}: continued fraction terms must be nonzero",
        ),
        "seifert-form": lambda d, q: (["seifert", "h1", f"X({d})"], f"not a Seifert form: {q(f'X({d})')}"),
        "seifert-zero": lambda d, q: (["seifert", "h1", f"M(1; {d}/0)"], f"zero multiplicity in token {q(d + '/0')}"),
        "seifert-terms": lambda d, q: (["seifert", "h1", f"M(2/{d})"], f"fiber {q('2/' + d)} is not in lowest terms"),
        "slope": lambda d, q: (
            ["surgery", "1", "2", "3", "--", f"2/{d}"],
            f"bad slope {q('2/' + d)}: " + (f"slope (2, {d}) is not primitive" if len(d) < 30 else "not primitive"),
        ),
        "matrix": lambda d, q: (["slope", "apply", f"1,2,{d}", "1/1"], f"need 4 matrix entries, got {q('1,2,' + d)}"),
        "cable": lambda d, q: (["cable", "family", f"c{d}", "0"], f"unknown cable case {q('c' + d)}; known: "),
        "builtin": lambda d, q: (["lo", "check", f"builtin:x{d}:1,2,3"], f"unknown builtin {q('x' + d)}"),
    }

    @pytest.mark.parametrize("case", REFUSALS)
    def test_refusals_quote_at_most_forty_characters(self, capsys, case):
        # a short input is named whole, as before; a long one by its first
        # 40 characters and "..."
        for digits in ["4", "4" * 4000]:
            argv, message = self.REFUSALS[case](digits, self.quoted)
            code, doc = run(capsys, *argv)
            assert (code, doc["code"]) == (1, "notation-error")
            assert doc["message"].startswith(message) and len(doc["message"]) < 250

    @staticmethod
    def cut(digits):
        return digits[:40] + ("..." if len(digits) > 40 else "")

    # (argv, error code, message) for the digit string d; c cuts a number
    NUMBER_REFUSALS = {
        "coprime-pq": lambda d, c: (
            ["classify", "2", d, d], "notation-error", f"p = {c(d)} and q = {c(d)} must be coprime"
        ),
        "coprime-rs": lambda d, c: (
            ["surgery", "1", d, d, "1/1"], "domain-error", f"r = {c(d)} and s = {c(d)} must be coprime"
        ),
        "slope-count": lambda d, c: (["surgery", d, "2", "3", "1/1"], "domain-error", f"expected {c(d)} slopes, got 1"),
        # (3...3)^2 - 1 starts with forty ones once d has more than 40 digits
        "determinant": lambda d, c: (
            ["slope", "apply", f"1,{d},{d},1", "1/1"],
            "notation-error",
            f"slope map must have determinant +/-1, got -{c('1' * 80) if len(d) > 40 else int(d) ** 2 - 1}",
        ),
        "indivisible": lambda d, c: (
            ["pretzel-surgery", "3", d, "1", "+"],
            "indivisible-surgery",
            f"3 does not divide 2k+1 = {c('6' * (len(d) - 1) + '7')}",
        ),
        "strands": lambda d, c: (
            ["pretzel-surgery", d, "1", "1", "+"], "domain-error", f"{c(d)} strands exceeds cap 1000"
        ),
        "parameter": lambda d, c: (
            ["present", "pretzel", "1", "1", d], "domain-error", f"pretzel parameter {c(d)} exceeds cap 1000"
        ),
        "generators": lambda d, c: (
            ["present", "twobridge", "1", "1", d], "too-many-generators", f"{c(d)} generators exceeds cap 24"
        ),
        "builtin": lambda d, c: (
            ["lo", "check", f"builtin:twobridge:1,1,{d}"], "too-many-generators", f"{c(d)} generators exceeds cap 24"
        ),
        "window": lambda d, c: (
            ["cable", "check", "c235", "-" + d, "0"],
            "domain-error",
            f"window of {c(d[:-1] + '4')} values exceeds cap 1000",
        ),
        "sweep": lambda d, c: (
            ["crosscheck", "--sweep", d, "2", "2"], "domain-error", f"sweep bound {c(d)} exceeds cap 30"
        ),
        "fibers": lambda d, c: (
            ["invariants", d, d, "2"], "domain-error", f"{c(d[:-1] + '5')} fibers exceeds cap 2000"
        ),
        "cf-expand": lambda d, c: (
            ["cf", "expand", f"1/{d}"],
            "degenerate-expansion",
            f"1/{c(d)} lies in [0, 1); greedy expansion would need a zero leading term",
        ),
        "cf-eval": lambda d, c: (
            ["cf", "eval", f"[{d},1,-1]"],
            "degenerate-expansion",
            f"zero intermediate denominator in [{c(d + ',1,-1')}]",
        ),
    }

    @pytest.mark.parametrize("case", NUMBER_REFUSALS)
    def test_number_refusals_name_at_most_forty_digits(self, capsys, case):
        # up to 40 digits a number is named whole, as before; past that by
        # its first 40 digits and "...", with no str() of the whole integer
        for digits in ["3333", "3" * 4000]:
            argv, error, message = self.NUMBER_REFUSALS[case](digits, self.cut)
            code = main(argv)
            out = capsys.readouterr().out
            assert (code, json.loads(out)) == (1, {"status": "error", "code": error, "message": message})
            assert len(out) < 300

    def test_presentation_refusals_quote_at_most_forty_characters(self, capsys, monkeypatch):
        zeros = "0" * 4000
        names = [f"u{i}" for i in range(500)]
        for text, message in [
            ("gens: a; rel: a b", "relator uses undeclared generators 'b'"),
            (
                f"gens: a; rel: {' '.join(names)}",
                f"relator uses undeclared generators {self.quoted(' '.join(sorted(names)))}",
            ),
            ("gens: a; rel: a^0", "zero exponent in 'a^0'"),
            (f"gens: a; rel: a^{zeros}", f"zero exponent in {self.quoted('a^' + zeros)}"),
            (f"gens: a; rel: 1{zeros}", f"bad letter {self.quoted('1' + zeros)}"),
            (f"gens: a; x{zeros}", f"unrecognized section {self.quoted('x' + zeros)}"),
        ]:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert run(capsys, "lo", "check", "-") == (
                1,
                {"status": "error", "code": "notation-error", "message": message},
            )


class TestParserReuse:
    """``main`` builds its parser once per process and shares it."""

    ARGVS = [
        ["classify", "2", "3", "5"],
        ["--pretty", "classify", "2", "3", "5"],
        ["classify", "2", "3", "5", "--pretty"],
        ["cf", "eval", "[2,-2]"],
        ["--pretty", "cf", "expand", "--policy", "even-terms", "3/2"],
        ["cf", "expand", "19/3"],
        ["seifert", "decide", "M(-1; 1/2, 1/3, 1/8)", "--pretty"],
        ["seifert", "h1", "M(-1; 2/5, 2/5)"],
        ["seifert", "euler", "M(2/4)"],  # notation error
        ["surgery", "1", "2", "3", "6/1"],  # domain error
        ["surgery", "--mirror", "1", "2", "3", "--", "-2/1"],
        ["crosscheck", "--sweep", "4", "4", "4"],
        ["cable", "check", "c235", "-3", "0"],
        ["present", "twobridge", "1", "1", "4"],
        ["lo", "check", "builtin:pretzel:1,1,1"],
        ["classify", "2", "3"],  # usage error
        ["frobnicate"],  # usage error
        ["slope", "fixed", "1,0,0,1"],
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_built_once(self, capsys, monkeypatch):
        build, calls = cli.build_parser, []

        def counting():
            calls.append(None)
            return build()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting)
        for i in range(20):
            assert main(["classify", str(2 + i), "3", "5"]) == 0
        capsys.readouterr()
        cli._parser.cache_clear()
        assert len(calls) == 1

    def test_shared_parser_answers_as_a_fresh_one(self, capsys):
        fresh = []
        for argv in self.ARGVS:
            cli._parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        cli._parser.cache_clear()
        for _ in range(2):
            assert [self.outcome(capsys, argv) for argv in self.ARGVS] == fresh
        assert cli.build_parser() is not cli.build_parser()
        codes = [code for code, _, _ in fresh]
        assert codes.count(2) == 2 and codes.count(1) == 2 and codes.count(0) == len(self.ARGVS) - 4
        usage = fresh[self.ARGVS.index(["frobnicate"])]
        assert usage[1] == "" and usage[2].startswith("usage: seifol")
