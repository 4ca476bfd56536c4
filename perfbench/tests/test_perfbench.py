"""Tests of the benchmark itself: smoke runs, tracing, and checkers that
must reject planted wrong answers.

    python -m pytest perfbench/tests -q
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import seifol  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402


def answers(name, seed=3):
    """One block of a workload with its outputs."""
    workload = workloads.WORKLOADS[name]()
    items = workload.block(random.Random(seed))
    return workload, [(item, workload.run(item)) for item in items]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_block_is_answered_correctly(name):
    workload, pairs = answers(name)
    verdicts = [workload.check(item, out) for item, out in pairs]
    assert all(v in (None, workloads.UNSUPPORTED) for v in verdicts), verdicts


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    workload = workloads.WORKLOADS[name]()

    def inputs(seed):  # cli items end with a payload check, a fresh closure
        return repr([item[:3] if name == "cli" else item for item in workload.block(random.Random(seed))])

    assert inputs(11) == inputs(11)
    assert inputs(12) != inputs(11)


def test_decide_covers_every_verdict_branch():
    workload = workloads.Decide()
    rng = random.Random(5)
    reasons, conditions = set(), set()
    for _ in range(20):
        for text, b, fibers, _ in workload.block(rng):
            reasons.add(checks.excellence(b, fibers)[1])
            nb, nf = checks.normal_form(b, fibers)
            if len(nf) >= 3 and checks.euler(nb, nf) != 0:
                conditions.add(checks.horizontal(nb, nf))
    assert reasons == {"positive-b1", "lens-type", "horizontal-foliation", "no-horizontal-foliation"}
    assert conditions == {1, 2, 3, None}


def test_families_reports_unsupported_covers():
    workload, pairs = answers("families", seed=1)
    verdicts = [workload.check(item, out) for item, out in pairs if item[0] == "cover"]
    assert workloads.UNSUPPORTED in verdicts and None in verdicts


def test_cli_has_usage_and_domain_errors():
    workload, pairs = answers("cli")
    codes = {out[0] for _, out in pairs}
    assert codes == {0, 1, 2}


# -- checkers are not vacuous ---------------------------------------------------------


def test_planted_wrong_witness_fails():
    item = workloads.Cli.seifert_item("decide", "M(-1; 1/2, 1/3, 1/8)", -1, ((2, 1), (3, 1), (8, 1)))
    code, text = workloads.Cli.run(item)
    assert workloads.Cli.check(item, (code, text)) is None
    doc = json.loads(text)
    assert (doc["payload"]["m"], doc["payload"]["a"], doc["payload"]["roles"]) == (5, 2, [1, 0])
    doc["payload"]["a"] = 3  # 1/2 < (5 - 3)/5 fails for the second role
    assert workloads.Cli.check(item, (code, json.dumps(doc))) is not None


def test_planted_wrong_h1_fails():
    workload = workloads.Decide()
    item = workload.block(random.Random(2))[0]
    si, verdict, h1 = workload.run(item)
    assert workload.check(item, (si, verdict, h1)) is None
    wrong = seifol.H1Order(2 * h1.order) if h1.order else seifol.H1Order(1)
    assert workload.check(item, (si, verdict, wrong)) is not None

    certify = workloads.Certify()
    item = ("snf", -1, ((2, 1), (3, 1), (7, 1)))
    h1, h1_snf = certify.run(item)
    assert certify.check(item, (h1, h1_snf)) is None
    assert certify.check(item, (h1, seifol.H1Order(h1_snf.order + 1))) is not None


def test_dropped_survivor_fails():
    certify = workloads.Certify()
    item = ("twobridge", 1, 1, 6)
    pres, report, order, extra = certify.run(item)
    assert report.survivors and certify.check(item, (pres, report, order, extra)) is None
    dropped = dataclasses.replace(report, survivors=report.survivors[1:])
    assert certify.check(item, (pres, dropped, order, extra)) is not None


def test_wrong_verdict_and_unsupported_mislabel_fail():
    families = workloads.Families()
    item = ("cover", 2, 3, 7)
    status, si, h1, h1_snf = families.run(item)
    assert families.check(item, (status, si, h1, h1_snf)) is None
    poincare = seifol.parse_seifert("M(-1; 1/2, 1/3, 1/5)")  # same H1, other verdict
    assert families.check(item, (status, poincare, h1, h1_snf)) is not None
    assert families.check(item, ("Consistent", None, None, None)) not in (None, workloads.UNSUPPORTED)


# -- tracing ------------------------------------------------------------------------


def test_tracer_attributes_self_time_and_restores():
    original = seifol.foliation.decide_excellence
    tracer = Tracer()
    tracer.install()
    try:
        assert seifol.decide_excellence is not original
        assert seifol.torus_covers.decide_excellence is seifol.decide_excellence
        tracer.item = 0
        seifol.cross_validate(seifol.TorusCoverQuery(2, 3, 7))
        seifol.branched_invariants(seifol.TorusCoverQuery(6, 2, 3))
        with pytest.raises(seifol.NotationError):
            seifol.parse_seifert("M(")
    finally:
        tracer.uninstall()
    assert seifol.decide_excellence is original
    metrics = tracer.layer_metrics()
    assert set(f"{layer}.calls" for layer in LAYERS) <= set(metrics)
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["inside_s"])
    assert metrics["torus_covers.unsupported"] == 1
    assert metrics["foliation.witnessed"] + metrics["foliation.refuted"] == 1
    assert metrics["seifert.errors"] == 1
    assert min(tracer.end[i] - tracer.start[i] for i in range(len(tracer.start))) >= 0


def test_plain_run_reports_end_to_end_metrics():
    workload = workloads.Decide()
    tally, metrics = run.run_plain(workload, random.Random(1), 0.05, min_items=50)
    assert tally.failed == 0 and tally.attempted >= 50
    assert set(metrics) == {"setup_s", "items_per_s", "item_p50_ms", "item_p99_ms", "peak_rss_mb"}
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_command_line_run():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "decide", "--seed", "4", "--seconds", "0.05", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= run.MIN_ITEMS
    metrics = result["metrics"]
    for layer in LAYERS:
        assert {f"{layer}.calls", f"{layer}.self_s", f"{layer}.errors"} <= set(metrics)
    assert metrics["foliation.calls"]["value"] > 0 and "trace_overhead_share" in metrics


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
