"""Tests of the benchmark itself, on f = 4 inputs so they run in seconds.

Run from the root of the checkout:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402
from pfaffcalc import resolutions  # noqa: E402
from pfaffcalc.betti import BettiTable  # noqa: E402


def _tables_f4():
    return {"betti": {
        "N4": resolutions.ladder_betti(
            workloads.presentation("N", 4, workloads.GF_CHAR, 0)).data,
        "RJ4": resolutions.ladder_betti(
            workloads.presentation("RJ", 4, workloads.GF_CHAR, 0)).data,
    }}


def test_frozen_tables_have_the_stated_totals():
    tables = workloads.load_expected()["betti"]
    assert BettiTable(tables["N6"]).totals() == \
        [6, 20, 84, 140, 84, 20, 6]
    assert BettiTable(tables["RJ6"]).totals() == \
        [1, 21, 56, 141, 210, 141, 56, 21, 1]


def test_wrong_frozen_table_is_a_failed_op_not_a_crash():
    expected = _tables_f4()
    wrong = dict(expected["betti"]["N4"])
    wrong[(0, (0, 0))] += 1
    expected["betti"]["N4"] = wrong
    ops = workloads.ladder_ops(0, expected, f=4)
    assert workloads.run_ops(ops, log=_Sink()) == (3, 1)


def test_op_that_raises_is_a_failed_op_not_a_crash(monkeypatch):
    def boom(pres, max_len):
        raise RuntimeError("engine fault")
    monkeypatch.setattr(resolutions, "free_resolution", boom)
    ops = workloads.resolve_ops(0, _tables_f4(), f=4)
    ops += workloads.ladder_ops(0, _tables_f4(), f=4)
    assert workloads.run_ops(ops, log=_Sink()) == (4, 1)


def test_verify_op_checks_exit_code_status_and_digest(monkeypatch):
    from pfaffcalc import cli
    report = json.dumps({"status": "pass"})
    digest = hashlib.sha256(report.encode()).hexdigest()
    monkeypatch.setattr(cli, "main", lambda argv: print(report, end="") or 0)
    good = {"verify_sha256": {"0": digest}}
    bad = {"verify_sha256": {"0": "0" * 64}}
    assert workloads.run_ops(workloads.verify_ops(0, good) * 2,
                             log=_Sink()) == (2, 0)
    assert workloads.run_ops(workloads.verify_ops(0, bad),
                             log=_Sink()) == (1, 1)
    monkeypatch.setattr(cli, "main", lambda argv: print(report, end="") or 1)
    assert workloads.run_ops(workloads.verify_ops(5, good),
                             log=_Sink()) == (1, 1)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_every_seed_gives_the_frozen_tables(seed):
    expected = _tables_f4()
    ops = workloads.ladder_ops(seed, expected, f=4) + \
        workloads.resolve_ops(seed, expected, f=4)
    assert workloads.run_ops(ops, log=_Sink()) == (4, 0)


def test_seed_zero_keeps_the_command_line_column_order():
    pres = workloads.presentation("N", 4, workloads.GF_CHAR, 0)
    from pfaffcalc.constructions import module_presentation
    orig = module_presentation("N", pres.ring)
    assert pres.entries == orig.entries and pres.col_degs == orig.col_degs
    shuffled = workloads.presentation("N", 4, workloads.GF_CHAR, 1)
    assert shuffled.col_degs != orig.col_degs or \
        shuffled.entries != orig.entries


def _traced_counts():
    import pfaffcalc.cli  # noqa: F401  (the tracer wraps every layer)
    tracer = spans.Tracer()
    tracer.install()
    try:
        expected = _tables_f4()
        ops = workloads.ladder_ops(0, expected, f=4) + \
            workloads.resolve_ops(0, expected, f=4)
        assert workloads.run_ops(ops, log=_Sink()) == (4, 0)
    finally:
        tracer.restore()
    metrics = spans.layer_metrics(tracer)
    counts = [m for m in spans.SPAN_METRICS if m.endswith(".calls")] + \
        [m for m, _ in spans.COUNT_METRICS]
    return {m: metrics[m] for m in counts}


def test_counts_repeat_exactly_between_two_traced_runs():
    first, second = _traced_counts(), _traced_counts()
    assert first == second
    assert first["gbengine.ladder_gens"] > 0
    assert first["resolutions.units_contracted"] > 0
    assert 0 < first["resolutions.useful_ratio"] < 1
    assert first["constructions.GradedMatrix.matmul.entry_products"] > 0
    assert first["gbengine.nf.calls"] > 0


def test_restore_puts_every_original_back():
    from pfaffcalc import gbengine, groebner, homology, verify
    before = (gbengine.nf, homology.nf, groebner.nf, verify.free_resolution,
              resolutions.FreeComplex.__dict__["check"],
              dict(verify._SUITE_BUILDERS))
    tracer = spans.Tracer()
    tracer.install()
    assert homology.nf is gbengine.nf is not before[0]
    tracer.restore()
    after = (gbengine.nf, homology.nf, groebner.nf, verify.free_resolution,
             resolutions.FreeComplex.__dict__["check"],
             dict(verify._SUITE_BUILDERS))
    assert after == before


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    tracer.spans = [(2, "child", 1.0, 3.0, 1, True),
                    (3, "child", 4.0, 5.0, 1, True),
                    (1, "parent", 0.0, 10.0, 0, True)]
    totals = tracer.totals()
    assert totals["parent"] == (10.0, 7.0, 1)
    assert totals["child"] == (3.0, 3.0, 2)


def test_benchmark_json_lists_every_metric_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    printed = spans.SPAN_METRICS + [m for m, _ in spans.COUNT_METRICS] + \
        ["trace.overhead_s"]
    assert [m["name"] for m in bench["per_layer"]] == printed
    assert [m["name"] for m in bench["end_to_end"]] == \
        ["wall_s", "cpu_s", "peak_rss_mb", "setup_s"]
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)


def test_run_without_a_source_tree_exits_nonzero_silently(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder-f6",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


class _Sink:
    def write(self, text):
        pass
