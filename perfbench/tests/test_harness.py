"""Tests of the benchmark harness itself (not of qsym).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import qsym  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qsym import StrictPartition, VariableSpec  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tracer():
    t = tracer_mod.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_workloads_match_recorded_digests():
    digests = json.loads(worker.DIGESTS.read_text())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        ids = [item.id for item in workloads.build(name)]
        assert len(ids) == len(set(ids)) == workloads.EXPECTED_COUNTS[name]
        assert set(ids) == set(digests[name])


def test_tail_has_ten_values_beyond_it():
    values = list(range(654))
    got, pct = run.tail(values)
    assert sum(v > got for v in values) == 10
    assert pct == pytest.approx(100 * 644 / 654)
    assert run.tail(list(range(18))) == (7, pytest.approx(100 * 8 / 18))
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_speed_clock_scales_gaps_and_leaves_out_probes():
    clock = speed.SpeedClock()
    ref = speed.REF_PROBE_S
    clock.starts, clock.ends, clock.probes = [0.0, 1.0, 2.0], [0.1, 1.1, 2.1], [ref, ref, 2 * ref]
    measured, scaled = clock.measure(0.1, 2.0)
    assert measured == pytest.approx(1.8)
    assert scaled == pytest.approx(0.9 + 0.9 * 2 / 3)
    measured, scaled = clock.measure(0.5, 1.05)
    assert (measured, scaled) == (pytest.approx(0.5), pytest.approx(0.5))


def test_speed_clock_probes_on_a_timer():
    clock = speed.SpeedClock()
    clock.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 5 * speed.EVERY_S:
        sum(range(1000))
    t1 = time.perf_counter()
    clock.stop()
    assert len(clock.probes) >= 5
    measured, scaled = clock.measure(t0, t1)
    assert 0 < measured < t1 - t0
    assert scaled > 0


def test_check_item_fails_on_disagreement_and_on_digest():
    item = workloads.expand_items()[0]
    one = qsym.LaurentPoly.one(2)
    good = worker.digest((one,))
    assert worker.check_item(item, [("a", (one,))], {item.id: good}, False) == (good, None)
    _, why = worker.check_item(item, [("a", (one,))], {item.id: "0" * 64}, False)
    assert "digest" in why
    _, why = worker.check_item(item, [("a", (one,)), ("b", (one.scale(2),))], {}, True)
    assert "disagree" in why


def test_tracer_rebinds_from_imports_and_restores_them(tracer):
    assert qsym.qfun.enum_qt.__wrapped__ is qsym.tableaux.enum_qt.__wrapped__
    assert qsym.qfun.pfaffian.__wrapped__ is qsym.linalg.pfaffian.__wrapped__
    assert qsym.symfun.series_from_linear_factors.__wrapped__ is not None
    assert qsym.LaurentPoly.__mul__.__wrapped__ is not None
    tracer.uninstall()
    assert not hasattr(qsym.qfun.enum_qt, "__wrapped__")
    assert not hasattr(qsym.LaurentPoly.__mul__, "__wrapped__")


def test_generator_gets_one_span_per_call_with_yield_count(tracer):
    lam, mu, spec = StrictPartition((3, 1)), StrictPartition(()), VariableSpec(1, 1)
    count = sum(1 for _ in qsym.tableaux.enum_qt.__wrapped__(spec, lam, mu))
    with tracer.span("bench.item", "x"):
        qsym.qI_tableau(lam, mu, spec, tracer.new_context())
    agg = tracer.aggregate()
    assert agg["tableaux.enum_qt"]["calls"] == 1
    assert agg["tableaux.enum_qt"]["yields"] == count > 0
    assert agg["tableaux.qt_weight"]["calls"] == count
    for span in tracer.root.walk():
        if span is not tracer.root:
            assert span.total - span.child >= -1e-9
    (item,) = [s for s in tracer.root.children.values() if s.name == "bench.item"]
    assert item.item == "x"
    assert item.total >= agg["qfun.qI_tableau"]["total"]


def test_traced_outputs_equal_untraced():
    items = [i for i in workloads.sweep_items() if i.args[0].length == 3][:4]
    items += workloads.schur_series_items()[:2]

    def outputs(new_context):
        shared = new_context()
        return [
            workloads.run_item(i, lambda route, fn, *a: fn(*a), new_context, shared)
            for i in items
        ]

    plain = outputs(qsym.QContext)
    t = tracer_mod.Tracer()
    t.install()
    try:
        traced = outputs(t.new_context)
    finally:
        t.uninstall()
    assert traced == plain
    assert t.cache_counts[0] + t.cache_counts[1] > 0


def test_layer_metrics_cover_benchmark_json():
    t = tracer_mod.Tracer()
    produced = set(tracer_mod.layer_metrics(t))
    produced |= {
        "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s",
        "trace.overhead_frac", "trace.spans",
    }
    assert {m["name"] for m in BENCHMARK["per_layer"]} == produced


def test_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "schur_series",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 405
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_qsym_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
