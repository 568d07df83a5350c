"""Checks of the layered benchmark itself, at its ``--quick`` sizes.

    PYTHONPATH=src:. python -m pytest benchmarks/layered/test_layered.py -q

The module fixture runs the whole suite once (every workload untraced,
then traced, each in a child process) into a temporary results file.
"""

from __future__ import annotations

import argparse

import pytest

from benchmarks.layered import records, run

run._bootstrap()  # noqa: SLF001 - puts src/ on the path for the imports below

from benchmarks.layered.spans import LAYERS, Spans, TimedMonitor, leaked
from benchmarks.layered.workloads import WORKLOADS, _engine
from repro.chaos import ChaosCampaign
from repro.errors import SafetyViolation
from repro.sim.monitors import PotentialMonitor


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    results = tmp_path_factory.mktemp("layered") / "results.jsonl"
    args = argparse.Namespace(seed=0, reps=1, quick=True, seconds=0.0)
    return run.run_suite(args, run.spec(), results), results


def _details(suite, kind):
    result, _ = suite
    return [d for runs in result["details"].values() for d in runs[kind]]


def test_quick_suite_passes_its_correctness_gate(suite):
    result, _ = suite
    assert result["problems"] == []
    assert set(result["summary"]) == set(WORKLOADS)
    for s in result["summary"].values():
        assert s["exact"]["fail_frac"] == 0
    assert all(d["correct"] for d in _details(suite, "untraced") + _details(suite, "traced"))


def test_result_lines_carry_exactly_the_benchmark_metrics(suite):
    benchmark = run.spec()
    for kind, section in (("untraced", "end_to_end"), ("traced", "per_layer")):
        for detail in _details(suite, kind):
            line = run.result_line(detail, benchmark)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert list(line["metrics"]) == [m["name"] for m in benchmark[section]]


def test_campaign_with_wrapped_potential_monitor_raises_no_violation():
    p = WORKLOADS["supervised"].quick
    spans = Spans()
    campaign = ChaosCampaign(seed=9, period=2_000)
    engine = _engine(p["n"], 9, monitors=[
        TimedMonitor(spans, "chaos.campaign", campaign),
        TimedMonitor(spans, "sim.monitors", PotentialMonitor(check_every=64)),
    ])
    with spans.region():
        engine.run(p["steps"])
    assert engine.step_count == p["steps"]
    assert campaign.injections

    # Control: a closure hides PotentialMonitor.rebase from the campaign,
    # and the first Φ rise after an injection reads as a violation.
    monitor = PotentialMonitor(check_every=64)
    engine = _engine(p["n"], 9, monitors=[
        ChaosCampaign(seed=9, period=2_000),
        lambda engine, executed: monitor(engine, executed),
    ])
    with pytest.raises(SafetyViolation, match="Lemma 3"):
        engine.run(p["steps"])


def test_class_level_wrappers_never_leak(suite):
    for detail in _details(suite, "untraced") + _details(suite, "traced"):
        assert detail["leaked"] == []
    spans = Spans()
    wrapped = sum(len(methods) for methods in LAYERS.values())
    assert leaked() == []
    with spans.region():
        assert len(leaked()) == wrapped
    assert leaked() == []
    with pytest.raises(RuntimeError), spans.region():
        raise RuntimeError("a failing region still restores the originals")
    assert leaked() == []


def test_self_times_plus_unattributed_equal_traced_wall(suite):
    for detail in _details(suite, "traced"):
        total = sum(row["self_s"] for row in detail["layers"].values())
        total += detail["tracing_s"] + detail["unattributed_s"]
        assert total == pytest.approx(detail["traced_wall_s"], rel=0.01)


def test_record_ids_are_deterministic(suite):
    result, path = suite
    stored = records.load(path)
    assert set(stored) == {r["id"] for r in result["records"]}
    for rec in result["records"]:
        key = dict(workload=rec["workload"], stack=rec["stack"], params=rec["params"],
                   seed=rec["seed"], commit=rec["commit"], host=rec["host"])
        assert records.record_id(**key) == rec["id"]
        assert records.record_id(**{**key, "seed": rec["seed"] + 1}) != rec["id"]
        resized = {**rec["params"], "n": rec["params"]["n"] + 1}
        assert records.record_id(**{**key, "params": resized}) != rec["id"]
    before = path.read_text()
    assert records.append(path, result["records"]) == []  # deduplicated
    assert path.read_text() == before
