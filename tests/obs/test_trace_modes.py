"""Tracers ride the struct-of-arrays core: every mode records the same run.

A soa run with a tracer attached stays on the core: the kernels log each
step, and ``Engine.run`` hands a batch's steps to the tracer at the end
of the batch. The recorded execution must not depend on which core ran
it, so each shipped tracer must come out identical under ``objects``,
``soa`` and ``verify``: the JSONL sink's file byte for byte (with and
without metric records), the ``ScheduleRecorder`` events and the
``Tracer`` ring's contents.
"""

from __future__ import annotations

import pytest

from repro.core.potential import fdp_legitimate, fsp_legitimate
from repro.core.scenarios import (
    HEAVY_CORRUPTION,
    SCHEDULER_FACTORIES,
    build_fdp_engine,
    build_fsp_engine,
    choose_leaving,
)
from repro.errors import UnknownActionError
from repro.graphs import generators as gen
from repro.obs.trace import JsonlTraceSink
from repro.sim.engine import TRACE_BATCH_CAP
from repro.sim.replay import ScheduleRecorder
from repro.sim.soa import EngineCore
from repro.sim.tracing import Tracer

MODES = ("objects", "soa", "verify")
#: the scheduler families the core can drive; the others keep a soa run
#: on the object loop for a reason of their own.
DRIVABLE = tuple(
    name for name, make in SCHEDULER_FACTORIES.items() if make(0).core_drivable
)


@pytest.fixture(autouse=True)
def _unpin_engine_mode(monkeypatch):
    """Each test names its modes; the CI env pin must not override them."""
    monkeypatch.delenv("REPRO_ENGINE_MODE", raising=False)


def _build(proto: str, scheduler: str, mode: str, tracer, *, n: int = 12, seed: int = 4):
    edges = gen.random_connected(n, n // 2, seed=seed + 7)
    leaving = choose_leaving(n, edges, fraction=0.4, seed=seed + 1)
    build = build_fdp_engine if proto == "fdp" else build_fsp_engine
    return build(
        n,
        edges,
        leaving,
        corruption=HEAVY_CORRUPTION,
        scheduler=SCHEDULER_FACTORIES[scheduler](seed),
        seed=seed,
        engine_mode=mode,
        tracer=tracer,
    )


def _run(proto: str, scheduler: str, mode: str, tracer):
    """Run to legitimacy (or 3,000 steps) with predicate boundaries that
    do not line up with the tracer's metric cadence."""
    engine = _build(proto, scheduler, mode, tracer)
    until = fdp_legitimate if proto == "fdp" else fsp_legitimate
    engine.run(3_000, until=until, check_every=97)
    if mode == "soa":
        assert engine.core_status["reason"] is None, engine.core_status
    return engine


@pytest.mark.parametrize("scheduler", DRIVABLE)
@pytest.mark.parametrize("proto", ["fdp", "fsp"])
@pytest.mark.parametrize("metrics_every", [0, 7])
def test_sink_file_identical_across_modes(tmp_path, proto, scheduler, metrics_every):
    files = {}
    for mode in MODES:
        path = tmp_path / f"{mode}.jsonl"
        with JsonlTraceSink(str(path), metrics_every=metrics_every) as sink:
            engine = _run(proto, scheduler, mode, sink)
            sink.finalize(engine)
        assert sink.steps_recorded == engine.step_count > 0
        files[mode] = path.read_bytes()
    assert files["soa"] == files["objects"]
    assert files["verify"] == files["objects"]
    if metrics_every:
        assert b'"t":"m"' in files["objects"]


@pytest.mark.parametrize("scheduler", DRIVABLE)
@pytest.mark.parametrize("proto", ["fdp", "fsp"])
def test_recorder_and_ring_identical_across_modes(proto, scheduler):
    events, rings = {}, {}
    for mode in MODES:
        recorder = ScheduleRecorder()
        _run(proto, scheduler, mode, recorder)
        events[mode] = recorder.events
        ring = Tracer(capacity=64)
        engine = _run(proto, scheduler, mode, ring)
        rings[mode] = list(ring.events)
        assert len(recorder) == engine.step_count > 64
    assert events["soa"] == events["objects"] == events["verify"]
    assert rings["soa"] == rings["objects"] == rings["verify"]


def test_strict_unknown_label_raises_with_identical_trace_prefix(tmp_path):
    """A strict run that delivers a planted unknown-label message raises
    mid-batch on the core; the steps before it still reach the sink,
    exactly as the object loop recorded them."""
    traces = {}
    for mode in ("objects", "soa"):
        path = tmp_path / f"{mode}.jsonl"
        sink = JsonlTraceSink(str(path))
        engine = _build("fdp", "random", mode, sink)
        engine.post(None, engine.processes[3].self_ref, "bogus", ())
        with pytest.raises(UnknownActionError, match="bogus"):
            engine.run(10_000)
        sink.close()
        assert 0 < sink.steps_recorded == engine.step_count
        if mode == "soa":
            assert engine.core_status["reason"] is None
        traces[mode] = (sink.steps_recorded, path.read_bytes())
    assert traces["soa"] == traces["objects"]


def test_unbounded_soa_run_hands_over_at_most_the_cap(monkeypatch):
    """``until=None`` asks for the whole budget in one batch; with a
    tracer attached the engine cuts it so that the core never logs more
    than ``TRACE_BATCH_CAP`` steps before handing them over."""
    recorder = ScheduleRecorder()
    handed: list[int] = []
    run_batch = EngineCore.run_batch

    def spied(core, budget):
        handed.append(len(recorder))
        return run_batch(core, budget)

    monkeypatch.setattr(EngineCore, "run_batch", spied)
    engine = _build("fdp", "random", "soa", recorder, n=16)
    engine.run(50_000)
    handed.append(len(recorder))
    assert engine.step_count == len(recorder) == 50_000
    sizes = [b - a for a, b in zip(handed, handed[1:], strict=False)]
    assert max(sizes) <= TRACE_BATCH_CAP
    assert len(sizes) == -(-50_000 // TRACE_BATCH_CAP)


def test_soa_sink_run_defers_per_pid_tallies_until_read(tmp_path, monkeypatch):
    """A soa run cut into 16-step batches by ``metrics_every`` exports
    only the scalar counters after each batch: the per-pid tally dicts
    are built from the core once ``stats.*_by`` is read, and equal the
    object loop's."""
    calls: list[str] = []
    tally = EngineCore._tally

    def spied(core, name):
        calls.append(name)
        return tally(core, name)

    monkeypatch.setattr(EngineCore, "_tally", spied)
    stats = {}
    for mode in ("objects", "soa"):
        with JsonlTraceSink(str(tmp_path / f"{mode}.jsonl"), metrics_every=16) as sink:
            engine = _run("fdp", "random", mode, sink)
            assert engine.step_count > 16 * 10
            if mode == "soa":
                assert engine._export_pending  # the objects were never read
                assert engine.stats.steps == engine.step_count  # scalars are current
                assert calls == []
            stats[mode] = {
                name: getattr(engine.stats, name)
                for name in ("timeouts_by", "deliveries_by", "sent_by", "received_by")
            }
    assert sorted(calls) == ["deliveries_by", "received_by", "sent_by", "timeouts_by"]
    assert stats["soa"] == stats["objects"]
