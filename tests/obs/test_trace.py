"""JSONL trace export and bit-identical replay from a shipped file."""

import json

import pytest

from repro.core.potential import fdp_legitimate
from repro.core.scenarios import (
    HEAVY_CORRUPTION,
    build_fdp_engine,
    choose_leaving,
)
from repro.errors import ConfigurationError
from repro.graphs import generators as gen
from repro.obs.trace import (
    TRACE_VERSION,
    JsonlTraceSink,
    read_trace,
    replay_trace,
)
from repro.sim.scheduler import RandomScheduler

from tests.sim.test_replay import fingerprint


def fdp_builder(seed=11):
    n = 10
    edges = gen.random_connected(n, 5, seed=3)
    leaving = choose_leaving(n, edges, fraction=0.4, seed=3)

    def build():
        return build_fdp_engine(
            n,
            edges,
            leaving,
            seed=seed,
            corruption=HEAVY_CORRUPTION,
            scheduler=RandomScheduler(seed),
        )

    return build


def record_run(path, *, metrics_every=0, seed=11):
    build = fdp_builder(seed)
    with JsonlTraceSink(str(path), metrics_every=metrics_every) as sink:
        engine = build()
        engine.tracer = sink
        assert engine.run(300_000, until=fdp_legitimate, check_every=64)
        sink.finalize(engine)
    return engine, build


class TestSink:
    def test_writes_header_steps_final(self, tmp_path):
        path = tmp_path / "run.jsonl"
        engine, _ = record_run(path)
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert lines[0]["t"] == "h"
        assert lines[0]["v"] == TRACE_VERSION
        assert lines[-1]["t"] == "f"
        assert lines[-1]["steps"] == engine.step_count
        steps = [rec for rec in lines if rec["t"] == "s"]
        assert len(steps) == engine.step_count

    def test_oracle_verdict_deltas_recorded(self, tmp_path):
        path = tmp_path / "run.jsonl"
        engine, _ = record_run(path)
        data = read_trace(str(path))
        oq = [rec["oq"] for rec in data.steps if "oq" in rec]
        assert oq, "fault-injected FDP run must consult the oracle"
        assert oq == sorted(oq)  # cumulative counter, monotone
        assert oq[-1] == engine.stats.oracle_queries
        ot = [rec["ot"] for rec in data.steps if "ot" in rec]
        assert ot[-1] == engine.stats.oracle_true

    def test_lifecycle_transitions_recorded(self, tmp_path):
        path = tmp_path / "run.jsonl"
        engine, _ = record_run(path)
        data = read_trace(str(path))
        gone_steps = [rec for rec in data.steps if rec.get("st") == "g"]
        assert len(gone_steps) == engine.gone_count

    def test_metrics_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        engine, _ = record_run(path, metrics_every=10)
        data = read_trace(str(path))
        assert data.metrics
        for rec in data.metrics:
            assert set(rec) == {"t", "i", "phi", "gone", "edges", "pend"}
        # Φ converges to 0 in a legitimate state
        assert data.final is not None and data.final["phi"] == 0

    def test_bounded_buffer(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JsonlTraceSink(str(path), buffer_lines=4)
        engine = fdp_builder()()
        engine.tracer = sink
        engine.run(100, until=lambda e: False)
        assert len(sink._buf) < 4  # flushed continuously, never grows
        sink.close()
        assert sink.closed
        sink.close()  # idempotent

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JsonlTraceSink(str(tmp_path / "x.jsonl"), metrics_every=-1)
        with pytest.raises(ConfigurationError):
            JsonlTraceSink(str(tmp_path / "y.jsonl"), buffer_lines=0)


class TestReadTrace:
    def test_roundtrips_meta(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlTraceSink(str(path), meta={"scenario": "fdp", "n": 10}) as sink:
            engine = fdp_builder()()
            engine.tracer = sink
            engine.run(10, until=lambda e: False)
            sink.finalize(engine)
        data = read_trace(str(path))
        assert data.meta == {"scenario": "fdp", "n": 10}
        assert len(data.events) == 10

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t":"s","i":0,"k":"t","p":0}\n')
        with pytest.raises(ConfigurationError, match="no trace header"):
            read_trace(str(path))

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t":"h","v":99,"meta":{}}\n')
        with pytest.raises(ConfigurationError, match="unsupported trace version"):
            read_trace(str(path))

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t":"h","v":1,"meta":{}}\nnot json\n')
        with pytest.raises(ConfigurationError, match="malformed trace line"):
            read_trace(str(path))

    def test_rejects_malformed_step(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t":"h","v":1,"meta":{}}\n{"t":"s","i":0}\n')
        with pytest.raises(ConfigurationError, match="malformed step record"):
            read_trace(str(path))


class TestReplay:
    def test_fault_injected_fdp_trace_replays_bit_identically(self, tmp_path):
        """The ISSUE acceptance criterion: a trace exported from a
        fault-injected FDP run re-ingests through ReplayScheduler and
        reproduces the recorded run bit-identically."""
        path = tmp_path / "run.jsonl"
        original, build = record_run(path)
        assert original.gone_count > 0  # the run actually did something
        replayed = replay_trace(build, str(path))
        assert fingerprint(replayed) == fingerprint(original)

    def test_verify_catches_wrong_initial_state(self, tmp_path):
        path = tmp_path / "run.jsonl"
        record_run(path, seed=11)
        wrong_build = fdp_builder(seed=12)
        # a different seed means different planted garbage: the replay
        # either diverges mid-schedule or fails final verification
        with pytest.raises(ConfigurationError, match="diverged"):
            replay_trace(wrong_build, str(path))

    def test_no_verify_skips_final_check(self, tmp_path):
        path = tmp_path / "run.jsonl"
        original, build = record_run(path)
        replayed = replay_trace(build, str(path), verify=False)
        assert replayed.step_count == original.step_count
