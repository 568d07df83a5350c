"""Open-system traffic driver: determinism, accounting, churn safety.

The load-bearing claims of docs/TRAFFIC.md:

* the workload is bit-identical across the object loop, the
  struct-of-arrays core, and the differential verify mode — churn and
  requests included;
* a fault-free run stays monotonically searchable with zero request
  drops (the bounce semantics close the dead-channel reference leak);
* the engine's incrementally maintained lifecycle counters agree with a
  full recount after arbitrary mid-run joins/leaves/reaps (the
  ``len(processes)``-constant assumptions audit).
"""

from __future__ import annotations

import json

from repro.core.scenarios import build_fdp_engine, build_fsp_engine
from repro.sim.states import PState
from repro.traffic import ArrivalConfig, RequestConfig, TrafficDriver


def line(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def open_run(mode: str, *, scenario: str = "fdp", steps: int = 6_000):
    build = build_fsp_engine if scenario == "fsp" else build_fdp_engine
    engine = build(16, line(16), leaving=[3], seed=7, engine_mode=mode)
    driver = TrafficDriver(
        engine,
        arrivals=ArrivalConfig(
            join_rate=30.0,
            session_min=200,
            flash_crowd_prob=0.1,
            flash_crowd_size=4,
            mass_departure_prob=0.05,
            mass_departure_frac=0.3,
        ),
        requests=RequestConfig(rate=80.0, latency_sample_every=4),
        seed=42,
        chunk=128,
    )
    report = driver.run(steps)
    return engine, driver, report


class TestBitIdentity:
    def test_identical_across_engine_modes(self):
        """Same seed, same report — objects vs soa vs verify. The verify
        run is itself the differential oracle: every step executed on
        both models, raising StateViolation on the first divergence."""
        reports = {
            mode: open_run(mode)[2] for mode in ("objects", "soa", "verify")
        }
        base = json.dumps(reports["objects"], sort_keys=True)
        assert json.dumps(reports["soa"], sort_keys=True) == base
        assert json.dumps(reports["verify"], sort_keys=True) == base

    def test_same_seed_is_deterministic(self):
        assert open_run("objects")[2] == open_run("objects")[2]

    def test_reap_sweep_reaps_what_per_pid_calls_reap(self, monkeypatch):
        """One ``Engine.reap_gone`` sweep per boundary reaps the same
        pids, at the same steps and in the same order, as asking
        ``state_of``/``can_reap``/``reap`` pid by pid, in every mode."""

        def per_pid(driver):
            engine = driver.engine
            done = []
            for pid in sorted(driver._watch):
                state = engine.state_of(pid)
                if state is None:
                    done.append(pid)
                elif state is PState.GONE and engine.can_reap(pid):
                    engine.reap(pid)
                    driver.searchability.retire(pid)
                    driver.stats.reaps += 1
                    done.append(pid)
            driver._watch.difference_update(done)

        for mode in ("objects", "soa", "verify"):
            engine, _, report = open_run(mode)
            with monkeypatch.context() as m:
                m.setattr(TrafficDriver, "_reap_departed", per_pid)
                ref_engine, _, ref_report = open_run(mode)
            assert report["stats"]["reaps"] > 0
            assert report == ref_report
            assert engine.churn_journal == ref_engine.churn_journal


class TestOpenSystemSafety:
    def test_fault_free_run_is_monotonically_searchable(self):
        engine, driver, report = open_run("soa")
        stats = report["stats"]
        # the workload actually exercised the full churn surface
        assert stats["joins"] > 0
        assert stats["leaves"] > 0
        assert stats["reaps"] > 0
        assert stats["requests_issued"] > 100
        # ... and stayed clean: no drops, no searchability regressions
        assert stats["requests_failed"] == 0
        assert stats["searchability_violations"] == 0

    def test_fsp_variant_runs_clean(self):
        engine, driver, report = open_run("soa", scenario="fsp", steps=3_000)
        stats = report["stats"]
        assert stats["joins"] > 0 and stats["leaves"] > 0
        assert stats["searchability_violations"] == 0
        # FSP leaves hibernate rather than exit: nothing ever bounces
        assert engine.stats.bounced == 0
        assert engine.stats.dropped_gone == 0


class TestCounterRecountParity:
    """Satellite of the open-system audit: every incrementally maintained
    tally must survive arbitrary mid-run population changes."""

    def test_lifecycle_counters_match_recount_after_churn(self):
        engine, driver, report = open_run("objects")
        live = sum(
            1 for p in engine.processes.values() if p.state is not PState.GONE
        )
        assert report["stats"]["population"] == live
        maintained = (engine.gone_count, engine.asleep_count)
        engine._lifecycle_stale = True  # force the full rescan
        assert (engine.gone_count, engine.asleep_count) == maintained

    def test_flow_counters_match_channel_recount(self):
        engine, _, _ = open_run("objects")
        pending = sum(len(ch) for ch in engine.channels.values())
        assert engine.pending_count == pending

    def test_reaped_pids_never_reused(self):
        engine, driver, _ = open_run("objects")
        assert engine._retired_pids, "run should have reaped someone"
        assert not engine._retired_pids & set(engine.processes)
        assert driver._next_pid > max(engine._retired_pids)


class TestTrace:
    def test_trace_final_record_matches_report(self, tmp_path):
        path = tmp_path / "traffic.jsonl"
        engine = build_fdp_engine(12, line(12), leaving=[5], seed=3)
        driver = TrafficDriver(
            engine,
            arrivals=ArrivalConfig(join_rate=20.0, session_min=300),
            requests=RequestConfig(rate=40.0),
            seed=9,
            chunk=128,
            trace_path=str(path),
        )
        report = driver.run(2_000)
        records = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert records[0]["t"] == "traffic-header"
        assert records[-1]["t"] == "final"
        assert records[-1]["stats"] == report["stats"]
        boundaries = [r for r in records if r["t"] == "boundary"]
        assert boundaries, "chunk boundaries should be streamed"
        assert boundaries[-1]["pop"] == report["stats"]["population"]
