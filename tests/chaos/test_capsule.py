"""Failure capsules: capture once, replay bit-identically forever."""

from __future__ import annotations

import json

import pytest

from repro.chaos.campaigns import ALL_CAMPAIGN_KINDS, ChaosCampaign
from repro.chaos.capsule import CAPSULE_VERSION, Capsule, replay_capsule, run_chaos
from repro.chaos.watchdogs import LivelockWatchdog, default_watchdogs
from repro.net.reliable import journal_digest
from repro.core.potential import fdp_legitimate
from repro.errors import ConfigurationError

from tests.chaos.conftest import TEST_LIVELOCK_WATCHDOG, livelock_meta

HEALTHY_FDP = {
    "scenario": "fdp",
    "n": 10,
    "topology": "random_connected",
    "leaving": 0.3,
    "seed": 5,
    "corruption": 0.5,
}


class TestTripCapture:
    def test_livelock_captured_and_replayed_bit_identically(
        self, buggy_postprocess, tmp_path
    ):
        """The full acceptance loop minus shrinking: the re-introduced
        PR 2 livelock trips the watchdog mid-campaign, the capsule is
        written, and a from-disk replay — campaign re-injections and all
        — lands on the exact captured counters (replay verification
        raises on any divergence, so passing *is* the bit-identity
        check)."""
        result = run_chaos(
            livelock_meta(),
            campaign=ChaosCampaign(seed=52, period=150, max_injections=3),
            watchdogs=[LivelockWatchdog(**TEST_LIVELOCK_WATCHDOG)],
            max_steps=40_000,
            capsule_dir=str(tmp_path),
        )
        assert result.outcome == "watchdog"
        assert result.failed
        assert result.capsule_path is not None
        capsule = Capsule.load(result.capsule_path)
        assert capsule.kind == "watchdog"
        assert capsule.diagnosis["kind"] == "livelock"
        assert capsule.error.startswith("WatchdogTrip")
        assert capsule.injections, "campaign should have fired before the trip"
        assert len(capsule.schedule) == result.engine.step_count
        replayed = replay_capsule(capsule)  # raises on divergence
        assert replayed.step_count == len(capsule.schedule)
        assert replayed.potential() == capsule.final["phi"]
        assert replayed.pending_count == capsule.final["pending"]

    def test_converged_run_produces_no_capsule(self):
        result = run_chaos(
            HEALTHY_FDP,
            watchdogs=list(default_watchdogs()),
            max_steps=400_000,
            until=fdp_legitimate,
        )
        assert result.outcome == "converged"
        assert not result.failed
        assert result.capsule is None
        assert result.error is None

    def test_budget_exhaustion_captured_with_diagnostics(self, tmp_path):
        result = run_chaos(
            HEALTHY_FDP,
            max_steps=64,
            until=fdp_legitimate,
            check_every=8,
            capsule_dir=str(tmp_path),
        )
        assert result.outcome == "budget"
        capsule = result.capsule
        assert capsule is not None and capsule.kind == "budget"
        assert capsule.diagnosis["step"] == 64
        assert "phi" in capsule.diagnosis
        replayed = replay_capsule(capsule)
        assert replayed.step_count == 64

    def test_budget_capture_can_be_disabled(self):
        result = run_chaos(
            HEALTHY_FDP,
            max_steps=64,
            until=fdp_legitimate,
            capture_on_budget=False,
        )
        assert result.outcome == "budget"
        assert result.capsule is None


class TestSerialization:
    def _capsule(self, tmp_path) -> Capsule:
        result = run_chaos(
            HEALTHY_FDP,
            campaign=ChaosCampaign(seed=1, period=20),
            max_steps=64,
            until=fdp_legitimate,
            capsule_dir=str(tmp_path),
        )
        return result.capsule

    def test_dict_roundtrip_is_lossless(self, tmp_path):
        capsule = self._capsule(tmp_path)
        assert Capsule.from_dict(capsule.as_dict()).as_dict() == capsule.as_dict()

    def test_file_roundtrip_is_lossless(self, tmp_path):
        capsule = self._capsule(tmp_path)
        path = str(tmp_path / "roundtrip.json")
        capsule.save(path)
        assert Capsule.load(path).as_dict() == capsule.as_dict()

    def test_capsule_is_plain_json(self, tmp_path):
        capsule = self._capsule(tmp_path)
        payload = json.loads(json.dumps(capsule.as_dict()))
        assert payload["version"] == CAPSULE_VERSION
        assert payload["scenario"]["scenario"] == "fdp"
        assert all(len(event) == 3 for event in payload["schedule"])

    def test_unknown_version_rejected(self, tmp_path):
        capsule = self._capsule(tmp_path)
        payload = capsule.as_dict()
        payload["version"] = CAPSULE_VERSION + 1
        with pytest.raises(ConfigurationError):
            Capsule.from_dict(payload)


def churn_workload(engine):
    """A small open-system service run; returns False so run_chaos
    captures a budget capsule — the capsule is the artifact under test."""
    from repro.traffic import ArrivalConfig, RequestConfig, TrafficDriver

    driver = TrafficDriver(
        engine,
        arrivals=ArrivalConfig(join_rate=40.0, session_min=150.0),
        requests=RequestConfig(rate=20.0),
        seed=9,
        chunk=64,
    )
    driver.run(2_000)
    return False


class TestChurnCapsules:
    """Schema v2: the open-system churn journal rides in the capsule."""

    def _churn_capsule(self, tmp_path) -> Capsule:
        result = run_chaos(
            HEALTHY_FDP,
            campaign=ChaosCampaign(seed=3, period=200, max_injections=2),
            workload=churn_workload,
            capsule_dir=str(tmp_path),
        )
        assert result.outcome == "budget"
        return Capsule.load(result.capsule_path)

    def test_churn_run_replays_bit_identically(self, tmp_path):
        capsule = self._churn_capsule(tmp_path)
        assert capsule.version == CAPSULE_VERSION == 3
        ops = {op["op"] for op in capsule.churn}
        assert "admit" in ops and "leave" in ops
        assert "population" in capsule.final
        # replay re-applies each journaled op at its recorded step and
        # raises on any final-counter divergence — passing IS the
        # bit-identity check, workload detached and all
        replayed = replay_capsule(capsule)
        assert replayed.step_count == len(capsule.schedule)
        assert len(replayed.processes) == capsule.final["population"]

    def test_churn_capsule_is_core_agnostic(self, tmp_path):
        """A capsule captured on the object model replays bit-identically
        on the struct-of-arrays core — mid-run admissions included."""
        capsule = self._churn_capsule(tmp_path)
        replayed = replay_capsule(capsule, engine_mode="soa")
        assert replayed.step_count == len(capsule.schedule)

    def test_v1_capsule_still_loads(self, tmp_path):
        result = run_chaos(
            HEALTHY_FDP,
            max_steps=64,
            until=fdp_legitimate,
            capsule_dir=str(tmp_path),
        )
        payload = result.capsule.as_dict()
        payload["version"] = 1
        del payload["churn"]  # v1 predates the journal
        del payload["final"]["population"]  # ... and the population counter
        del payload["net"]  # ... and the transport record
        loaded = Capsule.from_dict(payload)
        assert loaded.churn == []
        assert loaded.net is None
        replayed = replay_capsule(loaded)  # population check skipped for v1
        assert replayed.step_count == 64

    def test_v2_capsule_still_loads(self, tmp_path):
        result = run_chaos(
            HEALTHY_FDP,
            max_steps=64,
            until=fdp_legitimate,
            capsule_dir=str(tmp_path),
        )
        payload = result.capsule.as_dict()
        payload["version"] = 2
        del payload["net"]  # v2 predates the transport record
        loaded = Capsule.from_dict(payload)
        assert loaded.net is None
        replayed = replay_capsule(loaded)
        assert replayed.step_count == 64


class TestNetCapsules:
    """Schema v3: the reliable-transport record rides in the capsule."""

    def _net_capsule(self, tmp_path, scenario="fdp") -> Capsule:
        from repro.net import default_net_config

        meta = dict(HEALTHY_FDP, scenario=scenario)
        meta["net"] = default_net_config(7, loss=0.1, dup=0.1, delay=0.1)
        result = run_chaos(
            meta,
            campaign=ChaosCampaign(
                seed=7,
                period=60,
                max_injections=4,
                kinds=ALL_CAMPAIGN_KINDS,
            ),
            max_steps=300,
            capsule_dir=str(tmp_path),
        )
        assert result.outcome == "budget"
        return Capsule.load(result.capsule_path)

    @pytest.mark.parametrize("scenario", ["fdp", "fsp"])
    def test_net_run_replays_bit_identically(self, tmp_path, scenario):
        capsule = self._net_capsule(tmp_path, scenario)
        assert capsule.version == CAPSULE_VERSION
        assert capsule.net is not None
        assert capsule.net["config"]["underlay"]["loss"] == 0.1
        assert capsule.net["stats"]["sends"] > 0
        assert capsule.net["digest"] == journal_digest(capsule.net["journal"])
        # replay rebuilds the transport from net.config and raises on
        # any final-counter divergence — passing IS the bit-identity
        # check, faults re-rolled and all
        replayed = replay_capsule(capsule)
        assert replayed.step_count == len(capsule.schedule)
        assert replayed.net is not None

    @pytest.mark.parametrize("transport", [True, False])
    def test_net_capsule_replays_on_the_core(self, tmp_path, transport):
        """A v3 capsule replays bit-identically on the SoA core, which
        drives the rebuilt transport step by step: the same transport
        stats and retransmit journal. With the transport record dropped
        the schedule still replays on the core (a transport only times
        announcements), to the same final counters."""
        capsule = self._net_capsule(tmp_path)
        if not transport:
            capsule.scenario = dict(capsule.scenario, net=None)
        replayed = replay_capsule(capsule, engine_mode="soa")
        status = replayed.core_status
        assert status["active"] and status["reason"] is None
        assert replayed.step_count == len(capsule.schedule)
        if transport:
            assert replayed.net.stats.as_dict() == capsule.net["stats"]
            assert journal_digest(list(replayed.net.journal)) == capsule.net["digest"]
        else:
            assert replayed.net is None

    def test_transportless_capsule_has_null_net(self, tmp_path):
        result = run_chaos(
            HEALTHY_FDP,
            max_steps=64,
            until=fdp_legitimate,
            capsule_dir=str(tmp_path),
        )
        capsule = Capsule.load(result.capsule_path)
        assert capsule.net is None
        assert capsule.as_dict()["net"] is None

    def test_tampered_journal_rejected_at_load(self, tmp_path):
        capsule = self._net_capsule(tmp_path)
        payload = capsule.as_dict()
        assert payload["net"]["journal"], "journal should have entries"
        payload["net"]["journal"][0]["ev"] = "forged"
        with pytest.raises(ConfigurationError, match="journal"):
            Capsule.from_dict(payload)

    def test_truncated_journal_rejected_at_load(self, tmp_path):
        capsule = self._net_capsule(tmp_path)
        payload = capsule.as_dict()
        payload["net"]["journal"] = payload["net"]["journal"][:-1]
        with pytest.raises(ConfigurationError, match="journal"):
            Capsule.from_dict(payload)


class TestReplayVerification:
    def test_tampered_final_counters_detected(self, tmp_path):
        result = run_chaos(
            HEALTHY_FDP, max_steps=64, until=fdp_legitimate, capsule_dir=str(tmp_path)
        )
        capsule = result.capsule
        capsule.final["phi"] += 1
        with pytest.raises(ConfigurationError, match="diverged"):
            replay_capsule(capsule)

    def test_verification_can_be_skipped(self, tmp_path):
        result = run_chaos(HEALTHY_FDP, max_steps=64, until=fdp_legitimate)
        capsule = result.capsule
        capsule.final["phi"] += 1
        replayed = capsule.replay(verify=False)
        assert replayed.step_count == 64
