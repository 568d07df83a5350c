"""The reliable transport: ref conservation, dedup, backoff, run_dry,
gone-cancel, determinism, and the engine/core integration contract."""

from __future__ import annotations

import pytest

from repro.core.potential import fdp_legitimate, fsp_legitimate
from repro.core.scenarios import (
    build_fdp_engine,
    build_fsp_engine,
    build_from_meta,
    choose_leaving,
)
from repro.graphs import generators as gen
from repro.net import (
    ReliableTransport,
    default_net_config,
    journal_digest,
)
from repro.sim.states import PState


def open_flights(transport):
    """(dst, flight) of every open flight; a channel key is
    ``src << 32 | dst``."""
    for chan, flights in transport._flights.items():
        for flight in flights.values():
            yield chan & 0xFFFFFFFF, flight


def build_faulty_fdp(seed=2, n=12, *, net_overrides=None, **cfg_kw):
    edges = gen.random_connected(n, 3, seed=seed)
    leaving = choose_leaving(n, edges, fraction=0.3, seed=seed)
    engine = build_fdp_engine(n, edges, leaving, seed=seed)
    cfg = default_net_config(seed, **cfg_kw)
    if net_overrides:
        cfg.update(net_overrides)
    transport = ReliableTransport.from_config(cfg).install(engine)
    return engine, transport


class TestConfig:
    def test_default_config_round_trips(self):
        cfg = default_net_config(4)
        transport = ReliableTransport.from_config(cfg)
        assert transport.config() == cfg

    def test_default_fault_campaign_shape(self):
        cfg = default_net_config(0)
        u = cfg["underlay"]
        assert u["loss"] == u["dup"] == u["delay"] == 0.1
        assert u["partition_at"] is not None and u["partition_for"] > 0
        assert cfg["backoff"] > 1.0  # exponential, not fixed-interval


class TestRefConservation:
    def test_total_loss_never_eats_channel_contents(self):
        """At loss=1.0 no frame ever arrives, so nothing is delivered —
        but every posted paper message still sits in its channel. Faults
        act on announcements, never on the channel set, so Lemma 2 ref
        conservation is untouched by arbitrarily bad underlays."""
        engine, transport = build_faulty_fdp(
            seed=3, loss=1.0, dup=0.0, delay=0.0, partition_at=None
        )
        converged = engine.run(5_000, until=fdp_legitimate, check_every=64)
        assert not converged
        assert transport.stats.delivered == 0
        assert transport.stats.dropped > 0
        # every tracked unannounced flight's message is still in the
        # destination channel, and the pending counter agrees
        tracked = 0
        for dst, flight in open_flights(transport):
            assert not flight.announced
            assert flight.mseq in engine.channels[dst]
            tracked += 1
        assert tracked > 0
        assert engine.pending_count == sum(
            len(ch) for ch in engine.channels.values()
        )

    def test_partition_heals_and_run_converges(self):
        engine, _ = build_faulty_fdp(
            seed=4, loss=0.0, dup=0.0, delay=0.0,
            partition_at=16, partition_for=64,
        )
        assert engine.run(500_000, until=fdp_legitimate, check_every=64)


class TestDedup:
    def test_certain_duplication_delivers_each_message_once(self):
        engine, transport = build_faulty_fdp(
            seed=5, loss=0.0, dup=1.0, delay=0.0, partition_at=None
        )
        assert engine.run(500_000, until=fdp_legitimate, check_every=64)
        assert transport.stats.duplicated > 0
        assert transport.stats.deduped > 0
        # paper-level delivery stayed exactly-once: dedup absorbed every
        # duplicate frame before it could re-announce
        assert transport.stats.deduped <= transport.stats.delivered


class TestRetransmission:
    def test_backoff_grows_exponentially_and_caps(self):
        t = ReliableTransport(rto=10, backoff=2.0, max_rto=100, jitter=0.0)
        rtos = [t._rto_after(0, 1, 0, attempt) for attempt in range(1, 8)]
        assert rtos == [10, 20, 40, 80, 100, 100, 100]

    def test_jitter_stays_within_the_configured_band(self):
        t = ReliableTransport(rto=100, backoff=1.0, max_rto=100, jitter=0.25)
        for attempt in range(1, 50):
            assert 75 <= t._rto_after(0, 1, 0, attempt) <= 125

    def test_lossy_link_retransmits_until_acked(self):
        engine, transport = build_faulty_fdp(
            seed=6, loss=0.5, dup=0.0, delay=0.0, partition_at=None
        )
        assert engine.run(1_000_000, until=fdp_legitimate, check_every=64)
        assert transport.stats.retransmits > 0
        journal_events = {entry["ev"] for entry in transport.journal}
        assert "rtx" in journal_events and "drop" in journal_events


class TestRunDry:
    def test_all_frames_delayed_cannot_falsely_quiesce(self):
        """With every frame delayed by hundreds of virtual steps the
        scheduler starves; run_dry must fast-forward the transport clock
        so the run converges instead of quiescing non-legitimate."""
        engine, transport = build_faulty_fdp(
            seed=7,
            loss=0.0,
            dup=0.0,
            delay=0.0,
            partition_at=None,
            net_overrides=None,
        )
        # rebuild underlay with extreme delay via direct config
        from repro.net.underlay import Underlay, UnderlayConfig

        transport.underlay = Underlay(
            UnderlayConfig(seed=7, delay=1.0, delay_min=200, delay_max=400)
        )
        assert engine.run(1_000_000, until=fdp_legitimate, check_every=64)
        assert transport.stats.delayed > 0

    def test_fsp_converges_under_default_faults(self):
        """The FSP sleep/wake cycle is the run_dry acceptance scenario:
        an all-asleep population waiting on a delayed wake-up frame must
        be woken by transport-clock fast-forward, not a lucky timeout."""
        n, seed = 16, 8
        edges = gen.random_connected(n, 3, seed=seed)
        leaving = choose_leaving(n, edges, fraction=0.25, seed=seed)
        engine = build_fsp_engine(n, edges, leaving, seed=seed)
        ReliableTransport.from_config(default_net_config(seed)).install(engine)
        assert engine.run(1_000_000, until=fsp_legitimate, check_every=64)


class TestGoneTargets:
    def test_flights_to_departed_processes_are_cancelled(self):
        engine, transport = build_faulty_fdp(
            seed=9, loss=0.3, dup=0.1, delay=0.2, partition_at=None
        )
        assert engine.run(1_000_000, until=fdp_legitimate, check_every=64)
        # nothing keeps retransmitting at a gone process
        for dst, _flight in open_flights(transport):
            assert engine.processes[dst].state is not PState.GONE
        journal_events = {entry["ev"] for entry in transport.journal}
        if transport.stats.cancelled_gone:
            assert "cancel" in journal_events


class TestDeterminism:
    def run_once(self, seed=10):
        engine, transport = build_faulty_fdp(seed=seed)
        converged = engine.run(1_000_000, until=fdp_legitimate, check_every=64)
        return (
            converged,
            engine.step_count,
            engine.potential(),
            transport.stats.as_dict(),
            journal_digest(list(transport.journal)),
        )

    def test_identical_runs_are_bit_identical(self):
        assert self.run_once() == self.run_once()

    def test_different_net_seed_changes_the_fault_pattern(self):
        engine_a, ta = build_faulty_fdp(seed=11)
        engine_b, tb = build_faulty_fdp(seed=11, net_overrides=None)
        tb.underlay.config = ta.underlay.config.__class__(
            **{**ta.underlay.config.as_dict(), "seed": 999}
        )
        engine_a.run(200_000, until=fdp_legitimate, check_every=64)
        engine_b.run(200_000, until=fdp_legitimate, check_every=64)
        assert ta.stats.as_dict() != tb.stats.as_dict()


def _transport_run(mode, n, seed):
    edges = gen.random_connected(n, 3, seed=seed)
    leaving = choose_leaving(n, edges, fraction=0.3, seed=seed)
    engine = build_fdp_engine(n, edges, leaving, seed=seed, engine_mode=mode)
    transport = ReliableTransport.from_config(default_net_config(seed)).install(engine)
    return engine, transport


def _outcome(engine, transport):
    return (
        engine.step_count,
        engine.stats.as_dict(),
        transport.stats.as_dict(),
        list(transport.journal),
    )


class TestEngineIntegration:
    @pytest.mark.parametrize("mode", ["verify", "soa"])
    def test_install_keeps_the_core(self, mode):
        engine, _transport = _transport_run(mode, 10, 12)
        engine.attach()
        status = engine.core_status
        assert status["active"] and status["reason"] is None

    def test_soa_mode_runs_on_the_core(self):
        reference = _transport_run("objects", 10, 13)
        engine, transport = _transport_run("soa", 10, 13)
        assert reference[0].run(1_000_000, until=fdp_legitimate, check_every=64)
        assert engine.run(1_000_000, until=fdp_legitimate, check_every=64)
        status = engine.core_status
        assert status["active"] and status["reason"] is None
        assert _outcome(engine, transport) == _outcome(*reference)

    def test_build_from_meta_installs_transport(self):
        meta = {
            "scenario": "fdp",
            "n": 10,
            "topology": "random_connected",
            "leaving": 0.3,
            "seed": 14,
            "corruption": 0.5,
            "net": default_net_config(14),
        }
        engine = build_from_meta(meta)
        assert engine.net is not None
        assert engine.net.config() == meta["net"]

    def test_transportless_engine_has_no_net(self):
        n, seed = 8, 15
        edges = gen.random_connected(n, 3, seed=seed)
        engine = build_fdp_engine(
            n, edges, choose_leaving(n, edges, fraction=0.2, seed=seed),
            seed=seed,
        )
        assert engine.net is None and engine.net_stats is None


class TestJournal:
    def test_journal_is_bounded(self):
        engine, transport = build_faulty_fdp(
            seed=16, net_overrides={"journal_cap": 32}, loss=0.4
        )
        engine.run(50_000, until=fdp_legitimate, check_every=64)
        assert len(transport.journal) <= 32

    def test_digest_is_canonical(self):
        entries = [{"at": 1, "ev": "drop", "src": 0, "dst": 1,
                    "tseq": 0, "attempt": 1}]
        assert journal_digest(entries) == journal_digest(list(entries))
        assert journal_digest(entries) != journal_digest([])


@pytest.mark.parametrize("scenario", ["fdp", "fsp"])
def test_default_fault_campaign_acceptance(scenario):
    """The ISSUE acceptance criterion: under 10% loss + dup + delay and
    one transient partition, both protocols converge with zero safety
    violations (monitors raise on any)."""
    from repro.sim.monitors import ConnectivityMonitor, PotentialMonitor

    n, seed = 16, 17
    edges = gen.random_connected(n, 4, seed=seed)
    leaving = choose_leaving(n, edges, fraction=0.25, seed=seed)
    build = build_fdp_engine if scenario == "fdp" else build_fsp_engine
    pred = fdp_legitimate if scenario == "fdp" else fsp_legitimate
    engine = build(
        n, edges, leaving, seed=seed,
        monitors=(
            ConnectivityMonitor(check_every=16),
            PotentialMonitor(check_every=16),
        ),
    )
    ReliableTransport.from_config(default_net_config(seed)).install(engine)
    assert engine.run(2_000_000, until=pred, check_every=64)
