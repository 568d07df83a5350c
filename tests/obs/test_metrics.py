"""Probe catalog and per-process Φ attribution."""

import pytest

from repro.core.scenarios import (
    HEAVY_CORRUPTION,
    build_fdp_engine,
    choose_leaving,
)
from repro.graphs import generators as gen
from repro.obs.metrics import (
    REGISTRY,
    phi_by_holder,
    phi_by_subject,
    sample_all,
    standard_probe_fns,
    top_phi,
)
from repro.sim.tracing import DEFAULT_SERIES, SeriesRecorder


def corrupted_engine(seed=7):
    n = 12
    edges = gen.random_connected(n, 5, seed=3)
    leaving = choose_leaving(n, edges, fraction=0.4, seed=3)
    return build_fdp_engine(
        n,
        edges,
        leaving,
        seed=seed,
        corruption=HEAVY_CORRUPTION,
    )


class TestRegistry:
    def test_covers_standard_probes(self):
        # a default recorder samples registry probes, the functions included
        probes = SeriesRecorder().probes
        assert tuple(probes) == DEFAULT_SERIES
        assert all(probes[name] is REGISTRY[name].fn for name in DEFAULT_SERIES)

    def test_every_probe_documented(self):
        for probe in REGISTRY.values():
            assert probe.description
            assert probe.cost.startswith("O(")

    def test_sample_all_returns_floats(self):
        engine = corrupted_engine()
        engine.run(200, until=lambda e: False)
        sample = sample_all(engine)
        assert set(sample) == set(REGISTRY)
        assert all(isinstance(v, float) for v in sample.values())

    def test_standard_probe_fns_subset(self):
        fns = standard_probe_fns(("potential", "gone"))
        assert set(fns) == {"potential", "gone"}
        assert standard_probe_fns().keys() == REGISTRY.keys()

    def test_probe_is_callable(self):
        engine = corrupted_engine()
        assert REGISTRY["potential"](engine) == float(engine.potential())


class TestPhiAttribution:
    def test_subject_attribution_sums_to_phi(self):
        engine = corrupted_engine()
        engine.run(100, until=lambda e: False)
        table = phi_by_subject(engine)
        assert sum(table.values()) == engine.potential()
        assert all(v > 0 for v in table.values())

    def test_holder_attribution_sums_to_phi(self):
        engine = corrupted_engine()
        engine.run(100, until=lambda e: False)
        table = phi_by_holder(engine)
        assert sum(table.values()) == engine.potential()
        assert all(v > 0 for v in table.values())

    def test_modes_agree(self):
        # live Φ buckets vs a from-scratch scan of the rebuilt snapshot
        engine = corrupted_engine()
        engine.run(100, until=lambda e: False)
        by_subject: dict[int, int] = {}
        by_holder: dict[int, int] = {}
        snap = engine.rebuild_snapshot()
        for edge in snap.iter_invalid_edges(engine.actual_mode):
            by_subject[edge.dst] = by_subject.get(edge.dst, 0) + 1
            by_holder[edge.src] = by_holder.get(edge.src, 0) + 1
        assert by_subject
        assert phi_by_subject(engine) == by_subject
        assert phi_by_holder(engine) == by_holder

    def test_top_phi_ranked_and_bounded(self):
        engine = corrupted_engine()
        ranked = top_phi(engine, by="subject", limit=3)
        assert len(ranked) <= 3
        contributions = [c for _, c in ranked]
        assert contributions == sorted(contributions, reverse=True)

    def test_top_phi_rejects_bad_axis(self):
        engine = corrupted_engine()
        with pytest.raises(ValueError):
            top_phi(engine, by="nonsense")
