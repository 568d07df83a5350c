"""The seeded fault underlay: pure fates, partitions, bursts."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.underlay import BURST_KINDS, Underlay, UnderlayConfig


def make(**overrides) -> Underlay:
    return Underlay(UnderlayConfig(**overrides))


class TestFatePurity:
    def test_same_attempt_same_fate_across_instances(self):
        """A fate is a pure function of (seed, src, dst, key, step) —
        two freshly built underlays agree on every attempt, which is
        what makes faulty runs replayable without a fault log."""
        a = make(seed=5, loss=0.3, dup=0.3, delay=0.3)
        b = make(seed=5, loss=0.3, dup=0.3, delay=0.3)
        for src in range(4):
            for dst in range(4):
                for attempt in range(20):
                    key = f"d:{attempt}:{1}"
                    assert a.fate(src, dst, key, 7) == b.fate(src, dst, key, 7)

    def test_fate_independent_of_query_order(self):
        u = make(seed=9, loss=0.5, dup=0.5, delay=0.5)
        keys = [f"d:{i}:1" for i in range(50)]
        forward = [u.fate(1, 2, k, 0) for k in keys]
        fresh = make(seed=9, loss=0.5, dup=0.5, delay=0.5)
        backward = [fresh.fate(1, 2, k, 0) for k in reversed(keys)]
        assert forward == list(reversed(backward))

    def test_different_seed_differs_somewhere(self):
        a = make(seed=1, loss=0.5)
        b = make(seed=2, loss=0.5)
        fates_a = [a.fate(0, 1, f"d:{i}:1", 0).dropped for i in range(64)]
        fates_b = [b.fate(0, 1, f"d:{i}:1", 0).dropped for i in range(64)]
        assert fates_a != fates_b


class TestFateStatistics:
    def test_loss_rate_is_roughly_honored(self):
        u = make(seed=3, loss=0.3)
        n = 2000
        dropped = sum(
            u.fate(0, 1, f"d:{i}:1", 0).dropped for i in range(n)
        )
        assert 0.25 < dropped / n < 0.35

    def test_zero_rates_mean_clean_immediate_delivery(self):
        u = make(seed=4)
        for i in range(100):
            fate = u.fate(0, 1, f"d:{i}:1", 0)
            assert fate.arrivals == (0,)
            assert not (fate.dropped or fate.duplicated or fate.delayed)

    def test_certain_dup_yields_two_arrivals(self):
        u = make(seed=5, dup=1.0)
        fate = u.fate(0, 1, "d:0:1", 0)
        assert fate.duplicated and len(fate.arrivals) == 2

    def test_certain_delay_offsets_within_bounds(self):
        u = make(seed=6, delay=1.0, delay_min=3, delay_max=9)
        for i in range(100):
            fate = u.fate(0, 1, f"d:{i}:1", 0)
            assert fate.delayed
            assert all(3 <= off <= 9 for off in fate.arrivals)


class TestPartition:
    def test_blocks_only_cross_side_during_window(self):
        u = make(seed=7, partition_at=10, partition_for=5)
        sides = {pid: u.side(pid) for pid in range(16)}
        assert set(sides.values()) == {0, 1}, "both sides populated"
        a = next(p for p, s in sides.items() if s == 0)
        b = next(p for p, s in sides.items() if s == 1)
        c = next(p for p, s in sides.items() if s == 0 and p != a)
        # inside the window: cross-side blocked, same-side open
        assert u.fate(a, b, "d:0:1", 12).blocked
        assert not u.fate(a, c, "d:0:1", 12).blocked
        # outside: everything open again (the partition is transient)
        assert not u.fate(a, b, "d:0:1", 9).blocked
        assert not u.fate(a, b, "d:0:1", 15).blocked

    def test_sides_are_stable_for_the_run(self):
        u = make(seed=8)
        assert [u.side(p) for p in range(32)] == [u.side(p) for p in range(32)]


class TestBursts:
    def test_loss_burst_adds_to_base_rate(self):
        u = make(seed=9, loss=0.0)
        u.add_burst("loss", start=100, duration=50, amount=1.0)
        assert u.fate(0, 1, "d:0:1", 120).dropped  # inside: certain loss
        assert not u.fate(0, 1, "d:0:1", 99).dropped
        assert not u.fate(0, 1, "d:0:1", 150).dropped  # window closed

    def test_rates_clamp_at_one(self):
        u = make(seed=10, loss=0.8)
        u.add_burst("loss", start=0, duration=10, amount=0.8)
        assert u._rate("loss", 0.8, 5) == 1.0

    def test_partition_burst_opens_a_cut(self):
        u = make(seed=11)
        u.add_burst("partition", start=5, duration=10, amount=1.0)
        assert u.partition_active(8)
        assert not u.partition_active(20)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="burst kind"):
            make().add_burst("gamma_rays", start=0, duration=1, amount=0.1)

    def test_burst_kinds_cover_the_campaign_vocabulary(self):
        from repro.chaos.campaigns import NET_CAMPAIGN_KINDS

        assert {k.removeprefix("net_") for k in NET_CAMPAIGN_KINDS} == set(
            BURST_KINDS
        )



@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 1000),
    loss=st.floats(-0.2, 1.2),
    dup=st.floats(-0.2, 1.2),
    delay=st.floats(-0.2, 1.2),
    delay_span=st.tuples(st.integers(1, 50), st.integers(0, 50)),
    partition_at=st.none() | st.integers(0, 40),
    src=st.integers(0, 30),
    dst=st.integers(0, 30),
    key=st.text("ad:0123456789", max_size=8),
    step=st.integers(0, 80),
)
def test_the_burst_free_fate_draws_what_the_general_path_draws(
    seed, loss, dup, delay, delay_span, partition_at, src, dst, key, step
) -> None:
    """Without bursts, :meth:`Underlay.fate` skips the per-kind burst
    sums; its fate is the general path's, draw for draw."""
    low, extra = delay_span
    u = make(
        seed=seed, loss=loss, dup=dup, delay=delay, delay_min=low,
        delay_max=low + extra, partition_at=partition_at, partition_for=20,
    )
    assert u.fate(src, dst, key, step) == u._burst_fate(src, dst, key, step)


class TestConfig:
    def test_round_trip(self):
        cfg = UnderlayConfig(
            seed=12, loss=0.2, dup=0.1, delay=0.3, partition_at=64,
            partition_for=48,
        )
        assert UnderlayConfig.from_dict(cfg.as_dict()) == cfg

    def test_round_trip_without_partition(self):
        cfg = UnderlayConfig(seed=13, partition_at=None)
        assert UnderlayConfig.from_dict(cfg.as_dict()) == cfg
