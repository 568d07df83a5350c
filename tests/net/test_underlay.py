"""The seeded fault underlay: pure fates from one keyed hash, partitions,
bursts."""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, chisquare, pearsonr

from repro.errors import ConfigurationError
from repro.net import ReliableTransport
from repro.net.underlay import ACK, BURST_KINDS, DATA, Fate, Underlay, UnderlayConfig


def make(**overrides) -> Underlay:
    return Underlay(UnderlayConfig(**overrides))


class TestFatePurity:
    def test_same_attempt_same_fate_across_instances(self):
        """A fate is a pure function of (seed, identity, step) —
        two freshly built underlays agree on every attempt, which is
        what makes faulty runs replayable without a fault log."""
        a = make(seed=5, loss=0.3, dup=0.3, delay=0.3)
        b = make(seed=5, loss=0.3, dup=0.3, delay=0.3)
        for src in range(4):
            for dst in range(4):
                for tseq in range(20):
                    key = (DATA, tseq, 1)
                    assert a.fate(src, dst, *key, 7) == b.fate(src, dst, *key, 7)

    def test_fate_independent_of_query_order(self):
        u = make(seed=9, loss=0.5, dup=0.5, delay=0.5)
        keys = [(DATA, i, 1) for i in range(50)]
        forward = [u.fate(1, 2, *k, 0) for k in keys]
        fresh = make(seed=9, loss=0.5, dup=0.5, delay=0.5)
        backward = [fresh.fate(1, 2, *k, 0) for k in reversed(keys)]
        assert forward == list(reversed(backward))

    def test_different_seed_differs_somewhere(self):
        a = make(seed=1, loss=0.5)
        b = make(seed=2, loss=0.5)
        fates_a = [a.fate(0, 1, DATA, i, 1, 0).dropped for i in range(64)]
        fates_b = [b.fate(0, 1, DATA, i, 1, 0).dropped for i in range(64)]
        assert fates_a != fates_b


class TestFateStatistics:
    def test_loss_rate_is_roughly_honored(self):
        u = make(seed=3, loss=0.3)
        n = 2000
        dropped = sum(
            u.fate(0, 1, DATA, i, 1, 0).dropped for i in range(n)
        )
        assert 0.25 < dropped / n < 0.35

    def test_zero_rates_mean_clean_immediate_delivery(self):
        u = make(seed=4)
        for i in range(100):
            fate = u.fate(0, 1, DATA, i, 1, 0)
            assert fate.arrivals == (0,)
            assert not (fate.dropped or fate.duplicated or fate.delayed)

    def test_certain_dup_yields_two_arrivals(self):
        u = make(seed=5, dup=1.0)
        fate = u.fate(0, 1, DATA, 0, 1, 0)
        assert fate.duplicated and len(fate.arrivals) == 2

    def test_certain_delay_offsets_within_bounds(self):
        u = make(seed=6, delay=1.0, delay_min=3, delay_max=9)
        for i in range(100):
            fate = u.fate(0, 1, DATA, i, 1, 0)
            assert fate.delayed
            assert all(3 <= off <= 9 for off in fate.arrivals)


def _within_binomial(hits: int, n: int, p: float, z: float = 4.0) -> bool:
    """Whether *hits* of *n* Bernoulli(*p*) draws lie within *z*
    standard deviations of their mean."""
    return abs(hits - n * p) <= z * math.sqrt(n * p * (1.0 - p))


class TestDerivation:
    """Golden values of the keyed-hash derivation. They depend on neither
    the interpreter version nor its hash seed, so any change to them is
    a change of every faulty schedule."""

    def test_the_words_of_one_identity(self):
        u = make(seed=7)
        assert u.words(DATA, 0, 1, 0, 1) == (
            4388383739362017780,
            18103279295276099646,
            7977139679118979404,
            4938962577199254121,
            15139102604267826590,
        )

    def test_fates_of_fixed_identities(self):
        u = make(seed=7, loss=0.3, dup=0.3, delay=0.3, delay_min=1, delay_max=32)
        got = {
            (src, dst, domain, serial, attempt): u.fate(src, dst, domain, serial, attempt, 0)
            for src, dst, domain, serial, attempt in [
                (0, 1, DATA, 0, 1),
                (0, 1, DATA, 0, 2),
                (5, 2, DATA, 17, 1),
                (2, 5, ACK, 3, 0),
                (3, 9, DATA, 1, 3),
                (1, 4, DATA, 2, 1),
            ]
        }
        assert got == {
            (0, 1, DATA, 0, 1): Fate(dropped=True),
            (0, 1, DATA, 0, 2): Fate(arrivals=(0, 0), duplicated=True),
            (5, 2, DATA, 17, 1): Fate(arrivals=(0, 9), duplicated=True, delayed=True),
            (2, 5, ACK, 3, 0): Fate(arrivals=(0, 0), duplicated=True),
            (3, 9, DATA, 1, 3): Fate(arrivals=(4,), delayed=True),
            (1, 4, DATA, 2, 1): Fate(arrivals=(0,)),
        }

    def test_retransmit_dues_and_sides(self):
        t = ReliableTransport(make(seed=7), rto=24, backoff=2.0, max_rto=2_048, jitter=0.25)
        assert [t._rto_after(0, 1, 0, a) for a in range(1, 6)] == [26, 52, 105, 224, 393]
        assert [t._rto_after(3, 5, 7, a) for a in range(1, 6)] == [26, 59, 73, 232, 423]
        assert [make(seed=7).side(p) for p in range(16)] == [
            1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1,
        ]
        assert [make(seed=-3).side(p) for p in range(8)] == [1, 1, 0, 0, 1, 1, 1, 1]


N_DRAWS = 4_000


class TestDrawStatistics:
    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_loss_dup_and_delay_rates(self, p):
        lossy = make(seed=21, loss=p)
        dropped = sum(lossy.fate(0, 1, DATA, i, 1, 0).dropped for i in range(N_DRAWS))
        assert _within_binomial(dropped, N_DRAWS, p)
        u = make(seed=22, dup=p, delay=p)
        fates = [u.fate(2, 3, DATA, i, 1, 0) for i in range(N_DRAWS)]
        assert _within_binomial(sum(f.duplicated for f in fates), N_DRAWS, p)
        assert _within_binomial(sum(f.arrivals[0] > 0 for f in fates), N_DRAWS, p)
        copies = [f.arrivals[1] for f in fates if f.duplicated]
        assert _within_binomial(sum(c > 0 for c in copies), len(copies), p)

    def test_offsets_cover_the_delay_range_evenly(self):
        u = make(seed=23, dup=1.0, delay=1.0, delay_min=3, delay_max=19)
        span = range(3, 20)
        firsts = Counter()
        copies = Counter()
        for i in range(N_DRAWS):
            first, copy = u.fate(4, 5, DATA, i, 1, 0).arrivals
            firsts[first] += 1
            copies[copy] += 1
        for counts in (firsts, copies):
            assert set(counts) == set(span)
            assert chisquare([counts[o] for o in span]).pvalue > 1e-3

    def test_jitter_stays_in_its_band_and_lands_on_both_sides(self):
        t = ReliableTransport(make(seed=24), rto=1_000, backoff=1.0, max_rto=1_000, jitter=0.25)
        dues = [t._rto_after(6, 7, i, 1) for i in range(N_DRAWS)]
        assert all(750 <= due <= 1_250 for due in dues)
        below = sum(due < 1_000 for due in dues)
        assert _within_binomial(below, N_DRAWS, 0.5)
        assert chisquare(list(Counter(due // 50 for due in dues).values())).pvalue > 1e-3

    def test_successive_attempts_are_independent(self):
        u = make(seed=25, loss=0.3)
        table = [[0, 0], [0, 0]]
        for i in range(N_DRAWS):
            k = u.fate(8, 9, DATA, i, 1, 0).dropped
            table[k][u.fate(8, 9, DATA, i, 2, 0).dropped] += 1
        assert chi2_contingency(table).pvalue > 1e-3
        t = ReliableTransport(u, rto=1_000, backoff=1.0, max_rto=1_000, jitter=0.25)
        firsts = [t._rto_after(8, 9, i, 1) for i in range(N_DRAWS)]
        seconds = [t._rto_after(8, 9, i, 2) for i in range(N_DRAWS)]
        assert pearsonr(firsts, seconds).pvalue > 1e-3

    def test_sides_are_balanced(self):
        u = make(seed=26)
        assert _within_binomial(sum(u.side(p) for p in range(N_DRAWS)), N_DRAWS, 0.5)


class TestPartition:
    def test_blocks_only_cross_side_during_window(self):
        u = make(seed=7, partition_at=10, partition_for=5)
        sides = {pid: u.side(pid) for pid in range(16)}
        assert set(sides.values()) == {0, 1}, "both sides populated"
        a = next(p for p, s in sides.items() if s == 0)
        b = next(p for p, s in sides.items() if s == 1)
        c = next(p for p, s in sides.items() if s == 0 and p != a)
        # inside the window: cross-side blocked, same-side open
        assert u.fate(a, b, DATA, 0, 1, 12).blocked
        assert not u.fate(a, c, DATA, 0, 1, 12).blocked
        # outside: everything open again (the partition is transient)
        assert not u.fate(a, b, DATA, 0, 1, 9).blocked
        assert not u.fate(a, b, DATA, 0, 1, 15).blocked

    def test_sides_are_stable_for_the_run(self):
        u = make(seed=8)
        assert [u.side(p) for p in range(32)] == [u.side(p) for p in range(32)]


class TestBursts:
    def test_loss_burst_adds_to_base_rate(self):
        u = make(seed=9, loss=0.0)
        u.add_burst("loss", start=100, duration=50, amount=1.0)
        assert u.fate(0, 1, DATA, 0, 1, 120).dropped  # inside: certain loss
        assert not u.fate(0, 1, DATA, 0, 1, 99).dropped
        assert not u.fate(0, 1, DATA, 0, 1, 150).dropped  # window closed

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
    key=st.tuples(st.sampled_from((DATA, ACK)), st.integers(0, 2**40), st.integers(0, 30)),
    step=st.integers(0, 80),
)
def test_the_burst_free_fate_draws_what_the_general_path_draws(
    seed, loss, dup, delay, delay_span, partition_at, src, dst, key, step
) -> None:
    """Without bursts, :meth:`Underlay.fate` skips the per-kind burst
    sums; its fate is the general path's, word for word."""
    low, extra = delay_span
    u = make(
        seed=seed, loss=loss, dup=dup, delay=delay, delay_min=low,
        delay_max=low + extra, partition_at=partition_at, partition_for=20,
    )
    assert u.fate(src, dst, *key, step) == u._burst_fate(src, dst, *key, step)


class TestConfig:
    def test_round_trip(self):
        cfg = UnderlayConfig(
            seed=12, loss=0.2, dup=0.1, delay=0.3, partition_at=64,
            partition_for=48,
        )
        assert UnderlayConfig.from_dict(cfg.as_dict()) == cfg

    def test_an_empty_delay_range_is_rejected(self):
        with pytest.raises(ConfigurationError, match="delay_max"):
            UnderlayConfig(delay_min=5, delay_max=4)

    def test_round_trip_without_partition(self):
        cfg = UnderlayConfig(seed=13, partition_at=None)
        assert UnderlayConfig.from_dict(cfg.as_dict()) == cfg
