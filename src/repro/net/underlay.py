"""Seeded unreliable-underlay fault model (docs/ROBUSTNESS.md).

The underlay decides the *fate* of every transmission attempt — lost,
duplicated, delayed, or blocked by a transient partition — without ever
touching engine state. A fate is a pure function of

    (underlay seed, attempt identity, virtual step)

where the attempt identity is the ``(src, dst, key)`` triple the
transport derives from its per-channel sequence numbers. Two runs with
the same underlay configuration therefore assign the same fate to the
same attempt no matter what order the attempts are processed in, which
is what makes faulty runs capsule-capturable and bit-identically
replayable.

Chaos campaigns escalate faults mid-run through *bursts*: bounded step
windows that add loss/dup/delay probability or open an extra partition
cut. Bursts are themselves injected on a seeded schedule (see
``repro.chaos.campaigns``), so the determinism contract survives them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

__all__ = ["Fate", "Underlay", "UnderlayConfig"]

#: burst kinds a campaign may overlay on the base fault rates.
BURST_KINDS = ("loss", "dup", "delay", "partition")


@dataclass(frozen=True)
class UnderlayConfig:
    """Base fault rates and the (optional) scheduled transient partition.

    ``loss``/``dup``/``delay`` are per-*attempt* probabilities; a
    retransmission of the same message is a fresh attempt with an
    independent fate. ``partition_at``/``partition_for`` schedule one
    transient partition: for ``partition_for`` steps starting at step
    ``partition_at``, attempts crossing a seeded bipartition of the pid
    space are blocked (both data and ack frames).
    """

    seed: int = 0
    loss: float = 0.0
    dup: float = 0.0
    delay: float = 0.0
    delay_min: int = 1
    delay_max: int = 32
    partition_at: int | None = None
    partition_for: int = 0

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "loss": self.loss,
            "dup": self.dup,
            "delay": self.delay,
            "delay_min": self.delay_min,
            "delay_max": self.delay_max,
            "partition_at": self.partition_at,
            "partition_for": self.partition_for,
        }

    @classmethod
    def from_dict(cls, data: dict) -> UnderlayConfig:
        return cls(**data)


@dataclass(frozen=True, slots=True)
class Fate:
    """The underlay's verdict on one transmission attempt.

    ``arrivals`` holds the step offsets at which copies of the frame
    reach the destination — empty when the attempt was lost or blocked,
    two entries when the underlay duplicated it. ``delayed`` marks any
    arrival beyond the non-FIFO baseline (offset 0).
    """

    arrivals: tuple[int, ...] = ()
    dropped: bool = False
    blocked: bool = False
    duplicated: bool = False
    delayed: bool = False


#: the fates that need no allocation: blocked, lost, and one prompt copy.
_BLOCKED = Fate(blocked=True)
_DROPPED = Fate(dropped=True)
_PROMPT = Fate(arrivals=(0,))


@dataclass
class _Burst:
    kind: str
    start: int
    duration: int
    amount: float

    def active(self, step: int) -> bool:
        return self.start <= step < self.start + self.duration

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration,
            "amount": self.amount,
        }


@dataclass
class Underlay:
    """Assigns seeded fates to transmission attempts; holds burst state."""

    config: UnderlayConfig = field(default_factory=UnderlayConfig)
    bursts: list[_Burst] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._side_cache: dict[int, int] = {}
        #: reseeded for every attempt: ``seed(key)`` then draws exactly
        #: what a fresh ``Random(key)`` would, without the allocation.
        self._rng = Random()
        #: (config, loss, dup, delay): the clamped base rates of the
        #: config they were read from, for the burst-free fast path
        self._rates: tuple = (None,)

    # ------------------------------------------------------------- partitions

    def side(self, pid: int) -> int:
        """Seeded bipartition side of ``pid`` (stable for the run)."""
        cached = self._side_cache.get(pid)
        if cached is None:
            cached = Random(f"{self.config.seed}:side:{pid}").randrange(2)
            self._side_cache[pid] = cached
        return cached

    def partition_active(self, step: int) -> bool:
        cfg = self.config
        if cfg.partition_at is not None and (
            cfg.partition_at <= step < cfg.partition_at + cfg.partition_for
        ):
            return True
        return any(b.kind == "partition" and b.active(step) for b in self.bursts)

    def blocks(self, src: int, dst: int, step: int) -> bool:
        """True when a partition currently cuts the ``src -> dst`` path."""
        return self.partition_active(step) and self.side(src) != self.side(dst)

    # ----------------------------------------------------------------- bursts

    def add_burst(self, kind: str, start: int, duration: int, amount: float) -> None:
        if kind not in BURST_KINDS:
            raise ValueError(f"unknown burst kind {kind!r}")
        self.bursts.append(_Burst(kind, start, max(1, duration), amount))

    def _rate(self, kind: str, base: float, step: int) -> float:
        extra = sum(
            b.amount for b in self.bursts if b.kind == kind and b.active(step)
        )
        return min(1.0, base + extra)

    # ------------------------------------------------------------------ fates

    def fate(self, src: int, dst: int, key: str, step: int) -> Fate:
        """Fate of one attempt — pure in (seed, src, dst, key, step).

        ``key`` must be unique per attempt (the transport uses
        ``"d:<tseq>:<attempt>"`` for data frames and ``"a:<ack id>"``
        for acks); the step only enters through the partition window
        and the burst-adjusted rates, so a replayed attempt with the
        same identity at the same step draws the same fate.

        Without bursts the rates are the configured ones at every step,
        and the draws below are those of the general path
        (:meth:`_burst_fate`) in the same order: loss, the first
        arrival's delay, duplication, the copy's delay.
        """
        if self.bursts:
            return self._burst_fate(src, dst, key, step)
        cfg = self.config
        at = cfg.partition_at
        if (
            at is not None
            and at <= step < at + cfg.partition_for
            and self.side(src) != self.side(dst)
        ):
            return _BLOCKED
        rates = self._rates
        if rates[0] is not cfg:
            rates = self._rates = (
                cfg, min(1.0, cfg.loss), min(1.0, cfg.dup), min(1.0, cfg.delay)
            )
        _cfg, loss, dup, delay = rates
        rng = self._rng
        rng.seed(f"{cfg.seed}:{src}>{dst}:{key}")
        random = rng.random
        if random() < loss:
            return _DROPPED
        late = random() < delay
        first = rng.randint(cfg.delay_min, cfg.delay_max) if late else 0
        if random() < dup:
            if random() < delay:
                extra = rng.randint(cfg.delay_min, cfg.delay_max)
                late = True
            else:
                extra = 0
            return Fate(arrivals=(first, extra), duplicated=True, delayed=late)
        if late:
            return Fate(arrivals=(first,), delayed=True)
        return _PROMPT

    def _burst_fate(self, src: int, dst: int, key: str, step: int) -> Fate:
        """:meth:`fate` with the bursts active at *step* added in."""
        if self.blocks(src, dst, step):
            return _BLOCKED
        cfg = self.config
        rng = self._rng
        rng.seed(f"{cfg.seed}:{src}>{dst}:{key}")
        if rng.random() < self._rate("loss", cfg.loss, step):
            return _DROPPED
        first, late = self._offset(rng, step)
        arrivals = [first]
        duplicated = rng.random() < self._rate("dup", cfg.dup, step)
        if duplicated:
            extra, extra_late = self._offset(rng, step)
            arrivals.append(extra)
            late = late or extra_late
        return Fate(
            arrivals=tuple(arrivals), duplicated=duplicated, delayed=late
        )

    def _offset(self, rng: Random, step: int) -> tuple[int, bool]:
        """One arrival-offset draw: (offset, was-it-delayed)."""
        cfg = self.config
        if rng.random() < self._rate("delay", cfg.delay, step):
            return rng.randint(cfg.delay_min, cfg.delay_max), True
        return 0, False
