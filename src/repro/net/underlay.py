"""Seeded unreliable-underlay fault model (docs/ROBUSTNESS.md).

The underlay decides the *fate* of every transmission attempt — lost,
duplicated, delayed, or blocked by a transient partition — without ever
touching engine state. A fate is a pure function of

    (underlay seed, attempt identity, virtual step)

where the attempt identity is the integer tuple ``(domain, src, dst,
serial, attempt)``: the transport names a data frame by its
per-channel sequence number and attempt, an ack by its ack id. Two runs
with the same underlay configuration therefore assign the same fate to
the same attempt no matter what order the attempts are processed in,
which is what makes faulty runs capsule-capturable and bit-identically
replayable.

Every draw of one identity comes from one keyed hash (:meth:`Underlay.words`):
BLAKE2b, keyed by the seed, over the packed identity, cut into five
64-bit words. A fate reads them in fixed roles: loss, first delay,
duplication, copy delay, and the two arrival offsets in the halves of
the fifth word. The retransmit jitter and the partition side read the
first word of their own domain. The derivation depends on neither the
interpreter's hash seed nor its version.

Chaos campaigns escalate faults mid-run through *bursts*: bounded step
windows that add loss/dup/delay probability or open an extra partition
cut. Bursts are themselves injected on a seeded schedule (see
``repro.chaos.campaigns``), so the determinism contract survives them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b
from struct import Struct

from repro.errors import ConfigurationError

__all__ = ["ACK", "DATA", "RTO", "SIDE", "Fate", "Underlay", "UnderlayConfig"]

#: the domains of an attempt identity: what its serial counts.
DATA, ACK, RTO, SIDE = range(4)

#: an identity: (domain, src, dst, serial, attempt), signed 64-bit each
_IDENTITY = Struct("<5q")
#: a digest: five unsigned 64-bit words
_WORDS = Struct("<5Q")
_TWO64 = float(1 << 64)
_LOW32 = (1 << 32) - 1


def _seed_key(seed: int) -> bytes:
    """The BLAKE2b key of an underlay seed: its two's-complement bytes."""
    return seed.to_bytes(seed.bit_length() // 8 + 1, "little", signed=True)


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

    def __post_init__(self) -> None:
        # an offset is delay_min plus a share of the span: an empty span
        # would put arrivals before delay_min, or before the send
        if self.delay_max < self.delay_min:
            raise ConfigurationError(
                f"delay_max {self.delay_max} < delay_min {self.delay_min}"
            )

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
        #: (config, seed-keyed hash, loss, dup, delay): what the config
        #: they were read from derives, the base rates scaled to
        #: thresholds on a 64-bit word
        self._keyed: tuple = (None,)

    def _derive(self) -> tuple:
        """The keyed hash and base thresholds of the current config."""
        cfg = self.config
        keyed = self._keyed
        if keyed[0] is not cfg:
            self._side_cache.clear()
            keyed = self._keyed = (
                cfg,
                blake2b(digest_size=_WORDS.size, key=_seed_key(cfg.seed)),
                cfg.loss * _TWO64,
                cfg.dup * _TWO64,
                cfg.delay * _TWO64,
            )
        return keyed

    def words(
        self, domain: int, src: int, dst: int, serial: int, attempt: int
    ) -> tuple[int, int, int, int, int]:
        """The five 64-bit words of one identity: every draw it gets.

        A probability-*p* draw on a word succeeds when the word is below
        ``p · 2**64``; a uniform on ``[0, 1)`` is its top 53 bits.
        """
        hashed = self._derive()[1].copy()
        hashed.update(_IDENTITY.pack(domain, src, dst, serial, attempt))
        return _WORDS.unpack(hashed.digest())

    def _offset(self, half: int) -> int:
        """The arrival offset a 32-bit half-word picks in
        ``[delay_min, delay_max]``."""
        cfg = self.config
        return cfg.delay_min + ((half * (cfg.delay_max - cfg.delay_min + 1)) >> 32)

    # ------------------------------------------------------------- partitions

    def side(self, pid: int) -> int:
        """Seeded bipartition side of ``pid`` (stable for the run)."""
        cached = self._side_cache.get(pid)
        if cached is None:
            cached = self.words(SIDE, pid, 0, 0, 0)[0] >> 63
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

    def fate(
        self, src: int, dst: int, domain: int, serial: int, attempt: int, step: int
    ) -> Fate:
        """Fate of one attempt — pure in (seed, identity, step).

        ``(domain, serial, attempt)`` must be unique per attempt on the
        ``src -> dst`` path (the transport uses ``(DATA, tseq,
        attempt)`` for data frames and ``(ACK, ack id, 0)`` for acks);
        the step only enters through the partition window and the
        burst-adjusted rates, so a replayed attempt with the same
        identity at the same step draws the same fate.

        Without bursts the rates are the configured ones at every step,
        and the words below play the roles they play on the general
        path (:meth:`_burst_fate`).
        """
        if self.bursts:
            return self._burst_fate(src, dst, domain, serial, attempt, step)
        cfg = self.config
        at = cfg.partition_at
        if (
            at is not None
            and at <= step < at + cfg.partition_for
            and self.side(src) != self.side(dst)
        ):
            return _BLOCKED
        keyed = self._keyed
        if keyed[0] is not cfg:
            keyed = self._derive()
        _cfg, hashed, loss, dup, delay = keyed
        hashed = hashed.copy()  # :meth:`words`, inlined
        hashed.update(_IDENTITY.pack(domain, src, dst, serial, attempt))
        lost, late, twice, copy_late, offsets = _WORDS.unpack(hashed.digest())
        if lost < loss:
            return _DROPPED
        late = late < delay  # from here on a flag, not a word
        first = self._offset(offsets & _LOW32) if late else 0
        if twice < dup:
            if copy_late < delay:
                extra = self._offset(offsets >> 32)
                late = True
            else:
                extra = 0
            return Fate(arrivals=(first, extra), duplicated=True, delayed=late)
        if late:
            return Fate(arrivals=(first,), delayed=True)
        return _PROMPT

    def _burst_fate(
        self, src: int, dst: int, domain: int, serial: int, attempt: int, step: int
    ) -> Fate:
        """:meth:`fate` with the bursts active at *step* added in."""
        if self.blocks(src, dst, step):
            return _BLOCKED
        cfg = self.config
        lost, late, twice, copy_late, offsets = self.words(
            domain, src, dst, serial, attempt
        )
        if lost < self._rate("loss", cfg.loss, step) * _TWO64:
            return _DROPPED
        delay = self._rate("delay", cfg.delay, step) * _TWO64
        late = late < delay  # from here on a flag, not a word
        arrivals = [self._offset(offsets & _LOW32) if late else 0]
        duplicated = twice < self._rate("dup", cfg.dup, step) * _TWO64
        if duplicated:
            copy_late = copy_late < delay
            arrivals.append(self._offset(offsets >> 32) if copy_late else 0)
            late = late or copy_late
        return Fate(
            arrivals=tuple(arrivals), duplicated=duplicated, delayed=late
        )
