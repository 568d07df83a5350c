"""Opaque process references enforcing the copy-store-send discipline.

The paper's model (Section 1.1) gives every process a unique reference
"like its IP address" and restricts protocols to *copy-store-send* usage:
references may be copied, stored and sent, and two references may be
compared for equality (``v = w``) — nothing else. In particular there is
no order on references, no hashing to integers, and no arithmetic.

:class:`Ref` implements exactly that contract:

* ``__eq__`` / ``__ne__`` — the ``v = w`` check the paper's protocol needs;
* ``__hash__`` — required so references can be stored in Python sets and
  dicts (this models *storing* a reference, not inspecting it: the hash is
  salted per interpreter run via Python's object hashing of the wrapper,
  so protocol code cannot recover a total order from it);
* every ordering operator raises :class:`~repro.errors.CopyStoreSendViolation`.

Engine and measurement code occasionally needs the underlying process
identifier (for building graph snapshots, tracing, oracles). That access
goes through :func:`pid_of`, which lives here so that the *single* escape
hatch is easy to audit: protocol modules must never import it. The test
suite greps protocol sources to enforce this.

Protocols that legitimately need a total order on processes (e.g. the
linearization overlay, mirroring Foreback et al.'s requirement) declare
``requires_order`` and receive keys through :class:`KeyProvider` rather
than by peeking into references.
"""

from __future__ import annotations

from collections.abc import (
    Hashable,
    Iterable,
    ItemsView,
    Iterator,
    KeysView,
    Mapping,
    ValuesView,
)
from typing import NoReturn

from repro.errors import CopyStoreSendViolation

#: What protocols may store alongside a reference: an arbitrary but
#: hashable tag (it keys the delta log's ``(dst_pid, belief)`` entries).
Belief = Hashable

__all__ = [
    "Ref",
    "pid_of",
    "KeyProvider",
    "RefFactory",
    "RefDeltaLog",
    "RefMap",
    "RefCell",
    "REF_SLOT_BITS",
    "REF_GEN_BITS",
    "tag_ref",
    "tag_slot",
    "tag_gen",
]

#: Bit width of the slot field in a tagged-int reference. 2^21 slots is
#: an order of magnitude above the ROADMAP's n=10^6 target; generations
#: live in the (unbounded) high bits.
REF_SLOT_BITS = 21
_SLOT_MASK = (1 << REF_SLOT_BITS) - 1

#: Maximum generation-counter width honoured by slot recycling. Python
#: ints are unbounded, so ``tag_ref`` itself never wraps — but a packed
#: tag must stay exact through every numeric container the core routes
#: it through (float-valued telemetry, ``array`` columns). 21 + 31 = 52
#: bits keeps every tag below 2^53, the IEEE-754 exact-integer ceiling.
#: :meth:`repro.sim.soa.EngineCore.admit` refuses to recycle a slot whose
#: bumped generation would exceed this, raising
#: :class:`repro.errors.SlotRecycleOverflow` instead of silently aliasing.
REF_GEN_BITS = 31


def tag_ref(slot: int, gen: int = 0) -> int:
    """Pack (slot, generation) into one tagged-int reference.

    The struct-of-arrays core (:mod:`repro.sim.soa`) represents process
    references as plain ints: the low :data:`REF_SLOT_BITS` bits index
    the process slot, the high bits carry a generation tag bumped when
    the slot's process exits — a dead reference therefore never compares
    equal to a live one, which is the int-domain analogue of this
    module's no-dead-refs rule. Like :func:`pid_of`, these helpers are
    an engine/measurement escape hatch, never for protocol code; the
    hash of a tagged int is the int itself, so (as with :class:`Ref`'s
    salted-int hash) iteration orders built on it are PYTHONHASHSEED-free.
    """

    return slot | (gen << REF_SLOT_BITS)


def tag_slot(tag: int) -> int:
    """Slot index of a tagged-int reference."""
    return tag & _SLOT_MASK


def tag_gen(tag: int) -> int:
    """Generation counter of a tagged-int reference."""
    return tag >> REF_SLOT_BITS


class Ref:
    """An opaque, equality-comparable reference to a process.

    Instances are immutable and interned per factory, so identity checks
    coincide with equality for references produced by the same simulator.
    """

    __slots__ = ("_pid",)

    _pid: int

    def __init__(self, pid: int) -> None:
        object.__setattr__(self, "_pid", int(pid))

    # -- the permitted operations -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Ref):
            return self._pid == other._pid
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if isinstance(other, Ref):
            return self._pid != other._pid
        return NotImplemented

    def __hash__(self) -> int:
        # Must be stable ACROSS processes: a string in the hash input
        # would pick up per-process PYTHONHASHSEED randomization, making
        # every set-of-Refs iterate in a different order per interpreter
        # — which breaks the trial fabric's serial ≡ parallel guarantee
        # for any protocol that walks such a set (the Section 4
        # framework does). Int hashing is randomization-free.
        return hash((0x5EED, self._pid))

    # -- everything else is forbidden ---------------------------------------------

    def _forbidden(self, op: str) -> NoReturn:
        raise CopyStoreSendViolation(
            f"references cannot be {op}: copy-store-send protocols may only "
            "copy, store, send and equality-compare references"
        )

    def __lt__(self, other: object) -> NoReturn:  # pragma: no cover - exercised via tests
        self._forbidden("ordered")

    def __le__(self, other: object) -> NoReturn:
        self._forbidden("ordered")

    def __gt__(self, other: object) -> NoReturn:
        self._forbidden("ordered")

    def __ge__(self, other: object) -> NoReturn:
        self._forbidden("ordered")

    def __int__(self) -> NoReturn:
        self._forbidden("converted to integers")

    def __index__(self) -> NoReturn:
        self._forbidden("used as integers")

    def __add__(self, other: object) -> NoReturn:
        self._forbidden("used in arithmetic")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Ref is immutable")

    def __repr__(self) -> str:  # debugging / trace output only
        return f"Ref<{self._pid}>"


def pid_of(ref: Ref) -> int:
    """Return the process identifier behind *ref*.

    Engine/measurement escape hatch — **never call from protocol code**.
    """

    return ref._pid  # noqa: SLF001 - this module owns Ref


class RefFactory:
    """Creates and interns :class:`Ref` objects for one simulated system.

    Interning keeps memory use flat when protocols copy references heavily
    (each process graph edge would otherwise allocate a fresh wrapper) —
    a deliberate nod to the HPC guidance of avoiding needless copies.
    """

    __slots__ = ("_cache",)

    def __init__(self) -> None:
        self._cache: dict[int, Ref] = {}

    def ref(self, pid: int) -> Ref:
        """Return the canonical :class:`Ref` for process *pid*."""
        try:
            return self._cache[pid]
        except KeyError:
            r = self._cache[pid] = Ref(pid)
            return r

    def known_pids(self) -> Iterator[int]:
        """Iterate over the pids a reference has been created for."""
        return iter(self._cache)

    def __len__(self) -> int:
        return len(self._cache)


class RefDeltaLog:
    """Per-process accumulator of net explicit-edge deltas.

    Tracked ref containers (:class:`RefMap`, :class:`RefCell`) record
    every store/drop as ``(dst_pid, belief) → ±count`` into ``pending``
    at mutation time; the engine drains the log at atomic-action
    boundaries into the live graph. Accumulating the *net* count makes
    the intermediate mutation order irrelevant — a drop-then-restore of
    the same (dst, belief) leaves no entry at all, so unchanged-ref
    actions drain in O(1) instead of paying an O(refs) fingerprint diff.

    ``enabled`` is flipped off by the engine for processes that do not
    declare ``ref_tracking`` (the engine diffs their fingerprints
    instead) so mutations cost one extra branch and nothing accumulates.
    """

    __slots__ = ("enabled", "pending")

    def __init__(self) -> None:
        self.enabled: bool = True
        #: (dst_pid, stored belief) → net count since the last drain.
        self.pending: dict[tuple[int, Belief], int] = {}

    def record(self, dst_pid: int, belief: Belief, count: int) -> None:
        """Accumulate ``count`` copies of the edge ``(dst_pid, belief)``."""
        key = (dst_pid, belief)
        pending = self.pending
        net = pending.get(key, 0) + count
        if net:
            pending[key] = net
        else:
            del pending[key]


_MISSING = object()


class RefMap:
    """Dict-like ``Ref → belief`` store that write-through-logs deltas.

    Drop-in for the plain dicts protocol processes keep their
    neighbourhoods in (``u.N``, ``parked``): supports the mapping surface
    the protocols and tests use, and mirrors every mutation into the
    owning process's :class:`RefDeltaLog` so the engine never has to
    fingerprint the store to learn what changed.
    """

    __slots__ = ("_log", "_d")

    def __init__(
        self,
        log: RefDeltaLog,
        items: Mapping[Ref, Belief] | Iterable[tuple[Ref, Belief]] | None = None,
    ) -> None:
        self._log = log
        self._d: dict[Ref, Belief] = {}
        if items is not None:
            self.update(items)

    # -- mutations (logged) ---------------------------------------------------

    def __setitem__(self, ref: Ref, belief: Belief) -> None:
        d = self._d
        old = d.get(ref, _MISSING)
        if old is belief:
            return
        d[ref] = belief
        log = self._log
        if log.enabled:
            pid = ref._pid  # noqa: SLF001 - this module owns Ref
            if old is not _MISSING:
                log.record(pid, old, -1)
            log.record(pid, belief, 1)

    def __delitem__(self, ref: Ref) -> None:
        old = self._d.pop(ref)  # raises KeyError like a dict
        log = self._log
        if log.enabled:
            log.record(ref._pid, old, -1)  # noqa: SLF001

    def pop(self, ref: Ref, *default: Belief) -> Belief:
        old = self._d.pop(ref, _MISSING)
        if old is _MISSING:
            if default:
                return default[0]
            raise KeyError(ref)
        log = self._log
        if log.enabled:
            log.record(ref._pid, old, -1)  # noqa: SLF001
        return old

    def clear(self) -> None:
        d = self._d
        if not d:
            return
        log = self._log
        if log.enabled:
            record = log.record
            for ref, belief in d.items():
                record(ref._pid, belief, -1)  # noqa: SLF001
        d.clear()

    def update(
        self, items: Mapping[Ref, Belief] | Iterable[tuple[Ref, Belief]]
    ) -> None:
        pairs = items.items() if isinstance(items, Mapping) else items
        for ref, belief in pairs:
            self[ref] = belief

    # -- reads (plain dict semantics) ----------------------------------------

    def __getitem__(self, ref: Ref) -> Belief:
        return self._d[ref]

    def get(self, ref: Ref, default: Belief = None) -> Belief:
        return self._d.get(ref, default)

    def __contains__(self, ref: object) -> bool:
        return ref in self._d

    def __iter__(self) -> Iterator[Ref]:
        return iter(self._d)

    def __len__(self) -> int:
        return len(self._d)

    def __bool__(self) -> bool:
        return bool(self._d)

    def items(self) -> ItemsView[Ref, Belief]:
        return self._d.items()

    def keys(self) -> KeysView[Ref]:
        return self._d.keys()

    def values(self) -> ValuesView[Belief]:
        return self._d.values()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RefMap):
            return self._d == other._d
        if isinstance(other, dict):
            return self._d == other
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return eq
        return not eq

    def __repr__(self) -> str:
        return f"RefMap({self._d!r})"


class RefCell:
    """A single ``(ref, belief)`` slot — e.g. the FDP anchor — with
    write-through delta logging.

    Reads go through the ``ref``/``belief`` properties; writes through
    :meth:`set_ref`/:meth:`set_belief` (protocol classes expose them as
    property setters), which log the net edge transition.
    """

    __slots__ = ("_log", "_ref", "_belief")

    def __init__(
        self, log: RefDeltaLog, ref: Ref | None = None, belief: Belief = None
    ) -> None:
        self._log = log
        self._ref: Ref | None = None
        self._belief: Belief = None
        if belief is not None:
            self.set_belief(belief)
        if ref is not None:
            self.set_ref(ref)

    @property
    def ref(self) -> Ref | None:
        return self._ref

    @property
    def belief(self) -> Belief:
        return self._belief

    def set_ref(self, ref: Ref | None) -> None:
        old = self._ref
        if old is ref:
            return
        log = self._log
        if log.enabled:
            belief = self._belief
            if old is not None:
                log.record(old._pid, belief, -1)  # noqa: SLF001
            if ref is not None:
                log.record(ref._pid, belief, 1)  # noqa: SLF001
        self._ref = ref

    def set_belief(self, belief: Belief) -> None:
        old = self._belief
        if old is belief:
            return
        ref = self._ref
        log = self._log
        if ref is not None and log.enabled:
            pid = ref._pid  # noqa: SLF001
            log.record(pid, old, -1)
            log.record(pid, belief, 1)
        self._belief = belief

    def __repr__(self) -> str:
        return f"RefCell({self._ref!r}, {self._belief!r})"


class KeyProvider:
    """Grants ordered keys for protocols that declare ``requires_order``.

    The paper notes that the departure protocol of [15] requires "a fixed
    total order on the nodes (e.g., their names or IP addresses do not
    change)" while the paper's own protocol only needs equality checks.
    Overlay protocols that need the order (linearization, rings, the
    Foreback-style baseline) obtain it here; the engine only hands a
    ``KeyProvider`` to protocols that declare the requirement, keeping the
    distinction between the two protocol classes machine-checked.
    """

    __slots__ = ("_keys",)

    def __init__(self, keys: Mapping[int, float] | None = None) -> None:
        # Default key is the pid itself: "names do not change".
        self._keys: dict[int, float] | None = (
            dict(keys) if keys is not None else None
        )

    def key(self, ref: Ref) -> float:
        """Return the immutable, totally-ordered key of *ref*'s process."""
        pid = pid_of(ref)
        if self._keys is None:
            return float(pid)
        return self._keys[pid]

    def min(self, refs: Iterable[Ref]) -> Ref:
        """Return the reference with the smallest key among *refs*."""
        return min(refs, key=self.key)

    def max(self, refs: Iterable[Ref]) -> Ref:
        """Return the reference with the largest key among *refs*."""
        return max(refs, key=self.key)

    def sorted(self, refs: Iterable[Ref]) -> list[Ref]:
        """Return *refs* sorted by key, ascending."""
        return sorted(refs, key=self.key)
