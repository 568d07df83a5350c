"""The transitive-closure overlay: converge to the complete digraph.

The simplest member of 𝒫, after Berns et al.'s transitive closure
framework: every timeout, each process *introduces* (♦) every stored
neighbour to every other (and itself to all of them); received references
are simply stored (♠ via set semantics). Edges are only ever added, so
from any weakly connected start the population reaches the clique — in
O(log n) synchronous rounds, since pairwise distances halve per round
(the same argument as Phase A of Theorem 1, which experiment E3
measures on the primitive calculus directly).

Needs no order on references — like the departure protocol itself, it is
a pure copy-store-send protocol.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.overlays.base import OverlayLogic, SendFn
from repro.sim.refs import KeyProvider, Ref

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = ["CliqueLogic"]


class CliqueLogic(OverlayLogic):
    """Pure logic of the transitive-closure protocol."""

    requires_order = False
    message_labels = ("p_insert",)

    def __init__(self, self_ref: Ref) -> None:
        super().__init__(self_ref)
        self.known: set[Ref] = set()

    # ------------------------------------------------------------------ state

    def neighbor_refs(self) -> Iterator[Ref]:
        yield from self.known

    def integrate(self, send: SendFn, ref: Ref) -> None:
        if ref != self.self_ref:
            self.known.add(ref)  #                                        ♠

    def drop_neighbor(self, ref: Ref) -> bool:
        if ref in self.known:
            self.known.discard(ref)
            return True
        return False

    # ------------------------------------------------------------------ behaviour

    def p_timeout(self, send: SendFn, keys: KeyProvider | None) -> None:
        # The clique is key-free (keys may be None) and every neighbour
        # receives the same introductions, so send order cannot change
        # where the protocol converges. It does fix the schedule: the set
        # walks in hash order, and Ref.__hash__ is seed-free (ints only),
        # so the order is identical across interpreters given one
        # history. The clique digest of tests/sim/test_golden_schedule.py
        # pins it, under two hash seeds in tests/sim/test_hash_seed.py.
        for v in self.known:
            send(v, "p_insert", self.self_ref)  # self-introduction       ♦
            for w in self.known:
                if v != w:
                    send(v, "p_insert", w)  # introduction                ♦

    def handle(
        self, send: SendFn, keys: KeyProvider | None, label: str, *args
    ) -> None:
        if label == "p_insert":
            (ref,) = args
            self.integrate(send, ref)

    # ------------------------------------------------------------------ target

    @classmethod
    def target_reached(cls, engine: Engine) -> bool:
        """Every staying process stores every other staying process."""
        from repro.sim.refs import pid_of
        from repro.sim.states import Mode, PState

        staying = {
            pid
            for pid, p in engine.processes.items()
            if p.mode is Mode.STAYING and p.state is not PState.GONE
        }
        for pid in staying:
            proc = engine.processes[pid]
            stored = {pid_of(info.ref) for info in proc.stored_refs()}
            if not (staying - {pid}) <= stored:
                return False
        return True
