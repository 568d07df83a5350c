"""The self-stabilizing FDP protocol of Section 3 (Algorithms 1–3).

:class:`FDPProcess` is a line-by-line transcription of the paper's three
actions — ``timeout``, ``present(v)`` and ``forward(v)`` — annotated with
the pseudocode line numbers and the primitive each branch realizes
(♦ (self-)introduction, ♥ delegation, ♠ fusion, ♣ reversal). Because
every branch is one of the four primitives (plus the oracle-guarded
``exit``), Lemma 2's safety follows from Lemma 1, and the test-suite
re-verifies it mechanically with connectivity monitors.

Protocol state per process u:

* ``u.N`` — the neighbourhood: references stored in local memory, each
  with u's belief about the referenced process's mode (``u.mode(v)``);
* ``u.anchor`` — one additional reference slot, used only by leaving
  processes: a process u believes to be staying, to which u delegates
  every reference it wants to get rid of.

Transcription notes (faithfulness decisions, also recorded in DESIGN.md):

1. **Indentation of Algorithm 1, lines 8–14.** The paper's layout is
   ambiguous about which ``if`` the two ``else`` branches attach to. We
   adopt the only liveness-consistent reading: when a leaving process's
   ``N`` is non-empty it *always* drains ``N`` into ``forward`` messages
   to itself (the forward action then delegates each reference to the
   anchor, or adopts the first staying one as anchor); the
   ``present(u)``-to-anchor verification runs when ``N`` is empty but
   ``SINGLE`` does not hold yet. Under the alternative parse, a leaving
   process holding both an anchor and neighbours would never drain its
   neighbourhood and could never exit — contradicting Lemma 3.

2. **Self-references.** The primitives assume u, v, w pairwise distinct
   (self-introduction excepted). A process receiving its own reference
   discards it — fusing it with its implicit self-knowledge — which
   cannot affect connectivity (a self-loop connects nothing).

3. **Missing mode information.** An adversarial initial state may contain
   messages whose piggybacked mode is absent. The protocol interprets an
   unknown mode as *staying*; correspondingly Φ counts an unknown belief
   about a leaving process as invalid information, keeping Lemma 3's
   monotonicity intact (see :mod:`repro.core.potential`).

4. **Knowledge updates.** When a message carrying ``RefInfo(v, m)`` is
   processed, the action body branches on the *incoming* knowledge ``m``;
   stored beliefs change only where the pseudocode stores or removes a
   reference (the ``N := N ∪ {v}`` insertions store ``m``; the removal
   and anchor-purge branches delete). There is deliberately no blanket
   "update stored belief to m" step: overwriting a valid stored belief
   with invalid incoming information while also forwarding that
   information would *copy* invalid information and break the
   monotonicity of Φ that Lemma 3's proof rests on (the per-step
   :class:`~repro.sim.monitors.PotentialMonitor` catches exactly this
   if reintroduced).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from repro.sim.messages import RefInfo
from repro.sim.process import ActionContext, Process
from repro.sim.refs import Ref, RefCell, RefMap
from repro.sim.states import Mode

__all__ = ["FDPProcess", "normalize_belief"]


def normalize_belief(mode: Mode | None) -> Mode:
    """Interpret a piggybacked mode claim; unknown counts as staying."""
    return mode if mode is not None else Mode.STAYING


class FDPProcess(Process):
    """One process running the departure protocol of Algorithms 1–3."""

    #: All stored refs live in tracked containers (``N`` is a
    #: :class:`~repro.sim.refs.RefMap`, the anchor a ``RefCell``), so the
    #: engine drains write-through deltas instead of fingerprinting.
    ref_tracking = True

    def __init__(
        self,
        pid: int,
        mode: Mode,
        *,
        neighbors: Mapping[Ref, Mode] | Iterable[Ref] = (),
        anchor: Ref | None = None,
        anchor_belief: Mode | None = None,
    ) -> None:
        super().__init__(pid, mode)
        #: u.N — stored references with mode beliefs (u.mode(v)).
        self.N: RefMap = RefMap(self._ref_log)
        if isinstance(neighbors, Mapping):
            for ref, belief in neighbors.items():
                self._add_neighbor(ref, belief)
        else:
            for ref in neighbors:
                self._add_neighbor(ref, Mode.STAYING)
        #: u.anchor — the leaving process's escape hatch (⊥ encoded as None).
        self._anchor_cell = RefCell(self._ref_log)
        if anchor is not None and anchor != self.self_ref:
            self.anchor = anchor
            self.anchor_belief = normalize_belief(anchor_belief)

    # The anchor slot reads/writes through the tracked cell so every
    # assignment site (protocol code, scenario corruption, tests) logs
    # its edge delta without changing the ``u.anchor`` surface syntax.

    @property
    def anchor(self) -> Ref | None:
        return self._anchor_cell.ref

    @anchor.setter
    def anchor(self, ref: Ref | None) -> None:
        self._anchor_cell.set_ref(ref)

    @property
    def anchor_belief(self) -> Mode | None:
        return self._anchor_cell.belief

    @anchor_belief.setter
    def anchor_belief(self, belief: Mode | None) -> None:
        self._anchor_cell.set_belief(belief)

    # ------------------------------------------------------------------ state

    def _add_neighbor(self, ref: Ref, belief: Mode | None) -> None:
        if ref != self.self_ref:  # a process implicitly knows itself
            self.N[ref] = normalize_belief(belief)

    def stored_refs(self) -> Iterator[RefInfo]:
        """Explicit edges: the neighbourhood plus the anchor slot."""
        for ref, belief in self.N.items():
            yield RefInfo(ref, belief)
        if self.anchor is not None:
            yield RefInfo(self.anchor, self.anchor_belief)

    def stored_pids(self) -> list[int]:
        pids = [ref._pid for ref in self.N._d]  # noqa: SLF001
        anchor = self._anchor_cell._ref  # noqa: SLF001
        if anchor is not None:
            pids.append(anchor._pid)  # noqa: SLF001
        return pids

    def describe_vars(self) -> dict:
        return {
            "N": {repr(r): b.value for r, b in self.N.items()},
            "anchor": repr(self.anchor) if self.anchor is not None else None,
            "anchor_belief": (
                self.anchor_belief.value if self.anchor_belief is not None else None
            ),
        }

    def _drop_stale_anchor(self, v: Ref, m: Mode) -> None:
        """Algorithm 2/3 lines 1–2: an anchor now known to be leaving is
        no anchor (anchors must be staying)."""
        if self.anchor is not None and v == self.anchor and m is Mode.LEAVING:
            self.anchor = None
            self.anchor_belief = None

    def _clear_anchor_to_self(self, ctx: ActionContext) -> None:
        """Turn the anchor slot into a ``present`` message to ourselves
        (explicit edge becomes implicit; handled by on_present later)."""
        assert self.anchor is not None
        ctx.send(self.self_ref, "present", RefInfo(self.anchor, self.anchor_belief))
        self.anchor = None
        self.anchor_belief = None

    # ------------------------------------------------------------------ hooks

    def _departure_ready(self, ctx: ActionContext) -> None:
        """N is empty and SINGLE holds: leave. (Overridden by FSP.)"""
        ctx.exit()  # Alg. 1 line 7

    def _consult_oracle(self, ctx: ActionContext) -> bool:
        """Alg. 1 line 6. (Overridden by FSP, which needs no oracle.)"""
        return ctx.oracle()

    def _present_leaving_leaving(self, ctx: ActionContext, v: Ref, m: Mode) -> None:
        """Algorithm 2 line 5: leaving self receives a leaving reference.

        FDP behaviour: hand our own reference to the other leaving process
        (reversal ♣); the resulting mutual bouncing terminates because
        SINGLE eventually lets one of the pair exit. The FSP variant
        overrides this (see :class:`~repro.core.fsp.FSPProcess`).
        """
        ctx.send(v, "forward", RefInfo(self.self_ref, self.mode))

    def _leaving_ref_no_anchor(self, ctx: ActionContext, v: Ref, m: Mode) -> None:
        """Algorithm 3 line 6: leaving, anchor-less self was *forwarded* a
        leaving reference. FDP behaviour: reversal ♣ (same termination
        argument as above); overridden by the FSP variant."""
        ctx.send(v, "forward", RefInfo(self.self_ref, self.mode))

    # ------------------------------------------------------------------ timeout

    def timeout(self, ctx: ActionContext) -> None:
        """Algorithm 1."""
        # Lines 1–3: purge an anchor believed (possibly from a corrupted
        # initial state) to be leaving.                                  ♦
        if self.anchor is not None and self.anchor_belief is Mode.LEAVING:
            self._clear_anchor_to_self(ctx)

        if self.mode is Mode.LEAVING:  # line 4
            if not self.N:  # line 5
                if self._consult_oracle(ctx):  # line 6: SINGLE(u)
                    self._departure_ready(ctx)  # line 7: exit
                elif self.anchor is not None:  # lines 8–10
                    # Self-introduce to the anchor: verifies we have a
                    # staying anchor (a leaving one answers with its true
                    # mode, triggering the line 1–2 purge).              ♦
                    ctx.send(
                        self.anchor, "present", RefInfo(self.self_ref, self.mode)
                    )
            else:  # lines 11–14: drain the neighbourhood to ourselves.
                for v, belief in self.N.items():
                    # Explicit edge becomes an implicit one we will
                    # delegate on receipt.                                ♦
                    ctx.send(self.self_ref, "forward", RefInfo(v, belief))
                self.N.clear()
        else:  # lines 15–22: staying process
            if self.anchor is not None:  # lines 16–18: staying processes
                self._clear_anchor_to_self(ctx)  # hold no anchor
            for v, belief in list(self.N.items()):  # line 19
                if belief is Mode.LEAVING:  # lines 20–21
                    del self.N[v]  # together with line 22: reversal      ♣
                # Line 22: (self-)introduction to every neighbour —
                # reversal for dropped leaving ones.                 ♦ or ♣
                ctx.send(v, "present", RefInfo(self.self_ref, self.mode))

    # ------------------------------------------------------------------ present

    def on_present(self, ctx: ActionContext, info: RefInfo) -> None:
        """Algorithm 2: a reference v is *introduced* to us."""
        v = info.ref
        if v == self.self_ref:  # transcription note 2
            return
        m = normalize_belief(info.mode)
        self._drop_stale_anchor(v, m)  # lines 1–2                        ♠

        if m is Mode.LEAVING:  # line 3
            if self.mode is Mode.LEAVING:  # lines 4–5
                self._present_leaving_leaving(ctx, v, m)  #                ♣
            else:  # lines 6–9
                if v in self.N:  # lines 7–8: drop the explicit edge too  ♠
                    del self.N[v]
                # Reverse: v gets our reference instead of us keeping v.  ♣
                ctx.send(v, "forward", RefInfo(self.self_ref, self.mode))
        else:  # line 10: v believed staying
            if self.mode is Mode.LEAVING:  # line 11
                if self.anchor is not None:  # lines 12–13
                    # We already have an anchor: give v our reference so
                    # all edges end up pointing at us exactly once.       ♣
                    ctx.send(v, "forward", RefInfo(self.self_ref, self.mode))
                else:  # lines 14–15: adopt v as our anchor
                    self.anchor = v
                    self.anchor_belief = m
            else:  # lines 16–17: staying learns a staying reference
                self.N[v] = m  # fusion if already known                   ♠

    # ------------------------------------------------------------------ forward

    def on_forward(self, ctx: ActionContext, info: RefInfo) -> None:
        """Algorithm 3: a reference v is *delegated* to us."""
        v = info.ref
        if v == self.self_ref:  # transcription note 2
            return
        m = normalize_belief(info.mode)
        self._drop_stale_anchor(v, m)  # lines 1–2                        ♠

        if m is Mode.LEAVING:  # line 3
            if self.mode is Mode.LEAVING:  # line 4
                if self.anchor is None:  # lines 5–6
                    self._leaving_ref_no_anchor(ctx, v, m)  #             ♣
                else:  # lines 7–8: pass v on to our anchor
                    ctx.send(self.anchor, "forward", RefInfo(v, m))  #    ♥
            else:  # lines 9–12: staying
                if v in self.N:  # lines 10–11                            ♠
                    del self.N[v]
                # Reverse the edge back to the leaving process.           ♣
                ctx.send(v, "forward", RefInfo(self.self_ref, self.mode))
        else:  # line 13: v believed staying
            if self.mode is Mode.LEAVING:  # line 14
                if self.anchor is not None:  # lines 15–16
                    ctx.send(self.anchor, "forward", RefInfo(v, m))  #    ♥
                else:  # lines 17–18: adopt v as anchor
                    self.anchor = v
                    self.anchor_belief = m
            else:  # lines 19–20: staying stores the staying reference
                self.N[v] = m  #                                          ♠
