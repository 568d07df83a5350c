"""Bounce semantics: protocol sends addressed to *gone* processes.

A message parked in a dead channel silently removes the references it
carries from the process graph — the open-system reference leak. The
engine instead applies the paper's Section 4 postprocess at send time:
third-party references bounce back to the sender as ``forward`` messages
behind one truthful ``present(target, leaving)`` hint, while messages
carrying only the sender's or the target's own reference are dropped and
counted (bouncing those would keep reversal ping-pong alive forever).
"""

from __future__ import annotations

import pytest

from repro.core.fdp import FDPProcess
from repro.core.oracles import SingleOracle
from repro.sim.engine import Engine
from repro.sim.messages import RefInfo
from repro.sim.process import Process
from repro.sim.refs import Ref
from repro.sim.scheduler import OldestFirstScheduler
from repro.sim.states import Capability, Mode, PState


class Recorder(Process):
    def __init__(self, pid, mode=Mode.STAYING):
        super().__init__(pid, mode)
        self.refs: dict[Ref, Mode] = {}

    def stored_refs(self):
        return (RefInfo(r, m) for r, m in self.refs.items())

    def on_ping(self, ctx, *args):
        pass


def make(procs, **kw):
    kw.setdefault("scheduler", OldestFirstScheduler())
    kw.setdefault("capability", Capability.BOTH)
    kw.setdefault("require_staying_per_component", False)
    eng = Engine(procs, **kw)
    eng.attach()
    return eng


def with_gone(n: int = 3, gone: int = 1) -> Engine:
    eng = make([Recorder(i) for i in range(n)])
    eng._transition(eng.processes[gone], PState.GONE)
    return eng


class TestSilentDrop:
    """Self/target-only payloads die with the edge they would have made."""

    @pytest.mark.parametrize(
        "payload",
        [
            (),  # bare message, no refs at all
            lambda eng: (RefInfo(eng.ref(0), Mode.STAYING),),  # sender's own
            lambda eng: (RefInfo(eng.ref(1), Mode.LEAVING),),  # target's own
        ],
    )
    def test_dropped_and_counted(self, payload):
        eng = with_gone()
        args = payload(eng) if callable(payload) else payload
        assert eng.post(0, eng.ref(1), "reversal", args) is None
        assert eng.stats.dropped_gone == 1
        assert eng.stats.bounced == 0
        # nothing entered any channel — dead or alive
        assert all(len(ch) == 0 for ch in eng.channels.values())

    def test_drop_consumes_no_sequence_number(self):
        eng = with_gone()
        before = eng.post(None, eng.ref(0), "ping", ())
        eng.post(0, eng.ref(1), "reversal", (RefInfo(eng.ref(0)),))
        after = eng.post(None, eng.ref(0), "ping", ())
        assert after.seq == before.seq + 1


class TestBounce:
    def test_third_party_refs_return_to_sender(self):
        eng = with_gone()
        eng.post(
            0, eng.ref(1), "forward", (RefInfo(eng.ref(2), Mode.STAYING),)
        )
        assert eng.stats.bounced == 1
        assert eng.stats.dropped_gone == 0
        assert len(eng.channels[1]) == 0  # nothing in the dead channel
        labels = [(m.label, m.args) for m in eng.channels[0]]
        # one truthful hint first, then the rescued reference
        assert labels == [
            ("present", (RefInfo(eng.ref(1), Mode.LEAVING),)),
            ("forward", (RefInfo(eng.ref(2), Mode.STAYING),)),
        ]

    def test_mixed_payload_rescues_only_third_parties(self):
        eng = with_gone(n=4)
        eng.post(
            0,
            eng.ref(1),
            "delegate",
            (
                RefInfo(eng.ref(0), Mode.STAYING),  # sender's own: not rescued
                RefInfo(eng.ref(2), Mode.STAYING),
                RefInfo(eng.ref(3), Mode.LEAVING),
            ),
        )
        assert eng.stats.bounced == 2
        assert eng.stats.dropped_gone == 0
        forwarded = [
            m.args[0].ref for m in eng.channels[0] if m.label == "forward"
        ]
        assert forwarded == [eng.ref(2), eng.ref(3)]

    def test_bounce_is_out_of_band_for_flow_accounting(self):
        """The undeliverable send never happened: the sender's sent-count
        stays flat; the bounced messages arrive as system posts."""
        eng = with_gone()
        eng.post(0, eng.ref(1), "forward", (RefInfo(eng.ref(2)),))
        assert eng.stats.sent_by.get(0, 0) == 0
        assert eng.stats.received_by.get(0, 0) == 2  # present + forward


class TestOutOfBandPostsUnchanged:
    def test_fault_injection_still_parks_in_dead_channel(self):
        """sender=None keeps the historical semantics so planted initial
        states (chaos injections, test scaffolding) stay expressible."""
        eng = with_gone()
        msg = eng.post(None, eng.ref(1), "ping", ())
        assert msg is not None
        assert len(eng.channels[1]) == 1
        assert eng.stats.dropped_gone == 0
        assert eng.stats.bounced == 0


class TestHintPurgesStaleAnchor:
    def test_bounced_hint_clears_anchor_to_gone_process(self):
        """A leaving FDP process anchored at a since-departed process
        would black-hole every future delegation; the bounce's
        ``present(target, leaving)`` hint triggers the Algorithm 2/3
        lines 1-2 purge on delivery."""
        anchor_holder = FDPProcess(
            0,
            Mode.LEAVING,
            neighbors=[Ref(2)],
            anchor=Ref(1),
            anchor_belief=Mode.STAYING,
        )
        peer = FDPProcess(1, Mode.LEAVING, neighbors=[Ref(0)])
        stayer = FDPProcess(2, Mode.STAYING, neighbors=[Ref(0)])
        eng = make([anchor_holder, peer, stayer], oracle=SingleOracle())
        eng._transition(peer, PState.GONE)
        assert anchor_holder.anchor == Ref(1)
        # the doomed delegation: refs bounce home with the hint in front
        eng.post(0, eng.ref(1), "forward", (RefInfo(eng.ref(2), Mode.STAYING),))
        eng.run(100)
        # read through the engine: a soa run returns with the object
        # export deferred, so the object held above may be stale
        assert eng.processes[0].anchor != Ref(1)
