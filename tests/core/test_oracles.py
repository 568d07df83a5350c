"""Oracle semantics on hand-wired process graphs."""

import pytest

from repro.core.oracles import (
    ORACLES,
    AlwaysOracle,
    AuditedOracle,
    NeverOracle,
    NoIncomingOracle,
    SingleOracle,
    TimeoutSingleOracle,
)
from repro.core.potential import fdp_legitimate
from repro.core.scenarios import HEAVY_CORRUPTION, build_fdp_engine, choose_leaving
from repro.errors import SafetyViolation
from repro.graphs import generators as gen
from repro.sim.engine import Engine
from repro.sim.messages import RefInfo
from repro.sim.process import Process
from repro.sim.scheduler import OldestFirstScheduler
from repro.sim.states import Capability, Mode, PState


class Holder(Process):
    def __init__(self, pid, mode=Mode.STAYING):
        super().__init__(pid, mode)
        self.refs = {}

    def stored_refs(self):
        return (RefInfo(r, m) for r, m in self.refs.items())

    def on_noop(self, ctx, *args):
        pass


def wire(n, explicit=(), leaving=(), implicit=()):
    procs = {
        i: Holder(i, Mode.LEAVING if i in leaving else Mode.STAYING)
        for i in range(n)
    }
    for a, b in explicit:
        procs[a].refs[procs[b].self_ref] = procs[b].mode
    eng = Engine(
        procs.values(),
        OldestFirstScheduler(),
        capability=Capability.EXIT,
        require_staying_per_component=False,
    )
    for a, b in implicit:
        eng.post(None, eng.ref(a), "noop", (RefInfo(eng.ref(b), procs[b].mode),))
    return eng


class TestSingleOracle:
    def test_isolated_process_single(self):
        eng = wire(2)
        assert SingleOracle()(eng, 0)

    def test_one_partner_single(self):
        eng = wire(3, explicit=[(0, 1)])
        assert SingleOracle()(eng, 0)
        assert SingleOracle()(eng, 1)

    def test_two_partners_not_single(self):
        eng = wire(3, explicit=[(0, 1), (2, 0)])
        assert not SingleOracle()(eng, 0)

    def test_implicit_edges_count(self):
        """In-flight references are edges with the process too."""
        eng = wire(3, explicit=[(0, 1)], implicit=[(2, 0)])
        assert not SingleOracle()(eng, 0)

    def test_refs_carried_in_own_channel_count(self):
        eng = wire(3, explicit=[(0, 1)], implicit=[(0, 2)])
        assert not SingleOracle()(eng, 0)

    def test_gone_partner_irrelevant(self):
        eng = wire(3, explicit=[(0, 1), (2, 0)], leaving={2})
        eng.attach()
        eng._transition(eng.processes[2], PState.GONE)
        assert SingleOracle()(eng, 0)

    def test_hibernating_partner_irrelevant(self):
        eng = wire(3, explicit=[(0, 1), (2, 0)], leaving={2})
        eng.attach()
        eng._transition(eng.processes[2], PState.ASLEEP)
        # 2 is asleep with empty channel and nobody points to it: hibernating
        assert SingleOracle()(eng, 0)

    def test_self_loop_ignored(self):
        eng = wire(2, explicit=[(0, 0), (0, 1)])
        assert SingleOracle()(eng, 0)

    def test_multi_edges_to_same_partner_still_single(self):
        eng = wire(2, explicit=[(0, 1)], implicit=[(0, 1), (1, 0)])
        assert SingleOracle()(eng, 0)


class TestTrivialOracles:
    def test_always(self):
        eng = wire(3, explicit=[(0, 1), (0, 2), (1, 0), (2, 0)])
        assert AlwaysOracle()(eng, 0)

    def test_never(self):
        eng = wire(1)
        assert not NeverOracle()(eng, 0)

    def test_registry(self):
        assert set(ORACLES) == {
            "single",
            "always",
            "never",
            "timeout_single",
            "no_incoming",
        }


class TestTimeoutSingleOracle:
    def test_agrees_with_single_on_explicit_graphs(self):
        eng = wire(3, explicit=[(0, 1), (2, 0)])
        assert TimeoutSingleOracle()(eng, 0) == SingleOracle()(eng, 0)
        eng2 = wire(3, explicit=[(0, 1)])
        assert TimeoutSingleOracle()(eng2, 0) == SingleOracle()(eng2, 0)

    def test_blind_to_inflight_references_elsewhere(self):
        """The unsafe gap: a reference to us in someone else's channel is
        invisible to the timeout-based approximation."""
        eng = wire(3, explicit=[(0, 1)], implicit=[(2, 0)])
        assert not SingleOracle()(eng, 0)  # exact oracle sees the edge
        assert TimeoutSingleOracle()(eng, 0)  # approximation does not

    def test_sees_own_channel(self):
        eng = wire(3, explicit=[(0, 1)], implicit=[(0, 2)])
        assert not TimeoutSingleOracle()(eng, 0)

    def test_grace_requires_streak(self):
        eng = wire(2, explicit=[(0, 1)])
        oracle = TimeoutSingleOracle(grace=2)
        assert not oracle(eng, 0)
        assert not oracle(eng, 0)
        assert oracle(eng, 0)  # third consecutive positive

    def test_streak_resets(self):
        oracle = TimeoutSingleOracle(grace=1)
        eng = wire(3, explicit=[(0, 1)])
        assert not oracle(eng, 0)
        # now add a second partner: streak resets
        eng.processes[0].refs[eng.ref(2)] = Mode.STAYING
        eng._dirty = True
        assert not oracle(eng, 0)
        del eng.processes[0].refs[eng.ref(2)]
        eng._dirty = True
        assert not oracle(eng, 0)  # streak restarted at 1
        assert oracle(eng, 0)

    def test_grace_validation(self):
        with pytest.raises(ValueError):
            TimeoutSingleOracle(grace=-1)


class TestNoIncomingOracle:
    def test_true_when_unreferenced(self):
        eng = wire(3, explicit=[(0, 1), (0, 2)])
        assert NoIncomingOracle()(eng, 0)  # only outgoing edges

    def test_false_with_explicit_in_edge(self):
        eng = wire(2, explicit=[(1, 0)])
        assert not NoIncomingOracle()(eng, 0)

    def test_false_with_inflight_reference(self):
        eng = wire(3, implicit=[(2, 0)])
        assert not NoIncomingOracle()(eng, 0)

    def test_differs_from_single(self):
        """SINGLE counts out-edges as edges 'with' the process; NoIncoming
        does not — the design difference between the two departure styles."""
        eng = wire(3, explicit=[(0, 1), (0, 2)])
        assert NoIncomingOracle()(eng, 0)
        assert not SingleOracle()(eng, 0)


class Exiter(Holder):
    """Leaving process that exits as soon as the oracle says so."""

    def __init__(self, pid, refs=()):
        super().__init__(pid, Mode.LEAVING)
        for ref in refs:
            self.refs[ref] = Mode.STAYING

    def timeout(self, ctx):
        if ctx.oracle():
            ctx.exit()


class TestAuditedOracle:
    def _run(self, procs, oracle):
        eng = Engine(
            procs,
            OldestFirstScheduler(),
            capability=Capability.EXIT,
            oracle=oracle,
            require_staying_per_component=False,
        )
        eng.run(10, until=lambda e: False)
        return eng

    def _unsafe(self, strict):
        """ALWAYS lets 0 exit though it has two partners (SINGLE false)."""
        b, c = Holder(1), Holder(2)
        guard = AuditedOracle(AlwaysOracle(), SingleOracle(), strict=strict)
        return [Exiter(0, [b.self_ref, c.self_ref]), b, c], guard

    def test_records_unsafe_exit_under_always_oracle(self):
        procs, guard = self._unsafe(strict=False)
        eng = self._run(procs, guard)
        assert guard.unsafe_exits == [0]
        assert guard.audited == 1 == eng.stats.exits
        # the verdict is the wrapped oracle's, unchanged
        assert eng.processes[0].state is PState.GONE

    def test_strict_mode_raises(self):
        procs, guard = self._unsafe(strict=True)
        with pytest.raises(SafetyViolation, match="AlwaysOracle"):
            self._run(procs, guard)
        assert guard.unsafe_exits == [0]

    def test_safe_exit_not_flagged(self):
        guard = AuditedOracle(SingleOracle(), SingleOracle(), strict=True)
        self._run([Exiter(0)], guard)
        assert guard.unsafe_exits == []
        assert guard.audited == 1

    def test_false_verdict_skips_reference(self):
        def reference(engine, pid):
            raise AssertionError("reference evaluated on a false verdict")

        guard = AuditedOracle(NeverOracle(), reference, strict=True)
        eng = self._run([Exiter(0)], guard)
        assert guard.audited == 0 and eng.stats.oracle_queries > 0

    @pytest.mark.parametrize(
        "make_oracle",
        [AlwaysOracle, lambda: TimeoutSingleOracle(grace=0)],
        ids=["always", "timeout_single0"],
    )
    def test_audits_every_fdp_exit(self, make_oracle):
        """Algorithm 1 exits in the action whose oracle verdict was true,
        so the wrapper audits each exit of an FDP run exactly once."""
        for seed in range(3):
            n = 12
            edges = gen.random_connected(n, 4, seed=seed ^ 0x11E)
            leaving = choose_leaving(n, edges, fraction=0.4, seed=seed)
            guard = AuditedOracle(make_oracle(), SingleOracle())
            engine = build_fdp_engine(
                n,
                edges,
                leaving,
                seed=seed,
                oracle=guard,
                corruption=HEAVY_CORRUPTION,
            )
            assert engine.run(100_000, until=fdp_legitimate, check_every=64)
            assert engine.stats.exits > 0
            assert guard.audited == engine.stats.exits
            assert len(guard.unsafe_exits) <= guard.audited
