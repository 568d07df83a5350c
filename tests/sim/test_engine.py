"""Unit tests for the engine: dispatch, lifecycle, snapshots, runs."""

import pytest

from repro.core.oracles import AlwaysOracle, AuditedOracle
from repro.errors import ConfigurationError, StateViolation, UnknownActionError
from repro.graphs.snapshot import EdgeKind
from repro.sim.engine import Engine
from repro.sim.messages import RefInfo
from repro.sim.process import Process
from repro.sim.refs import Ref
from repro.sim.scheduler import PID_BITS, OldestFirstScheduler
from repro.sim.states import Capability, Mode, PState


class Recorder(Process):
    def __init__(self, pid, mode=Mode.STAYING):
        super().__init__(pid, mode)
        self.refs: dict[Ref, Mode] = {}
        self.pings = 0

    def stored_refs(self):
        return (RefInfo(r, m) for r, m in self.refs.items())

    def on_ping(self, ctx, *args):
        self.pings += 1

    def on_exit_now(self, ctx):
        ctx.exit()

    def on_exit_if_oracle(self, ctx):
        if ctx.oracle():
            ctx.exit()


def make(procs, **kw):
    kw.setdefault("scheduler", OldestFirstScheduler())
    kw.setdefault("capability", Capability.BOTH)
    kw.setdefault("require_staying_per_component", False)
    return Engine(procs, **kw)


class TestConstruction:
    def test_duplicate_pid_rejected(self):
        with pytest.raises(ConfigurationError):
            make([Recorder(1), Recorder(1)])

    @pytest.mark.parametrize("pid", [-1, 1 << PID_BITS])
    def test_pid_outside_packed_range_rejected(self, pid):
        with pytest.raises(ConfigurationError, match="outside"):
            make([Recorder(0), Recorder(pid)])
        eng = make([Recorder(0)])
        eng.attach()
        with pytest.raises(ConfigurationError, match="outside"):
            eng.admit(Recorder(pid))
        assert set(eng.processes) == {0}

    def test_channels_created_per_process(self):
        eng = make([Recorder(0), Recorder(1)])
        assert set(eng.channels) == {0, 1}

    def test_ref_lookup(self):
        eng = make([Recorder(0)])
        assert eng.ref(0) == Ref(0)
        with pytest.raises(ConfigurationError):
            eng.ref(99)


class TestPost:
    def test_post_assigns_increasing_seqs(self):
        eng = make([Recorder(0)])
        m1 = eng.post(None, eng.ref(0), "ping", ())
        m2 = eng.post(None, eng.ref(0), "ping", ())
        assert m2.seq > m1.seq

    def test_post_to_unknown_target_rejected(self):
        eng = make([Recorder(0)])
        with pytest.raises(ConfigurationError):
            eng.post(None, Ref(7), "ping", ())

    def test_post_with_unknown_ref_param_rejected(self):
        """No references that do not belong to a process in the system."""
        eng = make([Recorder(0)])
        with pytest.raises(ConfigurationError):
            eng.post(None, eng.ref(0), "ping", (RefInfo(Ref(9)),))

    @pytest.mark.parametrize(
        "args,error,match",
        [
            ((RefInfo(Ref(0)), RefInfo(Ref(9))), ConfigurationError, "unknown process 9"),
            ((RefInfo(Ref(0)), ("x", [RefInfo(Ref(8))])), ConfigurationError, "unknown process 8"),
            ((RefInfo(Ref(7)), {"k": RefInfo(Ref(8))}), ConfigurationError, "unknown process 7"),
            ((RefInfo(Ref(0)), Ref(0)), TypeError, "bare Ref"),
            ((("deep", Ref(0)),), TypeError, "bare Ref"),
        ],
    )
    def test_post_validates_top_level_and_nested_refs_in_order(self, args, error, match):
        """The flat pass over top-level RefInfo arguments and the nested
        walk over containers raise the first bad reference, in order."""
        eng = make([Recorder(0)])
        with pytest.raises(error, match=match):
            eng.post(None, eng.ref(0), "ping", args)
        assert eng.stats.messages_posted == 0
        ok = (RefInfo(Ref(0)), 3, ("x", [RefInfo(Ref(0))]), {"k": RefInfo(Ref(0))})
        assert eng.post(None, eng.ref(0), "ping", ok).args == ok

    def test_post_counts_stats(self):
        eng = make([Recorder(0)])
        eng.post(None, eng.ref(0), "ping", ())
        assert eng.stats.messages_posted == 1


class TestDispatch:
    def test_delivery_invokes_handler(self):
        r = Recorder(0)
        eng = make([r])
        eng.post(None, eng.ref(0), "ping", ())
        eng.attach()
        # one timeout may fire first under oldest-first; allow a few steps
        for _ in range(5):
            if r.pings:
                break
            eng.step()
        assert r.pings == 1
        assert eng.stats.deliveries == 1

    def test_unknown_label_strict_raises(self):
        eng = make([Recorder(0)], strict=True)
        eng.post(None, eng.ref(0), "nonsense", ())
        eng.attach()
        with pytest.raises(UnknownActionError):
            for _ in range(5):
                eng.step()

    def test_unknown_label_lenient_drops(self):
        """The model: 'all other messages will be ignored by the processes'."""
        r = Recorder(0)
        eng = make([r], strict=False)
        eng.post(None, eng.ref(0), "nonsense", ())
        eng.attach()
        for _ in range(5):
            eng.step()
        assert eng.stats.dropped_unknown == 1
        assert len(eng.channels[0]) == 0

    def test_exit_removes_future_events(self):
        r = Recorder(0, Mode.LEAVING)
        eng = make([r])
        eng.post(None, eng.ref(0), "exit_now", ())
        eng.post(None, eng.ref(0), "ping", ())
        eng.attach()
        for _ in range(10):
            if eng.step() is None:
                break
        assert r.state is PState.GONE
        # the pending ping was never delivered (it died with the process)
        assert r.pings == 0

    def test_illegal_transition_rejected(self):
        r = Recorder(0)
        eng = make([r])
        eng.attach()
        eng._transition(r, PState.GONE)
        with pytest.raises(StateViolation):
            eng._transition(r, PState.AWAKE)


class TestAttachValidation:
    def test_component_without_staying_rejected(self):
        a = Recorder(0, Mode.LEAVING)
        eng = Engine(
            [a],
            OldestFirstScheduler(),
            capability=Capability.EXIT,
            require_staying_per_component=True,
        )
        with pytest.raises(ConfigurationError, match="staying"):
            eng.attach()

    def test_initial_components_recorded(self):
        a, b, c = Recorder(0), Recorder(1), Recorder(2)
        a.refs[b.self_ref] = Mode.STAYING
        eng = make([a, b, c])
        eng.attach()
        comps = {frozenset(comp) for comp in eng.initial_components}
        assert comps == {frozenset({0, 1}), frozenset({2})}

    def test_initial_components_before_attach_raises(self):
        eng = make([Recorder(0)])
        with pytest.raises(ConfigurationError):
            _ = eng.initial_components


class TestSnapshot:
    def test_explicit_and_implicit_edges(self):
        a, b = Recorder(0), Recorder(1)
        a.refs[b.self_ref] = Mode.STAYING
        eng = make([a, b])
        eng.post(0, eng.ref(1), "ping", (RefInfo(a.self_ref, Mode.STAYING),))
        snap = eng.snapshot()
        kinds = {(e.src, e.dst): e.kind for e in snap.edges}
        assert kinds[(0, 1)] is EdgeKind.EXPLICIT
        assert kinds[(1, 0)] is EdgeKind.IMPLICIT

    def test_gone_processes_excluded(self):
        a, b = Recorder(0, Mode.LEAVING), Recorder(1)
        b.refs[a.self_ref] = Mode.LEAVING
        eng = make([a, b])
        eng.post(None, eng.ref(0), "exit_now", ())
        eng.attach()
        for _ in range(10):
            if a.state is PState.GONE:
                break
            eng.step()
        snap = eng.snapshot()
        assert 0 not in snap
        assert all(e.dst != 0 or e.src != 0 for e in snap.edges) or True
        # b's dangling ref to gone a is not an edge of PG's node set
        assert snap.in_edges(0) == []

    def test_snapshot_cached_until_state_changes(self):
        a = Recorder(0)
        eng = make([a])
        s1 = eng.snapshot()
        s2 = eng.snapshot()
        assert s1 is s2
        eng.post(None, eng.ref(0), "ping", ())
        assert eng.snapshot() is not s1


class TestRun:
    def test_run_until_predicate(self):
        r = Recorder(0)
        eng = make([r])
        for _ in range(3):
            eng.post(None, eng.ref(0), "ping", ())
        ok = eng.run(100, until=lambda e: r.pings == 3)
        assert ok

    def test_run_budget_returns_false(self):
        r = Recorder(0)
        eng = make([r])
        assert eng.run(5, until=lambda e: False) is False

    def test_run_budget_raises_when_requested(self):
        from repro.errors import ConvergenceError

        eng = make([Recorder(0)])
        with pytest.raises(ConvergenceError):
            eng.run(3, until=lambda e: False, raise_on_budget=True)

    def test_budget_error_carries_progress_diagnostics(self):
        from repro.errors import ConvergenceError

        r = Recorder(0)
        eng = make([r])
        for _ in range(10):
            eng.post(None, eng.ref(0), "ping", ())
        with pytest.raises(ConvergenceError) as excinfo:
            eng.run(4, until=lambda e: False, raise_on_budget=True)
        diagnostics = excinfo.value.diagnostics
        assert diagnostics["step"] == 4
        for key in ("phi", "pending", "edges", "gone", "asleep",
                    "last_progress_step"):
            assert key in diagnostics
        assert diagnostics == eng.progress_diagnostics()
        assert excinfo.value.stats == eng.stats.as_dict()

    def test_quiescence_detected(self):
        """A process that sleeps with no pending messages quiesces the run."""

        class Sleeper(Process):
            def timeout(self, ctx):
                ctx.sleep()

        eng = make([Sleeper(0, Mode.LEAVING)])
        result = eng.run(100, until=lambda e: False)
        assert result is False
        assert eng.step_count < 100  # stopped early at quiescence

    def test_until_checked_before_first_step(self):
        eng = make([Recorder(0)])
        assert eng.run(0, until=lambda e: True)

    def test_predicate_evaluated_once_per_interval(self):
        """Regression: when check_every divides max_steps the predicate
        used to be evaluated twice at the budget boundary (once by the
        final loop iteration, once by the post-loop safety check)."""
        eng = make([Recorder(0)])
        calls = 0

        def pred(engine):
            nonlocal calls
            calls += 1
            return False

        assert eng.run(40, until=pred, check_every=8) is False
        assert eng.step_count == 40  # Recorder never quiesces (timeouts)
        assert calls == 1 + 40 // 8  # pre-loop check + one per interval

    def test_final_partial_interval_still_checked(self):
        """When check_every does NOT divide max_steps, the tail steps
        after the last full interval still get one closing check."""
        eng = make([Recorder(0)])
        calls = 0

        def pred(engine):
            nonlocal calls
            calls += 1
            return False

        assert eng.run(10, until=pred, check_every=8) is False
        assert calls == 1 + 10 // 8 + 1

    def test_predicate_satisfied_in_tail_interval(self):
        eng = make([Recorder(0)])
        # Becomes true at step 10; only the post-loop check can see it
        # (the last in-loop check fires at step 8).
        assert eng.run(10, until=lambda e: e.step_count >= 10, check_every=8)

    @pytest.mark.parametrize("check_every", [0, -3])
    def test_check_every_below_one_rejected_before_any_step(self, check_every):
        """Regression: 0 raised a bare ZeroDivisionError and a negative
        cadence asked for negative batches, so the run never returned."""
        eng = make([Recorder(0)])
        calls = 0

        def pred(engine):
            nonlocal calls
            calls += 1
            return False

        with pytest.raises(ConfigurationError, match="check_every"):
            eng.run(10, until=pred, check_every=check_every)
        assert calls == 0 and eng.step_count == 0


class TestMeasurements:
    def test_potential_counts_invalid_edges(self):
        a, b = Recorder(0), Recorder(1, Mode.LEAVING)
        a.refs[b.self_ref] = Mode.STAYING  # invalid: b is leaving
        eng = make([a, b])
        assert eng.potential() == 1

    def test_potential_zero_for_valid_state(self):
        a, b = Recorder(0), Recorder(1, Mode.LEAVING)
        a.refs[b.self_ref] = Mode.LEAVING
        eng = make([a, b])
        assert eng.potential() == 0

    def test_describe_keys(self):
        eng = make([Recorder(0)])
        desc = eng.describe()
        for key in ("step", "processes", "gone", "edges", "potential", "stats"):
            assert key in desc

    def test_audit_reference_runs_pre_transition(self):
        """An audited oracle's reference judges the pre-exit state: the
        exiting process is still awake when it runs."""
        seen = []

        def reference(engine, pid):
            seen.append((pid, engine.processes[pid].state))
            return True

        r = Recorder(0, Mode.LEAVING)
        eng = make([r], oracle=AuditedOracle(AlwaysOracle(), reference))
        eng.post(None, eng.ref(0), "exit_if_oracle", ())
        eng.attach()
        for _ in range(10):
            if r.state is PState.GONE:
                break
            eng.step()
        assert seen == [(0, PState.AWAKE)]
