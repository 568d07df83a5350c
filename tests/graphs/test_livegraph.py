"""Unit tests for the event-sourced live graph.

Each test exercises one delta source or maintained structure in
isolation; the end-to-end ``LiveGraph ≡ rebuild(state)`` invariant has
its own differential property suite in
``tests/sim/test_livegraph_differential.py``.
"""

from collections import Counter

from repro.graphs import LiveGraph
from repro.graphs.livegraph import explicit_fingerprint
from repro.graphs.snapshot import EdgeKind
from repro.sim.messages import RefInfo
from repro.sim.states import Mode, PState
from tests.conftest import deliver, drive_timeout, make_fdp_engine


def edge_multiset(snap) -> Counter:
    return Counter((e.src, e.dst, e.kind, e.belief) for e in snap.edges)


def rebuild_phi(engine) -> int:
    snap = engine.rebuild_snapshot()
    return sum(1 for _ in snap.iter_invalid_edges(engine.actual_mode))


def assert_live_matches_rebuild(engine):
    live = engine.live_graph
    rebuilt = engine.rebuild_snapshot()
    assert edge_multiset(live.materialize()) == edge_multiset(rebuilt)
    assert live.phi == rebuild_phi(engine)
    assert live.edge_total == len(rebuilt.edges)


class TestBuild:
    def test_initial_build_matches_rebuild(self):
        eng = make_fdp_engine(
            {
                0: {"neighbors": {1: Mode.STAYING, 2: Mode.LEAVING}},
                1: {"neighbors": {0: Mode.STAYING}},
                2: {"mode": Mode.LEAVING, "neighbors": {0: Mode.STAYING}},
            }
        )
        eng.attach()
        assert_live_matches_rebuild(eng)


class TestChannelDeltas:
    def test_enqueue_adds_implicit_edge(self):
        eng = make_fdp_engine({0: {}, 1: {}, 2: {}})
        eng.attach()
        live = eng.live_graph
        before = live.edge_total
        # a message to 1 carrying 2's reference = implicit edge (1, 2)
        eng.post(None, eng.processes[1].self_ref, "present", (RefInfo(eng.ref(2), Mode.STAYING),))
        assert live.edge_total == before + 1
        store = live.materialize()
        assert (1, 2, EdgeKind.IMPLICIT) in {
            (e.src, e.dst, e.kind) for e in store.edges
        }
        assert_live_matches_rebuild(eng)

    def test_dequeue_removes_implicit_edge(self):
        eng = make_fdp_engine({0: {}, 1: {}, 2: {}})
        eng.attach()
        msg = eng.post(None, eng.processes[1].self_ref, "present", (RefInfo(eng.ref(2), Mode.STAYING),))
        eng.channels[1].remove(msg.seq)
        assert eng.live_graph.edge_total == 0
        assert_live_matches_rebuild(eng)

    def test_pending_total_counts_refless_messages(self):
        eng = make_fdp_engine({0: {}, 1: {}})
        eng.attach()
        eng.post(None, eng.processes[1].self_ref, "ping", ())
        live = eng.live_graph
        assert live.pending_total == 1
        assert live.edge_total == 0


class TestExplicitDiff:
    def test_diff_applies_out_of_band_ref_store(self):
        eng = make_fdp_engine(
            {0: {"neighbors": {1: Mode.STAYING}}, 1: {}, 2: {}}
        )
        eng.attach()
        proc = eng.processes[0]
        live = eng.live_graph
        before = explicit_fingerprint(proc)
        proc.N[eng.ref(2)] = Mode.LEAVING  # store
        del proc.N[eng.ref(1)]  # drop
        live.apply_explicit_diff(0, before, proc)
        assert_live_matches_rebuild(eng)

    def test_noop_action_short_circuits(self):
        eng = make_fdp_engine({0: {"neighbors": {1: Mode.STAYING}}, 1: {}})
        eng.attach()
        proc = eng.processes[0]
        live = eng.live_graph
        before = explicit_fingerprint(proc)
        total = live.edge_total
        live.apply_explicit_diff(0, before, proc)
        assert live.edge_total == total
        assert_live_matches_rebuild(eng)


class TestPhi:
    def test_belief_lie_counts(self):
        # 0 believes 1 is staying; 1 is actually leaving → one invalid edge.
        eng = make_fdp_engine(
            {
                0: {"neighbors": {1: Mode.STAYING}},
                1: {"mode": Mode.LEAVING, "neighbors": {0: Mode.STAYING}},
            }
        )
        eng.attach()
        assert eng.live_graph.phi == 1
        assert eng.potential() == rebuild_phi(eng)

    def test_none_belief_normalizes_to_staying(self):
        eng = make_fdp_engine(
            {0: {}, 1: {"mode": Mode.LEAVING, "neighbors": {0: Mode.STAYING}}}
        )
        eng.attach()
        # an anchorless present carrying a bare ref (belief None) to the
        # leaving process 1's own pid: None ≡ staying-claim about 1 → invalid.
        eng.post(None, eng.processes[0].self_ref, "present", (RefInfo(eng.ref(1), None),))
        assert eng.potential() == rebuild_phi(eng)

    def test_reprice_rederives_buckets(self):
        eng = make_fdp_engine(
            {
                0: {"neighbors": {1: Mode.STAYING}},
                1: {"neighbors": {0: Mode.STAYING}},
            }
        )
        eng.attach()
        live = eng.live_graph
        assert live.phi == 0
        live.reprice(1, Mode.LEAVING)  # now 0's staying-belief about 1 is wrong
        assert live.phi == 1
        live.reprice(1, Mode.STAYING)
        assert live.phi == 0


class TestLifecycle:
    def test_exit_purges_out_edges(self):
        eng = make_fdp_engine(
            {
                0: {
                    "mode": Mode.LEAVING,
                    "neighbors": {},
                    "anchor": None,
                },
                1: {"neighbors": {}},
            },
        )
        eng.attach()
        drive_timeout(eng, 0)  # empty neighbourhood + SINGLE → exit
        assert eng.processes[0].state is PState.GONE
        assert_live_matches_rebuild(eng)
        assert eng.partner_pids(0) == set()

    def test_edges_to_gone_target_still_counted(self):
        eng = make_fdp_engine(
            {
                0: {"mode": Mode.LEAVING},
                1: {},
            },
        )
        eng.attach()
        drive_timeout(eng, 0)
        assert eng.processes[0].state is PState.GONE
        # 1 now stores the gone process's ref out-of-band: the edge exists
        # in PG (Φ counts it; belief staying about a leaving process lies).
        eng.processes[1].N[eng.ref(0)] = Mode.STAYING
        eng._dirty = True
        assert_live_matches_rebuild(eng)
        assert eng.potential() == rebuild_phi(eng) == 1

    def test_mail_to_gone_process_is_inert(self):
        eng = make_fdp_engine({0: {"mode": Mode.LEAVING}, 1: {}})
        eng.attach()
        drive_timeout(eng, 0)
        live = eng.live_graph
        eng.post(None, eng.processes[0].self_ref, "present", (RefInfo(eng.ref(1), None),))
        # pending mail counted, but no PG edge: gone processes left the graph
        assert live.pending_total == 1
        assert_live_matches_rebuild(eng)


class TestSelfLoops:
    def test_self_loop_has_no_connectivity_weight(self):
        eng = make_fdp_engine(
            {0: {"neighbors": {0: Mode.STAYING}}, 1: {}}
        )
        eng.attach()
        live = eng.live_graph
        assert live.edge_total == 1
        assert live.partners(0) == set()
        assert not live.same_component({0, 1})
        assert_live_matches_rebuild(eng)


class TestConnectivity:
    def test_same_component_tracks_added_edges(self):
        eng = make_fdp_engine({0: {}, 1: {}, 2: {}})
        eng.attach()
        live = eng.live_graph
        assert not live.same_component({0, 1, 2})
        eng.post(None, eng.processes[0].self_ref, "present", (RefInfo(eng.ref(1), None),))
        assert live.same_component({0, 1})
        assert not live.same_component({0, 2})

    def test_dead_pair_restored_within_step_avoids_rebuild(self):
        # remove + re-add of the same undirected pair between two queries
        # must leave the union-find trusted (white-box: the deferral set).
        eng = make_fdp_engine(
            {0: {"neighbors": {1: Mode.STAYING}}, 1: {}}
        )
        eng.attach()
        live = eng.live_graph
        assert live.same_component({0, 1})
        proc = eng.processes[0]
        before = explicit_fingerprint(proc)
        del proc.N[eng.ref(1)]
        proc.N[eng.ref(1)] = Mode.STAYING
        live.apply_explicit_diff(0, before, proc)
        assert not live._uf_stale
        assert not live._dead_pairs
        assert live.same_component({0, 1})

    def test_disconnecting_deletion_is_detected(self):
        eng = make_fdp_engine(
            {0: {"neighbors": {1: Mode.STAYING}}, 1: {}, 2: {}}
        )
        eng.attach()
        live = eng.live_graph
        assert live.same_component({0, 1})
        proc = eng.processes[0]
        before = explicit_fingerprint(proc)
        del proc.N[eng.ref(1)]
        live.apply_explicit_diff(0, before, proc)
        assert not live.same_component({0, 1})

    def test_induced_connected_excludes_outside_paths(self):
        # 0-1-2 chain: {0, 2} connected only through 1.
        eng = make_fdp_engine(
            {
                0: {"neighbors": {1: Mode.STAYING}},
                1: {"neighbors": {2: Mode.STAYING}},
                2: {},
            }
        )
        eng.attach()
        live = eng.live_graph
        assert live.induced_connected(frozenset({0, 1, 2}))
        assert not live.induced_connected(frozenset({0, 2}))


class TestPartners:
    def test_partner_index_both_directions(self):
        eng = make_fdp_engine(
            {
                0: {"neighbors": {1: Mode.STAYING}},
                1: {},
                2: {"neighbors": {0: Mode.STAYING}},
            }
        )
        eng.attach()
        assert eng.live_graph.partners(0) == {1, 2}
        assert eng.live_graph.partners(1) == {0}
        assert eng.live_graph.partners(2) == {0}


class TestOutOfBandInvalidation:
    def test_dirty_flag_schedules_live_rebuild(self):
        eng = make_fdp_engine({0: {}, 1: {}})
        eng.attach()
        assert eng.live_graph.edge_total == 0
        # mutate behind the live graph's back, then use the documented hook
        eng.processes[0].N[eng.ref(1)] = Mode.STAYING
        eng._dirty = True
        assert eng.live_graph.edge_total == 1
        assert_live_matches_rebuild(eng)


class TestMaterialize:
    def test_materialize_after_protocol_steps(self):
        eng = make_fdp_engine(
            {
                0: {"mode": Mode.LEAVING, "neighbors": {1: Mode.STAYING}},
                1: {"neighbors": {0: Mode.LEAVING, 2: Mode.STAYING}},
                2: {"neighbors": {1: Mode.STAYING}},
            },
        )
        eng.attach()
        for _ in range(40):
            if eng.step() is None:
                break
        assert_live_matches_rebuild(eng)
