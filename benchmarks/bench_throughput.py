"""Engine throughput benchmarks (library performance, not an experiment).

Performance guardrails for the simulator itself — the quantities a
downstream user sizing an experiment cares about:

* raw step throughput of a converging FDP run (n = 64);
* snapshot construction cost on a dense state (the dominant analysis
  primitive);
* the SINGLE-oracle fast path vs the definitional snapshot computation
  (the profiling-driven optimization this suite keeps honest).

Monitored throughput (per-step invariant monitors on the live graph) is
measured by the layered benchmark's ``supervised`` workload
(``benchmarks/layered/``).
"""

from benchmarks.common import BUDGET
from repro.core.potential import fdp_legitimate
from repro.core.scenarios import HEAVY_CORRUPTION, build_fdp_engine, choose_leaving
from repro.graphs import generators as gen


def converge_n64():
    n = 64
    edges = gen.random_connected(n, 32, seed=9)
    leaving = choose_leaving(n, edges, fraction=0.3, seed=9)
    engine = build_fdp_engine(
        n, edges, leaving, seed=9, corruption=HEAVY_CORRUPTION
    )
    assert engine.run(BUDGET, until=fdp_legitimate, check_every=64)
    return engine.step_count


def test_throughput_fdp_n64(benchmark):
    steps = benchmark(converge_n64)
    assert steps > 1000  # a real run, not a no-op


def _dense_engine():
    n = 48
    engine = build_fdp_engine(
        n, gen.clique(n), leaving=set(), seed=1
    )
    engine.attach()
    return engine


def test_snapshot_cost_dense(benchmark):
    engine = _dense_engine()

    def build_snapshot():
        engine._dirty = True  # force a rebuild
        return engine.snapshot()

    snap = benchmark(build_snapshot)
    assert len(snap.edges) == 48 * 47


def test_partner_fast_path(benchmark):
    engine = _dense_engine()

    def all_partners():
        return sum(len(engine.partner_pids(pid)) for pid in range(48))

    total = benchmark(all_partners)
    assert total == 48 * 47  # clique: everyone partners everyone


def test_partner_definitional_path(benchmark):
    """The snapshot-based computation the fast path replaced — kept as a
    benchmark so the speedup (and any future regression) stays visible."""
    engine = _dense_engine()

    def all_partners():
        total = 0
        for pid in range(48):
            engine._dirty = True
            snap = engine.snapshot()
            total += len(snap.partners(pid, within=snap.relevant() - {pid}))
        return total

    total = benchmark(all_partners)
    assert total == 48 * 47
