"""E11 — why the SINGLE oracle: an oracle ablation.

Claims reproduced (the executable form of the impossibility discussion of
§1.3 and the SINGLE design rationale of §1.5):

* exact SINGLE — every run converges and every exit is safe;
* NEVER — safety holds but no process ever leaves (liveness requires the
  oracle to fire);
* ALWAYS — liveness is instant but some exits happen while SINGLE is
  false, i.e. without a safety guarantee (the count of such unguarded
  exits is the damage metric; these are the runs a real deployment could
  lose connectivity in);
* timeout-approximated SINGLE — converges, and its unguarded-exit count
  shrinks as the grace window grows, quantifying the paper's remark that
  SINGLE should be "easily implementable via timeouts in practice";
* timeout-approximated SINGLE **under delay faults** — the same grace
  sweep over an unreliable underlay (`repro.net`, delay-only faults):
  delayed frames stretch the window in which another process's channel
  still holds a reference to the caller, which is precisely the
  timeout oracle's blind spot, so the premature-exit rate at a given
  grace is the safe-grace calibration docs/ROBUSTNESS.md quotes.
"""

from benchmarks.common import BUDGET, emit
from repro.analysis.tables import format_table
from repro.core.oracles import (
    AlwaysOracle,
    AuditedOracle,
    NeverOracle,
    SingleOracle,
    TimeoutSingleOracle,
)
from repro.core.potential import fdp_legitimate, relevant_connected_per_component
from repro.core.scenarios import HEAVY_CORRUPTION, build_fdp_engine, choose_leaving
from repro.graphs import generators as gen


#: grace windows swept under delay faults (queries, not steps).
DELAY_GRACE_GRID = (0, 4, 16, 64)


def run_with_oracle(make_oracle, seeds=range(10), budget=100_000, delay=0.0):
    converged = 0
    unsafe_exits = 0
    exits = 0
    safe_end = 0
    for seed in seeds:
        n = 12
        edges = gen.random_connected(n, 4, seed=seed ^ 0x11E)
        leaving = choose_leaving(n, edges, fraction=0.4, seed=seed)
        # The reference SINGLE sees the pre-exit state: FDP exits in the
        # same action as the true verdict it audits.
        guard = AuditedOracle(make_oracle(), SingleOracle())
        engine = build_fdp_engine(
            n,
            edges,
            leaving,
            seed=seed,
            oracle=guard,
            corruption=HEAVY_CORRUPTION,
        )
        if delay:
            from repro.net import ReliableTransport, default_net_config

            cfg = default_net_config(
                seed, loss=0.0, dup=0.0, delay=delay, partition_at=None
            )
            ReliableTransport.from_config(cfg).install(engine)
        if engine.run(budget, until=fdp_legitimate, check_every=64):
            converged += 1
        unsafe_exits += len(guard.unsafe_exits)
        exits += engine.stats.exits
        if relevant_connected_per_component(engine):
            safe_end += 1
    return converged, exits, unsafe_exits, safe_end, len(list(seeds))


def ablation():
    table = {}
    table["single (exact)"] = run_with_oracle(SingleOracle)
    table["never"] = run_with_oracle(NeverOracle, budget=15_000)
    table["always"] = run_with_oracle(AlwaysOracle)
    for grace in (0, 4, 16):
        table[f"timeout_single(grace={grace})"] = run_with_oracle(
            lambda g=grace: TimeoutSingleOracle(grace=g)
        )
    return table


def delay_sweep(delay=0.3, grid=DELAY_GRACE_GRID):
    """Premature-exit rate vs grace with delay-only underlay faults.

    Loss and duplication stay at zero so every extra unguarded exit is
    attributable to *delay* — frames in flight keep references parked in
    channels the timeout oracle cannot observe from the caller.
    """
    table = {}
    for grace in grid:
        table[grace] = run_with_oracle(
            lambda g=grace: TimeoutSingleOracle(grace=g), delay=delay
        )
    return table


def test_e11_oracle_ablation(benchmark):
    table = benchmark.pedantic(ablation, iterations=1, rounds=1)
    rows = []
    for name, (conv, exits, unsafe, safe_end, total) in table.items():
        rows.append([name, f"{conv}/{total}", exits, unsafe, f"{safe_end}/{total}"])
    emit(
        "e11_oracle_ablation",
        format_table(
            [
                "oracle",
                "converged",
                "exits",
                "exits while SINGLE false",
                "still connected",
            ],
            rows,
            title="E11 — oracle ablation (10 seeds each, heavy corruption, n=12)",
        ),
    )

    conv, _, unsafe, safe_end, total = table["single (exact)"]
    assert conv == total and unsafe == 0 and safe_end == total
    conv, exits, _, safe_end, total = table["never"]
    assert conv == 0 and exits == 0 and safe_end == total  # safe but not live
    _, exits, unsafe, _, _ = table["always"]
    assert exits > 0 and unsafe > 0  # unguarded exits really happen
    # the timeout approximation converges and its blind spot shrinks with
    # a longer grace window
    unsafe_by_grace = [
        table[f"timeout_single(grace={g})"][2] for g in (0, 4, 16)
    ]
    conv_by_grace = [
        table[f"timeout_single(grace={g})"][0] for g in (0, 4, 16)
    ]
    assert all(c == 10 for c in conv_by_grace)
    assert unsafe_by_grace[-1] <= unsafe_by_grace[0]


def test_e11_timeout_grace_under_delay(benchmark):
    """The safe-grace calibration quoted in docs/ROBUSTNESS.md."""
    table = benchmark.pedantic(delay_sweep, iterations=1, rounds=1)
    rows = []
    for grace, (conv, exits, unsafe, safe_end, total) in table.items():
        rate = unsafe / max(1, exits)
        rows.append(
            [
                f"grace={grace}",
                f"{conv}/{total}",
                exits,
                unsafe,
                f"{rate:.3f}",
                f"{safe_end}/{total}",
            ]
        )
    emit(
        "e11_timeout_grace_under_delay",
        format_table(
            [
                "timeout_single",
                "converged",
                "exits",
                "premature exits",
                "premature rate",
                "still connected",
            ],
            rows,
            title=(
                "E11b — timeout grace vs delay faults "
                "(delay=0.3, loss=dup=0, 10 seeds, n=12)"
            ),
        ),
    )
    # every cell still converges: delay faults hurt safety margins, not
    # liveness (the transport guarantees eventual delivery)
    assert all(v[0] == v[4] for v in table.values())
    # the instant oracle really does exit prematurely under delay, and
    # the widest grace window improves on it
    graces = sorted(table)
    assert table[graces[0]][2] > 0
    assert table[graces[-1]][2] <= table[graces[0]][2]
