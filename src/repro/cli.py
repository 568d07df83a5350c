"""Command-line interface: run scenarios without writing Python.

Installed as ``python -m repro``. Subcommands:

* ``fdp`` — run the Section 3 departure protocol on a chosen topology;
* ``fsp`` — the oracle-free sleep variant;
* ``traffic`` — open-system service workload: seeded join/leave churn
  plus streaming search requests over a running FDP/FSP system, with
  the monotonic-searchability gate (docs/TRAFFIC.md);
* ``overlay`` — a stand-alone overlay protocol (topological
  self-stabilization only, no departures);
* ``framework`` — Section 4: overlay + departures (Theorem 4);
* ``baseline`` — the Foreback-style sorted-list departure baseline;
* ``transform`` — plan and verify a Theorem 1 primitive schedule between
  two named topologies;
* ``trace`` — record a run to a JSONL trace file, inspect a trace, or
  replay one bit-identically (docs/OBSERVABILITY.md);
* ``chaos`` — run a scenario under a mid-run fault campaign with
  livelock/no-progress/backlog watchdogs attached (``run``), soak the
  whole scenario × scheduler matrix (``soak``), or delta-debug a failure
  capsule to a minimal reproducer (``shrink``) — docs/ROBUSTNESS.md;
* ``capsule`` — replay a captured failure capsule bit-identically;
* ``metrics`` — the documented probe catalog; with ``--sample``, run a
  scenario and print every probe plus the top Φ contributors;
* ``profile`` — cProfile one standard run and print the hottest
  functions (see docs/PERF.md for the profiling workflow);
* ``topologies`` / ``overlays`` / ``oracles`` — list the registries;
* ``experiments`` — browse the E1–E13 reproduction index.

Every run prints a summary table and exits non-zero if the scenario did
not converge within the step budget — scriptable for CI-style checks.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.analysis.tables import format_kv, format_table
from repro.core.oracles import ORACLES
from repro.core.potential import fdp_legitimate, fsp_legitimate
from repro.core.scenarios import (
    SCHEDULER_FACTORIES,
    Corruption,
    build_fdp_engine,
    build_framework_engine,
    build_from_meta,
    build_fsp_engine,
    choose_leaving,
    corruption_from_factor,
)
from repro.core.universality import plan_transformation
from repro.graphs.generators import GENERATORS
from repro.overlays import LOGICS
from repro.overlays.builders import build_baseline_engine, build_overlay_engine
from repro.sim.monitors import ConnectivityMonitor, PotentialMonitor

__all__ = ["main", "build_parser"]

#: scheduler-name registry, shared with scenario metadata / capsules.
SCHEDULERS = SCHEDULER_FACTORIES


def _add_common(parser: argparse.ArgumentParser, with_leaving: bool = True) -> None:
    parser.add_argument("--n", type=int, default=16, help="number of processes")
    parser.add_argument(
        "--topology",
        choices=sorted(GENERATORS),
        default="random_connected",
        help="initial topology generator",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--scheduler", choices=sorted(SCHEDULERS), default="random"
    )
    parser.add_argument(
        "--max-steps", type=int, default=1_000_000, help="step budget"
    )
    parser.add_argument(
        "--monitor",
        action="store_true",
        help="enable per-step Lemma 2/3 invariant monitors (slower)",
    )
    if with_leaving:
        parser.add_argument(
            "--leaving",
            type=float,
            default=0.25,
            help="fraction of processes that want to leave",
        )
        parser.add_argument(
            "--corruption",
            type=float,
            default=0.0,
            metavar="FACTOR",
            help="initial-state corruption level in [0, 1] "
            "(belief lies, bogus anchors, channel garbage)",
        )


def _topology(args) -> list[tuple[int, int]]:
    gen = GENERATORS[args.topology]
    try:
        return gen(args.n, seed=args.seed)  # type: ignore[call-arg]
    except TypeError:
        return gen(args.n)


def _corruption(factor: float) -> Corruption:
    return corruption_from_factor(factor)


def _monitors(args):
    if not getattr(args, "monitor", False):
        return ()
    return (ConnectivityMonitor(check_every=4), PotentialMonitor(check_every=4))


def _report(engine, converged: bool, extra: dict | None = None) -> int:
    info = {
        "converged": converged,
        "steps": engine.step_count,
        "messages": engine.stats.messages_posted,
        "exits": engine.stats.exits,
        "sleeps": engine.stats.sleeps,
        "final Φ": engine.potential(),
    }
    if extra:
        info.update(extra)
    print(format_kv(info, title="run summary"))
    return 0 if converged else 1


# ------------------------------------------------------------------ commands


def cmd_fdp(args) -> int:
    edges = _topology(args)
    leaving = choose_leaving(args.n, edges, fraction=args.leaving, seed=args.seed)
    oracle_cls = ORACLES[args.oracle]
    engine = build_fdp_engine(
        args.n,
        edges,
        leaving,
        seed=args.seed,
        corruption=_corruption(args.corruption),
        scheduler=SCHEDULERS[args.scheduler](args.seed),
        oracle=oracle_cls(),
        monitors=_monitors(args),
    )
    converged = engine.run(args.max_steps, until=fdp_legitimate, check_every=64)
    return _report(engine, converged, {"leaving": len(leaving)})


def cmd_fsp(args) -> int:
    edges = _topology(args)
    leaving = choose_leaving(args.n, edges, fraction=args.leaving, seed=args.seed)
    engine = build_fsp_engine(
        args.n,
        edges,
        leaving,
        seed=args.seed,
        corruption=_corruption(args.corruption),
        scheduler=SCHEDULERS[args.scheduler](args.seed),
        monitors=_monitors(args),
    )
    converged = engine.run(args.max_steps, until=fsp_legitimate, check_every=64)
    hibernating = len(engine.snapshot().hibernating())
    return _report(engine, converged, {"hibernating": hibernating})


def cmd_traffic(args) -> int:
    """Open-system service run: seeded churn + streaming search requests."""
    from repro.traffic import ArrivalConfig, RequestConfig, TrafficDriver

    edges = _topology(args)
    leaving = choose_leaving(args.n, edges, fraction=args.leaving, seed=args.seed)
    build = build_fsp_engine if args.scenario == "fsp" else build_fdp_engine
    engine = build(
        args.n,
        edges,
        leaving,
        seed=args.seed,
        scheduler=SCHEDULERS[args.scheduler](args.seed),
        monitors=_monitors(args),
        engine_mode=args.engine_mode,
    )
    driver = TrafficDriver(
        engine,
        arrivals=ArrivalConfig(
            join_rate=args.join_rate,
            session_min=args.session_min,
            flash_crowd_prob=args.flash_crowd_prob,
            mass_departure_prob=args.mass_departure_prob,
            max_population=args.max_population,
        ),
        requests=RequestConfig(rate=args.request_rate),
        seed=args.seed,
        chunk=args.chunk,
        trace_path=args.out,
    )
    report = driver.run(args.steps)
    stats = report["stats"]
    info = {
        "virtual steps": report["virtual_steps"],
        "population": stats["population"],
        "joins": stats["joins"],
        "leaves": stats["leaves"],
        "reaps": stats["reaps"],
        "requests": stats["requests_issued"],
        "drop rate": f"{stats['drop_rate']:.4f}",
        "mean latency (hops)": f"{stats['mean_latency']:.2f}",
        "searchability violations": stats["searchability_violations"],
        "bounced refs": engine.stats.bounced,
        "dropped at gone": engine.stats.dropped_gone,
    }
    if args.out:
        info["trace"] = args.out
    print(format_kv(info, title=f"open-system traffic ({args.scenario})"))
    return 0 if stats["searchability_violations"] == 0 else 1


def cmd_overlay(args) -> int:
    edges = _topology(args)
    logic = LOGICS[args.protocol]
    engine = build_overlay_engine(
        args.n,
        edges,
        logic,
        seed=args.seed,
        scheduler=SCHEDULERS[args.scheduler](args.seed),
    )
    converged = engine.run(
        args.max_steps, until=logic.target_reached, check_every=64
    )
    return _report(engine, converged, {"overlay": args.protocol})


def cmd_framework(args) -> int:
    edges = _topology(args)
    logic = LOGICS[args.protocol]
    leaving = choose_leaving(args.n, edges, fraction=args.leaving, seed=args.seed)
    engine = build_framework_engine(
        args.n,
        edges,
        leaving,
        logic,
        seed=args.seed,
        corruption=_corruption(args.corruption),
        scheduler=SCHEDULERS[args.scheduler](args.seed),
        monitors=_monitors(args),
    )

    def done(e):
        return fdp_legitimate(e) and logic.target_reached(e)

    converged = engine.run(args.max_steps, until=done, check_every=128)
    return _report(
        engine, converged, {"overlay": args.protocol, "leaving": len(leaving)}
    )


def cmd_baseline(args) -> int:
    edges = _topology(args)
    leaving = choose_leaving(args.n, edges, fraction=args.leaving, seed=args.seed)
    engine = build_baseline_engine(
        args.n,
        edges,
        leaving,
        seed=args.seed,
        scheduler=SCHEDULERS[args.scheduler](args.seed),
        belief_lie_prob=0.5 * args.corruption,
    )
    converged = engine.run(args.max_steps, until=fdp_legitimate, check_every=64)
    return _report(engine, converged, {"leaving": len(leaving)})


def cmd_transform(args) -> int:
    def make(name):
        gen = GENERATORS[name]
        try:
            return gen(args.n, seed=args.seed)  # type: ignore[call-arg]
        except TypeError:
            return gen(args.n)

    plan = plan_transformation(range(args.n), make(args.source), make(args.target))
    result = plan.replay(check_connectivity=True)
    ok = result.simple_edges() == plan.target
    print(
        format_kv(
            {
                "source": args.source,
                "target": args.target,
                "n": args.n,
                "schedule length": len(plan),
                "clique rounds": plan.clique_rounds,
                **plan.counts(),
                "verified": ok,
            },
            title="Theorem 1 transformation plan",
        )
    )
    return 0 if ok else 1


def _engine_from_trace_meta(meta: dict, tracer=None):
    """Rebuild a recorded scenario's initial state from its trace header.

    Thin alias for :func:`repro.core.scenarios.build_from_meta` — trace
    headers and failure capsules share the same metadata vocabulary, so
    both replay paths go through one reconstruction function.
    """

    return build_from_meta(meta, tracer=tracer)


def cmd_trace_record(args) -> int:
    from repro.obs.trace import JsonlTraceSink

    meta = {
        "scenario": args.scenario,
        "n": args.n,
        "topology": args.topology,
        "seed": args.seed,
        "scheduler": args.scheduler,
        "leaving": args.leaving,
        "corruption": args.corruption,
        "oracle": args.oracle,
    }
    legitimate = fsp_legitimate if args.scenario == "fsp" else fdp_legitimate
    with JsonlTraceSink(
        args.out, meta=meta, metrics_every=args.metrics_every
    ) as sink:
        engine = _engine_from_trace_meta(meta, tracer=sink)
        converged = engine.run(args.max_steps, until=legitimate, check_every=64)
        sink.finalize(engine)
    return _report(
        engine,
        converged,
        {"trace": args.out, "steps recorded": sink.steps_recorded},
    )


def cmd_trace_inspect(args) -> int:
    from repro.analysis.tables import sparkline
    from repro.obs.trace import read_trace

    data = read_trace(args.file)
    timeouts = sum(1 for e in data.events if e.kind == "timeout")
    labels: dict[str, int] = {}
    for rec in data.steps:
        label = rec.get("l")
        if label is not None:
            labels[label] = labels.get(label, 0) + 1
    info = {
        "file": args.file,
        "version": data.version,
        **{f"meta.{k}": v for k, v in sorted(data.meta.items())},
        "steps": len(data.events),
        "timeouts": timeouts,
        "deliveries": len(data.events) - timeouts,
    }
    if data.final is not None:
        info.update({f"final.{k}": v for k, v in sorted(data.final.items()) if k != "t"})
    print(format_kv(info, title="trace summary"))
    if labels:
        rows = sorted(labels.items(), key=lambda kv: (-kv[1], kv[0]))
        print()
        print(format_table(["label", "deliveries"], rows[:10]))
    phis = [rec["phi"] for rec in data.metrics if "phi" in rec]
    if phis:
        print(f"\nΦ over run:  {sparkline(phis)}  ({phis[0]} → {phis[-1]})")
    return 0


def cmd_trace_replay(args) -> int:
    from repro.obs.trace import read_trace, replay_trace

    data = read_trace(args.file)
    if not data.meta:
        print(
            f"error: {args.file} carries no scenario metadata; replay it "
            "programmatically with repro.obs.replay_trace and your own builder",
            file=sys.stderr,
        )
        return 2

    def build():
        return _engine_from_trace_meta(data.meta)

    engine = replay_trace(build, args.file, verify=not args.no_verify)
    info = {
        "file": args.file,
        "replayed steps": engine.step_count,
        "verified against final record": not args.no_verify
        and data.final is not None,
        "final Φ": engine.potential(),
        "gone": engine.gone_count,
    }
    print(format_kv(info, title="bit-identical replay"))
    return 0


def _chaos_meta(args) -> dict:
    meta = {
        "scenario": args.scenario,
        "n": args.n,
        "topology": args.topology,
        "seed": args.seed,
        "scheduler": args.scheduler,
        "leaving": args.leaving,
        "corruption": args.corruption,
    }
    if args.scenario == "framework":
        meta["protocol"] = args.protocol
    return meta


def _chaos_until(meta: dict):
    """The scenario's own notion of done (None ⇒ watchdogs decide)."""
    if meta.get("scenario") == "fsp":
        return fsp_legitimate
    if meta.get("scenario") == "framework":
        logic = LOGICS[meta["protocol"]]

        def done(e):
            return fdp_legitimate(e) and logic.target_reached(e)

        return done
    return fdp_legitimate


def cmd_chaos_run(args) -> int:
    from repro.chaos import ChaosCampaign, default_watchdogs, run_chaos

    meta = _chaos_meta(args)
    campaign = None
    if args.injections:
        campaign = ChaosCampaign(
            seed=args.seed,
            period=args.inject_every,
            max_injections=None if args.injections < 0 else args.injections,
        )
    monitors = _monitors(args)
    if meta["scenario"] == "framework":
        # Lemma 3 (Φ never rises) is an FDP/FSP statement; the Section 4
        # verify machinery legitimately copies unvalidated beliefs, so a
        # PotentialMonitor would report phantom violations here.
        monitors = tuple(
            m for m in monitors if not isinstance(m, PotentialMonitor)
        )
    result = run_chaos(
        meta,
        campaign=campaign,
        watchdogs=default_watchdogs(),
        monitors=monitors,
        max_steps=args.max_steps,
        until=_chaos_until(meta),
        capsule_dir=args.capsule_dir,
    )
    engine = result.engine
    info = {
        "outcome": result.outcome,
        "steps": engine.step_count,
        "injections": len(campaign.injections) if campaign is not None else 0,
        "final Φ": engine.potential(),
        "pending": engine.pending_count,
        "gone": engine.gone_count,
    }
    if result.error:
        info["error"] = result.error
    if result.capsule_path:
        info["capsule"] = result.capsule_path
    print(format_kv(info, title="chaos run"))
    if result.outcome == "converged":
        return 0
    return 1 if result.outcome == "budget" else 2


def _core_cell(engine) -> str:
    """``core`` when a soa run drove core batches, else why it did not
    (the ``core_status`` reason, or the engine mode)."""
    status = engine.core_status
    if status["engine_mode"] == "soa" and status["active"] and status["reason"] is None:
        return "core"
    return status["reason"] or status["engine_mode"]


def cmd_chaos_soak(args) -> int:
    """Seeded campaign battery: every scenario under every scheduler.

    A cell fails on a safety violation, a watchdog trip or an engine
    error — i.e. on evidence of a protocol bug or a watchdog false
    positive. Running out of the per-cell step budget is recorded but
    not fatal (chaos slows convergence; soak is a bug hunt, not a
    performance gate).
    """
    from repro.chaos import (
        ALL_CAMPAIGN_KINDS,
        CAMPAIGN_KINDS,
        ChaosCampaign,
        RetransmitStormWatchdog,
        default_watchdogs,
        run_chaos,
    )

    schedulers = ("random",) if args.quick else tuple(sorted(SCHEDULERS))
    traffic = getattr(args, "traffic", False)
    net = getattr(args, "net", False)
    if net or traffic:
        # The open-system workload drives churn through the class-𝒫
        # admission surface; the capsule journal replays FDP/FSP admits,
        # so the traffic battery covers exactly those two scenarios. The
        # net battery matches: the end-to-end claim under an unreliable
        # underlay is about the paper's FDP/FSP guarantees.
        scenarios: list[dict] = [{"scenario": "fdp"}, {"scenario": "fsp"}]
    else:
        scenarios = [
            {"scenario": "fdp"},
            {"scenario": "fsp"},
        ] + [
            {"scenario": "framework", "protocol": name}
            for name in sorted(LOGICS)
        ]

    def traffic_workload(engine):
        from repro.traffic import ArrivalConfig, RequestConfig, TrafficDriver

        driver = TrafficDriver(
            engine,
            arrivals=ArrivalConfig(join_rate=8.0, session_min=256.0),
            requests=RequestConfig(rate=20.0),
            seed=args.seed,
            chunk=128,
        )
        driver.run(args.max_steps)
        # Convergence in the open-system regime is a safety verdict, not
        # a quiescence one: the run must stay monotonically searchable.
        return driver.stats.searchability_violations == 0

    if net:
        from repro.net import default_net_config

        # Loss/delay grid for the unreliable-underlay battery; the
        # default point is the documented fault campaign (10% loss +
        # dup + delay plus one transient partition).
        grid: list[tuple[float, float] | None] = (
            [(0.1, 0.1)] if args.quick else [(0.05, 0.05), (0.1, 0.1), (0.3, 0.2)]
        )
    else:
        grid = [None]

    rows = []
    failures = 0
    for scheduler in schedulers:
        for base in scenarios:
            for cell in grid:
                meta = {
                    **base,
                    "n": args.n,
                    "topology": "random_connected",
                    "seed": args.seed,
                    "scheduler": scheduler,
                    "leaving": 0.25,
                    "corruption": 0.5,
                }
                watchdogs = default_watchdogs()
                kinds = CAMPAIGN_KINDS
                if cell is not None:
                    loss, delay_prob = cell
                    meta["net"] = default_net_config(
                        args.seed, loss=loss, delay=delay_prob
                    )
                    watchdogs += (RetransmitStormWatchdog(),)
                    kinds = ALL_CAMPAIGN_KINDS
                campaign = ChaosCampaign(
                    seed=args.seed,
                    period=args.inject_every,
                    max_injections=3,
                    kinds=kinds,
                )
                # Lemma 2 is checked everywhere; Lemma 3's Φ-monotonicity
                # is a *closed-system* FDP/FSP statement (the Section 4
                # framework's verify machinery legitimately copies
                # unvalidated beliefs around, and an open-system admission
                # plants new beliefs out of band exactly like an
                # injection). The transport does not perturb it: faults
                # delay deliverability, never channel contents.
                cell_monitors: tuple = (ConnectivityMonitor(check_every=16),)
                if base["scenario"] in ("fdp", "fsp") and not traffic:
                    cell_monitors += (PotentialMonitor(check_every=16),)
                result = run_chaos(
                    meta,
                    campaign=campaign,
                    watchdogs=watchdogs,
                    monitors=cell_monitors,
                    max_steps=args.max_steps,
                    until=_chaos_until(meta),
                    capture_on_budget=False,
                    workload=traffic_workload if traffic else None,
                )
                outcome = result.outcome
                if traffic and outcome == "budget":
                    # Under a workload the verdict is the searchability
                    # gate, not the step budget — a False return means
                    # violations.
                    outcome = "searchability"
                if outcome not in ("converged", "budget"):
                    failures += 1
                rows.append(
                    [
                        base.get("protocol", base["scenario"]),
                        base["scenario"],
                        scheduler,
                        "-" if cell is None else f"{cell[0]}/{cell[1]}",
                        outcome,
                        result.engine.step_count,
                        len(campaign.injections),
                        _core_cell(result.engine),
                    ]
                )
    print(
        format_table(
            [
                "protocol",
                "scenario",
                "scheduler",
                "loss/delay",
                "outcome",
                "steps",
                "injections",
                "core",
            ],
            rows,
            title=f"chaos soak (n={args.n}, seed={args.seed}, "
            f"{len(rows)} cells, {failures} failures)",
        )
    )
    return 1 if failures else 0


def cmd_chaos_shrink(args) -> int:
    from repro.chaos import Capsule, shrink_capsule

    capsule = Capsule.load(args.file)
    result = shrink_capsule(
        capsule,
        parallel=args.parallel,
        seeds_per_candidate=args.seeds,
        capsule_dir=args.out_dir,
    )
    info = {
        "kind": capsule.kind,
        "processes": f"{result.original_n} -> {result.final_n}",
        "campaign": "kept" if result.campaign is not None else "dropped",
        "max_steps": result.max_steps,
        "steps to failure": result.steps_to_failure,
        "reproducing seed": result.seed,
        "probes": result.probes,
    }
    for event in result.history:
        info[f"shrink[{event['axis']}]"] = f"{event['from']} -> {event['to']}"
    print(format_kv(info, title="capsule shrink"))
    return 0


def cmd_capsule_replay(args) -> int:
    from repro.chaos import Capsule, replay_capsule

    capsule = Capsule.load(args.file)
    engine = replay_capsule(capsule, verify=not args.no_verify)
    info = {
        "file": args.file,
        "kind": capsule.kind,
        "replayed steps": engine.step_count,
        "verified against final record": not args.no_verify,
        "final Φ": engine.potential(),
        "pending": engine.pending_count,
        "gone": engine.gone_count,
    }
    if capsule.diagnosis:
        info["diagnosis"] = capsule.diagnosis.get("detail", capsule.diagnosis)
    print(format_kv(info, title="bit-identical capsule replay"))
    return 0


def cmd_metrics(args) -> int:
    from repro.obs.metrics import REGISTRY, sample_all, top_phi

    rows = [[p.name, p.cost, p.description] for p in REGISTRY.values()]
    print(format_table(["probe", "cost", "reads"], rows, title="probe catalog"))
    if not args.sample:
        return 0
    meta = {
        "scenario": "fdp",
        "n": args.n,
        "topology": args.topology,
        "seed": args.seed,
        "scheduler": args.scheduler,
        "leaving": args.leaving,
        "corruption": args.corruption,
        "oracle": args.oracle,
    }
    engine = _engine_from_trace_meta(meta)
    engine.run(args.max_steps, until=fdp_legitimate, check_every=64)
    print()
    print(
        format_kv(
            {k: v for k, v in sample_all(engine).items()},
            title=f"probe sample after {engine.step_count} steps "
            f"(n={args.n}, corruption={args.corruption})",
        )
    )
    for by in ("subject", "holder"):
        contributors = top_phi(engine, by=by, limit=5)
        if contributors:
            print()
            print(
                format_table(
                    ["pid", "Φ contribution"],
                    contributors,
                    title=f"top Φ by {by}",
                )
            )
    return 0


def cmd_profile(args) -> int:
    from repro.analysis.profiling import profile_scenario

    r = profile_scenario(
        args.scenario,
        args.n,
        steps=args.steps,
        seed=args.seed,
        monitored=args.monitored,
        top=args.top,
        sort=args.sort,
    )
    print(
        format_kv(
            {
                "scenario": r["scenario"],
                "n": r["n"],
                "monitored": r["monitored"],
                "steps executed": r["steps"],
                "wall s (under profiler)": r["wall_s"],
                "steps/s (under profiler)": r["steps_per_s"],
                "converged": r["converged"],
            },
            title="cProfile of one standard run — rates include profiler "
            "overhead; use benchmarks/bench_step_loop.py for honest numbers",
        )
    )
    print()
    print(r["report"])
    return 0


def cmd_topologies(args) -> int:
    print(format_table(["name"], [[n] for n in sorted(GENERATORS)]))
    return 0


def cmd_overlays(args) -> int:
    rows = [
        [name, "yes" if cls.requires_order else "no"]
        for name, cls in sorted(LOGICS.items())
    ]
    print(format_table(["overlay", "needs total order"], rows))
    return 0


def cmd_oracles(args) -> int:
    print(format_table(["oracle"], [[n] for n in sorted(ORACLES)]))
    return 0


def cmd_lint(args) -> int:
    from repro.lint.runner import list_rules, run_lint

    if args.list_rules:
        return list_rules()
    return run_lint(
        args.paths,
        select=tuple(args.select.split(",")) if args.select else (),
        ignore=tuple(args.ignore.split(",")) if args.ignore else (),
        output_format=args.format,
        cache_path=args.cache,
        show_stats=args.stats,
    )


#: The experiment index (DESIGN.md) in CLI-browsable form.
EXPERIMENTS = [
    ("E1", "Figure 1", "state-graph transitions", "bench_e1_state_graph.py"),
    ("E2", "Figure 2 + Lemma 1", "the four primitives", "bench_e2_primitives.py"),
    ("E3", "Theorem 1", "universality + O(log n) clique rounds", "bench_e3_universality.py"),
    ("E4", "Theorem 2", "necessity of each primitive", "bench_e4_necessity.py"),
    ("E5", "Lemma 2", "safety under corruption/adversary", "bench_e5_safety.py"),
    ("E6", "Lemma 3", "Φ decay + convergence scaling", "bench_e6_convergence.py"),
    ("E7", "Theorem 3", "FDP end-to-end battery + closure", "bench_e7_fdp_end_to_end.py"),
    ("E8", "Theorem 4", "framework(P) per overlay + retry ablation", "bench_e8_embedding.py"),
    ("E9", "FSP", "oracle-free departure + hibernation closure", "bench_e9_fsp.py"),
    ("E10", "§1.5 vs [15]", "baseline comparison + generality", "bench_e10_baseline.py"),
    ("E11", "§1.3", "oracle ablation (SINGLE/timeout/ALWAYS/NEVER)", "bench_e11_oracle_ablation.py"),
    ("E12", "Conclusion", "safety beyond connectivity (stretch, degree)", "bench_e12_beyond_connectivity.py"),
    ("E13", "§1.1 fairness", "cost/load under every fair scheduler family", "bench_e13_scheduler_load.py"),
]


def cmd_experiments(args) -> int:
    print(
        format_table(
            ["id", "paper artifact", "what it reproduces", "bench (run with pytest)"],
            EXPERIMENTS,
            title="experiment index — pytest benchmarks/<file> --benchmark-only",
        )
    )
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Self-stabilizing finite departure for overlay networks "
        "(Koutsopoulos, Scheideler & Strothmann, SPAA 2015).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fdp", help="run the Section 3 FDP protocol")
    _add_common(p)
    p.add_argument("--oracle", choices=sorted(ORACLES), default="single")
    p.set_defaults(func=cmd_fdp)

    p = sub.add_parser("fsp", help="run the oracle-free FSP variant")
    _add_common(p)
    p.set_defaults(func=cmd_fsp)

    p = sub.add_parser(
        "traffic",
        help="open-system service workload: churn + request traffic "
        "(docs/TRAFFIC.md)",
    )
    p.add_argument("--n", type=int, default=64, help="initial population")
    p.add_argument(
        "--topology",
        choices=sorted(GENERATORS),
        default="random_connected",
        help="initial topology generator",
    )
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument(
        "--scheduler", choices=sorted(SCHEDULERS), default="random"
    )
    p.add_argument(
        "--scenario", choices=("fdp", "fsp"), default="fdp",
        help="departure protocol run underneath the workload",
    )
    p.add_argument(
        "--leaving", type=float, default=0.1,
        help="fraction of the initial population that wants to leave",
    )
    p.add_argument(
        "--engine-mode",
        choices=("objects", "soa", "verify"),
        default=None,
        help="execution core (default: REPRO_ENGINE_MODE or objects)",
    )
    p.add_argument(
        "--steps", type=int, default=20_000,
        help="virtual steps of open-system operation",
    )
    p.add_argument(
        "--chunk", type=int, default=256,
        help="engine steps between churn/request boundaries",
    )
    p.add_argument(
        "--join-rate", type=float, default=2.0,
        help="mean arrivals per 1000 virtual steps",
    )
    p.add_argument(
        "--request-rate", type=float, default=50.0,
        help="mean search requests per 1000 virtual steps",
    )
    p.add_argument(
        "--session-min", type=float, default=512.0,
        help="Pareto session-length floor (virtual steps)",
    )
    p.add_argument(
        "--flash-crowd-prob", type=float, default=0.0,
        help="per-boundary probability of a correlated join burst",
    )
    p.add_argument(
        "--mass-departure-prob", type=float, default=0.0,
        help="per-boundary probability of a correlated leave burst",
    )
    p.add_argument(
        "--max-population", type=int, default=None,
        help="defer joins beyond this population cap",
    )
    p.add_argument("--monitor", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--out", default=None, help="traffic trace JSONL path")
    p.set_defaults(func=cmd_traffic)

    p = sub.add_parser("overlay", help="run a stand-alone overlay protocol")
    _add_common(p, with_leaving=False)
    p.add_argument("--protocol", choices=sorted(LOGICS), default="linearization")
    p.set_defaults(func=cmd_overlay)

    p = sub.add_parser(
        "framework", help="run overlay + departures (Section 4 / Theorem 4)"
    )
    _add_common(p)
    p.add_argument("--protocol", choices=sorted(LOGICS), default="linearization")
    p.set_defaults(func=cmd_framework)

    p = sub.add_parser(
        "baseline", help="run the Foreback-style sorted-list baseline"
    )
    _add_common(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser(
        "transform", help="plan a Theorem 1 schedule between topologies"
    )
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--source", choices=sorted(GENERATORS), required=True)
    p.add_argument("--target", choices=sorted(GENERATORS), required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser(
        "trace", help="record/inspect/replay JSONL execution traces"
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)

    t = tsub.add_parser("record", help="run a scenario, stream a trace file")
    _add_common(t)
    t.add_argument("--scenario", choices=("fdp", "fsp"), default="fdp")
    t.add_argument("--oracle", choices=sorted(ORACLES), default="single")
    t.add_argument("--out", required=True, help="trace file to write (JSONL)")
    t.add_argument(
        "--metrics-every",
        type=int,
        default=0,
        metavar="K",
        help="also record Φ/gone/edges/pending every K steps (0 = off)",
    )
    t.set_defaults(func=cmd_trace_record)

    t = tsub.add_parser("inspect", help="summarize a trace file")
    t.add_argument("file", help="trace file (JSONL)")
    t.set_defaults(func=cmd_trace_inspect)

    t = tsub.add_parser(
        "replay", help="re-execute a trace bit-identically and verify it"
    )
    t.add_argument("file", help="trace file (JSONL)")
    t.add_argument(
        "--no-verify",
        action="store_true",
        help="skip checking the replay against the trace's final record",
    )
    t.set_defaults(func=cmd_trace_replay)

    p = sub.add_parser(
        "chaos",
        help="mid-run fault campaigns, stall watchdogs, capsule shrinking",
    )
    csub = p.add_subparsers(dest="chaos_command", required=True)

    c = csub.add_parser(
        "run", help="run one scenario under a campaign with watchdogs"
    )
    _add_common(c)
    c.add_argument(
        "--scenario", choices=("fdp", "fsp", "framework"), default="fdp"
    )
    c.add_argument(
        "--protocol",
        choices=sorted(LOGICS),
        default="linearization",
        help="overlay logic (framework scenario only)",
    )
    c.add_argument(
        "--inject-every",
        type=int,
        default=1_000,
        metavar="STEPS",
        help="mean steps between injections (seeded jitter applies)",
    )
    c.add_argument(
        "--injections",
        type=int,
        default=5,
        metavar="MAX",
        help="injection cap (0 = no campaign, -1 = unbounded)",
    )
    c.add_argument(
        "--capsule-dir",
        default="capsules",
        help="directory for failure capsules (written only on failure)",
    )
    c.set_defaults(func=cmd_chaos_run)

    c = csub.add_parser(
        "soak", help="campaign battery over every scenario × scheduler"
    )
    c.add_argument("--n", type=int, default=12, help="processes per cell")
    c.add_argument("--seed", type=int, default=0, help="master seed")
    c.add_argument(
        "--max-steps", type=int, default=60_000, help="step budget per cell"
    )
    c.add_argument(
        "--inject-every", type=int, default=400, metavar="STEPS",
        help="mean steps between injections",
    )
    c.add_argument(
        "--quick",
        action="store_true",
        help="random scheduler only (CI smoke)",
    )
    c.add_argument(
        "--traffic",
        action="store_true",
        help="drive each cell through the open-system churn + request "
        "workload instead of a closed run (fdp/fsp scenarios)",
    )
    c.add_argument(
        "--net",
        action="store_true",
        help="run each fdp/fsp cell over an unreliable underlay "
        "(loss/delay grid, net campaign kinds, retransmit-storm "
        "watchdog); composes with --traffic",
    )
    c.set_defaults(func=cmd_chaos_soak)

    c = csub.add_parser(
        "shrink", help="delta-debug a failure capsule to a minimal reproducer"
    )
    c.add_argument("file", help="failure capsule (JSON)")
    c.add_argument(
        "--parallel",
        action="store_true",
        help="probe candidates on a worker fabric",
    )
    c.add_argument(
        "--seeds", type=int, default=3, help="probe seeds per candidate"
    )
    c.add_argument(
        "--out-dir",
        default="capsules",
        help="directory for the minimized capsule",
    )
    c.set_defaults(func=cmd_chaos_shrink)

    p = sub.add_parser(
        "capsule", help="replay captured failure capsules bit-identically"
    )
    psub = p.add_subparsers(dest="capsule_command", required=True)
    c = psub.add_parser(
        "replay", help="re-execute a capsule and verify its final state"
    )
    c.add_argument("file", help="failure capsule (JSON)")
    c.add_argument(
        "--no-verify",
        action="store_true",
        help="skip checking the replay against the captured final counters",
    )
    c.set_defaults(func=cmd_capsule_replay)

    p = sub.add_parser(
        "metrics", help="probe catalog; --sample runs a scenario through it"
    )
    _add_common(p)
    p.add_argument("--oracle", choices=sorted(ORACLES), default="single")
    p.add_argument(
        "--sample",
        action="store_true",
        help="run an FDP scenario and print every probe + top Φ holders",
    )
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "profile",
        help="cProfile one standard run and print the hottest functions",
    )
    p.add_argument("--scenario", choices=("fdp", "fsp"), default="fdp")
    p.add_argument("--n", type=int, default=128, help="number of processes")
    p.add_argument("--steps", type=int, default=5_000, help="step budget")
    p.add_argument("--seed", type=int, default=7, help="master seed")
    p.add_argument(
        "--monitored",
        action="store_true",
        help="attach per-step connectivity+potential monitors",
    )
    p.add_argument("--top", type=int, default=20, help="report lines")
    p.add_argument(
        "--sort",
        default="cumulative",
        choices=("cumulative", "tottime", "calls"),
        help="pstats sort key",
    )
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "lint",
        help="static model-conformance analysis (docs/LINT.md)",
    )
    p.add_argument("paths", nargs="*", default=["src"], help="files or directories")
    p.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="github = GitHub Actions ::error annotations",
    )
    p.add_argument("--select", default="", help="comma-separated rule prefixes")
    p.add_argument("--ignore", default="", help="comma-separated rule prefixes")
    p.add_argument("--list-rules", action="store_true", help="print the catalogue")
    p.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="per-file result cache (content-hash keyed, rule-salted)",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print file count, elapsed time and cache hit rate",
    )
    p.set_defaults(func=cmd_lint)

    sub.add_parser("topologies", help="list topology generators").set_defaults(
        func=cmd_topologies
    )
    sub.add_parser("overlays", help="list overlay protocols").set_defaults(
        func=cmd_overlays
    )
    sub.add_parser("oracles", help="list oracles").set_defaults(func=cmd_oracles)
    sub.add_parser(
        "experiments", help="list the paper-reproduction experiments (E1–E13)"
    ).set_defaults(func=cmd_experiments)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
