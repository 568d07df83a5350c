"""The five workloads of the layered benchmark.

Every workload is the FDP protocol from a ``HEAVY_CORRUPTION`` start
with ``engine_mode="soa"``: a run the struct-of-arrays core cannot take
falls back to the object loop, and the trace shows the fallback instead
of the configuration hiding it. A workload builds one *episode* (a
scenario ready to run once); the benchmark times the build as set-up
and the run as the result. Why each workload exists is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from benchmarks.layered.spans import Spans, TimedMonitor
from repro.chaos import ChaosCampaign, default_watchdogs
from repro.core.potential import fdp_legitimate
from repro.core.scenarios import HEAVY_CORRUPTION, build_fdp_engine, choose_leaving
from repro.graphs import generators as gen
from repro.net import ReliableTransport, default_net_config
from repro.obs.trace import JsonlTraceSink
from repro.sim.engine import Engine
from repro.sim.monitors import ConnectivityMonitor, PotentialMonitor
from repro.traffic import ArrivalConfig, RequestConfig, TrafficDriver

#: step budget of the runs that stop at legitimacy; never reached.
BUDGET = 50_000_000

#: The open-system mix of ``benchmarks/bench_churn.py``, copied rather
#: than imported so that retuning the legacy guardrail cannot move this
#: benchmark. ``max_population`` is n + n/8 (4608 at n=4096).
ARRIVALS = dict(
    join_rate=160.0,
    session_min=8_192.0,
    flash_crowd_prob=0.02,
    flash_crowd_size=32,
    mass_departure_prob=0.01,
    mass_departure_frac=0.02,
)
REQUEST_RATE = 200.0
LATENCY_SAMPLE_EVERY = 64

#: steps per ``engine.run`` call of the supervised workload: the chunk
#: edges at which replays are compared.
SUPERVISED_CHUNK = 1_000


@dataclass
class Episode:
    """A built scenario. ``run`` is the timed part and returns
    ``(reached, attempted, failed)``: whether the run reached legitimacy
    or its budget, and the operations it tried and failed. While it
    runs, ``stamps`` receives a ``perf_counter`` reading at every chunk
    boundary; a replay of the same seed stamps the same boundaries."""

    engine: Engine
    run: Callable[[], tuple[bool, int, int]]
    stamps: list[float]
    close: Callable[[], None] = lambda: None


@dataclass(frozen=True)
class Workload:
    name: str
    #: scenario seed at ``--seed 0``; the benchmark adds ``--seed``.
    seed: int
    #: the layers this workload stacks on the engine (part of a record id)
    stack: tuple[str, ...]
    #: typical seconds of one full-size replay on a 2-vCPU Xeon VM; a run
    #: of ``--seconds`` S makes round(S / replay_s) replays (at least one),
    #: so the replay count depends on the command line, never on the seed
    #: or host speed
    replay_s: float
    full: dict[str, int]
    quick: dict[str, int]
    build: Callable[[dict[str, int], int, Spans | None, str], Episode]


def _engine(n: int, seed: int, *, leaving: float = 0.3, monitors=(), tracer=None) -> Engine:
    edges = gen.random_connected(n, 32, seed=seed)
    return build_fdp_engine(
        n,
        edges,
        choose_leaving(n, edges, fraction=leaving, seed=seed),
        seed=seed,
        corruption=HEAVY_CORRUPTION,
        monitors=list(monitors),
        tracer=tracer,
        engine_mode="soa",
    )


def _monitor(spans: Spans | None, layer: str, monitor: Callable) -> Callable:
    return monitor if spans is None else TimedMonitor(spans, layer, monitor)


def _to_legitimacy(
    engine: Engine, spans: Spans | None, check_every: int, stamps: list[float]
) -> Callable[[], tuple[bool, int, int]]:
    """Run to legitimacy; the predicate boundaries are the chunk edges."""

    def until(engine: Engine) -> bool:
        stamps.append(perf_counter())
        return fdp_legitimate(engine)

    if spans is not None:
        until = spans.wrap("core.potential.until", until)

    def run() -> tuple[bool, int, int]:
        reached = engine.run(BUDGET, until=until, check_every=check_every)
        return reached, 1, int(not reached)

    return run


def _in_chunks(advance: Callable[[int], Any], steps: int, chunk: int, stamps: list[float]) -> Any:
    """``advance(steps)`` as consecutive ``advance(chunk)`` calls, which
    for the engine and the traffic driver executes the same schedule;
    returns the last call's result."""
    remaining = steps
    while remaining > 0:
        budget = min(chunk, remaining)
        last = advance(budget)
        remaining -= budget
        stamps.append(perf_counter())
    return last


def converge(p: dict[str, int], seed: int, spans: Spans | None, out_dir: str) -> Episode:
    engine = _engine(p["n"], seed)
    engine.attach()
    stamps: list[float] = []
    return Episode(engine, _to_legitimacy(engine, spans, p["check_every"], stamps), stamps)


def churn(p: dict[str, int], seed: int, spans: Spans | None, out_dir: str) -> Episode:
    n = p["n"]
    engine = _engine(n, seed, leaving=0.05)
    driver = TrafficDriver(  # attaches the engine
        engine,
        arrivals=ArrivalConfig(**ARRIVALS, max_population=n + n // 8),
        requests=RequestConfig(
            rate=REQUEST_RATE, latency_sample_every=LATENCY_SAMPLE_EVERY
        ),
        seed=seed,
        chunk=p["chunk"],
    )
    stamps: list[float] = []

    def run() -> tuple[bool, int, int]:
        report = _in_chunks(driver.run, p["steps"], p["chunk"], stamps)
        stats = report["stats"]
        return (
            report["virtual_steps"] == p["steps"],
            stats["requests_issued"],
            stats["requests_failed"] + stats["searchability_violations"],
        )

    return Episode(engine, run, stamps)


def supervised(p: dict[str, int], seed: int, spans: Spans | None, out_dir: str) -> Episode:
    # The campaign goes first: it must see each step before the
    # supervisors it rebases (repro.chaos.campaigns determinism contract).
    monitors = [
        _monitor(spans, "chaos.campaign", ChaosCampaign(seed=seed, period=2_000)),
        *(_monitor(spans, "chaos.watchdogs", w) for w in default_watchdogs()),
        _monitor(spans, "sim.monitors", ConnectivityMonitor(check_every=64)),
        _monitor(spans, "sim.monitors", PotentialMonitor(check_every=64)),
    ]
    engine = _engine(p["n"], seed, monitors=monitors)
    engine.attach()
    stamps: list[float] = []

    def run() -> tuple[bool, int, int]:
        _in_chunks(engine.run, p["steps"], SUPERVISED_CHUNK, stamps)
        reached = engine.step_count == p["steps"]
        return reached, 1, int(not reached)

    return Episode(engine, run, stamps)


def netfault(p: dict[str, int], seed: int, spans: Spans | None, out_dir: str) -> Episode:
    engine = _engine(p["n"], seed)
    config = default_net_config(seed, loss=0.1, dup=0.1, delay=0.1)
    ReliableTransport.from_config(config).install(engine)
    engine.attach()
    stamps: list[float] = []
    return Episode(engine, _to_legitimacy(engine, spans, p["check_every"], stamps), stamps)


def record(p: dict[str, int], seed: int, spans: Spans | None, out_dir: str) -> Episode:
    fd, path = tempfile.mkstemp(prefix="record-", suffix=".jsonl", dir=out_dir)
    os.close(fd)
    sink = JsonlTraceSink(path, meta={"workload": "record", "seed": seed})
    engine = _engine(p["n"], seed, tracer=sink)
    engine.attach()
    stamps: list[float] = []
    run_to = _to_legitimacy(engine, spans, p["check_every"], stamps)

    def run() -> tuple[bool, int, int]:
        outcome = run_to()
        sink.finalize(engine)
        sink.close()  # the trace is on disk before the clock stops
        return outcome

    def close() -> None:
        sink.close()
        os.unlink(path)

    return Episode(engine, run, stamps, close)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "converge",
            seed=0,
            stack=("core", "export", "predicate"),
            replay_s=2.4,
            full={"n": 2048, "check_every": 16_384},
            quick={"n": 256, "check_every": 1_024},
            build=converge,
        ),
        Workload(
            "churn",
            seed=11,
            stack=("core", "export", "traffic"),
            replay_s=2.8,
            full={"n": 4096, "steps": 20_480, "chunk": 2_048},
            quick={"n": 256, "steps": 6_000, "chunk": 512},
            build=churn,
        ),
        Workload(
            "supervised",
            seed=9,
            stack=("objects", "campaign", "watchdogs", "monitors"),
            replay_s=2.8,
            full={"n": 1024, "steps": 50_000},
            quick={"n": 128, "steps": 12_000},
            build=supervised,
        ),
        Workload(
            "netfault",
            seed=3,
            stack=("objects", "transport", "predicate"),
            replay_s=2.5,
            full={"n": 256, "check_every": 256},
            quick={"n": 64, "check_every": 64},
            build=netfault,
        ),
        Workload(
            "record",
            seed=5,
            stack=("objects", "sink", "predicate"),
            replay_s=3.6,
            full={"n": 1024, "check_every": 4_096},
            quick={"n": 128, "check_every": 512},
            build=record,
        ),
    )
}


def sim_digest(engine: Engine) -> str:
    """sha256 over everything the simulation decided: the step count,
    the engine's scalar counters, and the traffic and transport tallies.
    Tracing only observes, so traced and untraced runs agree on it."""
    traffic, net = engine.traffic_stats, engine.net_stats
    payload = {
        "steps": engine.step_count,
        "stats": engine.stats.as_dict(),
        "traffic": None if traffic is None else traffic.as_dict(),
        "net": None if net is None else net.as_dict(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def amplification(engine: Engine) -> float | None:
    """Data frames per paper message, or None without a transport."""
    net = engine.net_stats
    if net is None:
        return None
    return (net.sends + net.retransmits) / max(1, net.sends)


def describe(engine: Engine) -> dict[str, Any]:
    """Whether the engine reports an active core, and why not if none."""
    status = engine.core_status
    return {"core_status_active": status["active"], "core_reason": status["reason"]}
