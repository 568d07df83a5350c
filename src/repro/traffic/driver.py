"""The open-system traffic driver: churn + request streams over an Engine.

:class:`TrafficDriver` turns a closed-system :class:`~repro.sim.engine.
Engine` into a *service*: processes join on Poisson arrivals, serve
heavy-tailed sessions, then request departure; user search requests
stream through the overlay concurrently; every boundary reaps departed
processes whose slots became unreferenced. All stochastic choices come
from independent seeded streams, so the generated churn/request schedule
is a pure function of ``seed`` — runs replay bit-identically in every
engine mode, which is what lets ``engine_mode="verify"`` cross-check an
open-system run end to end.

Structure of a run: the engine executes protocol steps in *chunks*; at
every chunk boundary the driver performs churn operations (admissions,
departure intents, reaps) and issues requests. Churn is thus always
between computations — exactly the paper's open-system regime, where
each join/leave starts a new computation from an admissibly extended
initial state. Boundaries advance **virtual time** by the chunk size
even when the engine went quiescent early; session clocks tick on
virtual time, so a converged overlay still experiences churn (this is
what the closed-system driver got wrong: nothing could ever happen
after quiescence).

One liveness guard: the paper requires at least one staying process per
initial component (Sections 3-4), and the chaos campaigns assert the
same invariant. The driver therefore never flips the *last* staying
member of an initial component to leaving; processes admitted mid-run
are always free to leave.

Requests are observation-only reads through the engine's query facade
(``Engine.same_component`` and ``Engine.hops``; never engine
mutations), so traffic leaves schedule replay untouched. On the
struct-of-arrays core the core answers them in the int domain; on the
object loop the live graph does. The churn operations read lifecycle
states, references and the population through the same facade
(``ref``, ``alive_count``, and one ``reap_gone`` sweep per boundary), so
a boundary never forces the core's deferred object export. The driver
writes its own boundary-level JSONL trace — hooking a per-step tracer
would disqualify the run from the struct-of-arrays fast path.
"""

from __future__ import annotations

import json
from heapq import heappop, heappush
from random import Random
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError, StateViolation
from repro.sim.refs import Ref
from repro.sim.states import Mode, PState
from repro.traffic.arrivals import ArrivalConfig, sample_poisson, sample_session
from repro.traffic.requests import RequestConfig, SearchabilityTracker, TrafficStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine
    from repro.sim.process import Process

__all__ = ["TrafficDriver", "default_joiner"]

TRAFFIC_TRACE_VERSION = 1

#: builds a newcomer: (pid, contact ref) -> process ready for admit().
Joiner = Callable[[int, Ref], "Process"]


def default_joiner(template: "Process") -> Joiner:
    """Derive a joiner from an existing member of the population.

    Newcomers attach *by edge*: one stored reference to a contact already
    in the system (the admissible one-node extension ``Engine.admit``
    enforces). The subclass checks precede the exact-type ones because
    :class:`FrameworkProcess` extends :class:`FDPProcess`.
    """

    from repro.core.fdp import FDPProcess
    from repro.core.framework import FrameworkProcess
    from repro.core.fsp import FSPProcess
    from repro.overlays.base import OverlayProcess

    if isinstance(template, FrameworkProcess):
        logic_cls = type(template.logic)
        return lambda pid, contact: FrameworkProcess.join(pid, logic_cls, contact)
    if isinstance(template, OverlayProcess):
        cls, logic_cls = type(template), type(template.logic)
        return lambda pid, contact: cls.join(pid, logic_cls, contact)
    if type(template) is FSPProcess:
        return lambda pid, contact: FSPProcess(
            pid, Mode.STAYING, neighbors=[contact]
        )
    if type(template) is FDPProcess:
        return lambda pid, contact: FDPProcess(
            pid, Mode.STAYING, neighbors=[contact]
        )
    raise ConfigurationError(
        f"no default joiner for {type(template).__name__}; pass joiner="
    )


class TrafficDriver:
    """Drives one engine through an open-system churn + request workload."""

    def __init__(
        self,
        engine: "Engine",
        *,
        arrivals: ArrivalConfig | None = None,
        requests: RequestConfig | None = None,
        seed: int = 0,
        chunk: int = 256,
        joiner: Joiner | None = None,
        trace_path: str | None = None,
    ) -> None:
        if chunk < 1:
            raise ConfigurationError("chunk must be >= 1")
        self.engine = engine
        self.arrivals = arrivals if arrivals is not None else ArrivalConfig()
        self.requests = requests if requests is not None else RequestConfig()
        self.arrivals.validate()
        self.requests.validate()
        self.seed = seed
        self.chunk = chunk
        self.trace_path = trace_path
        # Independent streams: retuning one knob never perturbs the others.
        self._join_rng = Random(f"{seed}:join")
        self._session_rng = Random(f"{seed}:session")
        self._request_rng = Random(f"{seed}:request")
        self._burst_rng = Random(f"{seed}:burst")
        self.stats = TrafficStats()
        self.searchability = SearchabilityTracker()
        engine.attach()  # idempotent; initial_components needs it
        self._joiner = joiner
        if self._joiner is None and engine.processes:
            template = engine.processes[min(engine.processes)]
            self._joiner = default_joiner(template)
        #: virtual time — advances chunk-by-chunk even through quiescence.
        self._vt = 0
        #: (expiry vt, pid) heap of running sessions.
        self._sessions: list[tuple[int, int]] = []
        #: staying & awake & present pids — contact/request/victim pool.
        self._staying: set[int] = set()
        #: leaving pids watched for GONE → reap.
        self._watch: set[int] = set()
        #: initial-component index and its staying head-count (the guard).
        self._comp_of: dict[int, int] = {}
        self._comp_staying: dict[int, int] = {}
        retired = getattr(engine, "_retired_pids", ())
        self._next_pid = (
            max(max(engine.processes, default=-1), max(retired, default=-1)) + 1
        )
        for idx, comp in enumerate(engine.initial_components):
            for pid in comp:
                self._comp_of[pid] = idx
        for pid, proc in engine.processes.items():
            if proc.state is PState.GONE:
                continue
            if proc.mode is Mode.STAYING:
                self._staying.add(pid)
                comp = self._comp_of.get(pid)
                if comp is not None:
                    self._comp_staying[comp] = self._comp_staying.get(comp, 0) + 1
                heappush(
                    self._sessions,
                    (sample_session(self._session_rng, self.arrivals), pid),
                )
            else:
                self._watch.add(pid)
        self.stats.population = engine.alive_count
        engine.traffic_stats = self.stats

    # ------------------------------------------------------------------ churn

    def _depart(self, pid: int) -> bool:
        """Flip *pid* to leaving if the staying-per-component guard allows."""

        if pid not in self._staying:
            return False
        comp = self._comp_of.get(pid)
        if comp is not None:
            if self._comp_staying[comp] <= 1:
                return False  # last staying member of an initial component
            self._comp_staying[comp] -= 1
        self.engine.request_leave(pid)
        self._staying.discard(pid)
        self._watch.add(pid)
        self.searchability.retire(pid)
        self.stats.leaves += 1
        return True

    def _reap_departed(self) -> None:
        """One reap sweep over the watched pids, in pid order
        (:meth:`~repro.sim.engine.Engine.reap_gone`)."""
        reaped, unknown = self.engine.reap_gone(sorted(self._watch))
        for pid in reaped:
            self.searchability.retire(pid)
        self.stats.reaps += len(reaped)
        self._watch.difference_update(reaped)
        self._watch.difference_update(unknown)

    def _admit_one(self, pool: list[int]) -> bool:
        if not pool or self._joiner is None:
            self.stats.joins_deferred += 1
            return False
        cap = self.arrivals.max_population
        if cap is not None and self.stats.population >= cap:
            self.stats.joins_deferred += 1
            return False
        contact_pid = self._join_rng.choice(pool)
        contact = self.engine.ref(contact_pid)
        pid = self._next_pid
        self._next_pid += 1
        proc = self._joiner(pid, contact)
        self.engine.admit(proc)
        self._staying.add(pid)
        pool.append(pid)
        self.stats.joins += 1
        self.stats.population += 1
        heappush(
            self._sessions,
            (self._vt + sample_session(self._session_rng, self.arrivals), pid),
        )
        return True

    # ------------------------------------------------------------------ requests

    def _hops(self, src: int, dst: int) -> int:
        """PG hop distance for a pair
        :meth:`~repro.sim.engine.Engine.same_component` reported
        connected."""

        hops = self.engine.hops(src, dst)
        if hops is not None:
            return hops
        raise StateViolation(
            f"no path from {src} to {dst} although same_component reported "
            "them connected: the engine's connectivity and hop answers "
            "disagree"
        )

    def _issue_requests(self, count: int, pool: list[int]) -> None:
        if count <= 0 or len(pool) < 2:
            return
        stats = self.stats
        same_component = self.engine.same_component
        every = self.requests.latency_sample_every
        for _ in range(count):
            src, dst = self._request_rng.sample(pool, 2)
            ok = same_component((src, dst))
            stats.requests_issued += 1
            if ok:
                stats.requests_ok += 1
                if stats.requests_ok % every == 0:
                    hops = self._hops(src, dst)
                    stats.latency_samples += 1
                    stats.latency_hops_total += hops
                    if hops > stats.latency_hops_max:
                        stats.latency_hops_max = hops
            else:
                stats.requests_failed += 1
            if self.searchability.record(src, dst, ok):
                stats.searchability_violations += 1

    # ------------------------------------------------------------------ boundaries

    def _boundary(self, budget: int) -> None:
        """All churn + traffic work at one chunk boundary (budget = virtual
        steps since the previous boundary)."""

        arrivals = self.arrivals
        # 1. sessions that expired by now request departure.
        while self._sessions and self._sessions[0][0] <= self._vt:
            _, pid = heappop(self._sessions)
            self._depart(pid)
        # 2. correlated mass departure.
        if (
            arrivals.mass_departure_prob > 0.0
            and self._burst_rng.random() < arrivals.mass_departure_prob
        ):
            pool = sorted(self._staying)
            k = max(1, int(len(pool) * arrivals.mass_departure_frac))
            for pid in self._burst_rng.sample(pool, min(k, len(pool))):
                self._depart(pid)
        # 3. reclaim departed, unreferenced processes.
        self._reap_departed()
        self.stats.population = self.engine.alive_count
        # 4. arrivals (Poisson + optional flash crowd).
        joins = sample_poisson(
            self._join_rng, arrivals.join_rate * budget / 1000.0
        )
        if (
            arrivals.flash_crowd_prob > 0.0
            and self._burst_rng.random() < arrivals.flash_crowd_prob
        ):
            joins += arrivals.flash_crowd_size
        pool = sorted(self._staying)
        for _ in range(joins):
            self._admit_one(pool)
        # 5. user requests against the post-churn population.
        count = sample_poisson(
            self._request_rng, self.requests.rate * budget / 1000.0
        )
        self._issue_requests(count, pool)

    # ------------------------------------------------------------------ run

    def run(self, total_steps: int) -> dict:
        """Drive *total_steps* virtual steps of open-system operation.

        Returns a report dict (also reachable as ``engine.traffic_stats``
        for the probe registry while the run progresses).
        """

        engine = self.engine
        start_step = engine.step_count
        sink = open(self.trace_path, "w") if self.trace_path else None
        try:
            if sink is not None:
                header = {
                    "t": "traffic-header",
                    "version": TRAFFIC_TRACE_VERSION,
                    "seed": self.seed,
                    "chunk": self.chunk,
                    "engine_mode": engine.engine_mode,
                    "arrivals": {
                        k: getattr(self.arrivals, k)
                        for k in self.arrivals.__dataclass_fields__
                    },
                    "requests": {
                        k: getattr(self.requests, k)
                        for k in self.requests.__dataclass_fields__
                    },
                }
                sink.write(json.dumps(header) + "\n")
            remaining = total_steps
            while remaining > 0:
                budget = min(self.chunk, remaining)
                engine.run(budget)
                self._vt += budget
                remaining -= budget
                self._boundary(budget)
                if sink is not None:
                    stats = self.stats
                    sink.write(
                        json.dumps(
                            {
                                "t": "boundary",
                                "vt": self._vt,
                                "step": engine.step_count,
                                "pop": stats.population,
                                "join": stats.joins,
                                "leave": stats.leaves,
                                "reap": stats.reaps,
                                "req": stats.requests_issued,
                                "ok": stats.requests_ok,
                                "viol": stats.searchability_violations,
                            }
                        )
                        + "\n"
                    )
            report = {
                "virtual_steps": self._vt,
                "executed_steps": engine.step_count - start_step,
                "stats": self.stats.as_dict(),
            }
            if sink is not None:
                sink.write(json.dumps({"t": "final", **report}) + "\n")
            return report
        finally:
            if sink is not None:
                sink.close()
