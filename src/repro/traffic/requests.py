"""Request traffic and its accounting: latency, drops, searchability.

Requests model the *service* an overlay exists to provide: a user at
process ``src`` asks for process ``dst`` (a search/route operation). In
the simulator a request is observation-only — it reads the live process
graph at a traffic boundary and never mutates engine state, so request
traffic composes with any engine mode (including the batched
struct-of-arrays core) and never perturbs a replayed schedule.

A request **succeeds** when ``src`` and ``dst`` lie in one weakly
connected component of PG restricted to non-gone processes — exactly
the paper's invariant surface: Lemma 1/2 guarantee the protocols never
disconnect PG, so as long as both endpoints are present, routing along
PG edges can answer the request. **Latency** is the PG hop distance,
sampled on a subset of successful requests (BFS is O(edges)).

**Monotonic searchability** is the regression notion of Scheideler,
Setzer & Strothmann (DISC 2015; see PAPERS.md): once a search from
``src`` for ``dst`` succeeds, later searches for the same pair must
keep succeeding — unless one endpoint itself departs. A *violation* is
therefore: pair answered before, both endpoints still present and
staying, answer now "no". On fault-free schedules the class-𝒫 overlays
must never violate this (the acceptance gate of the churn benchmark);
chaos campaigns measure how often faults break it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["RequestConfig", "SearchabilityTracker", "TrafficStats"]


@dataclass(frozen=True)
class RequestConfig:
    """Knobs of the user-request stream."""

    #: expected requests per 1000 virtual steps (Poisson arrivals).
    rate: float = 50.0
    #: BFS-sample every k-th *successful* request for hop latency
    #: (latency is O(edges) to measure; verdicts are near-O(1)).
    latency_sample_every: int = 16

    def validate(self) -> None:
        if self.rate < 0:
            raise ConfigurationError("rate must be >= 0")
        if self.latency_sample_every < 1:
            raise ConfigurationError("latency_sample_every must be >= 1")


class TrafficStats:
    """O(1)-readable counters of one open-system run.

    The driver publishes itself as ``engine.traffic_stats`` so the probe
    registry can expose these as standard probes without scanning the
    population (the observer spy in ``tests/sim/test_step_path_spy.py``
    samples every registry probe).
    """

    __slots__ = (
        "requests_issued",
        "requests_ok",
        "requests_failed",
        "latency_samples",
        "latency_hops_total",
        "latency_hops_max",
        "searchability_violations",
        "joins",
        "joins_deferred",
        "leaves",
        "reaps",
        "population",
    )

    def __init__(self) -> None:
        self.requests_issued = 0
        self.requests_ok = 0
        self.requests_failed = 0
        self.latency_samples = 0
        self.latency_hops_total = 0
        self.latency_hops_max = 0
        self.searchability_violations = 0
        self.joins = 0
        #: joins skipped because max_population (or an empty contact pool)
        #: blocked them — reported so capped runs can't read as "covered".
        self.joins_deferred = 0
        self.leaves = 0
        self.reaps = 0
        self.population = 0

    @property
    def drop_rate(self) -> float:
        """Failed fraction of all issued requests (0.0 when none issued)."""
        if not self.requests_issued:
            return 0.0
        return self.requests_failed / self.requests_issued

    @property
    def mean_latency(self) -> float:
        """Mean sampled hop latency (0.0 before the first sample)."""
        if not self.latency_samples:
            return 0.0
        return self.latency_hops_total / self.latency_samples

    def as_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self.__slots__}
        out["drop_rate"] = self.drop_rate
        out["mean_latency"] = self.mean_latency
        return out


class SearchabilityTracker:
    """Detects monotonic-searchability regressions over (src, dst) pairs.

    Keeps the set of pairs ever answered successfully, indexed per pid so
    a departing endpoint retires its pairs in O(pairs touching pid)
    rather than O(all pairs).
    """

    __slots__ = ("_answered", "_by_pid")

    def __init__(self) -> None:
        self._answered: set[tuple[int, int]] = set()
        self._by_pid: dict[int, set[tuple[int, int]]] = {}

    def __len__(self) -> int:
        return len(self._answered)

    def record(self, src: int, dst: int, ok: bool) -> bool:
        """Record one request verdict; True iff it violates monotonicity
        (the pair succeeded before, both endpoints still tracked, and the
        answer is now negative)."""

        pair = (src, dst)
        if ok:
            if pair not in self._answered:
                self._answered.add(pair)
                self._by_pid.setdefault(src, set()).add(pair)
                self._by_pid.setdefault(dst, set()).add(pair)
            return False
        return pair in self._answered

    def retire(self, pid: int) -> None:
        """Forget every answered pair touching *pid* — its departure (or
        reap) legitimately ends the monotonicity obligation."""

        pairs = self._by_pid.pop(pid, None)
        if not pairs:
            return
        self._answered -= pairs
        for src, dst in pairs:
            other = dst if src == pid else src
            bucket = self._by_pid.get(other)
            if bucket is not None:
                bucket.discard((src, dst))
                if not bucket:
                    del self._by_pid[other]
