"""The documented probe catalog and per-process Φ attribution.

:data:`REGISTRY` is the one probe registry: every probe carries a
description and an asymptotic cost annotation, so experiment code (and
``repro metrics``) can pick instruments knowing what a per-step sample
costs, and a default :class:`~repro.sim.tracing.SeriesRecorder` samples
the six named in :data:`~repro.sim.tracing.DEFAULT_SERIES`. All catalog
probes read counters the engine already maintains — the observer spy in
``tests/sim/test_step_path_spy.py`` samples every probe each step and
fails on any snapshot or process-population read (a bug the first
standard probes shipped with).

Φ attribution answers *where* the invalid information sits once Φ > 0:

* :func:`phi_by_subject` — per process the invalid information is
  *about* (beliefs contradicting that process's true mode);
* :func:`phi_by_holder` — per process *holding* the invalid information
  (in its memory or channel).

Both are analysis queries, not per-step probes: O(targets) /
O(distinct edge keys) reads of the live graph's Φ buckets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING
from collections.abc import Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = [
    "Probe",
    "REGISTRY",
    "sample_all",
    "standard_probe_fns",
    "phi_by_subject",
    "phi_by_holder",
    "top_phi",
    "top_backlog",
]


@dataclass(frozen=True)
class Probe:
    """One documented metric probe: a named ``Engine -> float`` reader."""

    name: str
    description: str
    cost: str
    fn: Callable[["Engine"], float]

    def __call__(self, engine: "Engine") -> float:
        return self.fn(engine)


# Each probe reads a counter the engine already maintains; none may
# rebuild a snapshot or scan the process population (the observer spy in
# tests/sim/test_step_path_spy.py samples them all).


def _probe_potential(e: "Engine") -> float:
    return float(e.potential())


def _probe_gone(e: "Engine") -> float:
    return float(e.gone_count)


def _probe_asleep(e: "Engine") -> float:
    return float(e.asleep_count)


def _probe_pending(e: "Engine") -> float:
    return float(e.pending_count)


def _probe_messages_posted(e: "Engine") -> float:
    return float(e.stats.messages_posted)


def _probe_edges(e: "Engine") -> float:
    return float(e.edge_count)


def _probe_steps(e: "Engine") -> float:
    return float(e.step_count)


def _probe_exits(e: "Engine") -> float:
    return float(e.stats.exits)


def _probe_sleeps(e: "Engine") -> float:
    return float(e.stats.sleeps)


def _probe_dropped_unknown(e: "Engine") -> float:
    return float(e.stats.dropped_unknown)


def _probe_oracle_queries(e: "Engine") -> float:
    return float(e.stats.oracle_queries)


def _probe_oracle_true(e: "Engine") -> float:
    return float(e.stats.oracle_true)


def _probe_load_imbalance(e: "Engine") -> float:
    return e.stats.load_imbalance()


def _probe_core_active(e: "Engine") -> float:
    return 1.0 if e.core_status["active"] else 0.0


def _probe_dropped_gone(e: "Engine") -> float:
    return float(e.stats.dropped_gone)


def _probe_bounced(e: "Engine") -> float:
    return float(e.stats.bounced)


def _traffic(e: "Engine"):
    # Set by repro.traffic.TrafficDriver; None on workload-less runs.
    return getattr(e, "traffic_stats", None)


def _probe_traffic_requests(e: "Engine") -> float:
    t = _traffic(e)
    return float(t.requests_issued) if t is not None else 0.0


def _probe_traffic_drop_rate(e: "Engine") -> float:
    t = _traffic(e)
    return float(t.drop_rate) if t is not None else 0.0


def _probe_traffic_latency_mean(e: "Engine") -> float:
    t = _traffic(e)
    return float(t.mean_latency) if t is not None else 0.0


def _probe_traffic_violations(e: "Engine") -> float:
    t = _traffic(e)
    return float(t.searchability_violations) if t is not None else 0.0


def _probe_traffic_population(e: "Engine") -> float:
    t = _traffic(e)
    return float(t.population) if t is not None else 0.0


def _net(e: "Engine"):
    # Set by repro.net.ReliableTransport.install; None on reliable runs.
    return getattr(e, "net_stats", None)


def _probe_net_sends(e: "Engine") -> float:
    t = _net(e)
    return float(t.sends) if t is not None else 0.0


def _probe_net_delivered(e: "Engine") -> float:
    t = _net(e)
    return float(t.delivered) if t is not None else 0.0


def _probe_net_dropped(e: "Engine") -> float:
    t = _net(e)
    return float(t.dropped) if t is not None else 0.0


def _probe_net_duplicated(e: "Engine") -> float:
    t = _net(e)
    return float(t.duplicated) if t is not None else 0.0


def _probe_net_delayed(e: "Engine") -> float:
    t = _net(e)
    return float(t.delayed) if t is not None else 0.0


def _probe_net_retransmits(e: "Engine") -> float:
    t = _net(e)
    return float(t.retransmits) if t is not None else 0.0


def _probe_net_acks(e: "Engine") -> float:
    t = _net(e)
    return float(t.acks) if t is not None else 0.0


_CATALOG: tuple[Probe, ...] = (
    Probe(
        "potential",
        "the potential Φ of Lemma 3 — edges carrying invalid mode information",
        "O(1)",
        _probe_potential,
    ),
    Probe("gone", "processes that have exited", "O(1)", _probe_gone),
    Probe("asleep", "processes currently hibernating", "O(1)", _probe_asleep),
    Probe(
        "pending_messages",
        "messages in flight across all channels (gone pids included)",
        "O(1)",
        _probe_pending,
    ),
    Probe(
        "messages_posted",
        "cumulative messages posted since the start of the run",
        "O(1)",
        _probe_messages_posted,
    ),
    Probe(
        "edges",
        "edges of PG, parallel copies and self-loops counted",
        "O(1)",
        _probe_edges,
    ),
    Probe("steps", "executed steps so far", "O(1)", _probe_steps),
    Probe("exits", "exit transitions taken", "O(1)", _probe_exits),
    Probe("sleeps", "sleep transitions taken", "O(1)", _probe_sleeps),
    Probe(
        "dropped_unknown",
        "deliveries whose label no action matched (model: ignored)",
        "O(1)",
        _probe_dropped_unknown,
    ),
    Probe(
        "oracle_queries", "oracle consultations so far", "O(1)", _probe_oracle_queries
    ),
    Probe(
        "oracle_true",
        "oracle consultations that answered true",
        "O(1)",
        _probe_oracle_true,
    ),
    Probe(
        "load_imbalance",
        "max/mean ratio of per-process delivered messages (1.0 = even)",
        "O(n)",
        _probe_load_imbalance,
    ),
    Probe(
        "core_active",
        "1.0 when the struct-of-arrays core is executing this run",
        "O(1)",
        _probe_core_active,
    ),
    Probe(
        "dropped_gone",
        "protocol sends to gone processes dropped (carried no third-party refs)",
        "O(1)",
        _probe_dropped_gone,
    ),
    Probe(
        "bounced",
        "third-party references bounced back to their senders (Section 4 postprocess)",
        "O(1)",
        _probe_bounced,
    ),
    Probe(
        "traffic_requests",
        "search requests issued by the open-system traffic driver",
        "O(1)",
        _probe_traffic_requests,
    ),
    Probe(
        "traffic_drop_rate",
        "fraction of traffic requests that failed (unreachable destination)",
        "O(1)",
        _probe_traffic_drop_rate,
    ),
    Probe(
        "traffic_latency_mean",
        "mean sampled request latency in overlay hops",
        "O(1)",
        _probe_traffic_latency_mean,
    ),
    Probe(
        "traffic_searchability_violations",
        "monotonic-searchability violations observed by the traffic driver",
        "O(1)",
        _probe_traffic_violations,
    ),
    Probe(
        "traffic_population",
        "non-gone population at the driver's last chunk boundary",
        "O(1)",
        _probe_traffic_population,
    ),
    Probe(
        "net_sends",
        "paper messages handed to the reliable transport",
        "O(1)",
        _probe_net_sends,
    ),
    Probe(
        "net_delivered",
        "data frames that arrived through the faulty underlay",
        "O(1)",
        _probe_net_delivered,
    ),
    Probe(
        "net_dropped",
        "data frames lost to underlay loss or an active partition",
        "O(1)",
        _probe_net_dropped,
    ),
    Probe(
        "net_duplicated",
        "data frames the underlay duplicated in flight",
        "O(1)",
        _probe_net_duplicated,
    ),
    Probe(
        "net_delayed",
        "data frames the underlay delayed past the next flush",
        "O(1)",
        _probe_net_delayed,
    ),
    Probe(
        "net_retransmits",
        "retransmission attempts fired by the ack/backoff loop",
        "O(1)",
        _probe_net_retransmits,
    ),
    Probe(
        "net_acks",
        "cumulative-ack frames sent back by receivers",
        "O(1)",
        _probe_net_acks,
    ),
)

#: name → probe; the documented catalog ``repro metrics`` renders, and
#: the source of a default :class:`~repro.sim.tracing.SeriesRecorder`'s
#: probes.
REGISTRY: dict[str, Probe] = {p.name: p for p in _CATALOG}


def standard_probe_fns(names: tuple[str, ...] | None = None) -> dict[
    str, Callable[["Engine"], float]
]:
    """Catalog probes as a plain ``SeriesRecorder``-ready dict."""
    if names is None:
        return {name: probe.fn for name, probe in REGISTRY.items()}
    return {name: REGISTRY[name].fn for name in names}


def sample_all(engine: "Engine") -> dict[str, float]:
    """One sample of every catalog probe."""
    return {name: probe.fn(engine) for name, probe in REGISTRY.items()}


# ------------------------------------------------------------ Φ attribution


def phi_by_subject(engine: "Engine") -> dict[int, int]:
    """Φ broken down by the process the invalid information is *about*.

    ``sum(phi_by_subject(e).values()) == e.potential()`` always. Served
    from the live graph's per-target Φ buckets.
    """

    return engine.live_graph.phi_by_subject()


def phi_by_holder(engine: "Engine") -> dict[int, int]:
    """Φ broken down by the process *holding* the invalid information
    (stored in its memory or sitting in its channel)."""

    return engine.live_graph.phi_by_holder()


def top_phi(
    engine: "Engine", *, by: str = "subject", limit: int = 10
) -> list[tuple[int, int]]:
    """The *limit* largest Φ contributors as ``(pid, contribution)``.

    ``by="subject"`` attributes to the process the information is about,
    ``by="holder"`` to the process holding it. Ties break by pid for
    deterministic output.
    """

    if by == "subject":
        table = phi_by_subject(engine)
    elif by == "holder":
        table = phi_by_holder(engine)
    else:
        raise ValueError(f"by must be 'subject' or 'holder', not {by!r}")
    ranked = sorted(table.items(), key=_rank_key)
    return ranked[:limit]


def _rank_key(item: tuple[int, int]) -> tuple[int, int]:
    return (-item[1], item[0])


def top_backlog(engine: "Engine", limit: int = 5) -> list[tuple[int, int]]:
    """The *limit* most backlogged channels as ``(pid, pending)``.

    An analysis query (one O(n) pass over the channel table), not a
    per-step probe: watchdogs read the O(1) ``pending_count`` on the hot
    path and call this only when building a trip diagnosis. Gone pids
    are included — a gone process's growing channel is precisely the
    livelock signature this attribution exists to expose. Ties break by
    pid for deterministic output; empty channels are omitted.
    """

    ranked = sorted(
        (
            (pid, len(channel))
            for pid, channel in engine.channels.items()
            if len(channel)
        ),
        key=_rank_key,
    )
    return ranked[:limit]
