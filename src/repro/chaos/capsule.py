"""Replayable failure capsules: a failing run, frozen as one JSON file.

A watchdog trip, safety violation or budget exhaustion found by a chaos
run is worthless if it cannot be re-examined. A :class:`Capsule` bundles
everything needed to re-execute the failure bit-identically:

* the scenario metadata (:func:`repro.core.scenarios.build_from_meta`'s
  vocabulary) — rebuilds the exact initial state;
* the campaign configuration — rebuilds the injection stream (an
  injection is a pure function of step index, campaign RNG and engine
  state, so config + schedule reproduce it exactly);
* the executed schedule (:class:`~repro.sim.replay.RecordedEvent`
  triples) — replayed verbatim by
  :class:`~repro.sim.replay.ReplayScheduler`;
* the open-system churn journal (schema v2): every mid-run
  ``admit``/``leave``/``reap`` with the step index it was applied at,
  so a run under a live workload replays bit-identically — the churn
  ops are re-applied in the recorded inter-step gaps;
* the transport record (schema v3): the unreliable-underlay + reliable
  transport configuration, its closing counters and the retransmit
  journal with a tamper-detection digest. The journal is *evidence*
  (which frames were dropped/duplicated/delayed/retransmitted), not
  replay input — the scenario meta's ``net`` key rebuilds the
  transport, and the recorded schedule alone pins the execution, so
  replay is bit-identical whether or not the transport re-runs. A
  capsule captured before fates came from one keyed hash
  (:mod:`repro.net.underlay`) holds a journal of the older
  per-attempt reseeding: it is evidence of that run, a re-attached
  transport no longer regenerates it, and the capsule still replays
  bit-identically through its schedule;
* the watchdog configs, the trip diagnosis, the error text and the
  final counters — the claim the replay is verified against.

:func:`run_chaos` is the capture harness: it wires a recorder, campaign
(first monitor — the determinism contract of
:mod:`repro.chaos.campaigns`), watchdogs and extra monitors into a
scenario engine, runs it, and on failure writes the capsule.

:func:`replay_capsule` rebuilds the engine from the stored meta,
re-attaches the campaign as the *sole* monitor (watchdogs are left off:
re-raising at the recorded trip step would abort the replay before the
final-state comparison) and re-executes the schedule, then asserts the
final counters match the capture. Mid-action errors (capsule kind
``"error"``) are the one soft spot: the exception fired inside a step
the tracer never recorded, so only the step count is verified for them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING
from collections.abc import Callable, Sequence

from repro.chaos.campaigns import ChaosCampaign
from repro.chaos.watchdogs import Watchdog
from repro.core.scenarios import build_from_meta
from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    ReproError,
    SafetyViolation,
    WatchdogTrip,
)
from repro.sim.replay import RecordedEvent, ReplayScheduler, ScheduleRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = [
    "CAPSULE_VERSION",
    "Capsule",
    "ChaosRunResult",
    "run_chaos",
    "capture_capsule",
    "replay_capsule",
]

#: v2 added the ``churn`` journal (open-system admits/leaves/reaps);
#: v3 adds the ``net`` record — transport config, retransmit journal and
#: its tamper-detection digest — for runs captured over an unreliable
#: underlay. v1 and v2 capsules are still read
#: (see :meth:`Capsule.from_dict`).
CAPSULE_VERSION = 3

#: counters every capsule records and replay verifies (kind "error"
#: verifies only "steps" — see module docstring). ``population`` is
#: absent from v1 capsules and skipped for them on replay.
_FINAL_KEYS = ("steps", "phi", "gone", "posted", "pending", "population")


def _final_counters(engine: Engine) -> dict[str, int]:
    return {
        "steps": engine.step_count,
        "phi": engine.potential(),
        "gone": engine.gone_count,
        "posted": engine.stats.messages_posted,
        "pending": engine.pending_count,
        "population": len(engine.processes),
    }


@dataclass
class Capsule:
    """One captured failure, JSON-serializable and bit-identically
    replayable."""

    kind: str  # "watchdog" | "safety" | "budget" | "error"
    scenario: dict
    schedule: list[RecordedEvent]
    campaign: dict | None = None
    watchdogs: list[dict] = field(default_factory=list)
    injections: list[dict] = field(default_factory=list)
    diagnosis: dict | None = None
    error: str | None = None
    final: dict = field(default_factory=dict)
    churn: list[dict] = field(default_factory=list)
    net: dict | None = None
    version: int = CAPSULE_VERSION

    # -- (de)serialization ------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "kind": self.kind,
            "scenario": self.scenario,
            "campaign": self.campaign,
            "watchdogs": self.watchdogs,
            "injections": self.injections,
            "diagnosis": self.diagnosis,
            "error": self.error,
            "final": self.final,
            "churn": self.churn,
            "net": self.net,
            "schedule": [
                [e.kind, e.pid, e.seq] for e in self.schedule
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> Capsule:
        version = data.get("version")
        if version not in (1, 2, CAPSULE_VERSION):
            raise ConfigurationError(
                f"unsupported capsule version {version!r} "
                f"(this build reads versions 1 through {CAPSULE_VERSION})"
            )
        net = data.get("net")
        if net is not None and net.get("journal") is not None:
            # Tamper detection over the retransmit journal: the digest
            # was computed at capture; an edited journal (or an edited
            # digest) no longer matches. The journal is evidence, not
            # replay input — the schedule alone replays the run — so a
            # forged one must be rejected at load, not discovered later.
            from repro.net import journal_digest

            if journal_digest(net["journal"]) != net.get("digest"):
                raise ConfigurationError(
                    "capsule net journal does not match its digest "
                    "(tampered or corrupted capsule)"
                )
        return cls(
            kind=data["kind"],
            scenario=data["scenario"],
            schedule=[
                RecordedEvent(kind=k, pid=p, seq=s)
                for k, p, s in data["schedule"]
            ],
            campaign=data.get("campaign"),
            watchdogs=data.get("watchdogs", []),
            injections=data.get("injections", []),
            diagnosis=data.get("diagnosis"),
            error=data.get("error"),
            final=data.get("final", {}),
            # v1 capsules predate open-system churn: no journal.
            churn=data.get("churn", []),
            # v1/v2 capsules predate the unreliable underlay: no net.
            net=net,
        )

    def save(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=1)
            fh.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> Capsule:
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    # -- replay -----------------------------------------------------------------

    def replay(
        self, *, verify: bool = True, engine_mode: str | None = None
    ) -> Engine:
        return replay_capsule(self, verify=verify, engine_mode=engine_mode)


def capture_capsule(
    engine: Engine,
    *,
    kind: str,
    scenario: dict,
    recorder: ScheduleRecorder,
    campaign: ChaosCampaign | None = None,
    watchdogs: Sequence[Watchdog] = (),
    diagnosis: dict | None = None,
    error: str | None = None,
) -> Capsule:
    """Freeze a failed run's identity into a :class:`Capsule`."""
    net_record: dict | None = None
    transport = getattr(engine, "net", None)
    if transport is not None:
        from repro.net import journal_digest

        journal = list(transport.journal)
        net_record = {
            "config": transport.config(),
            "stats": transport.stats.as_dict(),
            "journal": journal,
            "digest": journal_digest(journal),
        }
    return Capsule(
        kind=kind,
        scenario=dict(scenario),
        schedule=list(recorder.events),
        campaign=campaign.config() if campaign is not None else None,
        watchdogs=[w.config() for w in watchdogs],
        injections=[r.as_dict() for r in campaign.injections]
        if campaign is not None
        else [],
        diagnosis=diagnosis,
        error=error,
        final=_final_counters(engine),
        churn=list(getattr(engine, "churn_journal", [])),
        net=net_record,
    )


def _apply_churn_op(engine: Engine, op: dict) -> None:
    """Re-apply one recorded churn-journal operation during replay.

    ``leave``/``reap`` go straight back through the engine's churn API.
    ``admit`` reconstructs the admitted process from the journal's
    variable snapshot — FDP and FSP populations only; overlay admits
    carry protocol state (the logic object) the journal does not
    serialize, so they raise until a logic-aware schema lands.
    """
    kind = op["op"]
    if kind == "leave":
        engine.request_leave(op["pid"])
        return
    if kind == "reap":
        engine.reap(op["pid"])
        return
    if kind != "admit":
        raise ConfigurationError(f"unknown churn op {kind!r} in capsule")
    from repro.core.fdp import FDPProcess
    from repro.core.fsp import FSPProcess
    from repro.sim.states import Mode

    cls = {"FDPProcess": FDPProcess, "FSPProcess": FSPProcess}.get(op["proto"])
    if cls is None:
        raise ConfigurationError(
            f"capsule churn replay cannot reconstruct a {op['proto']!r} "
            "admission (only FDP/FSP variable snapshots are journaled)"
        )
    proc = cls(op["pid"], Mode(op["mode"]))
    for npid, bel in op["neighbors"]:
        proc.N[engine.ref(npid)] = None if bel is None else Mode(bel)
    if op["anchor"] is not None:
        apid, abel = op["anchor"]
        proc.anchor = engine.ref(apid)
        proc.anchor_belief = None if abel is None else Mode(abel)
    engine.admit(proc)


def replay_capsule(
    capsule: Capsule, *, verify: bool = True, engine_mode: str | None = None
) -> Engine:
    """Rebuild the captured run and re-execute its schedule.

    Returns the engine in its final replayed state. With *verify* (the
    default) the replayed final counters are compared against the
    captured ones and a mismatch raises
    :class:`~repro.errors.ConfigurationError` — either the capsule was
    edited, or protocol/injection code is nondeterministic (forbidden).

    *engine_mode* picks the execution core for the replay
    (``objects``/``soa``/``verify``); capsules are core-agnostic, so a
    capsule captured on one core replays bit-identically on the other.

    A v2 capsule's churn journal is interleaved back into the schedule:
    each recorded op re-applies after exactly the number of steps that
    preceded it at capture time, so the replayed engine sees the same
    sequence of populations the captured one did.
    """
    monitors: list = []
    if capsule.campaign is not None:
        monitors.append(ChaosCampaign.from_config(capsule.campaign))
    engine = build_from_meta(
        capsule.scenario, monitors=monitors, engine_mode=engine_mode
    )
    engine.scheduler = ReplayScheduler(capsule.schedule)
    # Churn can be journaled at step 0 (before any event executed);
    # admit/leave require an attached engine, so attach eagerly.
    engine.attach()
    for op in capsule.churn:
        gap = op["at"] - engine.step_count
        if gap > 0:
            engine.run(gap, until=None)
        _apply_churn_op(engine, op)
    remaining = len(capsule.schedule) - engine.step_count
    if remaining > 0:
        engine.run(remaining, until=None)
    if verify and capsule.final:
        keys = _FINAL_KEYS if capsule.kind != "error" else ("steps",)
        replayed = _final_counters(engine)
        diffs = {
            key: (capsule.final[key], replayed[key])
            for key in keys
            if key in capsule.final and capsule.final[key] != replayed[key]
        }
        if diffs:
            raise ConfigurationError(
                f"capsule replay diverged: {diffs} (captured, replayed)"
            )
    return engine


# ------------------------------------------------------------------ harness


@dataclass
class ChaosRunResult:
    """What a :func:`run_chaos` invocation produced."""

    engine: Engine
    outcome: str  # "converged" | "budget" | "watchdog" | "safety" | "error"
    capsule: Capsule | None = None
    capsule_path: str | None = None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.outcome not in ("converged",)


def _capsule_name(result_kind: str, scenario: dict, step: int) -> str:
    base = scenario.get("scenario", "fdp")
    seed = scenario.get("seed", 0)
    return f"capsule-{result_kind}-{base}-seed{seed}-step{step}.json"


def run_chaos(
    scenario: dict,
    *,
    campaign: ChaosCampaign | None = None,
    watchdogs: Sequence[Watchdog] = (),
    monitors: Sequence[Callable] = (),
    max_steps: int = 1_000_000,
    until: Callable[[Engine], bool] | None = None,
    check_every: int = 64,
    capsule_dir: str | None = None,
    capture_on_budget: bool = True,
    workload: Callable[[Engine], object] | None = None,
) -> ChaosRunResult:
    """Run *scenario* under a chaos campaign with supervisors attached.

    Monitor order is load-bearing: campaign first (determinism contract),
    then watchdogs, then caller monitors. The executed schedule is
    recorded throughout; on a watchdog trip, safety violation, other
    :class:`~repro.errors.ReproError` or (with *capture_on_budget*)
    budget exhaustion, a capsule is captured — and written to
    *capsule_dir* when given.

    *workload* replaces the plain ``engine.run`` driving loop: it
    receives the built engine and drives it however it likes (the
    intended caller is :class:`repro.traffic.TrafficDriver`, which
    interleaves churn and requests with the stepping). Its truthiness
    is the convergence verdict. Everything the workload does through
    the engine's churn API lands in the churn journal, so the capsule
    still replays the run bit-identically — without the workload
    attached.
    """
    recorder = ScheduleRecorder()
    wired: list[Callable] = []
    if campaign is not None:
        wired.append(campaign)
    wired.extend(watchdogs)
    wired.extend(monitors)
    engine = build_from_meta(scenario, tracer=recorder, monitors=wired)

    outcome = "converged"
    diagnosis: dict | None = None
    error: str | None = None
    try:
        if workload is not None:
            converged = bool(workload(engine))
        else:
            converged = engine.run(max_steps, until=until, check_every=check_every)
        if not converged:
            outcome = "budget"
            error = (
                f"budget exhausted after {engine.step_count} steps: "
                f"{engine.progress_diagnostics()}"
            )
            diagnosis = engine.progress_diagnostics()
    except WatchdogTrip as exc:
        outcome = "watchdog"
        error = f"WatchdogTrip: {exc}"
        diagnosis = exc.diagnosis.as_dict() if exc.diagnosis else None
    except SafetyViolation as exc:
        outcome = "safety"
        error = f"SafetyViolation: {exc}"
    except ConvergenceError as exc:
        outcome = "budget"
        error = f"ConvergenceError: {exc}"
        diagnosis = exc.diagnostics
    except ReproError as exc:
        outcome = "error"
        error = f"{type(exc).__name__}: {exc}"

    capsule: Capsule | None = None
    capsule_path: str | None = None
    if outcome in ("watchdog", "safety", "error") or (
        outcome == "budget" and capture_on_budget
    ):
        capsule = capture_capsule(
            engine,
            kind=outcome,
            scenario=scenario,
            recorder=recorder,
            campaign=campaign,
            watchdogs=watchdogs,
            diagnosis=diagnosis,
            error=error,
        )
        if capsule_dir is not None:
            os.makedirs(capsule_dir, exist_ok=True)
            capsule_path = capsule.save(
                os.path.join(
                    capsule_dir,
                    _capsule_name(outcome, scenario, engine.step_count),
                )
            )
    return ChaosRunResult(
        engine=engine,
        outcome=outcome,
        capsule=capsule,
        capsule_path=capsule_path,
        error=error,
    )
