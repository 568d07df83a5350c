"""Streaming JSONL traces: record a run to disk, replay it bit-identically.

:class:`JsonlTraceSink` is an engine tracer (``Engine(..., tracer=sink)``)
that streams one compact JSON object per executed step to a file,
holding only a small line buffer in memory — unlike the in-memory
:class:`~repro.sim.replay.ScheduleRecorder` it is bounded regardless of
run length. The file carries everything a reader needs:

* a header (``"t": "h"``) with the format version and caller-supplied
  metadata — scenario builders store their full parameter set here so
  the initial state can be reconstructed;
* one step record (``"t": "s"``) per executed action: kind, pid, message
  seq/label, resulting lifecycle state, and the oracle query/verdict
  counter deltas when they changed — exactly the executed schedule plus
  the observations the paper's lemmas quantify over;
* optional metric records (``"t": "m"``) every *k* steps with the O(1)
  counters (Φ, gone, edges, pending);
* a final record (``"t": "f"``) with the run's closing counters, used by
  :func:`replay_trace` to verify a replay reproduced the recorded run.

Replaying re-ingests the step records as
:class:`~repro.sim.replay.RecordedEvent` s through a
:class:`~repro.sim.replay.ReplayScheduler`: message sequence numbers are
a pure function of posting order, so an identical initial state plus the
recorded schedule yields a bit-identical run (asserted by tests/obs/).

Schema (one JSON object per line, compact keys):

==== =======================================================
key  meaning
==== =======================================================
t    record type: h(eader) / s(tep) / m(etrics) / f(inal)
v    format version (header only, currently 1)
i    step index (the value of ``engine.step_count`` *before*
     the step for "s" records; the sampling step for "m")
k    step kind: "t" timeout, "d" deliver
p    executing pid
q    message seq (deliver only)
l    message label (deliver only)
st   resulting lifecycle state: a(wake) / s(leep) / g(one)
oq   cumulative oracle queries (only when changed)
ot   cumulative oracle-true verdicts (only when changed)
==== =======================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Any
from collections.abc import Callable

from repro.errors import ConfigurationError
from repro.sim.replay import RecordedEvent, replay_run

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine, ExecutedStep

__all__ = [
    "TRACE_VERSION",
    "JsonlTraceSink",
    "TraceData",
    "read_trace",
    "replay_trace",
]

TRACE_VERSION = 1

#: default number of buffered lines between file writes — small enough
#: that a crash loses little, large enough to amortize write syscalls.
DEFAULT_BUFFER_LINES = 256

_KIND_CODE = {"timeout": "t", "deliver": "d"}
_KIND_NAME = {"t": "timeout", "d": "deliver"}


class JsonlTraceSink:
    """Engine tracer streaming step records to a JSONL file.

    Bounded memory: at most ``buffer_lines`` pending lines plus a small
    label-encoding cache. Use as a context manager (or call
    :meth:`close`) so the final record lands on disk::

        with JsonlTraceSink("run.jsonl", meta={...}) as sink:
            engine = build_fdp_engine(..., tracer=sink)
            engine.run(10_000)
            sink.finalize(engine)
    """

    def __init__(
        self,
        path: str,
        *,
        meta: dict[str, Any] | None = None,
        metrics_every: int = 0,
        buffer_lines: int = DEFAULT_BUFFER_LINES,
    ) -> None:
        if metrics_every < 0:
            raise ConfigurationError("metrics_every must be >= 0 (0 disables)")
        if buffer_lines < 1:
            raise ConfigurationError("buffer_lines must be >= 1")
        self.path = path
        self.metrics_every = metrics_every
        self.buffer_lines = buffer_lines
        self.steps_recorded = 0
        self._fh: IO[str] | None = open(path, "w", encoding="utf-8")
        self._buf: list[str] = []
        self._label_json: dict[str, str] = {}
        self._last_oq = 0
        self._finalized = False
        header = {"t": "h", "v": TRACE_VERSION, "meta": meta or {}}
        self._buf.append(json.dumps(header, separators=(",", ":")) + "\n")

    # ------------------------------------------------------------ hot path

    def record(self, engine: Engine, executed: ExecutedStep) -> None:
        """Engine hook: append one step record (O(1), no snapshot).

        Reads only *executed*, plus the engine's O(1) counters after
        every ``metrics_every``-th step, where the engine ends a core
        batch (see the ``tracer`` parameter of
        :class:`~repro.sim.engine.Engine`).
        """
        kind = executed.kind
        if kind == "deliver":
            label = executed.label
            enc = self._label_json.get(label)  # type: ignore[arg-type]
            if enc is None:
                enc = json.dumps(label)
                self._label_json[label] = enc  # type: ignore[index]
            line = (
                f'{{"t":"s","i":{executed.index},"k":"d","p":{executed.pid},'
                f'"q":{executed.seq},"l":{enc}'
            )
        else:
            line = f'{{"t":"s","i":{executed.index},"k":"t","p":{executed.pid}'
        state = executed.new_state
        if state is not None:
            line += f',"st":"{state.value[0]}"'
        oq = executed.oracle_queries
        if oq != self._last_oq:
            line += f',"oq":{oq},"ot":{executed.oracle_true}'
            self._last_oq = oq
        buf = self._buf
        buf.append(line + "}\n")
        self.steps_recorded += 1
        every = self.metrics_every
        if every and (executed.index + 1) % every == 0:
            buf.append(
                f'{{"t":"m","i":{executed.index + 1},"phi":{engine.potential()},'
                f'"gone":{engine.gone_count},"edges":{engine.edge_count},'
                f'"pend":{engine.pending_count}}}\n'
            )
        if len(buf) >= self.buffer_lines:
            self._flush()

    # ------------------------------------------------------------ lifecycle

    def _flush(self) -> None:
        if self._fh is None:
            raise ConfigurationError(f"trace sink {self.path!r} already closed")
        self._fh.write("".join(self._buf))
        self._buf.clear()

    def finalize(self, engine: Engine) -> None:
        """Write the final verification record (once, before close)."""
        if self._finalized:
            return
        self._finalized = True
        self._buf.append(
            f'{{"t":"f","steps":{engine.step_count},"phi":{engine.potential()},'
            f'"gone":{engine.gone_count},'
            f'"posted":{engine.stats.messages_posted}}}\n'
        )

    def close(self) -> None:
        """Flush buffered lines and close the file (idempotent)."""
        if self._fh is None:
            return
        self._flush()
        self._fh.close()
        self._fh = None

    @property
    def closed(self) -> bool:
        return self._fh is None

    def __enter__(self) -> JsonlTraceSink:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass
class TraceData:
    """A parsed trace file."""

    version: int
    meta: dict[str, Any]
    events: list[RecordedEvent]
    steps: list[dict[str, Any]] = field(repr=False, default_factory=list)
    metrics: list[dict[str, Any]] = field(repr=False, default_factory=list)
    final: dict[str, Any] | None = None


def read_trace(path: str) -> TraceData:
    """Parse a JSONL trace file back into events + metadata.

    Raises :class:`~repro.errors.ConfigurationError` on a missing or
    version-incompatible header and on malformed records.
    """

    version: int | None = None
    meta: dict[str, Any] = {}
    events: list[RecordedEvent] = []
    steps: list[dict[str, Any]] = []
    metrics: list[dict[str, Any]] = []
    final: dict[str, Any] | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: malformed trace line: {exc}"
                ) from exc
            kind = rec.get("t")
            if kind == "h":
                version = rec.get("v")
                if version != TRACE_VERSION:
                    raise ConfigurationError(
                        f"{path}: unsupported trace version {version!r} "
                        f"(this reader speaks {TRACE_VERSION})"
                    )
                meta = rec.get("meta", {})
            elif kind == "s":
                try:
                    event_kind = _KIND_NAME[rec["k"]]
                    events.append(
                        RecordedEvent(event_kind, rec["p"], rec.get("q"))
                    )
                except KeyError as exc:
                    raise ConfigurationError(
                        f"{path}:{lineno}: malformed step record {rec!r}"
                    ) from exc
                steps.append(rec)
            elif kind == "m":
                metrics.append(rec)
            elif kind == "f":
                final = rec
    if version is None:
        raise ConfigurationError(f"{path}: no trace header record")
    return TraceData(version, meta, events, steps=steps, metrics=metrics, final=final)


def replay_trace(
    build: Callable[[], "Engine"],
    path: str,
    *,
    verify: bool = True,
) -> "Engine":
    """Rebuild the initial state and re-execute a trace file's schedule.

    *build* must reconstruct the recorded run's exact initial state (the
    scenario builders keyed by the header metadata satisfy this). With
    ``verify=True`` the replayed run's closing counters are checked
    against the trace's final record; a mismatch raises
    :class:`~repro.errors.ConfigurationError` — the replay is not the
    recorded run. Returns the engine after the replay.
    """

    data = read_trace(path)
    engine = replay_run(build, data.events)
    if verify and data.final is not None:
        observed = {
            "steps": engine.step_count,
            "phi": engine.potential(),
            "gone": engine.gone_count,
            "posted": engine.stats.messages_posted,
        }
        expected = {k: data.final[k] for k in observed if k in data.final}
        mismatches = {
            k: (expected[k], observed[k])
            for k in expected
            if expected[k] != observed[k]
        }
        if mismatches:
            raise ConfigurationError(
                f"replay of {path!r} diverged from the recorded run: "
                + ", ".join(
                    f"{k}: recorded {exp} vs replayed {obs}"
                    for k, (exp, obs) in sorted(mismatches.items())
                )
            )
    return engine
