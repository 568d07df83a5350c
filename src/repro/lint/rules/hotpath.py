"""PERF0xx — hot-path hygiene rules.

PR 2 made the step loop allocation-free (pooled ``ActionContext``,
``__slots__`` everywhere on the step path, no per-delivery closures) and
the benchmarks gate on it. These rules keep that invariant from
regressing silently: they walk the name-based call graph from
``Engine.step`` and the protocol action methods (see
``lint/callgraph.py``) and check every function reachable from there.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.lint.callgraph import _own_statements
from repro.lint.model import Finding, Module, Rule, attr_chain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.callgraph import Project

__all__ = [
    "SlotsOnStepPath",
    "ClosureOnStepPath",
    "SnapshotInObservationPath",
    "RefKeyedContainerOnStepPath",
]


class SlotsOnStepPath(Rule):
    id = "PERF001"
    title = "step-path classes must declare __slots__"
    rationale = (
        "A class instantiated inside Engine.step's call graph without "
        "__slots__ carries a per-instance __dict__: more allocation, "
        "worse cache locality, and it breaks the PR 2 allocation-budget "
        "benchmarks. Declare __slots__ or @dataclass(slots=True)."
    )

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        seen: set[str] = set()
        for fn in project.functions.values():
            if fn.module is not module or not project.is_step_reachable(fn.qualname):
                continue
            for node in _own_statements(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                cls = project.resolve_class(module, node)
                if cls is None or cls.qualname in seen or cls.has_slots:
                    continue
                if project.is_exception_class(cls) or project.is_enum_like(cls):
                    continue
                # A base we cannot resolve may bring its own __dict__ (or
                # its own slots); only judge fully-resolvable hierarchies.
                if any(
                    b.split(".")[-1] not in project.classes_by_name
                    and b.split(".")[-1] != "object"
                    for b in cls.base_names
                ):
                    continue
                seen.add(cls.qualname)
                yield self.finding(
                    module,
                    node,
                    f"class {cls.name!r} ({cls.module.path}:"
                    f"{cls.node.lineno}) is instantiated on the step "
                    "path but declares no __slots__",
                )


class ClosureOnStepPath(Rule):
    id = "PERF002"
    title = "no per-call closures on the step path"
    rationale = (
        "A lambda or nested def allocates a function object (plus cells) "
        "every call; in handlers and timeouts that is per-message cost. "
        "PR 2 removed these from the loop — hoist to a bound method or a "
        "table built in __init__."
    )

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        for fn in project.functions.values():
            if fn.module is not module or not project.is_step_reachable(fn.qualname):
                continue
            if "<locals>" in fn.qualname:
                # The nested def itself was already reported at its
                # definition site inside the parent.
                continue
            for node in _own_statements(fn.node):
                if isinstance(node, ast.Lambda):
                    yield self.finding(
                        module,
                        node,
                        f"lambda allocated per call in step-path function "
                        f"{fn.name!r}",
                    )
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield self.finding(
                        module,
                        node,
                        f"nested function {node.name!r} allocated per call "
                        f"in step-path function {fn.name!r}",
                    )


#: classes whose methods are per-step observation code: monitors, metric
#: probes/recorders, tracers and trace sinks, provenance trackers.
_OBS_CLASS_RE = re.compile(r"(Monitor|Recorder|Tracer|Tracker|Sink|Probe|Auditor)$")
#: free functions that are metric probes by convention.
_OBS_FN_RE = re.compile(r"^_?probe")
#: module-level dicts of probes (any ``*PROBES*`` table).
_PROBES_NAME_RE = re.compile(r"PROBES")
#: calls that materialize a full graph snapshot.
_SNAPSHOT_NAMES = frozenset({"snapshot", "rebuild_snapshot", "materialize"})
#: engine collections whose full iteration is an O(n) scan.
_SCAN_ATTRS = frozenset({"processes", "channels"})


class SnapshotInObservationPath(Rule):
    id = "PERF003"
    title = "no snapshots or full scans in observation code"
    rationale = (
        "The first standard probe table scanned every process per sample "
        "('gone'/'asleep') and rebuilt a full snapshot per sample "
        "('edges'), silently undoing the O(delta) live-graph observation "
        "path for every monitored run. Probes, monitors, tracers and "
        "sinks must read the engine's O(1) counters (gone_count, "
        "asleep_count, edge_count, pending_count, potential()) instead "
        "of calling snapshot()/materialize() or iterating "
        "engine.processes / engine.channels."
    )

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        for fn in project.functions.values():
            if fn.module is not module or "<locals>" in fn.qualname:
                continue
            in_obs_class = fn.cls is not None and _OBS_CLASS_RE.search(fn.cls)
            if not in_obs_class and not _OBS_FN_RE.match(fn.name):
                continue
            where = f"{fn.cls}.{fn.name}" if fn.cls else fn.name
            for node in _own_statements(fn.node):
                message = self._offense(node, where)
                if message is not None:
                    yield self.finding(module, node, message)
        # Probe tables: lambdas inside ``*PROBES*`` dict literals are not
        # indexed as functions, so scan the assigned values directly.
        for stmt in module.tree.body:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            if not any(
                isinstance(t, ast.Name) and _PROBES_NAME_RE.search(t.id)
                for t in targets
            ):
                continue
            value = stmt.value
            assert value is not None
            name = next(
                t.id for t in targets if isinstance(t, ast.Name)
            )
            for node in ast.walk(value):
                message = self._offense(node, f"probe table {name}")
                if message is not None:
                    yield self.finding(module, node, message)

    @staticmethod
    def _offense(node: ast.AST, where: str) -> str | None:
        if isinstance(node, ast.Call):
            chain = attr_chain(node.func)
            if chain is not None and chain.split(".")[-1] in _SNAPSHOT_NAMES:
                return (
                    f"{where} materializes a graph snapshot per sample "
                    f"({chain}()); read the live O(1) counters instead"
                )
            return None
        it: ast.expr | None = None
        if isinstance(node, ast.For):
            it = node.iter
        elif isinstance(node, ast.comprehension):
            it = node.iter
        if it is None:
            return None
        chain = attr_chain(it)
        if chain is None and isinstance(it, ast.Call):
            chain = attr_chain(it.func)
        if chain is not None and _SCAN_ATTRS & set(chain.split(".")):
            return (
                f"{where} iterates {chain} — an O(n) full scan per "
                "sample; read the engine's O(1) lifecycle/graph counters"
            )
        return None


#: key/element expressions that carry a Ref by name (``ref``, ``info.ref``).
def _ref_valued(expr: ast.AST) -> bool:
    """Whether *expr* IS a reference (not merely mentions one).

    A bare name or attribute whose leaf mentions ``ref`` is a Ref; a
    call wrapping it (``pid_of(ref)``, ``slot_of[ref]``) or an attribute
    projecting an int field (``ref.pid``) already did the right thing
    and is not flagged.
    """
    if isinstance(expr, ast.Name):
        return "ref" in expr.id.lower()
    if isinstance(expr, ast.Attribute):
        return "ref" in expr.attr.lower()
    if isinstance(expr, ast.Tuple):
        return any(_ref_valued(elt) for elt in expr.elts)
    return False


#: iteration sources that yield one item per pending/delivered message.
_MESSAGE_SOURCE_RE = re.compile(r"(channel|message|msgs|inbox|args)", re.IGNORECASE)


class RefKeyedContainerOnStepPath(Rule):
    id = "PERF004"
    title = "no Ref-keyed containers or per-message allocation on the step path"
    rationale = (
        "The struct-of-arrays core keys every table by int pid/slot; a "
        "dict or set constructed over Ref objects inside the step loop "
        "re-introduces per-message object hashing and allocation, which "
        "is exactly what the tagged-int refactor removed (and what the "
        "verify-mode differential cannot see — it is a pure perf "
        "regression). Key by pid_of(ref)/slot instead. Likewise, "
        "constructing an object per message inside a loop over a "
        "channel or message buffer allocates on every delivery; hoist "
        "the object out or operate on the packed int records."
    )

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        for fn in project.functions.values():
            if fn.module is not module or not project.is_step_reachable(fn.qualname):
                continue
            yield from self._ref_keyed(module, fn)
            yield from self._per_message_allocs(module, project, fn)

    def _ref_keyed(self, module: Module, fn) -> Iterator[Finding]:
        for node in _own_statements(fn.node):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is not None and _ref_valued(key):
                        yield self.finding(
                            module,
                            node,
                            f"Ref-keyed dict literal in step-path function "
                            f"{fn.name!r}; key by pid_of(ref)/slot",
                        )
                        break
            elif isinstance(node, ast.DictComp):
                if _ref_valued(node.key):
                    yield self.finding(
                        module,
                        node,
                        f"Ref-keyed dict comprehension in step-path "
                        f"function {fn.name!r}; key by pid_of(ref)/slot",
                    )
            elif isinstance(node, ast.Set):
                if any(_ref_valued(elt) for elt in node.elts):
                    yield self.finding(
                        module,
                        node,
                        f"set of Refs constructed in step-path function "
                        f"{fn.name!r}; collect pids/slots instead",
                    )
            elif isinstance(node, ast.SetComp):
                if _ref_valued(node.elt):
                    yield self.finding(
                        module,
                        node,
                        f"set of Refs constructed in step-path function "
                        f"{fn.name!r}; collect pids/slots instead",
                    )
            elif isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if (
                    chain in {"dict", "set", "frozenset"}
                    and node.args
                    and _ref_valued(node.args[0])
                ):
                    yield self.finding(
                        module,
                        node,
                        f"{chain}() built over Refs in step-path function "
                        f"{fn.name!r}; key by pid_of(ref)/slot",
                    )

    def _per_message_allocs(
        self, module: Module, project: Project, fn
    ) -> Iterator[Finding]:
        seen: set[tuple[int, int]] = set()  # nested loops walk bodies twice
        for node in _own_statements(fn.node):
            body: list[ast.stmt] | list[ast.expr]
            if isinstance(node, ast.For):
                source, body = node.iter, node.body
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                source = node.generators[0].iter
                body = (
                    [node.key, node.value]
                    if isinstance(node, ast.DictComp)
                    else [node.elt]
                )
            else:
                continue
            chain = attr_chain(source)
            if chain is None and isinstance(source, ast.Call):
                chain = attr_chain(source.func)
            if chain is None or not _MESSAGE_SOURCE_RE.search(chain):
                continue
            for stmt in body:
                for sub in ast.walk(stmt):
                    if not isinstance(sub, ast.Call):
                        continue
                    cls = project.resolve_class(module, sub)
                    if cls is None:
                        continue
                    if project.is_exception_class(cls) or project.is_enum_like(cls):
                        continue
                    where = (sub.lineno, sub.col_offset)
                    if where in seen:
                        continue
                    seen.add(where)
                    yield self.finding(
                        module,
                        sub,
                        f"{cls.name!r} allocated per message (loop over "
                        f"{chain}) in step-path function {fn.name!r}; "
                        "hoist the object or use the packed records",
                    )
