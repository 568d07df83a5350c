"""Core data model of the ``repro lint`` static analyzer.

The analyzer is a stdlib-``ast`` pass over the package source: no third
party dependencies, so it runs everywhere the simulator runs (including
the offline CI smoke jobs). The pieces here are shared by every rule:

* :class:`Module` — one parsed source file plus its suppression table;
* :class:`Finding` — one diagnostic, pointing at a file/line/column;
* :class:`Rule` — the interface rules implement, with a registry;
* the ``# repro: noqa[REF002]`` suppression syntax (see docs/LINT.md).

Suppressions are line-scoped and *rule-scoped by prefix*: a comment
``# repro: noqa[REF003]`` silences exactly that rule on its line,
``# repro: noqa[REF]`` silences the whole family, and a bare
``# repro: noqa`` silences everything. Justified suppressions are part
of the contract — each one in the tree states the invariant that makes
the flagged code safe.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.callgraph import Project

__all__ = [
    "Finding",
    "Module",
    "NOQA_TOKEN_RE",
    "Rule",
    "attr_chain",
    "parse_module",
    "rule_registry",
]

#: ``# repro: noqa`` or ``# repro: noqa[REF002]`` or ``# repro: noqa[REF, API003]``.
#: The bracket group is permissive on purpose: a malformed spec like
#: ``noqa[ref001]`` must be *seen* (and warned about as LINT002), not
#: fall back to matching the bare ``noqa`` prefix — the old strict
#: pattern did exactly that, silently blanket-suppressing every rule on
#: the line.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(\[([^\]]*)\])?")

#: a single well-formed suppression token: a rule id or family prefix.
NOQA_TOKEN_RE = re.compile(r"^[A-Z]+[0-9]*$")


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a rule."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class Module:
    """A parsed source file plus its per-line suppression table."""

    __slots__ = ("path", "name", "tree", "lines", "noqa", "noqa_tokens")

    def __init__(self, path: str, name: str, tree: ast.Module, lines: list[str]):
        self.path = path
        self.name = name
        self.tree = tree
        self.lines = lines
        #: line → frozenset of suppressed rule prefixes; empty set = all.
        self.noqa: dict[int, frozenset[str]] = {}
        #: line → raw bracket tokens as written (for LINT002 validation:
        #: malformed or unknown ids warn instead of silently suppressing).
        self.noqa_tokens: dict[int, tuple[str, ...]] = {}
        for idx, text in enumerate(lines, start=1):
            m = _NOQA_RE.search(text)
            if m is None:
                continue
            if m.group(1) is None:  # bare ``# repro: noqa``
                self.noqa[idx] = frozenset()
                continue
            tokens = tuple(
                tok.strip() for tok in m.group(2).split(",") if tok.strip()
            )
            self.noqa_tokens[idx] = tokens
            valid = frozenset(t for t in tokens if NOQA_TOKEN_RE.match(t))
            # Only well-formed tokens suppress; a spec containing nothing
            # valid suppresses nothing (and the runner warns).
            if valid:
                self.noqa[idx] = valid

    def suppressed(self, finding: Finding) -> bool:
        prefixes = self.noqa.get(finding.line)
        if prefixes is None:
            return False
        if not prefixes:  # bare ``# repro: noqa``
            return True
        return any(finding.rule.startswith(p) for p in prefixes)


def parse_module(path: str, name: str) -> Module | Finding:
    """Parse one file; on a syntax error return a LINT000 finding instead."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(
            rule="LINT000",
            path=path,
            line=exc.lineno or 1,
            col=exc.offset or 0,
            message=f"syntax error: {exc.msg}",
        )
    return Module(path, name, tree, source.splitlines())


class Rule:
    """Base class for analyzer rules.

    Subclasses set the class attributes and implement :meth:`check`.
    ``rationale`` records the shipped bug or paper invariant the rule
    guards — it is surfaced by ``repro lint --list-rules`` and in
    docs/LINT.md so every diagnostic is traceable to its provenance.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: Module, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def rule_registry(rules: Iterable[type[Rule]]) -> dict[str, Rule]:
    """Instantiate rule classes into an id-keyed registry."""
    out: dict[str, Rule] = {}
    for cls in rules:
        inst = cls()
        if not inst.id:
            raise ValueError(f"rule {cls.__name__} has no id")
        if inst.id in out:
            raise ValueError(f"duplicate rule id {inst.id}")
        out[inst.id] = inst
    return out


def attr_chain(node: ast.AST) -> str | None:
    """Render ``a.b.c`` for a Name/Attribute chain, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
