"""File discovery, rule execution, caching, and reporting for ``repro lint``.

Exit codes (CI contract): 0 = clean, 1 = findings, 2 = analysis error
(unparseable file, unknown rule selector).

Caching is per file, keyed by content hash, and *salted* with (a) the
content hash of the lint package itself — editing a rule invalidates
everything — and (b) the fingerprint of the whole discovered file set.
The project fingerprint is what keeps the cache sound in the presence of
whole-program rules (protocol classification by class hierarchy): a
finding in file A can depend on file B, so entries are only replayed
when *no* input changed. That is exactly the common case the cache
exists for (re-runs in CI and pre-commit loops).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from collections.abc import Iterable, Sequence
from typing import TextIO

from repro.lint.callgraph import Project
from repro.lint.model import (
    NOQA_TOKEN_RE,
    Finding,
    Module,
    parse_module,
    rule_registry,
)
from repro.lint.rules import ALL_RULES

__all__ = ["LintResult", "lint_paths", "run_lint"]


def discover_files(paths: Sequence[str]) -> list[str]:
    """Expand files/directories into a sorted list of .py files."""
    out: set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in {"__pycache__", ".git", ".ruff_cache"}
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.add(os.path.join(root, name))
        elif path.endswith(".py"):
            out.add(path)
    return sorted(out)


def module_name_for(path: str) -> str:
    """Derive a dotted module name by walking up through __init__.py dirs."""
    path = os.path.abspath(path)
    parts = [os.path.splitext(os.path.basename(path))[0]]
    parent = os.path.dirname(path)
    while os.path.isfile(os.path.join(parent, "__init__.py")):
        parts.append(os.path.basename(parent))
        parent = os.path.dirname(parent)
    if parts[0] == "__init__":
        parts = parts[1:] or parts
    return ".".join(reversed(parts))


class LintResult:
    """Findings plus the exit code they imply, and run statistics."""

    __slots__ = ("findings", "errors", "stats")

    def __init__(
        self,
        findings: list[Finding],
        errors: list[Finding],
        stats: dict[str, int] | None = None,
    ):
        self.findings = findings
        self.errors = errors
        #: files / cache_hits / cache_misses / elapsed_ms
        self.stats = stats or {}

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.findings else 0


def _selected(rule_id: str, select: Iterable[str], ignore: Iterable[str]) -> bool:
    if any(rule_id.startswith(p) for p in ignore):
        return False
    select = list(select)
    if not select:
        return True
    return any(rule_id.startswith(p) for p in select)


def _noqa_warnings(module: Module, known_ids: Iterable[str]) -> list[Finding]:
    """LINT002: malformed or unknown ids in ``repro: noqa[...]`` specs.

    A suppression that names no real rule suppresses nothing — warning
    (exit 1) instead of silence, so a typo like ``noqa[REF01]`` cannot
    quietly disable the rule it meant to acknowledge.
    """
    known = list(known_ids)
    out: list[Finding] = []
    for line, tokens in sorted(module.noqa_tokens.items()):
        if not tokens:
            out.append(
                Finding(
                    rule="LINT002",
                    path=module.path,
                    line=line,
                    col=0,
                    message=(
                        "empty `repro: noqa[...]` suppression list "
                        "suppresses nothing (use a rule id, a family "
                        "prefix, or bare `repro: noqa`)"
                    ),
                )
            )
            continue
        for token in tokens:
            if not NOQA_TOKEN_RE.match(token):
                out.append(
                    Finding(
                        rule="LINT002",
                        path=module.path,
                        line=line,
                        col=0,
                        message=(
                            f"malformed rule id {token!r} in `repro: noqa` "
                            "suppression (expected e.g. REF002 or a family "
                            "prefix like REF); it suppresses nothing"
                        ),
                    )
                )
            elif not any(rid.startswith(token) for rid in known):
                out.append(
                    Finding(
                        rule="LINT002",
                        path=module.path,
                        line=line,
                        col=0,
                        message=(
                            f"unknown rule id {token!r} in `repro: noqa` "
                            "suppression: no registered rule matches it"
                        ),
                    )
                )
    return out


# --------------------------------------------------------------------------
# per-file result cache


def _hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_hash(path: str) -> str:
    with open(path, "rb") as fh:
        return _hash_bytes(fh.read())


_PACKAGE_SALT: str | None = None


def _package_salt() -> str:
    """Content hash of the lint package itself: rule edits invalidate."""
    global _PACKAGE_SALT
    if _PACKAGE_SALT is None:
        pkg_dir = os.path.dirname(os.path.abspath(__file__))
        digest = hashlib.sha256()
        for path in discover_files([pkg_dir]):
            digest.update(path.encode())
            digest.update(_file_hash(path).encode())
        _PACKAGE_SALT = digest.hexdigest()
    return _PACKAGE_SALT


def _load_cache(cache_path: str | None) -> dict:
    if cache_path is None or not os.path.isfile(cache_path):
        return {}
    try:
        with open(cache_path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {}
    return data if isinstance(data, dict) else {}


def _save_cache(cache_path: str | None, data: dict) -> None:
    if cache_path is None:
        return
    tmp = cache_path + ".tmp"
    try:
        os.makedirs(os.path.dirname(os.path.abspath(cache_path)), exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        os.replace(tmp, cache_path)
    except OSError:
        pass  # caching is best-effort; the lint result stands


def lint_paths(
    paths: Sequence[str],
    *,
    select: Sequence[str] = (),
    ignore: Sequence[str] = (),
    cache_path: str | None = None,
) -> LintResult:
    """Run the analyzer over *paths* and return suppression-filtered findings."""
    started = time.monotonic()
    registry = rule_registry(ALL_RULES)
    known = {rid for rid in registry}
    for prefix in [*select, *ignore]:
        if not any(rid.startswith(prefix) for rid in known):
            return LintResult(
                [],
                [
                    Finding(
                        rule="LINT001",
                        path="<cli>",
                        line=1,
                        col=0,
                        message=f"unknown rule selector {prefix!r}",
                    )
                ],
            )
    files = discover_files(paths)
    hashes = {path: _file_hash(path) for path in files}
    fingerprint = _hash_bytes(
        "\n".join(f"{p}:{hashes[p]}" for p in files).encode()
    )
    salt = _package_salt()
    selector_key = f"select={','.join(select)};ignore={','.join(ignore)}"
    cache = _load_cache(cache_path)
    cache_valid = (
        cache.get("salt") == salt
        and cache.get("fingerprint") == fingerprint
        and cache.get("selectors") == selector_key
    )
    entries = cache.get("files", {}) if cache_valid else {}
    hits = 0
    findings: list[Finding] = []
    errors: list[Finding] = []
    fresh: dict[str, dict] = {}

    cached_paths = [p for p in files if p in entries]
    if len(cached_paths) == len(files):
        # Full replay: every file present under a matching fingerprint.
        for path in files:
            entry = entries[path]
            findings.extend(Finding(**f) for f in entry.get("findings", ()))
            errors.extend(Finding(**f) for f in entry.get("errors", ()))
            hits += 1
        findings.sort(key=Finding.sort_key)
        errors.sort(key=Finding.sort_key)
        elapsed_ms = int((time.monotonic() - started) * 1000)
        return LintResult(
            findings,
            errors,
            {
                "files": len(files),
                "cache_hits": hits,
                "cache_misses": 0,
                "elapsed_ms": elapsed_ms,
            },
        )

    modules: list[Module] = []
    for path in files:
        parsed = parse_module(path, module_name_for(path))
        if isinstance(parsed, Finding):
            errors.append(parsed)
            fresh[path] = {"findings": [], "errors": [parsed.to_dict()]}
        else:
            modules.append(parsed)
    project = Project(modules)
    for module in modules:
        module_findings: list[Finding] = []
        for rule in registry.values():
            if not _selected(rule.id, select, ignore):
                continue
            for finding in rule.check(module, project):
                if not module.suppressed(finding):
                    module_findings.append(finding)
        # Suppression-hygiene warnings ride along unconditionally: they
        # are about the noqa comments themselves, not any selected rule.
        module_findings.extend(_noqa_warnings(module, known))
        findings.extend(module_findings)
        fresh[module.path] = {
            "findings": [f.to_dict() for f in module_findings],
            "errors": [],
        }
    findings.sort(key=Finding.sort_key)
    errors.sort(key=Finding.sort_key)
    _save_cache(
        cache_path,
        {
            "salt": salt,
            "fingerprint": fingerprint,
            "selectors": selector_key,
            "files": fresh,
        },
    )
    elapsed_ms = int((time.monotonic() - started) * 1000)
    return LintResult(
        findings,
        errors,
        {
            "files": len(files),
            "cache_hits": hits,
            "cache_misses": len(files),
            "elapsed_ms": elapsed_ms,
        },
    )


def _render_github(finding: Finding) -> str:
    """One GitHub Actions workflow-command annotation per finding."""
    # Commas and colons are significant in the command header; the
    # message body only needs newline escaping.
    message = finding.message.replace("%", "%25").replace("\n", "%0A")
    return (
        f"::error file={finding.path},line={finding.line},"
        f"col={finding.col},title={finding.rule}::{message}"
    )


def run_lint(
    paths: Sequence[str],
    *,
    select: Sequence[str] = (),
    ignore: Sequence[str] = (),
    output_format: str = "text",
    stream: TextIO | None = None,
    cache_path: str | None = None,
    show_stats: bool = False,
) -> int:
    """CLI entry: lint, report, return the exit code."""
    stream = stream if stream is not None else sys.stdout
    result = lint_paths(
        paths, select=select, ignore=ignore, cache_path=cache_path
    )
    everything = [*result.errors, *result.findings]
    if output_format == "json":
        json.dump(
            {
                "findings": [f.to_dict() for f in everything],
                "count": len(everything),
                "exit_code": result.exit_code,
                "stats": result.stats,
            },
            stream,
            indent=2,
        )
        stream.write("\n")
    elif output_format == "github":
        for finding in everything:
            stream.write(_render_github(finding) + "\n")
        noun = "finding" if len(everything) == 1 else "findings"
        stream.write(f"{len(everything)} {noun}\n")
    else:
        for finding in everything:
            stream.write(finding.render() + "\n")
        noun = "finding" if len(everything) == 1 else "findings"
        stream.write(f"{len(everything)} {noun}\n")
    if show_stats and result.stats:
        s = result.stats
        stream.write(
            f"[lint] {s.get('files', 0)} files in {s.get('elapsed_ms', 0)} ms "
            f"(cache: {s.get('cache_hits', 0)} hits, "
            f"{s.get('cache_misses', 0)} misses)\n"
        )
    return result.exit_code


def list_rules(stream: TextIO | None = None) -> int:
    """Print the rule catalogue (id, title, rationale)."""
    stream = stream if stream is not None else sys.stdout
    for rule in rule_registry(ALL_RULES).values():
        stream.write(f"{rule.id}  {rule.title}\n")
        stream.write(f"        {rule.rationale}\n")
    return 0
