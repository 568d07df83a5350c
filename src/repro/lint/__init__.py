"""``repro lint`` — AST-based model-conformance analyzer.

Static checks (stdlib ``ast`` only, no third-party dependencies) that
enforce the paper's model, which no executed test states: the
copy-store-send reference discipline and reversal bookkeeping (REF0xx)
and the class-𝒫 interaction grammar (API0xx). Determinism and step-path
cost are checked by running the code instead (docs/LINT.md "Retired
rules").

See docs/LINT.md for the rule catalogue and suppression syntax
(``# repro: noqa[REF002]``).
"""

from __future__ import annotations

from repro.lint.model import Finding, Module, Rule, parse_module
from repro.lint.rules import ALL_RULES
from repro.lint.runner import LintResult, lint_paths, run_lint

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintResult",
    "Module",
    "Rule",
    "lint_paths",
    "parse_module",
    "run_lint",
]
