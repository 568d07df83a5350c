"""Per-rule fixture tests: one known-bad and one known-good file each.

The bad fixture must trigger its rule; the good twin must be *fully*
clean (no rule fires at all) — that keeps the analyzer's false-positive
budget at zero by construction.
"""

from __future__ import annotations

import pytest

from tests.lint.conftest import fixture_findings

RULES = [
    "REF001",
    "REF002",
    "REF003",
    "API001",
    "API002",
    "API003",
]


@pytest.mark.parametrize("rule", RULES)
def test_bad_fixture_triggers_rule(rule: str) -> None:
    findings = fixture_findings(f"{rule.lower()}_bad.py")
    assert rule in findings, f"{rule} did not fire: {findings}"


@pytest.mark.parametrize("rule", RULES)
def test_good_fixture_is_clean(rule: str) -> None:
    findings = fixture_findings(f"{rule.lower()}_good.py")
    assert findings == [], f"good fixture not clean: {findings}"


def test_api002_flags_assignment_and_mutator() -> None:
    assert fixture_findings("api002_bad.py").count("API002") == 2


def test_registry_is_complete() -> None:
    from repro.lint.model import rule_registry
    from repro.lint.rules import ALL_RULES

    registry = rule_registry(ALL_RULES)
    assert sorted(registry) == sorted(RULES)
    for rule in registry.values():
        assert rule.title and rule.rationale
