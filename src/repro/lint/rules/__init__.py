"""Rule registry for ``repro lint``.

Adding a rule: implement a :class:`repro.lint.model.Rule` subclass in
the matching family module (or a new one), append it to ``ALL_RULES``,
document it in docs/LINT.md, and add a known-good + known-bad fixture
pair under tests/lint/fixtures/.
"""

from __future__ import annotations

from repro.lint.model import Rule
from repro.lint.rules.grammar import (
    ForeignStateMutation,
    LifecycleOwnership,
    LogicSurface,
)
from repro.lint.rules.ref_safety import (
    RefConsumption,
    RefIdentityComparison,
    ReversalEviction,
)

__all__ = ["ALL_RULES"]

ALL_RULES: tuple[type[Rule], ...] = (
    RefConsumption,
    ReversalEviction,
    RefIdentityComparison,
    LogicSurface,
    ForeignStateMutation,
    LifecycleOwnership,
)
