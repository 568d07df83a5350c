"""Regression fixtures for the shipped reversal-without-eviction livelock.

These pin the analyzer to its provenance: run against the PR 2-era code
shape it must find the bug, and against the fixed shapes (including the
real merged tree) it must stay silent. The other bug shipped with it, the
hash-seed-salted ``Ref.__hash__``, is pinned by running it:
``tests/sim/test_hash_seed.py``.
"""

from __future__ import annotations

from repro.lint.runner import lint_paths
from tests.lint.conftest import SRC, fixture_findings


class TestPostprocessRefDrop:
    """The livelock: presumed-leaving ref reversed but never evicted."""

    def test_pr2_era_shape_is_flagged(self) -> None:
        findings = fixture_findings("ref002_bad.py")
        assert "REF002" in findings

    def test_fixed_shape_is_clean(self) -> None:
        assert "REF002" not in fixture_findings("ref002_good.py")

    def test_merged_framework_is_clean(self) -> None:
        result = lint_paths(
            [str(SRC / "repro" / "core" / "framework.py")], select=("REF",)
        )
        assert result.findings == [], [f.render() for f in result.findings]

