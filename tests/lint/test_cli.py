"""CLI contract of ``repro lint``: exit codes, output formats, selection,
and the ``# repro: noqa[RULE]`` suppression syntax."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.lint.runner import lint_paths
from tests.lint.conftest import FIXTURES

BAD = str(FIXTURES / "ref003_bad.py")
GOOD = str(FIXTURES / "ref003_good.py")

#: ids of rules the analyzer no longer ships (docs/LINT.md "Retired rules").
RETIRED = ("DET004", "PERF", "SOA001")


class TestExitCodes:
    def test_clean_file_exits_zero(self, capsys) -> None:
        assert main(["lint", GOOD]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys) -> None:
        assert main(["lint", BAD]) == 1
        out = capsys.readouterr().out
        assert "REF003" in out and "1 finding" in out

    def test_syntax_error_exits_two(self, tmp_path: Path, capsys) -> None:
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        assert main(["lint", str(broken)]) == 2
        assert "LINT000" in capsys.readouterr().out

    def test_unknown_selector_exits_two(self, capsys) -> None:
        for selector in ("NOPE", *RETIRED):
            assert main(["lint", GOOD, "--select", selector]) == 2, selector
            assert "LINT001" in capsys.readouterr().out


class TestOutput:
    def test_json_format(self, capsys) -> None:
        assert main(["lint", BAD, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "REF003"
        assert finding["path"].endswith("ref003_bad.py")
        assert finding["line"] > 0

    def test_text_format_has_location(self, capsys) -> None:
        main(["lint", BAD])
        out = capsys.readouterr().out
        assert "ref003_bad.py:" in out

    def test_list_rules(self, capsys) -> None:
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REF001", "REF003", "API001", "API003"):
            assert rule_id in out
        for prefix in ("DET", "PERF", "SOA", "ENC"):
            assert prefix not in out


class TestSelection:
    def test_select_excludes_other_families(self, capsys) -> None:
        assert main(["lint", BAD, "--select", "API"]) == 0

    def test_ignore_silences_family(self, capsys) -> None:
        assert main(["lint", BAD, "--ignore", "REF"]) == 0

    def test_family_prefix_selects_members(self, capsys) -> None:
        assert main(["lint", BAD, "--select", "REF"]) == 1


class TestNoqa:
    def _lint_text(self, tmp_path: Path, text: str) -> list[str]:
        path = tmp_path / "snippet.py"
        path.write_text(text)
        result = lint_paths([str(path)])
        assert not result.errors
        return [f.rule for f in result.findings]

    SNIPPET = (
        "class P(Process):\n"
        "    def on_ping(self, ctx, ref):\n"
        "        return ref is self.self_ref{noqa}\n"
    )

    def test_unsuppressed_fires(self, tmp_path: Path) -> None:
        assert self._lint_text(tmp_path, self.SNIPPET.format(noqa="")) == ["REF003"]

    def test_exact_rule_suppression(self, tmp_path: Path) -> None:
        text = self.SNIPPET.format(noqa="  # repro: noqa[REF003]")
        assert self._lint_text(tmp_path, text) == []

    def test_family_prefix_suppression(self, tmp_path: Path) -> None:
        text = self.SNIPPET.format(noqa="  # repro: noqa[REF]")
        assert self._lint_text(tmp_path, text) == []

    def test_blanket_suppression(self, tmp_path: Path) -> None:
        text = self.SNIPPET.format(noqa="  # repro: noqa")
        assert self._lint_text(tmp_path, text) == []

    def test_other_rule_does_not_suppress(self, tmp_path: Path) -> None:
        text = self.SNIPPET.format(noqa="  # repro: noqa[REF001]")
        assert self._lint_text(tmp_path, text) == ["REF003"]

    def test_suppression_is_line_scoped(self, tmp_path: Path) -> None:
        text = "# repro: noqa[REF003]\n" + self.SNIPPET.format(noqa="")
        assert self._lint_text(tmp_path, text) == ["REF003"]

    def test_comma_list_suppresses_each_named_rule(self, tmp_path: Path) -> None:
        text = self.SNIPPET.format(noqa="  # repro: noqa[API001, REF003]")
        assert self._lint_text(tmp_path, text) == []


class TestNoqaHygiene:
    """LINT002: a suppression that names no real rule warns, never silences."""

    def _lint_text(self, tmp_path: Path, text: str) -> list[str]:
        path = tmp_path / "snippet.py"
        path.write_text(text)
        result = lint_paths([str(path)])
        assert not result.errors
        return [f.rule for f in result.findings]

    SNIPPET = TestNoqa.SNIPPET

    def test_lowercase_id_warns_and_does_not_suppress(self, tmp_path: Path) -> None:
        # the old strict regex fell back to matching the bare ``noqa``
        # prefix here, silently blanket-suppressing the whole line
        text = self.SNIPPET.format(noqa="  # repro: noqa[ref003]")
        assert sorted(self._lint_text(tmp_path, text)) == ["LINT002", "REF003"]

    def test_unknown_rule_id_warns_and_does_not_suppress(
        self, tmp_path: Path
    ) -> None:
        # a retired rule's id is as unknown as a typo: a leftover
        # suppression of it warns instead of lingering unreported
        for rule_id in ("ZZZ001", *RETIRED):
            text = self.SNIPPET.format(noqa=f"  # repro: noqa[{rule_id}]")
            found = sorted(self._lint_text(tmp_path, text))
            assert found == ["LINT002", "REF003"], rule_id

    def test_empty_bracket_list_warns(self, tmp_path: Path) -> None:
        text = self.SNIPPET.format(noqa="  # repro: noqa[]")
        assert sorted(self._lint_text(tmp_path, text)) == ["LINT002", "REF003"]

    def test_mixed_list_suppresses_known_and_warns_on_unknown(
        self, tmp_path: Path
    ) -> None:
        text = self.SNIPPET.format(noqa="  # repro: noqa[REF003, ZZZ001]")
        assert self._lint_text(tmp_path, text) == ["LINT002"]

    def test_bare_noqa_never_warns(self, tmp_path: Path) -> None:
        text = self.SNIPPET.format(noqa="  # repro: noqa")
        assert self._lint_text(tmp_path, text) == []

    def test_hygiene_warning_alone_exits_one(self, tmp_path: Path, capsys) -> None:
        path = tmp_path / "clean_but_sloppy.py"
        path.write_text("x = 1  # repro: noqa[ZZZ001]\n")
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "LINT002" in out and "ZZZ001" in out

    def test_hygiene_warning_survives_selection(self, tmp_path: Path) -> None:
        # LINT002 rides along even when the selector excludes everything
        path = tmp_path / "snippet.py"
        path.write_text("x = 1  # repro: noqa[ZZZ001]\n")
        result = lint_paths([str(path)], select=("REF",))
        assert [f.rule for f in result.findings] == ["LINT002"]


class TestGithubFormat:
    def test_annotation_shape(self, capsys) -> None:
        assert main(["lint", BAD, "--format", "github"]) == 1
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines() if ln.startswith("::error"))
        assert line.startswith("::error file=")
        assert ",line=" in line and ",col=" in line
        assert ",title=REF003::" in line

    def test_clean_run_emits_no_annotations(self, capsys) -> None:
        assert main(["lint", GOOD, "--format", "github"]) == 0
        out = capsys.readouterr().out
        assert "::error" not in out
        assert "0 findings" in out


class TestCache:
    def test_warm_run_replays_identical_findings(self, tmp_path: Path) -> None:
        cache = tmp_path / "cache.json"
        cold = lint_paths([BAD, GOOD], cache_path=str(cache))
        assert cold.stats["cache_misses"] == cold.stats["files"]
        warm = lint_paths([BAD, GOOD], cache_path=str(cache))
        assert warm.stats["cache_hits"] == warm.stats["files"]
        assert warm.stats["cache_misses"] == 0
        assert [f.to_dict() for f in warm.findings] == [
            f.to_dict() for f in cold.findings
        ]

    def test_edited_file_invalidates_cache(self, tmp_path: Path) -> None:
        src = tmp_path / "snippet.py"
        src.write_text("x = 1\n")
        cache = tmp_path / "cache.json"
        assert lint_paths([str(src)], cache_path=str(cache)).findings == []
        src.write_text(TestNoqa.SNIPPET.format(noqa=""))
        fresh = lint_paths([str(src)], cache_path=str(cache))
        assert fresh.stats["cache_hits"] == 0
        assert [f.rule for f in fresh.findings] == ["REF003"]

    def test_selector_change_invalidates_cache(self, tmp_path: Path) -> None:
        cache = tmp_path / "cache.json"
        lint_paths([BAD], cache_path=str(cache))
        narrowed = lint_paths([BAD], select=("API",), cache_path=str(cache))
        assert narrowed.stats["cache_hits"] == 0
        assert narrowed.findings == []

    def test_corrupt_cache_is_ignored(self, tmp_path: Path) -> None:
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        result = lint_paths([BAD], cache_path=str(cache))
        assert [f.rule for f in result.findings] == ["REF003"]

    def test_stats_flag_prints_timing(self, tmp_path: Path, capsys) -> None:
        cache = tmp_path / "cache.json"
        main(["lint", GOOD, "--cache", str(cache), "--stats"])
        out = capsys.readouterr().out
        assert "[lint]" in out and "ms" in out and "cache:" in out
