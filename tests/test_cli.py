"""Command-line interface tests (every subcommand exercised)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_topology_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fdp", "--topology", "nonsense"])

    def test_defaults(self):
        args = build_parser().parse_args(["fdp"])
        assert args.n == 16
        assert args.oracle == "single"


class TestCommands:
    def test_fdp_converges(self, capsys):
        rc = main(
            ["fdp", "--n", "10", "--topology", "ring", "--leaving", "0.3",
             "--seed", "2", "--corruption", "0.4", "--monitor"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged : ✓" in out
        assert "final Φ   : 0" in out

    def test_fdp_never_oracle_fails_to_converge(self, capsys):
        rc = main(
            ["fdp", "--n", "8", "--topology", "ring", "--oracle", "never",
             "--max-steps", "4000"]
        )
        assert rc == 1
        assert "✗" in capsys.readouterr().out

    def test_fsp(self, capsys):
        rc = main(["fsp", "--n", "10", "--topology", "star", "--leaving", "0.3",
                   "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "hibernating" in out

    def test_overlay(self, capsys):
        rc = main(
            ["overlay", "--n", "8", "--protocol", "clique", "--topology", "line"]
        )
        assert rc == 0
        assert "clique" in capsys.readouterr().out

    def test_framework(self, capsys):
        rc = main(
            ["framework", "--n", "8", "--protocol", "star", "--topology",
             "ring", "--leaving", "0.25", "--seed", "3"]
        )
        assert rc == 0

    def test_baseline(self, capsys):
        rc = main(
            ["baseline", "--n", "8", "--topology", "bidirected_line",
             "--leaving", "0.25", "--seed", "1"]
        )
        assert rc == 0

    def test_transform(self, capsys):
        rc = main(["transform", "--source", "line", "--target", "star", "--n", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified" in out

    def test_scheduler_choices(self, capsys):
        for sched in ("random", "oldest", "adversarial", "sync"):
            rc = main(
                ["fdp", "--n", "6", "--topology", "ring", "--leaving", "0.2",
                 "--scheduler", sched]
            )
            assert rc == 0


class TestListings:
    def test_topologies(self, capsys):
        assert main(["topologies"]) == 0
        assert "lollipop" in capsys.readouterr().out

    def test_overlays(self, capsys):
        assert main(["overlays"]) == 0
        out = capsys.readouterr().out
        assert "linearization" in out and "needs total order" in out

    def test_oracles(self, capsys):
        assert main(["oracles"]) == 0
        assert "single" in capsys.readouterr().out


class TestChaosCommands:
    def test_chaos_run_converges(self, capsys, tmp_path):
        rc = main(
            ["chaos", "run", "--n", "10", "--leaving", "0.3", "--seed", "5",
             "--corruption", "0.5", "--inject-every", "100",
             "--injections", "2", "--monitor",
             "--capsule-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged" in out
        assert list(tmp_path.iterdir()) == []  # no failure, no capsule

    def test_chaos_run_framework_with_monitor(self, capsys, tmp_path):
        """--monitor on a framework scenario must not attach the Lemma 3
        monitor (Φ legitimately rises while verify copies beliefs)."""
        rc = main(
            ["chaos", "run", "--scenario", "framework", "--protocol", "ring",
             "--n", "8", "--leaving", "0.25", "--seed", "5",
             "--corruption", "0.5", "--inject-every", "100",
             "--injections", "2", "--monitor",
             "--capsule-dir", str(tmp_path)]
        )
        assert rc == 0
        assert "converged" in capsys.readouterr().out

    def test_chaos_run_budget_writes_capsule_and_replays(self, capsys, tmp_path):
        rc = main(
            ["chaos", "run", "--n", "10", "--leaving", "0.3", "--seed", "5",
             "--corruption", "0.5", "--injections", "0",
             "--max-steps", "64", "--capsule-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert rc == 1  # budget exhausted
        (capsule_path,) = list(tmp_path.iterdir())
        assert "capsule" in out
        rc = main(["capsule", "replay", str(capsule_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bit-identical" in out

    def test_chaos_shrink_cli(self, capsys, tmp_path):
        # seed a reproducible (seed-independent) failure: the backlog
        # bound set far below the scenario's working set.
        from repro.chaos import BacklogWatchdog, run_chaos

        captured = run_chaos(
            {"scenario": "fdp", "n": 10, "topology": "random_connected",
             "leaving": 0.3, "seed": 9, "corruption": 0.8},
            watchdogs=[BacklogWatchdog(check_every=1, max_pending=8)],
            max_steps=4_000,
            capsule_dir=str(tmp_path),
        )
        assert captured.outcome == "watchdog"
        out_dir = tmp_path / "minimized"
        rc = main(
            ["chaos", "shrink", captured.capsule_path, "--out-dir", str(out_dir)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "shrink" in out
        assert list(out_dir.iterdir())

    def test_chaos_soak_quick(self, capsys):
        rc = main(
            ["chaos", "soak", "--quick", "--n", "8", "--max-steps", "30000",
             "--inject-every", "200"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 failures" in out

    def test_chaos_soak_core_column(self, capsys, monkeypatch):
        """On the core, the fdp and fsp cells say they ran core batches;
        the framework cells name why they could not."""
        monkeypatch.setenv("REPRO_ENGINE_MODE", "soa")
        rc = main(
            ["chaos", "soak", "--quick", "--n", "8", "--max-steps", "30000",
             "--inject-every", "200"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        rows = {
            cells[0]: cells[-1]
            for line in out.splitlines()
            if len(cells := [c.strip() for c in line.split("|")]) == 8
        }
        assert rows["fdp"] == rows["fsp"] == "core"
        assert rows["ring"] == "non-FDP/FSP population (FrameworkProcess)"
