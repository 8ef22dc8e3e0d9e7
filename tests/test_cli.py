"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "E3"])
        assert args.experiment == "E3"
        assert args.fast is False

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.scheme == "hdr"
        assert args.profile == "small"


class TestCommands:
    def test_experiments_lists_all(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("E1", "E4", "E8"):
            assert exp_id in out

    def test_trace_stats(self, capsys):
        assert main(["trace-stats", "small"]) == 0
        out = capsys.readouterr().out
        assert "small" in out
        assert "contacts" in out

    def test_trace_stats_unknown_profile(self, capsys):
        assert main(["trace-stats", "nope"]) == 2

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "E99"]) == 2

    def test_run_single_experiment_fast(self, capsys):
        assert main(["run", "e1", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out

    def test_analyze_trace(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        lines = []
        for k in range(6):
            lines.append(f"0 1 {k * 100} {k * 100 + 5}")
            lines.append(f"1 2 {k * 100 + 50} {k * 100 + 55}")
        path.write_text("\n".join(lines) + "\n")
        assert main(["analyze-trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "contacts" in out
        assert "centrality" in out

    def test_simulate(self, capsys):
        code = main([
            "simulate", "--scheme", "source", "--days", "1",
            "--caching-nodes", "3", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "freshness" in out
        assert "queries issued" in out


class TestTraceDirectory:
    """Every command with ``--trace`` refuses a file in a missing
    directory before it does any work."""

    @pytest.mark.parametrize("command", [
        ["run", "E4", "--fast"],
        ["scenario", "run", "quickstart"],
        ["simulate", "--days", "1"],
        ["predict", "--fast"],
        ["serve", "--days", "1", "--http", "off"],
    ], ids=["run", "scenario-run", "simulate", "predict", "serve"])
    def test_missing_directory_refused_up_front(self, command, capsys,
                                                tmp_path, monkeypatch):
        import repro.experiments.runner as runner

        def no_work(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(runner, "prepare", no_work)
        monkeypatch.setattr(runner, "make_trace", no_work)
        missing = tmp_path / "missing-dir" / "x.jsonl"
        assert main([*command, "--trace", str(missing)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: --trace ")
        assert "does not exist" in out
        assert not missing.parent.exists()

