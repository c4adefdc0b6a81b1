"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "votes"])
        assert args.engine == "nuts"
        assert args.chains == 4

    def test_batch_width_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "votes", "--batch", "--batch-width", "8"]
            )
        assert "--batch-width" in capsys.readouterr().err

    def test_subsample_platform_choices(self):
        args = build_parser().parse_args(
            ["subsample", "tickets", "--platform", "broadwell"]
        )
        assert args.platform == "broadwell"

    def test_submit_remote_flags(self):
        args = build_parser().parse_args([
            "submit", "votes", "--remote", "http://localhost:8080",
            "--token", "abc", "--wait",
        ])
        assert args.remote == "http://localhost:8080"
        assert args.token == "abc"
        assert args.wait

    def test_serve_http_flags(self):
        args = build_parser().parse_args([
            "serve", "--http", "0", "--token", "a", "--token", "b",
            "--rate-limit", "2.5", "--burst", "4",
        ])
        assert args.http == 0
        assert args.tokens == ["a", "b"]
        assert args.rate_limit == 2.5
        assert args.burst == 4

    def test_metrics_snapshots_accumulate(self):
        args = build_parser().parse_args([
            "metrics", "--snapshot", "a.json", "--snapshot", "b.json",
        ])
        assert args.snapshots == ["a.json", "b.json"]


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "12cities" in out
        assert "survival" in out

    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "i7-6700K" in out
        assert "E5-2697A v4" in out

    def test_census(self, capsys):
        assert main(["census"]) == 0
        out = capsys.readouterr().out
        assert "gaussian" in out
        assert "erf" in out

    def test_run_small(self, capsys):
        # Every gradient-free engine the registry names is reachable here
        # (``slice`` once died in argparse: the choices were hard-coded).
        for engine in ("mh", "slice"):
            code = main([
                "run", "disease", "--iterations", "60", "--chains", "2",
                "--scale", "0.25", "--engine", engine,
            ])
            assert code == 0
            out = capsys.readouterr().out
            assert f"with {engine}" in out
            assert "R-hat" in out
            assert "rhat" in out  # summary header

    def test_run_one_chain_prints_nan_rhat(self, capsys):
        """One chain has no between-chain variance: R-hat is ``nan``, not
        a traceback after the sampling is done."""
        code = main([
            "run", "12cities", "--iterations", "40", "--chains", "1",
            "--scale", "0.25", "--engine", "mh",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "R-hat (worst): nan" in out
        assert out.splitlines()[-1].split()[-1] == "nan"

    @pytest.mark.parametrize("engine", ["hmc", "nuts", "mh", "slice"])
    def test_run_batch_reports_the_same_run(self, capsys, engine):
        """``repro run`` evaluates its chains in one round loop, which
        changes how they are evaluated, not what they draw: the R-hat /
        divergences / work line is ``run_chains``' run's. Every engine runs
        as batched replays (mh/slice lanes through the value program)."""
        from repro.diagnostics import max_rhat
        from repro.inference import build_engine, run_chains
        from repro.suite import load_workload

        assert main([
            "run", "12cities", "--iterations", "40", "--chains", "3",
            "--scale", "0.25", "--engine", engine,
        ]) == 0
        out = capsys.readouterr().out
        (headline,) = [l for l in out.splitlines() if l.startswith("R-hat")]
        solo = run_chains(
            load_workload("12cities", scale=0.25), build_engine(engine),
            n_iterations=40, n_chains=3, seed=0,
        )
        assert headline == (
            f"R-hat (worst): {max_rhat(solo.stacked()):.3f}   "
            f"divergences: {solo.divergences}   "
            f"work: {solo.total_work:.0f} gradient evals"
        )
        assert "[3 chains]" in out
        (rounds,) = [l for l in out.splitlines() if l.startswith("batched rounds:")]
        assert "occupancy:" in rounds
        assert int(rounds.split()[2]) > 0

    @pytest.mark.slow
    def test_elide_small(self, capsys):
        code = main([
            "elide", "butterfly", "--iterations", "120", "--scale", "0.25",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "butterfly" in out


class TestServeCommands:
    def _submit(self, queue_dir, workload="votes", seed=0, priority=0,
                engine="mh"):
        return main([
            "submit", workload, "--engine", engine, "--iterations", "40",
            "--chains", "2", "--seed", str(seed), "--no-elide",
            "--priority", str(priority), "--queue-dir", str(queue_dir),
        ])

    def test_submit_appends_to_queue(self, tmp_path, capsys):
        assert self._submit(tmp_path, seed=0) == 0
        assert self._submit(tmp_path, seed=1, engine="slice") == 0
        queue_file = tmp_path / "queue.jsonl"
        lines = queue_file.read_text().splitlines()
        assert len(lines) == 2
        assert '"slice"' in lines[1]
        assert "queued votes" in capsys.readouterr().out

    def test_serve_requires_drain(self, tmp_path, capsys):
        assert main(["serve", "--queue-dir", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert "--drain" in out
        assert "--http" in out

    def test_serve_without_queue_fails(self, tmp_path, capsys):
        code = main(["serve", "--drain", "--queue-dir", str(tmp_path)])
        assert code == 1
        assert "repro submit" in capsys.readouterr().out

    def test_submit_then_drain(self, tmp_path, capsys):
        self._submit(tmp_path, seed=0, priority=1)
        self._submit(tmp_path, seed=1)
        self._submit(tmp_path, seed=0)  # duplicate of the first
        capsys.readouterr()
        code = main([
            "serve", "--drain", "--queue-dir", str(tmp_path),
            "--workers", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        # Two distinct jobs ran; the duplicate folded onto the first, which
        # is not an answer from the result store.
        assert "draining 2 job(s) (0 answered from the result store)" in out
        assert out.count(" done ") >= 2
        # Processed submissions leave the queue; results persist on disk.
        assert (tmp_path / "queue.jsonl").read_text() == ""
        assert len(list((tmp_path / "results").glob("*.pkl"))) == 2
        # A re-drain after re-submitting is answered from the result store.
        self._submit(tmp_path, seed=0)
        capsys.readouterr()
        code = main([
            "serve", "--drain", "--queue-dir", str(tmp_path),
            "--workers", "2",
        ])
        assert code == 0
        assert "1 answered from the result store" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [
        ["--no-placement"], ["--calibration-iterations", "10"],
    ])
    def test_serve_has_no_placement_knobs(self, flag, capsys):
        """The service places no job, so it has no placement knob."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--drain", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestMetricsCommand:
    def _snapshot(self, path, count):
        from repro.telemetry.exposition import write_snapshot
        from repro.telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("repro_serve_jobs_total",
                         {"state": "done"}).inc(count)
        registry.gauge("repro_serve_queue_depth").set(count)
        write_snapshot(str(path), registry)

    def test_missing_snapshot_errors(self, tmp_path, capsys):
        code = main(["metrics", "--queue-dir", str(tmp_path)])
        assert code == 1
        assert "no metrics snapshot" in capsys.readouterr().err

    def test_single_snapshot_renders(self, tmp_path, capsys):
        self._snapshot(tmp_path / "metrics.json", 3)
        code = main(["metrics", "--queue-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert 'repro_serve_jobs_total{state="done"} 3' in out

    def test_multiple_snapshots_merge(self, tmp_path, capsys):
        self._snapshot(tmp_path / "a.json", 3)
        self._snapshot(tmp_path / "b.json", 5)
        code = main([
            "metrics",
            "--snapshot", str(tmp_path / "a.json"),
            "--snapshot", str(tmp_path / "b.json"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        # Counters sum across snapshots; gauges last-write-win.
        assert 'repro_serve_jobs_total{state="done"} 8' in out
        assert "repro_serve_queue_depth 5" in out

    def test_one_missing_of_many_errors(self, tmp_path, capsys):
        self._snapshot(tmp_path / "a.json", 1)
        code = main([
            "metrics",
            "--snapshot", str(tmp_path / "a.json"),
            "--snapshot", str(tmp_path / "missing.json"),
        ])
        assert code == 1
        assert "missing.json" in capsys.readouterr().err
