"""Tests for the predict-bench CLI."""

import json
import os
import re
import shlex

import pytest

from repro.bench.cli import build_parser, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def documented_commands():
    """Every ``predict-bench`` command in the bash blocks of README.md and
    EXPERIMENTS.md, ``\\`` continuations joined and ``#`` comments dropped."""
    commands = []
    for name in ("README.md", "EXPERIMENTS.md"):
        with open(os.path.join(REPO_ROOT, name), encoding="utf-8") as fh:
            text = fh.read()
        for block in re.findall(r"^```bash\n(.*?)^```", text, re.M | re.S):
            for line in block.replace("\\\n", " ").splitlines():
                argv = shlex.split(line, comments=True)
                if argv[:1] == ["predict-bench"]:
                    commands.append(argv[1:])
    return commands


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.schemes == ["khan2023", "jin2022", "rahman2023"]
        assert args.compressors == ["sz3", "zfp"]
        assert args.bounds == [1e-6, 1e-4]

    def test_custom_flags(self):
        args = build_parser().parse_args(
            ["run", "--schemes", "tao2019", "--shape", "8", "8", "4", "--timesteps", "2"]
        )
        assert args.schemes == ["tao2019"]
        assert args.shape == [8, 8, 4]


    @pytest.mark.parametrize("command", ["run", "collect", "loop"])
    def test_thread_engine_is_not_a_choice(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--engine", "thread"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        assert "thread" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "collect"])
    def test_task_timeout_zero_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--engine", "serial", "--task-timeout", "0"])
        assert exit_info.value.code == 2
        assert "task_timeout must be > 0" in capsys.readouterr().err

    def test_simulate_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--nodes", "1", "4"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'simulate'" in capsys.readouterr().err

    def test_documented_commands_parse(self, capsys):
        """The docs' commands are what users paste: each must parse,
        including the collect command quoted inside ``sbatch``."""
        pending = documented_commands()
        assert len(pending) >= 10
        parsed, failed = 0, []
        while pending:
            argv = pending.pop()
            try:
                args = build_parser().parse_args(argv)
            except SystemExit:
                failed.append(shlex.join(argv))
                continue
            parsed += 1
            if args.command == "sbatch":
                inner = shlex.split(args.collect_command)
                assert inner[0] == "predict-bench"
                pending.append(inner[1:])
        assert failed == [], capsys.readouterr().err
        assert parsed >= 11


class TestCommands:
    def test_list_schemes(self, capsys):
        assert main(["list-schemes"]) == 0
        out = capsys.readouterr().out
        assert "rahman2023" in out and "tao2019" in out

    def test_list_compressors(self, capsys):
        assert main(["list-compressors"]) == 0
        out = capsys.readouterr().out
        for name in ("sz3", "zfp", "szx", "noop"):
            assert name in out

    def test_run_small_json(self, capsys):
        code = main(
            [
                "run",
                "--schemes", "tao2019",
                "--compressors", "szx",
                "--bounds", "1e-4",
                "--shape", "8", "8", "4",
                "--timesteps", "1",
                "--fields", "P", "U",
                "--folds", "2",
                "--json",
            ]
        )
        assert code == 0
        records = json.loads(capsys.readouterr().out)
        methods = {(r["method"], r["compressor"]) for r in records}
        assert ("tao2019", "szx") in methods

    def test_run_table_output(self, capsys):
        code = main(
            [
                "run",
                "--schemes", "khan2023",
                "--compressors", "szx",
                "--bounds", "1e-3",
                "--shape", "8", "8", "4",
                "--timesteps", "1",
                "--fields", "P",
                "--folds", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MedAPE" in out and "szx khan2023" in out

    def test_run_process_engine_with_flush_batching(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--schemes", "tao2019",
                "--compressors", "szx",
                "--bounds", "1e-4",
                "--shape", "8", "8", "4",
                "--timesteps", "1",
                "--fields", "P", "U",
                "--folds", "2",
                "--workers", "2",
                "--engine", "process",
                "--flush-every", "4",
                "--checkpoint", str(tmp_path / "proc.db"),
                "--queue-stats",
                "--json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        records = json.loads(captured.out)
        assert any(r["method"] == "tao2019" for r in records)
        assert "queue[process x2]" in captured.err
        assert "checkpoint=" in captured.err
        # One placement figure, the ledger's affinity map.
        assert captured.err.count("affinity=") == 1
        assert "locality=" not in captured.err

    def test_checkpoint_file_resume(self, tmp_path, capsys):
        argv = [
            "run",
            "--schemes", "tao2019",
            "--compressors", "szx",
            "--bounds", "1e-4",
            "--shape", "8", "8", "4",
            "--timesteps", "1",
            "--fields", "P",
            "--folds", "2",
            "--checkpoint", str(tmp_path / "bench.db"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0  # resumes from the checkpoint cleanly

    def test_run_exits_1_when_nothing_was_collected(self, monkeypatch, capsys):
        from repro.bench.runner import ExperimentRunner

        def fail(self, task, worker=0):
            raise RuntimeError("every task fails")

        monkeypatch.setattr(ExperimentRunner, "run_task", fail)
        with pytest.warns(UserWarning, match="failed after retries"):
            code = main(
                [
                    "run",
                    "--schemes", "tao2019",
                    "--compressors", "szx",
                    "--bounds", "1e-4",
                    "--shape", "8", "8", "4",
                    "--timesteps", "1",
                    "--fields", "P",
                    "--folds", "2",
                    "--max-retries", "0",
                ]
            )
        assert code == 1
        assert "every task fails" in capsys.readouterr().err


class TestGenerateCommand:
    def test_writes_files(self, tmp_path, capsys):
        out_dir = str(tmp_path / "fields")
        code = main(
            [
                "generate", out_dir,
                "--shape", "8", "8", "4",
                "--timesteps", "2",
                "--fields", "P", "QRAIN",
            ]
        )
        assert code == 0
        import os
        files = sorted(os.listdir(out_dir))
        assert files == ["P_t00.npy", "P_t01.npy", "QRAIN_t00.npy", "QRAIN_t01.npy"]


class TestReportCommand:
    def test_report_from_checkpoint_without_recollection(self, tmp_path, capsys):
        ck = str(tmp_path / "campaign.db")
        run_argv = [
            "run",
            "--schemes", "khan2023",
            "--compressors", "szx",
            "--bounds", "1e-4",
            "--shape", "8", "8", "4",
            "--timesteps", "2",
            "--fields", "P", "U", "QRAIN",
            "--folds", "2",
            "--checkpoint", ck,
        ]
        assert main(run_argv) == 0
        capsys.readouterr()
        # Re-evaluate with a different protocol, no recollection.
        assert main([
            "report", ck,
            "--schemes", "khan2023",
            "--compressors", "szx",
            "--folds", "2",
            "--protocol", "in_sample",
        ]) == 0
        out = capsys.readouterr().out
        assert "szx khan2023" in out
        assert "observations" in out

    def test_report_empty_checkpoint_fails_cleanly(self, tmp_path, capsys):
        ck = str(tmp_path / "empty.db")
        from repro.bench import CheckpointStore

        CheckpointStore(ck).close()
        assert main(["report", ck]) == 1
        assert "no observations" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "extra",
        [
            {},
            # What a build with the three data planes persisted.
            {"data_plane": "shm", "bytes_copied": 5242880, "bytes_mapped": 0},
            # The locality counters that once mirrored the affinity ones.
            {"locality_hits": 3, "locality_misses": 1, "locality_rate": 0.75},
        ],
        ids=["new-shape", "old-shape", "locality-keys"],
    )
    def test_report_renders_old_and_new_last_run_stats(self, tmp_path, capsys, extra):
        """A checkpoint's ``last_run_stats`` renders whichever build wrote
        it: stale keys are ignored, and the affinity line appears only
        for an engine that has an affinity map."""
        from repro.bench import CheckpointStore, harness_lines

        stats = {
            "engine": "process",
            "stage_summary": {"queue_wait": 0.0, "execute": 0.5, "checkpoint": 0.1},
            "affinity_hits": 3,
            "affinity_misses": 1,
            "affinity_steals": 0,
            "affinity_hit_rate": 0.75,
            **extra,
        }
        lines = harness_lines(stats)
        assert lines[0].startswith("harness[process]: ")
        assert lines[1:] == ["affinity[process]: 75% (steals 0)"]
        serial = harness_lines({**stats, "engine": "serial"})
        assert len(serial) == 1 and serial[0].startswith("harness[serial]: ")

        ck = str(tmp_path / "campaign.db")
        base = ["--schemes", "khan2023", "--compressors", "szx", "--folds", "2"]
        assert main(["run", *base, "--bounds", "1e-4", "--shape", "8", "8", "4",
                     "--timesteps", "2", "--fields", "P", "U", "--checkpoint", ck]) == 0
        store = CheckpointStore(ck)
        store.set_meta("last_run_stats", json.dumps(stats))
        store.close()
        capsys.readouterr()
        assert main(["report", ck, *base, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["harness"] == stats
        assert main(["report", ck, *base]) == 0
        out = capsys.readouterr().out
        assert lines[0] in out and lines[1] in out and "plane" not in out


#: ``last_run_stats`` exactly as the last build that had a ``thread`` engine
#: persisted it (``run --engine thread --workers 2`` on this campaign).
THREAD_RUN_STATS = {
    "engine": "thread", "requested_engine": "thread",
    "completed": 4, "failed": 0, "retries": 0,
    "stage_summary": {"queue_wait": 0.0, "execute": 0.006987102002312895,
                      "checkpoint": 0.0011215650083613582},
    "affinity_hits": 0, "affinity_misses": 0, "affinity_steals": 0,
    "affinity_hit_rate": 0.0,
}


class TestThreadEngineCheckpoints:
    """Checkpoints outlive engines: one written with ``--engine thread``
    still reports its footer and resumes on the engines that remain."""

    BASE = ["--schemes", "khan2023", "--compressors", "szx", "--folds", "2"]
    CAMPAIGN = ["--bounds", "1e-4", "--shape", "8", "8", "4", "--timesteps", "2",
                "--fields", "P", "U"]

    @pytest.fixture
    def checkpoint(self, tmp_path, capsys):
        from repro.bench import CheckpointStore

        ck = str(tmp_path / "thread.db")
        assert main(["run", *self.BASE, *self.CAMPAIGN, "--checkpoint", ck]) == 0
        store = CheckpointStore(ck)
        store.set_meta("last_run_stats", json.dumps(THREAD_RUN_STATS))
        store.close()
        capsys.readouterr()
        return ck

    def test_report_still_renders_the_thread_footer(self, checkpoint, capsys):
        footer = "harness[thread]: queue_wait 0.00 ms | execute 6.99 ms | checkpoint 1.12 ms"
        assert main(["report", checkpoint, *self.BASE]) == 0
        out = capsys.readouterr().out
        assert footer in out and "affinity[" not in out
        assert main(["report", checkpoint, *self.BASE, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["harness"] == THREAD_RUN_STATS

    @pytest.mark.parametrize("engine,workers", [("serial", "1"), ("process", "2")])
    def test_resumes_with_nothing_left_to_do(self, checkpoint, capsys, engine, workers):
        assert main(["run", *self.BASE, *self.CAMPAIGN, "--checkpoint", checkpoint,
                     "--engine", engine, "--workers", workers, "--queue-stats"]) == 0
        err = capsys.readouterr().err
        assert f"queue[{engine} x{workers}]" in err and "commits=0" in err


class TestServeCommands:
    def test_serve_and_publish_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--registry", "/tmp/reg", "--port", "7000",
             "--max-batch", "16"]
        )
        assert args.registry == "/tmp/reg"
        assert args.max_batch == 16
        args = build_parser().parse_args(
            ["publish", "ck.db", "--registry", "/tmp/reg",
             "--schemes", "khan2023", "--bounds", "1e-4"]
        )
        assert args.checkpoint == "ck.db"
        assert args.bounds == [1e-4]

    def test_publish_empty_checkpoint_fails_cleanly(self, tmp_path, capsys):
        from repro.bench import CheckpointStore

        ck = str(tmp_path / "empty.db")
        CheckpointStore(ck).close()
        assert main(["publish", ck, "--registry", str(tmp_path / "reg")]) == 1
        assert "no observations" in capsys.readouterr().out

    def test_publish_serve_query_roundtrip(self, tmp_path, capsys):
        db = str(tmp_path / "serve.db")
        assert main(
            [
                "run",
                "--schemes", "khan2023",
                "--compressors", "szx",
                "--bounds", "1e-4",
                "--shape", "8", "8", "4",
                "--timesteps", "2",
                "--fields", "P", "U", "QRAIN",
                "--folds", "2",
                "--checkpoint", db,
            ]
        ) == 0
        capsys.readouterr()

        reg = str(tmp_path / "registry")
        assert main(
            ["publish", db, "--registry", reg,
             "--schemes", "khan2023", "--compressors", "szx"]
        ) == 0
        out = capsys.readouterr().out
        assert "published khan2023 / szx" in out

        from repro.bench import CheckpointStore
        from repro.serve import ModelRegistry, PredictionServer, ServerThread

        row = next(
            dict(o)
            for o in CheckpointStore(db).query()
            if o.get("compressor") == "szx"
        )
        with ServerThread(PredictionServer(ModelRegistry(reg))) as thread:
            host, port = thread.address
            base = ["query", "--host", host, "--port", str(port)]

            assert main(base + ["--models"]) == 0
            models = json.loads(capsys.readouterr().out)
            assert any(m["manifest"]["scheme"] == "khan2023" for m in models)

            assert main(
                base
                + ["--scheme", "khan2023", "--compressor", "szx",
                   "--bound", "1e-4", "--results", json.dumps(row)]
            ) == 0
            response = json.loads(capsys.readouterr().out)
            assert response["status"] == "ok"
            assert response["prediction"] > 0

            assert main(base + ["--stats"]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["completed"] >= 1

            # arg error: a derived key needs all three of scheme/compressor/bound
            assert main(base + ["--scheme", "khan2023"]) == 2
            # server error: unknown key surfaces the server status, exit 1
            assert main(base + ["--key", "f" * 16, "--results", "{}"]) == 1
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert err["status"] == "not_found"


class TestChaosFlags:
    def test_chaos_flags_parse(self):
        args = build_parser().parse_args(
            [
                "run",
                "--chaos", "crash:0.1,hang:0.05",
                "--chaos-seed", "7",
                "--max-retries", "4",
                "--retry-base-delay", "0.5",
                "--task-timeout", "30",
            ]
        )
        assert args.chaos == "crash:0.1,hang:0.05"
        assert args.chaos_seed == 7
        assert args.max_retries == 4
        assert args.retry_base_delay == 0.5
        assert args.task_timeout == 30.0

    def test_chaos_run_recovers(self, tmp_path, capsys):
        db = str(tmp_path / "chaos.db")
        code = main(
            [
                "run",
                "--schemes", "tao2019",
                "--compressors", "szx",
                "--bounds", "1e-4",
                "--shape", "8", "8", "4",
                "--timesteps", "1",
                "--fields", "P", "U",
                "--folds", "2",
                "--checkpoint", db,
                "--chaos", "exception:1.0,corrupt:0.5",
                "--chaos-seed", "3",
                "--max-retries", "2",
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "chaos[seed=3]" in captured.err
        assert "recovery:" in captured.err
        json.loads(captured.out)  # table still renders
        # The recovered checkpoint is whole: nothing pending, no failures.
        from repro.bench import CheckpointStore

        store = CheckpointStore(db)
        assert store.verify() == []
        assert store.failed_keys() == set()

    def test_report_failures_flag(self, tmp_path, capsys):
        from repro.bench import CheckpointStore

        db = str(tmp_path / "led.db")
        with CheckpointStore(db) as store:
            store.put("okkey", {"compressor": "szx", "v": 1})
            store.record_failure("deadkey", "boom", status=5, attempts=1)
        code = main(
            ["report", db, "--failures", "--schemes", "tao2019",
             "--compressors", "szx", "--json"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "failed[5] deadkey" in captured.err


class TestCliSurface:
    def test_parser_matches_the_golden_surface(self):
        """Every option of every subcommand — dest, default, arity,
        choices, type, required — as pinned before the flag groups."""
        from tests import golden_cli_surface as golden

        live = json.loads(json.dumps(golden.current()))
        pinned = golden.load()
        assert sorted(live) == sorted(pinned)
        for command in pinned:
            assert live[command] == pinned[command], command

    def test_every_subcommand_help_renders(self):
        """A stray ``%`` in a help string only fails when help renders."""
        from tests.golden_cli_surface import subparsers

        parser = build_parser()
        assert "predict-bench" in parser.format_help()
        for name, sub in subparsers(parser).items():
            assert sub.format_help().startswith("usage: "), name


#: Launcher variables a cluster test sets or must not inherit.
LAUNCH_ENV = (
    "REPRO_CLUSTER_RANK", "REPRO_CLUSTER_WORLD", "REPRO_CLUSTER_COORD",
    "SLURM_PROCID", "SLURM_NTASKS", "OMPI_COMM_WORLD_RANK",
    "OMPI_COMM_WORLD_SIZE", "PMI_RANK", "PMI_SIZE",
)

#: One timestep of two 8x8x4 fields, one scheme, one configuration.
SMALL_CAMPAIGN = ["--schemes", "tao2019", "--compressors", "szx", "--bounds", "1e-4",
                  "--shape", "8", "8", "4", "--timesteps", "1", "--fields", "P", "U"]


@pytest.fixture
def launch_env(monkeypatch):
    for name in LAUNCH_ENV:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


class TestCollectCommand:
    @pytest.mark.parametrize(
        "engine,workers", [("serial", "1"), ("process", "2"), ("cluster", "2")]
    )
    def test_collect_then_resume(self, tmp_path, capsys, launch_env, engine, workers):
        db = str(tmp_path / "collect.db")
        argv = ["collect", *SMALL_CAMPAIGN, "--checkpoint", db,
                "--engine", engine, "--workers", workers, "--queue-stats"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert re.search(r"^collected 2 observation\(s\) into ", captured.out, re.M)
        assert "completed=2 failed=0" in captured.out
        assert f"queue[{engine} x{workers}]" in captured.err
        if engine == "cluster":
            assert "cluster: rank_deaths=0 rank_restarts=0 " in captured.out
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "collected 2 observation(s)" in captured.out
        assert "completed=0 " in captured.out and "commits=0" in captured.err

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_bad_coordinator_is_a_usage_error_before_any_work(
        self, tmp_path, capsys, launch_env, source
    ):
        """A launched rank 0 with a malformed HOST:PORT exits 2 before
        the dataset is built, whether the address came from ``--coord``
        or from the launcher environment."""
        import repro.bench.cli as cli

        def no_dataset(*args, **kwargs):
            raise AssertionError("the dataset was built before the usage check")

        launch_env.setattr(cli, "HurricaneDataset", no_dataset)
        launch_env.setenv("OMPI_COMM_WORLD_RANK", "0")
        launch_env.setenv("OMPI_COMM_WORLD_SIZE", "2")
        argv = ["collect", *SMALL_CAMPAIGN, "--checkpoint", str(tmp_path / "c.db")]
        if source == "flag":
            argv += ["--coord", "nonsense"]
        else:
            launch_env.setenv("REPRO_CLUSTER_COORD", "nonsense")
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "HOST:PORT" in capsys.readouterr().err


LOOP_CAMPAIGN = ["--schemes", "khan2023", "--compressors", "szx", "--bounds", "1e-4",
                 "--shape", "8", "8", "4", "--fields", "P", "U", "--base-timesteps", "1",
                 "--verify-n", "2"]


class TestLoopCommand:
    def test_rounds_without_servers(self, tmp_path, capsys):
        argv = ["loop", str(tmp_path / "loop.db"), "--registry", str(tmp_path / "reg"),
                *LOOP_CAMPAIGN, "--rounds", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert re.findall(r"^round (\d+): published ", out, re.M) == ["1", "2"]

    def test_crash_loop_cap_fails_the_command(self, tmp_path, capsys):
        argv = ["loop", str(tmp_path / "loop.db"), "--registry", str(tmp_path / "reg"),
                *LOOP_CAMPAIGN, "--chaos", "trainer_kill:1.0",
                "--max-stage-attempts", "2", "--retry-base-delay", "0"]
        assert main(argv) == 1
        assert "rollover failed" in capsys.readouterr().err

    def test_malformed_server_is_a_usage_error(self, tmp_path, capsys):
        argv = ["loop", str(tmp_path / "loop.db"), "--registry", str(tmp_path / "reg"),
                "--servers", "nonsense"]
        assert main(argv) == 2
        assert "HOST:PORT" in capsys.readouterr().err
