"""The sparkscore command-line interface."""

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data"
    rc = main([
        "generate", str(path),
        "--patients", "60", "--snps", "200", "--snpsets", "8",
        "--causal-snps", "3", "--effect-size", "1.0", "--seed", "5",
    ])
    assert rc == 0
    return str(path)


class TestGenerate:
    def test_writes_four_files(self, dataset_dir, capsys):
        import os

        files = sorted(os.listdir(dataset_dir))
        assert files == ["genotypes.txt", "phenotype.txt", "snpsets.txt", "weights.txt"]

    def test_output_mentions_shape(self, tmp_path, capsys):
        main(["generate", str(tmp_path / "d"), "--patients", "10", "--snps", "20",
              "--snpsets", "2"])
        out = capsys.readouterr().out
        assert "20 SNPs x 10 patients" in out

    def test_invalid_params_raise(self, tmp_path):
        with pytest.raises(ValueError):
            main(["generate", str(tmp_path / "x"), "--patients", "1"])


class TestAnalyze:
    def test_monte_carlo_local(self, dataset_dir, capsys):
        rc = main(["analyze", dataset_dir, "--method", "monte-carlo",
                   "--iterations", "200", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "method=monte_carlo" in out
        assert "wall time" in out

    def test_observed(self, dataset_dir, capsys):
        main(["analyze", dataset_dir, "--method", "observed"])
        assert "method=observed" in capsys.readouterr().out

    def test_asymptotic(self, dataset_dir, capsys):
        main(["analyze", dataset_dir, "--method", "asymptotic"])
        assert "method=asymptotic" in capsys.readouterr().out

    def test_permutation(self, dataset_dir, capsys):
        main(["analyze", dataset_dir, "--method", "permutation", "--iterations", "20"])
        assert "method=permutation" in capsys.readouterr().out

    def test_distributed_matches_local(self, dataset_dir, tmp_path, capsys):
        out_local = tmp_path / "local.tsv"
        out_dist = tmp_path / "dist.tsv"
        main(["analyze", dataset_dir, "--iterations", "100", "--seed", "2",
              "--output", str(out_local)])
        main(["analyze", dataset_dir, "--iterations", "100", "--seed", "2",
              "--engine", "distributed", "--backend", "serial",
              "--output", str(out_dist)])
        assert out_local.read_text() == out_dist.read_text()

    def test_tsv_output_columns(self, dataset_dir, tmp_path):
        out = tmp_path / "r.tsv"
        main(["analyze", dataset_dir, "--iterations", "50", "--output", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].split("\t") == ["set", "n_snps", "statistic", "exceed_count", "pvalue"]
        assert len(lines) == 9  # header + 8 sets

    def test_serializer_flag_is_gone(self, dataset_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", dataset_dir, "--engine", "distributed",
                  "--serializer", "compressed"])
        assert exc.value.code == 2  # argparse usage error, not an ignored knob
        assert "--serializer" in capsys.readouterr().err

    def test_backend_is_serial_or_cluster_and_defaults_to_serial(self, dataset_dir, capsys):
        from repro.cli import build_parser

        assert build_parser().parse_args(["analyze", dataset_dir]).backend == "serial"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", dataset_dir, "--engine", "distributed", "--backend", "threads"])
        assert exc.value.code == 2
        assert "argument --backend: invalid choice: 'threads'" in capsys.readouterr().err


class TestMissingInput:
    """A missing input directory or file is one stderr line and exit 2."""

    @pytest.fixture
    def no_genotypes(self, dataset_dir, tmp_path):
        path = tmp_path / "partial"
        shutil.copytree(dataset_dir, path)
        (path / "genotypes.txt").unlink()
        return path

    def run(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        (line,) = captured.err.splitlines()
        return line

    @pytest.mark.parametrize("engine", [
        ["--engine", "local"],
        ["--engine", "distributed", "--backend", "serial"],
    ], ids=["local", "serial"])
    def test_analyze(self, tmp_path, no_genotypes, capsys, engine):
        missing = tmp_path / "nowhere"
        line = self.run(capsys, ["analyze", str(missing), "--iterations", "16", *engine])
        assert line.startswith(f"sparkscore: error: {missing}{os.sep}")
        assert line.endswith(".txt: no such file or directory")
        line = self.run(capsys, ["analyze", str(no_genotypes), "--iterations", "16", *engine])
        assert line == (
            f"sparkscore: error: {no_genotypes / 'genotypes.txt'}: no such file or directory"
        )

    def test_maxt(self, tmp_path, no_genotypes, capsys):
        line = self.run(capsys, ["maxt", str(tmp_path / "nowhere"), "--iterations", "16"])
        assert line.endswith(".txt: no such file or directory")
        line = self.run(capsys, ["maxt", str(no_genotypes), "--iterations", "16"])
        assert line == (
            f"sparkscore: error: {no_genotypes / 'genotypes.txt'}: no such file or directory"
        )


class TestOneShotClusterRun:
    def test_exits_clean_and_matches_serial(self, dataset_dir, tmp_path):
        """Regression: nothing stopped the in-process cluster at interpreter
        exit, so a one-shot run leaked its transport's shared memory and
        the resource tracker said so on stderr."""
        import glob
        import os
        import subprocess
        import sys

        import repro

        analyze = ["analyze", dataset_dir, "--iterations", "64", "--seed", "2",
                   "--engine", "distributed"]
        out_serial = tmp_path / "serial.tsv"
        main(analyze + ["--backend", "serial", "--output", str(out_serial)])

        segments_before = set(glob.glob("/dev/shm/repro-*"))
        out_cluster = tmp_path / "cluster.tsv"
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", *analyze,
             "--backend", "cluster", "--output", str(out_cluster)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "resource_tracker" not in done.stderr, done.stderr
        assert "leaked" not in done.stderr, done.stderr
        assert set(glob.glob("/dev/shm/repro-*")) <= segments_before
        assert out_cluster.read_text() == out_serial.read_text()


class TestMaxt:
    def test_runs_and_reports(self, dataset_dir, capsys):
        rc = main(["maxt", dataset_dir, "--iterations", "300", "--seed", "3", "--top", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "maxT step-down" in out
        assert "significant at FWER" in out

    def test_single_step_flag(self, dataset_dir, capsys):
        main(["maxt", dataset_dir, "--iterations", "100", "--single-step"])
        assert "single-step" in capsys.readouterr().out


class TestPlanAndTune:
    def test_plan_table(self, capsys):
        rc = main(["plan", "--snps", "100000", "--nodes", "6", "18",
                   "--iterations", "0", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "6 nodes" in out and "18 nodes" in out
        assert "per-iteration" in out

    def test_plan_no_cache(self, capsys):
        main(["plan", "--snps", "10000", "--nodes", "6", "--no-cache",
              "--iterations", "0", "10"])
        assert "nodes" in capsys.readouterr().out

    def test_tune_recommends(self, capsys):
        rc = main(["tune", "--snps", "100000", "--nodes", "6", "--iterations", "100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recommended:" in out
        assert "predicted total" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestHistory:
    @pytest.fixture(scope="class")
    def event_log(self, dataset_dir, tmp_path_factory):
        path = tmp_path_factory.mktemp("hist") / "events.jsonl"
        rc = main(["analyze", dataset_dir, "--method", "monte-carlo",
                   "--iterations", "64", "--engine", "distributed",
                   "--backend", "serial", "--event-log", str(path)])
        assert rc == 0
        return str(path)

    def test_renders_stage_tables_and_critical_path(self, event_log, capsys):
        rc = main(["history", event_log])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stage" in out and "p95" in out
        assert "critical path" in out and "max speedup" in out
        assert "cache hit rate" in out

    def test_job_filter(self, event_log, capsys):
        main(["history", event_log, "--job", "0"])
        out = capsys.readouterr().out
        assert "== job 0:" in out
        assert "== job 1:" not in out

    def test_export_chrome_trace(self, event_log, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        rc = main(["history", event_log, "--export-trace", str(trace)])
        assert rc == 0
        with open(trace) as fh:
            events = json.load(fh)["traceEvents"]
        assert any(e.get("ph") == "X" for e in events)

    def test_event_log_requires_distributed_engine(self, dataset_dir, tmp_path):
        with pytest.raises(SystemExit):
            main(["analyze", dataset_dir, "--method", "monte-carlo",
                  "--iterations", "10",
                  "--event-log", str(tmp_path / "x.jsonl")])


class TestTelemetryFlags:
    def test_progress_flag_renders_bars(self, dataset_dir, capsys):
        rc = main(["analyze", dataset_dir, "--method", "monte-carlo",
                   "--iterations", "32", "--engine", "distributed",
                   "--backend", "serial", "--progress"])
        assert rc == 0
        assert "[Stage" in capsys.readouterr().err

    def test_progress_defaults_off_without_tty(self, dataset_dir, capsys):
        rc = main(["analyze", dataset_dir, "--method", "monte-carlo",
                   "--iterations", "32", "--engine", "distributed",
                   "--backend", "serial"])
        assert rc == 0
        assert "[Stage" not in capsys.readouterr().err

    def test_progress_flags_mutually_exclusive(self, dataset_dir):
        with pytest.raises(SystemExit):
            main(["analyze", dataset_dir, "--method", "monte-carlo",
                  "--iterations", "10", "--progress", "--no-progress"])

    def test_log_file_and_level_flow_through(self, dataset_dir, tmp_path, capsys):
        import json

        log = tmp_path / "run.log.jsonl"
        rc = main(["analyze", dataset_dir, "--method", "monte-carlo",
                   "--iterations", "32", "--engine", "distributed",
                   "--backend", "serial", "--log-level", "debug",
                   "--log-file", str(log), "--no-progress"])
        assert rc == 0
        records = [json.loads(line) for line in log.read_text().splitlines()]
        messages = {r["message"] for r in records}
        assert "job started" in messages and "task finished" in messages
        finished = [r for r in records if r["message"] == "task finished"]
        assert all("stage_id" in r and "partition" in r for r in finished)

    def test_log_flags_require_distributed(self, dataset_dir, tmp_path):
        with pytest.raises(SystemExit):
            main(["analyze", dataset_dir, "--method", "monte-carlo",
                  "--iterations", "10", "--log-file", str(tmp_path / "x.jsonl")])

    def test_history_prints_heartbeat_summary(self, tmp_path, capsys):
        import time

        from repro.config import EngineConfig
        from repro.engine.context import Context

        log = tmp_path / "hb.jsonl"
        config = EngineConfig(backend="cluster", num_executors=2,
                              executor_cores=2, default_parallelism=4,
                              heartbeat_interval=0.02)
        with Context(config, event_log_path=str(log)) as ctx:
            ctx.parallelize(range(8), 4).map(
                lambda x: (time.sleep(0.05), x)[1]
            ).sum()
        capsys.readouterr()
        rc = main(["history", str(log)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "heartbeats:" in out
        assert "executor(s)" in out


class TestDoctor:
    FIXTURE = str(FIXTURES / "eventlog_skew.jsonl")

    def test_flags_skew_with_repartition_advice(self, capsys):
        rc = main(["doctor", self.FIXTURE])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repartition-skewed-stage" in out
        assert "rdd.repartition(" in out
        assert "rdd.explain()" in out

    def test_json_output_is_ranked_and_parseable(self, capsys):
        import json

        rc = main(["doctor", self.FIXTURE, "--json"])
        assert rc == 0
        recs = json.loads(capsys.readouterr().out)
        assert recs, "expected at least one recommendation"
        rules = [r["rule"] for r in recs]
        assert "repartition-skewed-stage" in rules
        assert {"rule", "severity", "title", "action", "evidence"} <= set(recs[0])
        # warnings rank above the always-on sizing info
        assert recs[-1]["rule"] == "container-sizing"

    def test_directory_scan_skips_foreign_jsonl(self, tmp_path, capsys):
        import shutil

        shutil.copy(self.FIXTURE, tmp_path / "events.jsonl")
        (tmp_path / "other.jsonl").write_text('{"not": "an event log"}\n')
        rc = main(["doctor", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "examined 1 job(s)" in out

    def test_missing_path_errors(self, tmp_path, capsys):
        rc = main(["doctor", str(tmp_path / "nope.jsonl")])
        assert rc == 1
        assert "no such event log" in capsys.readouterr().err

    def test_healthy_log_reports_doctor_summary(self, dataset_dir, tmp_path, capsys):
        log = tmp_path / "ok.jsonl"
        rc = main(["analyze", dataset_dir, "--method", "monte-carlo",
                   "--iterations", "32", "--engine", "distributed",
                   "--backend", "serial", "--event-log", str(log),
                   "--no-progress"])
        assert rc == 0
        capsys.readouterr()
        rc = main(["doctor", str(log)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "doctor: examined" in out
        assert "failed-task" not in out


class TestDoctorStrict:
    FIXTURE = str(FIXTURES / "eventlog_skew.jsonl")

    def test_default_floor_is_critical(self, capsys):
        # the skew fixture produces warnings, not criticals: strict passes
        rc = main(["doctor", self.FIXTURE, "--strict"])
        assert rc == 0
        capsys.readouterr()

    def test_warning_floor_gates_the_skew_fixture(self, capsys):
        rc = main(["doctor", self.FIXTURE, "--strict",
                   "--strict-severity", "warning"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "strict mode" in err and "failing" in err

    def test_info_floor_gates_any_finding(self, capsys):
        rc = main(["doctor", self.FIXTURE, "--strict",
                   "--strict-severity", "info"])
        assert rc == 2
        capsys.readouterr()


class TestUnreadableEventLogs:
    """``history`` and ``doctor`` refuse a log they cannot read with one
    stderr line that names the bad line, and exit 1."""

    @pytest.mark.parametrize("command", ["history", "doctor"])
    @pytest.mark.parametrize("break_line,reason", [
        (lambda job: json.dumps(job)[:-9], "line 2 is corrupt"),
        (lambda job: "[1, 2]", "line 2: not an event object"),
        (lambda job: json.dumps(dict(job, stages=5)),
         "line 2: job field stages is int, not list"),
        (lambda job: json.dumps(dict(job, version=7)),
         "line 2: unsupported event-log version 7"),
    ], ids=["corrupt", "list", "wrong-type", "v7"])
    def test_one_located_stderr_line(self, command, break_line, reason, tmp_path, capsys):
        (line,) = (FIXTURES / "eventlog_skew.jsonl").read_text().splitlines()
        path = str(tmp_path / "events.jsonl")
        with open(path, "w") as fh:
            fh.write("\n".join([line, break_line(json.loads(line)), line]) + "\n")
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"{path}: event log {reason}"), line


class TestMonitoringFlags:
    def test_monitoring_requires_distributed_engine(self, dataset_dir):
        with pytest.raises(SystemExit, match="--engine distributed"):
            main(["analyze", dataset_dir, "--method", "monte-carlo",
                  "--iterations", "32", "--log-file", "engine.jsonl"])

    def test_one_error_names_every_distributed_flag(self, dataset_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", dataset_dir, "--iterations", "8",
                  "--event-log", str(tmp_path / "e.jsonl"), "--early-stop",
                  "--log-level", "debug", "--alpha", "0.01"])
        message = str(exc.value)
        assert "--engine distributed" in message
        for flag in ("--event-log", "--early-stop", "--log-level", "--alpha"):
            assert flag in message
        # forcing a feature off asks the local engine for nothing
        assert main(["analyze", dataset_dir, "--method", "observed",
                     "--no-early-stop"]) == 0

    @pytest.mark.parametrize("flag", ["adaptive", "no-adaptive"])
    def test_removed_adaptive_flags_are_unrecognised(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "d", "--engine", "distributed", f"--{flag}"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analyze", "d", "--engine", "distributed", "--metrics-interval", "0.1"],
        ["analyze", "d", "--engine", "distributed", "--alerts"],
        ["analyze", "d", "--engine", "distributed", "--alert-rules", "x.json"],
        ["history", "events.jsonl", "--series"],
        ["analyze", "d", "--engine", "distributed", "--flight-recorder", "dir"],
        ["analyze", "d", "--engine", "distributed", "--ui-port", "0"],
        ["history", "events.jsonl", "--metrics"],
        ["analyze", "d", "--engine", "distributed", "--profile-fraction", "0.25"],
    ], ids=["metrics-interval", "alerts", "alert-rules", "history-series",
            "flight-recorder", "ui-port", "history-metrics", "profile-fraction"])
    def test_removed_monitoring_flags_are_unrecognised(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_postmortem_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["postmortem", "bundles"])
        assert exc.value.code == 2
        assert "invalid choice: 'postmortem'" in capsys.readouterr().err

    def test_flags_land_in_the_context_config(self, dataset_dir, tmp_path):
        from repro.cli import _load_analysis, build_parser

        args = build_parser().parse_args([
            "analyze", dataset_dir, "--engine", "distributed",
            "--backend", "serial", "--log-level", "warning",
            "--early-stop", "--no-progress",
        ])
        with _load_analysis(args) as analysis:
            config = analysis.ctx.config
            assert config.log_level == "warning"
            assert config.inference_early_stop is True


def _failed_run_log(backend, path, jobs=1):
    """Event log of a run whose partition 2 always fails (no retries left)."""
    from repro.config import EngineConfig
    from repro.engine.context import Context
    from repro.engine.faults import FaultInjector, FaultPlan
    from repro.engine.scheduler import JobFailedError

    config = EngineConfig(backend=backend, num_executors=2, executor_cores=2,
                          default_parallelism=4, max_task_retries=0)
    plan = FaultPlan(fail_partition_attempts={2: 99})
    with Context(config, fault_injector=FaultInjector(plan),
                 event_log_path=str(path)) as ctx:
        for _ in range(jobs):
            with pytest.raises(JobFailedError):
                ctx.parallelize(range(16), 4).map(lambda x: x + 1).sum()
    return str(path)


class TestDoctorOnFailedRun:
    """A failed run's event log holds the failing task, its error and its
    log lines; ``doctor`` names them first."""

    @pytest.fixture(scope="class", params=["serial", "cluster"])
    def failed_log(self, request, tmp_path_factory):
        path = tmp_path_factory.mktemp("failed") / "events.jsonl"
        return _failed_run_log(request.param, path)

    def test_first_finding_is_the_failed_task(self, failed_log, capsys):
        import json

        rc = main(["doctor", failed_log, "--json"])
        assert rc == 0
        first = json.loads(capsys.readouterr().out)[0]
        assert first["rule"] == "failed-task"
        assert first["severity"] == "critical"
        assert first["title"].startswith("job 0 failed: task 0.2#0 on exec-")
        assert "InjectedTaskFailure" in first["title"]
        assert "InjectedTaskFailure" in first["evidence"]["error"]

    def test_table_names_the_task_and_strict_exits_2(self, failed_log, capsys):
        rc = main(["doctor", failed_log])
        assert rc == 0
        out = capsys.readouterr().out
        assert "failed-task" in out
        assert "task 0.2#0 on exec-" in out
        assert "InjectedTaskFailure" in out
        rc = main(["doctor", failed_log, "--strict"])
        assert rc == 2
        assert "strict mode: 1 finding(s)" in capsys.readouterr().err

    def test_evidence_holds_the_correlated_log_record(self, failed_log, capsys):
        import json

        main(["doctor", failed_log, "--json"])
        (finding,) = [
            r for r in json.loads(capsys.readouterr().out)
            if r["rule"] == "failed-task"
        ]
        (record,) = [
            r for r in finding["evidence"]["logs"]
            if r["message"] == "task attempt failed"
        ]
        assert (record["stage_id"], record["partition"]) == (0, 2)
        assert record["executor_id"].startswith("exec-")
        assert "InjectedTaskFailure" in record["fields"]["error"]
        assert finding["evidence"]["attempts"] == [{
            "attempt": 0, "executor_id": record["executor_id"],
            "error": finding["evidence"]["error"],
        }]

    def test_one_finding_per_failed_job(self, tmp_path, capsys):
        import json

        log = _failed_run_log("serial", tmp_path / "events.jsonl", jobs=3)
        main(["doctor", log, "--json"])
        titles = [
            r["title"] for r in json.loads(capsys.readouterr().out)
            if r["rule"] == "failed-task"
        ]
        assert [t.split(":")[0] for t in titles] == [
            "job 0 failed", "job 1 failed", "job 2 failed",
        ]
        assert [t.split(": ")[1].split(" on ")[0] for t in titles] == [
            "task 0.2#0", "task 1.2#0", "task 2.2#0",
        ]

    def test_a_lost_executor_is_named(self, tmp_path, capsys):
        # an attempt failed by its executor's loss is a task record on the
        # job line too, not only a TaskEnd on the bus
        import json

        from repro.config import EngineConfig
        from repro.engine.context import Context
        from repro.engine.faults import FaultInjector, FaultPlan
        from repro.engine.scheduler import JobFailedError

        log = tmp_path / "events.jsonl"
        config = EngineConfig(backend="serial", num_executors=2, executor_cores=2,
                              default_parallelism=4, max_task_retries=0)
        plan = FaultPlan(kill_executor_after_tasks={"exec-0": 0})
        with Context(config, fault_injector=FaultInjector(plan),
                     event_log_path=str(log)) as ctx:
            with pytest.raises(JobFailedError):
                ctx.parallelize(range(16), 4).sum()
        main(["doctor", str(log), "--json"])
        first = json.loads(capsys.readouterr().out)[0]
        assert first["rule"] == "failed-task"
        assert first["title"] == (
            "job 0 failed: task 0.0#0 on exec-0: "
            "ExecutorLostError: executor exec-0 lost"
        )
        assert [r["message"] for r in first["evidence"]["logs"]] == [
            "task lost its executor; retrying elsewhere",
        ]

    def test_a_retried_failure_does_not_fire(self, tmp_path, capsys):
        from repro.config import EngineConfig
        from repro.engine.context import Context
        from repro.engine.eventlog import read_event_log
        from repro.engine.faults import FaultInjector, FaultPlan

        log = tmp_path / "events.jsonl"
        config = EngineConfig(backend="serial", num_executors=2, executor_cores=2,
                              default_parallelism=4, max_task_retries=1)
        plan = FaultPlan(fail_partition_attempts={2: 1})
        with Context(config, fault_injector=FaultInjector(plan),
                     event_log_path=str(log)) as ctx:
            assert ctx.parallelize(range(16), 4).sum() == 120
        (job,) = read_event_log(str(log))
        assert [(t.partition, t.attempt, t.succeeded) for t in job.stages[0].tasks
                if t.partition == 2] == [(2, 0, False), (2, 1, True)]
        rc = main(["doctor", str(log), "--strict"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "examined 1 job(s)" in out
        assert "failed-task" not in out

    def test_successful_jobs_give_no_finding(self, tmp_path, capsys):
        import json

        from repro.config import EngineConfig
        from repro.engine.context import Context

        log = tmp_path / "events.jsonl"
        config = EngineConfig(backend="serial", num_executors=2, executor_cores=2,
                              default_parallelism=4, max_task_retries=0)
        with Context(config, event_log_path=str(log)) as ctx:
            for _ in range(3):
                assert ctx.parallelize(range(16), 4).map(lambda x: x + 1).sum() == 136
        rc = main(["doctor", str(log), "--json"])
        assert rc == 0
        rules = [r["rule"] for r in json.loads(capsys.readouterr().out)]
        assert "failed-task" not in rules
