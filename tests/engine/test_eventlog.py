"""Event log persistence and cross-process replay."""

import dataclasses
import hashlib
import json
import operator
import warnings
from pathlib import Path

import pytest

from repro.core.replay import capture_job, replay
from repro.engine.eventlog import (
    FORMAT_VERSION,
    EventLogListener,
    read_channels,
    read_event_log,
    write_event_log,
)
from repro.engine.listener import InferenceBatchCompleted

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def logged_jobs(ctx, tmp_path):
    ctx.parallelize(range(40), 4).map(lambda x: x + 1).sum()
    ctx.parallelize([(i % 3, 1) for i in range(30)], 4).reduce_by_key(operator.add).collect()
    path = str(tmp_path / "events.jsonl")
    n = write_event_log(ctx.metrics.jobs, path)
    assert n == 2
    return ctx.metrics.jobs, path


class TestRoundTrip:
    def test_job_fields_survive(self, logged_jobs):
        original, path = logged_jobs
        loaded = read_event_log(path)
        assert len(loaded) == 2
        for a, b in zip(original, loaded):
            assert a.job_id == b.job_id
            assert a.description == b.description
            assert a.wall_seconds == b.wall_seconds
            assert len(a.stages) == len(b.stages)

    def test_task_records_survive(self, logged_jobs):
        original, path = logged_jobs
        loaded = read_event_log(path)
        stage_a = original[1].stages[0]
        stage_b = loaded[1].stages[0]
        assert stage_a.is_shuffle_map == stage_b.is_shuffle_map
        assert [t.duration_seconds for t in stage_a.tasks] == [
            t.duration_seconds for t in stage_b.tasks
        ]
        assert stage_a.totals().shuffle_records_written == stage_b.totals().shuffle_records_written

    def test_append_mode(self, ctx, tmp_path):
        path = str(tmp_path / "log.jsonl")
        ctx.parallelize(range(4), 2).count()
        write_event_log([ctx.metrics.jobs[-1]], path)
        ctx.parallelize(range(4), 2).count()
        write_event_log([ctx.metrics.jobs[-1]], path)
        assert len(read_event_log(path)) == 2

    def test_replay_from_loaded_log(self, logged_jobs):
        """The history-server use case: load a log, run a what-if."""
        original, path = logged_jobs
        loaded = read_event_log(path)
        rec_orig = capture_job(original[1])
        rec_loaded = capture_job(loaded[1])
        assert replay(rec_loaded, 4).makespan == pytest.approx(
            replay(rec_orig, 4).makespan
        )


class TestErrors:
    def test_corrupt_line_mid_file(self, tmp_path):
        """Unparseable lines with content after them are real corruption,
        not a crash-truncated tail."""
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"event": "job"\n'
            '{"event": "heartbeat", "version": 3, "executor_id": "e0"}\n'
        )
        with pytest.raises(ValueError, match="line 1"):
            read_event_log(str(path))

    def test_truncated_final_line_warns_and_loads_rest(self, ctx, tmp_path):
        """A writer killed mid-write chops the last line; the reader keeps
        every complete job and warns instead of raising."""
        ctx.parallelize(range(8), 2).sum()
        path = str(tmp_path / "chopped.jsonl")
        write_event_log(ctx.metrics.jobs, path)
        full = open(path).read()
        with open(path, "a") as fh:
            fh.write(full[: len(full) // 2].rstrip("\n"))  # half a job line
        with pytest.warns(UserWarning, match="truncated"):
            jobs = read_event_log(path)
        assert len(jobs) == 1
        assert jobs[0].stages[0].num_tasks == 2

    def test_wrong_event_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "heartbeat", "version": 1}\n')
        with pytest.raises(ValueError):
            read_event_log(str(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "job", "version": 99}\n')
        with pytest.raises(ValueError, match="version"):
            read_event_log(str(path))

    def test_blank_lines_skipped(self, ctx, tmp_path):
        ctx.parallelize([1], 1).count()
        path = str(tmp_path / "log.jsonl")
        write_event_log(ctx.metrics.jobs, path)
        with open(path, "a") as fh:
            fh.write("\n\n")
        assert len(read_event_log(path)) == 1


class TestContextIntegration:
    def test_context_flushes_log_on_stop(self, tmp_path, serial_config):
        from repro.engine.context import Context

        path = str(tmp_path / "auto.jsonl")
        with Context(serial_config, event_log_path=path) as ctx:
            ctx.parallelize(range(10), 2).sum()
            ctx.parallelize(range(10), 2).count()
        jobs = read_event_log(path)
        assert len(jobs) == 2
        assert jobs[0].stages[0].num_tasks == 2

    def test_jobs_streamed_incrementally(self, tmp_path, serial_config):
        """Each job is on disk as soon as it ends, not only at stop()."""
        from repro.engine.context import Context

        path = str(tmp_path / "stream.jsonl")
        with Context(serial_config, event_log_path=path) as ctx:
            ctx.parallelize(range(4), 2).sum()
            assert len(read_event_log(path)) == 1
            ctx.parallelize(range(4), 2).count()
            assert len(read_event_log(path)) == 2


# hand-written v1 line: no submit_time/start_time, no size_estimation_seconds
_V1_LINE = json.dumps({
    "event": "job", "version": 1, "job_id": 0, "description": "legacy",
    "wall_seconds": 1.5, "num_task_failures": 0,
    "num_stage_resubmissions": 0, "num_executor_failures_observed": 0,
    "stages": [{
        "stage_id": 0, "name": "map", "num_tasks": 1, "attempt": 0,
        "parent_stage_ids": [], "is_shuffle_map": False, "wall_seconds": 1.5,
        "tasks": [{
            "stage_id": 0, "partition": 0, "attempt": 0, "executor_id": "e0",
            "duration_seconds": 1.4, "succeeded": True, "error": None,
            "metrics": {
                "records_read": 5, "records_written": 5,
                "shuffle_bytes_read": 0, "shuffle_bytes_written": 0,
                "shuffle_records_read": 0, "shuffle_records_written": 0,
                "cache_hits": 1, "cache_misses": 1, "remote_cache_hits": 0,
                "disk_blocks_read": 0, "compute_seconds": 1.3,
            },
        }],
    }],
})


class TestVersionCompat:
    def test_v1_line_loads_with_zero_defaults(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        path.write_text(_V1_LINE + "\n")
        (job,) = read_event_log(str(path))
        assert job.description == "legacy"
        assert job.submit_time == 0.0
        assert job.stages[0].submit_time == 0.0
        task = job.stages[0].tasks[0]
        assert task.start_time == 0.0
        assert task.metrics.size_estimation_seconds == 0.0
        assert task.metrics.cache_hits == 1  # v1 fields intact

    def test_v1_log_supports_history_analysis(self, tmp_path):
        """Critical-path/history math needs no timestamps."""
        from repro.obs.history import critical_path
        from repro.obs.spans import spans_from_jobs

        path = tmp_path / "v1.jsonl"
        path.write_text(_V1_LINE + "\n")
        (job,) = read_event_log(str(path))
        cp = critical_path(job)
        assert cp.critical_seconds == pytest.approx(1.4)
        assert len(spans_from_jobs([job])) == 3  # synthetic timeline works

    def test_writes_current_version(self, ctx, tmp_path):
        ctx.parallelize(range(4), 2).sum()
        path = str(tmp_path / "current.jsonl")
        write_event_log(ctx.metrics.jobs, path)
        with open(path) as fh:
            data = json.loads(fh.readline())
        assert data["version"] == FORMAT_VERSION == 8
        assert data["submit_time"] > 0.0
        assert data["stages"][0]["tasks"][0]["start_time"] > 0.0

    def test_v2_timestamps_survive_round_trip(self, ctx, tmp_path):
        ctx.parallelize(range(4), 2).sum()
        path = str(tmp_path / "v2.jsonl")
        write_event_log(ctx.metrics.jobs, path)
        (loaded,) = read_event_log(path)
        original = ctx.metrics.jobs[0]
        assert loaded.submit_time == original.submit_time
        assert loaded.stages[0].tasks[0].start_time == original.stages[0].tasks[0].start_time

    def test_committed_v2_fixture_still_loads(self):
        """Regression: a real v2 log on disk must keep loading as-is, with
        the v3 telemetry fields zero-defaulted."""
        (job,) = read_event_log(str(FIXTURES / "eventlog_v2.jsonl"))
        assert job.description == "sum at reduce"
        assert len(job.stages) == 2
        assert job.stages[0].is_shuffle_map
        totals = job.totals()
        assert totals.shuffle_bytes_written == 1010
        assert totals.task_binary_bytes == 5120
        # v3 fields default to zero on old logs
        task = job.stages[0].tasks[0]
        assert task.metrics.gc_pause_seconds == 0.0
        assert task.metrics.peak_rss_bytes == 0
        assert task.profile is None
        assert task.span_fragments == []
        assert read_channels(str(FIXTURES / "eventlog_v2.jsonl"))["telemetry"] == []


class TestV3Telemetry:
    def test_profile_and_fragments_round_trip(self, tmp_path):
        from repro.config import EngineConfig
        from repro.engine.context import Context

        config = EngineConfig(
            backend="serial", num_executors=2, executor_cores=2,
            default_parallelism=4, profile_fraction=1.0,
        )
        with Context(config) as ctx:
            ctx.parallelize(range(20), 2).map(lambda x: x * x).sum()
            jobs = ctx.metrics.jobs
        path = str(tmp_path / "v3.jsonl")
        write_event_log(jobs, path)
        (loaded,) = read_event_log(path)
        task = loaded.stages[0].tasks[0]
        assert task.profile, "profiled task should carry hotspot rows"
        assert {"func", "ncalls", "tottime", "cumtime"} <= set(task.profile[0])

    def test_heartbeat_lines_written_and_skipped(self, tmp_path):
        """Heartbeat records interleave in the stream; job readers skip
        them, the telemetry channel returns them."""
        from repro.config import EngineConfig
        from repro.engine.context import Context

        path = str(tmp_path / "hb.jsonl")
        config = EngineConfig(
            backend="cluster", num_executors=2, executor_cores=2,
            default_parallelism=4, heartbeat_interval=0.02,
        )
        with Context(config, event_log_path=path) as ctx:
            import time as _time

            ctx.parallelize(range(8), 4).map(
                lambda x: (_time.sleep(0.05), x)[1]
            ).sum()
        jobs = read_event_log(path)
        assert len(jobs) == 1
        telemetry = read_channels(path)["telemetry"]
        assert telemetry, "expected heartbeat records in the v3 log"
        assert all(t["event"] == "heartbeat" for t in telemetry)
        assert all(t["version"] == FORMAT_VERSION for t in telemetry)
        assert any(t["executor_id"].startswith("exec-") for t in telemetry)

    def test_v1_heartbeat_line_still_rejected(self, tmp_path):
        """Only version >= 3 telemetry lines are skippable; a non-job line
        claiming v1/v2 is corruption and must raise (compat guarantee)."""
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "heartbeat", "version": 2}\n')
        with pytest.raises(ValueError):
            read_event_log(str(path))


class TestV4Logs:
    def _run_logged(self, tmp_path, level="debug"):
        from repro.config import EngineConfig
        from repro.engine.context import Context

        path = str(tmp_path / "v4.jsonl")
        config = EngineConfig(
            backend="serial", num_executors=2, executor_cores=2,
            default_parallelism=4, log_level=level,
        )
        with Context(config, event_log_path=path) as ctx:
            ctx.parallelize(range(20), 4).map(lambda x: x + 1).sum()
        return path

    def test_log_records_interleave_and_recover(self, tmp_path):
        path = self._run_logged(tmp_path)
        records = read_channels(path)["log"]
        assert records, "expected structured log lines in the v4 log"
        messages = {r.message for r in records}
        assert "job started" in messages and "job finished" in messages
        finished = [r for r in records if r.message == "task finished"]
        assert {(r.job_id, r.stage_id, r.partition) for r in finished} == {
            (0, 0, p) for p in range(4)
        }

    def test_job_readers_skip_log_lines(self, tmp_path):
        path = self._run_logged(tmp_path)
        jobs = read_event_log(path)
        assert len(jobs) == 1
        # and telemetry readers don't confuse log lines with heartbeats
        assert all(t["event"] != "log" for t in read_channels(path)["telemetry"])

    def test_level_gates_the_side_channel(self, tmp_path):
        quiet = read_channels(self._run_logged(tmp_path, level="error"))["log"]
        assert quiet == []

    def test_old_fixture_has_no_logs(self):
        assert read_channels(str(FIXTURES / "eventlog_v2.jsonl"))["log"] == []

    def test_committed_truncated_fixture_loads_partially(self):
        """Regression: the chopped fixture simulates a driver killed
        mid-write; the complete first job must survive."""
        with pytest.warns(UserWarning, match="truncated"):
            jobs = read_event_log(str(FIXTURES / "eventlog_truncated.jsonl"))
        assert len(jobs) == 1
        assert jobs[0].description == "sum at reduce"


class TestV5Monitoring:
    """v5 added ``series`` (metrics-sampler ticks) and ``alert`` (alert-engine
    transitions) side channels for a monitoring plane that has since been
    removed: readers skip both."""

    def test_committed_v4_fixture_still_loads(self):
        """Regression: a real v4 log keeps loading whole -- jobs, telemetry,
        and logs intact."""
        path = str(FIXTURES / "eventlog_v4.jsonl")
        (job,) = read_event_log(path)
        assert job.stages and job.stages[0].tasks
        channels = read_channels(path)
        telemetry = channels["telemetry"]
        assert telemetry and all(t["event"] == "heartbeat" for t in telemetry)
        assert any(r.message == "job finished" for r in channels["log"])
        assert not {"series", "alert"} & set(channels)

    def test_v5_series_and_alert_lines_are_skipped(self, tmp_path):
        """A hand-written v5 log: the v4 fixture restamped v5, with a
        sampler tick and an alert transition between its lines, loads to
        the same job trees and warns about nothing."""
        v5 = []
        for line in (FIXTURES / "eventlog_v4.jsonl").read_text().splitlines():
            data = json.loads(line)
            data["version"] = 5
            v5.append(json.dumps(data))
        v5.insert(1, json.dumps({
            "event": "series", "version": 5, "time": 1.0,
            "samples": [["engine_jobs_total", {}, 3.0]],
        }))
        v5.insert(3, json.dumps({
            "event": "alert", "version": 5, "time": 2.0, "transition": "firing",
            "rule": "heartbeat_loss", "severity": "critical",
            "labels": {"executor": "exec-1"}, "value": 2.5,
        }))
        path = tmp_path / "v5.jsonl"
        path.write_text("\n".join(v5) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            channels = read_channels(str(path))
        assert _job_tree_digest(channels["job"]) == _job_tree_digest(
            read_event_log(str(FIXTURES / "eventlog_v4.jsonl"))
        )
        assert set(channels) == {"job", "telemetry", "log", "inference"}

    def test_a_series_line_older_than_v5_is_corruption(self, tmp_path):
        path = tmp_path / "v4.jsonl"
        path.write_text(json.dumps({"event": "series", "version": 4, "time": 1.0}) + "\n")
        with pytest.raises(ValueError, match="not a job event"):
            read_channels(str(path))

    def test_side_channels_interleave_with_jobs(self, tmp_path, serial_config):
        from repro.engine.context import Context

        path = str(tmp_path / "live.jsonl")
        with Context(serial_config, event_log_path=path) as ctx:
            ctx.parallelize(range(20), 4).map(lambda x: x + 1).sum()
        events = [json.loads(line)["event"] for line in open(path)]
        assert events.index("log") < events.index("job")  # "job started" first
        channels = read_channels(path)
        assert len(channels["job"]) == 1
        assert any(r.message == "job finished" for r in channels["log"])
        # a serial context has no heartbeat plane
        assert channels["telemetry"] == []

    def test_torn_final_line_tolerated_by_side_channels(self, tmp_path):
        """A writer killed mid-side-channel-line must not poison any reader."""
        from repro.obs.logging import LogRecord

        path = str(tmp_path / "torn.jsonl")
        listener = EventLogListener(path)
        listener.write_log(LogRecord(time=1.0, level="info", logger="t", message="m"))
        listener.on_inference_batch_completed(InferenceBatchCompleted(
            method="monte_carlo", batch_width=8, replicates_total=8,
            planned_replicates=8, sets_total=1, sets_converged=0, min_pvalue=0.5,
        ))
        listener.close()
        with open(path, "a") as fh:
            fh.write('{"event":"inference","version":8,"kin')  # torn
        with pytest.warns(UserWarning, match="truncated"):
            channels = read_channels(path)
        assert [r.message for r in channels["log"]] == ["m"]
        assert [r["replicates_total"] for r in channels["inference"]] == [8]
        assert channels["job"] == []  # no jobs, but no crash either


class TestV6Fleet:
    """v6 added a ``fleet`` side channel (a stop-time snapshot of the
    cluster fleet's own counters and series) for a telemetry plane that has
    since been removed: readers skip it."""

    def test_cluster_context_writes_no_fleet_line(self, tmp_path):
        from repro.config import EngineConfig
        from repro.engine.context import Context

        path = str(tmp_path / "cluster.jsonl")
        config = EngineConfig(
            backend="cluster", num_executors=2, executor_cores=2,
            default_parallelism=4,
        )
        with Context(config, event_log_path=path) as ctx:
            ctx.parallelize(range(8), 4).map(_plus_two).sum()
        events = {json.loads(line)["event"] for line in open(path)}
        assert "job" in events and "fleet" not in events

    def test_serial_context_writes_no_fleet_line(self, tmp_path, serial_config):
        from repro.engine.context import Context

        path = str(tmp_path / "serial.jsonl")
        with Context(serial_config, event_log_path=path) as ctx:
            ctx.parallelize(range(8), 4).sum()
        assert "fleet" not in read_channels(path)
        assert all(json.loads(line)["event"] != "fleet" for line in open(path))

    def test_committed_v6_fixture_still_loads(self):
        """Regression: a real v6 log keeps loading whole -- job, telemetry
        and logs intact, its ``fleet`` line skipped."""
        path = str(FIXTURES / "eventlog_v6.jsonl")
        assert '"event":"fleet"' in (FIXTURES / "eventlog_v6.jsonl").read_text()
        (job,) = read_event_log(path)
        assert job.stages and job.stages[0].tasks
        channels = read_channels(path)
        assert channels["telemetry"], "expected heartbeat lines in the v6 log"
        assert "fleet" not in channels

    def test_a_fleet_line_older_than_v6_is_corruption(self, tmp_path):
        path = tmp_path / "v5.jsonl"
        path.write_text(json.dumps({"event": "fleet", "version": 5, "snapshot": {}}) + "\n")
        with pytest.raises(ValueError, match="not a job event"):
            read_channels(str(path))

    @pytest.mark.parametrize("command", ["history", "doctor"])
    def test_history_and_doctor_read_the_v6_fixture(self, command, capsys):
        from repro.cli import main

        assert main([command, str(FIXTURES / "eventlog_v6.jsonl")]) == 0
        assert "fleet" not in capsys.readouterr().out


#: task metrics added after the committed fixtures were written; a log
#: without them loads them as 0, and the digest covers the tree without them
_NEWER_TASK_METRICS = (
    "blocks_evicted", "blocks_spilled", "task_binary_cache_hits",
    "task_binary_cache_misses", "broadcast_memo_hits",
)


def _job_tree_digest(jobs) -> str:
    trees = [dataclasses.asdict(job) for job in jobs]
    for tree in trees:
        for stage in tree["stages"]:
            for task in stage["tasks"]:
                for name in _NEWER_TASK_METRICS:
                    assert task["metrics"].pop(name) == 0, name
    blob = json.dumps(trees, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class TestV7Adaptive:
    """v7 added an ``adaptive`` side channel and a task ``speculative`` flag
    for a planner that has since been removed: readers skip both."""

    def test_committed_v7_fixture_still_loads(self):
        """Regression: a real v7 log keeps loading whole -- job and logs
        intact, its ``adaptive`` line skipped, v8 inference reading empty."""
        path = str(FIXTURES / "eventlog_v7.jsonl")
        (job,) = read_event_log(path)
        assert job.stages and job.stages[0].tasks
        channels = read_channels(path)
        assert any(r.message == "job finished" for r in channels["log"])
        assert "adaptive" not in channels
        assert channels["inference"] == []

    # digests of the job trees the reader built before the planner and the
    # monitoring plane went (the retired ``speculative`` task field left
    # out; it was False throughout the v7 and v8 logs)
    @pytest.mark.parametrize("name,digest", [
        ("eventlog_v2.jsonl",
         "1ebfd829b2eb46c905b48af653f9ec977d6dff4566f5392fdf95a03ffc932dd4"),
        ("eventlog_v4.jsonl",
         "37b5a8cf5fa9ec69a5dd6f32705520afc69f42a548066f8516ac122afd10a6c1"),
        ("eventlog_v6.jsonl",
         "e7939c8b3bab096932d9d80c98c23d7f7b03bfb1ea9c17beb89a043b20028fc7"),
        ("eventlog_v7.jsonl",
         "f8eba5edb7f8806256bad8bdd8c64df60c49b83eb6ceff6208b62084d9e09862"),
        ("eventlog_v8.jsonl",
         "88eba6e96d4ed02787d97381055133da59787a0261feba273b1aff87091cf202"),
    ], ids=["v2", "v4", "v6", "v7", "v8"])
    def test_old_logs_load_to_the_same_job_trees(self, name, digest):
        channels = read_channels(str(FIXTURES / name))
        assert set(channels) == {"job", "telemetry", "log", "inference"}
        assert _job_tree_digest(channels["job"]) == digest

    def test_a_speculative_task_key_is_ignored(self, tmp_path):
        lines = (FIXTURES / "eventlog_v7.jsonl").read_text().splitlines()
        flagged = []
        for line in lines:
            data = json.loads(line)
            if data["event"] == "job":
                data["stages"][0]["tasks"][0]["speculative"] = True
            flagged.append(json.dumps(data))
        path = tmp_path / "flagged.jsonl"
        path.write_text("\n".join(flagged) + "\n")
        assert _job_tree_digest(read_event_log(str(path))) == _job_tree_digest(
            read_event_log(str(FIXTURES / "eventlog_v7.jsonl"))
        )


class TestV8Inference:
    def test_inference_lines_round_trip(self, tmp_path):
        """Listener hooks write flushed ``inference`` lines the reader
        recovers verbatim."""
        from repro.engine.listener import (
            InferenceBatchCompleted,
            SnpSetConverged,
        )

        path = str(tmp_path / "v8.jsonl")
        listener = EventLogListener(path)
        listener.on_inference_batch_completed(InferenceBatchCompleted(
            method="monte_carlo", batch_width=64, replicates_total=64,
            planned_replicates=512, sets_total=3, sets_converged=1,
            min_pvalue=0.01,
        ))
        listener.on_snp_set_converged(SnpSetConverged(
            method="monte_carlo", set_index=0, set_name="set0",
            status="decided_significant", pvalue=0.01, ci_low=0.002,
            ci_high=0.04, replicates=64,
        ))
        listener.close()
        assert listener.inference_written == 2
        batch, decision = read_channels(path)["inference"]
        assert batch["kind"] == "batch"
        assert batch["replicates_total"] == 64
        assert batch["planned_replicates"] == 512
        assert decision["kind"] == "converged"
        assert decision["set_name"] == "set0"
        assert decision["status"] == "decided_significant"
        assert decision["ci_low"] == pytest.approx(0.002)
        # job readers and the other side channels skip inference lines
        assert read_event_log(path) == []
        assert read_channels(path)["telemetry"] == []

    def test_committed_v8_fixture_still_loads(self):
        """Regression: a real v8 log (early-stopped monte-carlo run) keeps
        loading whole -- jobs, logs, and the inference side channel."""
        path = str(FIXTURES / "eventlog_v8.jsonl")
        jobs = read_event_log(path)
        assert jobs and all(j.stages for j in jobs)
        records = read_channels(path)["inference"]
        batches = [r for r in records if r["kind"] == "batch"]
        converged = [r for r in records if r["kind"] == "converged"]
        assert batches and converged
        final = batches[-1]
        assert final["early_stop"] is True
        assert final["sets_converged"] == final["sets_total"] == 6
        assert final["replicates_total"] + final["replicates_saved"] == \
            final["planned_replicates"]
        assert all(r["status"] in ("decided_significant", "decided_null")
                   for r in converged)
        assert all(0.0 <= r["ci_low"] <= r["pvalue"] <= r["ci_high"] <= 1.0
                   or r["ci_low"] <= r["ci_high"]
                   for r in converged)

    def test_live_run_writes_inference_lines(self, tmp_path, serial_config):
        """An early-stopped analysis streams its convergence trail into the
        context's event log."""
        from repro.core.sparkscore import SparkScoreAnalysis
        from repro.engine.context import Context
        from repro.genomics.synthetic import SyntheticConfig, generate_dataset

        dataset = generate_dataset(SyntheticConfig(
            n_snps=30, n_patients=60, n_snpsets=3, seed=1,
        ))
        path = str(tmp_path / "live.jsonl")
        config = serial_config.copy(inference_early_stop=True)
        with Context(config, event_log_path=path) as ctx:
            analysis = SparkScoreAnalysis(dataset, engine="distributed", ctx=ctx)
            result = analysis.monte_carlo(256, seed=0, batch_size=64)
        records = read_channels(path)["inference"]
        batches = [r for r in records if r["kind"] == "batch"]
        assert batches, "expected inference batch lines in the v8 log"
        assert batches[-1]["replicates_total"] == result.n_resamples
        assert len(read_event_log(path)) >= 1  # jobs unharmed

    def test_torn_final_inference_line_tolerated(self, tmp_path):
        """A writer killed mid-inference-line must not poison any reader."""
        from repro.engine.listener import InferenceBatchCompleted

        path = str(tmp_path / "torn.jsonl")
        listener = EventLogListener(path)
        listener.on_inference_batch_completed(InferenceBatchCompleted(
            method="permutation", batch_width=16, replicates_total=16,
            planned_replicates=128, sets_total=2, sets_converged=0,
        ))
        listener.close()
        with open(path, "a") as fh:
            fh.write('{"event":"inference","version":8,"kind":"batc')  # torn
        with pytest.warns(UserWarning, match="truncated"):
            channels = read_channels(path)
        (batch,) = channels["inference"]
        assert batch["replicates_total"] == 16
        assert channels["job"] == []  # no jobs, but no crash either

    def test_old_fixtures_have_no_inference(self):
        assert read_channels(str(FIXTURES / "eventlog_v2.jsonl"))["inference"] == []
        assert read_channels(str(FIXTURES / "eventlog_v4.jsonl"))["inference"] == []
        assert read_channels(str(FIXTURES / "eventlog_v6.jsonl"))["inference"] == []


def _plus_two(x):
    return x + 2
