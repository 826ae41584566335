"""Event log persistence and cross-process replay."""

import dataclasses
import hashlib
import io
import json
import operator
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.replay import capture_job, replay
from repro.engine.eventlog import (
    FORMAT_VERSION,
    EventLogListener,
    read_channels,
    read_event_log,
)
from repro.engine.listener import (
    ExecutorHeartbeat,
    InferenceBatchCompleted,
    JobEnd,
    SnpSetConverged,
)
from repro.engine.metrics import JobMetrics, StageMetrics, TaskMetrics, TaskRecord

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write_jobs(jobs, path) -> int:
    """Append one job line per record through the one writer."""
    listener = EventLogListener(path)
    for job in jobs:
        listener.on_job_end(JobEnd(job_id=job.job_id, job=job))
    listener.close()
    return listener.written["job"]


@pytest.fixture
def logged_jobs(ctx, tmp_path):
    ctx.parallelize(range(40), 4).map(lambda x: x + 1).sum()
    ctx.parallelize([(i % 3, 1) for i in range(30)], 4).reduce_by_key(operator.add).collect()
    path = str(tmp_path / "events.jsonl")
    n = write_jobs(ctx.metrics.jobs, path)
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
        write_jobs([ctx.metrics.jobs[-1]], path)
        ctx.parallelize(range(4), 2).count()
        write_jobs([ctx.metrics.jobs[-1]], path)
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
            '{"event": "heartbeat", "version": 8, "executor_id": "e0"}\n'
        )
        with pytest.raises(ValueError, match="line 1 is corrupt"):
            read_event_log(str(path))

    def test_truncated_final_line_warns_and_loads_rest(self, ctx, tmp_path):
        """A writer killed mid-write chops the last line; the reader keeps
        every complete job and warns instead of raising."""
        ctx.parallelize(range(8), 2).sum()
        path = str(tmp_path / "chopped.jsonl")
        write_jobs(ctx.metrics.jobs, path)
        full = open(path).read()
        with open(path, "a") as fh:
            fh.write(full[: len(full) // 2].rstrip("\n"))  # half a job line
        with pytest.warns(UserWarning, match="truncated"):
            jobs = read_event_log(path)
        assert len(jobs) == 1
        assert jobs[0].stages[0].num_tasks == 2

    def test_wrong_event_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "series", "version": 8}\n')
        with pytest.raises(ValueError, match="line 1: unknown event kind 'series'"):
            read_event_log(str(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "job", "version": 99}\n')
        with pytest.raises(ValueError, match="line 1: unsupported event-log version 99"):
            read_event_log(str(path))

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("kind", ["job", "heartbeat", "log", "series", "fleet", "adaptive"])
    def test_a_pre_v8_line_is_a_located_error(self, kind, version, tmp_path):
        """Every earlier format is refused by the line that carries it, the
        side channels v5-v7 introduced and later retired included."""
        v8 = (FIXTURES / "eventlog_v8.jsonl").read_text().splitlines()
        old = dict(json.loads(v8[1]), event=kind, version=version)
        path = tmp_path / "old.jsonl"
        path.write_text("\n".join([v8[0], json.dumps(old), *v8[2:]]) + "\n")
        with pytest.raises(
            ValueError, match=f"event log line 2: unsupported event-log version {version} "
        ):
            read_channels(str(path))

    @pytest.mark.parametrize("line", ["[1, 2]", "5", '"job"', "null", "true"])
    def test_a_line_that_is_not_an_object(self, line, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="line 1: not an event object"):
            read_channels(str(path))

    def test_a_wrong_typed_or_missing_field_names_its_line(self, tmp_path):
        lines = (FIXTURES / "eventlog_v8.jsonl").read_text().splitlines()
        job = json.loads(lines[1])
        for broken, reason in (
            (dict(job, stages=5), "job field stages is int, not list"),
            (dict(job, stages=[{"tasks": 5}]), r"job field stages\[0\]\.stage_id is missing"),
            ({k: v for k, v in job.items() if k != "job_id"}, "job field job_id is missing"),
        ):
            path = tmp_path / "bad.jsonl"
            path.write_text("\n".join([lines[0], json.dumps(broken), *lines[2:]]) + "\n")
            with pytest.raises(ValueError, match=f"line 2: {reason}"):
                read_channels(str(path))

    def test_blank_lines_skipped(self, ctx, tmp_path):
        ctx.parallelize([1], 1).count()
        path = str(tmp_path / "log.jsonl")
        write_jobs(ctx.metrics.jobs, path)
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


class TestVersionCompat:
    def test_writes_current_version(self, ctx, tmp_path):
        ctx.parallelize(range(4), 2).sum()
        path = str(tmp_path / "current.jsonl")
        write_jobs(ctx.metrics.jobs, path)
        with open(path) as fh:
            data = json.loads(fh.readline())
        assert data["version"] == FORMAT_VERSION == 8
        assert data["submit_time"] > 0.0
        assert data["stages"][0]["tasks"][0]["start_time"] > 0.0

    def test_v2_timestamps_survive_round_trip(self, ctx, tmp_path):
        ctx.parallelize(range(4), 2).sum()
        path = str(tmp_path / "v2.jsonl")
        write_jobs(ctx.metrics.jobs, path)
        (loaded,) = read_event_log(path)
        original = ctx.metrics.jobs[0]
        assert loaded.submit_time == original.submit_time
        assert loaded.stages[0].tasks[0].start_time == original.stages[0].tasks[0].start_time


class TestV3Telemetry:
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
        assert all(isinstance(t, ExecutorHeartbeat) for t in telemetry)
        assert any(t.executor_id.startswith("exec-") for t in telemetry)

    def test_v1_heartbeat_line_still_rejected(self, tmp_path):
        """A telemetry line claiming a version before v8 is corruption,
        located like any other."""
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "heartbeat", "version": 2}\n')
        with pytest.raises(ValueError, match="line 1: unsupported event-log version 2"):
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
        assert read_channels(path)["telemetry"] == []

    def test_level_gates_the_side_channel(self, tmp_path):
        quiet = read_channels(self._run_logged(tmp_path, level="error"))["log"]
        assert quiet == []

    def test_old_fixture_has_no_logs(self):
        assert read_channels(str(FIXTURES / "eventlog_skew.jsonl"))["log"] == []

    def test_committed_truncated_fixture_loads_partially(self):
        """Regression: the chopped fixture simulates a driver killed
        mid-write; the complete first job must survive, whole."""
        with pytest.warns(UserWarning, match="truncated"):
            jobs = read_event_log(str(FIXTURES / "eventlog_truncated.jsonl"))
        assert len(jobs) == 1
        (job,) = jobs
        assert job.description == "sum at reduce"
        assert len(job.stages) == 2
        assert job.stages[0].is_shuffle_map
        totals = job.totals()
        assert totals.shuffle_bytes_written == 1010
        assert totals.task_binary_bytes == 5120


class TestV5Monitoring:
    """v5 added ``series`` (metrics-sampler ticks) and ``alert`` (alert-engine
    transitions) side channels for a monitoring plane that has since been
    removed: no writer emits them and the reader refuses them."""

    def test_committed_v4_fixture_still_loads(self):
        """Regression: the log of a v4 run, converted once to v8, loads
        whole -- jobs, telemetry, and logs intact."""
        path = str(FIXTURES / "eventlog_v4.jsonl")
        (job,) = read_event_log(path)
        assert job.stages and job.stages[0].tasks
        channels = read_channels(path)
        telemetry = channels["telemetry"]
        assert telemetry and all(isinstance(t, ExecutorHeartbeat) for t in telemetry)
        assert any(r.message == "job finished" for r in channels["log"])
        assert not {"series", "alert"} & set(channels)

    def test_a_series_line_older_than_v5_is_corruption(self, tmp_path):
        path = tmp_path / "v4.jsonl"
        path.write_text(json.dumps({"event": "series", "version": 4, "time": 1.0}) + "\n")
        with pytest.raises(ValueError, match="line 1: unsupported event-log version 4"):
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
        listener.on_event(InferenceBatchCompleted(
            method="monte_carlo", batch_width=8, replicates_total=8,
            planned_replicates=8, sets_total=1, sets_converged=0, min_pvalue=0.5,
        ))
        listener.close()
        with open(path, "a") as fh:
            fh.write('{"event":"inference","version":8,"kin')  # torn
        with pytest.warns(UserWarning, match="truncated"):
            channels = read_channels(path)
        assert [r.message for r in channels["log"]] == ["m"]
        assert [r.replicates_total for r in channels["inference"]] == [8]
        assert channels["job"] == []  # no jobs, but no crash either


class TestV6Fleet:
    """v6 added a ``fleet`` side channel (a stop-time snapshot of the
    cluster fleet's own counters and series) for a telemetry plane that has
    since been removed: no writer emits it."""

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

    def test_a_fleet_line_older_than_v6_is_corruption(self, tmp_path):
        path = tmp_path / "v5.jsonl"
        path.write_text(json.dumps({"event": "fleet", "version": 5, "snapshot": {}}) + "\n")
        with pytest.raises(ValueError, match="line 1: unsupported event-log version 5"):
            read_channels(str(path))


#: task metrics added after the committed fixtures were written; a log
#: without them loads them as 0, and the digest covers the tree without them
_NEWER_TASK_METRICS = (
    "blocks_evicted", "task_binary_cache_hits", "task_binary_cache_misses",
    "broadcast_memo_hits",
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
    for a planner that has since been removed; the committed logs load to
    the job trees the reader built before it and the other retired pieces
    went."""

    # digests of the job trees the parent of the one-format reader built
    # from each committed log, before eventlog_skew (v4), eventlog_truncated
    # (v2) and eventlog_v4 were converted to v8 (its own writer's lines,
    # side channels restamped); the retired ``profile`` task field, None
    # throughout, and the retired ``remote_cache_hits`` / ``disk_blocks_read``
    # / ``blocks_spilled`` task metrics, 0 throughout, left out
    @pytest.mark.parametrize("name,digest", [
        ("eventlog_skew.jsonl",
         "236bb3c2a421b65f14acb8de850dcc91cc607e34112196057c1c213d7986d3c7"),
        ("eventlog_truncated.jsonl",
         "5ea74cb0d81a06f37e5bc805ba86854bf6585a0d620d14ce4a6091e08533cc20"),
        ("eventlog_v4.jsonl",
         "ddcdfc58d08c221fbba18af339726f40a2eba17d5411047c6e6f7e74303f22cc"),
        ("eventlog_v8.jsonl",
         "ae095c240f1598e85759b1eda2b567a14487123c8d373c78685a98e5fd7dc1e8"),
    ], ids=["skew", "truncated", "v4", "v8"])
    def test_old_logs_load_to_the_same_job_trees(self, name, digest):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the truncated fixture's torn tail
            channels = read_channels(str(FIXTURES / name))
        assert set(channels) == {"job", "telemetry", "log", "inference"}
        assert _job_tree_digest(channels["job"]) == digest

    @staticmethod
    def _with_task_key(tmp_path, key, value, in_metrics=False):
        lines = []
        for line in (FIXTURES / "eventlog_v8.jsonl").read_text().splitlines():
            data = json.loads(line)
            if data["event"] == "job":
                for stage in data["stages"]:
                    for task in stage["tasks"]:
                        (task["metrics"] if in_metrics else task)[key] = value
            lines.append(json.dumps(data))
        path = tmp_path / f"{key}.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return read_event_log(str(path))

    def test_a_speculative_task_key_is_ignored(self, tmp_path):
        """So are the retired remote-fetch, disk-read and spill counters,
        non-zero, in a task's metrics."""
        expected = _job_tree_digest(read_event_log(str(FIXTURES / "eventlog_v8.jsonl")))
        assert _job_tree_digest(self._with_task_key(tmp_path, "speculative", True)) == expected
        for name in ("remote_cache_hits", "disk_blocks_read", "blocks_spilled"):
            jobs = self._with_task_key(tmp_path, name, 3, in_metrics=True)
            assert _job_tree_digest(jobs) == expected, name

    def test_profile_rows_are_ignored(self, tmp_path):
        """A v8 log whose tasks carry the retired sampled profiler's hotspot
        rows loads to the same job trees."""
        rows = [{"func": "core/algorithms.py:1(run)", "ncalls": 1,
                 "tottime": 0.001, "cumtime": 0.002}]
        jobs = self._with_task_key(tmp_path, "profile", rows)
        assert _job_tree_digest(jobs) == \
            "ae095c240f1598e85759b1eda2b567a14487123c8d373c78685a98e5fd7dc1e8"


class TestV8Inference:
    def test_inference_lines_round_trip(self, tmp_path):
        """The bus's inference events come back from the log as the events
        they were, bus timestamp included."""
        batch = InferenceBatchCompleted(
            method="monte_carlo", batch_width=64, replicates_total=64,
            planned_replicates=512, sets_total=3, sets_converged=1,
            min_pvalue=0.01,
        )
        batch.time = 12.5
        decision = SnpSetConverged(
            method="monte_carlo", set_index=0, set_name="set0",
            status="decided_significant", pvalue=0.01, ci_low=0.002,
            ci_high=0.04, replicates=64,
        )
        path = str(tmp_path / "v8.jsonl")
        listener = EventLogListener(path)
        listener.on_event(batch)
        listener.on_event(decision)
        listener.close()
        assert listener.written["inference"] == 2
        assert [json.loads(line)["kind"] for line in open(path)] == ["batch", "converged"]
        assert read_channels(path)["inference"] == [batch, decision]
        assert read_channels(path)["inference"][0].time == 12.5
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
        batches = [r for r in records if isinstance(r, InferenceBatchCompleted)]
        converged = [r for r in records if isinstance(r, SnpSetConverged)]
        assert batches and converged
        assert len(batches) + len(converged) == len(records)
        final = batches[-1]
        assert final.early_stop is True
        assert final.sets_converged == final.sets_total == 6
        assert final.replicates_total + final.replicates_saved == final.planned_replicates
        assert all(r.status in ("decided_significant", "decided_null")
                   for r in converged)
        assert all(0.0 <= r.ci_low <= r.pvalue <= r.ci_high <= 1.0
                   or r.ci_low <= r.ci_high
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
        batches = [r for r in records if isinstance(r, InferenceBatchCompleted)]
        assert batches, "expected inference batch lines in the v8 log"
        assert batches[-1].replicates_total == result.n_resamples
        assert len(read_event_log(path)) >= 1  # jobs unharmed

    def test_torn_final_inference_line_tolerated(self, tmp_path):
        """A writer killed mid-inference-line must not poison any reader."""
        path = str(tmp_path / "torn.jsonl")
        listener = EventLogListener(path)
        listener.on_event(InferenceBatchCompleted(
            method="permutation", batch_width=16, replicates_total=16,
            planned_replicates=128, sets_total=2, sets_converged=0,
        ))
        listener.close()
        with open(path, "a") as fh:
            fh.write('{"event":"inference","version":8,"kind":"batc')  # torn
        with pytest.warns(UserWarning, match="truncated"):
            channels = read_channels(path)
        (batch,) = channels["inference"]
        assert batch.replicates_total == 16
        assert channels["job"] == []  # no jobs, but no crash either

    def test_old_fixtures_have_no_inference(self):
        assert read_channels(str(FIXTURES / "eventlog_skew.jsonl"))["inference"] == []
        assert read_channels(str(FIXTURES / "eventlog_v4.jsonl"))["inference"] == []


def _plus_two(x):
    return x + 2


# -- fuzzing the reader (ROADMAP item 9) ----------------------------------------

_V8_LINES = (FIXTURES / "eventlog_v8.jsonl").read_text().splitlines()

#: JSON values of every type, for swapping into a field
_ANY_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=4), st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _paths(node, prefix=()):
    """Every (container path, key) of a parsed line, nested ones included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def _mutated_logs(draw):
    """The v8 fixture with one line mutated, and that line's number."""
    lines = list(_V8_LINES)
    index = draw(st.integers(0, len(lines) - 1))
    line = lines[index]
    data = json.loads(line)
    how = draw(st.sampled_from(["truncate", "swap", "drop", "replace", "version", "event"]))
    if how == "truncate":
        lines[index] = line[: draw(st.integers(0, len(line) - 1))]
    elif how == "replace":
        lines[index] = json.dumps(draw(st.one_of(
            st.none(), st.booleans(), st.integers(), st.text(max_size=4),
            st.lists(st.integers(), max_size=3),
        )))
    else:
        if how in ("swap", "drop"):
            path, key = draw(st.sampled_from(list(_paths(data))))
            container = _at(data, path)
            if how == "drop":
                del container[key]
            else:
                container[key] = draw(_ANY_JSON)
        elif how == "version":
            data["version"] = draw(st.one_of(st.integers(-1, 12), _ANY_JSON))
        else:
            data["event"] = draw(st.one_of(st.sampled_from(
                ["job", "heartbeat", "executor_timed_out", "log", "inference",
                 "series", "alert", "fleet", "adaptive"]), _ANY_JSON))
        lines[index] = json.dumps(data)
    return "\n".join(lines) + "\n", index + 1


def _cli(*argv):
    """``sparkscore <argv>``: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a truncated last line warns
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, database=None)
@given(_mutated_logs())
def test_a_mutated_log_loads_or_names_its_line(tmp_path_factory, mutated):
    """Truncate a line, swap a field for another type, drop a key, replace
    a line with a JSON scalar or list, or change its version or kind: the
    log either loads and ``history`` and ``doctor`` both render it, or the
    reader raises a ValueError naming that line, which both print as their
    one stderr line and exit 1."""
    text, lineno = mutated
    path = tmp_path_factory.getbasetemp() / "mutated.jsonl"
    path.write_text(text)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            read_channels(io.StringIO(text))
    except ValueError as exc:
        assert re.search(rf"event log line {lineno}\b", str(exc)), str(exc)
        for command in ("history", "doctor"):
            code, _, err = _cli(command, path)
            assert code == 1 and err == f"{path}: {exc}\n", (command, err)
    else:
        for command in ("history", "doctor"):
            code, _, err = _cli(command, path)
            assert code == 0, (command, err)


def _set_first(data, path, value):
    """Set ``path`` (keys and indexes) of a parsed line to ``value``."""
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


@pytest.mark.parametrize("command", ["history", "doctor"])
@pytest.mark.parametrize("fixture,record,path,message", [
    ("eventlog_skew.jsonl", ("job", None), ("wall_seconds",),
     "job field wall_seconds is str, not float"),
    ("eventlog_skew.jsonl", ("job", None), ("stages", 0, "tasks", 0, "duration_seconds"),
     "job field stages[0].tasks[0].duration_seconds is str, not float"),
    ("eventlog_v8.jsonl", ("job", None), ("stages", 0, "tasks", 0, "metrics", "cache_hits"),
     "job field stages[0].tasks[0].metrics.cache_hits is str, not int"),
    ("eventlog_v8.jsonl", ("inference", "batch"), ("replicates_total",),
     "inference field replicates_total is str, not int"),
], ids=["job-wall", "task-duration", "task-metric", "inference-batch"])
def test_a_wrong_typed_scalar_is_one_located_line(command, fixture, record, path,
                                                  message, tmp_path):
    """The first line of ``record``'s kind with the field at ``path`` set to
    a string."""
    lines = (FIXTURES / fixture).read_text().splitlines()
    index = next(
        i for i, line in enumerate(lines)
        if (json.loads(line)["event"], json.loads(line).get("kind")) == record
    )
    data = json.loads(lines[index])
    _set_first(data, path, "x")
    lines[index] = json.dumps(data)
    log = tmp_path / fixture
    log.write_text("\n".join(lines) + "\n")
    code, _, err = _cli(command, log)
    assert code == 1
    assert err == f"{log}: event log line {index + 1}: {message}\n"


def test_every_task_metric_reaches_the_log_history_and_trace(tmp_path):
    """Each :class:`TaskMetrics` field, set non-zero, survives the log round
    trip, shows in ``history`` and rides on the trace's task span: a field
    added to the dataclass needs no other edit to get there."""
    names = [f.name for f in dataclasses.fields(TaskMetrics)]
    metrics = TaskMetrics(**{
        f.name: type(f.default)(i + 1) for i, f in enumerate(dataclasses.fields(TaskMetrics))
    })
    record = TaskRecord(
        stage_id=0, partition=0, attempt=0, executor_id="exec-0",
        duration_seconds=0.5, metrics=metrics, succeeded=True, start_time=10.0,
        span_fragments=[{"name": "compute", "start": 0.1, "end": 0.4}],
    )
    stage = StageMetrics(stage_id=0, name="map", num_tasks=1, tasks=[record],
                         wall_seconds=0.5, submit_time=10.0)
    job = JobMetrics(job_id=0, description="every counter", wall_seconds=0.6,
                     stages=[stage], submit_time=10.0)
    log = tmp_path / "events.jsonl"
    write_jobs([job], str(log))
    assert read_event_log(str(log)) == [job]
    trace = tmp_path / "trace.json"
    code, out, _ = _cli("history", log, "--export-trace", trace)
    assert code == 0
    totals = out.split("totals:")[1]
    for name in names:
        assert re.search(rf"(?<![a-z_]){name} \S", totals), name
    (task,) = [e for e in json.loads(trace.read_text())["traceEvents"] if e.get("cat") == "task"]
    assert {name: task["args"][name] for name in names} == dataclasses.asdict(metrics)
