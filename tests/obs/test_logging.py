"""Structured logging: records, the bus, sinks, context, worker capture."""

from __future__ import annotations

import json

import pytest

from repro.config import EngineConfig
from repro.engine.context import Context
from repro.obs.logging import (
    LOG_BUS,
    JsonlLogSink,
    LogBus,
    LogRecord,
    StructuredLogger,
    capture_logs,
    current_log_context,
    log_context,
)


def make_record(**kwargs) -> LogRecord:
    base = dict(time=1.0, level="info", logger="t", message="hello")
    base.update(kwargs)
    return LogRecord(**base)


class TestLogRecord:
    def test_to_dict_omits_unset_correlation(self):
        d = make_record().to_dict()
        assert d == {"time": 1.0, "level": "info", "logger": "t", "message": "hello"}

    def test_round_trip(self, tmp_path):
        """Through the event log's one writer and one reader."""
        from repro.engine.eventlog import EventLogListener, read_channels

        rec = make_record(
            job_id=3, stage_id=7, partition=1, attempt=0, executor_id="exec-2",
            fields={"rows": 10},
        )
        path = str(tmp_path / "events.jsonl")
        listener = EventLogListener(path)
        listener.write_log(rec)
        listener.close()
        (back,) = read_channels(path)["log"]
        assert back == rec
        assert back.correlation() == (3, 7, 1, 0, "exec-2")


class TestLogBus:
    def test_level_gating_counts_suppressed(self):
        bus = LogBus(level="warning")
        bus.emit(make_record(level="info"))
        bus.emit(make_record(level="error"))
        assert bus.records_emitted == 1
        assert bus.records_suppressed == 1
        assert [r.level for r in bus.records()] == ["error"]

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            LogBus(level="verbose")
        with pytest.raises(ValueError):
            LogBus().set_level("trace")

    def test_ring_is_bounded(self):
        bus = LogBus(capacity=4, level="debug")
        for i in range(10):
            bus.emit(make_record(message=f"m{i}"))
        assert [r.message for r in bus.records()] == ["m6", "m7", "m8", "m9"]
        assert bus.records_emitted == 10

    def test_records_filter_and_limit(self):
        bus = LogBus(level="debug")
        for level in ("debug", "info", "warning", "debug", "error"):
            bus.emit(make_record(level=level))
        assert len(bus.records(level="info")) == 3
        assert [r.level for r in bus.records(level="info", limit=2)] == [
            "warning", "error",
        ]

    def test_raising_sink_is_isolated(self):
        bus = LogBus(level="debug")
        seen = []

        def bad(record):
            raise RuntimeError("sink boom")

        bus.add_sink(bad)
        bus.add_sink(seen.append)
        bus.emit(make_record())
        assert len(seen) == 1  # later sinks still ran
        assert len(bus.sink_errors) == 1
        assert "sink boom" in str(bus.sink_errors[0][2])

    def test_replay_bypasses_level_gate(self):
        bus = LogBus(level="error")
        bus.replay(make_record(level="debug"))
        assert bus.records_emitted == 1

    def test_remove_sink(self):
        bus = LogBus(level="debug")
        seen = []
        sink = bus.add_sink(seen.append)
        bus.remove_sink(sink)
        bus.emit(make_record())
        assert seen == []


class TestLogContext:
    def test_frames_nest_and_pop(self):
        assert current_log_context() == {}
        with log_context(job_id=1):
            with log_context(stage_id=2, partition=0):
                assert current_log_context() == {
                    "job_id": 1, "stage_id": 2, "partition": 0,
                }
            assert current_log_context() == {"job_id": 1}
        assert current_log_context() == {}

    def test_logger_folds_context_and_fields(self):
        bus = LogBus(level="debug")
        logger = StructuredLogger("test", bus)
        with log_context(job_id=5, stage_id=1, custom="ctx"):
            logger.info("msg", executor_id="exec-0", rows=42)
        (rec,) = bus.records()
        assert rec.job_id == 5
        assert rec.stage_id == 1
        assert rec.executor_id == "exec-0"
        # non-correlation keys land in fields, from both sources
        assert rec.fields == {"custom": "ctx", "rows": 42}

    def test_suppressed_before_formatting(self):
        bus = LogBus(level="error")
        logger = StructuredLogger("test", bus)
        logger.debug("never", rows=1)
        assert bus.records() == []
        assert bus.records_suppressed == 1


class TestCaptureLogs:
    def test_captures_and_restores(self):
        bus = LogBus(level="warning")
        logger = StructuredLogger("test", bus)
        with capture_logs(bus, level="debug") as records:
            logger.debug("inside")
        logger.debug("outside")
        assert [r.message for r in records] == ["inside"]
        assert bus.level == "warning"  # restored
        assert all(r.message != "outside" for r in bus.records())


class TestSinks:
    def test_jsonl_sink_round_trips(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        sink = JsonlLogSink(path)
        sink(make_record(job_id=1, fields={"k": "v"}))
        sink.close()
        lines = open(path).read().splitlines()
        assert len(lines) == 1
        assert LogRecord(**json.loads(lines[0])) == make_record(job_id=1, fields={"k": "v"})


class TestEngineIntegration:
    def _task_finished_keys(self, backend: str) -> set[tuple]:
        config = EngineConfig(
            backend=backend, num_executors=2, executor_cores=2,
            default_parallelism=4, log_level="debug",
        )
        LOG_BUS.clear()
        with Context(config) as ctx:
            (
                ctx.parallelize(range(200), 4)
                .map(lambda x: (x % 5, x))
                .reduce_by_key(lambda a, b: a + b)
                .collect()
            )
            records = LOG_BUS.records()
        return {
            (r.job_id, r.stage_id, r.partition)
            for r in records
            if r.message == "task finished"
        }

    def test_correlation_identical_across_backends(self):
        """The same job logs the same (job, stage, partition) ids under
        every backend -- worker-side records ship home with full ids."""
        expected = {(0, s, p) for s in (0, 1) for p in range(4)}
        for backend in ("serial", "cluster"):
            assert self._task_finished_keys(backend) == expected, backend

    def test_worker_records_carry_executor_ids(self):
        LOG_BUS.clear()
        config = EngineConfig(
            backend="cluster", num_executors=2, executor_cores=1,
            default_parallelism=2, log_level="debug",
        )
        with Context(config) as ctx:
            ctx.parallelize(range(10), 2).map(lambda x: x + 1).collect()
        finished = [
            r for r in LOG_BUS.records() if r.message == "task finished"
        ]
        assert len(finished) == 2
        assert {r.executor_id for r in finished} <= {"exec-0", "exec-1"}
        assert all(r.attempt == 0 for r in finished)

    def test_context_restores_previous_bus_level(self):
        before = LOG_BUS.level
        with Context(EngineConfig(backend="serial", log_level="error")):
            assert LOG_BUS.level == "error"
        assert LOG_BUS.level == before

    def test_user_code_logs_from_tasks(self, ctx):
        """get_logger() inside a mapped function needs no plumbing."""
        LOG_BUS.clear()

        def tag(x):
            from repro.obs.logging import get_logger

            get_logger("user.task").warning("seen", value=x)
            return x

        ctx.parallelize([1, 2, 3], 3).map(tag).collect()
        seen = [r for r in LOG_BUS.records() if r.logger == "user.task"]
        assert len(seen) == 3
        assert all(r.stage_id is not None and r.partition is not None for r in seen)
