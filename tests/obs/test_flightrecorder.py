"""The failure flight recorder: post-mortem bundles on every backend."""

import glob
import json
import os

import pytest

from repro.config import EngineConfig
from repro.engine.context import Context
from repro.engine.faults import FaultInjector, FaultPlan
from repro.engine.listener import JobStart
from repro.engine.scheduler import JobFailedError
from repro.obs.flightrecorder import (
    BUNDLE_KIND,
    FlightRecorder,
    _event_to_dict,
    load_bundle,
)

BACKENDS = ("serial", "cluster")


def _failing_ctx(backend, out_dir, **overrides):
    """A context whose partition 2 always fails (no retries left)."""
    config = EngineConfig(
        backend=backend, num_executors=2, executor_cores=2,
        default_parallelism=4, max_task_retries=0,
        flight_recorder_dir=str(out_dir), **overrides,
    )
    plan = FaultPlan(fail_partition_attempts={2: 99})
    return Context(config, fault_injector=FaultInjector(plan))


class TestBundleOnFailure:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failed_job_dumps_a_loadable_bundle(self, backend, tmp_path):
        with _failing_ctx(backend, tmp_path) as ctx:
            with pytest.raises(JobFailedError):
                ctx.parallelize(range(16), 4).map(lambda x: x + 1).sum()
            assert len(ctx.flight_recorder.bundles) == 1
            (path,) = ctx.flight_recorder.bundles
        bundle = load_bundle(path)
        assert bundle["kind"] == BUNDLE_KIND
        assert bundle["reason"] == "job_failure"
        failing = bundle["failing_task"]
        assert failing["stage_id"] == 0
        assert failing["partition"] == 2
        assert "InjectedTaskFailure" in failing["error"]
        assert bundle["error"] == failing["error"]
        # the failed job's stage tree rides along with its task records
        tasks = bundle["job"]["stages"][0]["tasks"]
        assert any(not t["succeeded"] for t in tasks)
        # context state: config + executors
        assert bundle["config"]["backend"] == backend
        assert {e["executor_id"] for e in bundle["executors"]} == {"exec-0", "exec-1"}

    def test_bundle_carries_recent_events_and_logs(self, tmp_path):
        with _failing_ctx("serial", tmp_path) as ctx:
            from repro.obs.logging import LOG_BUS

            LOG_BUS.clear()
            with pytest.raises(JobFailedError):
                ctx.parallelize(range(16), 4).sum()
            (path,) = ctx.flight_recorder.bundles
        bundle = load_bundle(path)
        kinds = {e["event"] for e in bundle["events"]}
        assert {"JobStart", "TaskStart", "TaskEnd"} <= kinds
        failed_ends = [
            e for e in bundle["events"]
            if e["event"] == "TaskEnd" and not e["succeeded"]
        ]
        assert failed_ends and failed_ends[0]["partition"] == 2
        # log records join back to the failing task via correlation fields
        assert any(
            r.get("stage_id") == 0 and r.get("partition") == 2
            for r in bundle["logs"]
        )

    def test_bundle_has_no_monitoring_sections(self, tmp_path):
        with _failing_ctx("serial", tmp_path) as ctx:
            with pytest.raises(JobFailedError):
                ctx.parallelize(range(16), 4).sum()
            (path,) = ctx.flight_recorder.bundles
        assert not {"series", "alerts"} & set(load_bundle(path))

    def test_one_bundle_per_failed_job(self, tmp_path):
        with _failing_ctx("serial", tmp_path) as ctx:
            for _ in range(3):
                with pytest.raises(JobFailedError):
                    ctx.parallelize(range(16), 4).sum()
            assert len(ctx.flight_recorder.bundles) == 3
        names = sorted(os.path.basename(p) for p in glob.glob(str(tmp_path / "*.json")))
        assert names == [
            "postmortem-job0-001.json",
            "postmortem-job1-002.json",
            "postmortem-job2-003.json",
        ]

    def test_successful_jobs_write_nothing(self, tmp_path):
        config = EngineConfig(backend="serial", num_executors=2,
                              executor_cores=2, default_parallelism=4,
                              flight_recorder_dir=str(tmp_path))
        with Context(config) as ctx:
            assert ctx.parallelize(range(8), 4).sum() == 28
            assert ctx.flight_recorder.bundles == []
        assert glob.glob(str(tmp_path / "*.json")) == []


class TestRecorderMechanics:
    def test_event_ring_bounded(self):
        recorder = FlightRecorder("/nonexistent", max_events=5)
        for i in range(20):
            recorder.on_event(JobStart(job_id=i, description="d"))
        assert len(recorder._events) == 5
        assert recorder._events[0]["job_id"] == 15

    def test_events_tail_respects_window(self):
        recorder = FlightRecorder("/nonexistent", window=10.0)
        for t in (0.0, 5.0, 95.0, 99.0):
            event = JobStart(job_id=0, description="d")
            event.time = t
            recorder.on_event(event)
        assert [e["time"] for e in recorder.events_tail(now=100.0)] == [95.0, 99.0]

    def test_event_to_dict_sanitizes_generic_events(self):
        event = JobStart(job_id=3, description="sum")
        event.time = 1.5
        d = _event_to_dict(event)
        assert d == {"event": "JobStart", "time": 1.5, "job_id": 3,
                     "description": "sum"}
        json.dumps(d)  # must be JSON-safe

    def test_dump_failure_never_raises(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("occupied")  # makedirs will fail on a file
        recorder = FlightRecorder(str(target))
        assert recorder.dump(reason="test") is None
        assert recorder.bundles == []

    def test_dump_on_stop_is_the_safety_net(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path / "bundles"))
        assert recorder.dump_on_stop() is None  # no failures: no bundle
        recorder.failures_seen = 1
        path = recorder.dump_on_stop()
        assert path is not None
        assert load_bundle(path)["reason"] == "stop_after_error"
        # once a bundle exists the net does not double-write
        assert recorder.dump_on_stop() is None

    def test_load_bundle_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError, match=BUNDLE_KIND):
            load_bundle(str(path))


def _raise(exc):
    def call(*args):
        raise exc

    return call


class TestFleetSnapshotErrors:
    @pytest.fixture
    def recorder(self, tmp_path):
        config = EngineConfig(backend="serial", num_executors=1,
                              executor_cores=1, default_parallelism=1)
        with Context(config) as ctx:
            yield FlightRecorder(str(tmp_path), context=ctx)

    def test_unreachable_head_writes_the_bundle_with_one_warning(self, recorder):
        from repro.obs.logging import capture_logs

        recorder.context.backend.fleet_snapshot = _raise(ConnectionError("head gone"))
        with capture_logs() as records:
            path = recorder.dump(reason="test")
        assert path is not None
        assert "fleet" not in load_bundle(path)
        (warning,) = [
            r for r in records
            if r.logger == "repro.obs.flightrecorder" and r.level == "warning"
            and r.message.startswith("fleet snapshot")
        ]
        assert warning.fields["error"] == "ConnectionError: head gone"

    def test_a_type_error_fails_the_dump_loudly(self, recorder):
        from repro.obs.logging import capture_logs

        recorder.context.backend.fleet_snapshot = _raise(TypeError("bad call"))
        with capture_logs() as records:
            assert recorder.dump(reason="test") is None
        (error,) = [r for r in records if r.level == "error"]
        assert error.fields["error"] == "TypeError: bad call"
