"""Listener bus: typed dispatch, ordering, and listener isolation."""

import operator

import pytest

from repro.engine.listener import (
    CollectingListener,
    EngineEvent,
    JobEnd,
    JobStart,
    Listener,
    ListenerBus,
    StageCompleted,
    StageSubmitted,
    TaskEnd,
    TaskStart,
    _handler_name,
)


class TestHandlerNames:
    def test_camel_to_snake(self):
        assert _handler_name(JobStart) == "on_job_start"
        assert _handler_name(StageSubmitted) == "on_stage_submitted"
        assert _handler_name(TaskEnd) == "on_task_end"
        assert _handler_name(StageCompleted) == "on_stage_completed"


class TestBusMechanics:
    def test_post_reaches_generic_and_typed_hooks(self):
        calls = []

        class Both(Listener):
            def on_event(self, event):
                calls.append(("generic", type(event).__name__))

            def on_job_start(self, event):
                calls.append(("typed", event.job_id))

        bus = ListenerBus()
        bus.add_listener(Both())
        bus.post(JobStart(job_id=7, description="d"))
        assert calls == [("generic", "JobStart"), ("typed", 7)]

    def test_events_delivered_in_posting_order(self):
        bus = ListenerBus()
        sink = bus.add_listener(CollectingListener())
        bus.post(JobStart(job_id=0))
        bus.post(StageSubmitted(stage_id=0, attempt=0, name="s", num_tasks=1, job_id=0))
        bus.post(TaskStart(stage_id=0, partition=0, attempt=0, executor_id="e0"))
        assert sink.names() == ["JobStart", "StageSubmitted", "TaskStart"]

    def test_bus_stamps_monotonic_time(self):
        bus = ListenerBus()
        sink = bus.add_listener(CollectingListener())
        bus.post(JobStart(job_id=0))
        bus.post(JobStart(job_id=1))
        t0, t1 = (e.time for e in sink.events)
        assert 0.0 < t0 <= t1

    def test_raising_listener_is_isolated(self):
        class Broken(Listener):
            def on_event(self, event):
                raise RuntimeError("boom")

        bus = ListenerBus()
        broken = bus.add_listener(Broken())
        sink = bus.add_listener(CollectingListener())
        bus.post(JobStart(job_id=1))
        # the healthy listener still got the event...
        assert sink.names() == ["JobStart"]
        # ...and the failure is recorded, not raised
        assert len(bus.listener_errors) == 1
        listener, event, exc = bus.listener_errors[0]
        assert listener is broken
        assert isinstance(event, JobStart)
        assert str(exc) == "boom"

    def test_remove_listener(self):
        bus = ListenerBus()
        sink = bus.add_listener(CollectingListener())
        bus.remove_listener(sink)
        bus.post(JobStart(job_id=0))
        assert sink.events == []
        bus.remove_listener(sink)  # double-remove is a no-op

    def test_stop_closes_listeners_and_isolates_close_errors(self):
        closed = []

        class Closer(Listener):
            def close(self):
                closed.append(True)

        class BadCloser(Listener):
            def close(self):
                raise OSError("disk gone")

        bus = ListenerBus()
        bus.add_listener(Closer())
        bus.add_listener(BadCloser())
        bus.stop()
        assert closed == [True]
        assert any(isinstance(exc, OSError) for _, _, exc in bus.listener_errors)
        assert bus.listeners == []

    def test_collecting_listener_filter(self):
        bus = ListenerBus()
        only_jobs = bus.add_listener(CollectingListener(JobStart, JobEnd))
        bus.post(JobStart(job_id=0))
        bus.post(TaskStart(stage_id=0, partition=0, attempt=0, executor_id="e0"))
        assert only_jobs.names() == ["JobStart"]


class TestEngineIntegration:
    def test_job_lifecycle_event_order(self, ctx):
        sink = ctx.add_listener(CollectingListener())
        ctx.parallelize(range(8), 2).map(lambda x: x * 2).sum()

        names = sink.names()
        assert names[0] == "JobStart"
        assert names[-1] == "JobEnd"
        # lifecycle nesting: job wraps stages wrap tasks
        assert names.index("StageSubmitted") < names.index("TaskStart")
        assert names.index("TaskStart") < names.index("TaskEnd")
        assert names.index("TaskEnd") <= names.index("StageCompleted")
        ends = sink.of(TaskEnd)
        assert len(ends) == 2
        assert all(e.record.succeeded for e in ends)
        (job_end,) = sink.of(JobEnd)
        assert job_end.succeeded and job_end.job.stages

    def test_shuffle_and_stage_events(self, ctx):
        """Shuffle volume is stated by the job record the stage events
        carry: each map task's record counts what it wrote, each reduce
        task's what it read."""
        sink = ctx.add_listener(CollectingListener(StageCompleted))
        pairs = ctx.parallelize([(i % 3, 1) for i in range(30)], 4)
        pairs.reduce_by_key(operator.add).collect()

        stages = sink.of(StageCompleted)
        assert len(stages) == 2 and not any(e.failed for e in stages)
        map_stage, reduce_stage = (e.stage for e in stages)
        writes = [t.metrics.shuffle_records_written for t in map_stage.tasks]
        assert len(writes) == 4  # one record per map partition
        # map-side combine: each partition writes one record per distinct key
        assert sum(writes) == 12
        assert all(t.metrics.shuffle_bytes_written > 0 for t in map_stage.tasks)
        job = ctx.metrics.last_job
        assert job.totals().shuffle_records_read == sum(writes)
        assert reduce_stage.totals().shuffle_records_read == sum(writes)

    def test_failed_job_posts_job_end(self, ctx):
        sink = ctx.add_listener(CollectingListener(JobEnd))

        def explode(x):
            raise ValueError("bad record")

        with pytest.raises(Exception):
            ctx.parallelize(range(4), 2).map(explode).collect()
        (job_end,) = sink.of(JobEnd)
        assert not job_end.succeeded

    def test_listener_error_does_not_fail_job(self, ctx):
        class Broken(Listener):
            def on_task_end(self, event):
                raise RuntimeError("observer bug")

        ctx.add_listener(Broken())
        assert ctx.parallelize(range(6), 2).sum() == 15
        assert ctx.listener_bus.listener_errors
