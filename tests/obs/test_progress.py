"""ProgressTracker state machine and Spark-style console bars."""

import io
import threading
import time

from repro.config import EngineConfig
from repro.engine.context import Context
from repro.engine.listener import (
    JobEnd,
    JobStart,
    ListenerBus,
    StageCompleted,
    StageSubmitted,
    TaskEnd,
    TaskStart,
)
from repro.engine.metrics import JobMetrics, StageMetrics, TaskRecord
from repro.engine.task import TaskContext
from repro.obs.progress import ConsoleProgressListener, ProgressTracker


def _task_end(stage_id, partition, succeeded=True):
    tc = TaskContext(stage_id, partition, 0, "exec-0")
    return TaskEnd(TaskRecord(
        stage_id=stage_id, partition=partition, attempt=0,
        executor_id="exec-0", duration_seconds=0.01, metrics=tc.metrics,
        succeeded=succeeded, error=None if succeeded else "boom",
    ))


def _tracked():
    """A tracker wired to a real bus (typed hooks dispatch there)."""
    bus = ListenerBus()
    tracker = bus.add_listener(ProgressTracker())
    return bus, tracker


def _stages(tracker):
    return list(tracker.stages.values())


class TestTracker:
    def test_job_and_stage_lifecycle(self):
        bus, tracker = _tracked()
        bus.post(JobStart(job_id=0, description="sum"))
        bus.post(StageSubmitted(
            stage_id=0, attempt=0, name="stage 0", job_id=0, num_tasks=2
        ))
        bus.post(TaskStart(stage_id=0, partition=0, attempt=0,
                           executor_id="exec-0"))
        (stage,) = tracker.active_stages()
        assert stage["active_tasks"] == 1
        assert stage["completed_tasks"] == 0

        bus.post(_task_end(0, 0))
        bus.post(_task_end(0, 1))
        (stage,) = tracker.active_stages()
        assert stage["completed_tasks"] == 2
        assert stage["active_tasks"] == 0

        job = JobMetrics(job_id=0, description="sum", wall_seconds=0.1)
        stage = StageMetrics(stage_id=0, name="stage 0", num_tasks=2)
        bus.post(StageCompleted(stage=stage, job_id=0))
        bus.post(JobEnd(job_id=0, job=job, succeeded=True))
        assert _stages(tracker)[0]["state"] == "complete"
        assert tracker.active_stages() == []
        assert not bus.listener_errors

    def test_failed_tasks_counted(self):
        bus, tracker = _tracked()
        bus.post(StageSubmitted(
            stage_id=0, attempt=0, name="s", job_id=0, num_tasks=2
        ))
        bus.post(_task_end(0, 0, succeeded=False))
        assert _stages(tracker)[0]["failed_tasks"] == 1

    def test_stage_retry_tracked_separately(self):
        bus, tracker = _tracked()
        bus.post(StageSubmitted(
            stage_id=0, attempt=0, name="s", job_id=0, num_tasks=2
        ))
        bus.post(StageSubmitted(
            stage_id=0, attempt=1, name="s", job_id=0, num_tasks=2
        ))
        bus.post(_task_end(0, 0))
        stages = _stages(tracker)
        assert len(stages) == 2
        # task events land on the newest attempt
        by_attempt = {s["attempt"]: s for s in stages}
        assert by_attempt[1]["completed_tasks"] == 1
        assert by_attempt[0]["completed_tasks"] == 0

    def test_task_events_find_their_stage_among_many(self):
        """A task event goes to its own stage's newest attempt whatever
        other stages the tracker has seen."""
        bus, tracker = _tracked()
        for stage_id in range(50):
            bus.post(StageSubmitted(
                stage_id=stage_id, attempt=0, name="s", job_id=0, num_tasks=1
            ))
        bus.post(StageSubmitted(
            stage_id=7, attempt=1, name="s", job_id=0, num_tasks=1
        ))
        bus.post(_task_end(7, 0))
        assert tracker.stages[(7, 1)]["completed_tasks"] == 1
        assert tracker.stages[(7, 0)]["completed_tasks"] == 0
        assert sum(s["completed_tasks"] for s in _stages(tracker)) == 1


class TestContextWiring:
    def _config(self):
        return EngineConfig(backend="serial", num_executors=1,
                            executor_cores=1, default_parallelism=4)

    def test_default_context_attaches_no_progress_listener(self):
        with Context(self._config()) as ctx:
            attached = {type(l).__name__ for l in ctx.listener_bus.listeners}
            assert ctx.progress is None
        assert not attached & {"ProgressTracker", "ConsoleProgressListener"}
        assert not any("Metrics" in name for name in attached), attached

    def test_progress_context_draws_its_bars(self, capsys):
        with Context(self._config(), progress=True) as ctx:
            assert isinstance(ctx.progress, ProgressTracker)
            attached = {type(l) for l in ctx.listener_bus.listeners}
            assert {ProgressTracker, ConsoleProgressListener} <= attached
            ctx.parallelize(range(16), 4).sum()
        err = capsys.readouterr().err
        assert "[Stage 0:" in err
        assert err.endswith("\r"), "bar must be cleared once the job ends"

    def test_progress_advances_mid_flight(self):
        """Read the tracker while a slow job runs: completion counts must
        move before the job finishes -- what the console bar draws."""
        release = threading.Event()

        def slow(x):
            if x % 10 == 5:
                time.sleep(0.15)
            return x

        with Context(self._config(), progress=False) as ctx:
            tracker = ctx.add_listener(ProgressTracker())

            def run():
                ctx.parallelize(range(80), 8).map(slow).sum()
                release.set()

            worker = threading.Thread(target=run)
            worker.start()
            mid_flight = []
            try:
                deadline = time.time() + 10.0
                while not release.is_set() and time.time() < deadline:
                    mid_flight += [s["completed_tasks"] for s in tracker.active_stages()]
                    time.sleep(0.02)
            finally:
                worker.join(timeout=10.0)
        assert any(0 < done < 8 for done in mid_flight), (
            f"progress never advanced mid-flight: {mid_flight}"
        )
        assert tracker.active_stages() == []


class TestConsoleBars:
    def test_bar_rendered_and_cleared(self):
        out = io.StringIO()
        config = EngineConfig(backend="serial", num_executors=1,
                              executor_cores=1, default_parallelism=4)
        with Context(config) as ctx:
            tracker = ctx.add_listener(ProgressTracker())
            console = ConsoleProgressListener(tracker, stream=out, min_interval=0.0)
            ctx.add_listener(console)
            ctx.parallelize(range(16), 4).sum()
        text = out.getvalue()
        assert "[Stage 0:" in text
        assert text.endswith("\r"), "bar must be cleared once the job ends"

    def test_bar_format(self):
        bus, tracker = _tracked()
        bus.post(StageSubmitted(
            stage_id=3, attempt=0, name="s", job_id=0, num_tasks=48
        ))
        for p in range(12):
            bus.post(_task_end(3, p))
        console = ConsoleProgressListener(tracker, stream=io.StringIO(), width=50)
        (stage,) = tracker.active_stages()
        bar = console._bar(stage)
        assert bar.startswith("[Stage 3:")
        assert bar.endswith("(12/48)]")
        assert "=" * 12 + ">" in bar  # 50 * 12/48 = 12 filled columns

    def test_closed_stream_tolerated(self):
        bus, tracker = _tracked()
        bus.post(StageSubmitted(
            stage_id=0, attempt=0, name="s", job_id=0, num_tasks=2
        ))
        stream = io.StringIO()
        console = ConsoleProgressListener(tracker, stream=stream, min_interval=0.0)
        console.on_task_end(_task_end(0, 0))
        stream.close()
        console.on_task_end(_task_end(0, 1))  # must not raise
        console.close()
