"""Executor heartbeats: liveness reporting, timeout detection, recovery."""

import operator
import os
import time
from pathlib import Path

import pytest

from repro.config import EngineConfig
from repro.engine.context import Context
from repro.engine.listener import (
    CollectingListener,
    ExecutorHeartbeat,
    ExecutorTimedOut,
    Listener,
    TaskEnd,
    TaskStart,
)


def _slow(x):
    time.sleep(0.05)
    return x


def _outlast_the_timeout(x):
    time.sleep(1.0)
    return x


#: how long partition 0's first attempt sleeps: well past the heartbeat timeout
STALL_SECONDS = 1.5


class _StallFirstAttemptOfPartition0:
    """Partition 0's first attempt sleeps through the timeout and touches
    ``woke`` after; every attempt maps ``x`` to ``10 * x``."""

    def __init__(self, woke: Path) -> None:
        self.woke = str(woke)

    def __call__(self, x):
        from repro.engine.task import current_task_context

        tc = current_task_context()
        if tc.partition == 0 and tc.attempt == 0:
            time.sleep(STALL_SECONDS)
            Path(self.woke).touch()
        return x * 10


def _wait_until_awake(woke: Path) -> None:
    """Block until the frozen worker has finished its attempt, then give its
    late result time to reach the driver (which must drop it)."""
    deadline = time.monotonic() + STALL_SECONDS + 5.0
    while not woke.exists():
        assert time.monotonic() < deadline, "the frozen worker never woke"
        time.sleep(0.02)
    time.sleep(0.3)


class _FreezeOnLaunch(Listener):
    """Suspends an executor's heartbeats as partition 0's first attempt
    launches on it: the worker keeps running, the driver stops hearing it."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.frozen: list[str] = []
        #: the frozen executor's ``alive`` flag as partition 0's retry launches
        self.alive_at_retry: dict[str, bool] = {}

    def on_task_start(self, event: TaskStart) -> None:
        if event.partition == 0 and event.attempt == 0 and not self.frozen:
            self.frozen.append(event.executor_id)
            for executor in self.ctx.executors:
                if executor.executor_id == event.executor_id:
                    executor.suspend_heartbeats()
        elif event.partition == 0 and event.attempt == 1 and self.frozen:
            self.alive_at_retry = {
                e.executor_id: e.alive for e in self.ctx.executors
                if e.executor_id in self.frozen
            }


def _keyed(x):
    return x // 10, x


def _stalled_map_then_reduce(ctx, woke: Path):
    """A shuffle whose map partition 0 stalls on its first attempt; each
    reduce key is one map partition's one record."""
    return (
        ctx.parallelize([1, 2], 2)
        .map(_StallFirstAttemptOfPartition0(woke))
        .map(_keyed)
        .reduce_by_key(operator.add)
    )


def _assert_partition_0_committed_once(ctx, frozen: str) -> None:
    """Map partition 0 has one succeeded record, the retry's, written on a
    healthy executor: the abandoned attempt folded nothing."""
    succeeded = [
        rec
        for job in ctx.metrics.jobs_snapshot()
        for stage in job.stages if stage.is_shuffle_map
        for rec in stage.tasks
        if rec.partition == 0 and rec.succeeded
    ]
    assert [rec.attempt for rec in succeeded] == [1]
    assert succeeded[0].executor_id != frozen
    assert succeeded[0].metrics.shuffle_records_written == 1


class TestHeartbeatFlow:
    def test_serial_backend_has_no_heartbeat_plane(self):
        # a serial task runs inline on the driver thread: nothing could act
        # on its timeout before it returned
        with Context(EngineConfig(backend="serial", heartbeat_interval=0.02)) as ctx:
            assert ctx.heartbeats is None
            assert ctx.parallelize(range(8), 4).map(_slow).sum() == 28

    def test_process_backend_heartbeats_cross_process(self):
        config = EngineConfig(
            backend="cluster", num_executors=2, executor_cores=2,
            default_parallelism=4, heartbeat_interval=0.05,
        )
        with Context(config) as ctx:
            collected = ctx.add_listener(CollectingListener(ExecutorHeartbeat))
            total = ctx.parallelize(range(16), 8).map(_slow).sum()
            assert total == 120
            # worker heartbeats may still be in the hub's queue; give it a
            # couple of drain ticks
            deadline = time.time() + 2.0
            while not collected.of(ExecutorHeartbeat) and time.time() < deadline:
                time.sleep(0.05)
            beats = collected.of(ExecutorHeartbeat)
            assert beats, "worker processes should heartbeat over their sockets"
            assert any(b.worker_pid != os.getpid() for b in beats), (
                "heartbeats must originate in the worker processes"
            )

    def test_heartbeats_disabled(self):
        config = EngineConfig(
            backend="serial", num_executors=1, executor_cores=1,
            default_parallelism=2, heartbeat_interval=0.0,
        )
        with Context(config) as ctx:
            assert ctx.heartbeats is None
            assert ctx.parallelize(range(4), 2).sum() == 6


class TestTimeoutRecovery:
    def test_stalled_executor_times_out_and_task_retries(self, fresh_cluster, tmp_path):
        """The headline fault drill: an executor freezes mid-task (the
        driver stops hearing its heartbeats), the monitor declares it lost,
        and the scheduler retries its in-flight task on a healthy executor
        instead of hanging the job."""
        config, _ = fresh_cluster(
            executor_cores=2, default_parallelism=2,
            heartbeat_interval=0.03, heartbeat_timeout=0.3,
        )
        woke = tmp_path / "woke"
        with Context(config) as ctx:
            collected = ctx.add_listener(CollectingListener())
            freezer = ctx.add_listener(_FreezeOnLaunch(ctx))

            start = time.perf_counter()
            totals = sorted(_stalled_map_then_reduce(ctx, woke).collect())
            assert totals == [(1, 10), (2, 20)]
            # the retry finished the job while the frozen worker still slept
            assert time.perf_counter() - start < STALL_SECONDS

            (frozen,) = freezer.frozen
            timeouts = collected.of(ExecutorTimedOut)
            assert [e.executor_id for e in timeouts] == [frozen]
            assert timeouts[0].seconds_since_heartbeat >= 0.3

            # timeout -> loss -> successful retry elsewhere: the retry
            # launched after the frozen executor was marked dead
            events = collected.events
            retry_end = next(
                e for e in collected.of(TaskEnd)
                if e.record.partition == 0 and e.record.succeeded
            )
            assert events.index(timeouts[0]) < events.index(retry_end)
            assert freezer.alive_at_retry == {frozen: False}
            assert retry_end.record.executor_id != frozen
            assert retry_end.record.attempt == 1

            # the frozen executor is dead; the survivor is alive
            by_id = {e.executor_id: e for e in ctx.executors}
            assert not by_id[frozen].alive

            _wait_until_awake(woke)
            _assert_partition_0_committed_once(ctx, frozen)

        # the freeze was this driver's view: a fresh Context on the same
        # fleet hears every executor, the frozen one included
        with Context(config) as ctx:
            collected = ctx.add_listener(CollectingListener(ExecutorTimedOut, TaskEnd))
            assert ctx.parallelize(range(4), 4).map(_slow).sum() == 6
            assert not collected.of(ExecutorTimedOut)
            assert all(e.alive for e in ctx.executors)
            ran_on = {e.record.executor_id for e in collected.of(TaskEnd)}
            assert ran_on == {"exec-0", "exec-1"}

    def test_abandoned_attempt_commits_exactly_once(self, fresh_cluster, tmp_path):
        """First result wins: once the abandoned map attempt has finished
        too, the driver has folded nothing of it -- the reduce totals count
        one output per map partition, and map partition 0 has one succeeded
        record, the retry's."""
        config, _ = fresh_cluster(
            executor_cores=2, default_parallelism=2,
            heartbeat_interval=0.03, heartbeat_timeout=0.3,
        )
        woke = tmp_path / "woke"
        with Context(config) as ctx:
            freezer = ctx.add_listener(_FreezeOnLaunch(ctx))
            reduced = _stalled_map_then_reduce(ctx, woke)
            assert sorted(reduced.collect()) == [(1, 10), (2, 20)]
            _wait_until_awake(woke)
            (frozen,) = freezer.frozen
            _assert_partition_0_committed_once(ctx, frozen)
            # rerun after the late result arrived: the registered map
            # outputs are reused as they are, the retry's
            assert sorted(reduced.collect()) == [(1, 10), (2, 20)]
            assert not ctx.metrics.last_job.stages[0].is_shuffle_map

    def test_abandoned_attempt_registers_no_block(self, fresh_cluster, tmp_path):
        """The cached variant: the abandoned attempt caches its block in its
        own worker, but its result never reaches the driver, so the block
        master knows only the retry's copy."""
        config, _ = fresh_cluster(
            executor_cores=2, default_parallelism=2,
            heartbeat_interval=0.03, heartbeat_timeout=0.3,
        )
        woke = tmp_path / "woke"
        with Context(config) as ctx:
            freezer = ctx.add_listener(_FreezeOnLaunch(ctx))
            rdd = ctx.parallelize([1, 2], 2).map(
                _StallFirstAttemptOfPartition0(woke)
            ).cache()
            assert rdd.collect() == [10, 20]
            _wait_until_awake(woke)
            (frozen,) = freezer.frozen
            (holder,) = ctx.block_master.locations((rdd.id, 0))
            assert holder != frozen
            assert ctx.cached_partition_count(rdd) == 2

    def test_fleet_spawned_without_heartbeats_still_reports_liveness(self):
        """Regression: worker heartbeats used to be baked in at spawn, so a
        fleet first created by a heartbeat_interval=0 context stayed silent
        for every later context, whose timeout monitor then declared the
        healthy executors lost ("no alive executors remain")."""
        # a shape no other test uses, so this test is what spawns the fleet
        quiet = EngineConfig(
            backend="cluster", num_executors=3, executor_cores=1,
            default_parallelism=3, heartbeat_interval=0.0,
        )
        watched = quiet.copy(heartbeat_interval=0.05, heartbeat_timeout=0.4)
        with Context(quiet) as ctx:
            assert ctx.parallelize(range(3), 3).map(_slow).sum() == 3
            manager = ctx.backend._manager
        try:
            with Context(watched) as ctx:
                assert ctx.backend._manager is manager
                collected = ctx.add_listener(CollectingListener(ExecutorTimedOut))
                rdd = ctx.parallelize(range(3), 3).map(_outlast_the_timeout)
                assert rdd.collect() == [0, 1, 2]
                assert not collected.of(ExecutorTimedOut)
                assert ctx.heartbeats.records_received > 0
            # with no hub subscribed the fleet drops records, queues nothing
            assert manager.heartbeats._sinks == ()
        finally:
            manager.stop()

    def test_a_new_cadence_reaches_a_sleeping_worker_at_once(self, fresh_cluster):
        """Regression: a worker's heartbeat loop slept out the cadence of
        the driver before (here 5 s), so a driver with a 0.3 s timeout
        heard nothing after the task's first beat and declared the healthy
        executor lost.  A task that changes the cadence wakes the loop."""
        slow, _ = fresh_cluster(
            num_executors=1, default_parallelism=1,
            heartbeat_interval=5.0, heartbeat_timeout=0,
        )
        with Context(slow) as ctx:
            assert ctx.parallelize([1], 1).sum() == 1  # loop now sleeps 5 s
        watched = slow.copy(heartbeat_interval=0.05, heartbeat_timeout=0.3)
        with Context(watched) as ctx:
            collected = ctx.add_listener(CollectingListener(ExecutorTimedOut))
            assert ctx.parallelize([1], 1).map(_outlast_the_timeout).collect() == [1]
            assert not collected.of(ExecutorTimedOut)

    def test_idle_executors_never_alarm(self):
        """Without in-flight work an executor legitimately goes quiet: a
        timeout shorter than the idle gap must not declare it lost."""
        config = EngineConfig(
            backend="cluster", num_executors=2, executor_cores=1,
            default_parallelism=2, heartbeat_interval=0.05, heartbeat_timeout=0.2,
        )
        with Context(config) as ctx:
            collected = ctx.add_listener(CollectingListener(ExecutorTimedOut))
            assert ctx.parallelize(range(4), 2).sum() == 6
            time.sleep(0.8)  # four timeouts long, both executors idle
            assert not collected.of(ExecutorTimedOut)
            assert all(e.alive for e in ctx.executors)
            assert ctx.parallelize(range(4), 2).sum() == 6

    def test_timed_out_flag_consumed_once(self):
        config = EngineConfig(
            backend="cluster", num_executors=2, executor_cores=2,
            default_parallelism=4, heartbeat_interval=0.02,
        )
        with Context(config) as ctx:
            hub = ctx.heartbeats
            assert hub.take_timed_out() == set()
            hub._pending_timeouts.add("exec-0")
            assert hub.take_timed_out() == {"exec-0"}
            assert hub.take_timed_out() == set()


class TestHubErrors:
    def test_a_failing_tick_is_logged_once_and_the_hub_keeps_ticking(self):
        from repro.obs.logging import capture_logs

        config = EngineConfig(
            backend="cluster", num_executors=2, executor_cores=2,
            default_parallelism=4, heartbeat_interval=0.02,
        )
        with Context(config) as ctx, capture_logs() as records:
            hub = ctx.heartbeats
            tick = hub._tick
            failed = []

            def tick_failing_once():
                if not failed:
                    failed.append(True)
                    raise RuntimeError("injected hub fault")
                tick()

            hub._tick = tick_failing_once
            deadline = time.monotonic() + 5.0
            while not failed:
                assert time.monotonic() < deadline, "the hub never ticked"
                time.sleep(0.01)
            received = hub.records_received
            assert ctx.parallelize(range(8), 4).map(_slow).sum() == 28
            while hub.records_received == received:
                assert time.monotonic() < deadline, "no heartbeats after the fault"
                time.sleep(0.01)
        warnings = [
            r for r in records if r.logger == "repro.heartbeat" and r.level == "warning"
        ]
        assert len(warnings) == 1
        assert warnings[0].fields["error"] == "RuntimeError: injected hub fault"


class TestExecutorSuspend:
    def test_suspend_and_resume(self):
        from repro.engine.executor import Executor

        executor = Executor("exec-9", 1 << 20)
        assert not executor.heartbeats_suspended
        executor.suspend_heartbeats()
        assert executor.heartbeats_suspended
        executor.resume_heartbeats()
        assert not executor.heartbeats_suspended

    def test_revive_clears_suspension(self):
        from repro.engine.executor import Executor

        executor = Executor("exec-9", 1 << 20)
        executor.suspend_heartbeats()
        executor.kill()
        executor.revive()
        assert not executor.heartbeats_suspended


class TestConfig:
    def test_heartbeat_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(heartbeat_interval=-1.0)
        with pytest.raises(ValueError):
            EngineConfig(heartbeat_timeout=-0.1)

    def test_timeout_must_outlast_the_heartbeat(self):
        # a busy worker heartbeats every interval, so a timeout no longer
        # than that would declare every long task's executor lost
        for timeout in (0.25, 0.5):
            with pytest.raises(ValueError, match="heartbeat_timeout"):
                EngineConfig(heartbeat_interval=0.5, heartbeat_timeout=timeout)
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            EngineConfig().copy(heartbeat_timeout=0.1)
        assert EngineConfig(heartbeat_interval=0.5, heartbeat_timeout=0.6)
        assert EngineConfig(heartbeat_interval=0.5, heartbeat_timeout=0)
        assert EngineConfig(heartbeat_interval=0, heartbeat_timeout=0.1)
