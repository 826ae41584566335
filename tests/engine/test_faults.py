"""Fault injection: task retry, executor loss, lineage recovery."""

import operator

import pytest

from repro.config import EngineConfig
from repro.engine.context import Context
from repro.engine.faults import FaultInjector, FaultPlan
from repro.engine.listener import CollectingListener, TaskEnd
from repro.engine.scheduler import JobFailedError
from repro.genomics.io.formats import FormatError


def _refuse_four(x):
    if x == 4:
        raise FormatError("no good", "g.txt", 7)
    return x


def make_ctx(plan=None, **config_overrides):
    defaults = dict(backend="serial", num_executors=3, executor_cores=1, default_parallelism=6)
    defaults.update(config_overrides)
    injector = FaultInjector(plan) if plan is not None else None
    return Context(EngineConfig(**defaults), fault_injector=injector)


class TestTaskRetry:
    def test_transient_failure_retried(self):
        plan = FaultPlan(fail_partition_attempts={1: 1})
        with make_ctx(plan) as ctx:
            out = ctx.parallelize(range(12), 6).map(lambda x: x * 2).collect()
            assert out == [x * 2 for x in range(12)]
            assert ctx.fault_injector.injected_failures >= 1
            assert ctx.metrics.jobs[-1].num_task_failures >= 1

    def test_double_failure_still_recovers(self):
        plan = FaultPlan(fail_partition_attempts={0: 2})
        with make_ctx(plan) as ctx:
            assert ctx.parallelize(range(6), 6).sum() == 15

    def test_budget_exhausted_fails_job(self):
        plan = FaultPlan(fail_partition_attempts={0: 99})
        with make_ctx(plan, max_task_retries=2) as ctx:
            with pytest.raises(JobFailedError):
                ctx.parallelize(range(6), 6).sum()

    @pytest.mark.parametrize("backend", ["serial", "cluster"])
    def test_malformed_input_is_not_retried(self, backend):
        """A ``FormatError`` is a property of the input bytes: one attempt,
        and the job fails with it, not with a retry-budget ``JobFailedError``."""
        ended = CollectingListener(TaskEnd)
        with make_ctx(backend=backend, max_task_retries=3) as ctx:
            ctx.add_listener(ended)
            with pytest.raises(FormatError, match=r"^g\.txt:7: no good$") as raised:
                ctx.parallelize(range(6), 3).map(_refuse_four).collect()
        assert type(raised.value) is FormatError
        assert (raised.value.source, raised.value.lineno) == ("g.txt", 7)
        failed = [e.record for e in ended.events if not e.record.succeeded]
        assert [(r.partition, r.attempt) for r in failed] == [(2, 0)]

    def test_retry_does_not_duplicate_map_output(self):
        plan = FaultPlan(fail_partition_attempts={2: 1})
        with make_ctx(plan) as ctx:
            pairs = ctx.parallelize(range(12), 6).map(lambda x: (x % 3, 1))
            totals = dict(pairs.reduce_by_key(operator.add).collect())
            # partition 2 failed once in each stage; the map attempt ran
            # twice, but its output folded exactly once
            assert totals == {0: 4, 1: 4, 2: 4}
            assert ctx.fault_injector.injected_failures == 2
            (map_stage,) = [s for s in ctx.metrics.last_job.stages if s.is_shuffle_map]
            attempts = [(r.attempt, r.succeeded) for r in map_stage.tasks if r.partition == 2]
            assert sorted(attempts) == [(0, False), (1, True)]
            assert map_stage.totals().shuffle_records_written == 12


class TestExecutorLoss:
    def test_kill_mid_job_recovers(self):
        plan = FaultPlan(kill_executor_after_tasks={"exec-0": 1})
        with make_ctx(plan) as ctx:
            out = ctx.parallelize(range(24), 8).map(lambda x: x + 1).sum()
            assert out == sum(range(1, 25))
            dead = [e for e in ctx.executors if not e.alive]
            assert len(dead) == 1
            assert ctx.metrics.jobs[-1].num_executor_failures_observed == 1

    def test_cached_blocks_lost_and_recomputed(self):
        with make_ctx() as ctx:
            calls = []
            rdd = ctx.parallelize(range(12), 6).map(lambda x: calls.append(x) or x).cache()
            assert rdd.sum() == 66
            first_pass = len(calls)
            victim = ctx.executors[0]
            held = len(victim.block_manager.block_ids())
            assert held > 0
            ctx.kill_executor(victim.executor_id)
            assert rdd.sum() == 66  # recomputed via lineage
            assert len(calls) > first_pass

    def test_all_executors_dead_raises(self):
        with make_ctx() as ctx:
            for executor in ctx.executors:
                ctx.kill_executor(executor.executor_id)
            with pytest.raises(JobFailedError):
                ctx.parallelize(range(4), 2).count()

    def test_shuffle_output_lost_triggers_stage_resubmit(self):
        with make_ctx() as ctx:
            rdd = ctx.parallelize([(i % 3, 1) for i in range(30)], 6).reduce_by_key(operator.add)
            first = dict(rdd.collect())
            # find an executor that wrote shuffle output and kill it
            writers = {
                executor_id
                for (_sid, _mp), executor_id in ctx.shuffle_manager._writers.items()
            }
            victim = sorted(writers)[0]
            lost = ctx.shuffle_manager.missing_maps(rdd.shuffle_dep.shuffle_id)
            ctx.kill_executor(victim)
            missing = ctx.shuffle_manager.missing_maps(rdd.shuffle_dep.shuffle_id)
            assert missing > lost  # outputs actually vanished
            second = dict(rdd.collect())
            assert first == second
            # the scheduler recomputed exactly the lost map partitions
            map_stages = [s for s in ctx.metrics.jobs[-1].stages if s.is_shuffle_map]
            assert map_stages and map_stages[0].num_tasks == len(missing)

    def test_kill_unknown_executor_raises(self):
        with make_ctx() as ctx:
            with pytest.raises(KeyError):
                ctx.kill_executor("nope")

    def test_fault_injected_executor_loss_during_shuffle_job(self):
        plan = FaultPlan(kill_executor_after_tasks={"exec-1": 2})
        with make_ctx(plan) as ctx:
            rdd = ctx.parallelize([(i % 5, i) for i in range(50)], 10).reduce_by_key(operator.add)
            got = dict(rdd.collect())
            expected = {}
            for i in range(50):
                expected[i % 5] = expected.get(i % 5, 0) + i
            assert got == expected


class TestResultsUnchangedUnderFaults:
    """The headline fault-tolerance property: injected failures never
    change analysis results, only metrics."""

    @pytest.mark.parametrize("plan", [
        FaultPlan(fail_partition_attempts={0: 1, 3: 1}),
        FaultPlan(kill_executor_after_tasks={"exec-2": 3}),
    ])
    def test_wordcount_stable(self, plan):
        words = ("the quick brown fox jumps over the lazy dog the end " * 20).split()
        with make_ctx() as clean_ctx:
            clean = dict(
                clean_ctx.parallelize(words, 8)
                .map(lambda w: (w, 1))
                .reduce_by_key(operator.add)
                .collect()
            )
        with make_ctx(plan) as faulty_ctx:
            faulty = dict(
                faulty_ctx.parallelize(words, 8)
                .map(lambda w: (w, 1))
                .reduce_by_key(operator.add)
                .collect()
            )
        assert clean == faulty
