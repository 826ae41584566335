"""Cache-aware task placement: a task goes where its partition is cached."""

from repro.config import EngineConfig
from repro.engine.context import Context


class TestCacheLocality:
    def test_tasks_return_to_cached_executor(self):
        config = EngineConfig(
            backend="serial", num_executors=3, executor_cores=1, default_parallelism=6
        )
        with Context(config) as ctx:
            rdd = ctx.parallelize(range(60), 6).map(lambda x: x * 2).cache()
            rdd.count()  # populate caches
            holder_of = {}
            for executor in ctx.executors:
                for block_id in executor.block_manager.block_ids():
                    holder_of[block_id[1]] = executor.executor_id
            rdd.sum()  # second pass should honor cache locality
            job = ctx.metrics.last_job
            for record in job.stages[-1].tasks:
                assert record.executor_id == holder_of[record.partition]
            assert job.totals().remote_cache_hits == 0

    def test_remote_fetch_when_holder_busy_dead(self):
        config = EngineConfig(
            backend="serial", num_executors=2, executor_cores=1, default_parallelism=4
        )
        with Context(config) as ctx:
            rdd = ctx.parallelize(range(40), 4).cache()
            rdd.count()
            victim = ctx.executors[0]
            held = {b[1] for b in victim.block_manager.block_ids()}
            assert held
            ctx.kill_executor(victim.executor_id)
            # blocks on the dead executor are recomputed; survivor's blocks
            # still hit cache
            assert rdd.sum() == sum(range(40))
            totals = ctx.metrics.last_job.totals()
            assert totals.cache_hits >= 1
            assert totals.cache_misses >= 1
