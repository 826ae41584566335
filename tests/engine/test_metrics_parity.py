"""Cross-backend metrics parity, read from the job records.

The same workload must leave job records that agree between the serial
and cluster backends: task counts, shuffle and cache counts, GC-pause
telemetry on every attempt -- and, through a join and a retried attempt,
the failed attempts themselves.  The cluster's worker-side facts (task-binary
bytes, the warm task-binary cache, the by-ref value memo) travel home on
each task's :class:`~repro.engine.metrics.TaskMetrics`; serial ships
nothing, so those read zero there.
"""

import operator

import pytest

from repro.config import EngineConfig
from repro.engine.context import Context
from repro.engine.faults import FaultInjector, FaultPlan

BACKENDS = ("serial", "cluster")


def _double(x):
    return x * 2


def _offset(x, bc):
    return x + bc.value


def _run_workload(backend):
    """Run a cached RDD twice, a shuffle and a broadcast job; return the
    action results and the job records."""
    config = EngineConfig(
        backend=backend, num_executors=2, executor_cores=2,
        default_parallelism=4, heartbeat_interval=0.0,
    )
    with Context(config) as ctx:
        doubled = ctx.parallelize(range(60), 4).map(_double).cache()
        total = doubled.sum()
        again = doubled.sum()
        pairs = sorted(
            ctx.parallelize([(i % 4, 1) for i in range(40)], 4)
            .reduce_by_key(operator.add)
            .collect()
        )
        bc = ctx.broadcast(1000)
        shifted = ctx.parallelize(range(8), 4).map(lambda x: _offset(x, bc)).collect()
        jobs = ctx.metrics.jobs_snapshot()
    return {
        "total": total,
        "again": again,
        "pairs": pairs,
        "shifted": shifted,
        "jobs": jobs,
        "records": [t for j in jobs for s in j.stages for t in s.tasks],
        "totals": [j.totals() for j in jobs],
    }


def _run_join_workload(backend):
    """Join a cached, already hash-partitioned left side (a narrow
    dependency) with a shuffled right side twice, with every stage's
    partition 1 failing its first attempt; return the joins and the jobs."""
    config = EngineConfig(
        backend=backend, num_executors=2, executor_cores=2,
        default_parallelism=4, heartbeat_interval=0.0,
    )
    injector = FaultInjector(FaultPlan(fail_partition_attempts={1: 1}))
    with Context(config, fault_injector=injector) as ctx:
        left = (
            ctx.parallelize([(i % 8, i) for i in range(40)], 4)
            .reduce_by_key(operator.add, 4)
            .cache()
        )
        right = ctx.parallelize([(k, -k) for k in range(0, 12, 2)], 3)
        joins = [sorted(left.join(right).collect()) for _ in range(2)]
        jobs = ctx.metrics.jobs_snapshot()
    return {"joins": joins, "jobs": jobs}


@pytest.fixture(scope="module")
def runs():
    return {backend: _run_workload(backend) for backend in BACKENDS}


@pytest.fixture(scope="module")
def join_runs():
    return {backend: _run_join_workload(backend) for backend in BACKENDS}


class TestParity:
    def test_results_identical(self, runs):
        for backend in BACKENDS:
            assert runs[backend]["total"] == runs[backend]["again"] == 2 * sum(range(60))
            assert runs[backend]["pairs"] == [(0, 10), (1, 10), (2, 10), (3, 10)]
            assert runs[backend]["shifted"] == [1000 + x for x in range(8)]

    def test_deterministic_engine_totals_match(self, runs):
        """Counts derived from the work itself are backend-invariant."""
        def shape(run):
            return [
                [(s.num_tasks, len(s.tasks)) for s in job.stages] for job in run["jobs"]
            ]

        def counts(run):
            return [
                (t.cache_hits, t.cache_misses, t.shuffle_records_written,
                 t.shuffle_records_read, t.shuffle_bytes_read, t.blocks_evicted)
                for t in run["totals"]
            ]

        assert shape(runs["serial"]) == shape(runs["cluster"])
        assert counts(runs["serial"]) == counts(runs["cluster"])
        # the cached RDD: four misses on the first sum, four hits on the second
        assert counts(runs["serial"])[:2] == [(0, 4, 0, 0, 0, 0), (4, 0, 0, 0, 0, 0)]
        # the reduce_by_key job: a reduce task counts the frames it decodes,
        # on either backend
        written, read = counts(runs["serial"])[2][2:4]
        assert written == read > 0

    def test_task_binary_bytes_counted_under_processes(self, runs):
        """Only the cluster backend ships per-stage task binaries to worker
        processes, and every cluster attempt records the bytes it shipped."""
        assert all(t.metrics.task_binary_bytes == 0 for t in runs["serial"]["records"])
        assert all(t.metrics.task_binary_bytes > 0 for t in runs["cluster"]["records"])

    def test_gc_pause_counter_exists_everywhere(self, runs):
        for backend in BACKENDS:
            # may legitimately be 0.0 (no collection during the task), but
            # every attempt measured it
            for record in runs[backend]["records"]:
                assert record.metrics.gc_pause_seconds >= 0.0, backend

    def test_warm_cache_fields_on_job_records(self, runs):
        """Each cluster attempt found its task binary in the worker's warm
        cache or fetched it -- exactly one of the two; serial has no worker
        caches (the second Context's hits are pinned in
        ``test_cluster_backend.py``)."""
        for record in runs["serial"]["records"]:
            m = record.metrics
            assert (m.task_binary_cache_hits, m.task_binary_cache_misses,
                    m.broadcast_memo_hits) == (0, 0, 0)
        for record in runs["cluster"]["records"]:
            m = record.metrics
            assert m.task_binary_cache_hits + m.task_binary_cache_misses == 1


class TestJoinWithARetry:
    """A cogroup with one narrow and one shuffled parent, and a failed
    attempt in every stage: both backends run the same attempts and count
    the same reads, writes, hits and misses."""

    def test_results_identical(self, join_runs):
        sums = {k: sum(i for i in range(40) if i % 8 == k) for k in range(8)}
        expected = [(k, (sums[k], -k)) for k in range(0, 8, 2)]
        for backend in BACKENDS:
            assert join_runs[backend]["joins"] == [expected, expected]

    def test_per_job_shuffle_and_cache_counts_match(self, join_runs):
        def counts(run):
            return [
                (t.shuffle_records_read, t.shuffle_bytes_read,
                 t.shuffle_records_written, t.shuffle_bytes_written,
                 t.cache_hits, t.cache_misses)
                for t in (job.totals() for job in run["jobs"])
            ]

        serial = counts(join_runs["serial"])
        assert serial == counts(join_runs["cluster"])
        # the first join writes and reads both shuffles and misses the
        # cache; the second (a new cogroup, so a new right-side shuffle)
        # hits the cached left side and moves only the right's six records
        (first, second) = serial
        assert first[4:] == (0, 4) and second[4:] == (4, 0)
        assert first[0] == first[2] > 6
        assert second[0] == second[2] == 6

    def test_attempt_records_match(self, join_runs):
        def attempts(run):
            return sorted(
                (t.stage_id, t.partition, t.attempt, t.succeeded,
                 t.error.split(":")[0] if t.error else None)
                for job in run["jobs"] for s in job.stages for t in s.tasks
            )

        serial = attempts(join_runs["serial"])
        assert serial == attempts(join_runs["cluster"])
        failed = [a for a in serial if not a[3]]
        # partition 1 of every stage that ran: the first join's three and
        # the second's right-side map and result stages (the left side's
        # map outputs were still registered)
        assert len(failed) == 5
        assert {a[1:] for a in failed} == {(1, 0, False, "InjectedTaskFailure")}
