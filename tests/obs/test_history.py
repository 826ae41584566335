"""Stage summaries, straggler percentiles, and critical-path math."""

import pytest

from repro.engine.metrics import JobMetrics, StageMetrics, TaskMetrics, TaskRecord
from repro.obs.history import (
    critical_path,
    percentile,
    render_history,
    render_job_summary,
    summarize_stage,
)


def _task(stage_id, partition, duration, succeeded=True, hits=0, misses=0):
    return TaskRecord(
        stage_id=stage_id, partition=partition, attempt=0, executor_id="e0",
        duration_seconds=duration,
        metrics=TaskMetrics(cache_hits=hits, cache_misses=misses),
        succeeded=succeeded,
    )


def _stage(stage_id, durations, parents=(), name=None):
    stage = StageMetrics(
        stage_id=stage_id, name=name or f"stage{stage_id}",
        num_tasks=len(durations), parent_stage_ids=tuple(parents),
        wall_seconds=max(durations, default=0.0),
    )
    stage.tasks = [_task(stage_id, i, d) for i, d in enumerate(durations)]
    return stage


class TestPercentile:
    def test_empty(self):
        assert percentile([], 95) == 0.0

    def test_single(self):
        assert percentile([3.0], 50) == 3.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_extremes(self):
        vals = [5.0, 1.0, 3.0]
        assert percentile(vals, 0) == 1.0
        assert percentile(vals, 100) == 5.0


class TestStageSummary:
    def test_straggler_percentiles(self):
        durations = [1.0] * 19 + [10.0]
        s = summarize_stage(_stage(0, durations))
        assert s.p50 == pytest.approx(1.0)
        assert s.max == 10.0
        assert s.p95 > s.p50

    def test_failed_tasks_counted_but_excluded_from_durations(self):
        stage = _stage(0, [1.0, 2.0])
        stage.tasks.append(_task(0, 2, 99.0, succeeded=False))
        s = summarize_stage(stage)
        assert s.failures == 1
        assert s.max == 2.0
        assert s.task_seconds == pytest.approx(3.0)


class TestCriticalPath:
    def test_linear_chain(self):
        # 0 -> 1 -> 2, stage cost = slowest task
        job = JobMetrics(job_id=0, wall_seconds=10.0, stages=[
            _stage(0, [2.0, 1.0]),
            _stage(1, [3.0], parents=(0,)),
            _stage(2, [1.0, 4.0], parents=(1,)),
        ])
        cp = critical_path(job)
        assert cp.path == [0, 1, 2]
        assert cp.critical_seconds == pytest.approx(2.0 + 3.0 + 4.0)
        assert cp.total_task_seconds == pytest.approx(11.0)
        assert cp.max_speedup == pytest.approx(11.0 / 9.0)

    def test_diamond_picks_slower_branch(self):
        #    0
        #   / \
        #  1   2     stage1 is the slow branch
        #   \ /
        #    3
        job = JobMetrics(job_id=0, stages=[
            _stage(0, [1.0]),
            _stage(1, [5.0], parents=(0,)),
            _stage(2, [2.0], parents=(0,)),
            _stage(3, [1.0], parents=(1, 2)),
        ])
        cp = critical_path(job)
        assert cp.path == [0, 1, 3]
        assert cp.critical_seconds == pytest.approx(7.0)

    def test_resubmitted_stage_attempts_add(self):
        first = _stage(1, [2.0], parents=(0,))
        retry = _stage(1, [3.0], parents=(0,))
        retry.attempt = 1
        job = JobMetrics(job_id=0, stages=[_stage(0, [1.0]), first, retry])
        cp = critical_path(job)
        assert cp.critical_seconds == pytest.approx(1.0 + 2.0 + 3.0)

    def test_wide_parallel_job_has_high_speedup(self):
        # one stage, many equal tasks: critical path = one task
        job = JobMetrics(job_id=0, stages=[_stage(0, [1.0] * 8)])
        cp = critical_path(job)
        assert cp.critical_seconds == pytest.approx(1.0)
        assert cp.max_speedup == pytest.approx(8.0)

    def test_empty_job(self):
        cp = critical_path(JobMetrics(job_id=0))
        assert cp.path == []
        assert cp.max_speedup == 1.0

    def test_cycle_in_corrupt_log_terminates(self):
        a = _stage(0, [1.0], parents=(1,))
        b = _stage(1, [1.0], parents=(0,))
        cp = critical_path(JobMetrics(job_id=0, stages=[a, b]))
        assert cp.critical_seconds > 0  # no hang, some sane answer


class TestRendering:
    def _job(self):
        job = JobMetrics(job_id=4, description="mc batch", wall_seconds=3.0, stages=[
            _stage(0, [1.0, 2.0]),
            _stage(1, [0.5], parents=(0,)),
        ])
        job.stages[0].tasks[0].metrics.cache_hits = 3
        job.stages[0].tasks[0].metrics.cache_misses = 1
        return job

    def test_job_summary_mentions_key_facts(self):
        out = render_job_summary(self._job())
        assert "job 4" in out and "mc batch" in out
        assert "critical path" in out
        assert "max speedup" in out
        assert "cache hit rate 75.0% (3 hits / 1 misses)" in out
        assert "totals: cache_hits 3, cache_misses 1" in out

    def test_render_history_overall_footer(self):
        out = render_history([self._job(), self._job()])
        assert "== overall: 2 jobs ==" in out
        footer = out.split("== overall")[1]
        assert "cache hit rate 75.0% (6 hits / 2 misses)" in footer
        assert "totals: cache_hits 6, cache_misses 2" in footer

    def test_render_history_empty(self):
        assert "no jobs" in render_history([])


class TestAggregateCacheStats:
    def test_rollup(self):
        """The log's footer sums every job's task counters, each in the unit
        its name carries; a zero counter is left out."""
        job = JobMetrics(job_id=0, stages=[_stage(0, [1.0])])
        metrics = job.stages[0].tasks[0].metrics
        metrics.cache_hits = metrics.cache_misses = 2
        metrics.shuffle_bytes_written = 3 * 1024
        metrics.compute_seconds = 0.25
        footer = render_history([job, job]).split("== overall")[1]
        assert "task time 2.00s" in footer
        assert "cache hit rate 50.0% (4 hits / 4 misses)" in footer
        assert "shuffle_bytes_written 6.0 KiB" in footer
        assert "compute_seconds 500.0ms" in footer
        assert "records_read" not in footer
