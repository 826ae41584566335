"""Skew, straggler, and cache-pressure diagnostics."""

from __future__ import annotations

import pytest

from repro.engine.metrics import JobMetrics, StageMetrics, TaskMetrics, TaskRecord
from repro.obs.advisor import cache_pressure_from_jobs
from repro.obs.diagnostics import (
    CachePressureReport,
    detect_skew,
    detect_stragglers,
    gini,
    median,
    stage_distribution,
)


def make_stage(durations, records=None, stage_id=0, name="map"):
    """Synthetic completed stage: one successful task per duration."""
    records = records if records is not None else [10] * len(durations)
    tasks = [
        TaskRecord(
            stage_id=stage_id,
            partition=i,
            attempt=0,
            executor_id=f"exec-{i % 2}",
            duration_seconds=d,
            metrics=TaskMetrics(records_read=r),
            succeeded=True,
        )
        for i, (d, r) in enumerate(zip(durations, records))
    ]
    return StageMetrics(
        stage_id=stage_id, name=name, num_tasks=len(tasks), tasks=tasks
    )


class TestGini:
    def test_uniform_is_zero(self):
        assert gini([5, 5, 5, 5]) == 0.0

    def test_concentrated_approaches_one(self):
        assert gini([0, 0, 0, 100]) == pytest.approx(0.75)

    def test_degenerate_inputs(self):
        assert gini([]) == 0.0
        assert gini([3]) == 0.0
        assert gini([0, 0]) == 0.0

    def test_ordering_is_irrelevant(self):
        assert gini([1, 9, 3, 7]) == gini([9, 1, 7, 3])


class TestMedian:
    def test_odd_even_empty(self):
        assert median([3, 1, 2]) == 2
        assert median([1, 2, 3, 4]) == 2.5
        assert median([]) == 0.0


class TestDetectSkew:
    def test_balanced_stage_is_clean(self):
        stage = make_stage([0.1] * 8)
        assert detect_skew(stage) == []

    def test_skewed_duration_and_records_flagged(self):
        stage = make_stage(
            durations=[0.1] * 7 + [1.0],
            records=[10] * 7 + [500],
        )
        reports = detect_skew(stage)
        by_metric = {r.metric: r for r in reports}
        assert "duration" in by_metric and "records" in by_metric
        dur = by_metric["duration"]
        assert dur.max_partition == 7
        assert dur.max_over_median == pytest.approx(10.0)
        assert 0 < dur.gini < 1

    def test_min_tasks_guard(self):
        stage = make_stage([0.1, 1.0])
        assert detect_skew(stage) == []  # MIN_TASKS is 4

    def test_zero_median_reports_finite_sentinel(self):
        stage = make_stage([0.1] * 8, records=[0] * 7 + [100])
        (report,) = [
            r for r in detect_skew(stage) if r.metric == "records"
        ]
        assert report.max_over_median == 100  # peak stands in for inf

    def test_failed_tasks_excluded(self):
        stage = make_stage([0.1] * 8)
        stage.tasks.append(
            TaskRecord(
                stage_id=0, partition=0, attempt=1, executor_id="exec-0",
                duration_seconds=50.0, metrics=TaskMetrics(), succeeded=False,
            )
        )
        assert detect_skew(stage) == []

    def test_distribution_keeps_successful_attempt(self):
        stage = make_stage([0.1] * 4)
        dist = stage_distribution(stage, "duration")
        assert dist == {0: 0.1, 1: 0.1, 2: 0.1, 3: 0.1}


class TestDetectStragglers:
    def test_flags_the_slow_task(self):
        stage = make_stage([0.2] * 7 + [1.0])
        (report,) = detect_stragglers(stage)
        assert report.partition == 7
        assert report.ratio == pytest.approx(5.0)
        assert report.median_seconds == pytest.approx(0.2)

    def test_absolute_floor_silences_fast_stages(self):
        stage = make_stage([0.001] * 7 + [0.01])
        assert detect_stragglers(stage) == []

    def test_min_tasks_guard(self):
        stage = make_stage([0.1, 0.1, 1.0])
        assert detect_stragglers(stage) == []


class TestCachePressure:
    def test_from_task_metrics(self):
        """Each task's cache puts record the blocks they evicted; a miss
        computes and caches its partition."""
        stage = make_stage([0.1] * 10)
        for i, rec in enumerate(stage.tasks):
            rec.metrics.cache_hits = int(i < 3)
            rec.metrics.cache_misses = int(i >= 3)
            rec.metrics.blocks_evicted = int(i < 8) * 2
        report = cache_pressure_from_jobs([JobMetrics(job_id=0, stages=[stage])])
        assert (report.blocks_cached, report.blocks_evicted) == (7, 16)
        assert report.hit_rate == pytest.approx(0.3)
        assert report.eviction_ratio == pytest.approx(16 / 7)

    def test_no_jobs_is_all_zero(self):
        report = cache_pressure_from_jobs([])
        assert report.eviction_ratio == 0.0
        assert report.hit_rate == 0.0

    def test_to_dict_is_json_ready(self):
        d = CachePressureReport(blocks_cached=4, blocks_evicted=2).to_dict()
        assert d["eviction_ratio"] == 0.5


class TestOneThreshold:
    def test_doctor_flags_skew_at_the_module_ratio(self):
        from repro.obs import diagnostics
        from repro.obs.advisor import diagnose

        # a stage exactly at the ratio is skewed for doctor; just under it,
        # it is not
        at = [0.1] * 7 + [0.1 * diagnostics.SKEW_RATIO]
        under = [0.1] * 7 + [0.1 * diagnostics.SKEW_RATIO * 0.95]
        for durations, skewed in ((at, True), (under, False)):
            job = JobMetrics(job_id=0, description="j", stages=[make_stage(durations)])
            rules = {r.rule for r in diagnose([job], cache=CachePressureReport())}
            assert ("repartition-skewed-stage" in rules) is skewed
