"""The tuning advisor: rules, ranking, and rendering."""

from __future__ import annotations

import json
import re

from repro.engine.listener import InferenceBatchCompleted
from repro.engine.metrics import JobMetrics, StageMetrics, TaskMetrics, TaskRecord
from repro.obs.advisor import (
    RULES,
    DiagnosisInput,
    Recommendation,
    cache_pressure_from_jobs,
    diagnose,
    recommendations_to_json,
    render_recommendations,
    rule_cache_thrash,
    rule_container_sizing,
    rule_failed_task,
    rule_repartition_skew,
    rule_stragglers,
    rule_tiny_tasks,
)
from repro.obs.diagnostics import CachePressureReport
from repro.obs.logging import LogRecord


def make_job(durations, records=None, job_id=0, executors=None):
    records = records if records is not None else [10] * len(durations)
    executors = executors or [f"exec-{i % 2}" for i in range(len(durations))]
    tasks = [
        TaskRecord(
            stage_id=1,
            partition=i,
            attempt=0,
            executor_id=executors[i],
            duration_seconds=d,
            metrics=TaskMetrics(records_read=r),
            succeeded=True,
        )
        for i, (d, r) in enumerate(zip(durations, records))
    ]
    stage = StageMetrics(stage_id=1, name="map", num_tasks=len(tasks), tasks=tasks)
    return JobMetrics(job_id=job_id, description="test job", stages=[stage])


def failed_job(outcomes, job_id=0):
    """One stage of partition 0's attempts: each outcome is True (succeeded)
    or an error string."""
    tasks = [
        TaskRecord(
            stage_id=1, partition=0, attempt=i, executor_id=f"exec-{i % 2}",
            duration_seconds=0.0, metrics=TaskMetrics(),
            succeeded=outcome is True,
            error=None if outcome is True else outcome,
        )
        for i, outcome in enumerate(outcomes)
    ]
    stage = StageMetrics(stage_id=1, name="map", num_tasks=1, tasks=tasks)
    return JobMetrics(job_id=job_id, description="failed job", stages=[stage])


class TestFailedTaskRule:
    def test_names_the_last_attempt_and_its_log_lines(self):
        job = failed_job(["ValueError: a", "ValueError: b"], job_id=3)
        logs = [
            LogRecord(time=1.0, level="warning", logger="s", message="task attempt failed",
                      job_id=3, stage_id=1, partition=0),
            LogRecord(time=2.0, level="warning", logger="s", message="stage-level",
                      job_id=3, stage_id=1),
            LogRecord(time=3.0, level="warning", logger="s", message="other partition",
                      job_id=3, stage_id=1, partition=5),
            LogRecord(time=4.0, level="warning", logger="s", message="other job",
                      job_id=4, stage_id=1, partition=0),
        ]
        (rec,) = rule_failed_task(DiagnosisInput(jobs=[job], log=logs))
        assert rec.severity == "critical"
        assert rec.title == "job 3 failed: task 1.0#1 on exec-1: ValueError: b"
        assert rec.evidence["error"] == "ValueError: b"
        assert [a["error"] for a in rec.evidence["attempts"]] == [
            "ValueError: a", "ValueError: b",
        ]
        assert [r["message"] for r in rec.evidence["logs"]] == [
            "task attempt failed", "stage-level",
        ]
        json.dumps(rec.to_dict())  # evidence is JSON-safe

    def test_the_task_that_failed_last_ranks_first(self):
        def attempt(partition, n, succeeded=False):
            return TaskRecord(
                stage_id=1, partition=partition, attempt=n, executor_id="exec-0",
                duration_seconds=0.0, metrics=TaskMetrics(), succeeded=succeeded,
                error=None if succeeded else f"ValueError: p{partition}",
            )

        tasks = [attempt(0, 0), attempt(1, 0), attempt(2, 0, succeeded=True),
                 attempt(0, 1), attempt(1, 1)]
        stage = StageMetrics(stage_id=1, name="map", num_tasks=3, tasks=tasks)
        job = JobMetrics(job_id=0, description="failed job", stages=[stage])
        recs = diagnose([job])
        assert [r.title for r in recs if r.rule == "failed-task"] == [
            "job 0 failed: task 1.1#1 on exec-0: ValueError: p1",
            "job 0 failed: task 1.0#1 on exec-0: ValueError: p0",
        ]

    def test_a_recovered_failure_does_not_fire(self):
        job = failed_job(["ValueError: a", True])
        assert rule_failed_task(DiagnosisInput(jobs=[job])) == []

    def test_ranks_above_every_other_finding(self):
        job = failed_job(["ValueError: a"])
        thrash = CachePressureReport(blocks_cached=10, blocks_evicted=10,
                                     cache_misses=10)
        recs = diagnose([job], cache=thrash)
        assert [r.rule for r in recs[:2]] == ["failed-task", "cache-thrash"]
        assert recs[1].severity == "critical"


class TestRepartitionRule:
    def test_fires_on_skew_with_concrete_target(self):
        job = make_job([0.1] * 7 + [1.0])
        (rec,) = rule_repartition_skew(DiagnosisInput(jobs=[job]))
        assert rec.rule == "repartition-skewed-stage"
        assert rec.stage_id == 1
        # 8 tasks x factor capped at 4
        assert rec.evidence["recommended_partitions"] == 32
        assert "repartition(32)" in rec.action
        assert "rdd.explain()" in rec.action

    def test_quiet_on_balanced_stage(self):
        job = make_job([0.1] * 8)
        assert rule_repartition_skew(DiagnosisInput(jobs=[job])) == []


class TestStragglerRule:
    def test_slow_executor_signature(self):
        # both stragglers on exec-9: blame the executor, not the data
        durations = [0.2] * 6 + [1.5, 1.5]
        executors = ["exec-0"] * 6 + ["exec-9", "exec-9"]
        job = make_job(durations, executors=executors)
        (rec,) = rule_stragglers(DiagnosisInput(jobs=[job]))
        assert "slow-executor signature" in rec.title
        assert "exec-9" in rec.title

    def test_scattered_stragglers_suggest_repartition(self):
        durations = [0.2] * 6 + [1.5, 1.5]
        executors = ["exec-0"] * 6 + ["exec-1", "exec-2"]
        job = make_job(durations, executors=executors)
        (rec,) = rule_stragglers(DiagnosisInput(jobs=[job]))
        assert "slow-executor" not in rec.title
        assert "repartition" in rec.action


def assert_names_real_settings(action: str) -> None:
    """Every lever an action names exists: each snake_case name is an
    ``EngineConfig`` field or a ``DistributedSparkScore`` parameter, each
    ``--flag`` parses as a ``sparkscore analyze`` flag, and each
    ``rdd.<name>(`` is an ``RDD`` attribute."""
    import inspect

    from repro.cli import build_parser
    from repro.config import EngineConfig
    from repro.core.algorithms import DistributedSparkScore
    from repro.engine.rdd import RDD

    assert "spark." not in action
    fields = set(EngineConfig.__dataclass_fields__)
    levers = fields | set(inspect.signature(DistributedSparkScore).parameters)
    for name in re.findall(r"\b[a-z]+_[a-z_]+\b", action):
        assert name in levers, (name, action)
    for args in re.findall(r"EngineConfig\(([^)]*)\)", action):
        named = set(re.findall(r"(\w+)=", args))
        assert named and named <= fields, (named - fields, action)
    parser = build_parser()
    for flag, value in re.findall(r"(--[a-z][a-z-]*)(?: (\d+))?", action):
        argv = ["analyze", "d", "--engine", "distributed", flag]
        parser.parse_args(argv + ([value] if value else []))
    for name in re.findall(r"\brdd\.(\w+)\(", action):
        assert hasattr(RDD, name), (name, action)


class TestCacheThrashRule:
    def test_critical_when_hit_rate_collapses(self):
        cache = CachePressureReport(
            blocks_cached=10, blocks_evicted=8, cache_hits=1, cache_misses=9,
        )
        (rec,) = rule_cache_thrash(DiagnosisInput(cache=cache))
        assert rec.severity == "critical"
        assert rec.action.startswith("raise executor_memory")
        assert_names_real_settings(rec.action)

    def test_moderate_thrash_is_a_warning(self):
        cache = CachePressureReport(
            blocks_cached=10, blocks_evicted=8, cache_hits=4, cache_misses=6,
        )
        (rec,) = rule_cache_thrash(DiagnosisInput(cache=cache))
        assert rec.severity == "warning"
        assert_names_real_settings(rec.action)

    def test_healthy_cache_is_quiet(self):
        cache = CachePressureReport(
            blocks_cached=10, blocks_evicted=1, cache_hits=9, cache_misses=1,
        )
        assert rule_cache_thrash(DiagnosisInput(cache=cache)) == []


class TestTinyTasksRule:
    def test_fires_on_many_sub_ms_tasks(self):
        job = make_job([0.002] * 32)
        (rec,) = rule_tiny_tasks(DiagnosisInput(jobs=[job]))
        assert rec.rule == "tiny-tasks"
        assert rec.evidence["recommended_partitions"] == 8

    def test_quiet_below_task_count_threshold(self):
        job = make_job([0.002] * 8)
        assert rule_tiny_tasks(DiagnosisInput(jobs=[job])) == []


class TestContainerSizingRule:
    def test_always_fires_when_jobs_ran(self):
        (rec,) = rule_container_sizing(DiagnosisInput(jobs=[make_job([0.1] * 4)]))
        assert rec.severity == "info"
        assert "executor_cores=2" in rec.action

    def test_silent_without_jobs(self):
        assert rule_container_sizing(DiagnosisInput()) == []


class TestDiagnose:
    def test_ranked_most_urgent_first(self):
        job = make_job([0.1] * 7 + [1.0])
        cache = CachePressureReport(
            blocks_cached=10, blocks_evicted=9, cache_hits=1, cache_misses=9,
        )
        recs = diagnose([job], cache=cache)
        severities = [r.severity for r in recs]
        assert severities == sorted(
            severities, key=lambda s: {"critical": 3, "warning": 2, "info": 1}[s],
            reverse=True,
        )
        assert recs[0].rule == "cache-thrash"
        assert recs[-1].severity == "info"

    def test_healthy_run_yields_only_sizing_info(self):
        recs = diagnose([make_job([0.1] * 8)], cache=CachePressureReport())
        assert [r.rule for r in recs] == ["container-sizing"]

    def test_cache_pressure_from_jobs_counts_hits(self):
        job = make_job([0.1] * 4)
        job.stages[0].tasks[0].metrics.cache_hits = 3
        job.stages[0].tasks[1].metrics.cache_misses = 1
        report = cache_pressure_from_jobs([job])
        assert report.cache_hits == 3
        assert report.cache_misses == 1

    def test_recorded_evictions_fire_cache_thrash_offline(self):
        """Evictions ride on the task metrics, so a job record alone (as
        ``doctor`` reads it from an event log) can show a thrashing cache."""
        job = make_job([0.1] * 8)
        for rec in job.stages[0].tasks:
            rec.metrics.cache_misses = 1
            rec.metrics.blocks_evicted = 1
        (thrash,) = [r for r in diagnose([job]) if r.rule == "cache-thrash"]
        assert thrash.title.startswith("cache thrash: 8/8 cached blocks evicted")
        assert "executor_memory" in thrash.action


class TestRendering:
    def test_empty_report(self):
        assert "telemetry looks healthy" in render_recommendations([])

    def test_table_and_actions(self):
        recs = diagnose(
            [make_job([0.1] * 7 + [1.0])], cache=CachePressureReport()
        )
        text = render_recommendations(recs)
        assert "severity" in text and "finding" in text
        assert "[1]" in text and "action:" in text

    def test_json_is_parseable_and_ranked(self):
        recs = [
            Recommendation(rule="a", severity="info", title="t", action="x"),
            Recommendation(rule="b", severity="critical", title="u", action="y",
                           stage_id=3, job_id=0),
        ]
        data = json.loads(recommendations_to_json(recs))
        assert [d["rule"] for d in data] == ["a", "b"]
        assert data[1]["stage_id"] == 3


def _firing_inputs() -> list[DiagnosisInput]:
    """One input per rule (two for the rule with two wordings) that makes
    it fire."""
    gc_job = make_job([0.2] * 4)
    for task in gc_job.stages[0].tasks:
        task.metrics.gc_pause_seconds = 0.05
    decided_early = [
        InferenceBatchCompleted(
            method="monte_carlo", batch_width=64, replicates_total=64,
            planned_replicates=512, sets_total=3, sets_converged=3,
        ),
        InferenceBatchCompleted(
            method="monte_carlo", batch_width=448, replicates_total=512,
            planned_replicates=512, sets_total=3, sets_converged=3, min_pvalue=0.5,
        ),
    ]
    too_few = [InferenceBatchCompleted(
        method="permutation", batch_width=100, replicates_total=100,
        planned_replicates=100, sets_total=3, sets_converged=0, min_pvalue=0.001,
    )]
    return [
        DiagnosisInput(jobs=[failed_job(["ValueError: boom"])]),
        DiagnosisInput(jobs=[make_job([0.1] * 7 + [1.0])]),
        DiagnosisInput(jobs=[make_job(
            [0.2] * 6 + [1.5, 1.5], executors=["exec-0"] * 6 + ["exec-9"] * 2,
        )]),
        DiagnosisInput(jobs=[make_job(
            [0.2] * 6 + [1.5, 1.5], executors=["exec-0"] * 6 + ["exec-1", "exec-2"],
        )]),
        DiagnosisInput(cache=CachePressureReport(
            blocks_cached=10, blocks_evicted=8, cache_hits=1, cache_misses=9,
        )),
        DiagnosisInput(jobs=[gc_job]),
        DiagnosisInput(jobs=[make_job([0.002] * 32)]),
        DiagnosisInput(inference=decided_early),
        DiagnosisInput(inference=too_few),
    ]


class TestActionsNameRealSettings:
    def test_every_rule_fires_on_a_fixture(self):
        fired = {
            rule.__name__ for inp in _firing_inputs() for rule in RULES if rule(inp)
        }
        assert fired == {rule.__name__ for rule in RULES}

    def test_flags_parse_and_config_fields_exist(self):
        actions = [
            rec.action for inp in _firing_inputs() for rule in RULES for rec in rule(inp)
        ]
        for action in actions:
            assert_names_real_settings(action)
