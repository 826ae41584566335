"""Cross-backend metrics parity.

The same analysis must surface the same metric series names (with
consistent deterministic totals) on the driver registry whether tasks ran
serially or in worker processes.  For the cluster backend
this exercises the worker -> driver registry-delta shipping path: the
increments happen in another process and only reach the driver because
each task result carries a delta that the scheduler merges.
"""

import operator

import pytest

from repro.config import EngineConfig
from repro.engine.context import Context
from repro.obs.registry import REGISTRY

BACKENDS = ("serial", "cluster")


def _double(x):
    return x * 2


def _run_workload(backend):
    """Run a two-job workload (one with a shuffle) and return the registry
    delta it produced plus the action results."""
    config = EngineConfig(
        backend=backend, num_executors=2, executor_cores=2,
        default_parallelism=4, heartbeat_interval=0.0,
    )
    before = REGISTRY.snapshot(include_histograms=True)
    with Context(config) as ctx:
        total = ctx.parallelize(range(60), 4).map(_double).sum()
        pairs = sorted(
            ctx.parallelize([(i % 4, 1) for i in range(40)], 4)
            .reduce_by_key(operator.add)
            .collect()
        )
        tasks = sum(len(s.tasks) for j in ctx.metrics.jobs for s in j.stages)
        binary_bytes = sum(
            j.totals().task_binary_bytes for j in ctx.metrics.jobs
        )
    after = REGISTRY.snapshot(include_histograms=True)
    delta = {
        name: after[name] - before.get(name, 0.0)
        for name in after
        if after[name] != before.get(name, 0.0)
    }
    return {
        "total": total,
        "pairs": pairs,
        "tasks": tasks,
        "binary_bytes": binary_bytes,
        "delta": delta,
    }


@pytest.fixture(scope="module")
def runs():
    return {backend: _run_workload(backend) for backend in BACKENDS}


class TestParity:
    def test_results_identical(self, runs):
        for backend in BACKENDS:
            assert runs[backend]["total"] == 2 * sum(range(60))
            assert runs[backend]["pairs"] == [(0, 10), (1, 10), (2, 10), (3, 10)]

    def test_worker_series_present_on_driver_everywhere(self, runs):
        """The point-of-execution series must reach the driver registry no
        matter where execution happened."""
        for backend in BACKENDS:
            delta = runs[backend]["delta"]
            for kind in ("result", "shuffle_map"):
                key = f'repro_worker_task_seconds_count{{kind="{kind}"}}'
                assert delta.get(key, 0) > 0, f"{key} missing under {backend}"

    def test_worker_task_counts_match_task_records(self, runs):
        for backend in BACKENDS:
            delta = runs[backend]["delta"]
            observed = sum(
                v for k, v in delta.items()
                if k.startswith("repro_worker_task_seconds_count")
            )
            assert observed == runs[backend]["tasks"], backend

    def test_deterministic_engine_totals_match(self, runs):
        """Counters derived from record counts are backend-invariant."""
        keys = (
            "engine_jobs_total",
            'engine_tasks_total{outcome="success"}',
            'engine_shuffle_records_total{direction="written"}',
            'engine_shuffle_records_total{direction="read"}',
        )
        reference = runs["serial"]["delta"]
        delta = runs["cluster"]["delta"]
        for key in keys:
            assert delta.get(key) == reference.get(key), key

    def test_metric_name_sets_consistent(self, runs):
        """Serial's engine/worker series are a subset of the cluster's
        (which legitimately adds serialization-path series such as
        task-binary bytes)."""
        def names(run):
            # gauges (e.g. peak-RSS high-water marks) may legitimately not
            # move on a later run, GC-pause counters only move when the
            # collector happens to fire inside a task, and the diagnostics
            # bridge counters (skew/stragglers) only move when the
            # scheduler's timing happens to trip a detector; compare
            # deterministic monotonic series only
            nondeterministic = ("gc_pause", "stage_skew", "stragglers")
            return {
                k for k in run["delta"]
                if k.startswith(("engine_", "repro_worker_"))
                and k.split("{")[0].endswith(("_total", "_count", "_sum"))
                and not any(tag in k for tag in nondeterministic)
            }

        base = names(runs["serial"])
        assert base  # sanity: the workload moved the registry
        missing = base - names(runs["cluster"])
        assert not missing, f"cluster lost series: {sorted(missing)}"

    def test_task_binary_bytes_counted_under_processes(self, runs):
        """Only the cluster backend ships per-stage task binaries to worker
        processes; its byte counter must be live both in TaskMetrics and the
        registry."""
        assert runs["cluster"]["binary_bytes"] > 0
        assert runs["cluster"]["delta"].get("engine_task_binary_bytes_total", 0) > 0

    def test_gc_pause_counter_exists_everywhere(self, runs):
        for backend in BACKENDS:
            # value may legitimately be 0.0 (no collection during the tasks),
            # but the series must exist on the driver registry
            snapshot = REGISTRY.snapshot()
            assert "repro_worker_gc_pause_seconds_total" in snapshot, backend
