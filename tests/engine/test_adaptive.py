"""Adaptive query execution: skew remaps and speculation.

Three layers of coverage:

- ``build_remap`` unit tests: the pure re-cutting algorithm (split along
  map boundaries, coalesce tiny runs, identity passthrough, order
  preservation);
- engine tests on every backend: AQE on must be bit-identical to AQE off
  on a skewed workload, with the planner actually rewriting the plan;
- the speculation fault drill: a straggling first attempt loses the race
  to its twin, the twin's result commits exactly once (accumulators,
  task records), and the loser is discarded quietly.
"""

from __future__ import annotations

import time

import pytest

from repro.config import EngineConfig
from repro.engine.adaptive import SpeculationPolicy, build_remap
from repro.engine.context import Context
from repro.engine.task import current_task_context

from tests.conftest import DEFAULT_BACKEND


def _skewed_pairs(hot_records: int = 400, keys: int = 8, base: int = 5):
    """Hash-partitionable pairs where key 3's bucket dwarfs the others."""
    data = [(k, i) for k in range(keys) for i in range(base)]
    data += [(3, i) for i in range(hot_records)]
    return data


def _adaptive_config(backend: str, **overrides) -> EngineConfig:
    base = dict(
        backend=backend,
        num_executors=2,
        executor_cores=2,
        default_parallelism=4,
        adaptive_enabled=True,
    )
    base.update(overrides)
    return EngineConfig(**base)


# -- build_remap --------------------------------------------------------------


class TestBuildRemap:
    def test_balanced_layout_is_identity(self):
        counts = [[10, 10], [11, 9], [10, 12], [9, 10]]
        assert build_remap(
            0, counts, max_over_median=4.0, max_splits=8,
            coalesce_ratio=0.25, splittable=True,
        ) is None

    def test_hot_bucket_splits_along_map_boundaries(self):
        counts = [[100, 100, 100, 100]] + [[1, 1, 1, 1]] * 7
        remap = build_remap(
            0, counts, max_over_median=4.0, max_splits=8,
            coalesce_ratio=0.01, splittable=True,
        )
        assert remap is not None
        assert remap.new_partitions > len(counts)
        # every piece of old bucket 0 is a contiguous map range of bucket 0
        pieces = [
            seg for part in remap.segments for seg in part if seg[0] == 0
        ]
        assert len(pieces) > 1
        covered = sorted((lo, hi) for _, lo, hi in pieces)
        assert covered[0][0] == 0 and covered[-1][1] == 4
        for (_, hi), (lo, _) in zip(covered, covered[1:]):
            assert hi == lo  # contiguous, non-overlapping

    def test_unsplittable_hot_bucket_stays_whole(self):
        counts = [[100, 100, 100, 100]] + [[1, 1, 1, 1]] * 7
        remap = build_remap(
            0, counts, max_over_median=4.0, max_splits=8,
            coalesce_ratio=0.25, splittable=False,
        )
        if remap is not None:  # coalesce may still fire for the tiny run
            for part in remap.segments:
                hot = [seg for seg in part if seg[0] == 0]
                if hot:
                    assert hot == [(0, 0, 4)]

    def test_tiny_run_coalesces_alongside_a_split(self):
        # a skewed layout (the rewrite trigger) whose tail is a run of
        # tiny buckets: the same rewrite merges them whole
        counts = [[100, 100]] + [[10, 10]] * 4 + [[1, 1]] * 3
        remap = build_remap(
            0, counts, max_over_median=4.0, max_splits=8,
            coalesce_ratio=0.25, splittable=True,
        )
        assert remap is not None
        merged = [part for part in remap.segments if len(part) > 1]
        assert merged, "the tiny tail must coalesce into one partition"
        assert {old for old, _, _ in merged[0]} == {5, 6, 7}

    def test_remap_preserves_record_order(self):
        counts = [[30, 5, 25, 1], [1, 1, 1, 1], [1, 1, 1, 1], [2, 2, 2, 2]]
        remap = build_remap(
            0, counts, max_over_median=2.0, max_splits=4,
            coalesce_ratio=0.25, splittable=True,
        )
        assert remap is not None
        # concatenating the new partitions replays old buckets in order,
        # and within one old bucket the map ranges ascend contiguously
        seen: dict[int, int] = {}
        last_bucket = -1
        for part in remap.segments:
            for old, lo, hi in part:
                assert lo < hi
                assert old >= last_bucket
                last_bucket = old
                assert seen.get(old, 0) == lo
                seen[old] = hi
        assert seen == {0: 4, 1: 4, 2: 4, 3: 4}


class TestSpeculationPolicy:
    def test_threshold_floors_at_min_runtime(self):
        policy = SpeculationPolicy(multiplier=2.0, min_runtime=0.5, quantile=0.5)
        assert policy.threshold([0.01, 0.01, 0.01]) == 0.5
        assert policy.threshold([1.0, 1.0, 1.0]) == 2.0

    def test_ready_waits_for_quantile(self):
        policy = SpeculationPolicy(multiplier=2.0, min_runtime=0.1, quantile=0.75)
        assert not policy.ready(2, 8)
        assert policy.ready(6, 8)

    def test_from_config(self):
        # speculation_enabled installs the default policy; nothing else
        # in the config shapes it
        config = EngineConfig(speculation_enabled=True)
        with Context(config) as ctx:
            policy = ctx.adaptive.speculation
        assert (policy.multiplier, policy.min_runtime, policy.quantile) == (
            2.0, 0.1, 0.75
        )
        with Context(EngineConfig()) as ctx:
            assert ctx.adaptive.speculation is None


# -- cross-backend bit-equivalence -------------------------------------------


BACKENDS = ["serial", "cluster"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_skew_rebalance_bit_identical_across_backends(backend):
    data = _skewed_pairs()

    def run(adaptive: bool):
        config = _adaptive_config(backend) if adaptive else EngineConfig(
            backend=backend, num_executors=2, executor_cores=2,
            default_parallelism=4,
        )
        with Context(config) as ctx:
            rdd = ctx.parallelize(data, 4).partition_by(8).map_values(
                lambda v: v * 2
            )
            result = rdd.collect()
            snap = ctx.adaptive.snapshot()
        return result, snap

    static, static_snap = run(adaptive=False)
    adapted, snap = run(adaptive=True)
    assert adapted == static  # bit-identical, order included
    assert static_snap["stages_rewritten"] == 0
    assert snap["stages_rewritten"] >= 1
    kinds = {d["kind"] for d in snap["decisions"]}
    assert kinds & {"split", "coalesce", "rebalance"}


def test_rebalanced_shuffle_feeding_downstream_shuffle():
    """A remapped map stage feeding another shuffle stays correct, and a
    static-plan job on the same lineage after revert recomputes cleanly."""
    data = _skewed_pairs()
    with Context(_adaptive_config(DEFAULT_BACKEND)) as ctx:
        grouped = ctx.parallelize(data, 4).partition_by(8).map(
            lambda kv: (kv[0] % 4, kv[1])
        ).reduce_by_key(lambda a, b: a + b, num_partitions=4)
        first = sorted(grouped.collect())
        second = sorted(grouped.collect())  # post-revert recompute
    with Context(EngineConfig(backend=DEFAULT_BACKEND, num_executors=2,
                              executor_cores=2, default_parallelism=4)) as ctx:
        expected = sorted(
            ctx.parallelize(data, 4).partition_by(8).map(
                lambda kv: (kv[0] % 4, kv[1])
            ).reduce_by_key(lambda a, b: a + b, num_partitions=4).collect()
        )
    assert first == expected
    assert second == expected


# -- speculation fault drill ---------------------------------------------------


def test_speculative_twin_wins_and_commits_exactly_once(fresh_cluster):
    config, _ = fresh_cluster(executor_cores=2, speculation_enabled=True)
    hot = 6
    with Context(config) as ctx:
        ctx.adaptive.speculation = SpeculationPolicy(
            multiplier=2.0, min_runtime=0.05, quantile=0.5
        )
        seen = ctx.accumulator(0)

        def compute(split, it):
            tc = current_task_context()
            seen.add(1)
            if tc.partition == hot and not tc.speculative:
                time.sleep(1.2)  # the straggling original
            else:
                time.sleep(0.02)
            return iter([sum(it)])

        rdd = ctx.parallelize(range(80), 8).map_partitions_with_index(compute)
        start = time.perf_counter()
        result = rdd.collect()
        elapsed = time.perf_counter() - start
        snap = ctx.adaptive.snapshot()
        jobs = ctx.metrics.jobs_snapshot()

        # parallelize slices contiguously: partition p holds [10p, 10p+10)
        assert sorted(result) == sorted(
            sum(range(p * 10, p * 10 + 10)) for p in range(8)
        )
        # first-result-wins: the twin launched, won, and the loser's merge
        # never ran -- the accumulator saw 9 attempts but committed 8
        assert snap["speculative_launched"] == 1
        assert snap["speculative_won"] == 1
        assert elapsed < 1.2
        records = [
            rec
            for job in jobs
            for stage in job.stages
            for rec in stage.tasks
            if rec.partition == hot
        ]
        committed = [rec for rec in records if rec.succeeded]
        assert len(committed) == 1
        assert committed[0].speculative is True
        assert committed[0].attempt == 1
        assert seen.value == 8


def test_speculation_disabled_on_serial_backend():
    config = EngineConfig(
        backend="serial", num_executors=1, executor_cores=1,
        default_parallelism=1, speculation_enabled=True,
    )
    with Context(config) as ctx:
        ctx.adaptive.speculation = SpeculationPolicy(min_runtime=0.0)
        assert ctx.parallelize(range(10), 4).map(lambda x: x + 1).collect() == [
            x + 1 for x in range(10)
        ]
        assert ctx.adaptive.snapshot()["speculative_launched"] == 0


# -- no serialised first wave --------------------------------------------------


def _sleep_then_key(x):
    time.sleep(0.3)
    return (x % 2, x)


def test_adaptive_map_stage_launches_its_first_wave_in_parallel():
    """AQE must not hold a shuffle-map stage to one task until it ends:
    on 2x2 slots the four sleeping maps all launch before any finishes,
    and the stage takes about one sleep, not four."""
    from repro.engine.listener import CollectingListener, TaskEnd, TaskStart

    with Context(_adaptive_config("cluster")) as ctx:
        sink = ctx.listener_bus.add_listener(CollectingListener(TaskStart, TaskEnd))
        result = ctx.parallelize(range(4), 4).map(_sleep_then_key).reduce_by_key(
            lambda a, b: a + b
        ).collect()
        map_stage = ctx.metrics.last_job.stages[0]
    assert map_stage.is_shuffle_map
    assert sorted(result) == [(0, 2), (1, 4)]
    names = sink.names()
    assert names[: names.index("TaskEnd")].count("TaskStart") == 4
    assert map_stage.wall_seconds < 2 * 0.3


# -- eventlog v7 side channel --------------------------------------------------


def test_eventlog_v7_adaptive_side_channel(tmp_path):
    from repro.engine.eventlog import read_channels, read_event_log

    path = str(tmp_path / "events.jsonl")
    config = _adaptive_config("cluster", speculation_enabled=True)
    with Context(config, event_log_path=path) as ctx:
        ctx.parallelize(_skewed_pairs(), 4).partition_by(8).collect()
    jobs = read_event_log(path)
    assert len(jobs) == 1 and jobs[0].stages
    records = read_channels(path)["adaptive"]
    assert records, "AQE decisions must land in the v7 side channel"
    plan = [r for r in records if r["kind"] != "speculation"]
    assert plan
    assert {"shuffle_id", "stage_id", "job_id", "old_partitions",
            "new_partitions", "detail"} <= set(plan[0])


def test_eventlog_roundtrips_speculative_flag(tmp_path, fresh_cluster):
    from repro.engine.eventlog import read_event_log

    path = str(tmp_path / "events.jsonl")
    config, _ = fresh_cluster(executor_cores=2, speculation_enabled=True)
    with Context(config, event_log_path=path) as ctx:
        ctx.adaptive.speculation = SpeculationPolicy(
            multiplier=2.0, min_runtime=0.05, quantile=0.5
        )

        def compute(split, it):
            tc = current_task_context()
            if tc.partition == 3 and not tc.speculative:
                time.sleep(1.0)
            else:
                time.sleep(0.02)
            return iter([sum(it)])

        ctx.parallelize(range(40), 8).map_partitions_with_index(compute).collect()
    jobs = read_event_log(path)
    speculative = [
        rec
        for job in jobs
        for stage in job.stages
        for rec in stage.tasks
        if rec.speculative
    ]
    assert speculative and all(rec.succeeded for rec in speculative)


# -- advisor integration -------------------------------------------------------


def test_advisor_recommends_enabling_adaptive():
    from repro.obs.advisor import diagnose

    config = EngineConfig(backend=DEFAULT_BACKEND, num_executors=2,
                          executor_cores=2, default_parallelism=4)

    def slow_value(v):
        # shuffle-read byte distributions stay driver-side on the
        # pickled backends, so the skew signal the advisor sees on
        # every backend is per-task duration: make the hot bucket's
        # records cost wall-clock, not just bytes.
        time.sleep(0.001)
        return v

    with Context(config) as ctx:
        (ctx.parallelize(_skewed_pairs(hot_records=200), 4)
            .partition_by(8).map_values(slow_value).collect())
        jobs = ctx.metrics.jobs_snapshot()
    off = diagnose(jobs, adaptive=False)
    (rec,) = [r for r in off if r.rule == "enable-adaptive-execution"]
    assert "--adaptive" in rec.action and "spark." not in rec.action
    on = diagnose(jobs, adaptive=True)
    assert not any(r.rule == "enable-adaptive-execution" for r in on)
    unknown = diagnose(jobs)  # provenance unknown: stay quiet
    assert not any(r.rule == "enable-adaptive-execution" for r in unknown)


def test_advisor_straggler_copy_mentions_speculation():
    from repro.obs import advisor
    import inspect

    source = inspect.getsource(advisor.rule_stragglers)
    assert "speculative retry unavailable" not in source
    assert "speculation_enabled" in source


# -- explain() annotations -----------------------------------------------------


def test_explain_annotates_adaptive_decisions():
    with Context(_adaptive_config(DEFAULT_BACKEND)) as ctx:
        rdd = ctx.parallelize(_skewed_pairs(), 4).partition_by(8)
        before = rdd.explain()
        assert "adaptive execution: on" in before
        rdd.collect()
        after = rdd.explain()
        assert "<adaptive:" in after and "split" in after


# -- CLI flags -----------------------------------------------------------------


def test_cli_adaptive_flags():
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["analyze", "d", "--adaptive"])
    assert args.adaptive is True
    args = parser.parse_args(["analyze", "d", "--no-adaptive"])
    assert args.adaptive is False
    args = parser.parse_args(["analyze", "d"])
    assert args.adaptive is None
    with pytest.raises(SystemExit):
        parser.parse_args(["analyze", "d", "--adaptive", "--no-adaptive"])
