"""Experiment B (Table IV -> Figures 4-5 + Table V): impact of RDD caching.

Live part: the real engine runs Monte Carlo with and without the cached
contributions RDD; uncached must recompute lineage per batch (B1 in
DESIGN.md).  Simulated part: the 10K-SNP (Fig. 4 / Table V) and 1M-SNP
(Fig. 5) workloads on 18 nodes, printed next to the published numbers.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.bench.experiments import EXPERIMENT_B_10K, EXPERIMENT_B_1M, PAPER_TABLE_V
from repro.bench.tables import format_comparison_table, format_series_table
from repro.cluster.nodes import emr_cluster
from repro.config import EngineConfig
from repro.core.algorithms import DistributedSparkScore
from repro.core.perfmodel import SparkScorePerfModel, WorkloadSpec
from repro.engine.context import Context

#: timed calls per arm in the live wall-clock comparison
TIMED_ROUNDS = 5


def engine_config():
    return EngineConfig(
        backend="serial", num_executors=2, executor_cores=2, default_parallelism=4
    )


def job_totals(ctx: Context) -> dict:
    """The cache and shuffle counts of every job the context ran."""
    totals = [job.totals() for job in ctx.metrics.jobs]
    return {
        "hits": sum(t.cache_hits for t in totals),
        "misses": sum(t.cache_misses for t in totals),
        "shuffle_bytes": sum(t.shuffle_bytes_written for t in totals),
    }


def cache_summary_line(tag: str, totals: dict) -> str:
    hits, misses = totals["hits"], totals["misses"]
    accesses = hits + misses
    rate = hits / accesses if accesses else 0.0
    return (
        f"[jobs] {tag}: cache hit rate {rate:.1%} "
        f"({hits} hits / {misses} misses), "
        f"shuffle volume {totals['shuffle_bytes'] / 1024:.1f} KiB"
    )


class TestLiveCaching:
    # B = 160 in batches of 20 is two waves of WAVE_BATCHES = 4: the second
    # wave reads the blocks the first persisted (one wave reads no hits)
    def test_monte_carlo_cached(self, benchmark, live_dataset):
        def run():
            with Context(engine_config()) as ctx:
                scorer = DistributedSparkScore(ctx, live_dataset, flavor="vectorized")
                return scorer.monte_carlo(160, seed=1, batch_size=20)

        result = benchmark.pedantic(run, rounds=3, iterations=1)
        assert result.info["cache_hits"] > 0

    def test_monte_carlo_uncached(self, benchmark, live_dataset):
        def run():
            with Context(engine_config()) as ctx:
                scorer = DistributedSparkScore(ctx, live_dataset, flavor="vectorized")
                return scorer.monte_carlo(
                    160, seed=1, batch_size=20, cache_contributions=False
                )

        result = benchmark.pedantic(run, rounds=3, iterations=1)
        assert result.info["cache_hits"] == 0

    def test_cached_faster_live(self, benchmark, live_dataset):
        """B1 live: same analysis, caching wins on wall clock -- and the
        job records show why (hit rate + shuffle volume).

        Each arm gets one untimed warm-up call, so neither pays the
        process's first-call costs, then the arms alternate which goes
        first and the medians of five timed calls are compared."""

        def timed(cache: bool) -> tuple[float, dict]:
            with Context(engine_config()) as ctx:
                scorer = DistributedSparkScore(ctx, live_dataset, flavor="vectorized")
                start = time.perf_counter()
                scorer.monte_carlo(60, seed=1, batch_size=10, cache_contributions=cache)
                return time.perf_counter() - start, job_totals(ctx)

        timed(True)
        timed(False)
        walls: dict[bool, list[float]] = {True: [], False: []}
        totals: dict[bool, dict] = {}
        for round_ in range(TIMED_ROUNDS):
            for cache in ((True, False) if round_ % 2 == 0 else (False, True)):
                wall, totals[cache] = timed(cache)
                walls[cache].append(wall)
        cached, uncached = statistics.median(walls[True]), statistics.median(walls[False])
        for tag, cache in (("cached", True), ("no-cache", False)):
            line = cache_summary_line(tag, totals[cache])
            print(line)
            benchmark.extra_info[f"jobs_{tag}"] = line
        print(f"[wall] median of {TIMED_ROUNDS}: cached {cached:.4f} s, "
              f"no-cache {uncached:.4f} s")
        benchmark.extra_info["live_cache_speedup"] = uncached / cached
        benchmark(lambda: None)
        assert totals[True]["hits"] > 0
        assert totals[False]["hits"] == 0
        assert uncached > cached


class TestPaperScaleSimulation:
    @pytest.fixture(scope="class")
    def model(self):
        return SparkScorePerfModel()

    def test_simulate_table_v_10k(self, benchmark, model, paper_tables):
        cluster = emr_cluster(EXPERIMENT_B_10K.n_nodes)
        cached = model.predict(
            WorkloadSpec(1000, EXPERIMENT_B_10K.n_snps, 1000, "monte_carlo"), cluster
        )
        uncached = model.predict(
            WorkloadSpec(1000, EXPERIMENT_B_10K.n_snps, 1000, "monte_carlo", cache=False),
            cluster,
        )
        benchmark(lambda: cached.total_at(10_000))
        iters = PAPER_TABLE_V["iterations"]
        paper_tables.append(format_comparison_table(
            "Table V / Fig. 4 -- MC with caching, 10K SNPs, 18 nodes (seconds)",
            "iterations", iters,
            [cached.total_at(b) for b in iters],
            list(PAPER_TABLE_V["caching_avg"]),
        ))
        paper_tables.append(format_comparison_table(
            "Table V / Fig. 4 -- MC without caching, 10K SNPs, 18 nodes (seconds)",
            "iterations", iters,
            [uncached.total_at(b) if PAPER_TABLE_V["nocache_avg"][i] is not None else None
             for i, b in enumerate(iters)],
            list(PAPER_TABLE_V["nocache_avg"]),
        ))
        # headline claim: cached @ 10000 beats uncached @ 200
        assert cached.total_at(10_000) < uncached.total_at(200)

    def test_simulate_fig5_1m(self, benchmark, model, paper_tables):
        cluster = emr_cluster(EXPERIMENT_B_1M.n_nodes)
        cached = model.predict(
            WorkloadSpec(1000, EXPERIMENT_B_1M.n_snps, 1000, "monte_carlo"), cluster
        )
        uncached = model.predict(
            WorkloadSpec(1000, EXPERIMENT_B_1M.n_snps, 1000, "monte_carlo", cache=False),
            cluster,
        )
        benchmark(lambda: cached.total_at(1000))
        grid = [0, 10, 100, 1000]
        paper_tables.append(format_series_table(
            "Fig. 5 -- MC w/ and w/o caching, 1M SNPs, 18 nodes "
            "(claim: cached@1000 < uncached@10)",
            "iterations", grid,
            {
                "cached": [cached.total_at(b) for b in grid],
                "no cache": [uncached.total_at(b) if b <= 10 else None for b in grid],
            },
        ))
        assert cached.total_at(1000) < uncached.total_at(10)

    def test_per_iteration_collapse(self, benchmark, model):
        cluster = emr_cluster(18)
        cached = model.predict(WorkloadSpec(1000, 10_000, 1000, "monte_carlo"), cluster)
        uncached = model.predict(
            WorkloadSpec(1000, 10_000, 1000, "monte_carlo", cache=False), cluster
        )
        ratio = uncached.per_iteration_seconds / cached.per_iteration_seconds
        benchmark.extra_info["per_iteration_collapse"] = ratio
        benchmark(lambda: None)
        assert ratio > 50


class TestCacheEvictionAblation:
    """Beyond the paper: sweep the executor memory budget and watch the
    live engine degrade from all-cached to thrash-and-recompute."""

    @pytest.mark.parametrize("memory_kib", [262144, 48])
    def test_memory_budget(self, benchmark, live_dataset_small, memory_kib):
        config = EngineConfig(
            backend="serial",
            num_executors=2,
            executor_cores=1,
            executor_memory=memory_kib * 1024,
            default_parallelism=4,
        )

        # 8 batches of 10: two waves, so a budget that holds the blocks
        # shows hits in the second
        def run():
            with Context(config) as ctx:
                scorer = DistributedSparkScore(ctx, live_dataset_small, flavor="vectorized")
                return scorer.monte_carlo(80, seed=1, batch_size=10)

        result = benchmark.pedantic(run, rounds=3, iterations=1)
        if memory_kib >= 262144:
            assert result.info["cache_hits"] > 0
        else:
            # a 48 KiB budget cannot hold any ~100 KiB contribution block:
            # every access falls back to lineage recomputation
            assert result.info["cache_hits"] == 0
            assert result.info["cache_misses"] > 0
