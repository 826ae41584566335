"""Figure 6 / Table VI: strong scaling, plus the Table I hardware record.

Live part: the same workload on 1, 2, and 4 cluster worker processes --
more resources, same input.  Simulated part: the 1M-SNP
Monte Carlo workload on 6/12/18 simulated EMR nodes, reproducing the
two-orders-of-magnitude gap the paper attributes to 18 nodes at 20
iterations (the cached U RDD fits at 18 nodes and thrashes at 6 -- see
EXPERIMENTS.md).
"""

from __future__ import annotations

import time

import pytest

from repro.bench.experiments import FIG6_ITERATIONS, FIG6_NODES
from repro.bench.tables import format_series_table
from repro.cluster.nodes import M3_2XLARGE, emr_cluster
from repro.config import EngineConfig
from repro.core.algorithms import DistributedSparkScore
from repro.core.perfmodel import SparkScorePerfModel, WorkloadSpec
from repro.engine.context import Context


class TestTableI:
    def test_hardware_record(self, benchmark, paper_tables):
        benchmark(lambda: M3_2XLARGE)
        paper_tables.append(
            "== Table I -- m3.2xlarge (encoded in repro.cluster.nodes) ==\n\n"
            f"  processor: {M3_2XLARGE.processor}\n"
            f"  vCPU:      {M3_2XLARGE.vcpus}\n"
            f"  memory:    {M3_2XLARGE.memory_gib:g} GiB\n"
            f"  storage:   2 x {M3_2XLARGE.storage_gb/2:g} GB"
        )


class TestLiveStrongScaling:
    @pytest.mark.parametrize("executors,cores", [(1, 1), (2, 1), (2, 2)])
    def test_cluster_scaling(self, benchmark, live_dataset, executors, cores):
        config = EngineConfig(
            backend="cluster",
            num_executors=executors,
            executor_cores=cores,
            default_parallelism=executors * cores * 2,
        )

        def run():
            with Context(config) as ctx:
                scorer = DistributedSparkScore(ctx, live_dataset, flavor="vectorized")
                return scorer.monte_carlo(40, seed=2, batch_size=20)

        benchmark.pedantic(run, rounds=3, iterations=1)

    def test_more_slots_not_slower(self, benchmark, live_dataset):
        """Sanity: 2x2 workers should not lose badly to 1x1 on real work."""

        def timed(executors, cores):
            config = EngineConfig(
                backend="cluster",
                num_executors=executors,
                executor_cores=cores,
                default_parallelism=8,
            )
            with Context(config) as ctx:
                scorer = DistributedSparkScore(ctx, live_dataset, flavor="vectorized")
                start = time.perf_counter()
                scorer.monte_carlo(40, seed=2, batch_size=20)
                return time.perf_counter() - start

        single = timed(1, 1)
        many = timed(2, 2)
        benchmark.extra_info["live_speedup_2x2_vs_1x1"] = single / many
        benchmark(lambda: None)
        assert many < 3.0 * single  # engine overhead must not swamp the gain


class TestPaperScaleSimulation:
    def test_simulate_fig6(self, benchmark, paper_tables):
        model = SparkScorePerfModel()
        workload = WorkloadSpec(1000, 1_000_000, 1000, "monte_carlo")
        runs = {n: model.predict(workload, emr_cluster(n)) for n in FIG6_NODES}
        benchmark(lambda: [runs[n].total_at(20) for n in FIG6_NODES])
        paper_tables.append(format_series_table(
            "Table VI / Fig. 6 -- strong scaling, 1M SNPs, Monte Carlo",
            "iterations", list(FIG6_ITERATIONS),
            {
                f"{n} x m3.2xlarge": [runs[n].total_at(b) for b in FIG6_ITERATIONS]
                for n in FIG6_NODES
            },
        ))
        ratio = runs[6].total_at(20) / runs[18].total_at(20)
        paper_tables.append(
            f"   (18-node run at 20 iterations is {ratio:.0f}x faster than 6 nodes;\n"
            "    paper: 'two orders of magnitude smaller')"
        )
        assert ratio > 30
        assert runs[6].total_at(20) > runs[12].total_at(20) > runs[18].total_at(20)

    def test_cache_fit_boundary(self, benchmark):
        """The mechanism behind Fig. 6: 24 GB of cached U objects fits in
        18 x 3 GiB of storage memory but not in 6 x 3 GiB."""
        model = SparkScorePerfModel()
        workload = WorkloadSpec(1000, 1_000_000, 1000, "monte_carlo")
        fits = {n: model.predict(workload, emr_cluster(n)).cache_fits for n in (6, 12, 18)}
        benchmark(lambda: None)
        assert fits == {6: False, 12: True, 18: True}
