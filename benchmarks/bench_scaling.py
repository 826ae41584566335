"""Figure 6 / Table VI: strong scaling.

The same workload on 1, 2, and 4 cluster worker process slots -- more
resources, same input.  Fig. 6's mechanism (a cached ``U`` that thrashes on
one executor and fits on two) is ``live_tables.py``'s Fig. 6 row.
"""

from __future__ import annotations

import time

import pytest

from repro.config import EngineConfig
from repro.core.algorithms import DistributedSparkScore
from repro.engine.context import Context


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
