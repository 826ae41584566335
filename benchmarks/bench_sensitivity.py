"""Figure 3: sensitivity -- iterations x SNPs held constant.

The paper fixes iterations x SNPs = 1e7 across three configurations and
observes that runtime is similar within each method while Monte Carlo
dominates permutation throughout.  The live part scales the product down
to 2e4 (iterations x SNPs) and measures the same invariance on the real
local engine (permutation as the paper wrote it: refit and recompute U per
replicate).
"""

from __future__ import annotations

import time

import pytest

from repro.core.local import LocalSparkScore
from repro.genomics.synthetic import SyntheticConfig, generate_dataset

#: live configurations: iterations x SNPs = 40_000 in all three
LIVE_CONFIGS = ((100, 400), (40, 1000), (10, 4000))


class TestLiveSensitivity:
    @pytest.mark.parametrize("iterations,n_snps", LIVE_CONFIGS)
    def test_monte_carlo_constant_work(self, benchmark, iterations, n_snps):
        data = generate_dataset(
            SyntheticConfig(n_patients=200, n_snps=n_snps, n_snpsets=20, seed=1)
        )
        local = LocalSparkScore(data)
        benchmark.pedantic(local.monte_carlo, args=(iterations, 5), rounds=3, iterations=1)

    def test_mc_within_small_spread_live(self, benchmark):
        """MC wall time varies by < 10x across the constant-work configs."""
        times = []
        for iterations, n_snps in LIVE_CONFIGS:
            data = generate_dataset(
                SyntheticConfig(n_patients=200, n_snps=n_snps, n_snpsets=20, seed=1)
            )
            local = LocalSparkScore(data)
            local.observed_statistics()  # warm
            start = time.perf_counter()
            local.monte_carlo(iterations, seed=5)
            times.append(time.perf_counter() - start)
        benchmark.extra_info["live_spread"] = max(times) / min(times)
        benchmark(lambda: None)
        assert max(times) / min(times) < 10

    def test_mc_beats_perm_in_each_config_live(self, benchmark, permutation_as_written):
        """Fig. 3's ordering holds for Algorithm 2 as written; the score-weight
        kernel (``local.permutation``) is recorded beside it, not asserted."""
        kernel_over_mc = []
        for iterations, n_snps in LIVE_CONFIGS:
            data = generate_dataset(
                SyntheticConfig(n_patients=200, n_snps=n_snps, n_snpsets=20, seed=1)
            )
            local = LocalSparkScore(data)
            start = time.perf_counter()
            local.monte_carlo(iterations, seed=5)
            mc = time.perf_counter() - start
            start = time.perf_counter()
            permutation_as_written(data, iterations, seed=5)
            perm = time.perf_counter() - start
            start = time.perf_counter()
            local.permutation(iterations, seed=5)
            kernel_over_mc.append((time.perf_counter() - start) / mc)
            assert mc < perm
        benchmark.extra_info["kernel_over_mc"] = kernel_over_mc
        benchmark(lambda: None)
