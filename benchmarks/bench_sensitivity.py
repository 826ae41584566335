"""Figure 3: sensitivity -- iterations x SNPs held constant.

The paper fixes iterations x SNPs = 1e7 across three configurations and
observes that runtime is similar within each method while Monte Carlo
dominates permutation throughout.  The live part scales the product down
to 2e4 (iterations x SNPs) and measures the same invariance on the real
local engine (permutation as the paper wrote it: refit and recompute U per
replicate); the simulated part replays the paper-scale configurations.

Note: the paper does not state the cluster size for this figure; we use
the 18-node Experiment B cluster so the 1M-SNP configuration sits in the
cache-fits regime (see EXPERIMENTS.md).
"""

from __future__ import annotations

import time

import pytest

from repro.bench.experiments import FIG3_CONFIGS
from repro.bench.tables import format_series_table
from repro.cluster.nodes import emr_cluster
from repro.core.local import LocalSparkScore
from repro.core.perfmodel import SparkScorePerfModel, WorkloadSpec
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


class TestPaperScaleSimulation:
    def test_simulate_fig3(self, benchmark, paper_tables):
        model = SparkScorePerfModel()
        cluster = emr_cluster(18)
        mc_totals, perm_totals, labels = [], [], []
        for iterations, n_snps in FIG3_CONFIGS:
            mc = model.predict(WorkloadSpec(1000, n_snps, 1000, "monte_carlo"), cluster)
            perm = model.predict(WorkloadSpec(1000, n_snps, 1000, "permutation"), cluster)
            mc_totals.append(mc.total_at(iterations))
            perm_totals.append(perm.total_at(iterations))
            labels.append(f"{iterations}x{n_snps}")
        benchmark(lambda: None)
        paper_tables.append(format_series_table(
            "Fig. 3 -- sensitivity: iterations x SNPs = 1e7 (18 nodes)",
            "iters x SNPs", labels,
            {"monte carlo": mc_totals, "permutation": perm_totals},
        ))
        # shape claims: similar within method, MC wins everywhere
        assert max(mc_totals) / min(mc_totals) < 10
        assert max(perm_totals) / min(perm_totals) < 10
        assert all(m < p for m, p in zip(mc_totals, perm_totals))
