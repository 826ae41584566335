"""Experiment A (Table II -> Figure 2 + Table III): MC vs permutation scaling.

Live part: measure Monte Carlo and permutation replicate costs on the real
engine at reduced scale and assert the paper's ordering (A1-A3 in
DESIGN.md) for Algorithm 2 as the paper wrote it; the score-weight kernel
``LocalSparkScore.permutation`` runs is timed beside it.  Simulated part:
replay the exact Table II workload (1000 patients x 100K SNPs x 1000 sets
on 6 m3.2xlarge nodes) and print our predicted seconds next to Table III's
published numbers.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import EXPERIMENT_A, PAPER_TABLE_III
from repro.bench.tables import format_comparison_table
from repro.cluster.nodes import emr_cluster
from repro.core.local import LocalSparkScore
from repro.core.perfmodel import SparkScorePerfModel, WorkloadSpec


@pytest.fixture(scope="module")
def local(live_dataset):
    return LocalSparkScore(live_dataset)


class TestLiveScaling:
    """Real measurements at 1/50 scale; shapes must match Figure 2."""

    def test_observed_statistic(self, benchmark, local):
        benchmark(local.observed_statistics)

    def test_monte_carlo_16(self, benchmark, local):
        result = benchmark(local.monte_carlo, 16, 3)
        assert result.n_resamples == 16

    def test_monte_carlo_1000(self, benchmark, local):
        benchmark.pedantic(local.monte_carlo, args=(1000, 3), rounds=3, iterations=1)

    def test_permutation_16(self, benchmark, local):
        result = benchmark.pedantic(local.permutation, args=(16, 3), rounds=3, iterations=1)
        assert result.n_resamples == 16

    def test_mc_beats_permutation_at_equal_iterations(
        self, benchmark, local, live_dataset, permutation_as_written
    ):
        """A2 live: per-replicate cost of MC is far below that of Algorithm 2
        as written (refit + recompute U per replicate).  The score-weight
        kernel behind ``local.permutation`` recomputes no U -- A2 does not
        describe it -- so its time is recorded beside the ratio, not in it."""
        import time

        import numpy as np

        start = time.perf_counter()
        local.monte_carlo(64, seed=1)
        mc = time.perf_counter() - start
        start = time.perf_counter()
        as_written = permutation_as_written(live_dataset, 64, seed=1)
        perm = time.perf_counter() - start
        start = time.perf_counter()
        kernel = local.permutation(64, seed=1)
        kernel_seconds = time.perf_counter() - start
        assert np.array_equal(as_written, kernel.exceed_counts)
        assert perm > 2.0 * mc, f"permutation as written {perm:.3f}s vs MC {mc:.3f}s"
        benchmark.extra_info["live_speedup_at_64"] = perm / mc
        benchmark.extra_info["kernel_seconds_at_64"] = kernel_seconds
        benchmark.extra_info["kernel_over_mc_at_64"] = kernel_seconds / mc
        print(f"\nlive @64: MC {mc * 1e3:.0f} ms, permutation as written "
              f"{perm * 1e3:.0f} ms, score-weight kernel {kernel_seconds * 1e3:.0f} ms")
        benchmark(lambda: None)


class TestPaperScaleSimulation:
    """Predicted Table III at the paper's exact parameters."""

    @pytest.fixture(scope="class")
    def predictions(self):
        model = SparkScorePerfModel()
        cluster = emr_cluster(EXPERIMENT_A.n_nodes)
        mc = model.predict(
            WorkloadSpec(EXPERIMENT_A.n_patients, EXPERIMENT_A.n_snps,
                         EXPERIMENT_A.n_snpsets, "monte_carlo"),
            cluster,
        )
        perm = model.predict(
            WorkloadSpec(EXPERIMENT_A.n_patients, EXPERIMENT_A.n_snps,
                         EXPERIMENT_A.n_snpsets, "permutation"),
            cluster,
        )
        return mc, perm

    def test_simulate_experiment_a(self, benchmark, predictions, paper_tables):
        mc, perm = predictions
        iters = PAPER_TABLE_III["iterations"]
        benchmark(lambda: [mc.total_at(b) for b in iters])

        paper_tables.append(format_comparison_table(
            "Table III / Fig. 2 -- Monte Carlo, 100K SNPs, 6 nodes (seconds)",
            "iterations", iters,
            [mc.total_at(b) for b in iters],
            list(PAPER_TABLE_III["monte_carlo_avg"]),
        ))
        paper_tables.append(format_comparison_table(
            "Table III / Fig. 2 -- Permutation, 100K SNPs, 6 nodes (seconds)",
            "iterations", iters,
            [perm.total_at(b) for b in iters],
            list(PAPER_TABLE_III["permutation_avg"]),
        ))

    def test_shape_a1_mc_flat_perm_linear(self, benchmark, predictions):
        mc, perm = predictions
        benchmark(lambda: None)
        assert mc.total_at(100) < 1.5 * mc.total_at(0)
        assert perm.total_at(16) > 10 * perm.total_at(0) * 0.9

    def test_shape_a2_order_of_magnitude_at_16(self, benchmark, predictions):
        mc, perm = predictions
        ratio = perm.total_at(16) / mc.total_at(16)
        benchmark.extra_info["simulated_ratio_at_16"] = ratio
        benchmark(lambda: None)
        assert ratio > 8.0  # paper: "an order of magnitude faster"

    def test_shape_a3_mc10000_below_perm16(self, benchmark, predictions):
        mc, perm = predictions
        benchmark(lambda: None)
        assert mc.total_at(10_000) < perm.total_at(16)
