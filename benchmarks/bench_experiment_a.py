"""Experiment A (Table II -> Figure 2 + Table III): MC vs permutation scaling.

Live part: measure Monte Carlo and permutation replicate costs on the real
engine at reduced scale and assert the paper's ordering (A1-A3 in
DESIGN.md) for Algorithm 2 as the paper wrote it; the score-weight kernel
``LocalSparkScore.permutation`` runs is timed beside it.  The one- and
two-slot Table III rows at gate size are ``live_tables.py``'s.
"""

from __future__ import annotations

import pytest

from repro.core.local import LocalSparkScore


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
