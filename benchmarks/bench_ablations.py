"""Ablations beyond the paper's figures (DESIGN.md section 6).

- score test vs Wald/LRT: the computational motivation of Section II --
  the score statistic needs one evaluation per SNP; Wald needs a Newton
  loop with convergence monitoring;
- algorithm flavor: the paper-faithful record-per-SNP pipeline vs the
  vectorized block pipeline (per-record overhead ablation);
- resampling vs asymptotic inference cost;
- serial vs cluster backend.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.config import EngineConfig
from repro.core.algorithms import DistributedSparkScore
from repro.core.local import LocalSparkScore
from repro.engine.context import Context
from repro.stats.wald import cox_mle, score_test_statistics

#: timed calls per flavor; their median is compared
TIMED_ROUNDS = 5


class TestScoreVsWald:
    """The paper's core computational argument, measured."""

    def test_score_statistics(self, benchmark, live_dataset):
        benchmark(
            score_test_statistics, live_dataset.phenotype, live_dataset.genotypes.matrix
        )

    def test_wald_newton_raphson(self, benchmark, live_dataset):
        result = benchmark.pedantic(
            cox_mle, args=(live_dataset.phenotype, live_dataset.genotypes.matrix),
            rounds=2, iterations=1,
        )
        assert result.converged.all()

    def test_score_much_cheaper_than_wald(self, benchmark, live_dataset):
        pheno, G = live_dataset.phenotype, live_dataset.genotypes.matrix
        start = time.perf_counter()
        score_test_statistics(pheno, G)
        score_t = time.perf_counter() - start
        start = time.perf_counter()
        mle = cox_mle(pheno, G)
        wald_t = time.perf_counter() - start
        benchmark.extra_info["wald_over_score"] = wald_t / score_t
        benchmark.extra_info["mean_newton_iterations"] = float(mle.iterations.mean())
        benchmark(lambda: None)
        assert wald_t > 1.5 * score_t
        assert mle.iterations.mean() > 1.0


class TestFlavorAblation:
    """Record-per-SNP (paper) vs block-vectorized pipelines."""

    def _run(self, dataset, flavor):
        config = EngineConfig(
            backend="serial", num_executors=2, executor_cores=2, default_parallelism=4
        )
        with Context(config) as ctx:
            scorer = DistributedSparkScore(ctx, dataset, flavor=flavor, block_size=256)
            return scorer.monte_carlo(30, seed=1, batch_size=15)

    def test_flavor_paper(self, benchmark, live_dataset_small):
        benchmark.pedantic(self._run, args=(live_dataset_small, "paper"), rounds=2, iterations=1)

    def test_flavor_vectorized(self, benchmark, live_dataset_small):
        benchmark.pedantic(
            self._run, args=(live_dataset_small, "vectorized"), rounds=2, iterations=1
        )

    def test_vectorized_faster(self, benchmark, live_dataset):
        """Each flavor gets one untimed warm-up call, so neither pays the
        process's first-call costs, then the flavors alternate which goes
        first and the medians of five timed calls are compared."""

        def timed(flavor: str):
            start = time.perf_counter()
            result = self._run(live_dataset, flavor)
            return time.perf_counter() - start, result

        results = {flavor: timed(flavor)[1] for flavor in ("paper", "vectorized")}
        walls: dict[str, list[float]] = {"paper": [], "vectorized": []}
        for round_ in range(TIMED_ROUNDS):
            order = ("paper", "vectorized") if round_ % 2 == 0 else ("vectorized", "paper")
            for flavor in order:
                walls[flavor].append(timed(flavor)[0])
        paper_t, vec_t = statistics.median(walls["paper"]), statistics.median(walls["vectorized"])
        assert (results["paper"].exceed_counts == results["vectorized"].exceed_counts).all()
        benchmark.extra_info["vectorized_speedup"] = paper_t / vec_t
        benchmark(lambda: None)
        assert vec_t < paper_t


class TestInferenceCostComparison:
    def test_asymptotic(self, benchmark, live_dataset_small):
        local = LocalSparkScore(live_dataset_small)
        benchmark.pedantic(local.asymptotic, kwargs={"method": "liu"}, rounds=3, iterations=1)

    def test_monte_carlo_1000(self, benchmark, live_dataset_small):
        local = LocalSparkScore(live_dataset_small)
        benchmark.pedantic(local.monte_carlo, args=(1000, 3), rounds=3, iterations=1)

    def test_permutation_100(self, benchmark, live_dataset_small):
        local = LocalSparkScore(live_dataset_small)
        benchmark.pedantic(local.permutation, args=(100, 3), rounds=3, iterations=1)


class TestBackendAblation:
    @pytest.mark.parametrize("backend", ["serial", "cluster"])
    def test_backend(self, benchmark, live_dataset, backend):
        config = EngineConfig(
            backend=backend, num_executors=2, executor_cores=2, default_parallelism=4
        )

        def run():
            with Context(config) as ctx:
                scorer = DistributedSparkScore(ctx, live_dataset, flavor="vectorized")
                return scorer.monte_carlo(30, seed=1, batch_size=15)

        benchmark.pedantic(run, rounds=2, iterations=1)


class TestSetStatisticVariants:
    """Set-level SKAT vs variant-level maxT cost on the same replicate stream."""

    def test_skat_monte_carlo(self, benchmark, live_dataset_small):
        local = LocalSparkScore(live_dataset_small)
        benchmark.pedantic(local.monte_carlo, args=(500, 3), rounds=3, iterations=1)

    def test_variant_maxt(self, benchmark, live_dataset_small):
        from repro.stats.resampling.multipletesting import westfall_young_maxt

        local = LocalSparkScore(live_dataset_small)
        U = local.contributions()
        result = benchmark.pedantic(
            westfall_young_maxt, args=(U, 500), kwargs={"seed": 3}, rounds=2, iterations=1
        )
        assert result.adjusted_pvalues.shape[0] == live_dataset_small.n_snps


class TestPermutationFastPath:
    """The score-weight kernel against Algorithm 2 as written (Gaussian
    phenotype; both consume the same permutation stream)."""

    @pytest.fixture(scope="class")
    def gaussian_sampler(self, live_dataset_small):
        import numpy as np

        from repro.stats.resampling.permutation import PermutationResampler
        from repro.stats.score.base import QuantitativePhenotype
        from repro.stats.score.gaussian import GaussianScoreModel

        rng = np.random.default_rng(2)
        model = GaussianScoreModel(
            QuantitativePhenotype(rng.normal(size=live_dataset_small.n_patients))
        )
        return PermutationResampler(
            model,
            live_dataset_small.genotypes.matrix.astype(float),
            live_dataset_small.weights,
            live_dataset_small.snpsets.set_ids,
            live_dataset_small.n_sets,
        )

    def test_kernel(self, benchmark, gaussian_sampler):
        benchmark.pedantic(gaussian_sampler.run, args=(200, 1), rounds=3, iterations=1)

    def test_as_written(
        self, benchmark, gaussian_sampler, live_dataset_small, permutation_as_written
    ):
        import numpy as np

        counts = benchmark.pedantic(
            permutation_as_written, args=(live_dataset_small, 200, 1),
            kwargs={"model": gaussian_sampler.model}, rounds=2, iterations=1,
        )
        assert np.array_equal(counts, gaussian_sampler.run(200, 1).exceed_counts)
