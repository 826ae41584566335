"""The permutation kernel: replicates are permuted score weights times G.

``PermutationResampler`` has one batched path for every model.  The "slow
path" it is held to is Algorithm 2 as the paper wrote it -- refit the model
on the shuffled phenotype, recompute the per-patient contributions, sum --
consuming the same permutation stream.
"""

import numpy as np
import pytest

from repro.genomics.synthetic import SyntheticConfig, generate_dataset
from repro.stats.resampling.permutation import PermutationResampler
from repro.stats.resampling.streams import permutation_stream
from repro.stats.score.base import (
    BinaryPhenotype,
    QuantitativePhenotype,
    SurvivalPhenotype,
)
from repro.stats.score.binomial import BinomialScoreModel
from repro.stats.score.cox import CoxScoreModel
from repro.stats.score.gaussian import GaussianScoreModel
from repro.stats.skat import skat_statistics


def definitional_counts(model, G, w, ids, K, n_resamples, seed):
    """Exceedance counts by ``model.permuted(perm).contributions(G).sum(axis=1)``."""
    observed = skat_statistics(model.contributions(G).sum(axis=1), w, ids, K)
    counts = np.zeros(K, dtype=np.int64)
    for perm in permutation_stream(G.shape[1], n_resamples, seed):
        scores = model.permuted(perm).contributions(G).sum(axis=1)
        counts += skat_statistics(scores, w, ids, K) >= observed
    return counts


#: every function that drives a resampling loop, hence folds a monitor
FOLDING_CALLERS = (
    "MonteCarloResampler.run",
    "PermutationResampler.run",
    "LocalSparkScore.monte_carlo(uncached)",
    "DistributedSparkScore.monte_carlo",
    "DistributedSparkScore.permutation",
    "westfall_young_maxt",
)


def _run_caller(caller, dataset, monitor, monkeypatch):
    """B=40 replicates in batches of 16 through ``caller``, folding ``monitor``."""
    from repro.config import EngineConfig
    from repro.core.algorithms import DistributedSparkScore
    from repro.core.local import LocalSparkScore
    from repro.engine.context import Context
    from repro.stats.resampling.montecarlo import MonteCarloResampler
    from repro.stats.resampling.multipletesting import westfall_young_maxt

    local = LocalSparkScore(dataset)
    sets = (dataset.weights, dataset.snpsets.set_ids, dataset.n_sets)
    run = dict(seed=2, batch_size=16, monitor=monitor)
    if caller.startswith("DistributedSparkScore."):
        config = EngineConfig(
            backend="serial", num_executors=1, executor_cores=1, default_parallelism=2
        )
        with Context(config) as ctx:
            monkeypatch.setattr(ctx.inference, "new_monitor", lambda *args: monitor)
            method = getattr(DistributedSparkScore(ctx, dataset), caller.split(".")[1])
            method(40, seed=2, batch_size=16)
    elif caller == "MonteCarloResampler.run":
        MonteCarloResampler(local.contributions(), *sets).run(40, **run)
    elif caller == "PermutationResampler.run":
        G = dataset.genotypes.matrix.astype(float)
        PermutationResampler(local.model, G, *sets).run(40, **run)
    elif caller == "LocalSparkScore.monte_carlo(uncached)":
        local.monte_carlo(40, cache_contributions=False, **run)
    else:
        westfall_young_maxt(local.contributions(), 40, **run)


def dosages(rng, J, n):
    return rng.binomial(2, 0.3, size=(J, n)).astype(float)


@pytest.fixture(scope="module")
def gaussian_setup():
    rng = np.random.default_rng(14)
    n, J, K = 120, 80, 8
    model = GaussianScoreModel(QuantitativePhenotype(rng.normal(size=n)))
    return model, dosages(rng, J, n), np.ones(J), rng.integers(0, K, J), K


class TestFastPathCorrectness:
    def test_gaussian_counts_match_slow_path(self, gaussian_setup):
        model, G, w, ids, K = gaussian_setup
        fast = PermutationResampler(model, G, w, ids, K).run(150, seed=3)
        assert np.array_equal(
            fast.exceed_counts, definitional_counts(model, G, w, ids, K, 150, 3)
        )

    def test_binomial_counts_match_slow_path(self):
        rng = np.random.default_rng(15)
        n, J, K = 100, 40, 4
        model = BinomialScoreModel(BinaryPhenotype(rng.binomial(1, 0.4, n).astype(float)))
        G, w, ids = dosages(rng, J, n), np.ones(J), rng.integers(0, K, J)
        fast = PermutationResampler(model, G, w, ids, K).run(100, seed=4)
        assert np.array_equal(
            fast.exceed_counts, definitional_counts(model, G, w, ids, K, 100, 4)
        )

    def test_batch_size_invariant(self, gaussian_setup):
        model, G, w, ids, K = gaussian_setup
        sampler = PermutationResampler(model, G, w, ids, K)
        runs = [sampler.run(90, seed=5, batch_size=b) for b in (1, 7, 90)]
        assert all(run.n_resamples == 90 for run in runs)
        assert np.array_equal(runs[0].exceed_counts, runs[1].exceed_counts)
        assert np.array_equal(runs[0].exceed_counts, runs[2].exceed_counts)

    def test_identity_replicate_is_observed_exactly(self, gaussian_setup, rng):
        model, G, w, ids, K = gaussian_setup
        sampler = PermutationResampler(model, G, w, ids, K)
        assert np.array_equal(sampler.replicate(np.arange(G.shape[1])), sampler.observed)
        n = 50
        cox = CoxScoreModel(
            SurvivalPhenotype(rng.integers(1, 12, n).astype(float), rng.binomial(1, 0.8, n))
        )
        sampler = PermutationResampler(
            cox, dosages(rng, 10, n), np.ones(10), np.zeros(10, dtype=int), 1
        )
        assert np.array_equal(sampler.replicate(np.arange(n)), sampler.observed)

    def test_replicate_matches_refit_model(self, gaussian_setup, rng):
        model, G, w, ids, K = gaussian_setup
        sampler = PermutationResampler(model, G, w, ids, K)
        perm = rng.permutation(G.shape[1])
        refit = model.permuted(perm).contributions(G).sum(axis=1)
        np.testing.assert_allclose(
            sampler.replicate(perm), skat_statistics(refit, w, ids, K), rtol=1e-9
        )


class TestKernelCoversEveryModel:
    """Models the old GEMM corner excluded: Cox, and GLMs with covariates."""

    def test_cox_counts_match_definitional_loop(self, rng):
        n, J, K = 90, 60, 5
        # whole-month follow-up: heavy ties, within and across event status
        phenotype = SurvivalPhenotype(
            rng.integers(1, 25, n).astype(float), rng.binomial(1, 0.85, n)
        )
        model = CoxScoreModel(phenotype)
        G, w, ids = dosages(rng, J, n), rng.uniform(0.5, 2.0, J), rng.integers(0, K, J)
        fast = PermutationResampler(model, G, w, ids, K).run(120, seed=8, batch_size=16)
        assert fast.n_resamples == 120
        assert np.array_equal(
            fast.exceed_counts, definitional_counts(model, G, w, ids, K, 120, 8)
        )

    @pytest.mark.parametrize("adjust", [True, False])
    def test_covariate_adjusted_gaussian_counts(self, rng, adjust):
        n, J, K = 80, 40, 4
        covariates = rng.normal(size=(n, 2))
        y = covariates @ [0.8, -0.5] + rng.normal(size=n)
        model = GaussianScoreModel(QuantitativePhenotype(y, covariates), adjust)
        G, w, ids = dosages(rng, J, n), np.ones(J), rng.integers(0, K, J)
        fast = PermutationResampler(model, G, w, ids, K).run(100, seed=9)
        assert np.array_equal(
            fast.exceed_counts, definitional_counts(model, G, w, ids, K, 100, 9)
        )

    @pytest.mark.parametrize("adjust", [True, False])
    def test_covariate_adjusted_binomial_counts(self, rng, adjust):
        n, J, K = 100, 30, 3
        covariates = rng.normal(size=(n, 1))
        y = rng.binomial(1, 1.0 / (1.0 + np.exp(-0.7 * covariates[:, 0]))).astype(float)
        model = BinomialScoreModel(BinaryPhenotype(y, covariates), adjust)
        G, w, ids = dosages(rng, J, n), np.ones(J), rng.integers(0, K, J)
        fast = PermutationResampler(model, G, w, ids, K).run(80, seed=10)
        assert np.array_equal(
            fast.exceed_counts, definitional_counts(model, G, w, ids, K, 80, 10)
        )

    @pytest.mark.parametrize("caller", FOLDING_CALLERS)
    def test_monitor_is_folded_once_per_batch(self, caller, monkeypatch):
        """Every caller of the resampling driver: one fold per batch, one finish."""
        from repro.obs.inference import ConvergenceMonitor

        dataset = generate_dataset(
            SyntheticConfig(n_patients=40, n_snps=12, n_snpsets=2, seed=2)
        )
        widths, finishes = [], []

        class Recording(ConvergenceMonitor):
            def fold(self, batch_counts, width):
                widths.append(width)
                return super().fold(batch_counts, width)

            def finish(self):
                finishes.append(self.replicates_total)
                super().finish()

        n_sets = dataset.n_snps if caller == "westfall_young_maxt" else dataset.n_sets
        monitor = Recording(n_sets=n_sets, planned_replicates=40)
        _run_caller(caller, dataset, monitor, monkeypatch)
        assert widths == [16, 16, 8]
        assert finishes == [40]
