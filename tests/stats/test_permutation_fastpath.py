"""The permutation kernel: replicates are permuted score weights times G.

``PermutationResampler`` has one batched path for every model.  The "slow
path" it is held to is Algorithm 2 as the paper wrote it -- refit the model
on the shuffled phenotype, recompute the per-patient contributions, sum --
consuming the same permutation stream.
"""

import numpy as np
import pytest

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

    def test_monitor_is_folded_once_per_batch(self, rng):
        from repro.obs.inference import ConvergenceMonitor

        n, J = 40, 12
        model = CoxScoreModel(
            SurvivalPhenotype(rng.exponential(12, n), rng.binomial(1, 0.85, n))
        )
        widths = []

        class Recording(ConvergenceMonitor):
            def fold(self, batch_counts, width):
                widths.append(width)
                return super().fold(batch_counts, width)

        monitor = Recording(n_sets=2, method="permutation", planned_replicates=40)
        PermutationResampler(
            model, dosages(rng, J, n), np.ones(J), rng.integers(0, 2, J), 2
        ).run(40, seed=2, batch_size=16, monitor=monitor)
        assert widths == [16, 16, 8]
