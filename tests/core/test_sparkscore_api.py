"""The SparkScoreAnalysis facade."""

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.core.sparkscore import SparkScoreAnalysis
from repro.genomics.io.dataset_io import write_dataset
from repro.genomics.synthetic import SyntheticConfig, generate_dataset
from repro.obs.inference import ConvergenceMonitor, EarlyStopPolicy


class TestConstruction:
    def test_local_default(self, small_dataset):
        analysis = SparkScoreAnalysis(small_dataset)
        assert analysis.engine == "local"
        assert analysis.ctx is None

    def test_distributed_owns_context(self, small_dataset):
        with SparkScoreAnalysis(
            small_dataset,
            engine="distributed",
            config=EngineConfig(backend="serial", num_executors=2),
        ) as analysis:
            assert analysis.ctx is not None
        assert analysis.ctx._stopped  # closed on exit

    def test_external_context_not_closed(self, small_dataset, ctx):
        analysis = SparkScoreAnalysis(small_dataset, engine="distributed", ctx=ctx)
        analysis.close()
        assert not ctx._stopped

    def test_unknown_engine(self, small_dataset):
        with pytest.raises(ValueError):
            SparkScoreAnalysis(small_dataset, engine="mpi")

    def test_local_rejects_engine_options(self, small_dataset):
        with pytest.raises(TypeError):
            SparkScoreAnalysis(small_dataset, flavor="paper")

    def test_repr(self, small_dataset):
        assert "snps=300" in repr(SparkScoreAnalysis(small_dataset))


class TestAnalyses:
    def test_local_and_distributed_agree(self, small_dataset):
        local = SparkScoreAnalysis(small_dataset)
        with SparkScoreAnalysis(
            small_dataset,
            engine="distributed",
            config=EngineConfig(backend="serial", num_executors=2, default_parallelism=4),
        ) as dist:
            assert np.allclose(local.observed().observed, dist.observed().observed)
            a = local.monte_carlo(60, seed=2)
            b = dist.monte_carlo(60, seed=2)
            assert np.array_equal(a.exceed_counts, b.exceed_counts)

    def test_asymptotic_available_on_distributed(self, small_dataset):
        with SparkScoreAnalysis(
            small_dataset, engine="distributed",
            config=EngineConfig(backend="serial", num_executors=2),
        ) as analysis:
            result = analysis.asymptotic()
            assert result.method == "asymptotic"
            assert np.all((result.pvalues() >= 0) & (result.pvalues() <= 1))

    def test_marginal_scores(self, small_dataset):
        scores = SparkScoreAnalysis(small_dataset).marginal_scores()
        assert scores.shape == (small_dataset.n_snps,)

    def test_alternative_phenotype_models(self, small_dataset, rng):
        from repro.stats.score.base import QuantitativePhenotype
        from repro.stats.score.gaussian import GaussianScoreModel

        pheno = QuantitativePhenotype(rng.normal(size=small_dataset.n_patients))
        analysis = SparkScoreAnalysis(small_dataset, model=GaussianScoreModel(pheno))
        result = analysis.monte_carlo(50, seed=1)
        assert result.n_resamples == 50


class TestPermutationBatchSize:
    """``batch_size`` reaches the local engine too: it is how often the
    convergence monitor is folded, so it decides where early stopping ends."""

    @pytest.mark.parametrize("batch_size", [4, 16])
    def test_early_stop_identical_on_local_and_distributed(self, batch_size):
        dataset = generate_dataset(
            SyntheticConfig(n_patients=120, n_snps=300, n_snpsets=6, seed=7)
        )
        config = EngineConfig(
            backend="serial", num_executors=2, default_parallelism=4,
            inference_early_stop=True,
        )
        with SparkScoreAnalysis(dataset, engine="distributed", config=config) as dist:
            engine = dist.permutation(400, seed=4, batch_size=batch_size)
        monitor = ConvergenceMonitor(
            n_sets=dataset.n_sets, method="permutation", planned_replicates=400,
            alpha=config.inference_alpha,
            policy=EarlyStopPolicy.from_config(config),
        )
        local = SparkScoreAnalysis(dataset).permutation(
            400, seed=4, batch_size=batch_size, monitor=monitor
        )
        assert engine.n_resamples < 400  # the policy did stop the run
        assert local.n_resamples == engine.n_resamples
        assert np.array_equal(local.exceed_counts, engine.exceed_counts)
        assert local.info["replicates_saved"] == engine.info["replicates_saved"]


class TestFromFiles:
    def test_local_files(self, small_dataset, tmp_path):
        write_dataset(small_dataset, str(tmp_path / "d"))
        analysis = SparkScoreAnalysis.from_files(str(tmp_path / "d"))
        assert np.allclose(
            analysis.observed().observed,
            SparkScoreAnalysis(small_dataset).observed().observed,
        )

    def test_parse_with_engine_requires_distributed(self, small_dataset, tmp_path):
        write_dataset(small_dataset, str(tmp_path / "d"))
        with pytest.raises(ValueError):
            SparkScoreAnalysis.from_files(str(tmp_path / "d"), parse_with_engine=True)


class TestExtendedAnalyses:
    def test_variant_maxt(self, small_dataset):
        analysis = SparkScoreAnalysis(small_dataset)
        result = analysis.variant_maxt(iterations=200, seed=2)
        assert result.adjusted_pvalues.shape == (small_dataset.n_snps,)
        assert np.all(result.adjusted_pvalues >= result.raw_pvalues - 1e-12)

    def test_variant_maxt_single_step(self, small_dataset):
        analysis = SparkScoreAnalysis(small_dataset)
        down = analysis.variant_maxt(iterations=150, seed=3, step_down=True)
        single = analysis.variant_maxt(iterations=150, seed=3, step_down=False)
        assert np.all(single.adjusted_pvalues >= down.adjusted_pvalues - 1e-12)
