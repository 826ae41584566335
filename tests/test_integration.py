"""End-to-end integration: the whole stack in one flow.

generate -> write the input files -> distributed analysis with engine-side
parsing -> resampling under injected faults -> results identical to the
pure-NumPy reference.
"""

import numpy as np
import pytest

from repro import EngineConfig, SparkScoreAnalysis, SyntheticConfig, generate_dataset
from repro.core.local import LocalSparkScore
from repro.engine.context import Context
from repro.engine.faults import FaultInjector, FaultPlan
from repro.genomics.io.dataset_io import write_dataset
from repro.stats.wald import cox_mle


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(
        SyntheticConfig(
            n_patients=80, n_snps=400, n_snpsets=16, seed=31,
            n_causal_snps=4, effect_size=1.2,
        )
    )


@pytest.fixture(scope="module")
def reference(dataset):
    local = LocalSparkScore(dataset)
    return local.monte_carlo(120, seed=9)


class TestFullPipeline:
    def test_files_distributed_faulty_pipeline(self, dataset, reference, tmp_path):
        write_dataset(dataset, str(tmp_path / "study"))

        plan = FaultPlan(
            kill_executor_after_tasks={"exec-0": 2},
            fail_partition_attempts={1: 1},
        )
        config = EngineConfig(
            backend="serial", num_executors=3, executor_cores=2, default_parallelism=6
        )
        with Context(config, fault_injector=FaultInjector(plan)) as ctx:
            analysis = SparkScoreAnalysis.from_files(
                str(tmp_path / "study"), parse_with_engine=True,
                engine="distributed", ctx=ctx, flavor="vectorized", block_size=64,
            )
            # six batches: the second wave job reads the blocks cached
            result = analysis.monte_carlo(120, seed=9, batch_size=20)
            # identical inference despite an executor kill + a transient
            # task failure
            assert np.array_equal(result.exceed_counts, reference.exceed_counts)
            assert ctx.fault_injector.killed_executors == {"exec-0"}
            assert result.info["cache_hits"] > 0

    def test_signal_detected_by_all_three_methods(self, dataset):
        analysis = SparkScoreAnalysis.from_dataset(dataset)
        causal_sets = set(dataset.snpsets.set_ids[dataset.causal_rows].tolist())
        mc = analysis.monte_carlo(400, seed=3)
        perm = analysis.permutation(200, seed=3)
        asym = analysis.asymptotic()
        for result in (mc, perm, asym):
            top = {r.set_index for r in result.top(len(causal_sets) + 1)}
            assert top & causal_sets, f"{result.method} missed the causal sets"

    def test_wald_agrees_with_marginal_scores(self, dataset):
        mle = cox_mle(dataset.phenotype, dataset.genotypes.matrix)
        scores = SparkScoreAnalysis.from_dataset(dataset).marginal_scores()
        # the most extreme score should be among the smallest Wald p-values
        top_score = int(np.argmax(np.abs(scores)))
        assert mle.wald_pvalues()[top_score] < np.median(mle.wald_pvalues())


class TestCrossEngineMatrix:
    """Every (engine, flavor, backend) combination produces identical counts."""

    @pytest.mark.parametrize("backend", ["serial", "cluster"])
    @pytest.mark.parametrize("flavor", ["paper", "vectorized"])
    def test_matrix(self, dataset, reference, backend, flavor):
        config = EngineConfig(
            backend=backend, num_executors=2, executor_cores=2, default_parallelism=4
        )
        with SparkScoreAnalysis.from_dataset(
            dataset, engine="distributed", config=config, flavor=flavor, block_size=50
        ) as analysis:
            result = analysis.monte_carlo(120, seed=9, batch_size=40)
            assert np.array_equal(result.exceed_counts, reference.exceed_counts)
