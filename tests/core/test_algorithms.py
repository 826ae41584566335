"""Distributed Algorithms 1-3 vs the local reference (the central oracle)."""

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.core.algorithms import DistributedSparkScore
from repro.core.local import LocalSparkScore
from repro.engine.backends import SerialBackend
from repro.engine.context import Context
from repro.engine.faults import FaultInjector, FaultPlan
from repro.genomics.io.dataset_io import write_dataset
from repro.genomics.io.formats import FormatError
from repro.genomics.synthetic import SyntheticConfig, generate_dataset


@pytest.fixture(scope="module")
def reference(small_dataset):
    local = LocalSparkScore(small_dataset)
    return {
        "observed": local.observed_statistics(),
        "mc": local.monte_carlo(100, seed=5),
        "perm": local.permutation(25, seed=5),
    }


def make_ctx(**overrides):
    defaults = dict(backend="serial", num_executors=2, executor_cores=2, default_parallelism=4)
    defaults.update(overrides)
    return Context(EngineConfig(**defaults))


@pytest.mark.parametrize("flavor", ["paper", "vectorized"])
class TestFlavorsMatchLocal:
    def test_observed(self, small_dataset, reference, flavor):
        with make_ctx() as ctx:
            scorer = DistributedSparkScore(ctx, small_dataset, flavor=flavor, block_size=64)
            assert np.allclose(scorer.observed_statistics(), reference["observed"])

    def test_monte_carlo_counts_identical(self, small_dataset, reference, flavor):
        with make_ctx() as ctx:
            scorer = DistributedSparkScore(ctx, small_dataset, flavor=flavor, block_size=64)
            result = scorer.monte_carlo(100, seed=5)
            assert np.array_equal(result.exceed_counts, reference["mc"].exceed_counts)

    def test_permutation_counts_identical(self, small_dataset, reference, flavor):
        with make_ctx() as ctx:
            scorer = DistributedSparkScore(ctx, small_dataset, flavor=flavor, block_size=64)
            result = scorer.permutation(25, seed=5)
            assert np.array_equal(result.exceed_counts, reference["perm"].exceed_counts)

    def test_uncached_same_results(self, small_dataset, reference, flavor):
        with make_ctx() as ctx:
            scorer = DistributedSparkScore(ctx, small_dataset, flavor=flavor)
            result = scorer.monte_carlo(100, seed=5, cache_contributions=False)
            assert np.array_equal(result.exceed_counts, reference["mc"].exceed_counts)

    def test_threads_backend(self, small_dataset, flavor):
        # "threads" is only a spelling of serial, kept for benchmarks/e2e
        counts = {}
        for backend in ("serial", "threads"):
            with make_ctx(backend=backend) as ctx:
                assert isinstance(ctx.backend, SerialBackend)
                scorer = DistributedSparkScore(ctx, small_dataset, flavor=flavor)
                counts[backend] = scorer.monte_carlo(
                    100, seed=5, cache_contributions=False
                ).exceed_counts
        assert np.array_equal(counts["threads"], counts["serial"])


class TestJoinStrategies:
    def test_broadcast_join_rejected(self, small_dataset):
        # the paper flavor has one join, Algorithm 1 step 9's RDD join
        with make_ctx() as ctx:
            with pytest.raises(ValueError, match="rdd_join"):
                DistributedSparkScore(
                    ctx, small_dataset, flavor="paper", join_strategy="broadcast"
                )

    def test_invalid_strategy_rejected(self, small_dataset):
        with make_ctx() as ctx:
            with pytest.raises(ValueError):
                DistributedSparkScore(ctx, small_dataset, join_strategy="magic")

    def test_invalid_flavor_rejected(self, small_dataset):
        with make_ctx() as ctx:
            with pytest.raises(ValueError):
                DistributedSparkScore(ctx, small_dataset, flavor="hybrid")


class TestPartitionCount:
    @pytest.mark.parametrize("num_partitions", [0, -2])
    @pytest.mark.parametrize("route", ["dense", "files"])
    @pytest.mark.parametrize("flavor", ["paper", "vectorized"])
    def test_below_one_is_refused_on_every_route(
        self, small_dataset, tmp_path, flavor, route, num_partitions
    ):
        paths = write_dataset(small_dataset, str(tmp_path)) if route == "files" else None
        with make_ctx() as ctx:
            with pytest.raises(ValueError, match=r"^num_partitions must be >= 1$"):
                DistributedSparkScore(
                    ctx, small_dataset, flavor=flavor,
                    num_partitions=num_partitions, input_paths=paths,
                )
            scorer = DistributedSparkScore(ctx, small_dataset, flavor=flavor, input_paths=paths)
            assert scorer.num_partitions == ctx.config.default_parallelism


class TestCachingBehavior:
    """Table IV/V's two arms, which the paper flavor keeps: ``U`` cached
    once, or recomputed by every batch (the vectorized flavor builds none)."""

    def test_cache_hits_recorded_across_iterations(self, small_dataset):
        with make_ctx() as ctx:
            scorer = DistributedSparkScore(ctx, small_dataset, flavor="paper")
            # six batches after the observed pass: each finds U cached
            result = scorer.monte_carlo(60, seed=1, batch_size=10, cache_contributions=True)
            assert result.info["cache_hits"] > 0

    def test_no_cache_means_no_hits(self, small_dataset):
        with make_ctx() as ctx:
            scorer = DistributedSparkScore(ctx, small_dataset, flavor="paper")
            result = scorer.monte_carlo(60, seed=1, batch_size=20, cache_contributions=False)
            assert result.info["cache_hits"] == 0

    def test_cached_runs_fewer_recomputes(self, small_dataset):
        """Caching saves work: compare compute effort via cache misses
        (eight batches)."""
        with make_ctx() as ctx_a:
            cached = DistributedSparkScore(ctx_a, small_dataset, flavor="paper").monte_carlo(
                40, seed=1, batch_size=5
            )
        with make_ctx() as ctx_b:
            uncached = DistributedSparkScore(ctx_b, small_dataset, flavor="paper").monte_carlo(
                40, seed=1, batch_size=5, cache_contributions=False
            )
        assert cached.info["cache_misses"] < uncached.info["cache_misses"] or (
            cached.info["cache_hits"] > 0 and uncached.info["cache_hits"] == 0
        )


class TestPerCallInfo:
    def test_a_second_call_counts_only_its_own_jobs(self, small_dataset):
        with make_ctx() as ctx:
            scorer = DistributedSparkScore(ctx, small_dataset)
            first = scorer.monte_carlo(128, seed=1, batch_size=64)
            second = scorer.monte_carlo(128, seed=1, batch_size=64)
            jobs = len(ctx.metrics.jobs)
        assert first.info["jobs_run"] == second.info["jobs_run"]
        assert first.info["driver_bytes_collected"] == second.info["driver_bytes_collected"]
        assert first.info["jobs_run"] + second.info["jobs_run"] == jobs
        assert second.info["jobs_run"] == 1  # one wave job, which scores observed too
        assert first.info["cache_misses"] == 4 and second.info["cache_misses"] == 0
        assert second.info["cache_hits"] == 4  # the wave job finds the blocks cached


class TestPermutationKernelStructure:
    """What each flavor's ``permutation(32, batch_size=16)`` may call and ship."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of ``permuted`` / ``contributions`` calls and every
        ``ctx.broadcast`` value, on the serial backend (one address space)."""
        from repro.stats.score.cox import CoxScoreModel

        counts = {"permuted": 0, "contributions": 0, "broadcasts": []}

        def counting(name):
            method = getattr(CoxScoreModel, name)

            def wrapper(self, *args):
                counts[name] += 1
                return method(self, *args)

            monkeypatch.setattr(CoxScoreModel, name, wrapper)

        counting("permuted")
        counting("contributions")
        broadcast = Context.broadcast

        def spy(ctx, value):
            counts["broadcasts"].append(value)
            return broadcast(ctx, value)

        monkeypatch.setattr(Context, "broadcast", spy)
        return counts

    def test_vectorized_flavor_refits_and_recomputes_nothing(self, small_dataset, calls):
        with make_ctx() as ctx:
            scorer = DistributedSparkScore(ctx, small_dataset, flavor="vectorized", block_size=64)
            scorer.observed_statistics(cache_contributions=False)
            calls["broadcasts"].clear()
            result = scorer.permutation(32, seed=5, batch_size=16)
            # observed is scored by G . c on every route, replicates by a GEMM
            assert calls["contributions"] == 0
            # to the bit what observed() scores
            assert np.array_equal(result.observed, scorer.observed().observed)
        assert calls["permuted"] == 0
        # one broadcast per wave: its place in the permutation stream, not
        # the permuted weights, and, in a first wave, no observed
        # statistics; then observed()'s empty wave
        (observed, wave), zero_wave = calls["broadcasts"]
        assert observed is None and zero_wave == (None, None)
        assert not any(isinstance(v, np.ndarray) for v in vars(wave).values())
        assert (wave.stream.method, wave.stream.seed, wave.first, wave.widths) == (
            "permutation", 5, 0, (16, 16)
        )

    def test_paper_flavor_is_algorithm_2_as_written(self, small_dataset, calls):
        with make_ctx() as ctx:
            scorer = DistributedSparkScore(ctx, small_dataset, flavor="paper")
            paper = scorer.permutation(32, seed=5, batch_size=16)
        assert calls["permuted"] == 32  # one refit model per replicate
        batches = calls["broadcasts"][-2:]
        assert [len(models) for models in batches] == [16, 16]
        assert all(type(m) is type(scorer.model) for models in batches for m in models)
        with make_ctx() as ctx:
            scorer = DistributedSparkScore(ctx, small_dataset, flavor="vectorized", block_size=64)
            vectorized = scorer.permutation(32, seed=5, batch_size=16)
        local = LocalSparkScore(small_dataset).permutation(32, seed=5, batch_size=16)
        assert calls["permuted"] == 32  # neither kernel path refit anything
        assert np.array_equal(paper.exceed_counts, vectorized.exceed_counts)
        assert np.array_equal(paper.exceed_counts, local.exceed_counts)

    def test_paper_flavor_calls_contributions_once_per_chunk(self, small_dataset, calls):
        """Records stay per SNP, but a kernel stacks up to 64 of a
        partition's records into one call: ``sum_p ceil(rows_p / 64)`` calls
        per pass, not one per SNP."""
        J, P = small_dataset.n_snps, 4
        bounds = [(i * J) // P for i in range(P + 1)]
        chunks = sum(-(-(hi - lo) // 64) for lo, hi in zip(bounds, bounds[1:]))
        assert chunks < J
        with make_ctx(default_parallelism=P) as ctx:
            scorer = DistributedSparkScore(ctx, small_dataset, flavor="paper")
            scorer.observed_statistics(cache_contributions=False)
            assert calls["contributions"] == chunks
            scorer.permutation(32, seed=5, batch_size=16)
        assert calls["permuted"] == 32
        # two observed passes, then every chunk under each refit model
        assert calls["contributions"] == 2 * chunks + 32 * chunks


@pytest.mark.parametrize("parallelism", [1, 3, 7])
class TestPaperChunksAcrossPartitionSizes:
    """Partitions of 300, 100 and ~43 rows: full chunks, a short last
    chunk, and partitions shorter than one chunk."""

    @pytest.fixture(scope="class")
    def local(self, small_dataset):
        local = LocalSparkScore(small_dataset)
        return local.monte_carlo(64, seed=3, batch_size=32), local.permutation(32, seed=3)

    def test_counts_match_vectorized_and_local(self, small_dataset, local, parallelism):
        local_mc, local_perm = local
        results = {}
        for flavor in ("paper", "vectorized"):
            with make_ctx(default_parallelism=parallelism) as ctx:
                scorer = DistributedSparkScore(ctx, small_dataset, flavor=flavor)
                results[flavor] = [
                    scorer.monte_carlo(64, seed=3, batch_size=32),
                    scorer.monte_carlo(64, seed=3, batch_size=32, cache_contributions=False),
                    scorer.permutation(32, seed=3),
                ]
        expected = [local_mc, local_mc, local_perm]
        for paper, vectorized, reference in zip(results["paper"], results["vectorized"], expected):
            assert np.array_equal(paper.exceed_counts, vectorized.exceed_counts)
            assert np.array_equal(paper.exceed_counts, reference.exceed_counts)


class TestTextInputPaths:
    def test_local_files_parse_stage(self, small_dataset, reference, tmp_path):
        paths = write_dataset(small_dataset, str(tmp_path / "ds"))
        with make_ctx() as ctx:
            scorer = DistributedSparkScore(
                ctx,
                small_dataset,
                flavor="paper",
                input_paths={"genotypes": paths["genotypes"], "weights": paths["weights"]},
            )
            assert np.allclose(scorer.observed_statistics(), reference["observed"])

    @pytest.mark.parametrize("backend", ["serial", "cluster"])
    def test_bad_weight_line_is_located_in_its_file(self, backend, tmp_path):
        """A task meets the bad line past the first split of weights.txt:
        the error names the file and the file's line, not the split's."""
        dataset = generate_dataset(
            SyntheticConfig(n_patients=12, n_snps=2400, n_snpsets=4, seed=2)
        )
        paths = write_dataset(dataset, str(tmp_path / "ds"))
        with open(paths["weights"]) as fh:
            lines = fh.read().splitlines()
        lines[2000] = "2000\tabc"
        with open(paths["weights"], "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with make_ctx(backend=backend, executor_cores=1) as ctx:
            assert ctx.text_file(paths["weights"], 4).read_split(0).data.count(b"\n") < 2000
            scorer = DistributedSparkScore(ctx, dataset, flavor="paper", input_paths=paths)
            with pytest.raises(
                FormatError,
                match=r"^weights\.txt:2001: bad weight line '2000\\tabc': could not convert",
            ):
                scorer.observed_statistics()



class TestFaultToleranceEndToEnd:
    def test_executor_kill_does_not_change_counts(self, small_dataset, reference):
        # exec-1 runs its two tasks of the first wave, which build the
        # blocks, and dies launching its first task of the second, which
        # reads them cached
        plan = FaultPlan(kill_executor_after_tasks={"exec-1": 2})
        config = EngineConfig(backend="serial", num_executors=3, executor_cores=1, default_parallelism=6)
        with Context(config, fault_injector=FaultInjector(plan)) as ctx:
            scorer = DistributedSparkScore(ctx, small_dataset, flavor="vectorized")
            result = scorer.monte_carlo(100, seed=5, batch_size=20)
            assert np.array_equal(result.exceed_counts, reference["mc"].exceed_counts)
            assert ctx.fault_injector.killed_executors == {"exec-1"}
            wave_job = ctx.metrics.last_job
            assert len(wave_job.stages) == 1
            assert wave_job.num_executor_failures_observed == 1

    def test_transient_task_failures_do_not_change_counts(self, small_dataset, reference):
        plan = FaultPlan(fail_partition_attempts={0: 1, 2: 1})
        config = EngineConfig(backend="serial", num_executors=2, executor_cores=2, default_parallelism=4)
        with Context(config, fault_injector=FaultInjector(plan)) as ctx:
            scorer = DistributedSparkScore(ctx, small_dataset, flavor="paper")
            result = scorer.permutation(25, seed=5)
            assert np.array_equal(result.exceed_counts, reference["perm"].exceed_counts)


class TestValidation:
    def test_model_patient_mismatch(self, small_dataset, tiny_dataset):
        from repro.stats.score.cox import CoxScoreModel

        with make_ctx() as ctx:
            with pytest.raises(ValueError):
                DistributedSparkScore(
                    ctx, small_dataset, model=CoxScoreModel(tiny_dataset.phenotype)
                )
