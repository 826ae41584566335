"""Cross-backend equivalence: serial and cluster must agree.

The engine's whole claim is that the backend is an execution detail --
identical statistics bit for bit, wherever the tasks run.  These
tests pin that down for both algorithm flavors, plus the O(K) driver-byte
bound on resampling batches (executor-side exceedance counting).
"""

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.core.algorithms import WAVE_BATCHES, DistributedSparkScore
from repro.core.local import LocalSparkScore
from repro.core.sparkscore import SparkScoreAnalysis
from repro.engine.context import Context
from repro.engine.faults import FaultInjector, FaultPlan
from repro.engine.scheduler import TaskScheduler
from repro.genomics.io.dataset_io import write_dataset
from repro.genomics.synthetic import SyntheticConfig, generate_dataset
from repro.stats.score.cox import CoxScoreModel


def _run(dataset, backend, flavor, **kwargs):
    config = EngineConfig(
        backend=backend, num_executors=2, executor_cores=2, default_parallelism=4,
    )
    with Context(config) as ctx:
        scorer = DistributedSparkScore(ctx, dataset, flavor=flavor, block_size=64)
        mc = scorer.monte_carlo(60, seed=9, batch_size=20, **kwargs)
        perm = scorer.permutation(16, seed=9, batch_size=8)
        return mc, perm


@pytest.mark.slow
@pytest.mark.parametrize("flavor", ["paper", "vectorized"])
class TestBackendsBitIdentical:
    @pytest.fixture(scope="class")
    def reference(self, small_dataset):
        out = {}
        for flavor in ("paper", "vectorized"):
            out[flavor] = _run(small_dataset, "serial", flavor)
        return out

    @pytest.mark.parametrize("backend", ["cluster"])
    def test_matches_serial(self, small_dataset, reference, flavor, backend):
        mc_ref, perm_ref = reference[flavor]
        mc, perm = _run(small_dataset, backend, flavor)
        assert np.array_equal(mc.observed, mc_ref.observed)
        assert np.array_equal(mc.exceed_counts, mc_ref.exceed_counts)
        assert np.array_equal(mc.pvalues(), mc_ref.pvalues())
        assert np.array_equal(perm.observed, perm_ref.observed)
        assert np.array_equal(perm.exceed_counts, perm_ref.exceed_counts)
        assert np.array_equal(perm.pvalues(), perm_ref.pvalues())

    def test_flavors_agree(self, reference, flavor):
        mc, perm = reference[flavor]
        mc_v, perm_v = reference["vectorized"]
        assert np.array_equal(mc.exceed_counts, mc_v.exceed_counts)
        assert np.array_equal(perm.exceed_counts, perm_v.exceed_counts)


def _run_routes(dataset, base, backend):
    """(file route, in-memory route) -> (monte carlo, permutation) results."""
    config = EngineConfig(
        backend=backend, num_executors=2, executor_cores=2, default_parallelism=4,
    )
    out = []
    for make in (
        lambda: SparkScoreAnalysis.from_files(
            base, engine="distributed", config=config, block_size=64
        ),
        lambda: SparkScoreAnalysis(
            dataset, engine="distributed", config=config, block_size=64
        ),
    ):
        with make() as analysis:
            out.append((
                analysis.monte_carlo(60, seed=9, batch_size=20),
                analysis.permutation(16, seed=9, batch_size=8),
            ))
    return out


@pytest.mark.slow
class TestFileAndMemoryRoutes:
    """Executors reading the genotype file against the matrix parallelized
    from the driver: one block builder, two ways in."""

    @pytest.fixture(scope="class")
    def base(self, small_dataset, tmp_path_factory):
        base = str(tmp_path_factory.mktemp("routes"))
        write_dataset(small_dataset, base)
        return base

    @pytest.fixture(scope="class")
    def serial(self, small_dataset, base):
        return _run_routes(small_dataset, base, "serial")

    @pytest.mark.parametrize("backend", ["serial", "cluster"])
    def test_routes_agree_and_each_is_bit_identical_across_backends(
        self, small_dataset, base, serial, backend
    ):
        routes = _run_routes(small_dataset, base, backend)
        for results, reference in zip(routes, serial):
            for result, expected in zip(results, reference):
                assert np.array_equal(result.observed, expected.observed)
                assert np.array_equal(result.exceed_counts, expected.exceed_counts)
        # across the routes only the counts are promised to the bit: a byte
        # split of the file and an even split of the rows put partition
        # boundaries -- hence the 64-row block boundaries, hence the order
        # per-set partials are added in -- at different SNPs
        for on_file, in_memory in zip(*routes):
            assert np.array_equal(on_file.exceed_counts, in_memory.exceed_counts)
            assert np.allclose(on_file.observed, in_memory.observed, rtol=1e-9, atol=0.0)


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["serial", "cluster"])
class TestPermutationFlavorsAcrossBackends:
    def test_paper_refits_per_replicate_and_agrees_with_the_kernel(
        self, small_dataset, backend, monkeypatch
    ):
        """The paper flavor is Algorithm 2 as written (one ``permuted()``
        model per replicate, built in the driver) and referees the kernel:
        same counts from the vectorized flavor and the local engine, neither
        of which refits anything."""
        refits = []
        permuted = CoxScoreModel.permuted

        def counting(self, perm):
            refits.append(1)
            return permuted(self, perm)

        monkeypatch.setattr(CoxScoreModel, "permuted", counting)
        _, paper = _run(small_dataset, backend, "paper")
        assert len(refits) == 16
        _, vectorized = _run(small_dataset, backend, "vectorized")
        local = LocalSparkScore(small_dataset).permutation(16, seed=9, batch_size=8)
        assert len(refits) == 16
        assert np.array_equal(paper.exceed_counts, vectorized.exceed_counts)
        assert np.array_equal(paper.exceed_counts, local.exceed_counts)


def _straddling_pairs(dataset, partitions: int, block_size: int) -> int:
    """(set, block) pairs whose set is not whole in the block's partition,
    for the in-memory route's even row split."""
    set_ids, J = dataset.snpsets.set_ids, dataset.n_snps
    sizes = np.bincount(set_ids, minlength=dataset.n_sets)
    bounds = [(i * J) // partitions for i in range(partitions + 1)]
    pairs = 0
    for lo, hi in zip(bounds, bounds[1:]):
        whole = np.bincount(set_ids[lo:hi], minlength=dataset.n_sets) == sizes
        for start in range(lo, hi, block_size):
            pairs += np.count_nonzero(~whole[np.unique(set_ids[start:min(start + block_size, hi)])])
    return pairs


class TestDriverTrafficBound:
    """Executor-side counting: a wave job hands the driver O(K) int64 counts
    per partition plus, per straddling (set, block), that block's ``b``
    replicate partials of the set -- never a partition's ``(b, K)`` matrix."""

    #: partitions, and the estimated framing of one partition's record
    P, FRAMING = 4, 768

    def _collected(self, dataset, method, b):
        config = EngineConfig(
            backend="serial", num_executors=2, executor_cores=2, default_parallelism=self.P
        )
        with Context(config) as ctx:
            scorer = DistributedSparkScore(ctx, dataset, flavor="vectorized", block_size=64)
            getattr(scorer, method)((WAVE_BATCHES + 1) * b, seed=3, batch_size=b)
            # the last job is the second wave, of one batch: the first also
            # returns the observed partials and the scored SNP ids
            return ctx.metrics.last_job.totals().driver_bytes_collected

    def _bound(self, dataset, b):
        pairs = _straddling_pairs(dataset, self.P, 64)
        assert 0 < pairs < dataset.n_sets * self.P  # some sets straddle, most do not
        return self.P * (dataset.n_sets * 8 + self.FRAMING) + pairs * b * 8

    def test_mc_batch_collects_o_k_bytes(self, small_dataset):
        b = 50
        collected = self._collected(small_dataset, "monte_carlo", b)
        assert collected <= self._bound(small_dataset, b)

    def test_permutation_batch_collects_o_k_bytes(self, small_dataset):
        b = 12
        collected = self._collected(small_dataset, "permutation", b)
        assert collected <= self._bound(small_dataset, b)

    def test_a_wave_publishes_no_weight_array(
        self, fresh_cluster, monkeypatch, tmp_path
    ):
        """Driver -> executors: a vectorized wave broadcasts its place in the
        seeded stream -- never a ``(b, n)`` array of replicate weights -- so
        a warm file-route analysis publishes the same bytes at B = 256 and
        at B = 2000, up to the extra waves' task binaries."""
        b, n = 64, 200
        dataset = generate_dataset(
            SyntheticConfig(n_patients=n, n_snps=240, n_snpsets=6, seed=3)
        )
        base = str(tmp_path)
        write_dataset(dataset, base)
        config, manager = fresh_cluster()
        transport = manager.transport
        waves, binaries = [], []
        broadcast = Context.broadcast
        build = TaskScheduler._build_task_binary

        def broadcast_spy(ctx, value):
            waves.append(value)
            return broadcast(ctx, value)

        def build_spy(self, stage, probe, keys):
            tb = build(self, stage, probe, keys)
            binaries.append(tb.size)
            return tb

        def analyse(method, iterations):
            with SparkScoreAnalysis.from_files(base, engine="distributed", config=config) as a:
                waves.clear()
                binaries.clear()
                before = transport.bytes_published
                getattr(a, method)(iterations, seed=3, batch_size=b)
                return transport.bytes_published - before, sum(binaries)

        analyse("monte_carlo", b)  # cold: the splits parsed into resident blocks
        monkeypatch.setattr(Context, "broadcast", broadcast_spy)
        monkeypatch.setattr(TaskScheduler, "_build_task_binary", build_spy)
        for method in ("monte_carlo", "permutation"):
            published = {}
            for iterations in (256, 2000):
                published[iterations] = analyse(method, iterations)
                assert len(waves) == -(-iterations // (WAVE_BATCHES * b))
                for observed, wave in waves:
                    assert observed is None or observed.shape == (dataset.n_sets,)
                    assert not any(isinstance(v, np.ndarray) for v in vars(wave).values())
                assert all(size < 16 * 1024 for size in binaries)
            (short, short_binaries), (long, long_binaries) = published[256], published[2000]
            assert 0 <= short - short_binaries == long - long_binaries
            assert long - short <= long_binaries - short_binaries


class TestBatchedPermutationEquivalence:
    def test_batch_size_does_not_change_counts(self, small_dataset):
        """Batching replicates changes scheduling, never statistics: the one
        wave kernel's indicator GEMM gives every batch shape the same counts,
        Monte Carlo and permutation alike."""
        config = EngineConfig(
            backend="serial", num_executors=2, executor_cores=2, default_parallelism=4
        )
        for method in ("permutation", "monte_carlo"):
            results = []
            for batch_size in (1, 5, 7, 16, 64):
                with Context(config) as ctx:
                    scorer = DistributedSparkScore(
                        ctx, small_dataset, flavor="vectorized", block_size=64
                    )
                    run = getattr(scorer, method)
                    results.append(run(64, seed=2, batch_size=batch_size).exceed_counts)
            assert all(np.array_equal(results[0], counts) for counts in results[1:]), method


class TestWaveRetries:
    """A task draws its wave's replicates itself, from the wave's place in
    the seeded stream: a retry on another executor -- whose cursor is
    elsewhere in the stream, and which holds none of the partition's
    blocks -- forms the same ``W`` and the counts do not move a bit."""

    @pytest.mark.parametrize("method, b", [("monte_carlo", 16), ("permutation", 8)])
    def test_a_wave_2_retry_off_its_holder_is_byte_identical(
        self, fresh_cluster, small_dataset, monkeypatch, method, b
    ):
        config, _ = fresh_cluster()
        iterations = 2 * WAVE_BATCHES * b

        def analyse():
            with Context(config) as ctx:
                scorer = DistributedSparkScore(ctx, small_dataset, block_size=64)
                result = getattr(scorer, method)(iterations, seed=11, batch_size=b)
                return result, ctx.metrics.jobs_snapshot()

        clean, _ = analyse()
        wave = DistributedSparkScore._wave
        waves = []

        def second_wave_fails_partition_2(self, w, observed):
            waves.append(w)
            if len(waves) == 2:
                self.ctx.set_fault_injector(
                    FaultInjector(FaultPlan(fail_partition_attempts={2: 1}))
                )
            return wave(self, w, observed)

        monkeypatch.setattr(DistributedSparkScore, "_wave", second_wave_fails_partition_2)
        retried, jobs = analyse()
        assert [w.first for w in waves] == [0, WAVE_BATCHES]
        first_job, second_job = jobs
        assert first_job.num_task_failures == 0
        attempts = [t for s in second_job.stages for t in s.tasks if t.partition == 2]
        failed, retry = sorted(attempts, key=lambda t: t.attempt)
        holder = next(
            t.executor_id for s in first_job.stages for t in s.tasks if t.partition == 2
        )
        assert (failed.succeeded, failed.executor_id) == (False, holder)
        assert retry.succeeded and retry.executor_id != holder
        assert retry.metrics.cache_misses == 1  # recomputed from lineage there
        assert retried.exceed_counts.tobytes() == clean.exceed_counts.tobytes()
        assert retried.observed.tobytes() == clean.observed.tobytes()

