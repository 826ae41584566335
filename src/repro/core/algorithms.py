"""Algorithms 1-3 on the distributed engine.

Two flavors of the same pipeline:

- ``"paper"`` -- record-per-SNP RDDs and an explicit weights *join*,
  transcribing Algorithm 1 step by step (including the filter against the
  union of SNP-sets and the broadcast of the phenotype pairs);
- ``"vectorized"`` -- record-per-block RDDs (:class:`~repro.core.blocks.SnpBlock`)
  with broadcast weights, trading fidelity for NumPy batching.  Both
  produce identical statistics.

Monte Carlo (Algorithm 3) caches the contributions RDD and reuses it for
every replicate batch; permutation (Algorithm 2) re-runs the scoring
pipeline per replicate *batch*, amortizing DAG-build/scheduling overhead
the same way the MC multiplier batches do.  What a batch re-broadcasts is
where the flavors part: the paper flavor ships refit models and recomputes
every contribution row under each -- Algorithm 2 as written, the shape the
simulator's cost model charges, and the referee for the other flavor; the
vectorized flavor ships the ``(b, n)`` array of permuted
:meth:`~repro.stats.score.base.ScoreModel.score_weights`, and a block's
replicate scores are one GEMM against it.

Every transformation in the hot path is a named module-level callable (not
a lambda), so the whole pipeline pickles and runs on the process backend.
Resampling exceedance counting happens *inside* tasks against a broadcast
of the observed statistics: the driver receives ``(K,)`` int64 counts per
batch instead of per-partition ``(batch, K)`` stat matrices.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from repro.core import instrumentation
from repro.core.blocks import SnpBlock, build_blocks
from repro.core.results import ResamplingResult
from repro.genomics.io.formats import parse_genotype_line, parse_weight_line
from repro.genomics.synthetic import Dataset
from repro.stats.resampling.streams import mc_multiplier_batches, permutation_batches
from repro.stats.score.base import ScoreModel
from repro.stats.score.cox import CoxScoreModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.broadcast import Broadcast
    from repro.engine.context import Context
    from repro.engine.rdd import RDD

FLAVORS = ("paper", "vectorized")


# ---------------------------------------------------------------------------
# named pipeline callables (picklable; lambdas would strand the process
# backend)
# ---------------------------------------------------------------------------


def _add(a, b):
    return a + b


def _first(value):
    return value


def _mul_pair(uw):
    return uw[0] * uw[1]


class _ParseGenotypesFn:
    """Per-partition text parse of genotype lines."""

    def __call__(self, it):
        return (parse_genotype_line(line) for line in it if line)


class _ParseWeightsFn:
    def __call__(self, it):
        return (parse_weight_line(line) for line in it if line)


class _SquareWeightFn:
    def __call__(self, kv):
        return (kv[0], kv[1] ** 2)


class _InUnionFn:
    """Algorithm 1 step 5: keep SNPs in the union of the SNP-sets."""

    def __init__(self, union_bc: "Broadcast") -> None:
        self.union_bc = union_bc

    def __call__(self, rec):
        return rec[0] in self.union_bc.value


class _BuildBlocksFn:
    """Assemble per-SNP records into :class:`SnpBlock` chunks."""

    def __init__(self, set_bc, w2_bc, n_sets: int, block_size: int) -> None:
        self.set_bc = set_bc
        self.w2_bc = w2_bc
        self.n_sets = n_sets
        self.block_size = block_size

    def __call__(self, it):
        return build_blocks(
            it, self.set_bc.value, self.w2_bc.value, self.n_sets, self.block_size
        )


class _RowContributionsFn:
    """Per-SNP contribution row under the broadcast model (paper flavor)."""

    def __init__(self, model_bc) -> None:
        self.model_bc = model_bc

    def __call__(self, g):
        return self.model_bc.value.contributions(np.asarray(g, dtype=np.float64))[0]


class _BlockContributionsFn:
    """Re-block with contributions in place of dosages (vectorized flavor)."""

    def __init__(self, model_bc) -> None:
        self.model_bc = model_bc

    def __call__(self, block: SnpBlock) -> SnpBlock:
        return SnpBlock(
            block.snp_ids,
            block.set_ids,
            block.weights_sq,
            self.model_bc.value.contributions(block.genotypes.astype(np.float64)),
            block.n_sets,
        )


class _RowInnerFn:
    """Observed inner sigma: squared row-sum of a contribution row."""

    def __call__(self, row):
        return float(np.sum(row)) ** 2


class _ObservedBlockPartialFn:
    """Observed per-set partials from a contributions block."""

    def __call__(self, block: SnpBlock):
        return block.skat_partial(block.genotypes.sum(axis=1))


class _McRowInnersFn:
    """(batch,) squared scores of one SNP row under MC multipliers."""

    def __init__(self, z_bc) -> None:
        self.z_bc = z_bc

    def __call__(self, row):
        return np.square(self.z_bc.value @ row)


class _McBlockPartialFn:
    """(batch, K) per-set partials of one block under MC multipliers."""

    def __init__(self, z_bc) -> None:
        self.z_bc = z_bc

    def __call__(self, block: SnpBlock):
        return block.skat_partial(self.z_bc.value @ block.genotypes.T)


class _PermutedRowInnersFn:
    """(batch,) squared score sums of one SNP row under permuted models."""

    def __init__(self, models_bc) -> None:
        self.models_bc = models_bc

    def __call__(self, g):
        g_arr = np.asarray(g, dtype=np.float64)
        return np.array(
            [
                float(np.sum(model.contributions(g_arr)[0])) ** 2
                for model in self.models_bc.value
            ]
        )


class _PermutedBlockPartialsFn:
    """(batch, K) per-set partials of one block under permuted score weights."""

    def __init__(self, weights_bc) -> None:
        self.weights_bc = weights_bc

    def __call__(self, block: SnpBlock):
        scores = self.weights_bc.value @ block.genotypes.astype(np.float64).T
        return block.skat_partial_rows(scores)


class _BroadcastWeightFn:
    """Map-side weight application (paper flavor, broadcast join strategy)."""

    def __init__(self, w2_bc) -> None:
        self.w2_bc = w2_bc

    def __call__(self, kv):
        return (kv[0], kv[1] * self.w2_bc.value[kv[0]])


class _KeyBySetFn:
    """Re-key per-SNP scores by SNP-set index (Algorithm 1 step 11)."""

    def __init__(self, set_bc) -> None:
        self.set_bc = set_bc

    def __call__(self, kv):
        return (self.set_bc.value[kv[0]], kv[1])


class _KeyZeroFn:
    """Key every partial under 0 so one reduce task folds them in order."""

    def __call__(self, value):
        return (0, value)


class _MatrixZeroFn:
    """Zero factory for tree-aggregated (width, K) stat matrices."""

    def __init__(self, width: int, n_sets: int) -> None:
        self.width = width
        self.n_sets = n_sets

    def __call__(self):
        return np.zeros((self.width, self.n_sets))


class _ExceedCountsFn:
    """Executor-side exceedance counting: (width, K) stats -> (K,) ints."""

    def __init__(self, observed_bc) -> None:
        self.observed_bc = observed_bc

    def __call__(self, stats):
        return (stats >= self.observed_bc.value[None, :]).sum(axis=0).astype(np.int64)


class _PaperExceedFn:
    """Per-set exceedance count for the paper flavor's keyed totals."""

    def __init__(self, observed_bc) -> None:
        self.observed_bc = observed_bc

    def __call__(self, kv):
        set_idx, values = kv
        exceeded = np.asarray(values) >= self.observed_bc.value[set_idx]
        return (set_idx, int(np.sum(exceeded)))


class DistributedSparkScore:
    """SparkScore's Algorithms 1-3 running on a :class:`Context`.

    Parameters
    ----------
    ctx:
        The engine context (owns executors, shuffle state, caches).
    dataset:
        In-memory dataset; mutually exclusive with ``input_paths``.
    input_paths:
        ``{"genotypes": path, "weights": path}`` text files (local or
        ``hdfs://``) to parse with the engine, plus ``dataset`` supplying
        phenotype/sets/weights metadata for the driver side.  When given,
        genotype records flow through the parse stage exactly as in the
        paper (re-parsed on every uncached recomputation).
    flavor:
        ``"paper"`` or ``"vectorized"`` (see module docstring).
    join_strategy:
        ``"rdd_join"`` joins the weights RDD per the paper; ``"broadcast"``
        ships a weight dict with the tasks instead (paper flavor only).
    """

    def __init__(
        self,
        ctx: "Context",
        dataset: Dataset,
        model: ScoreModel | None = None,
        flavor: str = "vectorized",
        block_size: int = 256,
        num_partitions: int | None = None,
        join_strategy: str = "rdd_join",
        input_paths: dict[str, str] | None = None,
        cache_genotypes: bool = False,
    ) -> None:
        if flavor not in FLAVORS:
            raise ValueError(f"flavor must be one of {FLAVORS}")
        if join_strategy not in ("rdd_join", "broadcast"):
            raise ValueError("join_strategy must be 'rdd_join' or 'broadcast'")
        self.ctx = ctx
        self.dataset = dataset
        self.model = model or CoxScoreModel(dataset.phenotype)
        if self.model.n_patients != dataset.n_patients:
            raise ValueError("model patients must match dataset")
        self.flavor = flavor
        self.block_size = block_size
        self.join_strategy = join_strategy
        self.num_partitions = num_partitions or ctx.config.default_parallelism
        self._K = dataset.n_sets

        snp_ids = dataset.genotypes.snp_ids
        set_map = {int(s): int(k) for s, k in zip(snp_ids, dataset.snpsets.set_ids)}
        w2_map = {int(s): float(w) ** 2 for s, w in zip(snp_ids, dataset.weights)}
        # broadcast the SNP-set mapping and, inside the model, the phenotype
        # pairs (Alg. 1 step 6)
        self._set_map_bc = ctx.broadcast(set_map)
        self._w2_map_bc = ctx.broadcast(w2_map)
        self._union_set_bc = ctx.broadcast(frozenset(set_map))
        self._model_bc = ctx.broadcast(self.model)

        self._gm_rdd = self._build_genotype_rdd(input_paths, cache_genotypes)
        self._weights_rdd = self._build_weights_rdd(input_paths)
        self._u_rdd: "RDD | None" = None
        self._u_cached = False

    # -- input RDDs ------------------------------------------------------------

    def _build_genotype_rdd(
        self, input_paths: dict[str, str] | None, cache_genotypes: bool
    ) -> "RDD":
        ctx = self.ctx
        if input_paths is not None:
            lines = ctx.text_file(input_paths["genotypes"], self.num_partitions)
            rows = lines.map_partitions(_ParseGenotypesFn(), name="parse_gm")
        else:
            rows = ctx.parallelize(list(self.dataset.genotypes.rows()), self.num_partitions)
            rows.name = "gm_rows"
        # Algorithm 1 step 5: filter against the union of the SNP-sets
        filtered = rows.filter(_InUnionFn(self._union_set_bc))
        filtered.name = "fgm"
        if self.flavor == "vectorized":
            filtered = filtered.map_partitions(
                _BuildBlocksFn(
                    self._set_map_bc, self._w2_map_bc, self._K, self.block_size
                ),
                name="gm_blocks",
            )
        if cache_genotypes:
            filtered.cache()
        return filtered

    def _build_weights_rdd(self, input_paths: dict[str, str] | None) -> "RDD | None":
        if self.flavor != "paper" or self.join_strategy != "rdd_join":
            return None
        ctx = self.ctx
        if input_paths is not None and "weights" in input_paths:
            lines = ctx.text_file(input_paths["weights"], self.num_partitions)
            pairs = lines.map_partitions(_ParseWeightsFn(), name="parse_weights")
            rdd = pairs.map(_SquareWeightFn())
        else:
            records = [
                (int(s), float(w) ** 2)
                for s, w in zip(self.dataset.genotypes.snp_ids, self.dataset.weights)
            ]
            rdd = ctx.parallelize(records, self.num_partitions)
        rdd.name = "weights_sq"
        return rdd

    # -- U RDD (Algorithm 1 step 7) ------------------------------------------------

    def contributions_rdd(self, cache: bool = True) -> "RDD":
        """The per-patient contributions RDD; cached when requested."""
        if self._u_rdd is not None and self._u_cached == cache:
            return self._u_rdd
        if self.flavor == "paper":
            u = self._gm_rdd.map_values(_RowContributionsFn(self._model_bc))
        else:
            u = self._gm_rdd.map(_BlockContributionsFn(self._model_bc))
        u.name = "U"
        if cache:
            u.cache()
        self._u_rdd = u
        self._u_cached = cache
        return u

    # -- per-set reductions (Algorithm 1 steps 8-12) ---------------------------------

    def _per_set_scores(self, scored: "RDD") -> "RDD":
        """Weight join + per-set reduction for the paper flavor."""
        if self.join_strategy == "rdd_join":
            joined = scored.join(self._weights_rdd, num_partitions=self.num_partitions)
            snp_scores = joined.map_values(_mul_pair)
        else:
            snp_scores = scored.map(_BroadcastWeightFn(self._w2_map_bc))
        return snp_scores.map(_KeyBySetFn(self._set_map_bc)).reduce_by_key(
            _add, self.num_partitions
        )

    def _scores_to_set_stats(self, scored: "RDD", width: int) -> np.ndarray:
        """Steps 8-12: inner sigma -> weight join -> per-set reduction.

        ``scored`` carries per-SNP squared scores: paper flavor records are
        ``(snp_id, value_or_vector)``; vectorized records are per-set
        partial vectors already.  Returns (width, K) statistics.
        """
        K = self._K
        if self.flavor == "vectorized":
            # executors pre-combine per partition; the driver merges
            # O(sqrt(P)) group partials instead of every block partial
            return scored.tree_aggregate(_MatrixZeroFn(width, K), _add, _add, depth=2)
        stats = np.zeros((width, K))
        for set_idx, value in self._per_set_scores(scored).collect():
            stats[:, set_idx] = value
        return stats

    def _scores_to_counts(
        self, scored: "RDD", width: int, observed_bc: "Broadcast"
    ) -> np.ndarray:
        """Executor-side exceedance counting against the broadcast observed.

        The replicate stat matrix is folded and compared *inside* the
        engine: the vectorized flavor funnels every partition's partials to
        one reduce task (no map-side combine, so the fold order matches a
        driver-side collect exactly), the paper flavor compares per set
        after its keyed reduction.  The driver receives ``(K,)`` int64
        counts -- O(K) bytes per batch instead of O(P * batch * K).
        """
        observed = observed_bc.value
        if self.flavor == "vectorized":
            total = scored.map(_KeyZeroFn()).combine_by_key(
                _first, _add, _add, num_partitions=1, map_side_combine=False
            )
            collected = total.map_values(_ExceedCountsFn(observed_bc)).collect()
            if not collected:
                return np.zeros(self._K, dtype=np.int64)
            return collected[0][1]
        # sets with no SNPs keep the zero statistic of the old dense matrix
        counts = (width * (0.0 >= observed)).astype(np.int64)
        per_set = self._per_set_scores(scored)
        for set_idx, count in per_set.map(_PaperExceedFn(observed_bc)).collect():
            counts[set_idx] = count
        return counts

    # -- Algorithm 1: observed statistics ----------------------------------------------

    def observed_statistics(self, cache_contributions: bool = True) -> np.ndarray:
        pass_start = time.perf_counter()
        u = self.contributions_rdd(cache_contributions)
        if self.flavor == "paper":
            inner = u.map_values(_RowInnerFn())
            stats = self._scores_to_set_stats(inner, 1)[0]
        else:
            partial = u.map(_ObservedBlockPartialFn())
            stats = self._scores_to_set_stats(partial, 1)[0]
        instrumentation.SCORE_PASS_SECONDS.labels(engine="distributed").observe(
            time.perf_counter() - pass_start
        )
        return stats

    def observed(self) -> ResamplingResult:
        start = time.perf_counter()
        stats = self.observed_statistics()
        return self._result("observed", stats, np.zeros(self._K, dtype=np.int64), 0, start)

    # -- Algorithm 3: Monte Carlo -----------------------------------------------------------

    def monte_carlo(
        self,
        iterations: int,
        seed: int = 0,
        batch_size: int = 64,
        cache_contributions: bool = True,
    ) -> ResamplingResult:
        start = time.perf_counter()
        observed = self.observed_statistics(cache_contributions)
        observed_bc = self.ctx.broadcast(observed)
        u = self.contributions_rdd(cache_contributions)
        counts = np.zeros(self._K, dtype=np.int64)
        monitor = self._new_monitor("monte_carlo", iterations)
        used = 0
        n = self.dataset.n_patients
        for z_batch in mc_multiplier_batches(n, iterations, seed, batch_size):
            batch_start = time.perf_counter()
            z_bc = self.ctx.broadcast(z_batch)
            width = z_batch.shape[0]
            if self.flavor == "paper":
                scored = u.map_values(_McRowInnersFn(z_bc))
            else:
                scored = u.map(_McBlockPartialFn(z_bc))
            batch_counts = self._scores_to_counts(scored, width, observed_bc)
            counts += monitor.fold(batch_counts, width)
            used += width
            z_bc.destroy()
            instrumentation.observe_batch(
                "monte_carlo", "distributed", time.perf_counter() - batch_start, width
            )
            self.ctx.inference.publish(monitor)
            if monitor.done:
                break
        monitor.finish()
        self.ctx.inference.publish(monitor, force=True)
        observed_bc.destroy()
        return self._result("monte_carlo", observed, counts, used, start, monitor)

    # -- Algorithm 2: permutation ---------------------------------------------------------------

    def permutation(
        self, iterations: int, seed: int = 0, batch_size: int = 16
    ) -> ResamplingResult:
        start = time.perf_counter()
        observed = self.observed_statistics(cache_contributions=False)
        observed_bc = self.ctx.broadcast(observed)
        counts = np.zeros(self._K, dtype=np.int64)
        monitor = self._new_monitor("permutation", iterations)
        used = 0
        n = self.dataset.n_patients
        score_weights = self.model.score_weights()  # the vectorized flavor's payload
        for perm_batch in permutation_batches(n, iterations, seed, batch_size):
            batch_start = time.perf_counter()
            width = perm_batch.shape[0]
            if self.flavor == "paper":
                # re-broadcast a block of shuffled phenotypes (Alg. 2 step 2)
                # and recompute steps 6-12 of Algorithm 1 under each
                batch_bc = self.ctx.broadcast(
                    [self.model.permuted(perm) for perm in perm_batch]
                )
                scored = self._gm_rdd.map_values(_PermutedRowInnersFn(batch_bc))
            else:
                # the shuffle only permutes the score weights: (b, n) float64
                batch_bc = self.ctx.broadcast(score_weights[perm_batch])
                scored = self._gm_rdd.map(_PermutedBlockPartialsFn(batch_bc))
            batch_counts = self._scores_to_counts(scored, width, observed_bc)
            counts += monitor.fold(batch_counts, width)
            used += width
            batch_bc.destroy()
            instrumentation.observe_batch(
                "permutation", "distributed", time.perf_counter() - batch_start, width
            )
            self.ctx.inference.publish(monitor)
            if monitor.done:
                break
        monitor.finish()
        self.ctx.inference.publish(monitor, force=True)
        observed_bc.destroy()
        return self._result("permutation", observed, counts, used, start, monitor)

    # -- results -----------------------------------------------------------------------------------

    def _new_monitor(self, method: str, planned: int):
        """Mint a convergence monitor wired to this context's bus/policy."""
        return self.ctx.inference.new_monitor(
            self._K, method, planned, list(self.dataset.snpsets.names)
        )

    def _result(
        self,
        method: str,
        observed: np.ndarray,
        counts: np.ndarray,
        iterations: int,
        start: float,
        monitor=None,
    ) -> ResamplingResult:
        elapsed = time.perf_counter() - start
        jobs = self.ctx.metrics.jobs
        totals = [j.totals() for j in jobs]
        info = {
            "wall_seconds": elapsed,
            "engine": "distributed",
            "flavor": self.flavor,
            "jobs_run": len(jobs),
            "cache_hits": sum(t.cache_hits for t in totals),
            "cache_misses": sum(t.cache_misses for t in totals),
            "shuffle_bytes": sum(t.shuffle_bytes_written for t in totals),
            "driver_bytes_collected": sum(t.driver_bytes_collected for t in totals),
        }
        explicit = None
        if monitor is not None:
            info["early_stop"] = monitor.policy is not None
            info["replicates_planned"] = monitor.planned_replicates
            info["replicates_saved"] = monitor.replicates_saved
            info["sets_converged"] = monitor.sets_converged
            if monitor.masking and not np.all(
                monitor.denominators == monitor.replicates_total
            ):
                # masked sets froze at per-set denominators; the shared
                # n_resamples would misprice them, so ship the monitor's
                # per-set estimates explicitly
                explicit = monitor.pvalues("plugin")
        return ResamplingResult(
            method=method,
            set_names=list(self.dataset.snpsets.names),
            set_sizes=self.dataset.snpsets.sizes(),
            observed=observed,
            exceed_counts=counts,
            n_resamples=iterations,
            explicit_pvalues=explicit,
            info=info,
        )
