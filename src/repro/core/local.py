"""Single-node vectorized reference implementation.

This is the validation oracle for the distributed algorithms (given the
same seed both paths consume identical resampling streams, see
:mod:`repro.stats.resampling.streams`) and the single-node baseline for
the benchmarks.  Its resampling runs through the same driver as the
engine's (:func:`~repro.stats.resampling.driver.resample`): the cached Monte
Carlo arm and permutation through the resamplers' ``run``, the no-cache arm
with a batch count that rebuilds ``U`` every batch.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.results import ResamplingResult
from repro.genomics.synthetic import Dataset
from repro.stats.asymptotic import skat_asymptotic_pvalues
from repro.stats.resampling import streams
from repro.stats.resampling.driver import exceedances, per_batch, resample
from repro.stats.resampling.montecarlo import MonteCarloResampler
from repro.stats.resampling.permutation import PermutationResampler
from repro.stats.score.base import ScoreModel
from repro.stats.score.cox import CoxScoreModel
from repro.stats.skat import skat_statistics


#: rows per ``contributions`` call (``DistributedSparkScore``'s default block)
CONTRIBUTION_ROWS = 256


class LocalSparkScore:
    """Pure-NumPy SparkScore: same analyses, no engine.

    The Monte Carlo path keeps the (J, n) contribution matrix resident
    ("caching"); passing ``cache_contributions=False`` recomputes it for
    every batch, mirroring Experiment B's no-cache arm.
    """

    def __init__(self, dataset: Dataset, model: ScoreModel | None = None) -> None:
        self.dataset = dataset
        self.model = model or CoxScoreModel(dataset.phenotype)
        if self.model.n_patients != dataset.n_patients:
            raise ValueError("model patients must match dataset")
        self._G = dataset.genotypes.matrix.astype(np.float64)
        self._weights = dataset.weights
        self._set_ids = dataset.snpsets.set_ids
        self._K = dataset.n_sets

    # -- Algorithm 1 ---------------------------------------------------------

    def observed(self) -> ResamplingResult:
        start = time.perf_counter()
        stats = self.observed_statistics()
        return self._result("observed", stats, np.zeros(self._K, dtype=np.int64), 0, start)

    def observed_statistics(self) -> np.ndarray:
        scores = self.model.scores(self._G)
        return skat_statistics(scores, self._weights, self._set_ids, self._K)

    def contributions(self) -> np.ndarray:
        """The (J, n) U matrix Algorithm 3 caches.

        Filled :data:`CONTRIBUTION_ROWS` rows at a time, the engine's block
        shape: rows are independent, and a kernel call whose temporaries
        stay in cache costs a fraction of one ``(J, n)`` call, so the
        reference the engine is read against is an honest one.
        """
        U = np.empty(self._G.shape)
        for start in range(0, U.shape[0], CONTRIBUTION_ROWS):
            rows = slice(start, start + CONTRIBUTION_ROWS)
            U[rows] = self.model.contributions(self._G[rows])
        return U

    # -- Algorithm 3 (Monte Carlo) ----------------------------------------------

    def monte_carlo(
        self,
        iterations: int,
        seed: int = 0,
        batch_size: int = 64,
        cache_contributions: bool = True,
        monitor=None,
    ) -> ResamplingResult:
        """``monitor`` is an optional
        :class:`~repro.obs.inference.ConvergenceMonitor` (the local engine
        has no context to mint one, so callers wire their own)."""
        start = time.perf_counter()
        if cache_contributions:
            sampler = MonteCarloResampler(
                self.contributions(), self._weights, self._set_ids, self._K
            )
            outcome = sampler.run(iterations, seed, batch_size, monitor=monitor)
            observed, counts, used = outcome.observed, outcome.exceed_counts, outcome.n_resamples
        else:
            # no-cache arm: re-derive U from genotypes for every batch,
            # exactly what Spark does when the U RDD is not persisted
            observed = self.observed_statistics()

            def count_batch(z_batch: np.ndarray) -> np.ndarray:
                scores = z_batch @ self.contributions().T  # U recomputed!
                stats = skat_statistics(scores, self._weights, self._set_ids, self._K)
                return exceedances(stats, observed)

            batches = streams.mc_multiplier_batches(
                self.dataset.n_patients, iterations, seed, batch_size
            )
            counts, used = resample(batches, per_batch(count_batch), monitor, n_sets=self._K)
        return self._result("monte_carlo", observed, counts, used, start, monitor)

    # -- Algorithm 2 (permutation) --------------------------------------------------

    def permutation(
        self, iterations: int, seed: int = 0, batch_size: int = 16, monitor=None
    ) -> ResamplingResult:
        start = time.perf_counter()
        sampler = PermutationResampler(
            self.model, self._G, self._weights, self._set_ids, self._K
        )
        outcome = sampler.run(iterations, seed, batch_size, monitor=monitor)
        return self._result(
            "permutation", outcome.observed, outcome.exceed_counts,
            outcome.n_resamples, start, monitor,
        )

    def permutation_statistics(self, iterations: int, seed: int = 0) -> np.ndarray:
        """(B, K) replicate statistics (diagnostics / QQ plots)."""
        out = np.empty((iterations, self._K))
        c = self.model.score_weights()
        perms = streams.permutation_stream(self.dataset.n_patients, iterations, seed)
        for b, perm in enumerate(perms):
            out[b] = skat_statistics(self._G @ c[perm], self._weights, self._set_ids, self._K)
        return out

    # -- asymptotics ----------------------------------------------------------------------

    def asymptotic(self, method: str = "liu") -> ResamplingResult:
        start = time.perf_counter()
        U = self.contributions()
        observed = skat_statistics(U.sum(axis=1), self._weights, self._set_ids, self._K)
        pvals = skat_asymptotic_pvalues(
            U, self._weights, self._set_ids, self._K, observed, method
        )
        result = self._result("asymptotic", observed, np.zeros(self._K, dtype=np.int64), 0, start)
        result.explicit_pvalues = pvals
        result.info["approximation"] = method
        return result

    # -- helpers ---------------------------------------------------------------------------

    def _result(
        self,
        method: str,
        observed: np.ndarray,
        counts: np.ndarray,
        iterations: int,
        start: float,
        monitor=None,
    ) -> ResamplingResult:
        info = {"wall_seconds": time.perf_counter() - start, "engine": "local"}
        return ResamplingResult.from_run(
            method, self.dataset.snpsets, observed, counts, iterations, info, monitor
        )
