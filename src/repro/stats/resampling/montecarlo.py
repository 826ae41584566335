"""Lin's (2005) Monte Carlo resampling for SKAT statistics.

Replicates are ``U~_j = sum_i Z_i * U_ij`` with ``Z_i ~ N(0, 1)``.  The
score-contribution matrix ``U`` is computed once and *reused* across all B
replicates -- the property SparkScore exploits by caching the U RDD
(Algorithm 3).  In matrix form a whole batch of replicates is one GEMM:
``scores_batch = Z_batch @ U.T``, the batch count
:meth:`MonteCarloResampler.run` hands :func:`~repro.stats.resampling.driver.resample`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.resampling.driver import exceedances, per_batch, resample
from repro.stats.resampling.pvalues import empirical_pvalues
from repro.stats.resampling.streams import mc_multiplier_batches
from repro.stats.skat import skat_statistics, validate_set_ids


@dataclass(frozen=True)
class ResamplingOutcome:
    """Observed statistics plus resampling exceedance evidence."""

    observed: np.ndarray  # (K,) observed SKAT statistics S_k^0
    exceed_counts: np.ndarray  # (K,) #{b : S~_k^b >= S_k^0}
    n_resamples: int

    def pvalues(self, method: str = "plugin") -> np.ndarray:
        return empirical_pvalues(self.exceed_counts, self.n_resamples, method)


class MonteCarloResampler:
    """Streams Monte Carlo replicate batches against fixed contributions."""

    def __init__(
        self,
        contributions: np.ndarray,
        weights: np.ndarray,
        set_ids: np.ndarray,
        n_sets: int,
    ) -> None:
        U = np.asarray(contributions, dtype=np.float64)
        if U.ndim != 2:
            raise ValueError("contributions must be (J, n)")
        self.U = U
        self.J, self.n = U.shape
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.shape != (self.J,):
            raise ValueError("weights must align with contributions rows")
        self.set_ids = validate_set_ids(set_ids, n_sets, self.J)
        self.n_sets = n_sets
        self.observed = skat_statistics(U.sum(axis=1), self.weights, self.set_ids, n_sets)

    def replicate_batch(self, z_batch: np.ndarray) -> np.ndarray:
        """SKAT statistics for a batch of multiplier vectors ``(b, n)``."""
        Z = np.asarray(z_batch, dtype=np.float64)
        if Z.ndim == 1:
            Z = Z[None, :]
        if Z.shape[1] != self.n:
            raise ValueError(f"multiplier vectors must have length {self.n}")
        scores = Z @ self.U.T  # (b, J)
        return skat_statistics(scores, self.weights, self.set_ids, self.n_sets)

    def run(
        self,
        n_resamples: int,
        seed: int,
        batch_size: int = 256,
        monitor=None,
    ) -> ResamplingOutcome:
        """Run B Monte Carlo replicates.

        ``monitor`` is an optional
        :class:`repro.obs.inference.ConvergenceMonitor`.  A passive monitor
        only observes (accumulation stays bit-identical); one carrying an
        early-stop policy may mask decided sets and end the loop early, in
        which case per-set estimates should be read from
        ``monitor.pvalues()`` (per-set denominators) rather than the
        outcome's shared ``n_resamples``.
        """
        counts, used = resample(
            mc_multiplier_batches(self.n, n_resamples, seed, batch_size),
            per_batch(self._count_batch), monitor, n_sets=self.n_sets,
        )
        return ResamplingOutcome(self.observed, counts, used)

    def _count_batch(self, z_batch: np.ndarray) -> np.ndarray:
        return exceedances(self.replicate_batch(z_batch), self.observed)
