"""Permutation resampling for SKAT statistics.

Each replicate shuffles the phenotype pairs among patients and recomputes
the marginal scores (Algorithm 2 is the iterated Algorithm 1).  Every score
model is linear in the genotypes, ``U_j = G_j . c`` with ``c`` the model's
:meth:`~repro.stats.score.base.ScoreModel.score_weights`, and a joint
shuffle of the pairs only permutes ``c``, so a batch of replicates is one
GEMM, ``c[perms] @ G.T``: the same cost as a Monte Carlo batch, with no
refit and no cached ``U``.  Algorithm 2 as written -- refit, recompute the
contributions, sum -- is ``model.permuted(perm).contributions(G).sum(axis=1)``,
the definitional loop the tests hold this kernel to.  The GEMM is the batch
count :meth:`PermutationResampler.run` hands
:func:`~repro.stats.resampling.driver.resample`.
"""

from __future__ import annotations

import numpy as np

from repro.stats.resampling.driver import exceedances, per_batch, resample
from repro.stats.resampling.montecarlo import ResamplingOutcome
from repro.stats.resampling.streams import permutation_batches
from repro.stats.score.base import ScoreModel
from repro.stats.skat import skat_statistics, validate_set_ids


class PermutationResampler:
    """Scores under phenotype permutations: permuted score weights times G."""

    def __init__(
        self,
        model: ScoreModel,
        genotypes: np.ndarray,
        weights: np.ndarray,
        set_ids: np.ndarray,
        n_sets: int,
    ) -> None:
        G = np.asarray(genotypes, dtype=np.float64)
        if G.ndim != 2:
            raise ValueError("genotypes must be (J, n)")
        if G.shape[1] != model.n_patients:
            raise ValueError("genotype columns must match model patients")
        self.model = model
        self.G = G
        self.J, self.n = G.shape
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.shape != (self.J,):
            raise ValueError("weights must align with genotype rows")
        self.set_ids = validate_set_ids(set_ids, n_sets, self.J)
        self.n_sets = n_sets
        self.score_weights = model.score_weights()
        self.observed = skat_statistics(
            G @ self.score_weights, self.weights, self.set_ids, n_sets
        )

    def replicate(self, perm: np.ndarray) -> np.ndarray:
        """SKAT statistics under one permutation of the phenotype pairs."""
        perm = np.asarray(perm)
        if perm.shape != (self.n,) or sorted(perm.tolist()) != list(range(self.n)):
            raise ValueError("perm must be a permutation of range(n)")
        scores = self.G @ self.score_weights[perm]
        return skat_statistics(scores, self.weights, self.set_ids, self.n_sets)

    def run(
        self,
        n_resamples: int,
        seed: int,
        batch_size: int = 64,
        monitor=None,
    ) -> ResamplingOutcome:
        """Run B permutation replicates, ``batch_size`` per GEMM.

        Batching changes scheduling, never the replicate sequence
        (:func:`~repro.stats.resampling.streams.permutation_batches`).

        ``monitor`` is an optional
        :class:`repro.obs.inference.ConvergenceMonitor`, folded once per
        batch; see :meth:`MonteCarloResampler.run` for the
        passive/early-stop contract.
        """
        counts, used = resample(
            permutation_batches(self.n, n_resamples, seed, batch_size),
            per_batch(self._count_batch), monitor, n_sets=self.n_sets,
        )
        return ResamplingOutcome(self.observed, counts, used)

    def _count_batch(self, perms: np.ndarray) -> np.ndarray:
        scores = self.score_weights[perms] @ self.G.T  # (b, J)
        stats = skat_statistics(scores, self.weights, self.set_ids, self.n_sets)
        return exceedances(stats, self.observed)
