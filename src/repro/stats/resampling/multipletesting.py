"""Resampling-based multiple testing for variant-by-variant analyses.

The paper's introduction frames SNP-set tests against the backdrop of
variant-by-variant analyses over millions of marginal statistics, and
cites Westfall & Young (1993) [its ref. 40] for resampling-based p-value
adjustment.  This module implements that machinery on top of the same
Monte Carlo replicate stream used for SKAT:

- per-SNP empirical p-values from standardized marginal scores;
- **single-step maxT** family-wise error control: adjust by the null
  distribution of the *maximum* statistic across SNPs;
- **step-down maxT** (Westfall-Young): sharper, still strong FWER control
  under subset pivotality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.resampling.driver import exceedances, per_batch, resample
from repro.stats.resampling.streams import mc_multiplier_batches


@dataclass(frozen=True)
class MaxTResult:
    """Variant-level resampling inference."""

    statistics: np.ndarray  # (J,) standardized |T_j|
    raw_pvalues: np.ndarray  # (J,) per-SNP empirical p-values
    adjusted_pvalues: np.ndarray  # (J,) FWER-adjusted p-values
    n_resamples: int
    method: str

    def significant(self, alpha: float = 0.05) -> np.ndarray:
        """Row indices whose adjusted p-value is below ``alpha``."""
        return np.flatnonzero(self.adjusted_pvalues <= alpha)


def standardized_statistics(contributions: np.ndarray) -> np.ndarray:
    """``|T_j| = |U_j| / sd(U~_j)`` with the Monte Carlo null sd.

    Under Lin's resampling ``U~_j = sum_i Z_i U_ij`` has standard
    deviation ``sqrt(sum_i U_ij^2)``; monomorphic SNPs (sd 0) get T = 0.
    """
    U = np.asarray(contributions, dtype=np.float64)
    if U.ndim != 2:
        raise ValueError("contributions must be (J, n)")
    sd = np.sqrt((U**2).sum(axis=1))
    scores = U.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(sd > 0, np.abs(scores) / sd, 0.0)
    return t


def westfall_young_maxt(
    contributions: np.ndarray,
    n_resamples: int,
    seed: int = 0,
    batch_size: int = 64,
    step_down: bool = True,
    monitor=None,
) -> MaxTResult:
    """Westfall-Young maxT adjustment via Monte Carlo replicates.

    ``step_down=True`` gives the classic step-down procedure: SNPs are
    ordered by decreasing statistic; SNP (j) is compared against the
    running maximum over the *remaining* hypotheses, with monotonicity
    enforced.  ``step_down=False`` is the single-step variant (compare
    every SNP against the global maximum).

    ``monitor`` is an optional
    :class:`repro.obs.inference.ConvergenceMonitor` fed the *adjusted*
    exceedance counts per batch.  The run turns per-SNP masking off even
    under an early-stop policy -- step-down adjustment needs one common
    denominator across SNPs -- so the policy only stops the whole loop
    once every SNP's adjusted p-value CI is decisive.
    """
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    U = np.asarray(contributions, dtype=np.float64)
    if U.ndim != 2:
        raise ValueError("contributions must be (J, n)")
    J, n = U.shape
    sd = np.sqrt((U**2).sum(axis=1))
    safe_sd = np.where(sd > 0, sd, 1.0)
    observed = standardized_statistics(U)
    order = np.argsort(-observed, kind="stable")  # decreasing statistics
    raw_exceed = np.zeros(J, dtype=np.int64)

    def count_batch(z_batch: np.ndarray) -> np.ndarray:
        replicates = np.abs(z_batch @ U.T) / safe_sd[None, :]  # (b, J)
        replicates[:, sd == 0] = 0.0
        raw_exceed[:] += exceedances(replicates, observed)
        if step_down:
            # successive maxima over the ordered tail: q_(j) = max over
            # hypotheses ranked j..J (computed right-to-left)
            tail_max = np.maximum.accumulate(replicates[:, order[::-1]], axis=1)[:, ::-1]
            batch_adj = np.zeros(J, dtype=np.int64)
            batch_adj[order] = exceedances(tail_max, observed[order])
            return batch_adj
        return exceedances(replicates.max(axis=1)[:, None], observed)

    adj_exceed, used = resample(
        mc_multiplier_batches(n, n_resamples, seed, batch_size), per_batch(count_batch),
        monitor, n_sets=J, per_set_masking=False,
    )

    raw = (raw_exceed + 1.0) / (used + 1.0)
    adjusted = (adj_exceed + 1.0) / (used + 1.0)
    if step_down:
        # enforce monotonicity in the statistic ordering
        adjusted[order] = np.maximum.accumulate(adjusted[order])
    return MaxTResult(
        statistics=observed,
        raw_pvalues=raw,
        adjusted_pvalues=np.minimum(adjusted, 1.0),
        n_resamples=used,
        method="maxT step-down" if step_down else "maxT single-step",
    )

