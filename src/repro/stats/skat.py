"""SKAT statistics: weighted aggregation of marginal scores into SNP-sets.

Paper, Section II::

    S_k = sum_{j in I_k} w_j^2 * U_j^2

with ``I_1 ... I_K`` a partition of the SNPs.  The partition is represented
as a ``set_ids`` vector mapping each SNP index to its set index, which is
both compact and exactly the join structure Algorithm 1 shuffles.

Per-set sums, one analysis or a batch of replicates, are one ``bincount``
over ``(row, set)`` bins (:func:`set_sums`): each set is summed in SNP
order whatever the batch, with NumPy alone.
"""

from __future__ import annotations

import numpy as np


def skat_statistic(scores: np.ndarray, weights: np.ndarray) -> float:
    """SKAT statistic for a single SNP-set given its members' scores."""
    scores = np.asarray(scores, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if scores.shape != weights.shape:
        raise ValueError("scores and weights must align")
    return float(np.sum((weights**2) * (scores**2)))


def validate_set_ids(set_ids: np.ndarray, n_sets: int, n_snps: int) -> np.ndarray:
    ids = np.asarray(set_ids)
    if ids.shape != (n_snps,):
        raise ValueError(f"set_ids must have shape ({n_snps},), got {ids.shape}")
    if not np.issubdtype(ids.dtype, np.integer):
        raise TypeError("set_ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= n_sets):
        raise ValueError("set_ids out of range")
    return ids


def skat_statistics(
    scores: np.ndarray,
    weights: np.ndarray,
    set_ids: np.ndarray,
    n_sets: int,
) -> np.ndarray:
    """SKAT statistics for every SNP-set.

    ``scores`` may be ``(J,)`` (one analysis) or ``(B, J)`` (a batch of
    resampling replicates); returns ``(K,)`` or ``(B, K)`` accordingly.
    """
    scores = np.asarray(scores, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    single = scores.ndim == 1
    if single:
        scores = scores[None, :]
    J = scores.shape[1]
    if weights.shape != (J,):
        raise ValueError(f"weights must have shape ({J},), got {weights.shape}")
    ids = validate_set_ids(set_ids, n_sets, J)
    out = set_sums((weights**2)[None, :] * scores**2, ids, n_sets)
    return out[0] if single else out


def set_sums(per_snp: np.ndarray, set_ids: np.ndarray, n_sets: int) -> np.ndarray:
    """``(B, J)`` per-SNP values -> ``(B, K)`` per-set sums.

    One ``bincount`` over ``(row, set)`` bins: every bin adds its values in
    SNP order, so a row's sums are those of a 1-D ``bincount`` of that row,
    bit for bit, and a set with no SNPs sums to 0.0.
    """
    B = per_snp.shape[0]
    bins = (np.arange(B)[:, None] * n_sets + set_ids[None, :]).ravel()
    return np.bincount(bins, weights=per_snp.ravel(), minlength=B * n_sets).reshape(B, n_sets)

