"""SKAT statistics: weighted aggregation of marginal scores into SNP-sets.

Paper, Section II::

    S_k = sum_{j in I_k} w_j^2 * U_j^2

with ``I_1 ... I_K`` a partition of the SNPs.  The partition is represented
as a ``set_ids`` vector mapping each SNP index to its set index, which is
both compact and exactly the join structure Algorithm 1 shuffles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from scipy import sparse


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
    B, J = scores.shape
    if weights.shape != (J,):
        raise ValueError(f"weights must have shape ({J},), got {weights.shape}")
    ids = validate_set_ids(set_ids, n_sets, J)
    per_snp = (weights**2)[None, :] * scores**2
    if B == 1:
        out = np.bincount(ids, weights=per_snp[0], minlength=n_sets)[None, :]
    else:
        out = per_snp @ membership_matrix(ids, n_sets).T
        out = np.asarray(out)
    return out[0] if single else out


def membership_matrix(set_ids: np.ndarray, n_sets: int) -> sparse.csr_matrix:
    """Sparse (K, J) indicator matrix: row k marks the SNPs in set k."""
    from scipy import sparse

    J = set_ids.shape[0]
    data = np.ones(J)
    return sparse.csr_matrix((data, (set_ids, np.arange(J))), shape=(n_sets, J))


def set_sizes(set_ids: np.ndarray, n_sets: int) -> np.ndarray:
    return np.bincount(set_ids, minlength=n_sets)
