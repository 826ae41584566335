"""SNP weighting schemes for SKAT aggregation.

The paper: "SNPs could be weighted by the quality of the genotyping
results, their relative allelic frequency, or by the probability that a
mutation at that locus is detrimental."  The frequency-based choice SKAT
uses by default, Wu et al.'s beta density, is implemented here; arbitrary
per-SNP quality weights are just an array the caller supplies.
"""

from __future__ import annotations

import numpy as np


def _check_maf(maf: np.ndarray) -> np.ndarray:
    arr = np.asarray(maf, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("maf must be a vector")
    if np.any((arr < 0) | (arr > 1)):
        raise ValueError("minor allele frequencies must lie in [0, 1]")
    return arr


def beta_maf_weights(maf, a: float = 1.0, b: float = 25.0) -> np.ndarray:
    """Wu et al. (2011) SKAT weights: ``Beta(maf; a, b)`` density.

    The default (1, 25) sharply up-weights rare variants.
    """
    from scipy import stats as sps

    arr = _check_maf(maf)
    return sps.beta.pdf(np.clip(arr, 1e-12, 1 - 1e-12), a, b)


def estimate_maf(genotypes: np.ndarray) -> np.ndarray:
    """Empirical minor allele frequency per SNP from a (m, n) 0/1/2 matrix."""
    G = np.asarray(genotypes, dtype=np.float64)
    if G.ndim == 1:
        G = G[None, :]
    freq = G.mean(axis=1) / 2.0
    return np.minimum(freq, 1.0 - freq)
