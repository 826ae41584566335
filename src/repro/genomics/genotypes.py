"""SNP-major genotype matrix container."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np


#: how a dosage outside 0/1/2 is refused (the file readers add where)
DOSAGE_RANGE_ERROR = "genotype dosages must be 0, 1, or 2"


@dataclass
class GenotypeMatrix:
    """Genotypes for J SNPs x n patients, stored SNP-major as int8 (0/1/2).

    SNP-major layout matches the distribution axis: SparkScore partitions
    work by SNP, and each RDD record carries one SNP's patient vector.
    """

    snp_ids: np.ndarray  # (J,) integer SNP identifiers
    matrix: np.ndarray  # (J, n) int8 genotype dosages

    def __post_init__(self) -> None:
        self.snp_ids = np.asarray(self.snp_ids)
        self.matrix = np.asarray(self.matrix)
        if self.matrix.ndim != 2:
            raise ValueError("matrix must be 2-D (SNPs x patients)")
        if self.snp_ids.shape != (self.matrix.shape[0],):
            raise ValueError("snp_ids must align with matrix rows")
        if not np.issubdtype(self.snp_ids.dtype, np.integer):
            raise TypeError("snp_ids must be integers")
        if self.matrix.dtype != np.int8:
            values = np.asarray(self.matrix)
            if values.size and (values.min() < -128 or values.max() > 127):
                raise ValueError("genotype dosages out of int8 range")
            self.matrix = values.astype(np.int8)
        if self.matrix.size and (self.matrix.min() < 0 or self.matrix.max() > 2):
            raise ValueError(DOSAGE_RANGE_ERROR)
        # sort-and-compare: NumPy's hash-based unique holds a table several
        # times the ids' size; a sorted copy is one more id vector
        ids = np.sort(self.snp_ids)
        if (ids[1:] == ids[:-1]).any():
            raise ValueError("snp_ids must be unique")

    @property
    def n_snps(self) -> int:
        return self.snp_ids.shape[0]

    @property
    def n_patients(self) -> int:
        return self.matrix.shape[1]

    @property
    def nbytes(self) -> int:
        return int(self.matrix.nbytes + self.snp_ids.nbytes)

    def minor_allele_frequencies(self) -> np.ndarray:
        freq = self.matrix.mean(axis=1, dtype=np.float64) / 2.0
        return np.minimum(freq, 1.0 - freq)

    def allele_frequencies(self) -> np.ndarray:
        """Raw alternate-allele frequencies (the generator's rho_j)."""
        return self.matrix.mean(axis=1, dtype=np.float64) / 2.0

    def rows(self) -> Iterator[tuple[int, np.ndarray]]:
        """(snp_id, genotype vector) records -- Algorithm 1's GM RDD shape."""
        for j in range(self.n_snps):
            yield int(self.snp_ids[j]), self.matrix[j]

    def blocks(self, block_size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(ids, sub-matrix) chunks for the vectorized algorithm flavor."""
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        for start in range(0, self.n_snps, block_size):
            end = min(self.n_snps, start + block_size)
            yield self.snp_ids[start:end], self.matrix[start:end]

    def subset(self, row_indices: np.ndarray) -> "GenotypeMatrix":
        return GenotypeMatrix(self.snp_ids[row_indices], self.matrix[row_indices])

    def __repr__(self) -> str:
        return f"GenotypeMatrix({self.n_snps} SNPs x {self.n_patients} patients)"


class DeferredGenotypeMatrix(GenotypeMatrix):
    """A genotype matrix that knows its ids and shape and reads its dosages
    on the first touch of ``matrix``.

    What ``SparkScoreAnalysis.from_files(engine="distributed")`` holds: the
    engine's tasks read the genotype file themselves, so the driver loads
    it only for an analysis that needs the dense matrix (``asymptotic``,
    ``marginal_scores``, ``variant_maxt``).  ``load()`` returns the
    validated ``(J, n)`` int8 matrix, rows in ``snp_ids`` order.
    """

    def __init__(
        self, snp_ids: np.ndarray, n_patients: int, load: Callable[[], np.ndarray]
    ) -> None:
        self.snp_ids = np.asarray(snp_ids)
        self._n_patients = n_patients
        self._load = load

    @property
    def n_patients(self) -> int:
        return self._n_patients

    def __getattr__(self, name: str) -> np.ndarray:
        # reached only while ``matrix`` is not in the instance dict
        if name != "matrix":
            raise AttributeError(name)
        self.matrix = self._load()
        return self.matrix
