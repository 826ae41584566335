"""SNP block records for the vectorized algorithm flavor.

The paper's Algorithm 1 keys every RDD record by a single SNP.  That is
faithful but pays per-record overhead for every genotype row; the
``"vectorized"`` flavor instead carries *blocks* of SNP rows per record so
each map task is a handful of NumPy kernel calls.  A block carries its
members' weights and set assignments, resolved once at construction, plus a
dense indicator over the sets it holds, built on first use and cached, for
aggregating a batch of replicates.  Its rows are the genotypes as parsed
(int8 on every engine route): a block is what the engine keeps resident,
and every replicate is a product with those rows (``stats.score.base``).

Blocks are cut from ``(snp_ids, matrix)`` chunks -- a parsed split of the
genotype file, or a slice of an in-memory matrix -- by
:meth:`SnpLookup.blocks`, the one builder: ids are joined to weights and
sets on arrays, and a block's rows are a view of the chunk's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np


@dataclass
class SnpBlock:
    """A chunk of SNP rows with pre-resolved weights and set assignments."""

    snp_ids: np.ndarray  # (m,) SNP identifiers
    set_ids: np.ndarray  # (m,) SNP-set index per row
    weights_sq: np.ndarray  # (m,) omega_j^2 per row
    genotypes: np.ndarray  # (m, n) dosages (any numeric dtype)
    n_sets: int
    _indicator: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        m = self.genotypes.shape[0]
        if not (self.snp_ids.shape == self.set_ids.shape == self.weights_sq.shape == (m,)):
            raise ValueError("block arrays must align with genotype rows")

    @property
    def n_snps(self) -> int:
        return self.genotypes.shape[0]

    def _held_sets(self) -> tuple[np.ndarray, np.ndarray]:
        """``(k_b,)`` sets this block holds and the dense ``(m, k_b)``
        indicator of its rows in them, built once and cached on the block."""
        if self._indicator is None:
            held, column = np.unique(self.set_ids, return_inverse=True)
            indicator = np.zeros((self.n_snps, held.size))
            indicator[np.arange(self.n_snps), column] = 1.0
            self._indicator = held, indicator
        return self._indicator

    def aggregate_per_snp(self, per_snp: np.ndarray) -> np.ndarray:
        """Sum per-SNP values into per-set partials.

        ``per_snp`` is ``(m,)`` or ``(b, m)``; returns ``(K,)`` or ``(b, K)``.
        """
        if per_snp.ndim == 1:
            return np.bincount(self.set_ids, weights=per_snp, minlength=self.n_sets)
        held, indicator = self._held_sets()
        out = np.zeros((per_snp.shape[0], self.n_sets))
        out[:, held] = per_snp @ indicator
        return out

    def skat_partial(self, scores: np.ndarray) -> np.ndarray:
        """Per-set SKAT partials from marginal scores for this block's SNPs."""
        return self.aggregate_per_snp(self.weights_sq * np.square(scores))

    def skat_partial_rows(self, score_rows: np.ndarray) -> np.ndarray:
        """(b, K) partials, one bincount pass per replicate row.

        Row by row through the 1-D ``skat_partial`` path, a replicate's
        partial is the same sequential sum whatever batch it rides in.  The
        2-D path's GEMM against the indicator leaves the order of the
        per-set additions to BLAS, so it is held only to rounding.
        """
        rows = np.atleast_2d(score_rows)
        return np.stack([self.skat_partial(row) for row in rows])


@dataclass(frozen=True)
class SnpLookup:
    """SNP id -> (set index, squared weight) as arrays sorted by id.

    The one thing the block builder needs of the weight and SNP-set files,
    in the form it is broadcast: three ``(M,)`` arrays, joined to a chunk of
    genotype rows by one ``searchsorted``, and each set's SNP count -- a
    task holding that many of a set's rows holds the whole set.
    """

    snp_ids: np.ndarray  # (M,) int64, ascending
    set_ids: np.ndarray  # (M,) int64
    weights_sq: np.ndarray  # (M,) float64
    n_sets: int
    set_sizes: np.ndarray  # (K,) int64 SNPs per set

    @classmethod
    def from_arrays(
        cls, snp_ids: np.ndarray, set_ids: np.ndarray, weights_sq: np.ndarray, n_sets: int
    ) -> "SnpLookup":
        snp_ids = np.asarray(snp_ids, dtype=np.int64)
        set_ids = np.asarray(set_ids, dtype=np.int64)
        order = np.argsort(snp_ids, kind="stable")
        return cls(
            snp_ids[order],
            set_ids[order],
            np.asarray(weights_sq, dtype=np.float64)[order],
            n_sets,
            np.bincount(set_ids, minlength=n_sets),
        )

    def blocks(
        self, snp_ids: np.ndarray, matrix: np.ndarray, block_size: int
    ) -> Iterator[SnpBlock]:
        """A chunk of genotype rows -> :class:`SnpBlock` s of ``block_size`` rows.

        Rows whose SNP id the lookup does not hold are dropped -- this is
        Algorithm 1's filter against the union of the SNP-sets.  Blocks of
        a chunk with nothing to drop are views of ``matrix``.
        """
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        at = np.searchsorted(self.snp_ids, snp_ids)
        known = at < self.snp_ids.size
        known[known] = self.snp_ids[at[known]] == snp_ids[known]
        if not known.all():
            snp_ids, matrix, at = snp_ids[known], matrix[known], at[known]
        for start in range(0, snp_ids.size, block_size):
            rows = slice(start, start + block_size)
            yield SnpBlock(
                snp_ids[rows], self.set_ids[at[rows]], self.weights_sq[at[rows]],
                matrix[rows], self.n_sets,
            )


def build_blocks(
    rows: Iterable[tuple[int, np.ndarray]],
    set_map: Mapping[int, int],
    weight_sq_map: Mapping[int, float],
    n_sets: int,
    block_size: int,
) -> Iterator[SnpBlock]:
    """Per-SNP ``(id, vector)`` records -> :class:`SnpBlock` chunks.

    The record-fed spelling of :meth:`SnpLookup.blocks` (which the engine
    feeds whole chunks); records whose SNP id is absent from ``set_map``
    are dropped.
    """
    kept = [(snp_id, vector) for snp_id, vector in rows if snp_id in set_map]
    if not kept:
        return iter(())
    ids = [snp_id for snp_id, _ in kept]
    lookup = SnpLookup.from_arrays(
        ids, [set_map[i] for i in ids], [weight_sq_map[i] for i in ids], n_sets
    )
    matrix = np.vstack([vector for _, vector in kept])
    return lookup.blocks(np.array(ids, dtype=np.int64), matrix, block_size)
