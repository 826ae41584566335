"""SNP-set (gene/pathway) partitions of the SNPs.

The paper analyzes a *partition*: each SNP belongs to exactly one set
``I_k``, and "the SNP-set K is augmented by the SNPs not picked by SNP-sets
1 through K-1" so every SNP's computation is accounted for.  The partition
is stored as a ``set_ids`` vector over SNP row indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.genomics.variants import Gene, Snp


@dataclass
class SnpSetCollection:
    """A partition of SNP rows into K named sets."""

    set_ids: np.ndarray  # (J,) set index per SNP row
    names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        ids = np.asarray(self.set_ids)
        if ids.ndim != 1:
            raise ValueError("set_ids must be a vector")
        if not np.issubdtype(ids.dtype, np.integer):
            raise TypeError("set_ids must be integers")
        if ids.size and ids.min() < 0:
            raise ValueError("set ids must be non-negative")
        self.set_ids = ids.astype(np.int64, copy=False)
        k = int(ids.max()) + 1 if ids.size else 0
        if not self.names:
            self.names = [f"set{k_idx:05d}" for k_idx in range(k)]
        if len(self.names) < k:
            raise ValueError(f"{k} sets referenced but only {len(self.names)} names")

    @property
    def n_sets(self) -> int:
        return len(self.names)

    @property
    def n_snps(self) -> int:
        return self.set_ids.shape[0]

    def members(self, k: int) -> np.ndarray:
        """SNP row indices belonging to set ``k``."""
        if not 0 <= k < self.n_sets:
            raise IndexError(f"set index {k} out of range")
        return np.flatnonzero(self.set_ids == k)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.set_ids, minlength=self.n_sets)

    @classmethod
    def from_lists(
        cls, snp_ids: np.ndarray, sets: dict[str, Sequence[int]]
    ) -> "SnpSetCollection":
        """Build from {name: [snp ids]}; every SNP must appear exactly once.

        Joined on arrays, one ``searchsorted`` against the sorted ids; the
        first member, in set then list order, that names an unknown SNP or
        one already placed is the error.
        """
        snp_ids = np.asarray(snp_ids, dtype=np.int64)
        names = list(sets)
        members = [np.asarray(ids, dtype=np.int64) for ids in sets.values()]
        owner = np.repeat(np.arange(len(names)), [m.size for m in members])
        members = np.concatenate([np.empty(0, np.int64), *members])
        order = np.argsort(snp_ids, kind="stable")
        at = np.searchsorted(snp_ids, members, sorter=order)
        known = at < snp_ids.size
        rows = np.full(members.size, -1)
        rows[known] = order[at[known]]
        known[known] = snp_ids[rows[known]] == members[known]
        repeat = np.ones(members.size, bool)
        repeat[np.unique(np.where(known, rows, -1), return_index=True)[1]] = False
        bad = ~known | repeat
        if bad.any():
            i = int(np.argmax(bad))
            if not known[i]:
                raise ValueError(f"set {names[owner[i]]!r} references unknown SNP {members[i]}")
            raise ValueError(f"SNP {members[i]} appears in more than one set")
        set_ids = np.full(snp_ids.size, -1, dtype=np.int64)
        set_ids[rows] = owner
        if np.any(set_ids == -1):
            missing = snp_ids[set_ids == -1][:5]
            raise ValueError(f"SNPs not covered by any set (e.g. {missing.tolist()})")
        return cls(set_ids, names)

    @classmethod
    def from_genes(cls, snps: list[Snp], genes: list[Gene]) -> "SnpSetCollection":
        """Assign each SNP to the first gene containing it.

        SNPs outside every gene go to a trailing "intergenic" set, mirroring
        the paper's augmentation of the last set.
        """
        set_ids = np.full(len(snps), -1, dtype=np.int64)
        for row, snp in enumerate(snps):
            for k, gene in enumerate(genes):
                if gene.contains(snp):
                    set_ids[row] = k
                    break
        names = [g.label for g in genes]
        if np.any(set_ids == -1):
            names = names + ["intergenic"]
            set_ids[set_ids == -1] = len(names) - 1
        return cls(set_ids, names)
