"""Phenotype containers and the score-model interface.

A *score model* encapsulates a phenotype and its null model.  Its job is to
produce the per-patient score contributions ``U[j, i]`` for a block of SNP
genotypes: ``U_j = sum_i U[j, i]`` is the marginal efficient score for SNP
``j`` (paper, Section II).  The contributions matrix -- not just its row
sums -- is what Monte Carlo resampling reuses
(``U~_j = sum_i Z_i U[j, i]``, Lin 2005), which is why SparkScore caches it.
The row sums alone are one matrix-vector product, ``U_j = G_j . c`` with
``c`` the model's :meth:`~ScoreModel.score_weights`, and a permuted
replicate is the same product against ``c[perm]``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np


def _as_1d_float(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class SurvivalPhenotype:
    """Censored time-to-event outcome: ``(Y_i, Delta_i)`` pairs.

    ``time`` is the observed time (death or last follow-up); ``event`` is 1
    for an observed death, 0 for censoring (paper, Section II).
    """

    time: np.ndarray
    event: np.ndarray

    def __post_init__(self) -> None:
        time = _as_1d_float(self.time, "time")
        event = np.asarray(self.event)
        if event.shape != time.shape:
            raise ValueError(f"time {time.shape} and event {event.shape} shapes differ")
        event = event.astype(np.float64)
        if not np.isin(event, (0.0, 1.0)).all():
            raise ValueError("event indicators must be 0 or 1")
        if np.any(time < 0):
            raise ValueError("times must be non-negative")
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "event", event)

    @property
    def n(self) -> int:
        return self.time.shape[0]

    def permuted(self, perm: np.ndarray) -> "SurvivalPhenotype":
        """Shuffle the (time, event) pairs among patients jointly."""
        return SurvivalPhenotype(self.time[perm], self.event[perm])


@dataclass(frozen=True)
class BinaryPhenotype:
    """Case/control outcome with optional baseline covariates."""

    y: np.ndarray
    covariates: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=np.float64)
        if y.ndim != 1 or y.size == 0:
            raise ValueError("y must be a non-empty vector")
        if not np.isin(y, (0.0, 1.0)).all():
            raise ValueError("binary outcome must be 0/1")
        object.__setattr__(self, "y", y)
        if self.covariates is not None:
            X = np.atleast_2d(np.asarray(self.covariates, dtype=np.float64))
            if X.shape[0] != y.shape[0]:
                raise ValueError("covariates rows must match y length")
            object.__setattr__(self, "covariates", X)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def permuted(self, perm: np.ndarray) -> "BinaryPhenotype":
        cov = self.covariates[perm] if self.covariates is not None else None
        return BinaryPhenotype(self.y[perm], cov)


@dataclass(frozen=True)
class QuantitativePhenotype:
    """Continuous outcome (e.g. expression level for eQTL) with covariates."""

    y: np.ndarray
    covariates: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        y = _as_1d_float(self.y, "y")
        object.__setattr__(self, "y", y)
        if self.covariates is not None:
            X = np.atleast_2d(np.asarray(self.covariates, dtype=np.float64))
            if X.shape[0] != y.shape[0]:
                raise ValueError("covariates rows must match y length")
            object.__setattr__(self, "covariates", X)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def permuted(self, perm: np.ndarray) -> "QuantitativePhenotype":
        cov = self.covariates[perm] if self.covariates is not None else None
        return QuantitativePhenotype(self.y[perm], cov)


class ScoreModel(abc.ABC):
    """Produces per-patient score contributions for SNP genotype blocks."""

    @property
    @abc.abstractmethod
    def n_patients(self) -> int:
        """Number of patients (columns of every genotype block)."""

    @abc.abstractmethod
    def contributions(self, genotypes: np.ndarray) -> np.ndarray:
        """Per-patient score contributions.

        ``genotypes`` is SNP-major ``(m, n)``: ``m`` SNPs by ``n`` patients.
        Returns ``U`` of the same shape with ``U[j, i]`` = patient ``i``'s
        contribution to SNP ``j``'s score.
        """

    @abc.abstractmethod
    def score_weights(self) -> np.ndarray:
        """The ``(n,)`` vector ``c`` with ``scores(G) == G @ c``.

        Every score here is linear in the genotypes, and shuffling the
        phenotype pairs jointly (covariates travel with the outcome) only
        permutes ``c``: ``permuted(perm).score_weights()`` equals
        ``score_weights()[perm]``.  Both identities hold to rounding.
        """

    @abc.abstractmethod
    def permuted(self, perm: np.ndarray) -> "ScoreModel":
        """A new model with the phenotype shuffled among patients."""

    def scores(self, genotypes: np.ndarray) -> np.ndarray:
        """Marginal scores ``U_j = sum_i U[j, i]`` for a block of SNPs."""
        return self._check_block(genotypes) @ self.score_weights()

    def _check_block(self, genotypes: np.ndarray) -> np.ndarray:
        block = np.asarray(genotypes, dtype=np.float64)
        if block.ndim == 1:
            block = block[None, :]
        if block.ndim != 2 or block.shape[1] != self.n_patients:
            raise ValueError(
                f"genotype block must be (m, {self.n_patients}), got {block.shape}"
            )
        return block
