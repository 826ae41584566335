"""Gaussian (linear model) efficient score for quantitative phenotypes.

Used for eQTL-style analyses (paper abstract: "can be readily extended to
... expression quantitative trait loci (eQTL) ... studies").
"""

from __future__ import annotations

from repro.stats.score.base import QuantitativePhenotype
from repro.stats.score.glm import GlmScoreModel, fit_gaussian_null


class GaussianScoreModel(GlmScoreModel):
    """Score contributions ``U_ij = (Y_i - mu_hat_i) * G_adj_ij / sigma^2``."""

    def __init__(self, phenotype: QuantitativePhenotype, adjust_genotypes: bool = True) -> None:
        super().__init__(phenotype, adjust_genotypes)
        self._fit = fit_gaussian_null(phenotype.y, phenotype.covariates)
        self._residuals = (phenotype.y - self._fit.mu) / self._fit.dispersion

    @property
    def sigma2(self) -> float:
        return self._fit.dispersion
