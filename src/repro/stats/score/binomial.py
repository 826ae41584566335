"""Binomial (logistic) efficient score for case/control phenotypes."""

from __future__ import annotations

import numpy as np

from repro.stats.score.base import BinaryPhenotype
from repro.stats.score.glm import GlmScoreModel, fit_binomial_null


class BinomialScoreModel(GlmScoreModel):
    """Score contributions ``U_ij = (Y_i - mu_hat_i) * G_adj_ij``.

    The null model (intercept + covariates) is fit once by IRLS.
    """

    def __init__(self, phenotype: BinaryPhenotype, adjust_genotypes: bool = True) -> None:
        super().__init__(phenotype, adjust_genotypes)
        self._fit = fit_binomial_null(phenotype.y, phenotype.covariates)
        self._residuals = phenotype.y - self._fit.mu

    @property
    def fitted_means(self) -> np.ndarray:
        return self._fit.mu
