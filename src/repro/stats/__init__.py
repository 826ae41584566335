"""Statistical machinery: efficient score statistics, SKAT, resampling.

Public surface:

- score models: :class:`~repro.stats.score.cox.CoxScoreModel`,
  :class:`~repro.stats.score.binomial.BinomialScoreModel`,
  :class:`~repro.stats.score.gaussian.GaussianScoreModel`;
- :func:`~repro.stats.skat.skat_statistics` aggregation;
- beta allele-frequency weights in :mod:`repro.stats.weights`;
- resampling inference in :mod:`repro.stats.resampling`, SKAT's Monte Carlo
  and permutation p-values and variant-level Westfall-Young maxT;
- asymptotic p-values in :mod:`repro.stats.asymptotic`;
- the Wald/LRT cost comparator in :mod:`repro.stats.wald` and score-test
  power in :mod:`repro.stats.power`, for study design.
"""

from repro.stats.score.base import (
    BinaryPhenotype,
    QuantitativePhenotype,
    ScoreModel,
    SurvivalPhenotype,
)
from repro.stats.score.binomial import BinomialScoreModel
from repro.stats.score.cox import CoxScoreModel
from repro.stats.score.gaussian import GaussianScoreModel
from repro.stats.skat import skat_statistic, skat_statistics
from repro.stats.weights import beta_maf_weights

__all__ = [
    "BinaryPhenotype",
    "BinomialScoreModel",
    "CoxScoreModel",
    "GaussianScoreModel",
    "QuantitativePhenotype",
    "ScoreModel",
    "SurvivalPhenotype",
    "beta_maf_weights",
    "skat_statistic",
    "skat_statistics",
]
