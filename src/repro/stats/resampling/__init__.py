"""Resampling inference for SKAT statistics: permutation and Monte Carlo."""

from repro.stats.resampling.driver import exceedances, resample
from repro.stats.resampling.montecarlo import MonteCarloResampler
from repro.stats.resampling.multipletesting import MaxTResult, westfall_young_maxt
from repro.stats.resampling.permutation import PermutationResampler
from repro.stats.resampling.pvalues import empirical_pvalues

__all__ = [
    "MaxTResult",
    "MonteCarloResampler",
    "PermutationResampler",
    "empirical_pvalues",
    "exceedances",
    "resample",
    "westfall_young_maxt",
]
