"""Power and sample-size calculations for score-based SNP association tests.

Follows the approach of Owzar, Li, Cox & Jung (2012) -- the paper's
refs. [25]/[26] -- for censored time-to-event outcomes: under a local
alternative with per-allele log hazard ratio ``beta``, the standardized
Cox score statistic is asymptotically ``N(beta * sqrt(n * I1), 1)`` where
``I1`` is the unit (per-patient) Fisher information.  For an additive SNP
with allele frequency ``p`` and event probability ``d`` (the expected
fraction of uncensored patients), ``I1 = d * 2p(1-p)``.

These closed forms answer the planning questions a resampling study
raises -- how many patients, and (via
:func:`repro.stats.resampling.pvalues.required_resamples`) how many
replicates.
"""

from __future__ import annotations

import numpy as np


def unit_information(allele_frequency: float, event_rate: float) -> float:
    """Per-patient Fisher information for an additive Cox SNP effect."""
    if not 0.0 < allele_frequency < 1.0:
        raise ValueError("allele_frequency must be in (0, 1)")
    if not 0.0 < event_rate <= 1.0:
        raise ValueError("event_rate must be in (0, 1]")
    genotype_variance = 2.0 * allele_frequency * (1.0 - allele_frequency)
    return event_rate * genotype_variance


def score_test_power(
    n_patients: int,
    effect_size: float,
    allele_frequency: float,
    event_rate: float = 0.85,
    alpha: float = 0.05,
) -> float:
    """Power of the two-sided marginal score test.

    ``effect_size`` is the per-allele log hazard ratio; ``alpha`` the
    two-sided significance level (use a Bonferroni-style per-test level
    for genome-wide settings, e.g. 5e-8).
    """
    if n_patients < 1:
        raise ValueError("n_patients must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    from scipy import stats as sps

    info = unit_information(allele_frequency, event_rate)
    ncp = abs(effect_size) * np.sqrt(n_patients * info)
    z = sps.norm.isf(alpha / 2.0)
    return float(sps.norm.sf(z - ncp) + sps.norm.cdf(-z - ncp))


def required_sample_size(
    effect_size: float,
    allele_frequency: float,
    event_rate: float = 0.85,
    alpha: float = 0.05,
    power: float = 0.8,
) -> int:
    """Patients needed for the score test to reach the target power."""
    if effect_size == 0.0:
        raise ValueError("effect_size must be nonzero")
    if not 0.0 < power < 1.0:
        raise ValueError("power must be in (0, 1)")
    from scipy import stats as sps

    info = unit_information(allele_frequency, event_rate)
    z_alpha = sps.norm.isf(alpha / 2.0)
    z_power = sps.norm.isf(1.0 - power)
    # solve Phi(ncp - z_alpha) = power  =>  ncp = z_alpha + z_power
    n = ((z_alpha + z_power) / abs(effect_size)) ** 2 / info
    return int(np.ceil(n))

