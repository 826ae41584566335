"""Study design: how many patients, how many replicates?

Chains two planning tools this repository provides around the paper's
workflow:

1. statistical power (Owzar et al., the paper's refs. [25]/[26]) -- how
   many patients does the score test need for a target effect?
2. resampling budget -- how many Monte Carlo replicates to estimate the
   target p-value precisely enough (the paper: "the precision of the
   p-value is ... directly tied to the number of resamplings performed")?

Finishes with a small live simulation confirming the power prediction.

Run:  python examples/study_design.py
"""

from __future__ import annotations

import numpy as np

from repro.stats.power import required_sample_size, score_test_power
from repro.stats.resampling.pvalues import required_resamples


def main() -> None:
    # --- 1. sample size -------------------------------------------------------
    effect = 0.35          # per-allele log hazard ratio we must not miss
    maf = 0.25             # design allele frequency
    event_rate = 0.85      # the paper's synthetic event rate
    alpha_per_set = 0.05 / 1000  # Bonferroni across 1000 SNP-sets

    n = required_sample_size(effect, maf, event_rate, alpha=alpha_per_set, power=0.9)
    print(f"target: 90% power for beta={effect}, MAF={maf}, alpha={alpha_per_set:.2g}")
    print(f"  -> required patients: {n}")
    for trial_n in (n // 2, n, 2 * n):
        print(f"     power at n={trial_n}: "
              f"{score_test_power(trial_n, effect, maf, event_rate, alpha_per_set):.3f}")

    # --- 2. resampling budget ---------------------------------------------------
    B = required_resamples(alpha_per_set, relative_error=0.1)
    print(f"\nestimating p ~ {alpha_per_set:.2g} to 10% relative error needs "
          f"B ~ {B:,} Monte Carlo replicates")

    # --- 3. verify the power prediction with a live mini-simulation -----------------
    from repro.stats.score.base import SurvivalPhenotype
    from repro.stats.wald import score_test_statistics
    from scipy import stats as sps

    rng = np.random.default_rng(42)
    sims, hits = 150, 0
    crit = sps.chi2.isf(alpha_per_set, df=1)
    for _ in range(sims):
        g = rng.binomial(2, maf, n).astype(float)
        times = rng.exponential(np.exp(-effect * g) * 12.0)
        events = rng.binomial(1, event_rate, n)
        stat = score_test_statistics(SurvivalPhenotype(times, events), g)[0]
        hits += stat >= crit
    predicted = score_test_power(n, effect, maf, event_rate, alpha_per_set)
    print(f"\nempirical power over {sims} simulated studies: {hits/sims:.2f} "
          f"(closed form predicted {predicted:.2f})")


if __name__ == "__main__":
    main()
