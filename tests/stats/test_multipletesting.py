"""Westfall-Young maxT."""

import numpy as np
import pytest

from repro.stats.resampling.multipletesting import (
    standardized_statistics,
    westfall_young_maxt,
)
from repro.stats.score.base import SurvivalPhenotype
from repro.stats.score.cox import CoxScoreModel


@pytest.fixture(scope="module")
def null_contributions():
    rng = np.random.default_rng(5)
    pheno = SurvivalPhenotype(rng.exponential(12, 80), rng.binomial(1, 0.85, 80))
    G = rng.binomial(2, 0.3, size=(60, 80)).astype(float)
    return CoxScoreModel(pheno).contributions(G)


@pytest.fixture(scope="module")
def signal_contributions():
    rng = np.random.default_rng(6)
    n = 300
    g_causal = rng.binomial(2, 0.3, n).astype(float)
    rates = np.exp(0.9 * g_causal) / 12.0
    pheno = SurvivalPhenotype(rng.exponential(1.0 / rates), rng.binomial(1, 0.9, n))
    G = rng.binomial(2, 0.3, size=(40, n)).astype(float)
    G[0] = g_causal
    return CoxScoreModel(pheno).contributions(G)


class TestStandardized:
    def test_monomorphic_zero(self, null_contributions):
        U = null_contributions.copy()
        U[3] = 0.0
        t = standardized_statistics(U)
        assert t[3] == 0.0
        assert np.all(np.isfinite(t))

    def test_scale_invariance(self, null_contributions):
        a = standardized_statistics(null_contributions)
        b = standardized_statistics(3.5 * null_contributions)
        assert np.allclose(a, b)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            standardized_statistics(np.zeros(5))


class TestMaxT:
    def test_adjusted_geq_raw(self, null_contributions):
        result = westfall_young_maxt(null_contributions, 300, seed=1)
        assert np.all(result.adjusted_pvalues >= result.raw_pvalues - 1e-12)

    def test_single_step_geq_step_down(self, null_contributions):
        down = westfall_young_maxt(null_contributions, 300, seed=1, step_down=True)
        single = westfall_young_maxt(null_contributions, 300, seed=1, step_down=False)
        assert np.all(single.adjusted_pvalues >= down.adjusted_pvalues - 1e-12)

    def test_adjusted_leq_bonferroni(self, null_contributions):
        result = westfall_young_maxt(null_contributions, 500, seed=2)
        bonf = np.minimum(result.raw_pvalues * result.raw_pvalues.size, 1.0)
        # WY exploits correlation: adjusted p never exceeds Bonferroni by
        # more than Monte Carlo noise
        assert np.all(result.adjusted_pvalues <= bonf + 0.1)

    def test_monotone_in_statistics(self, null_contributions):
        result = westfall_young_maxt(null_contributions, 200, seed=3)
        order = np.argsort(-result.statistics)
        adj = result.adjusted_pvalues[order]
        assert np.all(np.diff(adj) >= -1e-12)

    def test_causal_snp_survives_adjustment(self, signal_contributions):
        result = westfall_young_maxt(signal_contributions, 1000, seed=4)
        assert result.adjusted_pvalues[0] <= 0.05
        assert 0 in result.significant(0.05)

    def test_null_fwer_controlled(self, null_contributions):
        result = westfall_young_maxt(null_contributions, 500, seed=5)
        # under the global null, few (usually zero) discoveries at 5%
        assert len(result.significant(0.05)) <= 2

    def test_batch_size_invariance(self, null_contributions):
        a = westfall_young_maxt(null_contributions, 100, seed=6, batch_size=7)
        b = westfall_young_maxt(null_contributions, 100, seed=6, batch_size=100)
        assert np.array_equal(a.adjusted_pvalues, b.adjusted_pvalues)

    def test_validation(self, null_contributions):
        with pytest.raises(ValueError):
            westfall_young_maxt(null_contributions, 0)
        with pytest.raises(ValueError):
            westfall_young_maxt(np.zeros(4), 10)

    def test_pvalues_in_range(self, null_contributions):
        result = westfall_young_maxt(null_contributions, 50, seed=7)
        for p in (result.raw_pvalues, result.adjusted_pvalues):
            assert np.all((p > 0) & (p <= 1))

