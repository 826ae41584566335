"""Asymptotic SKAT p-values: eigenvalue mixtures and tail approximations."""

import numpy as np
import pytest
from scipy import stats as sps

from repro.stats.asymptotic import (
    pvalue_imhof,
    pvalue_liu,
    pvalue_satterthwaite,
    skat_asymptotic_pvalues,
    skat_mixture_eigenvalues,
)
from repro.stats.resampling.montecarlo import MonteCarloResampler
from repro.stats.score.base import SurvivalPhenotype
from repro.stats.score.cox import CoxScoreModel
from repro.stats.skat import skat_statistics


class TestEigenvalues:
    def test_gram_spectra_agree(self, rng):
        U = rng.normal(size=(6, 40))  # m < n
        w = rng.uniform(0.5, 2.0, 6)
        lam_small = skat_mixture_eigenvalues(U, w)
        # compute via the big (n x n) Gram directly
        Uw = U * w[:, None]
        lam_big = np.linalg.eigvalsh(Uw.T @ Uw)
        lam_big = np.sort(lam_big[lam_big > 1e-8])[::-1]
        assert np.allclose(lam_small, lam_big, rtol=1e-8)

    def test_rank_bounded(self, rng):
        U = rng.normal(size=(20, 5))
        lam = skat_mixture_eigenvalues(U, np.ones(20))
        assert len(lam) <= 5

    def test_sum_is_trace(self, rng):
        U = rng.normal(size=(4, 30))
        w = rng.uniform(0.5, 2.0, 4)
        lam = skat_mixture_eigenvalues(U, w)
        assert lam.sum() == pytest.approx(np.sum((U * w[:, None]) ** 2), rel=1e-8)


class TestTailApproximations:
    def test_single_eigenvalue_is_chi2(self):
        """With one eigenvalue lambda, S/lambda ~ chi^2_1 exactly."""
        lam = np.array([2.5])
        for s in (0.1, 1.0, 5.0, 12.0):
            exact = sps.chi2.sf(s / 2.5, 1)
            assert pvalue_satterthwaite(s, lam) == pytest.approx(exact, rel=1e-10)
            assert pvalue_imhof(s, lam) == pytest.approx(exact, abs=5e-4)
            assert pvalue_liu(s, lam) == pytest.approx(exact, rel=0.05)

    def test_equal_eigenvalues_chi2_k(self):
        lam = np.ones(5) * 3.0
        for s in (5.0, 15.0, 40.0):
            exact = sps.chi2.sf(s / 3.0, 5)
            assert pvalue_satterthwaite(s, lam) == pytest.approx(exact, rel=1e-8)
            assert pvalue_imhof(s, lam) == pytest.approx(exact, abs=5e-4)

    def test_methods_agree_on_mixtures(self, rng):
        lam = rng.uniform(0.5, 3.0, 8)
        for s in (2.0, 10.0, 30.0):
            p_i = pvalue_imhof(s, lam)
            assert pvalue_liu(s, lam) == pytest.approx(p_i, abs=0.02)
            assert pvalue_satterthwaite(s, lam) == pytest.approx(p_i, abs=0.05)

    def test_monotone_decreasing_in_statistic(self, rng):
        lam = rng.uniform(0.5, 2.0, 6)
        grid = [pvalue_imhof(s, lam) for s in np.linspace(0.1, 50, 20)]
        assert all(a >= b - 1e-9 for a, b in zip(grid, grid[1:]))

    def test_empty_spectrum(self):
        assert pvalue_liu(1.0, np.array([])) == 1.0
        assert pvalue_imhof(1.0, np.array([])) == 1.0
        assert pvalue_satterthwaite(1.0, np.array([])) == 1.0

    def test_imhof_matches_simulation(self, rng):
        lam = np.array([3.0, 1.0, 0.5])
        z = rng.standard_normal((200_000, 3))
        samples = (z**2 * lam[None, :]).sum(axis=1)
        for s in (2.0, 6.0, 12.0):
            empirical = (samples >= s).mean()
            assert pvalue_imhof(s, lam) == pytest.approx(empirical, abs=0.005)


class TestEndToEnd:
    def test_asymptotic_matches_large_b_monte_carlo(self, rng):
        n, J, K = 60, 50, 4
        pheno = SurvivalPhenotype(rng.exponential(12, n), rng.binomial(1, 0.85, n))
        model = CoxScoreModel(pheno)
        G = rng.binomial(2, 0.3, size=(J, n)).astype(float)
        w = np.ones(J)
        ids = rng.integers(0, K, J)
        U = model.contributions(G)
        mc = MonteCarloResampler(U, w, ids, K).run(4000, seed=11)
        asym = skat_asymptotic_pvalues(U, w, ids, K, method="imhof")
        assert np.all(np.abs(mc.pvalues() - asym) < 0.05)

    def test_default_observed_computed(self, rng):
        U = rng.normal(size=(10, 20))
        w = np.ones(10)
        ids = np.zeros(10, dtype=int)
        p1 = skat_asymptotic_pvalues(U, w, ids, 1)
        obs = skat_statistics(U.sum(axis=1), w, ids, 1)
        p2 = skat_asymptotic_pvalues(U, w, ids, 1, observed=obs)
        assert np.allclose(p1, p2)

    def test_unknown_method_rejected(self, rng):
        with pytest.raises(ValueError):
            skat_asymptotic_pvalues(np.zeros((2, 3)), np.ones(2), np.zeros(2, dtype=int), 1, method="magic")

    def test_empty_set_pvalue_one(self, rng):
        U = rng.normal(size=(3, 10))
        p = skat_asymptotic_pvalues(U, np.ones(3), np.zeros(3, dtype=int), 2)
        assert p[1] == 1.0
