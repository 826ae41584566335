"""Power/sample-size calculations, checked against simulation."""

import numpy as np
import pytest

from repro.stats.power import (
    required_sample_size,
    score_test_power,
    unit_information,
)


class TestClosedForms:
    def test_information_peaks_at_half(self):
        assert unit_information(0.5, 1.0) > unit_information(0.1, 1.0)
        assert unit_information(0.5, 1.0) == pytest.approx(0.5)

    def test_power_monotone_in_n(self):
        powers = [score_test_power(n, 0.3, 0.3) for n in (50, 200, 800)]
        assert powers[0] < powers[1] < powers[2]

    def test_power_monotone_in_effect(self):
        assert score_test_power(200, 0.2, 0.3) < score_test_power(200, 0.6, 0.3)

    def test_null_power_is_alpha(self):
        assert score_test_power(500, 0.0, 0.3, alpha=0.05) == pytest.approx(0.05)

    def test_symmetric_in_effect_sign(self):
        assert score_test_power(200, 0.4, 0.3) == pytest.approx(
            score_test_power(200, -0.4, 0.3)
        )

    def test_sample_size_inverts_power(self):
        n = required_sample_size(0.4, 0.3, power=0.8)
        assert score_test_power(n, 0.4, 0.3) >= 0.8
        assert score_test_power(max(2, n - 30), 0.4, 0.3) < 0.82

    def test_genomewide_alpha_needs_more_patients(self):
        assert required_sample_size(0.3, 0.3, alpha=5e-8) > required_sample_size(
            0.3, 0.3, alpha=0.05
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"allele_frequency": 0.0},
            {"allele_frequency": 1.0},
            {"event_rate": 0.0},
            {"alpha": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        params = dict(n_patients=100, effect_size=0.3, allele_frequency=0.3)
        params.update({k: v for k, v in kwargs.items() if k in ("allele_frequency", "event_rate", "alpha")})
        with pytest.raises(ValueError):
            score_test_power(**params)

    def test_sample_size_validation(self):
        with pytest.raises(ValueError):
            required_sample_size(0.0, 0.3)
        with pytest.raises(ValueError):
            required_sample_size(0.3, 0.3, power=1.0)


class TestAgainstSimulation:
    def test_power_matches_monte_carlo(self):
        """The closed form should predict the empirical rejection rate of
        the actual score test within simulation error."""
        from repro.stats.score.base import SurvivalPhenotype
        from repro.stats.wald import score_test_statistics
        from scipy import stats as sps

        rng = np.random.default_rng(3)
        n, beta, p_allele, alpha = 250, 0.35, 0.3, 0.05
        predicted = score_test_power(n, beta, p_allele, event_rate=1.0, alpha=alpha)
        rejections = 0
        n_sims = 300
        crit = sps.chi2.isf(alpha, df=1)
        for _ in range(n_sims):
            g = rng.binomial(2, p_allele, n).astype(float)
            times = rng.exponential(np.exp(-beta * g) * 12.0)
            pheno = SurvivalPhenotype(times, np.ones(n))
            stat = score_test_statistics(pheno, g)[0]
            rejections += stat >= crit
        empirical = rejections / n_sims
        assert empirical == pytest.approx(predicted, abs=0.12)
