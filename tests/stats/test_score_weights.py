"""The score-weight and adjoint contract every :class:`ScoreModel` signs.

``scores(G) == G @ score_weights()`` and
``permuted(perm).score_weights() == score_weights()[perm]``, both to
rounding, held against the routes that do not use the weights: the
per-patient contributions summed over patients, a model refit on the
shuffled phenotype, and for Cox the O(m n^2) defining formula.  And
``adjoint(Z) @ G.T == Z @ contributions(G).T``, the identity the engine's
Monte Carlo runs on in place of a cached ``U``, with ``score_weights()``
the adjoint of a ones row.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.stats.score.base import (
    BinaryPhenotype,
    QuantitativePhenotype,
    ScoreModel,
    SurvivalPhenotype,
)
from repro.stats.score.binomial import BinomialScoreModel
from repro.stats.score.cox import CoxScoreModel, cox_contributions_naive
from repro.stats.score.gaussian import GaussianScoreModel
from repro.stats.score.glm import NullModelError


def assert_close(actual, desired, scale):
    """rtol 1e-9; ``scale`` (the size of the terms summed) floors the
    tolerance where the true value cancels to zero."""
    np.testing.assert_allclose(actual, desired, rtol=1e-9, atol=1e-12 * max(scale, 1.0))


def check_contract(model, G, perm):
    c = model.score_weights()
    assert c.shape == (model.n_patients,) and c.dtype == np.float64
    terms = float((np.abs(G) @ np.abs(c)).max())
    assert_close(G @ c, model.contributions(G).sum(axis=1), terms)
    assert np.array_equal(model.scores(G), G @ c)
    refit = model.permuted(perm)
    assert_close(refit.score_weights(), c[perm], float(np.abs(c).max()))
    # Algorithm 2 as written against the kernel's replicate
    assert_close(G @ c[perm], refit.contributions(G).sum(axis=1), terms)


@st.composite
def _patients_genotypes_perm(draw, min_patients=1):
    n = draw(st.integers(min_patients, 24))
    G = draw(hnp.arrays(np.float64, (draw(st.integers(1, 5)), n),
                        elements=st.sampled_from([0.0, 1.0, 2.0])))
    return n, G, np.array(draw(st.permutations(range(n))))


@st.composite
def _survival_cases(draw):
    n, G, perm = draw(_patients_genotypes_perm())
    # a handful of distinct times: ties within and across event status
    time = draw(hnp.arrays(np.float64, n, elements=st.sampled_from(
        [0.0, 0.5, 1.0, 2.5, 2.5000000000000004, 7.0, 1e6])))
    event = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    return SurvivalPhenotype(time, event), G, perm


@st.composite
def _glm_cases(draw, binary):
    n, G, perm = draw(_patients_genotypes_perm(min_patients=8 if binary else 1))
    if binary:
        y = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))
    else:
        y = draw(hnp.arrays(np.float64, n, elements=st.floats(-50.0, 50.0, width=32)))
    covariates = None
    p = draw(st.integers(0, 2))
    if p and n >= p + 3:
        covariates = draw(hnp.arrays(np.float64, (n, p), elements=st.integers(-3, 3)))
        design = np.column_stack([np.ones(n), covariates])
        assume(np.linalg.cond(design) < 1e3)
    return y, covariates, draw(st.booleans()), G, perm


def test_score_weights_is_part_of_the_interface():
    # the adjoint of a ones row, on the base class over the abstract
    # adjoint: no caller probes for it and no model can leave it out
    assert "adjoint" in ScoreModel.__abstractmethods__
    assert all(
        cls.score_weights is ScoreModel.score_weights
        for cls in (CoxScoreModel, GaussianScoreModel, BinomialScoreModel)
    )


_IDENTITY3 = np.arange(3)
_ONES = np.ones((1, 3))


class TestCoxWeights:
    @seed(200_001)
    @settings(max_examples=300, deadline=None, database=None)
    @given(_survival_cases())
    @example((SurvivalPhenotype([4.0], [1]), np.array([[2.0]]), np.array([0])))
    @example((SurvivalPhenotype([4.0], [0]), np.array([[1.0]]), np.array([0])))
    @example((SurvivalPhenotype([3.0, 3.0, 3.0], [1, 1, 1]), _ONES, np.array([2, 0, 1])))
    @example((SurvivalPhenotype([1.0, 2.0, 3.0], [0, 0, 0]), _ONES * 2, np.array([1, 2, 0])))
    @example((SurvivalPhenotype([2.0, 1.0, 2.0], [1, 1, 1]),
              np.array([[0.0, 1.0, 2.0], [1.0, 1.0, 1.0]]), np.array([1, 0, 2])))
    def test_contract_and_defining_formula(self, case):
        phenotype, G, perm = case
        model = CoxScoreModel(phenotype)
        check_contract(model, G, perm)
        c = model.score_weights()
        naive = cox_contributions_naive(phenotype, G).sum(axis=1)
        assert_close(G @ c, naive, float((np.abs(G) @ np.abs(c)).max()))

    def test_all_censored_weights_vanish(self):
        model = CoxScoreModel(SurvivalPhenotype([1.0, 2.0, 2.0, 5.0], [0, 0, 0, 0]))
        assert np.array_equal(model.score_weights(), np.zeros(4))

    def test_weights_are_martingale_residuals(self):
        # no ties, all events: c_l = 1 - sum_{i: Y_i <= Y_l} 1 / b_i
        model = CoxScoreModel(SurvivalPhenotype([3.0, 1.0, 2.0], [1, 1, 1]))
        expected = [1 - (1 / 3 + 1 / 2 + 1), 1 - 1 / 3, 1 - (1 / 3 + 1 / 2)]
        np.testing.assert_allclose(model.score_weights(), expected, rtol=1e-12)


class TestGlmWeights:
    @seed(200_002)
    @settings(max_examples=300, deadline=None, database=None)
    @given(_glm_cases(binary=False))
    @example((np.array([2.5]), None, True, np.array([[1.0]]), np.array([0])))
    @example((np.array([1.0, 1.0, 1.0]), None, True, _ONES, _IDENTITY3[::-1]))
    @example((np.array([0.5, -1.0, 2.0]), None, False, _ONES * 2, np.array([1, 2, 0])))
    def test_gaussian_contract(self, case):
        y, covariates, adjust, G, perm = case
        model = GaussianScoreModel(QuantitativePhenotype(y, covariates), adjust)
        check_contract(model, G, perm)

    @seed(200_003)
    @settings(max_examples=300, deadline=None, database=None)
    @given(_glm_cases(binary=True))
    def test_binomial_contract(self, case):
        y, covariates, adjust, G, perm = case
        try:
            model = BinomialScoreModel(BinaryPhenotype(y, covariates), adjust)
        except NullModelError:  # one class only, or separable by the covariates
            assume(False)
        # a fit at the edge of separation converges, but not to 1e-9
        assume(0.02 < model.fitted_means.min() and model.fitted_means.max() < 0.98)
        check_contract(model, G, perm)

    def test_unadjusted_weights_are_the_residuals(self, rng):
        n = 30
        y = rng.normal(size=n)
        X = rng.normal(size=(n, 2))
        model = GaussianScoreModel(QuantitativePhenotype(y, X), adjust_genotypes=False)
        assert np.array_equal(model.score_weights(), model._residuals)
        weights = model.score_weights()
        weights[:] = 0.0  # a copy: the model's own residuals are untouched
        assert np.any(model._residuals != 0.0)


def check_adjoint(model, G, draw_seed):
    """``adjoint(Z) @ G.T`` against ``Z @ U.T`` (rtol 1e-12 of the terms'
    size: ``|Z| |U|``, floored by ``|c(Z)| |G|`` where ``U`` cancels)."""
    Z = np.random.default_rng(draw_seed).standard_normal((3, model.n_patients))
    W = model.adjoint(Z)
    assert W.shape == Z.shape and W.dtype == np.float64
    U = model.contributions(G)
    scale = max(
        np.linalg.norm(Z) * np.linalg.norm(U), np.linalg.norm(W) * np.linalg.norm(G), 1.0
    )
    np.testing.assert_allclose(W @ G.T, Z @ U.T, rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_array_equal(
        model.adjoint(np.ones((1, model.n_patients)))[0], model.score_weights()
    )


_ALL_CENSORED = SurvivalPhenotype([1.0, 2.0, 2.0, 5.0], [0, 0, 0, 0])


class TestAdjoint:
    @seed(200_004)
    @settings(max_examples=200, deadline=None, database=None)
    @given(_survival_cases(), st.integers(0, 2**32 - 1))
    @example((_ALL_CENSORED, np.array([[0.0, 1.0, 2.0, 1.0]]), np.arange(4)), 0)
    @example((SurvivalPhenotype([3.0, 3.0, 1.0], [1, 0, 1]), _ONES * 2, _IDENTITY3), 1)
    def test_cox(self, case, draw_seed):
        phenotype, G, _ = case
        check_adjoint(CoxScoreModel(phenotype), G, draw_seed)

    def test_cox_all_censored_adjoint_vanishes(self):
        model = CoxScoreModel(_ALL_CENSORED)
        assert np.array_equal(model.adjoint(np.full((2, 4), 3.0)), np.zeros((2, 4)))

    @seed(200_005)
    @settings(max_examples=200, deadline=None, database=None)
    @given(_glm_cases(binary=False), st.integers(0, 2**32 - 1))
    def test_gaussian(self, case, draw_seed):
        y, covariates, adjust, G, _ = case
        model = GaussianScoreModel(QuantitativePhenotype(y, covariates), adjust)
        check_adjoint(model, G, draw_seed)

    @seed(200_006)
    @settings(max_examples=200, deadline=None, database=None)
    @given(_glm_cases(binary=True), st.integers(0, 2**32 - 1))
    def test_binomial(self, case, draw_seed):
        y, covariates, adjust, G, _ = case
        try:
            # a fit near separation overflows exp(-eta) on its way to mu = 0
            with np.errstate(over="ignore"):
                model = BinomialScoreModel(BinaryPhenotype(y, covariates), adjust)
        except NullModelError:
            assume(False)
        # at the edge of separation X'WX is singular, as in the contract test
        assume(0.02 < model.fitted_means.min() and model.fitted_means.max() < 0.98)
        check_adjoint(model, G, draw_seed)

    @pytest.mark.parametrize("adjust", [True, False])
    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_glm_with_covariates(self, rng, family, adjust):
        """Both GLMs, two covariates, both ``adjust_genotypes`` settings."""
        n = 80
        X = rng.normal(size=(n, 2))
        if family == "gaussian":
            y = X @ [0.5, -1.0] + rng.normal(size=n)
            model = GaussianScoreModel(QuantitativePhenotype(y, X), adjust)
        else:
            y = (rng.random(n) < 1 / (1 + np.exp(-X[:, 0]))).astype(float)
            model = BinomialScoreModel(BinaryPhenotype(y, X), adjust)
        G = rng.integers(0, 3, size=(6, n)).astype(float)
        check_adjoint(model, G, 7)
