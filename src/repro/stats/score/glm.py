"""Null-model fitting shared by the GLM score models.

Both the binomial (logistic) and Gaussian (linear) score models fit a null
model containing only the intercept and baseline covariates, then form
score contributions from the residuals:

    U_ij = (Y_i - mu_hat_i) * G_adj_ij

where ``G_adj`` is the genotype optionally projected orthogonal to the
covariate space (the textbook efficient score; the paper's plain GWAS runs
have no covariates, in which case projection reduces to centering by the
fitted mean).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.score.base import ScoreModel


class NullModelError(RuntimeError):
    """The null model could not be fit (separation, singular design, ...)."""


def design_matrix(n: int, covariates: np.ndarray | None) -> np.ndarray:
    """Intercept column plus covariates."""
    if covariates is None:
        return np.ones((n, 1))
    X = np.atleast_2d(np.asarray(covariates, dtype=np.float64))
    if X.shape[0] != n:
        raise ValueError("covariate rows must match number of patients")
    return np.column_stack([np.ones(n), X])


@dataclass(frozen=True)
class NullFit:
    """A fitted null model: means, working weights, and the design."""

    mu: np.ndarray  # fitted means
    weights: np.ndarray  # IRLS working weights w_i (variance function)
    X: np.ndarray  # design matrix (n, p)
    dispersion: float  # phi: 1 for binomial, sigma^2 for gaussian


def fit_gaussian_null(y: np.ndarray, covariates: np.ndarray | None) -> NullFit:
    """Ordinary least squares null fit."""
    X = design_matrix(y.shape[0], covariates)
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    mu = X @ beta
    resid = y - mu
    dof = max(1, y.shape[0] - X.shape[1])
    sigma2 = float(resid @ resid) / dof
    scale = max(1.0, float(y @ y) / max(1, y.shape[0]))
    if sigma2 <= 1e-12 * scale:
        sigma2 = 1.0  # degenerate constant outcome: scores are all zero anyway
    return NullFit(mu=mu, weights=np.ones_like(y), X=X, dispersion=sigma2)


def fit_binomial_null(
    y: np.ndarray,
    covariates: np.ndarray | None,
    max_iter: int = 50,
    tol: float = 1e-10,
) -> NullFit:
    """Logistic-regression null fit via IRLS (Newton-Raphson)."""
    X = design_matrix(y.shape[0], covariates)
    n, p = X.shape
    beta = np.zeros(p)
    # sensible intercept start: logit of the observed rate, clipped
    rate = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
    beta[0] = np.log(rate / (1 - rate))
    for _ in range(max_iter):
        eta = X @ beta
        mu = 1.0 / (1.0 + np.exp(-eta))
        w = mu * (1.0 - mu)
        if np.all(w < 1e-12):
            raise NullModelError("complete separation: working weights vanished")
        grad = X.T @ (y - mu)
        hess = X.T @ (X * w[:, None])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise NullModelError("singular information matrix in IRLS") from exc
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            break
    else:
        raise NullModelError(f"IRLS did not converge in {max_iter} iterations")
    eta = X @ beta
    mu = 1.0 / (1.0 + np.exp(-eta))
    return NullFit(mu=mu, weights=mu * (1.0 - mu), X=X, dispersion=1.0)


def _information_inverse(fit: NullFit) -> np.ndarray:
    X, w = fit.X, fit.weights
    try:
        return np.linalg.inv(X.T @ (X * w[:, None]))
    except np.linalg.LinAlgError as exc:
        raise NullModelError("singular X'WX in covariate projection") from exc


def project_out_covariates(block: np.ndarray, fit: NullFit) -> np.ndarray:
    """Weighted projection of genotype rows orthogonal to the design.

    ``G_adj = G - (G W X) (X' W X)^{-1} X'`` applied row-wise; with an
    intercept-only design this is centering at the weighted mean.
    """
    X, w = fit.X, fit.weights
    # block: (m, n); coef: (m, p)
    coef = (block * w[None, :]) @ X @ _information_inverse(fit)
    return block - coef @ X.T


def project_residuals(residuals: np.ndarray, fit: NullFit) -> np.ndarray:
    """The projection's transpose applied to residual rows.

    ``c = r - W X (X' W X)^{-1} X' r`` for every row ``r`` of ``(b, n)``
    ``residuals`` (or the one ``(n,)`` vector), so that
    ``project_out_covariates(G, fit) @ r == G @ c`` for every block.
    """
    X, w = fit.X, fit.weights
    return residuals - w * ((residuals @ X) @ _information_inverse(fit).T @ X.T)


class GlmScoreModel(ScoreModel):
    """Score contributions ``U_ij = r_i * G_adj_ij`` from a fitted null model.

    Subclasses fit the null model (intercept + covariates) once and set
    ``_fit`` and the scaled residuals ``_residuals``.  With
    ``adjust_genotypes=True`` (default) genotypes are projected orthogonal
    to the covariate space, giving the proper efficient score; without
    covariates this reduces to weighted centering.
    """

    _fit: NullFit
    _residuals: np.ndarray

    def __init__(self, phenotype, adjust_genotypes: bool = True) -> None:
        self.phenotype = phenotype
        self.adjust_genotypes = adjust_genotypes

    @property
    def n_patients(self) -> int:
        return self.phenotype.n

    def contributions(self, genotypes: np.ndarray) -> np.ndarray:
        block = self._check_block(genotypes)
        if self.adjust_genotypes:
            block = project_out_covariates(block, self._fit)
        return block * self._residuals[None, :]

    def adjoint(self, multipliers: np.ndarray) -> np.ndarray:
        scaled = np.atleast_2d(multipliers) * self._residuals
        if self.adjust_genotypes:
            return project_residuals(scaled, self._fit)
        return scaled

    def permuted(self, perm: np.ndarray) -> "GlmScoreModel":
        # permutation shuffles outcomes over patients; covariates travel
        # with the outcome (the pairs are shuffled jointly, as in the paper),
        # so the refit reproduces the same coefficients and the fitted means,
        # working weights and residuals are simply permuted
        return type(self)(self.phenotype.permuted(perm), self.adjust_genotypes)
