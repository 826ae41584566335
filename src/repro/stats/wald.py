"""Wald and likelihood-ratio tests for the Cox model: the costly comparator.

The paper motivates the efficient score by noting that Wald/LRT "require
solving U_j(beta_j) = 0 ... for every SNP in the analysis", with numerical
root finding and convergence monitoring.  This module implements exactly
that: per-SNP Newton-Raphson maximization of the Cox partial likelihood,
so benchmarks can quantify the score test's advantage and tests can verify
first-order agreement for small effects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.score.base import SurvivalPhenotype


class ConvergenceError(RuntimeError):
    """Newton-Raphson failed to converge for a SNP."""


@dataclass(frozen=True)
class CoxMleResult:
    """Per-SNP maximum partial-likelihood fit."""

    beta: np.ndarray  # (m,) MLEs
    information: np.ndarray  # (m,) observed information at the MLE
    wald: np.ndarray  # (m,) Wald statistics beta^2 * I(beta)
    lrt: np.ndarray  # (m,) likelihood-ratio statistics
    iterations: np.ndarray  # (m,) Newton iterations used
    converged: np.ndarray  # (m,) bool

    def wald_pvalues(self) -> np.ndarray:
        from scipy import stats as sps

        return sps.chi2.sf(self.wald, df=1)

    def lrt_pvalues(self) -> np.ndarray:
        from scipy import stats as sps

        return sps.chi2.sf(self.lrt, df=1)


class CoxPartialLikelihood:
    """Score / information / log-likelihood of one SNP's Cox model."""

    def __init__(self, phenotype: SurvivalPhenotype) -> None:
        self.phenotype = phenotype
        time = phenotype.time
        n = time.shape[0]
        self._order = np.argsort(-time, kind="stable")
        time_asc = np.sort(time)
        self._risk_counts = (n - np.searchsorted(time_asc, time, side="left")).astype(np.int64)
        self._event_mask = phenotype.event.astype(bool)

    def evaluate(self, g: np.ndarray, beta: float) -> tuple[float, float, float]:
        """(log-likelihood, score U(beta), information I(beta))."""
        g = np.asarray(g, dtype=np.float64)
        order = self._order
        eg = np.exp(beta * g)
        # prefix sums over descending-time order; entry b_i - 1 is the
        # risk-set sum for patient i (ties included)
        B = np.cumsum(eg[order])[self._risk_counts - 1]
        A = np.cumsum((g * eg)[order])[self._risk_counts - 1]
        C = np.cumsum((g * g * eg)[order])[self._risk_counts - 1]
        ev = self._event_mask
        loglik = float(np.sum(beta * g[ev] - np.log(B[ev])))
        score = float(np.sum(g[ev] - A[ev] / B[ev]))
        info = float(np.sum(C[ev] / B[ev] - (A[ev] / B[ev]) ** 2))
        return loglik, score, info


def cox_mle(
    phenotype: SurvivalPhenotype,
    genotypes: np.ndarray,
    max_iter: int = 25,
    tol: float = 1e-8,
    max_step: float = 5.0,
    raise_on_failure: bool = False,
) -> CoxMleResult:
    """Newton-Raphson Cox MLE for each SNP row of ``genotypes``.

    Mirrors the per-SNP optimization burden of the Wald/LRT approach:
    every iteration re-evaluates risk-set sums (O(n log n) here), and
    convergence must be monitored per SNP -- "corrective actions ... in
    case of failure of convergence" are step-halving and step clipping.
    """
    G = np.asarray(genotypes, dtype=np.float64)
    if G.ndim == 1:
        G = G[None, :]
    m = G.shape[0]
    pl = CoxPartialLikelihood(phenotype)
    beta = np.zeros(m)
    info_out = np.zeros(m)
    wald = np.zeros(m)
    lrt = np.zeros(m)
    iters = np.zeros(m, dtype=np.int64)
    ok = np.zeros(m, dtype=bool)

    for j in range(m):
        g = G[j]
        loglik0, _, _ = pl.evaluate(g, 0.0)
        b = 0.0
        loglik_prev = loglik0
        converged = False
        info = 0.0
        for it in range(1, max_iter + 1):
            loglik, score, info = pl.evaluate(g, b)
            if info <= 1e-12:
                # flat likelihood (e.g. monomorphic SNP): beta = 0 is the MLE
                converged = True
                iters[j] = it
                break
            step = score / info
            step = float(np.clip(step, -max_step, max_step))
            # step-halving: insist the likelihood does not decrease
            candidate = b + step
            loglik_new, _, _ = pl.evaluate(g, candidate)
            halvings = 0
            while loglik_new < loglik - 1e-12 and halvings < 10:
                step *= 0.5
                candidate = b + step
                loglik_new, _, _ = pl.evaluate(g, candidate)
                halvings += 1
            b = candidate
            iters[j] = it
            if abs(step) < tol or abs(loglik_new - loglik_prev) < tol:
                converged = True
                break
            loglik_prev = loglik_new
        if not converged and raise_on_failure:
            raise ConvergenceError(f"SNP row {j} did not converge in {max_iter} iterations")
        loglik_hat, _, info_hat = pl.evaluate(g, b)
        beta[j] = b
        info_out[j] = info_hat
        wald[j] = b * b * info_hat
        lrt[j] = max(0.0, 2.0 * (loglik_hat - loglik0))
        ok[j] = converged
    return CoxMleResult(beta, info_out, wald, lrt, iters, ok)


def score_test_statistics(phenotype: SurvivalPhenotype, genotypes: np.ndarray) -> np.ndarray:
    """Standardized score statistics ``U_j^2 / I_j(0)`` (chi-square_1).

    The no-optimization counterpart to :func:`cox_mle`: a single
    evaluation at beta = 0 per SNP.
    """
    G = np.asarray(genotypes, dtype=np.float64)
    if G.ndim == 1:
        G = G[None, :]
    pl = CoxPartialLikelihood(phenotype)
    out = np.zeros(G.shape[0])
    for j in range(G.shape[0]):
        _, score, info = pl.evaluate(G[j], 0.0)
        out[j] = score * score / info if info > 1e-12 else 0.0
    return out
