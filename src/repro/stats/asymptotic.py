"""Asymptotic p-values for SKAT statistics.

Under Lin's Monte Carlo resampling distribution, a replicate statistic is

    S~_k = Z' (U_w U_w') Z,   U_w = diag-row-scaled contributions

a quadratic form in iid standard normals, i.e. a mixture
``sum_r lambda_r chi^2_1`` with ``lambda_r`` the eigenvalues of the Gram
matrix of the weighted contributions.  Three tail approximations are
implemented, in increasing accuracy/cost:

- :func:`pvalue_satterthwaite` -- two-moment scaled chi-square;
- :func:`pvalue_liu` -- Liu, Tang & Zhang (2009) four-moment matching;
- :func:`pvalue_imhof` -- Imhof (1961) exact numerical inversion.

These are the "asymptotics" alternative the paper's introduction contrasts
with resampling; agreement with large-B Monte Carlo is a correctness oracle
for the whole pipeline.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.stats.skat import validate_set_ids

__all__ = [
    "skat_mixture_eigenvalues",
    "pvalue_satterthwaite",
    "pvalue_liu",
    "pvalue_imhof",
    "skat_asymptotic_pvalues",
]


def skat_mixture_eigenvalues(contributions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Eigenvalues of the weighted-contribution Gram matrix.

    ``contributions`` is the (m, n) U matrix for the SNPs of one set and
    ``weights`` their (m,) weights.  Works on whichever Gram matrix is
    smaller (m x m or n x n); the nonzero spectra coincide.
    """
    U = np.asarray(contributions, dtype=np.float64)
    if U.ndim != 2:
        raise ValueError("contributions must be 2-D")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (U.shape[0],):
        raise ValueError("weights must align with contribution rows")
    Uw = U * w[:, None]
    m, n = Uw.shape
    gram = Uw @ Uw.T if m <= n else Uw.T @ Uw
    lam = np.linalg.eigvalsh(gram)
    lam = lam[lam > max(1e-12, 1e-10 * lam.max(initial=0.0))]
    return lam[::-1]


def pvalue_satterthwaite(statistic: float, lam: np.ndarray) -> float:
    """Two-moment approximation: match to ``a * chi^2_g``."""
    from scipy import stats as sps

    lam = np.asarray(lam, dtype=np.float64)
    if lam.size == 0:
        return 1.0
    s1 = lam.sum()
    s2 = (lam**2).sum()
    a = s2 / s1
    g = s1**2 / s2
    return float(sps.chi2.sf(statistic / a, g))


def pvalue_liu(statistic: float, lam: np.ndarray) -> float:
    """Liu-Tang-Zhang (2009) four-moment chi-square approximation."""
    from scipy import stats as sps

    lam = np.asarray(lam, dtype=np.float64)
    if lam.size == 0:
        return 1.0
    c1 = lam.sum()
    c2 = (lam**2).sum()
    c3 = (lam**3).sum()
    c4 = (lam**4).sum()
    s1 = c3 / c2**1.5
    s2 = c4 / c2**2
    mu_q = c1
    sigma_q = np.sqrt(2.0 * c2)
    t_star = (statistic - mu_q) / sigma_q
    if s1**2 > s2:
        a = 1.0 / (s1 - np.sqrt(s1**2 - s2))
        delta = s1 * a**3 - a**2
        ell = a**2 - 2.0 * delta
    else:
        delta = 0.0
        ell = 1.0 / s2
    mu_x = ell + delta
    sigma_x = np.sqrt(2.0) * np.sqrt(ell + 2.0 * delta)
    x = t_star * sigma_x + mu_x
    return float(sps.ncx2.sf(x, df=ell, nc=delta)) if delta > 0 else float(sps.chi2.sf(x, ell))


def pvalue_imhof(statistic: float, lam: np.ndarray, limit: int = 400) -> float:
    """Imhof (1961) exact tail probability via numerical inversion.

    Accurate to roughly 1e-4 absolute (the integrand is oscillatory with a
    slowly decaying tail for few eigenvalues); use :func:`pvalue_liu` when
    speed matters and this when accuracy matters.
    """
    from scipy import integrate

    lam = np.asarray(lam, dtype=np.float64)
    if lam.size == 0:
        return 1.0

    def theta(u: float) -> float:
        return 0.5 * (np.sum(np.arctan(lam * u)) - statistic * u)

    def rho(u: float) -> float:
        return np.prod((1.0 + (lam * u) ** 2) ** 0.25)

    def integrand(u: float) -> float:
        if u == 0.0:
            return 0.5 * (lam.sum() - statistic)
        return np.sin(theta(u)) / (u * rho(u))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _err = integrate.quad(integrand, 0.0, np.inf, limit=limit)
    p = 0.5 + value / np.pi
    return float(min(1.0, max(0.0, p)))


_METHODS = {
    "satterthwaite": pvalue_satterthwaite,
    "liu": pvalue_liu,
    "imhof": pvalue_imhof,
}


def skat_asymptotic_pvalues(
    contributions: np.ndarray,
    weights: np.ndarray,
    set_ids: np.ndarray,
    n_sets: int,
    observed: np.ndarray | None = None,
    method: str = "liu",
) -> np.ndarray:
    """Asymptotic p-value for each SNP-set's SKAT statistic.

    ``contributions`` is the full (J, n) U matrix; each set's mixture
    spectrum is computed from its member rows.  ``observed`` defaults to
    the SKAT statistics implied by ``contributions``.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(_METHODS)}")
    tail = _METHODS[method]
    U = np.asarray(contributions, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    ids = validate_set_ids(set_ids, n_sets, U.shape[0])
    if observed is None:
        from repro.stats.skat import skat_statistics

        observed = skat_statistics(U.sum(axis=1), w, ids, n_sets)
    observed = np.asarray(observed, dtype=np.float64)
    out = np.ones(n_sets)
    for k in range(n_sets):
        members = np.flatnonzero(ids == k)
        if members.size == 0:
            continue
        lam = skat_mixture_eigenvalues(U[members], w[members])
        out[k] = tail(float(observed[k]), lam)
    return out
