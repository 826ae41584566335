"""Result containers for SparkScore analyses."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.stats.resampling.pvalues import empirical_pvalues


@dataclass(frozen=True)
class SnpSetResult:
    """Evidence for one SNP-set."""

    name: str
    set_index: int
    n_snps: int
    observed: float
    exceed_count: int
    n_resamples: int
    pvalue: float

    def __str__(self) -> str:
        return (
            f"{self.name}: S={self.observed:.4g}, p={self.pvalue:.4g} "
            f"({self.exceed_count}/{self.n_resamples} resamples >= observed, "
            f"{self.n_snps} SNPs)"
        )


@dataclass
class ResamplingResult:
    """Full analysis output: per-set statistics, counts, and p-values.

    ``method`` records how the sampling distribution was estimated:
    ``"monte_carlo"``, ``"permutation"``, ``"asymptotic"``, or
    ``"observed"`` (statistics only, no inference).
    """

    method: str
    set_names: list[str]
    set_sizes: np.ndarray
    observed: np.ndarray  # (K,) S_k^0
    exceed_counts: np.ndarray  # (K,) resampling exceedances (0s if none run)
    n_resamples: int
    pvalue_method: str = "plugin"
    #: precomputed p-values (asymptotic methods); None => empirical
    explicit_pvalues: np.ndarray | None = None
    #: free-form run metadata (timings, engine counters)
    info: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.observed = np.asarray(self.observed, dtype=np.float64)
        self.exceed_counts = np.asarray(self.exceed_counts, dtype=np.int64)
        K = len(self.set_names)
        if self.observed.shape != (K,) or self.exceed_counts.shape != (K,):
            raise ValueError("observed/exceed_counts must have one entry per set")
        self.set_sizes = np.asarray(self.set_sizes, dtype=np.int64)
        if self.set_sizes.shape != (K,):
            raise ValueError("set_sizes must have one entry per set")

    @classmethod
    def from_run(
        cls,
        method: str,
        snpsets,
        observed: np.ndarray,
        counts: np.ndarray,
        n_resamples: int,
        info: dict,
        monitor=None,
    ) -> "ResamplingResult":
        """A run's result, with what its convergence monitor saw added to
        ``info``.  When masking froze sets at per-set denominators the shared
        ``n_resamples`` would misprice them, so the monitor's per-set
        estimates ship as ``explicit_pvalues``."""
        explicit = None
        if monitor is not None:
            info["early_stop"] = monitor.policy is not None
            info["replicates_planned"] = monitor.planned_replicates
            info["replicates_saved"] = monitor.replicates_saved
            info["sets_converged"] = monitor.sets_converged
            if not np.all(monitor.denominators == monitor.replicates_total):
                explicit = monitor.pvalues("plugin")
        return cls(
            method=method,
            set_names=list(snpsets.names),
            set_sizes=snpsets.sizes(),
            observed=observed,
            exceed_counts=counts,
            n_resamples=n_resamples,
            explicit_pvalues=explicit,
            info=info,
        )

    @property
    def n_sets(self) -> int:
        return len(self.set_names)

    def pvalues(self) -> np.ndarray:
        if self.explicit_pvalues is not None:
            return self.explicit_pvalues
        if self.n_resamples == 0:
            return np.full(self.n_sets, np.nan)
        return empirical_pvalues(self.exceed_counts, self.n_resamples, self.pvalue_method)

    def __getitem__(self, k: int) -> SnpSetResult:
        return SnpSetResult(
            name=self.set_names[k],
            set_index=k,
            n_snps=int(self.set_sizes[k]),
            observed=float(self.observed[k]),
            exceed_count=int(self.exceed_counts[k]),
            n_resamples=self.n_resamples,
            pvalue=float(self.pvalues()[k]),
        )

    def top(self, k: int = 10) -> list[SnpSetResult]:
        """The k most significant sets (ties broken by larger statistic)."""
        p = self.pvalues()
        order = np.lexsort((-self.observed, p))
        return [self[int(i)] for i in order[:k]]

    def to_table(self, max_rows: int | None = None) -> str:
        """Plain-text report, most significant sets first."""
        rows = self.top(self.n_sets if max_rows is None else max_rows)
        header = f"{'set':<16}{'n_snps':>8}{'S_k':>14}{'count':>8}{'p':>12}"
        lines = [f"# method={self.method}, resamples={self.n_resamples}", header, "-" * len(header)]
        for r in rows:
            lines.append(
                f"{r.name:<16}{r.n_snps:>8}{r.observed:>14.5g}{r.exceed_count:>8}{r.pvalue:>12.4g}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ResamplingResult(method={self.method!r}, sets={self.n_sets}, "
            f"resamples={self.n_resamples})"
        )
