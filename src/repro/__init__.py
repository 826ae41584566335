"""SparkScore reproduction: distributed genomic inference on a mini-Spark engine.

This package reproduces *SparkScore: Leveraging Apache Spark for Distributed
Genomic Inference* (Bahmani et al., IPDPSW 2016).  It contains

- :mod:`repro.engine` -- a from-scratch Spark-like execution engine (lazy
  RDDs, DAG scheduler, shuffle, caching, broadcast, fault tolerance);
- :mod:`repro.stats` -- efficient score statistics (Cox, binomial,
  Gaussian), SKAT aggregation, permutation and Monte Carlo resampling,
  asymptotic approximations, and the Wald/LRT comparator;
- :mod:`repro.genomics` -- SNP/gene data model, file formats, and the
  paper's synthetic data generator;
- :mod:`repro.core` -- the SparkScore algorithms (Algorithms 1-3) and the
  high-level analysis API.

Quickstart::

    from repro import SparkScoreAnalysis, SyntheticConfig, generate_dataset

    data = generate_dataset(SyntheticConfig(n_patients=200, n_snps=500,
                                            n_snpsets=20, seed=7))
    analysis = SparkScoreAnalysis.from_dataset(data)
    result = analysis.monte_carlo(iterations=1000, seed=11)
    print(result.top(5))
"""

from repro.config import EngineConfig
from repro.core.results import ResamplingResult, SnpSetResult
from repro.core.sparkscore import SparkScoreAnalysis
from repro.genomics.synthetic import SyntheticConfig, generate_dataset

__version__ = "1.0.0"

__all__ = [
    "EngineConfig",
    "ResamplingResult",
    "SnpSetResult",
    "SparkScoreAnalysis",
    "SyntheticConfig",
    "generate_dataset",
    "__version__",
]
