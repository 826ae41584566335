"""Synthetic data generation, following the paper's Section III exactly.

- Survival time ``Y_i ~ Exponential(rate 1/12)`` (mean 12 months).
- Event indicator ``Delta_i ~ Bernoulli(0.85)`` (85% event rate), applied
  arbitrarily (independently of the time, as the paper notes).
- Genotypes ``G_ij ~ Binomial(2, rho_j)`` with the relative allelic
  frequency ``rho_j`` varied across SNPs.
- SNP-set sizes drawn from ``Exponential(mean m/K)``, rounded down to the
  nearest integer (up to 1 when in (0, 1)); the last set is augmented with
  every SNP not picked by sets 1..K-1 so all SNPs' computation is counted.

An optional ``n_causal``/``effect_size`` extension plants true
associations (absent from the paper, which only measures runtimes) so the
examples can demonstrate statistical power, not just speed.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.genomics.genotypes import GenotypeMatrix
from repro.genomics.snpsets import SnpSetCollection
from repro.stats.score.base import SurvivalPhenotype

#: dosages in one row block: the generator draws and the writer formats a
#: genotype matrix this many dosages at a time (at least one row), so neither
#: holds more than a block's float64 uniforms or text beside the int8 matrix
#: (DESIGN.md §19)
ROW_BLOCK_DOSAGES = 1 << 17

#: a row block counts each row as at least this many dosages, about the bytes
#: of the per-row thresholds the generator and the Python objects the writer
#: hold for it, so a block holds at most 2,048 rows whatever the patient count
ROW_MIN_DOSAGES = 64


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the Section III generator (paper defaults)."""

    n_patients: int = 1000
    n_snps: int = 100_000
    n_snpsets: int = 1000
    mean_survival_months: float = 12.0
    event_rate: float = 0.85
    #: allelic frequency range rho_j is drawn uniformly from
    maf_range: tuple[float, float] = (0.05, 0.5)
    seed: int = 0
    #: optional planted signal (0 = pure null, as in the paper)
    n_causal_snps: int = 0
    #: log hazard ratio per allele for causal SNPs
    effect_size: float = 0.0

    def __post_init__(self) -> None:
        if self.n_patients < 2:
            raise ValueError("need at least 2 patients")
        if self.n_snps < 1:
            raise ValueError("need at least 1 SNP")
        if not 1 <= self.n_snpsets <= self.n_snps:
            raise ValueError("n_snpsets must be in [1, n_snps]")
        if self.mean_survival_months <= 0:
            raise ValueError("mean survival must be positive")
        if not 0.0 <= self.event_rate <= 1.0:
            raise ValueError("event_rate must be in [0, 1]")
        lo, hi = self.maf_range
        if not 0.0 < lo <= hi < 1.0:
            raise ValueError("maf_range must satisfy 0 < lo <= hi < 1")
        if self.n_causal_snps < 0 or self.n_causal_snps > self.n_snps:
            raise ValueError("n_causal_snps out of range")


@dataclass
class Dataset:
    """A complete analysis input: genotypes, phenotype, weights, sets."""

    genotypes: GenotypeMatrix
    phenotype: SurvivalPhenotype
    weights: np.ndarray  # (J,) per-SNP weights omega_j
    snpsets: SnpSetCollection
    causal_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self) -> None:
        J = self.genotypes.n_snps
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (J,):
            raise ValueError("weights must have one entry per SNP")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        if self.snpsets.n_snps != J:
            raise ValueError("snpsets must cover every SNP row")
        if self.genotypes.n_patients != self.phenotype.n:
            raise ValueError("phenotype length must match genotype columns")

    @property
    def n_snps(self) -> int:
        return self.genotypes.n_snps

    @property
    def n_patients(self) -> int:
        return self.genotypes.n_patients

    @property
    def n_sets(self) -> int:
        return self.snpsets.n_sets


def snpset_size_partition(
    n_snps: int, n_snpsets: int, rng: np.random.Generator
) -> np.ndarray:
    """Section III's SNP-set assignment; returns the set_ids vector.

    Sizes for sets 1..K are drawn from Exponential(mean m/K) and floored
    (minimum 1); sets are filled with consecutive SNPs until either the
    SNPs or the sets run out, and the final set absorbs the remainder.
    """
    mean_size = n_snps / n_snpsets
    set_ids = np.empty(n_snps, dtype=np.int64)
    cursor = 0
    for k in range(n_snpsets):
        remaining_sets = n_snpsets - k
        remaining_snps = n_snps - cursor
        if remaining_snps <= 0:
            # out of SNPs: leftover sets stay empty; map them onto last id
            break
        if k == n_snpsets - 1:
            size = remaining_snps  # augmentation rule
        else:
            raw = rng.exponential(mean_size)
            size = max(1, int(raw))
            # never starve the remaining sets below 1 SNP each
            size = min(size, remaining_snps - (remaining_sets - 1))
            size = max(1, size)
        set_ids[cursor : cursor + size] = k
        cursor += size
    if cursor < n_snps:
        set_ids[cursor:] = n_snpsets - 1
    return set_ids


def row_blocks(n_rows: int, n_columns: int) -> Iterator[slice]:
    """Consecutive row slices of ``ROW_BLOCK_DOSAGES`` dosages, one row at
    least, a row counting as ``max(n_columns, ROW_MIN_DOSAGES)``."""
    step = max(1, ROW_BLOCK_DOSAGES // max(n_columns, ROW_MIN_DOSAGES))
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def invert_binomial2(uniforms: np.ndarray, rho: np.ndarray, out: np.ndarray) -> bool:
    """NumPy's ``random_binomial`` inversion for n = 2, one uniform a dosage.

    Row ``i`` of ``out`` (int8) receives the Binomial(2, ``rho[i]``) dosages
    that ``Generator.binomial`` returns for the uniforms of row ``i`` of
    ``uniforms`` (consumed: it is overwritten).  The thresholds come from the
    same libm calls in the same IEEE order as ``distributions.c``; a row
    with rho > 0.5 is ``2 - X(1 - rho)``, as NumPy reflects it.  Returns
    whether any uniform lies past all three thresholds, where NumPy would
    draw again (DESIGN.md §19, "Exact inversion"); ``out`` is then not the
    draw.  ``rho`` must lie in (0, 1).
    """
    flip = rho > 0.5
    p = np.where(flip, 1.0 - rho, rho)
    q = 1.0 - p
    # px0 = exp(n * log(q)); np.log and np.exp may differ from libm in the last bit
    log_q = np.fromiter(map(math.log, q.tolist()), np.float64, q.size)
    log_q *= 2.0
    px0 = np.fromiter(map(math.exp, log_q.tolist()), np.float64, q.size)
    # px = ((n - X + 1) * p * px) / (X * q), at X = 1 and X = 2
    px1 = 2.0 * p * px0 / q
    px2 = p * px1 / (2.0 * q)
    # (u - px0) - px1 never falls as u grows: a row redraws iff its largest does
    top = uniforms.max(axis=1)
    np.greater(uniforms, px0[:, None], out=out.view(np.bool_))
    uniforms -= px0[:, None]
    out += (uniforms > px1[:, None]).view(np.int8)
    if flip.any():
        out[flip] = 2 - out[flip]
    return bool(((top - px0) - px1 > px2).any())


def draw_binomial2(rng: np.random.Generator, rho: np.ndarray, n: int) -> np.ndarray:
    """``rng.binomial(2, rho[:, None], size=(rho.size, n))`` as int8.

    The same dosages, with ``rng`` left in the same state: each row block
    is one ``rng.random`` fill of a reused buffer, inverted by
    :func:`invert_binomial2`.  Both consume the stream one ``next_double``
    a dosage in C order.  A block where NumPy would draw again is drawn by
    ``rng.binomial`` from the state before it.
    """
    dosages = np.empty((rho.size, n), dtype=np.int8)
    buffer = None
    for rows in row_blocks(rho.size, n):
        block, p = dosages[rows], rho[rows]
        if buffer is None:  # the first block is the largest
            buffer = np.empty(block.shape)
        state = rng.bit_generator.state
        if invert_binomial2(rng.random(out=buffer[: len(block)]), p, block):
            rng.bit_generator.state = state
            block[...] = rng.binomial(2, p[:, None], size=block.shape)
    return dosages


def generate_dataset(config: SyntheticConfig) -> Dataset:
    """Generate a full synthetic dataset per Section III."""
    rng = np.random.default_rng(config.seed)
    n, m = config.n_patients, config.n_snps

    rho = rng.uniform(*config.maf_range, size=m)
    genotype_values = draw_binomial2(rng, rho, n)
    snp_ids = np.arange(m, dtype=np.int64)
    genotypes = GenotypeMatrix(snp_ids, genotype_values)

    causal_rows = np.empty(0, dtype=np.int64)
    if config.n_causal_snps > 0 and config.effect_size != 0.0:
        causal_rows = rng.choice(m, size=config.n_causal_snps, replace=False)
        causal_rows.sort()
        # proportional-hazards signal: rate_i = base * exp(beta * sum G)
        linear = config.effect_size * genotype_values[causal_rows].sum(axis=0)
        rates = np.exp(linear) / config.mean_survival_months
        times = rng.exponential(1.0 / rates)
    else:
        times = rng.exponential(config.mean_survival_months, size=n)
    events = rng.binomial(1, config.event_rate, size=n)
    phenotype = SurvivalPhenotype(times, events)

    weights = np.ones(m)
    set_ids = snpset_size_partition(m, config.n_snpsets, rng)
    snpsets = SnpSetCollection(set_ids)

    return Dataset(genotypes, phenotype, weights, snpsets, causal_rows)
