"""Minimal VCF reader/writer (dosage extraction for association testing).

Supports the subset of VCF 4.x that association pipelines consume: the
``#CHROM`` header for sample names, per-site rows with a ``GT`` entry in
FORMAT, and diploid genotypes (``0/0``, ``0|1``, ``1/1``, ``./.``).
Multi-allelic sites count any non-reference allele toward the dosage.
Missing genotypes are imputed to the site's rounded mean dosage (the
standard simple imputation for score tests; sites that are entirely
missing become all-zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.genomics.genotypes import GenotypeMatrix
from repro.genomics.variants import Snp


class VcfError(ValueError):
    """Malformed VCF content."""


@dataclass
class VcfData:
    """Parsed VCF payload."""

    snps: list[Snp]
    samples: list[str]
    genotypes: GenotypeMatrix
    #: count of imputed (missing) genotype calls
    n_imputed: int


_FIXED_COLUMNS = ("#CHROM", "POS", "ID", "REF", "ALT", "QUAL", "FILTER", "INFO", "FORMAT")


def _parse_gt(token: str) -> int | None:
    """Dosage from a GT token; None for missing."""
    gt = token.split(":", 1)[0]
    alleles = gt.replace("|", "/").split("/")
    if not alleles or any(a == "." for a in alleles):
        return None
    try:
        return sum(1 for a in alleles if int(a) > 0)
    except ValueError as exc:
        raise VcfError(f"bad GT token {token!r}") from exc


def parse_vcf(lines) -> VcfData:
    """Parse VCF text (iterable of lines) into a :class:`VcfData`."""
    samples: list[str] | None = None
    snps: list[Snp] = []
    rows: list[np.ndarray] = []
    n_imputed = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line or line.startswith("##"):
            continue
        if line.startswith("#CHROM"):
            fields = line.split("\t")
            if tuple(fields[:9]) != _FIXED_COLUMNS:
                raise VcfError(f"line {lineno}: malformed #CHROM header")
            samples = fields[9:]
            if not samples:
                raise VcfError("VCF has no sample columns")
            continue
        if samples is None:
            raise VcfError(f"line {lineno}: data row before #CHROM header")
        fields = line.split("\t")
        if len(fields) != 9 + len(samples):
            raise VcfError(
                f"line {lineno}: expected {9 + len(samples)} columns, got {len(fields)}"
            )
        chrom, pos, snp_id, _ref, _alt, _qual, _filt, _info, fmt = fields[:9]
        fmt_keys = fmt.split(":")
        if "GT" not in fmt_keys:
            raise VcfError(f"line {lineno}: FORMAT lacks GT")
        if fmt_keys[0] != "GT":
            # GT may appear later in FORMAT; re-slice each sample token
            gt_index = fmt_keys.index("GT")
            tokens = [f.split(":")[gt_index] for f in fields[9:]]
        else:
            tokens = fields[9:]
        try:
            position = int(pos)
        except ValueError as exc:
            raise VcfError(f"line {lineno}: bad POS {pos!r}") from exc
        dosages = [_parse_gt(tok) for tok in tokens]
        known = [d for d in dosages if d is not None]
        fill = int(round(float(np.mean(known)))) if known else 0
        row = np.array([fill if d is None else d for d in dosages], dtype=np.int8)
        n_imputed += sum(1 for d in dosages if d is None)
        snps.append(Snp(chrom, position, "" if snp_id == "." else snp_id))
        rows.append(row)
    if samples is None:
        raise VcfError("no #CHROM header found")
    if not rows:
        raise VcfError("VCF has no variant rows")
    matrix = np.vstack(rows)
    genotypes = GenotypeMatrix(np.arange(len(snps), dtype=np.int64), matrix)
    return VcfData(snps=snps, samples=samples, genotypes=genotypes, n_imputed=n_imputed)


def read_vcf(path: str) -> VcfData:
    """Read a VCF file."""
    with open(path) as fh:
        return parse_vcf(fh)


def write_vcf(
    genotypes: GenotypeMatrix,
    snps: list[Snp],
    samples: list[str],
    path: str,
) -> None:
    """Write dosages back out as a minimal GT-only VCF."""
    if len(snps) != genotypes.n_snps:
        raise ValueError("snps must align with genotype rows")
    if len(samples) != genotypes.n_patients:
        raise ValueError("samples must align with genotype columns")
    gt_of = {0: "0/0", 1: "0/1", 2: "1/1"}
    lines = ["##fileformat=VCFv4.2", "\t".join(_FIXED_COLUMNS + tuple(samples))]
    for snp, row in zip(snps, genotypes.matrix):
        tokens = [gt_of[int(g)] for g in row]
        lines.append(
            "\t".join(
                [snp.chrom, str(snp.pos), snp.snp_id or ".", "A", "G", ".", "PASS", ".", "GT"]
                + tokens
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
