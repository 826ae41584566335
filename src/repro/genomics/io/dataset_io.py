"""Whole-dataset round trips against a local directory or MiniHDFS."""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

from repro.genomics.genotypes import (
    DOSAGE_RANGE_ERROR,
    DeferredGenotypeMatrix,
    GenotypeMatrix,
)
from repro.genomics.io.formats import (
    FormatError,
    _decode_lines,
    _format_genotype_text,
    _parse_lines,
    format_phenotype_line,
    format_snpset_line,
    format_weight_line,
    parse_genotype_text,
    parse_phenotype_line,
    parse_snpset_line,
    parse_weight_line,
)
from repro.genomics.snpsets import SnpSetCollection
from repro.genomics.synthetic import Dataset
from repro.stats.score.base import SurvivalPhenotype

if TYPE_CHECKING:  # pragma: no cover
    from repro.hdfs.filesystem import MiniHDFS

GENOTYPES_FILE = "genotypes.txt"
PHENOTYPE_FILE = "phenotype.txt"
WEIGHTS_FILE = "weights.txt"
SNPSETS_FILE = "snpsets.txt"


def _write_file(base: str, name: str, content: bytes, hdfs: "MiniHDFS | None") -> str:
    if hdfs is not None:
        path = f"{base.rstrip('/')}/{name}"
        hdfs.write_bytes(path, content, line_aligned=True)
        return f"hdfs://{path.lstrip('/')}" if not path.startswith("hdfs://") else path
    os.makedirs(base, exist_ok=True)
    path = os.path.join(base, name)
    with open(path, "wb") as fh:
        fh.write(content)
    return path


def _read_file(base: str, name: str, hdfs: "MiniHDFS | None") -> bytes:
    if hdfs is not None:
        return hdfs.read_bytes(f"{base.rstrip('/')}/{name}")
    with open(os.path.join(base, name), "rb") as fh:
        return fh.read()


def _encode_lines(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_dataset(dataset: Dataset, base: str, hdfs: "MiniHDFS | None" = None) -> dict[str, str]:
    """Serialize all four input files; returns {kind: path}."""
    genotypes = dataset.genotypes
    phenotype_lines = [
        format_phenotype_line(i, float(t), int(e))
        for i, (t, e) in enumerate(zip(dataset.phenotype.time, dataset.phenotype.event))
    ]
    weight_lines = [
        format_weight_line(int(snp_id), float(w))
        for snp_id, w in zip(genotypes.snp_ids, dataset.weights)
    ]
    set_lists = dataset.snpsets.as_lists(genotypes.snp_ids)
    snpset_lines = [format_snpset_line(name, ids) for name, ids in set_lists.items()]
    genotype_text = _format_genotype_text(genotypes.snp_ids, genotypes.matrix)
    return {
        "genotypes": _write_file(base, GENOTYPES_FILE, genotype_text, hdfs),
        "phenotype": _write_file(base, PHENOTYPE_FILE, _encode_lines(phenotype_lines), hdfs),
        "weights": _write_file(base, WEIGHTS_FILE, _encode_lines(weight_lines), hdfs),
        "snpsets": _write_file(base, SNPSETS_FILE, _encode_lines(snpset_lines), hdfs),
    }


def _physical_line(data: bytes, row: int) -> int:
    """The 1-based physical line of ``data`` that parsed row ``row`` came from."""
    return [i for i, l in enumerate(_decode_lines(data, GENOTYPES_FILE), 1) if l][row]


def parse_genotype_rows(
    data: bytes, n_patients: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Whole lines of a genotype file -> ``(snp_ids, matrix)``, every row checked.

    The checks one row can fail (malformed, another length than
    ``n_patients``, an id beyond 64 bits, a dosage outside 0/1/2) raise
    :class:`FormatError` as ``genotypes.txt:<line of data>:``.  This is what
    an engine task runs on its split and what :func:`read_dataset` runs on
    the whole file; checks that need every row (a repeated id, agreement
    with the SNP-sets) are the caller's.
    """
    snp_ids, matrix = parse_genotype_text(data, GENOTYPES_FILE, n_patients)
    # uint8 view: a negative dosage reads as >= 128
    out_of_range = matrix.view(np.uint8) > 2
    if out_of_range.any():
        row = int(np.flatnonzero(out_of_range.any(axis=1))[0])
        raise FormatError(
            f"{DOSAGE_RANGE_ERROR}, found {matrix[row][out_of_range[row]][0]}",
            GENOTYPES_FILE, _physical_line(data, row),
        )
    return snp_ids, matrix


def _read_genotypes(data: bytes) -> GenotypeMatrix:
    """Parse and validate the genotype file, every error ``genotypes.txt:<line>:``."""
    snp_ids, matrix = parse_genotype_rows(data)
    if not snp_ids.size:
        raise FormatError(f"{GENOTYPES_FILE}: empty genotype file")
    try:
        return GenotypeMatrix(snp_ids, matrix)
    except ValueError as exc:
        # only a repeated id is left to refuse: find the lines it is on
        first_row: dict[int, int] = {}
        for row, snp_id in enumerate(snp_ids.tolist()):
            if first_row.setdefault(snp_id, row) != row:
                break
        else:
            raise
        raise FormatError(
            f"SNP id {snp_id} repeats line {_physical_line(data, first_row[snp_id])}",
            GENOTYPES_FILE, _physical_line(data, row),
        ) from exc


def _read_metadata(base: str, hdfs: "MiniHDFS | None"):
    """The three small files: ``(phenotype, {snp: weight}, {set name: [snp ids]})``."""

    def parsed(parse, name):
        return _parse_lines(parse, _decode_lines(_read_file(base, name, hdfs), name), name)

    phenotype_rows = sorted(parsed(parse_phenotype_line, PHENOTYPE_FILE))
    times = np.array([t for _, t, _ in phenotype_rows])
    events = np.array([e for _, _, e in phenotype_rows])
    phenotype = SurvivalPhenotype(times, events)
    weight_map = dict(parsed(parse_weight_line, WEIGHTS_FILE))
    sets = dict(parsed(parse_snpset_line, SNPSETS_FILE))
    return phenotype, weight_map, sets


def _align(
    snp_ids: np.ndarray, weight_map: dict[int, float], sets: dict[str, list[int]]
) -> tuple[np.ndarray, SnpSetCollection]:
    """Weights and set membership in ``snp_ids`` order, joined by SNP id."""
    try:
        weights = np.array([weight_map[s] for s in snp_ids.tolist()])
    except KeyError as exc:
        raise FormatError(f"{WEIGHTS_FILE}: missing SNP {exc}") from exc
    try:
        snpsets = SnpSetCollection.from_lists(snp_ids, sets)
    except ValueError as exc:
        raise FormatError(f"{SNPSETS_FILE}: {exc}") from exc
    return weights, snpsets


def read_dataset(base: str, hdfs: "MiniHDFS | None" = None) -> Dataset:
    """Load a dataset previously written by :func:`write_dataset`.

    Malformed input raises :class:`~repro.genomics.io.formats.FormatError`
    (a ``ValueError``) whose message starts ``<file>:<line>:``.
    """
    genotypes = _read_genotypes(_read_file(base, GENOTYPES_FILE, hdfs))
    phenotype, weight_map, sets = _read_metadata(base, hdfs)
    weights, snpsets = _align(genotypes.snp_ids, weight_map, sets)
    return Dataset(genotypes, phenotype, weights, snpsets)


def open_dataset(base: str, hdfs: "MiniHDFS | None" = None) -> Dataset:
    """:func:`read_dataset` without reading the genotype file.

    Reads phenotype, weights and SNP-sets; ``dataset.genotypes`` is a
    :class:`~repro.genomics.genotypes.DeferredGenotypeMatrix` whose rows are
    the SNPs of ``snpsets.txt`` in the order that file lists them (for a
    dataset written by :func:`write_dataset`, the genotype file's order)
    and whose ``matrix`` is read, validated as :func:`read_dataset`
    validates it and aligned to that order by SNP id when first touched.
    """
    phenotype, weight_map, sets = _read_metadata(base, hdfs)
    snp_ids = np.array([s for ids in sets.values() for s in ids], dtype=np.int64)
    weights, snpsets = _align(snp_ids, weight_map, sets)

    def load() -> np.ndarray:
        on_file = _read_genotypes(_read_file(base, GENOTYPES_FILE, hdfs))
        if on_file.n_patients != phenotype.n:
            raise ValueError("phenotype length must match genotype columns")
        if np.array_equal(on_file.snp_ids, snp_ids):
            return on_file.matrix
        # words a SNP no set covers and a set naming a SNP the file lacks
        _align(on_file.snp_ids, weight_map, sets)
        order = np.argsort(on_file.snp_ids)
        return on_file.matrix[order[np.searchsorted(on_file.snp_ids[order], snp_ids)]]

    genotypes = DeferredGenotypeMatrix(snp_ids, phenotype.n, load)
    return Dataset(genotypes, phenotype, weights, snpsets)
