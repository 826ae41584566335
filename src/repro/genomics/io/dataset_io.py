"""Whole-dataset round trips against a local directory.

The three small files -- phenotype, weights, SNP-sets -- are decoded a
column at a time: each is split in one call, every column goes through one
``map(int)`` / ``map(float)``, NumPy makes the range and uniqueness checks,
and weights and sets are joined to the SNP ids with one ``searchsorted``.
A file that fails any check is read again by the per-line parsers, which
define what is accepted and word each error ``<file>:<line>:`` -- the split
:func:`~repro.genomics.io.formats.parse_genotype_text` makes for genotypes.
Either way the values are the same to the bit.
"""

from __future__ import annotations

import os

import numpy as np

from repro.genomics.genotypes import (
    DOSAGE_RANGE_ERROR,
    DeferredGenotypeMatrix,
    GenotypeMatrix,
)
from repro.genomics.io.formats import (
    FormatError,
    _columns,
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

GENOTYPES_FILE = "genotypes.txt"
PHENOTYPE_FILE = "phenotype.txt"
WEIGHTS_FILE = "weights.txt"
SNPSETS_FILE = "snpsets.txt"


def _write_file(base: str, name: str, content: bytes) -> str:
    os.makedirs(base, exist_ok=True)
    path = os.path.join(base, name)
    with open(path, "wb") as fh:
        fh.write(content)
    return path


def _read_file(base: str, name: str) -> bytes:
    with open(os.path.join(base, name), "rb") as fh:
        return fh.read()


def _encode_lines(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_dataset(dataset: Dataset, base: str) -> dict[str, str]:
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
        "genotypes": _write_file(base, GENOTYPES_FILE, genotype_text),
        "phenotype": _write_file(base, PHENOTYPE_FILE, _encode_lines(phenotype_lines)),
        "weights": _write_file(base, WEIGHTS_FILE, _encode_lines(weight_lines)),
        "snpsets": _write_file(base, SNPSETS_FILE, _encode_lines(snpset_lines)),
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


def _linenos(lines: list[str]) -> list[int]:
    """The 1-based physical line of each non-blank line."""
    return [i for i, line in enumerate(lines, 1) if line]


def _decoded(columns: list[list[str]], dtypes: list) -> list[np.ndarray] | None:
    """Each column in one ``np.array`` call, which takes every field through
    ``int()`` / ``float()`` as the per-line parsers do; ``None`` if one fails."""
    try:
        return [np.array(column, dtype) for column, dtype in zip(columns, dtypes)]
    except (ValueError, OverflowError):
        return None


def _read_phenotype(lines: list[str]) -> SurvivalPhenotype:
    """Patient ``i``'s time and event in row ``i``; the indices must be
    ``0..n-1``, each on one line."""
    columns = _columns(lines, 3)
    decoded = columns and _decoded(columns, [np.int64, np.float64, np.int64])
    if decoded:
        index, time, event = decoded
        if ((index >= 0) & (index < index.size)).all() and np.isin(event, (0, 1)).all():
            times, events = np.full(index.size, np.nan), np.full(index.size, -1)
            times[index], events[index] = time, event
            if (events >= 0).all() and not (time < 0).any():
                return SurvivalPhenotype(times, events)
    rows = list(_parse_lines(parse_phenotype_line, lines, PHENOTYPE_FILE))
    first: dict[int, int] = {}
    for (index, _, _), lineno in zip(rows, _linenos(lines)):
        if not 0 <= index < len(rows):
            raise FormatError(
                f"patient index {index} is not in 0..{len(rows) - 1}", PHENOTYPE_FILE, lineno
            )
        if first.setdefault(index, lineno) != lineno:
            raise FormatError(
                f"patient index {index} repeats line {first[index]}", PHENOTYPE_FILE, lineno
            )
    rows.sort()
    return SurvivalPhenotype(np.array([t for _, t, _ in rows]), np.array([e for _, _, e in rows]))


def _weight_columns(lines: list[str]) -> list[np.ndarray] | None:
    """``[SNP ids, weights]`` of the non-blank ``lines``, decoded a column at
    a time; ``None`` when a check fails (a line for the per-line parser)."""
    columns = _columns(lines, 2)
    decoded = columns and _decoded(columns, [np.int64, np.float64])
    return decoded if decoded and not (decoded[1] < 0).any() else None


def parse_weight_rows(data: bytes) -> list[tuple[int, float]]:
    """Whole lines of a weights file -> its ``(snp_id, weight)`` records in
    file order, each what :func:`parse_weight_line` gives for its line.

    What an engine task runs on its split of ``weights.txt``: errors are
    :class:`FormatError` as ``weights.txt:<line of data>:``.
    """
    lines = _decode_lines(data, WEIGHTS_FILE)
    decoded = _weight_columns(lines)
    if decoded:
        return list(zip(*(column.tolist() for column in decoded)))
    return list(_parse_lines(parse_weight_line, lines, WEIGHTS_FILE))


def _read_weights(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``(SNP ids, weights)`` in file order, each id on one line.  An id
    beyond 64 bits names no genotype row and is dropped."""
    decoded = _weight_columns(lines)
    if decoded and np.diff(np.sort(decoded[0])).all():
        snp_ids, weights = decoded
        return snp_ids, weights
    rows = list(_parse_lines(parse_weight_line, lines, WEIGHTS_FILE))
    first: dict[int, int] = {}
    for (snp_id, _), lineno in zip(rows, _linenos(lines)):
        if first.setdefault(snp_id, lineno) != lineno:
            raise FormatError(f"SNP id {snp_id} repeats line {first[snp_id]}", WEIGHTS_FILE, lineno)
    rows = [(s, w) for s, w in rows if -(2**63) <= s < 2**63]
    return np.array([s for s, _ in rows], np.int64), np.array([w for _, w in rows], np.float64)


def _read_snpsets(lines: list[str]) -> dict[str, np.ndarray]:
    """``{set name: int64 SNP ids}`` in file order; a name listed twice
    keeps its first place and its last line's ids."""
    rows = list(filter(None, lines))
    if rows:
        names, tabs, fields = zip(*(row.partition("\t") for row in rows))
        unique = all(tabs) and len(set(names)) == len(names)
        decoded = unique and _decoded([",".join(fields).split(",")], [np.int64])
        if decoded:
            sizes = [field.count(",") + 1 for field in fields]
            return dict(zip(names, np.split(decoded[0], np.cumsum(sizes)[:-1])))
    sets = dict(_parse_lines(parse_snpset_line, lines, SNPSETS_FILE))
    for name, ids in sets.items():
        try:
            sets[name] = np.array(ids, np.int64)
        except OverflowError:
            huge = next(s for s in ids if not -(2**63) <= s < 2**63)
            raise FormatError(f"{SNPSETS_FILE}: set {name!r} references unknown SNP {huge}") from None
    return sets


def _read_metadata(base: str):
    """The three small files: ``(phenotype, (SNP ids, weights), {set name:
    SNP ids})``."""

    def lines(name):
        return _decode_lines(_read_file(base, name), name)

    return (
        _read_phenotype(lines(PHENOTYPE_FILE)),
        _read_weights(lines(WEIGHTS_FILE)),
        _read_snpsets(lines(SNPSETS_FILE)),
    )


def _align(
    snp_ids: np.ndarray, weights: tuple[np.ndarray, np.ndarray], sets: dict[str, np.ndarray]
) -> tuple[np.ndarray, SnpSetCollection]:
    """Weights and set membership in ``snp_ids`` order, joined by SNP id."""
    weight_ids, values = weights
    order = np.argsort(weight_ids)
    at = np.searchsorted(weight_ids, snp_ids, sorter=order)
    found = at < order.size
    found[found] = weight_ids[order[at[found]]] == snp_ids[found]
    if not found.all():
        raise FormatError(f"{WEIGHTS_FILE}: missing SNP {snp_ids[~found][0]}")
    try:
        snpsets = SnpSetCollection.from_lists(snp_ids, sets)
    except ValueError as exc:
        raise FormatError(f"{SNPSETS_FILE}: {exc}") from exc
    return values[order[at]], snpsets


def read_dataset(base: str) -> Dataset:
    """Load a dataset previously written by :func:`write_dataset`.

    Malformed input raises :class:`~repro.genomics.io.formats.FormatError`
    (a ``ValueError``) whose message starts ``<file>:<line>:``.
    """
    genotypes = _read_genotypes(_read_file(base, GENOTYPES_FILE))
    phenotype, weight_table, sets = _read_metadata(base)
    weights, snpsets = _align(genotypes.snp_ids, weight_table, sets)
    return Dataset(genotypes, phenotype, weights, snpsets)


def open_dataset(base: str) -> Dataset:
    """:func:`read_dataset` without reading the genotype file.

    Reads phenotype, weights and SNP-sets; ``dataset.genotypes`` is a
    :class:`~repro.genomics.genotypes.DeferredGenotypeMatrix` whose rows are
    the SNPs of ``snpsets.txt`` in the order that file lists them (for a
    dataset written by :func:`write_dataset`, the genotype file's order)
    and whose ``matrix`` is read, validated as :func:`read_dataset`
    validates it and aligned to that order by SNP id when first touched.
    """
    phenotype, weight_table, sets = _read_metadata(base)
    snp_ids = np.concatenate([np.empty(0, np.int64), *sets.values()])
    weights, snpsets = _align(snp_ids, weight_table, sets)

    def load() -> np.ndarray:
        on_file = _read_genotypes(_read_file(base, GENOTYPES_FILE))
        if on_file.n_patients != phenotype.n:
            raise ValueError("phenotype length must match genotype columns")
        if np.array_equal(on_file.snp_ids, snp_ids):
            return on_file.matrix
        # words a SNP no set covers and a set naming a SNP the file lacks
        _align(on_file.snp_ids, weight_table, sets)
        order = np.argsort(on_file.snp_ids)
        return on_file.matrix[order[np.searchsorted(on_file.snp_ids[order], snp_ids)]]

    genotypes = DeferredGenotypeMatrix(snp_ids, phenotype.n, load)
    return Dataset(genotypes, phenotype, weights, snpsets)
