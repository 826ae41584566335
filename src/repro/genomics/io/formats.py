"""Line-level (de)serialization for the four SparkScore input files.

These functions are deliberately tiny and dependency-free on the write
side; the genotype line parser returns a NumPy vector, the row
:func:`parse_genotype_text` gives for that line when an engine task parses
its whole split (Algorithm 1, step 3).

Genotype text has one *canonical* shape -- ``<ascii digits>\t`` followed by
single-digit dosages separated by commas, which is the only shape
:func:`~repro.genomics.io.dataset_io.write_dataset` has ever produced.
Canonical fields are decoded (and encoded) by byte arithmetic, with no
per-genotype Python call; every other line -- multi-digit or signed tokens,
spaces, non-ASCII digits, a trailing comma, a missing tab -- goes through the
token-by-token parser, which therefore defines both the accepted inputs and
the text of every error.  Which path a line takes is decided from its bytes
alone.

The three small files are read the same way round: :func:`_columns` splits
a file into columns in one call for a reader that decodes and checks them a
column at a time, and any file that fails a check goes to the per-line
parsers below, which define what is accepted and word every error.

The per-line parsers raise :class:`FormatError` without a location (a line
does not know its file); the whole-file readers prefix ``<file>:<line>:``,
and a reader handed part of a file (an engine task parsing its split) moves
the line number by the lines before its part (:meth:`FormatError.moved`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

T = TypeVar("T")

_ZERO, _COMMA, _TAB, _NEWLINE = b"0,\t\n"
#: a canonical SNP id is at most this many ASCII digits: it fits ``int64`` and
#: ``int()`` cannot refuse it (Python caps the digits it will convert)
_ID_DIGITS = 18


class FormatError(ValueError):
    """A malformed input line, reading ``<source>:<lineno>: <message>`` once located.

    Deterministic in the input bytes: the engine's scheduler does not retry
    a task that raised one.
    """

    def __init__(self, message: str, source: str | None = None, lineno: int | None = None):
        self.message, self.source, self.lineno = message, source, lineno
        super().__init__(message if lineno is None else f"{source}:{lineno}: {message}")

    def moved(self, lines_before: int) -> "FormatError":
        """The same error, ``lines_before`` physical lines further into its file."""
        if self.lineno is None:
            return self
        return FormatError(self.message, self.source, self.lineno + lines_before)


def _decode_lines(data: bytes, source: str) -> list[str]:
    """The physical lines of a UTF-8 text file (``str.splitlines`` breaks)."""
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"not UTF-8 text ({exc.reason})", source, line) from exc


def _parse_lines(
    parse: Callable[[str], T], lines: Iterable[str], source: str
) -> Iterator[T]:
    """``parse`` over the non-blank ``lines``, errors located ``source:line:``."""
    for lineno, line in enumerate(lines, 1):
        if line:
            try:
                yield parse(line)
            except FormatError as exc:
                raise FormatError(str(exc), source, lineno) from exc


def _columns(lines: list[str], width: int) -> list[list[str]] | None:
    """The non-blank ``lines`` as ``width`` columns of their tab-separated
    fields, split in one call; ``None`` when some line holds another number
    of fields, or none is left."""
    rows = list(filter(None, lines))
    text = "\n".join(rows)
    buf = np.frombuffer(text.encode("utf-8"), np.uint8)
    tabs = np.bincount(np.cumsum(buf == _NEWLINE)[buf == _TAB], minlength=len(rows))
    if not rows or (tabs != width - 1).any():
        return None
    cells = text.replace("\n", "\t").split("\t")
    return [cells[i::width] for i in range(width)]


# -- genotype matrix ----------------------------------------------------------


def format_genotype_line(snp_id: int, genotypes: np.ndarray) -> str:
    return f"{int(snp_id)}\t{','.join(str(int(g)) for g in genotypes)}"


def _format_genotype_text(snp_ids: np.ndarray, matrix: np.ndarray) -> bytes:
    """Every row as :func:`format_genotype_line` plus a newline, as bytes.

    Dosages 0-9 are written into one ``(J, 2n)`` byte block ``d , d , ... \\n``;
    a row holding anything else is formatted by :func:`format_genotype_line`.
    """
    n_rows, n = matrix.shape
    digits = matrix.view(np.uint8)  # of int8: a negative dosage reads as >= 128
    block = np.empty((n_rows, 2 * n), dtype=np.uint8)
    np.add(digits, _ZERO, out=block[:, 0::2])
    block[:, 1::2] = _COMMA
    block[:, -1:] = _NEWLINE
    single_digit = (digits.max(axis=1, initial=0) <= 9).tolist()
    parts: list = []
    for snp_id, row, line, ok in zip(snp_ids.tolist(), matrix, block, single_digit):
        if ok and n:
            parts += (b"%d\t" % snp_id, line)
        else:
            parts.append(format_genotype_line(snp_id, row).encode() + b"\n")
    return b"".join(parts)


def _decode_digits(field: np.ndarray) -> np.ndarray | None:
    """``uint8`` bytes of ``d,d,...,d`` -> fresh ``int8`` dosages; else ``None``."""
    if not field.size & 1:
        return None
    # uint8 wraps: a byte below "0" lands above 9 too
    values = field[0::2] - _ZERO
    if values.max() > 9 or (field[1::2] != _COMMA).any():
        return None
    return values.view(np.int8)


def _parse_genotype_tokens(line: str) -> tuple[int, np.ndarray]:
    """The reference parser: one ``int()`` per token."""
    try:
        snp_field, values_field = line.split("\t", 1)
        snp_id = int(snp_field)
        tokens = values_field.split(",")
        values = np.fromiter((int(t) for t in tokens), dtype=np.int8, count=len(tokens))
    except ValueError as exc:
        raise FormatError(f"bad genotype line {line[:80]!r}: {exc}") from exc
    return snp_id, values


def parse_genotype_line(line: str) -> tuple[int, np.ndarray]:
    tab = line.find("\t")
    if 0 < tab <= _ID_DIGITS and line.isascii() and line[:tab].isdigit():
        values = _decode_digits(np.frombuffer(line.encode("ascii"), np.uint8, offset=tab + 1))
        if values is not None:
            return int(line[:tab]), values
    return _parse_genotype_tokens(line)


def parse_genotype_text(
    data: bytes, source: str = "genotypes.txt", n_columns: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Genotype text -> ``(snp_ids int64 (J,), matrix int8 (J, n))``.

    ``data`` is a whole file or any run of whole lines of one.  Row for row
    what :func:`parse_genotype_line` returns for each non-blank line, without
    the per-line ``str`` and array copies.  Errors (a malformed line, a row
    of another length than ``n_columns`` -- the first row's, when not given --
    an id beyond 64 bits) are :class:`FormatError` prefixed ``source:line:``,
    counting the physical lines of ``data``.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    newlines, tabs = np.flatnonzero(buf == _NEWLINE), np.flatnonzero(buf == _TAB)
    if buf.size and (
        buf.max() > 0x7F or np.count_nonzero(buf < 0x20) != newlines.size + tabs.size
    ):
        # something other than "\n" may break lines here ("\r\n", "\x0c",
        # U+2028 ...): let str.splitlines, the definition, rewrite them
        data = "\n".join(_decode_lines(data, source)).encode("utf-8")
        buf = np.frombuffer(data, dtype=np.uint8)
        newlines, tabs = np.flatnonzero(buf == _NEWLINE), np.flatnonzero(buf == _TAB)
    # the last line ends at the end of the buffer (and is blank after a final "\n")
    ends = np.append(newlines, buf.size)
    starts = np.concatenate(([0], ends[:-1] + 1))
    # each line's first tab (the line's end or beyond when it has none)
    first_tab = np.append(tabs, buf.size)[np.searchsorted(tabs, starts)]
    linenos = np.flatnonzero(ends > starts)
    snp_ids = np.empty(linenos.size, dtype=np.int64)
    matrix = np.empty((linenos.size, n_columns or 0), dtype=np.int8)
    rows = zip(linenos.tolist(), starts[linenos].tolist(),
               first_tab[linenos].tolist(), ends[linenos].tolist())
    for row, (lineno, start, tab, end) in enumerate(rows):
        snp_id = data[start:tab] if tab < end else b""  # digits, until int() below
        values = None
        if len(snp_id) <= _ID_DIGITS and snp_id.isdigit():
            values = _decode_digits(buf[tab + 1:end])
        try:
            if values is None:
                snp_id, values = _parse_genotype_tokens(data[start:end].decode("utf-8"))
            if row == 0 and n_columns is None:
                matrix = np.empty((linenos.size, values.size), dtype=np.int8)
            elif values.size != matrix.shape[1]:
                raise FormatError(
                    f"expected {matrix.shape[1]} genotypes, found {values.size}"
                )
            matrix[row] = values
            snp_ids[row] = int(snp_id)
        except (FormatError, OverflowError) as exc:
            raise FormatError(str(exc), source, lineno + 1) from exc
    return snp_ids, matrix


# -- phenotype pairs ------------------------------------------------------------


def format_phenotype_line(patient_index: int, time: float, event: int) -> str:
    return f"{int(patient_index)}\t{time!r}\t{int(event)}"


def parse_phenotype_line(line: str) -> tuple[int, float, int]:
    try:
        idx_field, time_field, event_field = line.split("\t")
        idx, time, event = int(idx_field), float(time_field), int(event_field)
        if event not in (0, 1):
            raise ValueError(f"event must be 0/1, got {event}")
        if time < 0:
            raise ValueError("negative time")
    except ValueError as exc:
        raise FormatError(f"bad phenotype line {line[:80]!r}: {exc}") from exc
    return idx, time, event


# -- weights ----------------------------------------------------------------------


def format_weight_line(snp_id: int, weight: float) -> str:
    return f"{int(snp_id)}\t{weight!r}"


def parse_weight_line(line: str) -> tuple[int, float]:
    try:
        snp_field, weight_field = line.split("\t")
        snp_id, weight = int(snp_field), float(weight_field)
        if weight < 0:
            raise ValueError("negative weight")
    except ValueError as exc:
        raise FormatError(f"bad weight line {line[:80]!r}: {exc}") from exc
    return snp_id, weight


# -- SNP-sets ----------------------------------------------------------------------


def format_snpset_line(name: str, snp_ids: list[int]) -> str:
    if "\t" in name:
        raise FormatError("set name may not contain a tab")
    return f"{name}\t{','.join(str(int(s)) for s in snp_ids)}"


def parse_snpset_line(line: str) -> tuple[str, list[int]]:
    try:
        name, ids_field = line.split("\t", 1)
        ids = [int(tok) for tok in ids_field.split(",") if tok.strip()]
    except ValueError as exc:
        raise FormatError(f"bad SNP-set line {line[:80]!r}: {exc}") from exc
    return name, ids
