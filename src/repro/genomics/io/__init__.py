"""Text file formats for SparkScore inputs.

Four files, mirroring Algorithm 1's inputs:

- genotype matrix: ``<snp_id>\\t<g_1>,<g_2>,...,<g_n>``
- phenotype pairs: ``<patient_index>\\t<time>\\t<event>``
- SNP weights:     ``<snp_id>\\t<weight>``
- SNP-sets:        ``<set_name>\\t<snp_id_1>,<snp_id_2>,...``

Line-level parse/format functions live in :mod:`repro.genomics.io.formats`
(the weight parser is also the map function of the engine's weights
stage; genotype splits are parsed whole, ``parse_genotype_text``); whole-dataset
round trips in :mod:`repro.genomics.io.dataset_io` work against either a
local directory or a :class:`~repro.hdfs.filesystem.MiniHDFS`.

Genotype lines in the canonical shape -- an id of ASCII digits, a tab,
single-digit dosages separated by commas; what ``write_dataset`` writes --
are decoded by byte arithmetic, per line (``parse_genotype_line``) or per
file (``parse_genotype_text``).  Every other line takes the token-by-token
parser, so the accepted inputs and the error text are the same on both
paths.  ``read_dataset`` reports malformed input as a ``FormatError`` whose
message starts ``<file>:<line>:`` (physical lines, blank ones counted).
``open_dataset`` reads the three small files and leaves the genotype file to
whoever needs it: the engine's tasks parse their own splits of it, and the
dataset's matrix is loaded on first touch.
"""

from repro.genomics.io.dataset_io import open_dataset, read_dataset, write_dataset
from repro.genomics.io.formats import (
    format_genotype_line,
    format_phenotype_line,
    format_snpset_line,
    format_weight_line,
    parse_genotype_line,
    parse_genotype_text,
    parse_phenotype_line,
    parse_snpset_line,
    parse_weight_line,
)

__all__ = [
    "format_genotype_line",
    "format_phenotype_line",
    "format_snpset_line",
    "format_weight_line",
    "open_dataset",
    "parse_genotype_line",
    "parse_genotype_text",
    "parse_phenotype_line",
    "parse_snpset_line",
    "parse_weight_line",
    "read_dataset",
    "write_dataset",
]
