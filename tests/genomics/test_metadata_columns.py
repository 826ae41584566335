"""The column readers of the three small files against the per-line parsers.

``_read_phenotype`` / ``_read_weights`` / ``_read_snpsets`` decode a file a
column at a time and hand any file that fails a check to the per-line
parsers.  With :func:`~repro.genomics.io.formats._columns` answering
``None``, every file takes the per-line route: for random valid files both
routes must give the same arrays to the bit (and the same set names, in the
same order), and for random one-line corruptions the same ``FormatError``.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genomics.io import dataset_io
from repro.genomics.io.formats import FormatError

READERS = {
    "phenotype": dataset_io._read_phenotype,
    "weights": dataset_io._read_weights,
    "snpsets": dataset_io._read_snpsets,
}

# field spellings int() / float() accept beyond the plain ones
INT_SPELLINGS = st.sampled_from(["{}", " {}", "{} ", "{:+}", "{:_}"])
FLOAT_SPELLINGS = st.sampled_from(["{!r}", "{:.3e}", " {!r}", "{:.0f}", "{:g}"])
TIMES = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
NAMES = st.text(alphabet="abcXYZ019 _-.:", min_size=1, max_size=6)


@st.composite
def phenotype_files(draw):
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n)))
    spell = draw(INT_SPELLINGS)
    return [
        f"{spell.format(i)}\t{draw(FLOAT_SPELLINGS).format(draw(TIMES))}\t{draw(st.integers(0, 1))}"
        for i in order
    ]


@st.composite
def weight_files(draw):
    ids = draw(st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=12, unique=True))
    spell = draw(INT_SPELLINGS)
    return [f"{spell.format(s)}\t{draw(FLOAT_SPELLINGS).format(draw(TIMES))}" for s in ids]


@st.composite
def snpset_files(draw):
    names = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=len(names), max_size=30, unique=True))
    # every set non-empty: len(names) - 1 distinct cuts inside the id list
    cuts = draw(st.lists(
        st.integers(1, len(ids) - 1), min_size=len(names) - 1, max_size=len(names) - 1,
        unique=True,
    )) if len(names) > 1 else []
    cuts = [0, *sorted(cuts), len(ids)]
    spell = draw(INT_SPELLINGS)
    return [
        f"{name}\t{','.join(spell.format(s) for s in ids[lo:hi])}"
        for name, lo, hi in zip(names, cuts, cuts[1:])
    ]


FILES = {"phenotype": phenotype_files(), "weights": weight_files(), "snpsets": snpset_files()}


def _with_blank_lines(draw, lines):
    at = draw(st.lists(st.integers(0, len(lines)), max_size=2))
    lines = list(lines)
    for i in sorted(at, reverse=True):
        lines.insert(i, "")
    return lines


CORRUPTIONS = [
    lambda line, other: line.replace("\t", "\tx", 1),  # a bad field
    lambda line, other: line + "\t1",  # one field too many
    lambda line, other: line[: line.rindex("\t")] if "\t" in line else line + "\t",  # one too few
    lambda line, other: line.replace("\t", "\t-", 1),  # a negative number
    lambda line, other: line[:-1] + "2",  # an event of 2, or another last digit
    lambda line, other: other[: other.index("\t")] + line[line.index("\t"):],  # a repeated key
    lambda line, other: line + ",",  # a trailing comma (a blank set token)
    lambda line, other: line + "," + str(2**70),  # an id past 64 bits
    lambda line, other: "99" + line,  # an index or id moved
    lambda line, other: line.replace("\t", " ", 1),  # no tab
]


def _outcome(reader, lines, columns: bool):
    """The reader's arrays (as bytes, so NaN and -0.0 compare by bits) or its error."""
    patch = mock.patch.object(dataset_io, "_columns", return_value=None)
    try:
        if columns:
            value = reader(lines)
        else:
            with patch:
                value = reader(lines)
    except FormatError as exc:
        return "error", str(exc)
    if isinstance(value, dict):
        return [(name, ids.dtype.str, ids.tobytes()) for name, ids in value.items()]
    if isinstance(value, tuple):
        return [(a.dtype.str, a.tobytes()) for a in value]
    return [(a.dtype.str, a.tobytes()) for a in (value.time, value.event)]


@pytest.mark.parametrize("kind", sorted(FILES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_valid_files_read_the_same_both_ways(kind, data):
    lines = _with_blank_lines(data.draw, data.draw(FILES[kind]))
    columns = _outcome(READERS[kind], lines, columns=True)
    assert columns[0] != "error"
    assert columns == _outcome(READERS[kind], lines, columns=False)


@pytest.mark.parametrize("kind", sorted(FILES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_one_line_corruptions_read_the_same_both_ways(kind, data):
    lines = data.draw(FILES[kind])
    row = data.draw(st.integers(0, len(lines) - 1))
    other = lines[data.draw(st.integers(0, len(lines) - 1))]
    corrupt = data.draw(st.sampled_from(CORRUPTIONS))
    lines[row] = corrupt(lines[row], other)
    lines = _with_blank_lines(data.draw, lines)
    assert _outcome(READERS[kind], lines, columns=True) == _outcome(
        READERS[kind], lines, columns=False
    )


def test_the_column_route_is_taken_for_plain_files():
    """The property above is vacuous if every file falls back."""
    lines = {
        "phenotype": ["1\t2.5\t1", "0\t0.5\t0"],
        "weights": ["7\t1.0", "3\t0.25"],
        "snpsets": ["a\t7", "b\t3"],
    }
    for kind, reader in READERS.items():
        with mock.patch.object(dataset_io, "_parse_lines", side_effect=AssertionError(kind)):
            reader(lines[kind])
    phenotype = dataset_io._read_phenotype(lines["phenotype"])
    assert phenotype.time.tolist() == [0.5, 2.5] and phenotype.event.tolist() == [0.0, 1.0]
