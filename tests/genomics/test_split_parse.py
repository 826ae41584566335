"""A genotype file parsed split by split is the file parsed whole.

The engine's executors each parse the bytes of the splits they own
(``text_file(...).splits()`` -> ``parse_genotype_text``); these properties
pin that route to the whole-file parser over the inputs PR 19's strategies
generate, for every way a split boundary can fall.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.engine.context import Context
from repro.genomics.io.formats import FormatError, parse_genotype_line, parse_genotype_text
from repro.hdfs.filesystem import MiniHDFS
from tests.genomics.test_io import _genotype_lines

_NEWLINES = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", " "])


@st.composite
def _genotype_files(draw):
    """PR 19's file strategy: mostly rows of one width, odd lines and blank
    lines mixed in, any line break, final break or not."""
    n = draw(st.integers(1, 5))
    lines = draw(st.lists(
        st.one_of(*[_genotype_lines(st.just(n))] * 8, _genotype_lines(), st.just("")),
        max_size=8,
    ))
    newline = draw(_NEWLINES)
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


#: no heartbeat thread: the contexts here only number RDDs and read splits
_CONFIG = EngineConfig(backend="serial", heartbeat_interval=0)


@pytest.fixture(scope="module")
def driver():
    with Context(_CONFIG) as ctx:
        yield ctx


def _width_of_first_row(text: str) -> "int | None":
    """What the whole-file parser holds every row to; None if row one is bad."""
    for line in text.splitlines():
        if line:
            try:
                return parse_genotype_line(line)[1].size
            except (FormatError, OverflowError):
                return None
    return None


def _whole(data: bytes):
    try:
        snp_ids, matrix = parse_genotype_text(data)
    except FormatError as exc:
        return "FormatError", str(exc)
    return snp_ids.tolist(), matrix.tolist()


def _split_by_split(text_rdd, n_columns):
    """What the tasks of a job over ``text_rdd.splits()`` make of the file,
    taken in split order: every row, or the first error, moved to its
    whole-file line."""
    ids, rows = [], []
    for index in range(text_rdd.num_partitions()):
        split = text_rdd.read_split(index)
        try:
            snp_ids, matrix = parse_genotype_text(split.data, "genotypes.txt", n_columns)
        except FormatError as exc:
            return "FormatError", str(exc.moved(split.lines_before()))
        ids += snp_ids.tolist()
        rows += matrix.tolist()
    return ids, rows


def _assert_whole_lines_owned_once(text_rdd, data: bytes):
    """The splits' bytes tile the file, each split a run of whole lines."""
    owned = [text_rdd.read_split(i).data for i in range(text_rdd.num_partitions())]
    assert b"".join(owned) == data
    for index, part in enumerate(owned):
        assert not part or part.endswith(b"\n") or not b"".join(owned[index + 1:])
    lines_before = [text_rdd.read_split(i).lines_before() for i in range(len(owned))]
    seen = 0
    for part, before in zip(owned, lines_before):
        assert before == seen
        seen += len(part.decode("utf-8").splitlines())


class TestLocalSplits:
    @seed(210_001)
    @settings(max_examples=250, deadline=None, database=None)
    @given(_genotype_files(), st.data())
    # boundaries mid-line, on a newline, one past it, at EOF; more splits than lines
    @example("1\t0,1\n2\t1,1\n3\t2,0\n", None)
    @example("1\t0,1\n\n\n2\t1,1", None)
    @example("1\t0,1\r\n2\t1,x\r\n3\t2,0\r\n", None)
    @example("1\t0,1\n2\t1\n3\t2,0\n", None)
    @example("", None)
    def test_matches_the_whole_file_parse(self, driver, text, data):
        raw = text.encode("utf-8")
        counts = (
            range(1, len(raw) + 3) if data is None
            else [data.draw(st.integers(1, len(raw) + 2), label="min_partitions")]
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "genotypes.txt")
            with open(path, "wb") as fh:
                fh.write(raw)
            for min_partitions in counts:
                text_rdd = driver.text_file(path, min_partitions)
                _assert_whole_lines_owned_once(text_rdd, raw)
                assert _split_by_split(text_rdd, _width_of_first_row(text)) == _whole(raw)

    @seed(210_002)
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        st.integers(1, 4).flatmap(lambda n: st.lists(
            st.tuples(st.integers(0, 10**6), st.lists(st.integers(0, 2), min_size=n, max_size=n)),
            min_size=1, max_size=10,
        )),
        st.data(),
    )
    def test_injected_bad_line_keeps_its_whole_file_number(self, driver, rows, data):
        lines = [f"{snp}\t{','.join(map(str, values))}" for snp, values in rows]
        at = data.draw(st.integers(0, len(lines)), label="bad line goes before")
        blanks = data.draw(st.integers(0, 2), label="blank lines before it")
        lines[at:at] = [""] * blanks + ["77\t0,x"]
        raw = ("\n".join(lines) + "\n").encode()
        width = len(rows[0][1])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "genotypes.txt")
            with open(path, "wb") as fh:
                fh.write(raw)
            for min_partitions in (1, 2, 3, len(lines), len(raw) + 1):
                kind, message = _split_by_split(driver.text_file(path, min_partitions), width)
                assert kind == "FormatError"
                assert message.startswith(f"genotypes.txt:{at + blanks + 1}: bad genotype line")

    def test_lines_are_what_they_were(self, driver, tmp_path):
        """``compute`` decodes the same owned bytes: blank lines kept, a
        final newline ends the last line, ``\\r`` stays on its line."""
        path = tmp_path / "t.txt"
        path.write_bytes(b"a\n\nb\r\nc")
        for min_partitions in range(1, 10):
            assert driver.text_file(str(path), min_partitions).collect() == ["a", "", "b\r", "c"]
        path.write_bytes(b"a\nb\n")
        assert driver.text_file(str(path), 3).collect() == ["a", "b"]

    def test_splits_rdd_carries_one_record_per_partition(self, driver, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"1\t0\n2\t1\n3\t2\n")
        parts = driver.text_file(str(path), 2).splits().collect_partitions()
        assert [len(part) for part in parts] == [1, 1]
        assert b"".join(part[0].data for part in parts) == path.read_bytes()


class TestHdfsBlocks:
    @seed(210_003)
    @settings(max_examples=150, deadline=None, database=None)
    @given(_genotype_files(), st.integers(1, 40))
    @example("1\t0,1\n2\t1,x\n3\t2,0\n", 7)
    def test_matches_the_whole_file_parse(self, text, block_size):
        fs = MiniHDFS(num_datanodes=2, block_size=block_size)
        fs.write_text("/g/genotypes.txt", text)
        raw = text.encode("utf-8")
        with Context(_CONFIG, hdfs=fs) as ctx:
            text_rdd = ctx.text_file("hdfs:///g/genotypes.txt")
            _assert_whole_lines_owned_once(text_rdd, raw)
            assert _split_by_split(text_rdd, _width_of_first_row(text)) == _whole(raw)


def test_n_columns_holds_the_first_row_too():
    """A split does not start at the file's first row: the width comes from
    the phenotype, and row one of the split is held to it like any other."""
    with pytest.raises(FormatError, match=r"^genotypes\.txt:1: expected 3 genotypes, found 2$"):
        parse_genotype_text(b"1\t0,1\n2\t0,1,2\n", n_columns=3)
    ids, matrix = parse_genotype_text(b"", n_columns=3)
    assert ids.shape == (0,) and matrix.shape == (0, 3)
    assert np.array_equal(parse_genotype_text(b"1\t0,1,2\n", n_columns=3)[1], [[0, 1, 2]])
