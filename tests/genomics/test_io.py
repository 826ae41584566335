"""Text formats and whole-dataset round trips."""

import os
import re

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cli import main
from repro.config import EngineConfig
from repro.core.sparkscore import SparkScoreAnalysis
from repro.engine.context import Context
from repro.engine.listener import CollectingListener, TaskEnd
from repro.genomics.io import formats
from repro.genomics.io.dataset_io import read_dataset, write_dataset
from repro.genomics.io.formats import (
    FormatError,
    _format_genotype_text,
    _parse_genotype_tokens,
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
from repro.genomics.synthetic import SyntheticConfig, generate_dataset


class TestGenotypeLines:
    def test_roundtrip(self):
        line = format_genotype_line(7, np.array([0, 1, 2, 1], dtype=np.int8))
        assert line == "7\t0,1,2,1"
        snp_id, values = parse_genotype_line(line)
        assert snp_id == 7
        assert values.tolist() == [0, 1, 2, 1]
        assert values.dtype == np.int8

    @pytest.mark.parametrize("bad", ["", "7", "x\t0,1", "7\t0,a,1"])
    def test_malformed(self, bad):
        with pytest.raises(FormatError):
            parse_genotype_line(bad)


class TestPhenotypeLines:
    def test_roundtrip(self):
        line = format_phenotype_line(3, 12.5, 1)
        assert parse_phenotype_line(line) == (3, 12.5, 1)

    def test_precision_preserved(self):
        t = 0.1 + 0.2  # not exactly representable
        assert parse_phenotype_line(format_phenotype_line(0, t, 0))[1] == t

    @pytest.mark.parametrize("bad", ["", "1\t2.0", "1\t2.0\t3", "1\t-2.0\t1", "a\t2.0\t1"])
    def test_malformed(self, bad):
        with pytest.raises(FormatError):
            parse_phenotype_line(bad)


class TestWeightLines:
    def test_roundtrip(self):
        assert parse_weight_line(format_weight_line(5, 0.25)) == (5, 0.25)

    @pytest.mark.parametrize("bad", ["", "5", "5\t-1.0", "x\t1.0"])
    def test_malformed(self, bad):
        with pytest.raises(FormatError):
            parse_weight_line(bad)


class TestSnpSetLines:
    def test_roundtrip(self):
        line = format_snpset_line("geneA", [1, 2, 3])
        assert parse_snpset_line(line) == ("geneA", [1, 2, 3])

    def test_empty_set(self):
        assert parse_snpset_line(format_snpset_line("g", [])) == ("g", [])

    def test_tab_in_name_rejected(self):
        with pytest.raises(FormatError):
            format_snpset_line("a\tb", [1])

    def test_malformed(self):
        with pytest.raises(FormatError):
            parse_snpset_line("name\t1,x")


class TestDatasetRoundTrip:
    def assert_equal(self, a, b):
        assert np.array_equal(a.genotypes.snp_ids, b.genotypes.snp_ids)
        assert np.array_equal(a.genotypes.matrix, b.genotypes.matrix)
        assert np.allclose(a.phenotype.time, b.phenotype.time)
        assert np.array_equal(a.phenotype.event, b.phenotype.event)
        assert np.allclose(a.weights, b.weights)
        assert np.array_equal(a.snpsets.set_ids, b.snpsets.set_ids)

    def test_local_dir(self, tiny_dataset, tmp_path):
        paths = write_dataset(tiny_dataset, str(tmp_path / "ds"))
        assert set(paths) == {"genotypes", "phenotype", "weights", "snpsets"}
        back = read_dataset(str(tmp_path / "ds"))
        self.assert_equal(tiny_dataset, back)

    def test_missing_weight_detected(self, tiny_dataset, tmp_path):
        base = str(tmp_path / "ds")
        write_dataset(tiny_dataset, base)
        # truncate the weights file
        import os

        weights_path = os.path.join(base, "weights.txt")
        lines = open(weights_path).read().splitlines()
        with open(weights_path, "w") as fh:
            fh.write("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="missing SNP"):
            read_dataset(base)

    def test_empty_genotypes_rejected(self, tmp_path):
        base = tmp_path / "ds"
        base.mkdir()
        for name in ("genotypes.txt", "phenotype.txt", "weights.txt", "snpsets.txt"):
            (base / name).write_text("")
        with pytest.raises(ValueError, match="empty genotype"):
            read_dataset(str(base))


# -- the byte-arithmetic codec against the token parser ------------------------

_DIGITS = st.sampled_from("0123456789")
#: tokens only ``int()`` accepts, and tokens nobody does
_ODD_TOKENS = st.sampled_from(
    ["10", "-1", "+2", " 1", "1 ", "\u0661", "127", "128", "", "x", "1\r", "/", ":"]
)
_ODD_IDS = st.sampled_from(
    ["", "-3", "+4", " 5", "\u0661\u0662", "x", "9" * 18, "9" * 19, "7" * 200]
)
_ODD_TABS = st.sampled_from(["", " ", "\t\t", "\t "])


@st.composite
def _genotype_lines(draw, n_tokens=st.integers(0, 6)):
    """Six in ten canonical; the rest odd in the tokens, the id, the tab, or noise."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.text(alphabet="0123456789,-+ \t\rx\u0661", max_size=12))
    size = draw(n_tokens)
    token = st.one_of(_DIGITS, _DIGITS, _ODD_TOKENS) if kind == 1 else _DIGITS
    tokens = draw(st.lists(token, min_size=size, max_size=size))
    snp_id = draw(_ODD_IDS) if kind == 2 else str(draw(st.integers(0, 10**6)))
    tab = draw(_ODD_TABS) if kind == 3 else "\t"
    return snp_id + tab + ",".join(tokens)


@st.composite
def _run_files(draw):
    """20-200 lines: runs of canonical lines of one width, ids 1-19 digits
    (leading zeros and all), with odd, ragged and blank lines and a
    ``\r\n`` mixed in.  ``((lines, line breaks), dosages per canonical line)``."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 6))
    size = draw(st.integers(20, 200))
    lines: list[str] = []
    while len(lines) < size:
        width = draw(st.one_of(st.integers(1, 19), st.sampled_from([18, 19])))
        for _ in range(draw(st.integers(1, 60))):
            digits = "".join(rnd.choice("0123456789") for _ in range(width))
            if width == 19 and rnd.random() < 0.7:
                digits = "0" + digits[1:]  # 19 digits that still fit int64
            lines.append(digits + "\t" + ",".join(rnd.choice("0123456789") for _ in range(n)))
    del lines[size:]
    odd = st.one_of(
        _genotype_lines(st.just(n)),
        _genotype_lines(),
        st.just(""),
        st.integers(0, 10**6).map(lambda i: f"{i}\t" + ",".join(["1"] * (n + 1))),  # ragged
        st.integers(0, 10**6).map(lambda i: f"{i}\t" + ",".join(["1"] * max(n - 1, 0))),
    )
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(odd))
    breaks = ["\n"] * len(lines)
    for _ in range(draw(st.integers(0, 1))):
        breaks[draw(st.integers(0, len(lines) - 1))] = "\r\n"
    return (lines, breaks), n


def _outcome(call, *args):
    """A parse result, or the exception it raised, in comparable form."""
    try:
        snp_id, values = call(*args)
    except (FormatError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return snp_id, values.dtype, values.tolist()


def _reference_text(text: str, source: str = "genotypes.txt", n_columns=None):
    """The parent's read loop -- token parser over ``str.splitlines`` -- with
    the locations and the ragged-row check ``parse_genotype_text`` adds: every
    row holds ``n_columns`` genotypes, or the first row's number."""
    ids, rows = [], []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        try:
            snp_id, values = _parse_genotype_tokens(line)
            width = n_columns if n_columns is not None or not rows else rows[0].size
            if width is not None and values.size != width:
                raise FormatError(f"expected {width} genotypes, found {values.size}")
            np.int64(snp_id)
        except (FormatError, OverflowError) as exc:
            return "FormatError", f"{source}:{lineno}: {exc}"
        ids.append(snp_id)
        rows.append(values)
    return ids, [row.tolist() for row in rows]


def _text_outcome(data: bytes, n_columns=None):
    try:
        snp_ids, matrix = parse_genotype_text(data, n_columns=n_columns)
    except FormatError as exc:
        return "FormatError", str(exc)
    assert snp_ids.dtype == np.int64 and matrix.dtype == np.int8
    return snp_ids.tolist(), matrix.tolist()


class TestCodecAgainstTokenParser:
    @seed(190_001)
    @settings(max_examples=400, deadline=None, database=None)
    @given(_genotype_lines())
    @example("")
    @example("7")
    @example("7\t")
    @example("7\t1")
    @example("7\t0,1,")
    @example("7\t0,,1")
    @example("7\t0,1\r")
    @example("7\t0,1\n")
    @example("7\t0,\u0661")
    @example("\u0667\t0,1")
    @example("7\t 0,1")
    @example("7\t0,1\t2")
    @example("7" * 200 + "\t0,1,2")
    @example("7" * 5000 + "\t0,1,2")  # past int()'s digit limit: ValueError inside int()
    @example("7\t0,:")
    @example("7\t/,1")
    @example("1_0\t0,1")
    def test_line_matches_token_parser(self, line):
        assert _outcome(parse_genotype_line, line) == _outcome(_parse_genotype_tokens, line)

    @seed(190_002)
    @settings(max_examples=300, deadline=None, database=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.one_of(
                    *[_genotype_lines(st.just(n))] * 8, _genotype_lines(), st.just("")
                ),
                max_size=8,
            )
        ),
        st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", "\u2028"]),
        st.booleans(),
    )
    @example(["1\t0,1", "", "", "2\t1,1"], "\n", True)
    @example(["1\t0,1", "2\t1,1"], "\n", False)
    @example(["1\t0,1", "2\t1,1"], "\r\n", True)
    @example(["1\t0,1", "2\t1,1,"], "\n", True)
    @example(["1\t0,1", "2\t1"], "\n", True)
    @example(["1\t0,1", "2"], "\n", True)
    @example(["7" * 200 + "\t0,1"], "\n", True)
    @example(["7" * 5000 + "\t0,1"], "\n", True)
    @example(["1\t0,128"], "\n", True)
    @example([], "\n", False)
    def test_buffer_matches_lines(self, lines, newline, trailing):
        text = newline.join(lines) + (newline if trailing else "")
        assert _text_outcome(text.encode("utf-8")) == _reference_text(text)

    @seed(190_004)
    @settings(max_examples=150, deadline=None, database=None)
    @given(_run_files(), st.booleans(), st.sampled_from([None, 0, 1]))
    def test_runs_match_lines(self, file, trailing, n_columns):
        """Long files of equal-width runs, odd lines mixed in: the run decode
        and its per-row fallback give the reference's rows or its first error."""
        (lines, breaks), n = file
        if n_columns is not None:
            n_columns += n  # the runs' width, or one more than every run has
        text = "".join(line + brk for line, brk in zip(lines, breaks))
        if not trailing:
            text = text.removesuffix(breaks[-1])
        expected = _reference_text(text, n_columns=n_columns)
        assert _text_outcome(text.encode("utf-8"), n_columns) == expected

    def test_not_utf8_is_located(self):
        with pytest.raises(FormatError, match=r"^g\.txt:2: not UTF-8"):
            parse_genotype_text(b"1\t0,1\n2\t0,\xff\n", "g.txt")

    @seed(190_003)
    @settings(max_examples=100, deadline=None, database=None)
    @given(
        hnp.arrays(np.int8, st.tuples(st.integers(1, 6), st.integers(1, 7)),
                   elements=st.integers(0, 2)),
        st.data(),
    )
    def test_written_bytes_match_line_formatter(self, matrix, data):
        snp_ids = np.array(data.draw(
            st.lists(st.integers(0, 10**9), min_size=len(matrix), max_size=len(matrix),
                     unique=True)
        ))
        expected = "".join(format_genotype_line(i, row) + "\n" for i, row in zip(snp_ids, matrix))
        assert _format_genotype_text(snp_ids, matrix) == expected.encode()
        back_ids, back = parse_genotype_text(expected.encode())
        assert np.array_equal(back_ids, snp_ids) and np.array_equal(back, matrix)

    @pytest.mark.parametrize("odd", [12, -1])
    def test_write_dataset_bytes(self, odd, tmp_path):
        ds = generate_dataset(SyntheticConfig(n_patients=9, n_snps=12, n_snpsets=2, seed=3))
        ds.genotypes.matrix[5, 4] = odd  # past validation: that row takes the line formatter
        paths = write_dataset(ds, str(tmp_path / "ds"))
        expected = "\n".join(format_genotype_line(i, row) for i, row in ds.genotypes.rows()) + "\n"
        assert f",{odd}," in expected
        with open(paths["genotypes"], "rb") as fh:
            assert fh.read() == expected.encode()


class TestRunDecodeStructure:
    """A split of canonical lines decodes one run at a time: no per-row parser
    call at all, and one odd line costs one per-row parse, not its run's."""

    @pytest.fixture(scope="class")
    def split(self):
        rng = np.random.default_rng(38)
        matrix = rng.integers(0, 3, size=(750, 1000), dtype=np.int8)
        snp_ids = np.arange(1000, 1750)  # one id width: the split is one run
        return snp_ids, matrix, _format_genotype_text(snp_ids, matrix)

    @pytest.fixture
    def row_calls(self, monkeypatch):
        calls = {"tokens": 0, "digits": 0}
        tokens, digits = formats._parse_genotype_tokens, formats._decode_digits

        def tokens_spy(line):
            calls["tokens"] += 1
            return tokens(line)

        def digits_spy(field):
            calls["digits"] += 1
            return digits(field)

        monkeypatch.setattr(formats, "_parse_genotype_tokens", tokens_spy)
        monkeypatch.setattr(formats, "_decode_digits", digits_spy)
        return calls

    def _edited(self, data: bytes, row: int, edit) -> bytes:
        lines = data.split(b"\n")
        lines[row] = edit(lines[row])
        return b"\n".join(lines)

    def test_canonical_split_makes_no_per_row_call(self, split, row_calls):
        snp_ids, matrix, data = split
        ids, back = parse_genotype_text(data, n_columns=1000)
        assert row_calls == {"tokens": 0, "digits": 0}
        assert np.array_equal(ids, snp_ids) and np.array_equal(back, matrix)

    @pytest.mark.parametrize("edit, calls", [
        # same width, an id int() reads but the digit check refuses
        (lambda line: b" " + line[1:], {"tokens": 1, "digits": 0}),
        # one byte wider: a run of its own, taken by the per-row parser
        (lambda line: line.replace(b"\t", b"\t ", 1), {"tokens": 1, "digits": 1}),
    ], ids=["refused-in-run", "another-width"])
    def test_one_odd_line_costs_one_row(self, split, row_calls, edit, calls):
        snp_ids, matrix, data = split
        edited = self._edited(data, 120, edit)
        ids, back = parse_genotype_text(edited, n_columns=1000)
        assert row_calls == calls
        odd_id, odd_row = parse_genotype_line(edited.split(b"\n")[120].decode())
        assert ids.tolist() == [*snp_ids[:120].tolist(), odd_id, *snp_ids[121:].tolist()]
        assert np.array_equal(back, matrix) and np.array_equal(odd_row, matrix[120])

    def test_last_line_without_newline_is_one_row(self, split, row_calls):
        snp_ids, matrix, data = split
        ids, back = parse_genotype_text(data.rstrip(b"\n"), n_columns=1000)
        assert row_calls == {"tokens": 0, "digits": 1}
        assert np.array_equal(ids, snp_ids) and np.array_equal(back, matrix)

    def test_ragged_row_in_a_run_is_located(self, split, row_calls):
        _, _, data = split
        ragged = self._edited(data, 120, lambda line: line[:-2])
        with pytest.raises(FormatError, match=r"^genotypes\.txt:121: expected 1000 genotypes, found 999$"):
            parse_genotype_text(ragged, n_columns=1000)
        assert row_calls == {"tokens": 0, "digits": 1}


class TestReadDatasetStructure:
    """Pins on *how* ``read_dataset`` parses, which fail on a per-token parser."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_dataset(SyntheticConfig(n_patients=60, n_snps=400, n_snpsets=8, seed=19))

    @pytest.fixture
    def token_calls(self, monkeypatch):
        calls = []

        def counting(line):
            calls.append(line)
            return _parse_genotype_tokens(line)

        monkeypatch.setattr(formats, "_parse_genotype_tokens", counting)
        return calls

    def test_canonical_file_never_reaches_the_token_parser(self, dataset, token_calls, tmp_path):
        write_dataset(dataset, str(tmp_path))
        matrix = read_dataset(str(tmp_path)).genotypes.matrix
        assert token_calls == []
        assert np.array_equal(matrix, dataset.genotypes.matrix)
        assert matrix.dtype == np.int8
        assert matrix.flags.c_contiguous and matrix.flags.writeable
        # owns its memory: a view of the file buffer would pin 2 bytes per genotype
        assert matrix.base is None

    def test_one_odd_line_makes_one_token_parse(self, dataset, token_calls, tmp_path):
        write_dataset(dataset, str(tmp_path))
        path = tmp_path / "genotypes.txt"
        lines = path.read_text().split("\n")
        lines[7] = lines[7].replace("\t", "\t ")
        path.write_text("\n".join(lines))
        back = read_dataset(str(tmp_path))
        assert token_calls == [lines[7]]
        assert np.array_equal(back.genotypes.matrix, dataset.genotypes.matrix)

    @pytest.mark.parametrize("rewrite", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\n\n", 5),
        lambda text: "\n\n" + text.rstrip("\n"),
    ], ids=["crlf", "blank-lines", "no-trailing-newline"])
    def test_line_break_variants_load_the_same(self, rewrite, dataset, tmp_path):
        write_dataset(dataset, str(tmp_path))
        for name in os.listdir(tmp_path):
            path = tmp_path / name
            path.write_bytes(rewrite(path.read_bytes().decode()).encode())
        back = read_dataset(str(tmp_path))
        assert np.array_equal(back.genotypes.snp_ids, dataset.genotypes.snp_ids)
        assert np.array_equal(back.genotypes.matrix, dataset.genotypes.matrix)
        assert np.array_equal(back.weights, dataset.weights)
        assert np.array_equal(back.snpsets.set_ids, dataset.snpsets.set_ids)

    @pytest.mark.parametrize("backend", ["serial", "cluster"])
    def test_in_task_parse_is_bit_identical(self, backend, dataset, tmp_path):
        write_dataset(dataset, str(tmp_path))
        options = dict(
            engine="distributed", flavor="paper",
            config=EngineConfig(backend=backend, num_executors=2, default_parallelism=4),
        )
        parsed = SparkScoreAnalysis.from_files(str(tmp_path), parse_with_engine=True, **options)
        in_memory = SparkScoreAnalysis(dataset, **options)
        try:
            a = parsed.monte_carlo(48, seed=2, batch_size=16, cache_contributions=False)
            b = in_memory.monte_carlo(48, seed=2, batch_size=16, cache_contributions=False)
        finally:
            parsed.close()
            in_memory.close()
        assert np.array_equal(a.observed, b.observed)
        assert np.array_equal(a.exceed_counts, b.exceed_counts)
        assert np.array_equal(a.pvalues(), b.pvalues())


def _edit_line(path, lineno, edit):
    lines = path.read_text().split("\n")
    lines[lineno - 1] = edit(lines[lineno - 1])
    path.write_text("\n".join(lines))


class TestLocatedErrors:
    """Bad input names its file and physical line, through the API and the CLI."""

    CASES = {
        "malformed": ("genotypes.txt", 21, lambda l: l.replace(",", ",x,", 1),
                      r"^genotypes\.txt:21: bad genotype line '.*invalid literal"),
        "after-blank-lines": ("genotypes.txt", 21, lambda l: "\n\n" + l[:-1] + "x",
                              r"^genotypes\.txt:23: bad genotype line"),
        "ragged": ("genotypes.txt", 9, lambda l: l[:-2],
                   r"^genotypes\.txt:9: expected 30 genotypes, found 29$"),
        "dosage-3": ("genotypes.txt", 33, lambda l: l[:-1] + "3",
                     r"^genotypes\.txt:33: genotype dosages must be 0, 1, or 2, found 3$"),
        "dosage-negative": ("genotypes.txt", 2, lambda l: l[:-1] + "-1",
                            r"^genotypes\.txt:2: genotype dosages must be 0, 1, or 2, found -1$"),
        "dosage-int8-overflow": ("genotypes.txt", 2, lambda l: l[:-1] + "128",
                                 r"^genotypes\.txt:2: .*128"),
        "repeated-id": ("genotypes.txt", 12, lambda l: "0" + l[l.index("\t"):],
                        r"^genotypes\.txt:12: SNP id 0 repeats line 1$"),
        "phenotype": ("phenotype.txt", 4, lambda l: l + "\t1",
                      r"^phenotype\.txt:4: bad phenotype line"),
        "weight": ("weights.txt", 40, lambda l: l.replace("\t", "\t-"),
                   r"^weights\.txt:40: bad weight line .*negative weight"),
        "snpset": ("snpsets.txt", 3, lambda l: l + ",x",
                   r"^snpsets\.txt:3: bad SNP-set line"),
        # line i holds patient i - 1 and SNP i - 1
        "repeated-patient": ("phenotype.txt", 6, lambda l: "4" + l[l.index("\t"):],
                             r"^phenotype\.txt:6: patient index 4 repeats line 5$"),
        "patient-out-of-range": ("phenotype.txt", 8, lambda l: "12345" + l[l.index("\t"):],
                                 r"^phenotype\.txt:8: patient index 12345 is not in 0\.\.29$"),
        "repeated-weight": ("weights.txt", 9, lambda l: "2" + l[l.index("\t"):],
                            r"^weights\.txt:9: SNP id 2 repeats line 3$"),
    }

    @pytest.fixture
    def broken(self, request, tiny_dataset, tmp_path):
        name, lineno, edit, message = self.CASES[request.param]
        write_dataset(tiny_dataset, str(tmp_path))
        _edit_line(tmp_path / name, lineno, edit)
        return str(tmp_path), message

    @pytest.mark.parametrize("broken", CASES, indirect=True)
    def test_read_dataset_names_file_and_line(self, broken):
        base, message = broken
        with pytest.raises(FormatError, match=message):
            read_dataset(base)

    @pytest.mark.parametrize("broken", CASES, indirect=True)
    def test_cli_prints_one_line_and_exits_2(self, broken, capsys):
        base, message = broken
        assert main(["analyze", base, "--method", "observed"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("sparkscore: error: ")
        assert re.search(message, line.removeprefix("sparkscore: error: "))

    # (case, flavor); the vectorized ids are the bare case names
    ENGINE_CASES = [pytest.param(case, "vectorized", id=case) for case in CASES] + [
        pytest.param(case, "paper", id=f"{case}-paper") for case in CASES
    ]

    @pytest.mark.parametrize("backend", ["serial", "cluster"])
    @pytest.mark.parametrize("broken, flavor", ENGINE_CASES, indirect=["broken"])
    def test_engine_tasks_name_file_and_line(self, broken, flavor, backend, request):
        """The executors read the genotype file: the same messages from
        ``from_files(engine="distributed")``, the bad line met by one task
        attempt -- malformed input is not a fault to retry."""
        base, message = broken
        config = EngineConfig(
            backend=backend, num_executors=2, executor_cores=1, default_parallelism=4
        )
        ended = CollectingListener(TaskEnd)
        with Context(config) as ctx:
            ctx.add_listener(ended)
            with pytest.raises(FormatError, match=message) as raised:
                SparkScoreAnalysis.from_files(
                    base, engine="distributed", ctx=ctx, flavor=flavor
                ).monte_carlo(32, seed=1, batch_size=16)
            jobs = len(ctx.metrics.jobs)
        assert type(raised.value) is FormatError
        failures = [e.record for e in ended.events if not e.record.succeeded]
        in_genotypes = self.CASES[request.node.callspec.params["broken"]][0] == "genotypes.txt"
        if not in_genotypes:
            assert not ended.events  # refused by the driver before any job
        elif "repeats line" in message:
            assert not failures and jobs == 1  # every split is fine on its own
        else:
            assert len(failures) == 1 and failures[0].attempt == 0
            assert re.search(message, failures[0].error.removeprefix("FormatError: "))

    @pytest.mark.parametrize("backend", ["serial", "cluster"])
    def test_cli_distributed_prints_one_line_and_exits_2(self, backend, tiny_dataset, tmp_path, capsys):
        write_dataset(tiny_dataset, str(tmp_path))
        _edit_line(tmp_path / "genotypes.txt", 21, lambda l: l.replace(",", ",x,", 1))
        code = main([
            "analyze", str(tmp_path), "--engine", "distributed", "--backend", backend,
            "--method", "monte-carlo", "--iterations", "32", "--no-progress",
        ])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("sparkscore: error: genotypes.txt:21: bad genotype line")

    @pytest.mark.parametrize("backend", ["serial", "cluster"])
    def test_cli_paper_flavor_refuses_a_repeated_snp_id(
        self, backend, tiny_dataset, tmp_path, capsys
    ):
        """A second line for SNP 5 at the end of the file, in another split
        than the first: each split is fine alone, so the engine's check on
        the ids the paper flavor's observed pass scored refuses it, with the
        message the vectorized flavor and the local engine print."""
        write_dataset(tiny_dataset, str(tmp_path))
        path = tmp_path / "genotypes.txt"
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines, lines[5]]) + "\n")
        code = main([
            "analyze", str(tmp_path), "--engine", "distributed", "--backend", backend,
            "--flavor", "paper", "--method", "monte-carlo", "--iterations", "32",
            "--no-progress",
        ])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.splitlines() == [
            "sparkscore: error: genotypes.txt:41: SNP id 5 repeats line 6"
        ]
