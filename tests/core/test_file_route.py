"""``from_files(engine="distributed")``: the executors read the genotype file.

Structural pins (who parses, what is published, what a warm fleet finds
resident) and the staleness rules of the resident blocks: they are keyed by
the genotype file's identity *and* the content of what they were built
with, so rewriting any one input file misses.
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.core.blocks import SnpLookup, build_blocks
from repro.core.local import LocalSparkScore
from repro.core.sparkscore import SparkScoreAnalysis
from repro.genomics.genotypes import DeferredGenotypeMatrix
from repro.genomics.io import dataset_io, formats
from repro.genomics.io.dataset_io import open_dataset, read_dataset, write_dataset
from repro.genomics.io.formats import FormatError
from repro.genomics.synthetic import SyntheticConfig, generate_dataset


@pytest.fixture(scope="module")
def wide_dataset():
    """Many SNPs, few patients: the int8 matrix (80 KB) outweighs a batch of
    multipliers (10 KB), as it does at benchmark sizes."""
    return generate_dataset(SyntheticConfig(n_patients=40, n_snps=2000, n_snpsets=12, seed=21))


@pytest.fixture
def parse_calls(monkeypatch):
    """Every genotype parse made *in this process*, by either parser."""
    calls = []
    text, tokens = formats.parse_genotype_text, formats._parse_genotype_tokens

    def text_spy(data, *args, **kwargs):
        calls.append(len(data))
        return text(data, *args, **kwargs)

    def tokens_spy(line):
        calls.append(line)
        return tokens(line)

    monkeypatch.setattr(formats, "parse_genotype_text", text_spy)
    monkeypatch.setattr(dataset_io, "parse_genotype_text", text_spy)
    monkeypatch.setattr(formats, "_parse_genotype_tokens", tokens_spy)
    return calls


def _materialised(analysis) -> bool:
    return "matrix" in vars(analysis.dataset.genotypes)


class TestWarmFleet:
    def test_second_analysis_parses_nothing_and_ships_less_than_the_matrix(
        self, fresh_cluster, wide_dataset, parse_calls, tmp_path
    ):
        config, manager = fresh_cluster()
        base = str(tmp_path)
        write_dataset(wide_dataset, base)
        reference = LocalSparkScore(wide_dataset).monte_carlo(32, seed=5, batch_size=32)

        def analyse():
            before = manager.transport.bytes_published
            with SparkScoreAnalysis.from_files(base, engine="distributed", config=config) as a:
                result = a.monte_carlo(32, seed=5, batch_size=32)
                assert not _materialised(a)
            return result, manager.transport.bytes_published - before

        first, _ = analyse()
        # cold: four splits parsed into blocks, in the one job
        assert (first.info["cache_hits"], first.info["cache_misses"]) == (0, 4)
        second, published = analyse()
        assert (second.info["cache_hits"], second.info["cache_misses"]) == (4, 0)
        assert parse_calls == []  # the driver never parsed a genotype
        # the multipliers and the small broadcasts; at the parent the row
        # slices went out again with every Context: more than the matrix
        assert published < wide_dataset.genotypes.matrix.nbytes
        for result in (first, second):
            assert np.array_equal(result.exceed_counts, reference.exceed_counts)
            assert np.allclose(result.observed, reference.observed, rtol=1e-9, atol=0.0)
        assert np.array_equal(first.observed, second.observed)

    def test_permutation_reuses_the_parsed_blocks_between_batches(
        self, fresh_cluster, small_dataset, tmp_path
    ):
        config, _ = fresh_cluster()
        write_dataset(small_dataset, str(tmp_path))
        with SparkScoreAnalysis.from_files(
            str(tmp_path), engine="distributed", config=config
        ) as a:
            result = a.permutation(40, seed=3, batch_size=8)
        # the first wave job (four batches) parses the four splits, which
        # the second (one batch) hits
        assert (result.info["cache_hits"], result.info["cache_misses"]) == (4, 4)

    def test_each_split_is_parsed_once_per_analysis(self, small_dataset, parse_calls, tmp_path):
        write_dataset(small_dataset, str(tmp_path))
        config = EngineConfig(backend="serial", num_executors=2, default_parallelism=4)
        with SparkScoreAnalysis.from_files(
            str(tmp_path), engine="distributed", config=config
        ) as a:
            a.permutation(16, seed=3, batch_size=8)
            a.monte_carlo(16, seed=3, batch_size=8, cache_contributions=False)
            assert not _materialised(a)
        assert len(parse_calls) == 4 and all(isinstance(size, int) for size in parse_calls)
        assert sum(parse_calls) == os.path.getsize(tmp_path / "genotypes.txt")

    def test_parse_with_engine_changes_nothing(self, small_dataset, tmp_path, serial_config):
        write_dataset(small_dataset, str(tmp_path))
        results = []
        for flag in (False, True):
            with SparkScoreAnalysis.from_files(
                str(tmp_path), engine="distributed", config=serial_config,
                parse_with_engine=flag,
            ) as a:
                assert isinstance(a.dataset.genotypes, DeferredGenotypeMatrix)
                results.append(a.monte_carlo(16, seed=1, batch_size=8))
        assert np.array_equal(results[0].observed, results[1].observed)
        assert results[0].info["cache_misses"] == results[1].info["cache_misses"] == 4


def _rewrite(base, name, edit):
    path = os.path.join(base, name)
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def _double_some_weights(lines):
    return [
        f"{snp}\t{float(weight) * (2.0 if i % 3 == 0 else 1.0)!r}"
        for i, (snp, weight) in enumerate(line.split("\t") for line in lines)
    ]


def _move_a_snp(lines):
    """The last SNP of the first set joins the second."""
    (name_a, ids_a), (name_b, ids_b) = (line.split("\t") for line in lines[:2])
    *kept, moved = ids_a.split(",")
    return [f"{name_a}\t{','.join(kept)}", f"{name_b}\t{ids_b},{moved}", *lines[2:]]


def _swap_two_patients(lines):
    first, second = (line.split("\t") for line in lines[:2])
    return ["\t".join([first[0], *second[1:]]), "\t".join([second[0], *first[1:]]), *lines[2:]]


class TestStaleness:
    """Mutation-checked: with broadcast content left out of the lineage
    fingerprint (every ``Broadcast`` pickled as a constant when block keys
    are made) new weights or sets find the old blocks, ``cache_misses ==
    0``.  The blocks hold no phenotype: a new one reuses them and still
    gets its own counts."""

    @pytest.mark.parametrize("name, edit", [
        ("weights.txt", _double_some_weights),
        ("snpsets.txt", _move_a_snp),
        ("phenotype.txt", _swap_two_patients),
    ], ids=["weights", "snpsets", "phenotype"])
    def test_rewriting_one_small_file_misses(
        self, name, edit, fresh_cluster, small_dataset, tmp_path
    ):
        config, _ = fresh_cluster()
        base = str(tmp_path)
        write_dataset(small_dataset, base)
        genotypes = os.stat(tmp_path / "genotypes.txt")

        def analyse():
            with SparkScoreAnalysis.from_files(base, engine="distributed", config=config) as a:
                return a.monte_carlo(96, seed=9, batch_size=32)

        first = analyse()
        assert analyse().info["cache_misses"] == 0
        _rewrite(base, name, edit)
        after = os.stat(tmp_path / "genotypes.txt")
        assert (after.st_size, after.st_mtime_ns) == (genotypes.st_size, genotypes.st_mtime_ns)
        second = analyse()
        # new weights or sets rebuild the blocks; a new phenotype reads the
        # blocks already parsed
        assert second.info["cache_misses"] == (0 if name == "phenotype.txt" else 4)
        reference = LocalSparkScore(read_dataset(base)).monte_carlo(96, seed=9, batch_size=32)
        assert np.array_equal(second.exceed_counts, reference.exceed_counts)
        assert np.allclose(second.observed, reference.observed, rtol=1e-9, atol=0.0)
        assert not np.array_equal(second.observed, first.observed)


class TestJoinedBySnpId:
    """The three SNP-keyed files are joined by id, never by line number."""

    @pytest.fixture
    def shuffled(self, small_dataset, tmp_path):
        base = str(tmp_path)
        weights = np.random.default_rng(5).uniform(0.5, 2.0, small_dataset.n_snps)
        write_dataset(dataclasses.replace(small_dataset, weights=weights), base)
        order = np.random.default_rng(4).permutation(small_dataset.n_snps)
        _rewrite(base, "weights.txt", lambda lines: [lines[i] for i in order])
        return base

    @pytest.mark.parametrize("backend", ["serial", "cluster"])
    def test_weights_in_another_order_on_every_route(self, backend, shuffled):
        on_disk = read_dataset(shuffled)
        reference = LocalSparkScore(on_disk).monte_carlo(64, seed=2, batch_size=32)
        config = EngineConfig(backend=backend, num_executors=2, default_parallelism=4)
        for flavor in ("vectorized", "paper"):
            with SparkScoreAnalysis.from_files(
                shuffled, engine="distributed", config=config, flavor=flavor
            ) as a:
                result = a.monte_carlo(64, seed=2, batch_size=32)
            assert np.array_equal(result.exceed_counts, reference.exceed_counts)
            assert np.allclose(result.observed, reference.observed, rtol=1e-9, atol=0.0)

    def test_lazily_loaded_matrix_is_aligned_like_read_dataset(self, shuffled, serial_config):
        eager = SparkScoreAnalysis(read_dataset(shuffled))
        with SparkScoreAnalysis.from_files(
            shuffled, engine="distributed", config=serial_config
        ) as lazy:
            assert not _materialised(lazy)
            assert np.array_equal(lazy.marginal_scores(), eager.marginal_scores())
            assert _materialised(lazy)
            ours, theirs = lazy.variant_maxt(40, seed=1), eager.variant_maxt(40, seed=1)
            assert np.array_equal(ours.statistics, theirs.statistics)
            assert np.array_equal(ours.adjusted_pvalues, theirs.adjusted_pvalues)
            assert np.array_equal(
                lazy.asymptotic().pvalues(), eager.asymptotic().pvalues()
            )

    def test_genotype_rows_in_another_order_are_aligned_by_id(self, small_dataset, tmp_path):
        base = str(tmp_path)
        write_dataset(small_dataset, base)
        order = np.random.default_rng(6).permutation(small_dataset.n_snps)
        _rewrite(base, "genotypes.txt", lambda lines: [lines[i] for i in order])
        dataset = open_dataset(base)
        assert np.array_equal(dataset.genotypes.snp_ids, small_dataset.genotypes.snp_ids)
        assert np.array_equal(dataset.genotypes.matrix, small_dataset.genotypes.matrix)


class TestCrossSplitChecks:
    """What no one task can see is checked by the driver on the SNP ids the
    observed pass scored -- resident blocks included."""

    def _analyse(self, base, config):
        with SparkScoreAnalysis.from_files(base, engine="distributed", config=config) as a:
            return a.monte_carlo(16, seed=1, batch_size=16)

    def test_set_naming_a_snp_the_file_lacks(self, tiny_dataset, tmp_path, serial_config):
        write_dataset(tiny_dataset, str(tmp_path))
        _rewrite(str(tmp_path), "genotypes.txt", lambda lines: lines[:-1])
        with pytest.raises(FormatError, match=r"^snpsets\.txt: set 'set00003' references unknown SNP 39$"):
            self._analyse(str(tmp_path), serial_config)

    def test_snp_in_no_set(self, tiny_dataset, tmp_path, serial_config):
        write_dataset(tiny_dataset, str(tmp_path))
        _rewrite(str(tmp_path), "snpsets.txt", lambda lines: [lines[0][: lines[0].rindex(",")], *lines[1:]])
        with pytest.raises(FormatError, match=r"^snpsets\.txt: SNPs not covered by any set \(e\.g\. \[\d+\]\)$"):
            self._analyse(str(tmp_path), serial_config)

    def test_a_warm_fleet_does_not_forget_a_refused_file(
        self, fresh_cluster, tiny_dataset, tmp_path
    ):
        """The blocks of a file whose check failed stay resident; the next
        analysis of it finds them and is refused all the same."""
        config, _ = fresh_cluster()
        write_dataset(tiny_dataset, str(tmp_path))
        # line 31 becomes a second SNP 0: the lines sit in different splits
        _rewrite(
            str(tmp_path), "genotypes.txt",
            lambda lines: [*lines[:30], "0" + lines[30][lines[30].index("\t"):], *lines[31:]],
        )
        for _ in range(2):
            with pytest.raises(FormatError, match=r"^genotypes\.txt:31: SNP id 0 repeats line 1$"):
                self._analyse(str(tmp_path), config)


class TestBlockBuilder:
    def test_blocks_are_views_joined_by_id(self, tiny_dataset):
        g = tiny_dataset.genotypes
        weights = np.linspace(1.0, 2.0, g.n_snps)
        order = np.random.default_rng(0).permutation(g.n_snps)
        lookup = SnpLookup.from_arrays(
            g.snp_ids[order], tiny_dataset.snpsets.set_ids[order], weights[order] ** 2,
            tiny_dataset.n_sets,
        )
        blocks = list(lookup.blocks(g.snp_ids, g.matrix, 16))
        assert [b.n_snps for b in blocks] == [16, 16, 8]
        assert all(np.shares_memory(b.genotypes, g.matrix) for b in blocks)
        assert np.array_equal(np.concatenate([b.snp_ids for b in blocks]), g.snp_ids)
        assert np.array_equal(
            np.concatenate([b.set_ids for b in blocks]), tiny_dataset.snpsets.set_ids
        )
        assert np.array_equal(np.concatenate([b.weights_sq for b in blocks]), weights ** 2)

    def test_rows_outside_every_set_are_dropped(self, tiny_dataset):
        g = tiny_dataset.genotypes
        keep = g.snp_ids % 3 != 0
        lookup = SnpLookup.from_arrays(
            g.snp_ids[keep], tiny_dataset.snpsets.set_ids[keep], np.ones(keep.sum()),
            tiny_dataset.n_sets,
        )
        blocks = list(lookup.blocks(g.snp_ids, g.matrix, 64))
        assert np.array_equal(blocks[0].snp_ids, g.snp_ids[keep])
        assert np.array_equal(blocks[0].genotypes, g.matrix[keep])
        empty = SnpLookup.from_arrays([], [], [], 1)
        assert list(empty.blocks(g.snp_ids, g.matrix, 64)) == []

    def test_record_fed_spelling_builds_the_same_blocks(self, tiny_dataset):
        g = tiny_dataset.genotypes
        set_map = {int(s): int(k) for s, k in zip(g.snp_ids, tiny_dataset.snpsets.set_ids) if s % 5}
        w2_map = {snp: 1.0 + snp for snp in set_map}
        lookup = SnpLookup.from_arrays(
            list(set_map), list(set_map.values()), list(w2_map.values()), tiny_dataset.n_sets
        )
        ours = list(lookup.blocks(g.snp_ids, g.matrix, 7))
        theirs = list(build_blocks(g.rows(), set_map, w2_map, tiny_dataset.n_sets, 7))
        assert len(ours) == len(theirs) > 1
        for a, b in zip(ours, theirs):
            for field in ("snp_ids", "set_ids", "weights_sq", "genotypes"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
