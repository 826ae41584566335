"""SNP/gene types and SNP-set collections."""

import numpy as np
import pytest

from repro.genomics.io import dataset_io
from repro.genomics.snpsets import SnpSetCollection
from repro.genomics.variants import Gene, Snp


class TestSnp:
    def test_label(self):
        assert Snp("chr1", 100).label == "chr1:100"
        assert Snp("chr1", 100, "rs42").label == "rs42"

    def test_ordering(self):
        assert Snp("chr1", 5) < Snp("chr1", 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            Snp("chr1", -1)
        with pytest.raises(ValueError):
            Snp("", 5)


class TestGene:
    def test_contains(self):
        gene = Gene("chr2", 100, 200, "BRCA")
        assert gene.contains(Snp("chr2", 100))
        assert gene.contains(Snp("chr2", 200))
        assert not gene.contains(Snp("chr2", 201))
        assert not gene.contains(Snp("chr3", 150))

    def test_length_and_label(self):
        gene = Gene("chr2", 100, 200)
        assert gene.length == 101
        assert gene.label == "chr2:100-200"

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Gene("chr1", 200, 100)


class TestSnpSetCollection:
    def test_basic_partition(self):
        coll = SnpSetCollection(np.array([0, 0, 1, 2, 1]))
        assert coll.n_sets == 3
        assert coll.members(1).tolist() == [2, 4]
        assert coll.sizes().tolist() == [2, 2, 1]

    def test_default_names(self):
        coll = SnpSetCollection(np.array([0, 1]))
        assert coll.names == ["set00000", "set00001"]

    def test_explicit_names(self):
        coll = SnpSetCollection(np.array([0, 1]), ["geneA", "geneB"])
        assert coll.names == ["geneA", "geneB"]

    def test_int64_ids_are_kept_not_copied(self):
        ids = np.array([0, 1, 1, 2], dtype=np.int64)
        assert np.shares_memory(SnpSetCollection(ids).set_ids, ids)
        narrow = SnpSetCollection(np.array([0, 1, 1, 2], dtype=np.int32))
        assert narrow.set_ids.dtype == np.int64
        assert narrow.set_ids.tolist() == [0, 1, 1, 2]
        with pytest.raises(ValueError, match="non-negative"):
            SnpSetCollection(np.array([0, -1], dtype=np.int64))
        with pytest.raises(TypeError, match="integers"):
            SnpSetCollection(np.array([0.0, 1.0]))

    def test_too_few_names(self):
        with pytest.raises(ValueError):
            SnpSetCollection(np.array([0, 1, 2]), ["only", "two"])

    def test_members_out_of_range(self):
        coll = SnpSetCollection(np.array([0]))
        with pytest.raises(IndexError):
            coll.members(5)

    def test_lists_roundtrip(self):
        snp_ids = np.array([10, 20, 30, 40])
        coll = SnpSetCollection(np.array([0, 1, 0, 1]), ["a", "b"])
        text = b"".join(dataset_io._snpset_text(coll, snp_ids))
        assert text == b"a\t10,30\nb\t20,40\n"
        lists = dataset_io._read_snpsets(text.decode().splitlines())
        back = SnpSetCollection.from_lists(snp_ids, lists)
        assert back.set_ids.tolist() == coll.set_ids.tolist()
        assert back.names == coll.names

    def test_from_lists_unknown_snp(self):
        with pytest.raises(ValueError, match="unknown SNP"):
            SnpSetCollection.from_lists(np.array([1, 2]), {"a": [1, 3], "b": [2]})

    def test_from_lists_duplicate_snp(self):
        with pytest.raises(ValueError, match="more than one"):
            SnpSetCollection.from_lists(np.array([1, 2]), {"a": [1, 2], "b": [2]})

    def test_from_lists_uncovered_snp(self):
        with pytest.raises(ValueError, match="not covered"):
            SnpSetCollection.from_lists(np.array([1, 2]), {"a": [1]})

    def test_from_genes_assignment(self):
        snps = [Snp("chr1", 50), Snp("chr1", 150), Snp("chr1", 999)]
        genes = [Gene("chr1", 0, 100, "g1"), Gene("chr1", 100, 200, "g2")]
        coll = SnpSetCollection.from_genes(snps, genes)
        assert coll.names == ["g1", "g2", "intergenic"]
        assert coll.set_ids.tolist() == [0, 1, 2]

    def test_from_genes_first_match_wins(self):
        snps = [Snp("chr1", 100)]
        genes = [Gene("chr1", 0, 150, "g1"), Gene("chr1", 50, 200, "g2")]
        assert SnpSetCollection.from_genes(snps, genes).set_ids.tolist() == [0]

    def test_from_genes_all_covered_no_intergenic(self):
        snps = [Snp("chr1", 10)]
        genes = [Gene("chr1", 0, 100, "g1")]
        coll = SnpSetCollection.from_genes(snps, genes)
        assert coll.names == ["g1"]
