"""Minimal VCF reader/writer."""

import numpy as np
import pytest

from repro.genomics.io.vcf import VcfError, parse_vcf, read_vcf, write_vcf
from repro.genomics.variants import Snp

HEADER = "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\tS2\tS3"


def vcf_lines(*rows):
    return ["##fileformat=VCFv4.2", HEADER, *rows]


class TestParse:
    def test_basic_dosages(self):
        data = parse_vcf(vcf_lines(
            "chr1\t100\trs1\tA\tG\t.\tPASS\t.\tGT\t0/0\t0/1\t1/1",
            "chr1\t200\trs2\tC\tT\t.\tPASS\t.\tGT\t0|1\t0|0\t1|1",
        ))
        assert data.samples == ["S1", "S2", "S3"]
        assert data.genotypes.matrix.tolist() == [[0, 1, 2], [1, 0, 2]]
        assert data.snps[0] == Snp("chr1", 100, "rs1")
        assert data.n_imputed == 0

    def test_missing_imputed_to_mean(self):
        data = parse_vcf(vcf_lines("chr1\t1\t.\tA\tG\t.\t.\t.\tGT\t2/2\t./.\t0/0"))
        # known dosages 2 and 0 -> mean 1
        assert data.genotypes.matrix.tolist() == [[2, 1, 0]]
        assert data.n_imputed == 1
        assert data.snps[0].snp_id == ""

    def test_all_missing_site_zero(self):
        data = parse_vcf(vcf_lines("chr1\t1\t.\tA\tG\t.\t.\t.\tGT\t./.\t./.\t./."))
        assert data.genotypes.matrix.tolist() == [[0, 0, 0]]
        assert data.n_imputed == 3

    def test_gt_not_first_in_format(self):
        data = parse_vcf(vcf_lines(
            "chr1\t1\t.\tA\tG\t.\t.\t.\tDP:GT\t10:0/1\t12:1/1\t9:0/0"
        ))
        assert data.genotypes.matrix.tolist() == [[1, 2, 0]]

    def test_extra_format_fields_ignored(self):
        data = parse_vcf(vcf_lines(
            "chr1\t1\t.\tA\tG\t.\t.\t.\tGT:DP\t0/1:10\t1/1:3\t0/0:5"
        ))
        assert data.genotypes.matrix.tolist() == [[1, 2, 0]]

    def test_multiallelic_counts_any_alt(self):
        data = parse_vcf(vcf_lines("chr1\t1\t.\tA\tG,T\t.\t.\t.\tGT\t1/2\t0/2\t0/0"))
        assert data.genotypes.matrix.tolist() == [[2, 1, 0]]

    @pytest.mark.parametrize(
        "rows,message",
        [
            ((), "no variant rows"),
            (("chr1\t1\t.\tA\tG\t.\t.\t.\tDP\t1\t2\t3",), "lacks GT"),
            (("chr1\tXX\t.\tA\tG\t.\t.\t.\tGT\t0/0\t0/0\t0/0",), "bad POS"),
            (("chr1\t1\t.\tA\tG\t.\t.\t.\tGT\t0/0\t0/0",), "columns"),
        ],
    )
    def test_malformed(self, rows, message):
        with pytest.raises(VcfError, match=message):
            parse_vcf(vcf_lines(*rows))

    def test_data_before_header(self):
        with pytest.raises(VcfError, match="before #CHROM"):
            parse_vcf(["chr1\t1\t.\tA\tG\t.\t.\t.\tGT\t0/0"])

    def test_no_header(self):
        with pytest.raises(VcfError, match="no #CHROM"):
            parse_vcf(["##fileformat=VCFv4.2"])

    def test_no_samples(self):
        with pytest.raises(VcfError, match="no sample"):
            parse_vcf(["\t".join(HEADER.split("\t")[:9])])


class TestRoundTrip:
    def test_local_file(self, tmp_path, rng):
        from repro.genomics.genotypes import GenotypeMatrix

        G = GenotypeMatrix(np.arange(5), rng.binomial(2, 0.3, size=(5, 4)).astype(np.int8))
        snps = [Snp("chr2", 10 * (i + 1), f"rs{i}") for i in range(5)]
        samples = [f"P{i}" for i in range(4)]
        path = str(tmp_path / "x.vcf")
        write_vcf(G, snps, samples, path)
        back = read_vcf(path)
        assert np.array_equal(back.genotypes.matrix, G.matrix)
        assert back.samples == samples
        assert back.snps == snps

    def test_write_validation(self, rng):
        from repro.genomics.genotypes import GenotypeMatrix

        G = GenotypeMatrix(np.arange(2), np.zeros((2, 3), dtype=np.int8))
        with pytest.raises(ValueError):
            write_vcf(G, [Snp("chr1", 1)], ["a", "b", "c"], "/tmp/x")
        with pytest.raises(ValueError):
            write_vcf(G, [Snp("chr1", 1), Snp("chr1", 2)], ["a"], "/tmp/x")


class TestEndToEndAnalysis:
    def test_vcf_to_skat(self, tmp_path, rng):
        """VCF in, SKAT p-values out -- the full genomics IO path."""
        from repro.core.local import LocalSparkScore
        from repro.genomics.genotypes import GenotypeMatrix
        from repro.genomics.snpsets import SnpSetCollection
        from repro.genomics.synthetic import Dataset
        from repro.stats.score.base import SurvivalPhenotype

        n, m = 50, 30
        G = GenotypeMatrix(np.arange(m), rng.binomial(2, 0.3, size=(m, n)).astype(np.int8))
        snps = [Snp("chr1", i + 1) for i in range(m)]
        samples = [f"P{i}" for i in range(n)]
        path = str(tmp_path / "study.vcf")
        write_vcf(G, snps, samples, path)

        loaded = read_vcf(path)
        pheno = SurvivalPhenotype(rng.exponential(12, n), rng.binomial(1, 0.85, n))
        sets = SnpSetCollection(np.repeat(np.arange(3), m // 3))
        data = Dataset(loaded.genotypes, pheno, np.ones(m), sets)
        result = LocalSparkScore(data).monte_carlo(100, seed=1)
        assert result.pvalues().shape == (3,)
