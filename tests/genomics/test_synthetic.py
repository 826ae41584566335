"""Section III synthetic generator: distributions and set construction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.genomics.synthetic as synthetic
from repro.genomics.synthetic import (
    SyntheticConfig,
    draw_binomial2,
    generate_dataset,
    invert_binomial2,
    snpset_size_partition,
)


class TestConfigValidation:
    def test_defaults_are_paper_values(self):
        cfg = SyntheticConfig()
        assert cfg.n_patients == 1000
        assert cfg.n_snps == 100_000
        assert cfg.n_snpsets == 1000
        assert cfg.mean_survival_months == 12.0
        assert cfg.event_rate == 0.85

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_patients": 1},
            {"n_snps": 0},
            {"n_snpsets": 0},
            {"n_snpsets": 100, "n_snps": 50},
            {"event_rate": 1.5},
            {"mean_survival_months": 0},
            {"maf_range": (0.0, 0.5)},
            {"maf_range": (0.6, 0.5)},
            {"n_causal_snps": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticConfig(**kwargs)


class TestDistributions:
    @pytest.fixture(scope="class")
    def data(self):
        return generate_dataset(
            SyntheticConfig(n_patients=4000, n_snps=500, n_snpsets=20, seed=5)
        )

    def test_mean_survival(self, data):
        assert data.phenotype.time.mean() == pytest.approx(12.0, rel=0.1)

    def test_event_rate(self, data):
        assert data.phenotype.event.mean() == pytest.approx(0.85, abs=0.03)

    def test_genotypes_binomial(self, data):
        G = data.genotypes.matrix
        assert set(np.unique(G)) <= {0, 1, 2}
        rho = data.genotypes.allele_frequencies()
        assert np.all(rho > 0.0) and np.all(rho < 0.7)
        # per-SNP variance consistent with Binomial(2, rho)
        var = G.var(axis=1)
        expected = 2 * rho * (1 - rho)
        assert np.corrcoef(var, expected)[0, 1] > 0.9

    def test_rho_varies_across_snps(self, data):
        assert data.genotypes.allele_frequencies().std() > 0.05

    def test_weights_flat(self, data):
        assert np.all(data.weights == 1.0)

    def test_reproducible(self):
        cfg = SyntheticConfig(n_patients=50, n_snps=100, n_snpsets=5, seed=9)
        a, b = generate_dataset(cfg), generate_dataset(cfg)
        assert np.array_equal(a.genotypes.matrix, b.genotypes.matrix)
        assert np.array_equal(a.phenotype.time, b.phenotype.time)
        assert np.array_equal(a.snpsets.set_ids, b.snpsets.set_ids)

    def test_seed_changes_data(self):
        a = generate_dataset(SyntheticConfig(n_patients=50, n_snps=100, n_snpsets=5, seed=1))
        b = generate_dataset(SyntheticConfig(n_patients=50, n_snps=100, n_snpsets=5, seed=2))
        assert not np.array_equal(a.genotypes.matrix, b.genotypes.matrix)


class TestSetPartition:
    def test_every_snp_assigned(self, rng):
        ids = snpset_size_partition(1000, 37, rng)
        assert ids.shape == (1000,)
        assert set(np.unique(ids)) <= set(range(37))

    def test_last_set_augmented(self, rng):
        ids = snpset_size_partition(500, 10, rng)
        assert ids[-1] == 9  # remainder lands in the final set

    def test_mean_size_close_to_m_over_k(self):
        rng = np.random.default_rng(0)
        ids = snpset_size_partition(100_000, 1000, rng)
        sizes = np.bincount(ids, minlength=1000)
        assert sizes.sum() == 100_000
        # exponential with mean ~100, floored
        assert 50 < sizes[:-1].mean() < 150

    def test_no_empty_sets_when_feasible(self, rng):
        ids = snpset_size_partition(100, 10, rng)
        sizes = np.bincount(ids, minlength=10)
        assert np.all(sizes >= 1)

    def test_one_set(self, rng):
        ids = snpset_size_partition(50, 1, rng)
        assert np.all(ids == 0)

    def test_sets_equal_snps(self, rng):
        ids = snpset_size_partition(10, 10, rng)
        assert np.bincount(ids, minlength=10).tolist() == [1] * 10


class TestPlantedSignal:
    def test_causal_rows_recorded(self):
        data = generate_dataset(
            SyntheticConfig(
                n_patients=500, n_snps=200, n_snpsets=10, seed=3,
                n_causal_snps=5, effect_size=0.8,
            )
        )
        assert len(data.causal_rows) == 5
        assert np.all(np.diff(data.causal_rows) > 0)

    def test_causal_set_detected(self):
        """The set containing causal SNPs should get the smallest p-value."""
        from repro.core.local import LocalSparkScore

        data = generate_dataset(
            SyntheticConfig(
                n_patients=600, n_snps=100, n_snpsets=5, seed=13,
                n_causal_snps=4, effect_size=1.0,
            )
        )
        result = LocalSparkScore(data).monte_carlo(500, seed=1)
        causal_sets = set(data.snpsets.set_ids[data.causal_rows])
        top = result.top(len(causal_sets))
        assert {r.set_index for r in top} & causal_sets

    def test_null_dataset_has_no_causal_rows(self, tiny_dataset):
        assert tiny_dataset.causal_rows.size == 0


class TestDatasetValidation:
    def test_weight_shape_enforced(self, tiny_dataset):
        from repro.genomics.synthetic import Dataset

        with pytest.raises(ValueError):
            Dataset(
                tiny_dataset.genotypes,
                tiny_dataset.phenotype,
                np.ones(3),
                tiny_dataset.snpsets,
            )

    def test_properties(self, tiny_dataset):
        assert tiny_dataset.n_snps == 40
        assert tiny_dataset.n_patients == 30
        assert tiny_dataset.n_sets == 4


def numpy_binomial2(u: float, p: float) -> int | None:
    """``random_binomial`` of NumPy's ``distributions.c`` at n = 2 for one
    uniform, its inversion loop transcribed line by line; ``None`` where the
    loop would draw a second uniform."""

    def inversion(u: float, p: float, n: int = 2) -> int | None:
        q = 1.0 - p
        qn = math.exp(n * math.log(q))
        np_ = n * p
        bound = int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))
        x, px = 0, qn
        while u > px:
            x += 1
            if x > bound:
                return None
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
        return x

    if p <= 0.5:
        return inversion(u, p)
    x = inversion(u, 1.0 - p)
    return None if x is None else 2 - x


def block_dosages(rows_per_block: int, n: int) -> int:
    """The ``ROW_BLOCK_DOSAGES`` that cuts ``rows_per_block`` rows of ``n``."""
    return rows_per_block * max(n, synthetic.ROW_MIN_DOSAGES)


def draw_in_blocks(rng, rho, n, rows_per_block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthetic, "ROW_BLOCK_DOSAGES", block_dosages(rows_per_block, n))
        return draw_binomial2(rng, rho, n)


# allele frequencies in (0, 1): tiny ones, 0.5 itself and its neighbours, and
# the upper half, which NumPy reflects
_RHO = st.one_of(
    st.floats(1e-300, 1e-6),
    st.sampled_from([0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]),
    st.floats(1e-6, 1.0, exclude_max=True),
)


class TestExactInversion:
    """``draw_binomial2`` is ``Generator.binomial(2, rho)`` by inversion, a
    row block at a time: the same int8 dosages and the same stream position
    afterwards."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**63),
        rho=st.lists(_RHO, min_size=1, max_size=40),
        n=st.integers(1, 300),
        rows_per_block=st.integers(1, 16),
    )
    @example(seed=0, rho=[0.9, 0.5, 0.6, 0.99], n=1, rows_per_block=3)
    @example(seed=1, rho=[1e-300], n=300, rows_per_block=1)
    def test_blocks_are_one_binomial_call(self, seed, rho, n, rows_per_block):
        rho = np.array(rho)
        reference = np.random.default_rng(seed)
        expected = reference.binomial(2, rho[:, None], size=(rho.size, n)).astype(np.int8)
        rng = np.random.default_rng(seed)
        assert np.array_equal(draw_in_blocks(rng, rho, n, rows_per_block), expected)
        assert rng.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=20, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32),
        n_snps=st.integers(1, 90),
        n_patients=st.integers(2, 100),
        rows_per_block=st.integers(1, 40),
        maf=st.sampled_from([(0.05, 0.5), (1e-9, 1e-3), (0.5, 0.5), (0.3, 0.97)]),
    )
    def test_generate_dataset_is_the_one_shot_draw(
        self, seed, n_snps, n_patients, rows_per_block, maf
    ):
        config = SyntheticConfig(
            n_patients=n_patients, n_snps=n_snps, n_snpsets=1, seed=seed, maf_range=maf
        )
        rng = np.random.default_rng(seed)
        rho = rng.uniform(*maf, size=n_snps)
        expected = rng.binomial(2, rho[:, None], size=(n_snps, n_patients)).astype(np.int8)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(synthetic, "ROW_BLOCK_DOSAGES", block_dosages(rows_per_block, n_patients))
            data = generate_dataset(config)
        assert np.array_equal(data.genotypes.matrix, expected)
        # the rest of Section III reads the stream where the draw left it
        assert np.array_equal(data.phenotype.time, rng.exponential(12.0, size=n_patients))

    def test_uniforms_past_every_threshold_are_a_restart(self):
        """Crafted uniforms against the transcribed loop: at the top of
        ``next_double``'s range, where the three thresholds' rounded sum can
        fall short of 1; on the first threshold and either side of it; and
        on a grid.  Each row holds them all, then all but the top ones: the
        dosage where the loop stops, a restart where any of them redraws."""
        rho = np.random.default_rng(3).uniform(1e-6, 1.0 - 1e-6, 400)
        rho[:3] = [0.5, 0.25, 0.75]
        top = [1.0 - k * 2.0**-53 for k in (1, 2, 3)]
        grid = np.random.default_rng(4).integers(0, 2**53, 8) * 2.0**-53
        restarts = 0
        for p in rho.tolist():
            qn = math.exp(2 * math.log(1.0 - min(p, 1.0 - p)))
            ties = [qn, math.nextafter(qn, 0.0), math.nextafter(qn, 1.0)]
            for row in ([*ties, *grid.tolist(), *top], [*ties, *grid.tolist()]):
                out = np.empty((1, len(row)), dtype=np.int8)
                restart = invert_binomial2(np.array([row]), np.array([p]), out)
                expected = [numpy_binomial2(u, p) for u in row]
                assert restart == (None in expected), (p, row)
                restarts += restart
                for u, dosage, want in zip(row, out[0].tolist(), expected):
                    assert want is None or dosage == want, (u, p)
        assert restarts > 10

    def test_a_restarting_block_is_redrawn_from_its_own_state(self, monkeypatch):
        """A block the inversion flags is drawn again by ``rng.binomial`` from
        the state before it: the same matrix, the same stream position."""
        invert, calls = synthetic.invert_binomial2, []

        def restart_second_block(uniforms, rho, out):
            calls.append(rho.size)
            invert(uniforms, rho, out)
            if len(calls) != 2:
                return False
            out[...] = 3  # what the redraw must overwrite
            return True

        monkeypatch.setattr(synthetic, "invert_binomial2", restart_second_block)
        rho = np.random.default_rng(5).uniform(0.05, 0.95, 9)
        reference = np.random.default_rng(6)
        expected = reference.binomial(2, rho[:, None], size=(9, 50)).astype(np.int8)
        rng = np.random.default_rng(6)
        assert np.array_equal(draw_in_blocks(rng, rho, 50, 4), expected)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert calls == [4, 4, 1]
