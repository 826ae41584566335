"""Partitioners and the portable hash."""

import pytest

from repro.engine.partitioner import (
    HashPartitioner,
    Partitioner,
    _portable_hash,
)


class TestPortableHash:
    @pytest.mark.parametrize(
        "key", [0, 1, -5, 2**40, "snp123", b"bytes", 3.14, ("a", 1), (1, (2, 3)), True, False]
    )
    def test_non_negative(self, key):
        assert _portable_hash(key) >= 0

    def test_deterministic_for_strings(self):
        # must not depend on PYTHONHASHSEED
        assert _portable_hash("chr1:12345") == 17389542

    def test_tuple_order_sensitive(self):
        assert _portable_hash((1, 2)) != _portable_hash((2, 1))

    def test_int_identity(self):
        assert _portable_hash(42) == 42


class TestHashPartitioner:
    def test_range(self):
        p = HashPartitioner(7)
        for key in range(1000):
            assert 0 <= p.partition(key) < 7

    def test_equality(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(5)
        assert hash(HashPartitioner(4)) == hash(HashPartitioner(4))

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)

    def test_same_key_same_partition(self):
        p = HashPartitioner(16)
        assert p.partition("gene-X") == p.partition("gene-X")


class TestPartitionerBase:
    def test_abstract_base(self):
        with pytest.raises(NotImplementedError):
            Partitioner(2).partition(1)
