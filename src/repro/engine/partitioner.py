"""Key partitioners for shuffle operations."""

from __future__ import annotations

from typing import Any, Hashable


def _portable_hash(key: Hashable) -> int:
    """Deterministic, non-negative hash for shuffle partitioning.

    Python randomizes ``hash(str)`` per process; for reproducible partition
    assignment across runs (and across the process backend's workers, which
    may have different hash seeds) we avoid the built-in hash for strings
    and bytes.
    """
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key if key >= 0 else -key
    if isinstance(key, str):
        key = key.encode("utf-8")
    if isinstance(key, bytes):
        h = 5381
        for byte in key:
            h = ((h * 33) ^ byte) & 0x7FFFFFFF
        return h
    if isinstance(key, float):
        return _portable_hash(key.hex())
    if isinstance(key, tuple):
        h = 1
        for item in key:
            h = (h * 31 + _portable_hash(item)) & 0x7FFFFFFF
        return h
    return hash(key) & 0x7FFFFFFF


class Partitioner:
    """Maps keys to partition indices in ``[0, num_partitions)``."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.num_partitions == other.num_partitions  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.num_partitions))


class HashPartitioner(Partitioner):
    """Spark's default: ``portable_hash(key) mod num_partitions``."""

    def partition(self, key: Any) -> int:
        return _portable_hash(key) % self.num_partitions
