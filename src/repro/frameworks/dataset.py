"""Partitioned datasets: the unit of distribution.

A :class:`PartitionedDataset` is a list of partitions (plain Python
lists). The batch executor assigns partitions to cluster hosts; the
"shared-nothing" model of §IV.C.3 -- "all of these frameworks specify in
a declarative way the data placement and unit of parallelization".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

from repro.errors import PlanError


@dataclass
class PartitionedDataset:
    """Records split across partitions."""

    partitions: List[List[Any]] = field(default_factory=list)
    record_bytes: float = 100.0  # average serialized record size

    def __post_init__(self) -> None:
        if not self.partitions:
            raise PlanError("dataset needs at least one partition")
        if self.record_bytes <= 0:
            raise PlanError("record size must be positive")

    @classmethod
    def from_records(
        cls,
        records: Sequence[Any],
        n_partitions: int,
        record_bytes: float = 100.0,
    ) -> "PartitionedDataset":
        """Round-robin split of ``records`` into ``n_partitions``."""
        if n_partitions < 1:
            raise PlanError(f"need at least one partition, got {n_partitions}")
        parts: List[List[Any]] = [[] for _ in range(n_partitions)]
        for index, record in enumerate(records):
            parts[index % n_partitions].append(record)
        return cls(partitions=parts, record_bytes=record_bytes)

    @property
    def n_partitions(self) -> int:
        """Number of partitions."""
        return len(self.partitions)

    @property
    def n_records(self) -> int:
        """Total record count."""
        return sum(len(p) for p in self.partitions)

    @property
    def total_bytes(self) -> float:
        """Estimated serialized size."""
        return self.n_records * self.record_bytes

    def collect(self) -> List[Any]:
        """All records, partition order."""
        out: List[Any] = []
        for partition in self.partitions:
            out.extend(partition)
        return out

    def map_partitions(
        self, fn: Callable[[List[Any]], List[Any]], record_bytes: float = None
    ) -> "PartitionedDataset":
        """A new dataset with ``fn`` applied to each partition."""
        return PartitionedDataset(
            partitions=[list(fn(p)) for p in self.partitions],
            record_bytes=record_bytes if record_bytes else self.record_bytes,
        )

    def repartition_by_key(
        self, key_fn: Callable[[Any], Any], n_partitions: int
    ) -> "PartitionedDataset":
        """Hash-partition records by ``key_fn`` (the shuffle data path).

        A key's bucket depends only on its ``repr``, so each distinct
        ``repr`` is hashed once per call and looked up after that.
        """
        if n_partitions < 1:
            raise PlanError("need at least one partition")
        parts: List[List[Any]] = [[] for _ in range(n_partitions)]
        buckets: Dict[str, int] = {}
        for partition in self.partitions:
            for record in partition:
                text = repr(key_fn(record))
                bucket = buckets.get(text)
                if bucket is None:
                    bucket = buckets[text] = _text_bucket(text, n_partitions)
                parts[bucket].append(record)
        return PartitionedDataset(parts, record_bytes=self.record_bytes)


def _stable_bucket(key: Any, n: int) -> int:
    """Deterministic hash bucket (``hash()`` is salted for str)."""
    return _text_bucket(repr(key), n)


def _text_bucket(text: str, n: int) -> int:
    """FNV-1a of ``text``'s UTF-8 bytes, modulo ``n``."""
    value = 2166136261
    for byte in text.encode("utf-8"):
        value = ((value ^ byte) * 16777619) % (2**32)
    return value % n
