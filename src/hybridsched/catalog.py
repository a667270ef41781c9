"""Shared dataset catalog.

One in-memory namespace visible from every cluster kind: a job's dataset
references resolve to the same records no matter where the job lands.
Nothing is saved to disk. Under the default uniform model staging is
free; an opt-in per-cluster bandwidth table turns dataset size into a
start-up delay instead.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class CatalogError(ValueError):
    pass


class DuplicateDataset(CatalogError):
    def __init__(self, name: str):
        super().__init__(f"dataset {name!r} already registered")


class MissingDataset(CatalogError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no dataset named {name!r}")


class BadDatasetName(CatalogError):
    pass


class DatasetRecord(NamedTuple):
    """Immutable view of one dataset, built when it is read: the catalog
    stores sizes by name, not records. A NamedTuple, not a frozen
    dataclass, whose __init__ sets each field through object.__setattr__
    and costs about three times as much."""

    name: str
    size_bytes: int


class DatasetCatalog:
    """Name -> size in memory, filled through register_datasets."""

    def __init__(self, bandwidth_bytes_per_s: Optional[dict[str, int]] = None):
        self.bandwidth_bytes_per_s = dict(bandwidth_bytes_per_s or {})
        self._size: dict[str, int] = {}

    def names(self) -> list[str]:
        return sorted(self._size)

    def register_datasets(self, entries) -> None:
        """Register each {"name", "size_bytes"} entry in order. A bad entry
        raises its own error, and the entries before it stay registered."""
        for entry in entries:
            name, size_bytes = entry["name"], entry["size_bytes"]
            if not isinstance(name, str) or not name:
                raise BadDatasetName("dataset name must be a non-empty string")
            if type(size_bytes) is not int or size_bytes < 0:
                raise CatalogError("size_bytes must be a non-negative integer")
            if name in self._size:
                raise DuplicateDataset(name)
            self._size[name] = size_bytes

    def resolve(self, refs) -> list[DatasetRecord]:
        """All records or none: the first unknown name fails the whole call."""
        out = []
        for name in refs:
            size = self._size.get(name)
            if size is None:
                raise MissingDataset(name)
            out.append(DatasetRecord(name, size))
        return out

    def staging_delay_ms(self, name: str, cluster_id: str) -> int:
        """Virtual ms to stage one dataset onto one cluster.

        Zero unless the cluster has a configured bandwidth, in which case
        the delay is ceil(1000 x size / bandwidth).
        """
        size = self._size.get(name)
        if size is None:
            raise MissingDataset(name)
        bandwidth = self.bandwidth_bytes_per_s.get(cluster_id)
        if not bandwidth:
            return 0
        return -(-1000 * size // bandwidth)
