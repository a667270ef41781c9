"""Shared dataset catalog.

One in-memory namespace visible from every cluster kind: a job's dataset
references name the same datasets no matter where the job lands.
Nothing is saved to disk. Under the default uniform model staging is
free; an opt-in per-cluster bandwidth table turns dataset size into a
start-up delay instead.
"""

from __future__ import annotations

from typing import Optional


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


_ENTRY_FIELDS = frozenset({"name", "size_bytes"})


def _entry_shape_error(entry) -> str:
    """Why register_datasets turned an entry away before reading its values."""
    if type(entry) is not dict:
        return "dataset entry must be a JSON object"
    if not entry.keys() <= _ENTRY_FIELDS:
        return f"unknown field: {min(entry.keys() - _ENTRY_FIELDS)}"
    return f"missing field: {min(_ENTRY_FIELDS - entry.keys())}"


class DatasetCatalog:
    """Name -> size in memory, filled through register_datasets."""

    def __init__(self, bandwidth_bytes_per_s: Optional[dict[str, int]] = None):
        self.bandwidth_bytes_per_s = dict(bandwidth_bytes_per_s or {})
        self._size: dict[str, int] = {}

    def names(self) -> list[str]:
        return sorted(self._size)

    def register_datasets(self, entries) -> None:
        """Decode and register each {"name", "size_bytes"} entry in order. A bad
        entry raises its own error, and the entries before it stay registered."""
        sizes = self._size
        for entry in entries:
            # two keys whose lookups succeed are exactly these two; inline,
            # since a call per entry shows in Service setup
            if type(entry) is not dict or len(entry) != 2:
                raise CatalogError(_entry_shape_error(entry))
            try:
                name, size_bytes = entry["name"], entry["size_bytes"]
            except KeyError:
                raise CatalogError(_entry_shape_error(entry)) from None
            if not isinstance(name, str) or not name:
                raise BadDatasetName("dataset name must be a non-empty string")
            if type(size_bytes) is not int or size_bytes < 0:
                raise CatalogError("size_bytes must be a non-negative integer")
            if name in sizes:
                raise DuplicateDataset(name)
            sizes[name] = size_bytes

    def resolve(self, refs) -> None:
        """Check that every name is registered: the first unknown one raises MissingDataset."""
        for name in refs:
            if name not in self._size:
                raise MissingDataset(name)

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
