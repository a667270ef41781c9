"""Shared dataset catalog.

One namespace visible from every cluster kind: a job's dataset references
resolve to the same records no matter where the job lands. Under the
default uniform model staging is free; an opt-in per-cluster bandwidth
table turns dataset size into a start-up delay instead.
"""

from __future__ import annotations

import json
import os
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
    stores sizes and registration times by name, not records. A NamedTuple,
    not a frozen dataclass, whose __init__ sets each field through
    object.__setattr__ and costs about three times as much."""

    name: str
    size_bytes: int
    registered_at_ms: int


class DatasetCatalog:
    """Name -> size and name -> registration time, optionally persisted to
    one JSON file.

    The file maps name -> {size_bytes, registered_at_ms} and is rewritten
    atomically (write-then-rename) on every registration call.
    """

    def __init__(self, path: Optional[str] = None,
                 bandwidth_bytes_per_s: Optional[dict[str, int]] = None):
        self.path = path
        self.bandwidth_bytes_per_s = dict(bandwidth_bytes_per_s or {})
        self._size: dict[str, int] = {}
        self._registered_at: dict[str, int] = {}
        if path is not None and os.path.exists(path):
            self._load()

    def _load(self):
        with open(self.path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        for name, entry in raw.items():
            self._size[name] = entry["size_bytes"]
            self._registered_at[name] = entry["registered_at_ms"]

    def _save(self):
        if self.path is None:
            return
        obj = {
            name: {"size_bytes": size, "registered_at_ms": self._registered_at[name]}
            for name, size in self._size.items()
        }
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.path)

    def __len__(self):
        return len(self._size)

    def names(self) -> list[str]:
        return sorted(self._size)

    def _check(self, name, size_bytes) -> None:
        """The rules every registration obeys, in the order they are checked."""
        if not isinstance(name, str) or not name:
            raise BadDatasetName("dataset name must be a non-empty string")
        if type(size_bytes) is not int or size_bytes < 0:
            raise CatalogError("size_bytes must be a non-negative integer")
        if name in self._size:
            raise DuplicateDataset(name)

    def register_dataset(self, name: str, size_bytes: int, now_ms: int = 0) -> DatasetRecord:
        self._check(name, size_bytes)
        self._size[name] = size_bytes
        self._registered_at[name] = now_ms
        self._save()
        return DatasetRecord(name, size_bytes, now_ms)

    def register_datasets(self, entries) -> None:
        """Register each {"name", "size_bytes"} entry in order at time 0, as
        register_dataset would one by one, but save once and build no
        record: a bad entry raises its own error, and the entries before it
        stay registered and saved."""
        before = len(self._size)
        try:
            for entry in entries:
                name, size_bytes = entry["name"], entry["size_bytes"]
                self._check(name, size_bytes)
                self._size[name] = size_bytes
                self._registered_at[name] = 0
        finally:
            if len(self._size) > before:
                self._save()

    def resolve(self, refs) -> list[DatasetRecord]:
        """All records or none: the first unknown name fails the whole call."""
        out = []
        for name in refs:
            size = self._size.get(name)
            if size is None:
                raise MissingDataset(name)
            out.append(DatasetRecord(name, size, self._registered_at[name]))
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
