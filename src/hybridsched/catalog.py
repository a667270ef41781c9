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
    """Immutable. A NamedTuple, not a frozen dataclass, whose __init__ sets
    each field through object.__setattr__ and costs about three times as much."""

    name: str
    size_bytes: int
    registered_at_ms: int


class DatasetCatalog:
    """Name -> record store, optionally persisted to one JSON file.

    The file maps name -> {size_bytes, registered_at_ms} and is rewritten
    atomically (write-then-rename) on every registration.
    """

    def __init__(self, path: Optional[str] = None,
                 bandwidth_bytes_per_s: Optional[dict[str, int]] = None):
        self.path = path
        self.bandwidth_bytes_per_s = dict(bandwidth_bytes_per_s or {})
        self._records: dict[str, DatasetRecord] = {}
        if path is not None and os.path.exists(path):
            self._load()

    def _load(self):
        with open(self.path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        for name, entry in raw.items():
            self._records[name] = DatasetRecord(
                name=name,
                size_bytes=entry["size_bytes"],
                registered_at_ms=entry["registered_at_ms"],
            )

    def _save(self):
        if self.path is None:
            return
        obj = {
            rec.name: {"size_bytes": rec.size_bytes, "registered_at_ms": rec.registered_at_ms}
            for rec in self._records.values()
        }
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.path)

    def __len__(self):
        return len(self._records)

    def names(self) -> list[str]:
        return sorted(self._records)

    def register_dataset(self, name: str, size_bytes: int, now_ms: int = 0) -> DatasetRecord:
        if not isinstance(name, str) or not name:
            raise BadDatasetName("dataset name must be a non-empty string")
        if type(size_bytes) is not int or size_bytes < 0:
            raise CatalogError("size_bytes must be a non-negative integer")
        if name in self._records:
            raise DuplicateDataset(name)
        record = DatasetRecord(name, size_bytes, now_ms)
        self._records[name] = record
        self._save()
        return record

    def resolve(self, refs) -> list[DatasetRecord]:
        """All records or none: the first unknown name fails the whole call."""
        out = []
        for name in refs:
            record = self._records.get(name)
            if record is None:
                raise MissingDataset(name)
            out.append(record)
        return out

    def staging_delay_ms(self, name: str, cluster_id: str) -> int:
        """Virtual ms to stage one dataset onto one cluster.

        Zero unless the cluster has a configured bandwidth, in which case
        the delay is ceil(1000 x size / bandwidth).
        """
        record = self._records.get(name)
        if record is None:
            raise MissingDataset(name)
        bandwidth = self.bandwidth_bytes_per_s.get(cluster_id)
        if not bandwidth:
            return 0
        return -(-1000 * record.size_bytes // bandwidth)
