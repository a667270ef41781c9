"""Dataset catalog tests: one namespace, atomic persistence, staging math."""

import json

import pytest
from hypothesis import given, strategies as st

from hybridsched.catalog import (
    BadDatasetName,
    CatalogError,
    DatasetCatalog,
    DatasetRecord,
    DuplicateDataset,
    MissingDataset,
)
from oracles import staging_oracle


class TestRegisterResolve:
    def test_register_and_resolve(self):
        cat = DatasetCatalog()
        rec = cat.register_dataset("survey-a", 1_000, now_ms=42)
        assert rec.size_bytes == 1_000 and rec.registered_at_ms == 42
        assert cat.resolve(["survey-a"]) == [rec]
        assert len(cat) == 1

    def test_duplicate_rejected(self):
        cat = DatasetCatalog()
        cat.register_dataset("d", 10)
        with pytest.raises(DuplicateDataset):
            cat.register_dataset("d", 20)

    def test_empty_name_and_negative_size(self):
        cat = DatasetCatalog()
        with pytest.raises(BadDatasetName):
            cat.register_dataset("", 1)
        with pytest.raises(CatalogError):
            cat.register_dataset("x", -1)

    @pytest.mark.parametrize("name", [5, None, b"d", ["d"]])
    def test_non_string_name_rejected(self, name):
        cat = DatasetCatalog()
        with pytest.raises(BadDatasetName):
            cat.register_dataset(name, 1)
        assert len(cat) == 0

    @pytest.mark.parametrize("size", [1.5, 10.0, "10", True, None])
    def test_non_integer_size_rejected(self, size):
        cat = DatasetCatalog()
        with pytest.raises(CatalogError, match="integer"):
            cat.register_dataset("d", size)
        assert len(cat) == 0

    def test_records_are_immutable_and_resolve_equal(self):
        cat = DatasetCatalog()
        rec = cat.register_dataset("d", 10, now_ms=3)
        with pytest.raises(AttributeError):
            rec.size_bytes = 20
        assert (rec.name, rec.size_bytes, rec.registered_at_ms) == ("d", 10, 3)
        assert cat.resolve(["d", "d"]) == [rec, rec]
        assert cat.resolve(["d"])[0] == DatasetRecord("d", 10, 3)

    def test_zero_size_allowed(self):
        cat = DatasetCatalog()
        cat.register_dataset("empty", 0)
        assert cat.resolve(["empty"])[0].size_bytes == 0

    def test_resolve_is_all_or_nothing(self):
        cat = DatasetCatalog()
        cat.register_dataset("a", 1)
        cat.register_dataset("b", 2)
        with pytest.raises(MissingDataset) as err:
            cat.resolve(["a", "ghost", "b"])
        assert err.value.name == "ghost"
        # names() unaffected, nothing partially consumed
        assert cat.names() == ["a", "b"]

    def test_resolve_preserves_request_order(self):
        cat = DatasetCatalog()
        cat.register_dataset("z", 1)
        cat.register_dataset("a", 2)
        assert [r.name for r in cat.resolve(["z", "a", "z"])] == ["z", "a", "z"]


class TestStagingDelay:
    def test_no_bandwidth_means_free(self):
        cat = DatasetCatalog()
        cat.register_dataset("d", 10**9)
        assert cat.staging_delay_ms("d", "cpu0") == 0

    def test_exact_division(self):
        cat = DatasetCatalog(bandwidth_bytes_per_s={"cloud0": 1_000})
        cat.register_dataset("d", 1_000)
        assert cat.staging_delay_ms("d", "cloud0") == 1_000

    def test_rounds_up(self):
        cat = DatasetCatalog(bandwidth_bytes_per_s={"cloud0": 3_000})
        cat.register_dataset("d", 1_000)
        # 1000*1000/3000 = 333.33.. -> 334
        assert cat.staging_delay_ms("d", "cloud0") == 334

    def test_unknown_dataset(self):
        cat = DatasetCatalog(bandwidth_bytes_per_s={"c": 1})
        with pytest.raises(MissingDataset):
            cat.staging_delay_ms("nope", "c")

    def test_zero_size_is_instant(self):
        cat = DatasetCatalog(bandwidth_bytes_per_s={"c": 5})
        cat.register_dataset("d", 0)
        assert cat.staging_delay_ms("d", "c") == 0

    @given(size=st.integers(min_value=0, max_value=10**12),
           bw=st.integers(min_value=1, max_value=10**9))
    def test_matches_fraction_oracle(self, size, bw):
        cat = DatasetCatalog(bandwidth_bytes_per_s={"c": bw})
        cat.register_dataset("d", size)
        assert cat.staging_delay_ms("d", "c") == staging_oracle(size, bw)


class TestPersistence:
    def test_reload_round_trip(self, tmp_path):
        path = str(tmp_path / "catalog.json")
        cat = DatasetCatalog(path)
        cat.register_dataset("a", 123, now_ms=5)
        cat.register_dataset("b", 456, now_ms=9)
        again = DatasetCatalog(path)
        assert again.names() == ["a", "b"]
        assert again.resolve(["a"])[0].size_bytes == 123
        assert again.resolve(["b"])[0].registered_at_ms == 9

    def test_file_is_valid_sorted_json(self, tmp_path):
        path = tmp_path / "catalog.json"
        cat = DatasetCatalog(str(path))
        cat.register_dataset("zz", 1)
        cat.register_dataset("aa", 2)
        obj = json.loads(path.read_text())
        assert list(obj) == ["aa", "zz"]
        assert obj["aa"] == {"size_bytes": 2, "registered_at_ms": 0}

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "catalog.json"
        cat = DatasetCatalog(str(path))
        cat.register_dataset("d", 7)
        assert [p.name for p in tmp_path.iterdir()] == ["catalog.json"]

    def test_failed_registration_leaves_file_unchanged(self, tmp_path):
        path = tmp_path / "catalog.json"
        cat = DatasetCatalog(str(path))
        cat.register_dataset("d", 7)
        before = path.read_bytes()
        with pytest.raises(DuplicateDataset):
            cat.register_dataset("d", 8)
        assert path.read_bytes() == before

    def test_memory_only_catalog_never_touches_disk(self, tmp_path):
        cat = DatasetCatalog()
        cat.register_dataset("d", 1)
        assert list(tmp_path.iterdir()) == []
