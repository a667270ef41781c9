"""Dataset catalog tests: one namespace, atomic persistence, staging math."""

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hybridsched import catalog as catalog_mod
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


class _Name(str):
    """A str subclass, which register_dataset accepts as a name."""


# a small alphabet, so drawn lists repeat names and hit registered ones
NAMES = st.text(alphabet="abc", min_size=1, max_size=2)
GOOD_ENTRY = st.fixed_dictionaries({"name": NAMES,
                                    "size_bytes": st.integers(0, 10**12)})
GOOD_ENTRIES = st.lists(GOOD_ENTRY, max_size=8, unique_by=lambda e: e["name"])
BAD_ENTRY = st.one_of(
    st.integers(), st.none(), st.text(max_size=2), st.lists(st.integers(), max_size=2),
    st.fixed_dictionaries({"name": NAMES}),
    st.fixed_dictionaries({"size_bytes": st.integers(0, 9)}),
    st.fixed_dictionaries({"name": NAMES, "size_bytes": st.one_of(
        st.booleans(), st.floats(), st.text(max_size=2),
        st.integers(max_value=-1), st.none())}),
    st.fixed_dictionaries({"name": st.one_of(
        st.just(""), st.integers(), st.none(), st.just(["a"]), st.just(b"a"),
        NAMES.map(_Name)), "size_bytes": st.integers(0, 9)}),
)
# one of each way an entry can be turned away ("x" is registered
# beforehand), plus a str-subclass name, which is accepted
MALFORMED = [
    5, None, "ab", ["a"], {}, {"name": "z"}, {"size_bytes": 1},
    {"name": "z", "size_bytes": True}, {"name": "z", "size_bytes": 1.0},
    {"name": "z", "size_bytes": "1"}, {"name": "z", "size_bytes": -1},
    {"name": "z", "size_bytes": None},
    {"name": "", "size_bytes": 1}, {"name": 5, "size_bytes": 1},
    {"name": None, "size_bytes": 1}, {"name": ["z"], "size_bytes": 1},
    {"name": b"z", "size_bytes": 1}, {"name": "x", "size_bytes": 1},
    {"name": _Name("z"), "size_bytes": 1},
]


def _register_one_by_one(cat, entries):
    for entry in entries:
        cat.register_dataset(entry["name"], entry["size_bytes"])


def _outcome(cat, register):
    """What a registration call leaves: the error, names, records, file."""
    try:
        register()
        error = None
    except Exception as exc:   # noqa: BLE001 - compared, not handled
        error = (type(exc), str(exc))
    path = Path(cat.path)
    saved = path.read_bytes() if path.exists() else None
    return error, cat.names(), cat.resolve(cat.names()), saved


def check_bulk_matches_one_by_one(registered, entries, as_iterator=False):
    with tempfile.TemporaryDirectory() as tmp:
        one = DatasetCatalog(os.path.join(tmp, "one.json"))
        bulk = DatasetCatalog(os.path.join(tmp, "bulk.json"))
        for cat in (one, bulk):
            _register_one_by_one(cat, registered)
        expected = _outcome(one, lambda: _register_one_by_one(one, entries))
        bulk_entries = iter(entries) if as_iterator else entries
        got = _outcome(bulk, lambda: bulk.register_datasets(bulk_entries))
    assert got == expected


class TestBulkRegistration:
    """register_datasets leaves what register_dataset one entry at a time does."""

    @settings(max_examples=300, deadline=None)
    @given(registered=st.lists(GOOD_ENTRY, max_size=3, unique_by=lambda e: e["name"]),
           entries=st.one_of(GOOD_ENTRIES, st.lists(st.one_of(GOOD_ENTRY, BAD_ENTRY),
                                                    max_size=8),
                             st.integers(), st.none()))
    def test_matches_registering_one_by_one(self, registered, entries):
        check_bulk_matches_one_by_one(registered, entries)

    @settings(max_examples=100, deadline=None)
    @given(entries=st.lists(st.one_of(GOOD_ENTRY, BAD_ENTRY), max_size=8))
    def test_an_iterator_matches_registering_one_by_one(self, entries):
        check_bulk_matches_one_by_one([{"name": "x", "size_bytes": 1}], entries,
                                      as_iterator=True)

    @pytest.mark.parametrize("bad", MALFORMED)
    @settings(max_examples=20, deadline=None)
    @given(good=GOOD_ENTRIES, at=st.integers(0, 8))
    def test_one_malformed_entry_among_good_ones(self, bad, good, at):
        entries = good[:at] + [bad] + good[at:]
        check_bulk_matches_one_by_one([{"name": "x", "size_bytes": 1}], entries)

    def test_bulk_load_saves_once(self, tmp_path, monkeypatch):
        entries = [{"name": f"d{i:03}", "size_bytes": i * 10} for i in range(200)]
        one = DatasetCatalog(str(tmp_path / "one.json"))
        _register_one_by_one(one, entries)
        replaced = []
        real_replace = os.replace
        monkeypatch.setattr(catalog_mod.os, "replace",
                            lambda src, dst: (replaced.append(dst), real_replace(src, dst)))
        bulk = DatasetCatalog(str(tmp_path / "bulk.json"))
        bulk.register_datasets(entries)
        assert replaced == [bulk.path]
        assert (tmp_path / "bulk.json").read_bytes() == (tmp_path / "one.json").read_bytes()
        assert DatasetCatalog(bulk.path).resolve(["d007"]) == [DatasetRecord("d007", 70, 0)]

    def test_empty_list_registers_and_saves_nothing(self, tmp_path):
        cat = DatasetCatalog(str(tmp_path / "catalog.json"))
        cat.register_datasets([])
        assert len(cat) == 0 and list(tmp_path.iterdir()) == []

    def test_a_bad_entry_keeps_the_entries_before_it(self):
        cat = DatasetCatalog()
        with pytest.raises(CatalogError, match="non-negative integer"):
            cat.register_datasets([{"name": "a", "size_bytes": 1},
                                   {"name": "b", "size_bytes": -1},
                                   {"name": "c", "size_bytes": 3}])
        assert cat.names() == ["a"]
