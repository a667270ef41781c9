"""Dataset catalog tests: one in-memory namespace, one registration path,
staging math."""

import pytest
from hypothesis import given, settings, strategies as st

from hybridsched.catalog import (
    BadDatasetName,
    CatalogError,
    DatasetCatalog,
    DuplicateDataset,
    MissingDataset,
)
from oracles import reference_dataset_entry, reference_register_dataset, staging_oracle


def register(cat, name, size_bytes):
    cat.register_datasets([{"name": name, "size_bytes": size_bytes}])


class TestRegisterResolve:
    def test_register_and_resolve(self):
        cat = DatasetCatalog()
        register(cat, "survey-a", 1_000)
        assert cat.resolve(["survey-a"]) is None
        assert cat.names() == ["survey-a"]

    def test_duplicate_rejected(self):
        cat = DatasetCatalog()
        register(cat, "d", 10)
        with pytest.raises(DuplicateDataset):
            register(cat, "d", 20)

    def test_empty_name_and_negative_size(self):
        cat = DatasetCatalog()
        with pytest.raises(BadDatasetName):
            register(cat, "", 1)
        with pytest.raises(CatalogError):
            register(cat, "x", -1)

    @pytest.mark.parametrize("name", [5, None, b"d", ["d"]])
    def test_non_string_name_rejected(self, name):
        cat = DatasetCatalog()
        with pytest.raises(BadDatasetName):
            register(cat, name, 1)
        assert cat.names() == []

    @pytest.mark.parametrize("size", [1.5, 10.0, "10", True, None])
    def test_non_integer_size_rejected(self, size):
        cat = DatasetCatalog()
        with pytest.raises(CatalogError, match="integer"):
            register(cat, "d", size)
        assert cat.names() == []

    @pytest.mark.parametrize("entry, message", [
        (["d", 1], "dataset entry must be a JSON object"),
        ("d", "dataset entry must be a JSON object"),
        ({"name": "d", "size_bytes": 1, "sise_bytes": 5}, "unknown field: sise_bytes"),
        ({"name": "d", "sise_bytes": 5}, "unknown field: sise_bytes"),
        ({"size_bytes": 1}, "missing field: name"),
        ({}, "missing field: name"),
    ])
    def test_entry_shape_refused_with_our_message(self, entry, message):
        cat = DatasetCatalog()
        with pytest.raises(CatalogError) as err:
            cat.register_datasets([{"name": "a", "size_bytes": 1}, entry])
        assert str(err.value) == message
        assert cat.names() == ["a"]

    def test_resolve_accepts_a_name_given_twice(self):
        cat = DatasetCatalog()
        register(cat, "d", 10)
        assert cat.resolve(["d", "d"]) is None
        assert cat.resolve([]) is None
        with pytest.raises(MissingDataset):
            cat.resolve(["d", "e", "d"])

    def test_zero_size_allowed(self):
        cat = DatasetCatalog(bandwidth_bytes_per_s={"c": 1})
        register(cat, "empty", 0)
        assert cat.resolve(["empty"]) is None
        assert cat.staging_delay_ms("empty", "c") == 0

    def test_resolve_is_all_or_nothing(self):
        cat = DatasetCatalog()
        register(cat, "a", 1)
        register(cat, "b", 2)
        with pytest.raises(MissingDataset) as err:
            cat.resolve(["a", "ghost", "b"])
        assert err.value.name == "ghost"
        # names() unaffected, nothing partially consumed
        assert cat.names() == ["a", "b"]

    def test_resolve_preserves_request_order(self):
        cat = DatasetCatalog()
        register(cat, "z", 1)
        register(cat, "a", 2)
        assert cat.resolve(["z", "a", "z"]) is None
        # the first unknown name in request order is the one reported
        with pytest.raises(MissingDataset) as err:
            cat.resolve(["z", "y", "a", "b"])
        assert err.value.name == "y"


class TestStagingDelay:
    def test_no_bandwidth_means_free(self):
        cat = DatasetCatalog()
        register(cat, "d", 10**9)
        assert cat.staging_delay_ms("d", "cpu0") == 0

    def test_exact_division(self):
        cat = DatasetCatalog(bandwidth_bytes_per_s={"cloud0": 1_000})
        register(cat, "d", 1_000)
        assert cat.staging_delay_ms("d", "cloud0") == 1_000

    def test_rounds_up(self):
        cat = DatasetCatalog(bandwidth_bytes_per_s={"cloud0": 3_000})
        register(cat, "d", 1_000)
        # 1000*1000/3000 = 333.33.. -> 334
        assert cat.staging_delay_ms("d", "cloud0") == 334

    def test_unknown_dataset(self):
        cat = DatasetCatalog(bandwidth_bytes_per_s={"c": 1})
        with pytest.raises(MissingDataset):
            cat.staging_delay_ms("nope", "c")

    def test_zero_size_is_instant(self):
        cat = DatasetCatalog(bandwidth_bytes_per_s={"c": 5})
        register(cat, "d", 0)
        assert cat.staging_delay_ms("d", "c") == 0

    @given(size=st.integers(min_value=0, max_value=10**12),
           bw=st.integers(min_value=1, max_value=10**9))
    def test_matches_fraction_oracle(self, size, bw):
        cat = DatasetCatalog(bandwidth_bytes_per_s={"c": bw})
        register(cat, "d", size)
        assert cat.staging_delay_ms("d", "c") == staging_oracle(size, bw)


class _Name(str):
    """A str subclass, which register_datasets accepts as a name."""


# a small alphabet, so drawn lists repeat names and hit registered ones
NAMES = st.text(alphabet="abc", min_size=1, max_size=2)
GOOD_ENTRY = st.fixed_dictionaries({"name": NAMES,
                                    "size_bytes": st.integers(0, 10**12)})
GOOD_ENTRIES = st.lists(GOOD_ENTRY, max_size=8, unique_by=lambda e: e["name"])
BAD_ENTRY = st.one_of(
    st.integers(), st.none(), st.text(max_size=2), st.lists(st.integers(), max_size=2),
    st.fixed_dictionaries({"name": NAMES}),
    st.fixed_dictionaries({"size_bytes": st.integers(0, 9)}),
    # an unknown key beside both fields, or in place of one
    st.builds(dict, GOOD_ENTRY, sise_bytes=st.integers(0, 9)),
    st.fixed_dictionaries({"name": NAMES, "sise_bytes": st.integers(0, 9)}),
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
    {"name": "z", "size_bytes": 1, "sise_bytes": 5}, {"name": "z", "sise_bytes": 1},
]


def _register_one_by_one(sizes, entries):
    for entry in entries:
        reference_register_dataset(sizes, *reference_dataset_entry(entry))


def _error_of(register_all):
    """The (class, message) a registration call raises, or None."""
    try:
        register_all()
    except Exception as exc:   # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return None


def check_bulk_matches_one_by_one(registered, entries, as_iterator=False):
    sizes = {}
    _register_one_by_one(sizes, registered)
    error = _error_of(lambda: _register_one_by_one(sizes, entries))
    names = sorted(sizes)
    expected = error, names, [sizes[name] for name in names]
    # at 1,000 bytes/s a dataset's staging delay in ms equals its size in bytes
    bulk = DatasetCatalog(bandwidth_bytes_per_s={"c": 1_000})
    bulk.register_datasets(registered)
    bulk_entries = iter(entries) if as_iterator else entries
    error = _error_of(lambda: bulk.register_datasets(bulk_entries))
    assert bulk.resolve(bulk.names()) is None
    assert (error, bulk.names(),
            [bulk.staging_delay_ms(name, "c") for name in bulk.names()]) == expected


@pytest.mark.extra_seeds
class TestBulkRegistration:
    """register_datasets leaves what the reference rules, applied one entry
    at a time, leave: the same error, names and records."""

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

    def test_empty_list_registers_and_saves_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cat = DatasetCatalog()
        cat.register_datasets([])
        assert cat.names() == []
        register(cat, "d", 1)
        assert list(tmp_path.iterdir()) == []

    def test_a_bad_entry_keeps_the_entries_before_it(self):
        cat = DatasetCatalog()
        with pytest.raises(CatalogError, match="non-negative integer"):
            cat.register_datasets([{"name": "a", "size_bytes": 1},
                                   {"name": "b", "size_bytes": -1},
                                   {"name": "c", "size_bytes": 3}])
        assert cat.names() == ["a"]
