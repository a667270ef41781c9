"""Property tests for the JSON decoders of job specs and submission traces.

The decoders take input from outside the program (trace files, HTTP
bodies), so any wrong-typed field must surface as the codec's own error,
never as a TypeError, KeyError or AttributeError from deeper down.
"""

import copy
import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from hybridsched.model import (
    Elastic,
    JobSpec,
    MalformedSpec,
    ResourceKind,
    Rigid,
    job_spec_from_obj,
    job_spec_to_obj,
)
from hybridsched.traces import (
    FaultDirective,
    MalformedTrace,
    SubmissionTrace,
    trace_from_obj,
    trace_to_obj,
)

ints = st.integers(min_value=-10**12, max_value=10**12)
texts = st.text(max_size=8)
kind_lists = st.lists(st.sampled_from(list(ResourceKind)), max_size=5).map(tuple)
shapes = st.one_of(
    st.builds(Rigid, node_count=ints),
    st.builds(Elastic, min_workers=ints, max_workers=ints),
)
specs = st.builds(
    JobSpec,
    name=texts,
    user_id=texts,
    kind_preferences=kind_lists,
    shape=shapes,
    work_units=ints,
    walltime_limit_ms=ints,
    dataset_refs=st.lists(texts, max_size=3).map(tuple),
    priority=ints,
)
faults = st.builds(
    FaultDirective,
    t_ms=st.integers(min_value=0, max_value=10**12),
    cluster_id=texts,
    node_index=ints,
    down_duration_ms=st.integers(min_value=1, max_value=10**12),
)
traces = st.builds(
    SubmissionTrace,
    jobs=st.lists(st.tuples(st.integers(min_value=0, max_value=10**12), specs), max_size=4),
    faults=st.lists(faults, max_size=3),
    rng_seed=ints,
)

# One strategy per JSON type; a field of type T gets any value of another type.
JSON_VALUES = {
    "bool": st.booleans(),
    "int": ints,
    "float": st.floats(allow_nan=False),
    "str": texts,
    "list": st.lists(st.one_of(ints, texts), max_size=3),
    "object": st.dictionaries(texts, ints, max_size=2),
    "null": st.none(),
}


def wrong_value(expected: str):
    return st.one_of([strategy for name, strategy in JSON_VALUES.items() if name != expected])


SPEC_FIELD_TYPES = {
    "name": "str", "user_id": "str", "kind_preferences": "list", "shape": "object",
    "work_units": "int", "walltime_limit_ms": "int", "dataset_refs": "list", "priority": "int",
}
FAULT_FIELD_TYPES = {"t_ms": "int", "cluster_id": "str", "node_index": "int",
                     "down_duration_ms": "int"}


def spec_slots(obj: dict) -> list:
    """(container, key, JSON type) for every field of one encoded spec, nested ones too."""
    slots = [(obj, key, SPEC_FIELD_TYPES[key]) for key in obj]
    [(tag, body)] = obj["shape"].items()
    slots.append((obj["shape"], tag, "object"))
    slots += [(body, key, "int") for key in body]
    slots += [(obj["kind_preferences"], i, "str") for i in range(len(obj["kind_preferences"]))]
    slots += [(obj["dataset_refs"], i, "str") for i in range(len(obj["dataset_refs"]))]
    return slots


def spec_objects(obj: dict) -> list:
    """Every JSON object inside one encoded spec, where an unknown key must be rejected."""
    return [obj, next(iter(obj["shape"].values()))]


def trace_slots(obj: dict) -> list:
    slots = []
    for entry in obj["jobs"]:
        slots += [(entry, "t_ms", "int"), (entry, "spec", "object")]
        slots += spec_slots(entry["spec"])
    for fault in obj["faults"]:
        slots += [(fault, key, FAULT_FIELD_TYPES[key]) for key in fault]
    slots += [(obj["jobs"], i, "object") for i in range(len(obj["jobs"]))]
    slots += [(obj["faults"], i, "object") for i in range(len(obj["faults"]))]
    return slots


def trace_objects(obj: dict) -> list:
    objects = [obj] + obj["jobs"] + obj["faults"]
    for entry in obj["jobs"]:
        objects += spec_objects(entry["spec"])
    return objects


def unknown_key(known):
    return texts.filter(lambda key: key not in known)


class TestRoundTrip:
    @given(specs)
    def test_spec_round_trips_through_json(self, spec):
        obj = json.loads(json.dumps(job_spec_to_obj(spec)))
        assert job_spec_from_obj(obj) == spec

    @given(traces)
    def test_trace_round_trips_through_json(self, trace):
        obj = json.loads(json.dumps(trace_to_obj(trace)))
        assert trace_from_obj(obj) == trace


class TestWrongTypes:
    @given(specs, st.data())
    def test_wrong_typed_spec_field(self, spec, data):
        obj = job_spec_to_obj(spec)
        container, key, expected = data.draw(st.sampled_from(spec_slots(obj)))
        container[key] = data.draw(wrong_value(expected))
        with pytest.raises(MalformedSpec):
            job_spec_from_obj(obj)

    @given(specs, st.data())
    def test_unknown_spec_key(self, spec, data):
        obj = job_spec_to_obj(spec)
        target = data.draw(st.sampled_from(spec_objects(obj)))
        target[data.draw(unknown_key(set(target)))] = data.draw(JSON_VALUES["int"])
        with pytest.raises(MalformedSpec):
            job_spec_from_obj(obj)

    @given(traces.filter(lambda t: t.jobs or t.faults), st.data())
    def test_wrong_typed_trace_field(self, trace, data):
        obj = trace_to_obj(trace)
        container, key, expected = data.draw(st.sampled_from(trace_slots(obj)))
        container[key] = data.draw(wrong_value(expected))
        with pytest.raises(MalformedTrace):
            trace_from_obj(obj)

    @given(traces, st.data())
    def test_unknown_trace_key(self, trace, data):
        obj = trace_to_obj(trace)
        target = data.draw(st.sampled_from(trace_objects(obj)))
        target[data.draw(unknown_key(set(target)))] = data.draw(JSON_VALUES["int"])
        with pytest.raises(MalformedTrace):
            trace_from_obj(obj)


class TestSharedValues:
    @given(shapes, st.lists(st.sampled_from(list(ResourceKind)), min_size=1, max_size=4,
                            unique=True), texts, texts)
    def test_specs_sharing_shape_and_preferences(self, shape, kinds, name_a, name_b):
        template = job_spec_to_obj(JobSpec(name="", user_id="u", kind_preferences=tuple(kinds),
                                           shape=shape, work_units=1, walltime_limit_ms=1))
        a = job_spec_from_obj(json.loads(json.dumps({**template, "name": name_a})))
        b = job_spec_from_obj(json.loads(json.dumps({**template, "name": name_b})))
        assert a.shape is b.shape and a.kind_preferences is b.kind_preferences
        assert a.shape == shape and hash(a.shape) == hash(shape)
        assert a.kind_preferences == tuple(kinds)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a.shape, dataclasses.fields(a.shape)[0].name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.kind_preferences = ()
        assert b.shape == shape
        assert (a == b) == (name_a == name_b)
        if name_a == name_b:
            assert hash(a) == hash(b)


# --- the decoders against their earlier form -------------------------------


class Text(str):
    """A str subclass: the decoders take one wherever they take a str."""


class Count(int):
    """An int subclass other than bool: the decoders take one wherever they take an int."""


KIND_TEXTS = st.sampled_from([kind.value for kind in ResourceKind] + ["CPU", "tpu", ""])
KEYS = st.one_of(
    st.sampled_from(sorted(set(SPEC_FIELD_TYPES) | set(FAULT_FIELD_TYPES) | {
        "node_count", "min_workers", "max_workers", "rigid", "elastic", "spec",
        "jobs", "faults", "rng_seed"})),
    texts,
)
SCALARS = st.one_of(
    *JSON_VALUES.values(),
    st.integers(min_value=-2, max_value=5),
    ints.map(Count),
    texts.map(Text),
    KIND_TEXTS,
    KIND_TEXTS.map(Text),
)
# lists of lists and of objects give lists with unhashable items
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6,
)


def either(first, second):
    """Half the time one strategy, half the other (`|` would weigh each of its branches)."""
    return st.booleans().flatmap(lambda pick: first if pick else second)


SMALL_INTS = either(st.integers(min_value=-2, max_value=5), VALUES)
SHAPE_BODIES = st.dictionaries(st.sampled_from(["node_count", "min_workers", "max_workers"]),
                               SMALL_INTS, max_size=3)
SHAPE_VALUES = either(st.dictionaries(st.sampled_from(["rigid", "elastic", "moldable"]),
                                      either(SHAPE_BODIES, VALUES), max_size=2), VALUES)
KIND_VALUES = st.lists(either(KIND_TEXTS | KIND_TEXTS.map(Text), VALUES), max_size=5)
# a replaced field draws from the values likeliest to get past its own
# checks, or to fail only a later one (negative times, unknown kinds)
VALUES_FOR = {"shape": SHAPE_VALUES, "kind_preferences": KIND_VALUES,
              "dataset_refs": KIND_VALUES, **dict.fromkeys(
                  ["t_ms", "down_duration_ms", "work_units", "walltime_limit_ms"], SMALL_INTS)}


def places(document) -> list:
    """(container, key) of every value nested in a JSON document."""
    found, stack = [], [document]
    while stack:
        container = stack.pop()
        if isinstance(container, dict):
            items = list(container.items())
        elif isinstance(container, list):
            items = list(enumerate(container))
        else:
            continue
        for key, value in items:
            found.append((container, key))
            stack.append(value)
    return found


def mutate(document, data) -> None:
    """Replace, delete or add one value anywhere in the document."""
    action = data.draw(st.sampled_from(["replace", "replace", "replace", "delete", "add"]))
    nested = places(document)
    if action == "add" or not nested:
        objects = [document] + [c[k] for c, k in nested if isinstance(c[k], dict)]
        target = data.draw(st.sampled_from(objects))
        target[data.draw(KEYS)] = data.draw(VALUES)
        return
    # a key first, then one place with it, so that every field is as
    # likely to change however many times it occurs in the document
    by_key = {}
    for container, key in nested:
        by_key.setdefault(key, []).append(container)
    key = data.draw(st.sampled_from(sorted(by_key, key=repr)))
    container = data.draw(st.sampled_from(by_key[key]))
    if action == "delete":
        del container[key]
    else:
        container[key] = data.draw(VALUES_FOR.get(key, VALUES))


def outcome(decode, document):
    try:
        return "value", decode(copy.deepcopy(document))
    except Exception as exc:
        return type(exc), str(exc), type(exc.__cause__)


@pytest.mark.extra_seeds
class TestAgainstEarlierDecoders:
    """Every input is accepted as an equal value, or rejected with the same error and message."""

    @settings(max_examples=400, deadline=None)
    @given(specs, st.integers(min_value=0, max_value=4), st.data())
    def test_job_spec_decoder(self, spec, n_mutations, data):
        obj = job_spec_to_obj(spec)
        for _ in range(n_mutations):
            mutate(obj, data)
        assert outcome(job_spec_from_obj, obj) == outcome(oracles.reference_job_spec_from_obj, obj)

    @settings(max_examples=300, deadline=None)
    @given(traces, st.integers(min_value=0, max_value=4), st.data())
    def test_trace_decoder(self, trace, n_mutations, data):
        obj = trace_to_obj(trace)
        for _ in range(n_mutations):
            mutate(obj, data)
        assert outcome(trace_from_obj, obj) == outcome(oracles.reference_trace_from_obj, obj)

    @pytest.mark.parametrize("document", [
        None, [], "spec", {}, {"shape": {}},
        {"name": "n", "user_id": "u", "kind_preferences": ["cpu", "cpu"],
         "shape": {"rigid": {"node_count": Count(2)}}, "work_units": 1,
         "walltime_limit_ms": 1},
        {"name": Text("n"), "user_id": "u", "kind_preferences": [Text("gpu")],
         "shape": {"elastic": {"min_workers": 1, "max_workers": 2}}, "work_units": 1,
         "walltime_limit_ms": 1, "dataset_refs": [Text("d")], "priority": Count(-1)},
        {"name": "n", "user_id": "u", "kind_preferences": ["tpu"],
         "shape": {"moldable": {}}, "work_units": 1.0, "walltime_limit_ms": True},
        {"name": "n", "user_id": "u", "kind_preferences": [["cpu"]],
         "shape": {"rigid": {"node_count": 1}}, "work_units": 1, "walltime_limit_ms": 1},
    ])
    def test_fixed_specs(self, document):
        expected = outcome(oracles.reference_job_spec_from_obj, document)
        assert outcome(job_spec_from_obj, document) == expected
        # as the spec of a one-job trace
        trace = {"jobs": [{"t_ms": 0, "spec": document}]}
        assert outcome(trace_from_obj, trace) == outcome(oracles.reference_trace_from_obj, trace)

    @pytest.mark.parametrize("jobs, faults", [
        ([(5, "a"), (-3, "b"), (-7, "c")], []),
        ([(Count(2), "a"), (0, "b")], [(-1, 1), (-4, 0)]),
        ([(2, "a"), (1, "b"), (2, "c"), (0, "d")], [(3, 1), (1, 0), (1, 2)]),
        ([], [(0, 5), (Count(0), Count(1))]),
    ])
    def test_fixed_traces(self, jobs, faults):
        spec = job_spec_to_obj(JobSpec(name="", user_id="u", kind_preferences=(ResourceKind.CPU,),
                                       shape=Rigid(node_count=1), work_units=1,
                                       walltime_limit_ms=1))
        trace = {
            "jobs": [{"t_ms": t_ms, "spec": {**spec, "name": name}} for t_ms, name in jobs],
            "faults": [{"t_ms": t_ms, "cluster_id": "c", "node_index": 0,
                        "down_duration_ms": down} for t_ms, down in faults],
        }
        assert outcome(trace_from_obj, trace) == outcome(oracles.reference_trace_from_obj, trace)
