import copy
import dataclasses
import inspect
import pickle
import random
import typing

import pytest
from hypothesis import given, strategies as st

import oracles
from hybridsched.engine import _RunState
from hybridsched.model import (
    MAX_CLUSTER_NODES,
    BadShape,
    ClusterSpec,
    DuplicateKind,
    Elastic,
    EmptyPreferences,
    JobShape,
    InvalidTransition,
    JobRecord,
    JobSpec,
    JobState,
    LifecycleEvent,
    MalformedSpec,
    NonPositive,
    ResourceKind,
    Rigid,
    TooManyNodes,
    UnknownKind,
    ValidationError,
    job_duration_ms,
    job_spec_from_obj,
    job_spec_to_obj,
    cluster_spec_from_obj,
    transition,
    validate_job,
)
from hybridsched.scheduler import DispatchDecision, Reservation

ALL_KINDS = {ResourceKind.CPU, ResourceKind.GPU, ResourceKind.KNL, ResourceKind.CLOUD}


def spec(**overrides):
    base = dict(
        name="t",
        user_id="u",
        kind_preferences=(ResourceKind.CPU,),
        shape=Rigid(node_count=1),
        work_units=5,
        walltime_limit_ms=1000,
    )
    base.update(overrides)
    return JobSpec(**base)


class TestValidateJob:
    def test_valid_passes_through(self):
        s = spec()
        assert validate_job(s, ALL_KINDS) is s

    def test_empty_preferences(self):
        with pytest.raises(EmptyPreferences):
            validate_job(spec(kind_preferences=()), ALL_KINDS)

    def test_duplicate_kind(self):
        with pytest.raises(DuplicateKind):
            validate_job(spec(kind_preferences=(ResourceKind.CPU, ResourceKind.CPU)), ALL_KINDS)

    def test_unconfigured_kind_rejected(self):
        # gpu is a real kind but not offered by this deployment
        with pytest.raises(UnknownKind):
            validate_job(spec(kind_preferences=(ResourceKind.GPU,)), {ResourceKind.CPU})

    @pytest.mark.parametrize("field,value", [
        ("work_units", 0),
        ("walltime_limit_ms", 0),
        ("work_units", -3),
    ])
    def test_non_positive_scalars(self, field, value):
        with pytest.raises(NonPositive):
            validate_job(spec(**{field: value}), ALL_KINDS)

    def test_rigid_zero_nodes(self):
        with pytest.raises(NonPositive):
            validate_job(spec(shape=Rigid(node_count=0)), ALL_KINDS)

    def test_elastic_min_above_max(self):
        s = spec(shape=Elastic(min_workers=3, max_workers=2),
                 kind_preferences=(ResourceKind.CLOUD,))
        with pytest.raises(BadShape):
            validate_job(s, ALL_KINDS)

    def test_elastic_requires_cloud_preference(self):
        s = spec(shape=Elastic(min_workers=1, max_workers=2),
                 kind_preferences=(ResourceKind.CPU,))
        with pytest.raises(BadShape):
            validate_job(s, ALL_KINDS)

    def test_elastic_ok(self):
        s = spec(shape=Elastic(min_workers=1, max_workers=4),
                 kind_preferences=(ResourceKind.CLOUD,))
        validate_job(s, ALL_KINDS)
        assert s.needed_nodes() == 1


class TestTransitions:
    def test_happy_path(self):
        s = JobState.SUBMITTED
        for ev in (LifecycleEvent.VALIDATED, LifecycleEvent.STARTED,
                   LifecycleEvent.FINISHED):
            s = transition(s, ev)
        assert s is JobState.COMPLETED

    def test_node_lost_with_budget_requeues(self):
        assert transition(JobState.RUNNING, LifecycleEvent.NODE_LOST,
                          retries_left=1) is JobState.QUEUED

    def test_node_lost_without_budget_fails(self):
        assert transition(JobState.RUNNING, LifecycleEvent.NODE_LOST,
                          retries_left=0) is JobState.FAILED

    def test_terminal_states_absorb(self):
        for state in (JobState.COMPLETED, JobState.FAILED,
                      JobState.CANCELLED, JobState.TIMED_OUT):
            for ev in LifecycleEvent:
                with pytest.raises(InvalidTransition):
                    transition(state, ev)

    def test_full_matrix_against_oracle(self):
        # all 49 pairs, both budget levels for the one budget-dependent cell
        for state in JobState:
            for ev in LifecycleEvent:
                for budget in (0, 1):
                    want = oracles.transition_oracle(state.value, ev.value, budget)
                    if want is None:
                        with pytest.raises(InvalidTransition):
                            transition(state, ev, retries_left=budget)
                    else:
                        got = transition(state, ev, retries_left=budget)
                        assert got.value == want, (state, ev, budget)


class TestDuration:
    def test_pinned_examples(self):
        assert job_duration_ms(100, 10, 2) == 5000
        assert job_duration_ms(20, 2, 1) == 10000
        assert job_duration_ms(10, 1, 1) == 10000
        assert job_duration_ms(1, 4, 8) == 32     # ceil(1000/32)
        assert job_duration_ms(3, 1000, 1) == 3
        assert job_duration_ms(1, 1000, 4) == 1   # floor would give 0

    def test_rejects_non_positive(self):
        for bad in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            with pytest.raises(NonPositive):
                job_duration_ms(*bad)

    @given(st.integers(1, 10**6), st.integers(1, 100), st.integers(1, 512))
    def test_matches_rational_oracle(self, work, speed, nodes):
        assert job_duration_ms(work, speed, nodes) == oracles.duration_oracle(work, speed, nodes)

    @given(st.integers(1, 10**4), st.integers(1, 50), st.integers(1, 64))
    def test_more_nodes_never_slower(self, work, speed, nodes):
        assert job_duration_ms(work, speed, nodes + 1) <= job_duration_ms(work, speed, nodes)


class TestJobSpecCodec:
    def test_round_trip_rigid(self):
        s = spec(dataset_refs=("a", "b"), priority=2)
        assert job_spec_from_obj(job_spec_to_obj(s)) == s

    def test_round_trip_elastic(self):
        s = spec(shape=Elastic(min_workers=2, max_workers=5),
                 kind_preferences=(ResourceKind.CLOUD,))
        assert job_spec_from_obj(job_spec_to_obj(s)) == s

    def test_unknown_field_rejected(self):
        obj = job_spec_to_obj(spec())
        obj["nodes"] = 4
        with pytest.raises(MalformedSpec):
            job_spec_from_obj(obj)

    def test_missing_field_rejected(self):
        obj = job_spec_to_obj(spec())
        del obj["work_units"]
        with pytest.raises(MalformedSpec):
            job_spec_from_obj(obj)

    def test_bool_is_not_an_int(self):
        obj = job_spec_to_obj(spec())
        obj["work_units"] = True
        with pytest.raises(MalformedSpec):
            job_spec_from_obj(obj)

    def test_unknown_shape_tag(self):
        obj = job_spec_to_obj(spec())
        obj["shape"] = {"moldable": {"node_count": 2}}
        with pytest.raises(MalformedSpec):
            job_spec_from_obj(obj)

    def test_extra_shape_field(self):
        obj = job_spec_to_obj(spec())
        obj["shape"] = {"rigid": {"node_count": 2, "cores": 8}}
        with pytest.raises(MalformedSpec):
            job_spec_from_obj(obj)

    def test_unknown_kind_string(self):
        obj = job_spec_to_obj(spec())
        obj["kind_preferences"] = ["cpu", "tpu"]
        with pytest.raises(UnknownKind):
            job_spec_from_obj(obj)

    def test_defaults_applied(self):
        obj = job_spec_to_obj(spec())
        del obj["dataset_refs"]
        del obj["priority"]
        parsed = job_spec_from_obj(obj)
        assert parsed.dataset_refs == ()
        assert parsed.priority == 0

    def test_fuzzed_round_trips(self):
        rng = random.Random(7)
        for _ in range(200):
            if rng.random() < 0.3:
                shape = Elastic(min_workers=rng.randint(1, 3),
                                max_workers=rng.randint(3, 9))
                prefs = (ResourceKind.CLOUD,)
            else:
                shape = Rigid(node_count=rng.randint(1, 16))
                prefs = tuple(rng.sample(sorted(ALL_KINDS, key=lambda k: k.value),
                                         rng.randint(1, 4)))
            s = spec(shape=shape, kind_preferences=prefs,
                     work_units=rng.randint(1, 10**6),
                     walltime_limit_ms=rng.randint(1, 10**9),
                     priority=rng.randint(-5, 5))
            assert job_spec_from_obj(job_spec_to_obj(s)) == s


class TestClusterCodec:
    def test_parse(self):
        got = cluster_spec_from_obj({
            "cluster_id": "gpu0", "kind": "gpu", "node_count": 4,
            "cores_per_node": 16, "speed_factor": 3,
        })
        assert got.kind is ResourceKind.GPU
        assert got.node_count == 4

    def test_rejects_zero_nodes(self):
        with pytest.raises(NonPositive):
            cluster_spec_from_obj({
                "cluster_id": "c", "kind": "cpu", "node_count": 0,
                "cores_per_node": 8, "speed_factor": 1,
            })

    def test_rejects_unknown_field(self):
        with pytest.raises(MalformedSpec):
            cluster_spec_from_obj({
                "cluster_id": "c", "kind": "cpu", "node_count": 1,
                "cores_per_node": 8, "speed_factor": 1, "rack": "r1",
            })

    def test_node_count_bound(self):
        obj = {"cluster_id": "c", "kind": "cpu", "cores_per_node": 8, "speed_factor": 1}
        assert MAX_CLUSTER_NODES == 65_536
        assert cluster_spec_from_obj({**obj, "node_count": 65_536}).node_count == 65_536
        for node_count in (65_537, 10**12):
            with pytest.raises(TooManyNodes, match=f"node_count {node_count} is above"):
                cluster_spec_from_obj({**obj, "node_count": node_count})
        assert issubclass(TooManyNodes, ValidationError)


class TestSlottedRecords:
    """Specs and per-job records carry no instance dict; frozen ones stay frozen."""

    FROZEN = [
        Rigid(node_count=2),
        Elastic(min_workers=1, max_workers=3),
        spec(),
        ClusterSpec(cluster_id="c", kind=ResourceKind.CPU, node_count=2, cores_per_node=8,
                    speed_factor=1),
        Reservation(job_id="j", cluster_id="c", node_indices=(0,), start_ms=0,
                    expected_end_ms=1),
        DispatchDecision(starts=(), reservation=None),
    ]

    @pytest.mark.parametrize("obj", FROZEN, ids=lambda o: type(o).__name__)
    def test_frozen_and_slotted(self, obj):
        assert not hasattr(obj, "__dict__")
        name = dataclasses.fields(obj)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))

    def test_mutable_records_are_slotted(self):
        record = JobRecord(job_id="j", spec=spec())
        record.state = JobState.QUEUED
        assert not hasattr(record, "__dict__")
        assert not hasattr(_RunState(), "__dict__")
        with pytest.raises(AttributeError):
            record.note = "no such field"


@dataclasses.dataclass(frozen=True, slots=True)
class PlainJobSpec:
    """JobSpec's fields and defaults in a dataclass with the generated __init__."""

    name: str
    user_id: str
    kind_preferences: tuple[ResourceKind, ...]
    shape: JobShape
    work_units: int
    walltime_limit_ms: int
    dataset_refs: tuple[str, ...] = ()
    priority: int = 0


SPEC_ARGS = ("n", "u", (ResourceKind.GPU, ResourceKind.CPU), Rigid(node_count=3), 7, 900,
             ("d1", "d2"), -2)


def plain_repr(obj) -> str:
    return repr(obj).replace("PlainJobSpec(", "JobSpec(", 1)


class TestJobSpecContract:
    """JobSpec's written-out __init__ behaves as a generated one would."""

    def test_signature_and_defaults(self):
        ours, plain = inspect.signature(JobSpec), inspect.signature(PlainJobSpec)
        assert [(p.name, p.kind, p.default) for p in ours.parameters.values()] == \
            [(p.name, p.kind, p.default) for p in plain.parameters.values()]
        assert typing.get_type_hints(JobSpec.__init__) == \
            typing.get_type_hints(PlainJobSpec.__init__)
        assert [(f.name, f.default, f.init) for f in dataclasses.fields(JobSpec)] == \
            [(f.name, f.default, f.init) for f in dataclasses.fields(PlainJobSpec)]
        assert JobSpec.__match_args__ == PlainJobSpec.__match_args__
        assert JobSpec.__slots__ == PlainJobSpec.__slots__

    @pytest.mark.parametrize("n_args", range(6, 9))
    @pytest.mark.parametrize("n_positional", [0, 3, 6])
    def test_positional_and_keyword_construction(self, n_args, n_positional):
        names = [f.name for f in dataclasses.fields(JobSpec)]
        args = SPEC_ARGS[:n_positional]
        kwargs = dict(zip(names[n_positional:n_args], SPEC_ARGS[n_positional:n_args]))
        ours, plain = JobSpec(*args, **kwargs), PlainJobSpec(*args, **kwargs)
        assert repr(ours) == plain_repr(plain)
        for name in names:
            assert getattr(ours, name) is getattr(plain, name)

    def test_arguments_are_stored_as_given(self):
        refs = ["d"]    # a list stays a list: no field is converted
        assert JobSpec(*SPEC_ARGS[:6], refs).dataset_refs is refs
        assert PlainJobSpec(*SPEC_ARGS[:6], refs).dataset_refs is refs

    @pytest.mark.parametrize("args, kwargs", [
        (SPEC_ARGS[:5], {}),
        (SPEC_ARGS + (1,), {}),
        (SPEC_ARGS[:6], {"nodes": 1}),
        (SPEC_ARGS[:6], {"name": "again"}),
        ((), {}),
    ])
    def test_bad_calls_fail_the_same_way(self, args, kwargs):
        with pytest.raises(TypeError) as ours:
            JobSpec(*args, **kwargs)
        with pytest.raises(TypeError) as plain:
            PlainJobSpec(*args, **kwargs)
        assert str(ours.value) == str(plain.value).replace("PlainJobSpec", "JobSpec")

    def test_replace(self):
        ours, plain = JobSpec(*SPEC_ARGS), PlainJobSpec(*SPEC_ARGS)
        for change in ({}, {"dataset_refs": ("x",)}, {"name": "m", "priority": 4},
                       {"shape": Elastic(min_workers=1, max_workers=2)}):
            replaced = dataclasses.replace(ours, **change)
            assert type(replaced) is JobSpec
            assert repr(replaced) == plain_repr(dataclasses.replace(plain, **change))
        with pytest.raises(TypeError):
            dataclasses.replace(ours, nodes=1)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(PlainJobSpec)])
    def test_every_field_is_frozen(self, field):
        ours, plain = JobSpec(*SPEC_ARGS), PlainJobSpec(*SPEC_ARGS)
        for obj in (ours, plain):
            with pytest.raises(dataclasses.FrozenInstanceError) as error:
                setattr(obj, field, 0)
            assert str(error.value) == f"cannot assign to field {field!r}"
            with pytest.raises(dataclasses.FrozenInstanceError) as error:
                delattr(obj, field)
            assert str(error.value) == f"cannot delete field {field!r}"
        assert repr(ours) == plain_repr(plain)

    def test_equality_hash_and_repr(self):
        ours, plain = JobSpec(*SPEC_ARGS), PlainJobSpec(*SPEC_ARGS)
        assert ours == JobSpec(*SPEC_ARGS) and hash(ours) == hash(plain)
        assert ours != plain
        for i, value in enumerate(["m", "v", (ResourceKind.CPU,), Rigid(node_count=4), 8, 901,
                                   (), 0]):
            args = SPEC_ARGS[:i] + (value,) + SPEC_ARGS[i + 1:]
            other, plain_other = JobSpec(*args), PlainJobSpec(*args)
            assert other != ours and plain_other != plain
            assert hash(other) == hash(plain_other)
            assert repr(other) == plain_repr(plain_other)

    @pytest.mark.parametrize("round_trip", [
        copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies(self, round_trip):
        ours = JobSpec(*SPEC_ARGS)
        twin = round_trip(ours)
        assert type(twin) is JobSpec and twin == ours and hash(twin) == hash(ours)
        assert repr(twin) == repr(ours)
        with pytest.raises(dataclasses.FrozenInstanceError):
            twin.name = "other"
