"""Trace codec and workload generator tests."""

import json
import random

import pytest

import oracles
from oracles import outcome

from hybridsched.model import (
    Elastic,
    JobSpec,
    ResourceKind,
    Rigid,
    job_duration_ms,
    job_spec_to_obj,
    read_json,
)
from hybridsched.traces import (
    FaultDirective,
    MalformedTrace,
    SubmissionTrace,
    random_clusters,
    random_trace,
    read_trace,
    trace_from_obj,
    trace_to_obj,
    write_trace,
)


def spec(name="j", kinds=(ResourceKind.CPU,), nodes=1, work=5, wall=60_000, prio=0):
    return JobSpec(name=name, user_id="u", kind_preferences=tuple(kinds),
                   shape=Rigid(node_count=nodes), work_units=work,
                   walltime_limit_ms=wall, priority=prio)


class TestCodec:
    def test_round_trip(self):
        trace = SubmissionTrace(
            jobs=[(0, spec("a")), (500, spec("b", nodes=2))],
            faults=[FaultDirective(100, "cpu0", 1, 2_000)],
            rng_seed=7,
        )
        assert trace_from_obj(trace_to_obj(trace)) == trace

    def test_round_trip_empty(self):
        assert trace_from_obj(trace_to_obj(SubmissionTrace())) == SubmissionTrace()

    def test_file_round_trip_is_stable(self, tmp_path):
        trace = SubmissionTrace(jobs=[(0, spec())], rng_seed=3)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_trace(trace, p1)
        write_trace(read_trace(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_top_level_field(self):
        obj = trace_to_obj(SubmissionTrace())
        obj["comment"] = "hi"
        with pytest.raises(MalformedTrace):
            trace_from_obj(obj)

    def test_job_entry_shape_is_strict(self):
        with pytest.raises(MalformedTrace):
            trace_from_obj({"jobs": [{"t_ms": 0}]})
        obj = trace_to_obj(SubmissionTrace(jobs=[(0, spec())]))
        obj["jobs"][0]["extra"] = 1
        with pytest.raises(MalformedTrace):
            trace_from_obj(obj)

    def test_bad_inner_spec_reported_as_trace_error(self):
        obj = trace_to_obj(SubmissionTrace(jobs=[(0, spec())]))
        obj["jobs"][0]["spec"]["work_units"] = "lots"
        with pytest.raises(MalformedTrace):
            trace_from_obj(obj)

    def test_fault_directive_keys_are_strict(self):
        obj = trace_to_obj(SubmissionTrace(
            faults=[FaultDirective(0, "cpu0", 0, 100)]))
        obj["faults"][0]["severity"] = "high"
        with pytest.raises(MalformedTrace):
            trace_from_obj(obj)

    def test_not_json(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text("{nope")
        with pytest.raises(MalformedTrace):
            read_trace(p)

    def test_not_an_object(self):
        with pytest.raises(MalformedTrace):
            trace_from_obj([1, 2])

    @pytest.mark.parametrize("field, value, message", [
        ("jobs", 5, "trace jobs must be a list"),
        ("jobs", None, "trace jobs must be a list"),
        ("jobs", {"t_ms": 0}, "trace jobs must be a list"),
        ("faults", "none", "trace faults must be a list"),
        ("rng_seed", "7", "trace rng_seed must be an integer"),
        ("rng_seed", True, "trace rng_seed must be an integer"),
        ("rng_seed", 1.5, "trace rng_seed must be an integer"),
    ])
    def test_top_level_field_types(self, field, value, message):
        obj = trace_to_obj(SubmissionTrace(jobs=[(0, spec())]))
        obj[field] = value
        with pytest.raises(MalformedTrace, match=message):
            trace_from_obj(obj)


def entry(t_ms=0, name="e", kinds=("cpu",)):
    """A job entry whose spec decodes."""
    obj = job_spec_to_obj(spec(name))
    obj["kind_preferences"] = list(kinds)
    return {"t_ms": t_ms, "spec": obj}


def one_job(**changes):
    """A one-job trace document whose job's spec has the given fields replaced."""
    document = trace_to_obj(SubmissionTrace(jobs=[(0, spec())]))
    document["jobs"][0]["spec"].update(changes)
    return document


# read_trace decodes the spec of every {t_ms, spec} object as the parser
# closes it. Wherever else such an object stands, the trace must still get
# the first error the reference decoder gives on the parsed document.
MISPLACED_ENTRIES = {
    "as_the_document": entry(),
    "as_rng_seed": {"rng_seed": entry()},
    "as_jobs": {"jobs": entry()},
    "in_faults": {"faults": [entry()]},
    "as_a_rigid_shape_body": one_job(shape={"rigid": entry()}),
    "as_an_elastic_shape_body": one_job(shape={"elastic": entry()}),
    "as_the_shape": one_job(shape=entry()),
    "as_another_entrys_spec": {"jobs": [{"t_ms": 0, "spec": entry()}]},
    "as_a_name": one_job(name=entry()),
    "in_kind_preferences": one_job(kind_preferences=["cpu", entry()]),
    "in_dataset_refs": one_job(dataset_refs=[entry()]),
    "as_work_units": one_job(work_units=entry()),
    "beside_a_bad_t_ms": {"jobs": [entry(), {"t_ms": "soon", "spec": entry()["spec"]}]},
    "before_an_unknown_kind": {"jobs": [entry(), entry(kinds=("tpu",)), {"t_ms": 0}]},
    "with_a_bad_spec_and_t_ms": {"jobs": [{"t_ms": "soon", "spec": {"name": "n"}}]},
    "well_formed": {"jobs": [entry(5, "b"), entry(0, "a")], "rng_seed": 3},
}


class TestReadTraceDecodesEachEntryAsItCloses:
    @pytest.mark.parametrize("document", MISPLACED_ENTRIES.values(), ids=MISPLACED_ENTRIES)
    def test_against_the_reference_decoder(self, tmp_path, document):
        data = json.dumps(document)
        path = tmp_path / "trace.json"
        path.write_text(data)
        expected = outcome(oracles.reference_trace_from_obj, json.loads(data))
        assert outcome(read_trace, path) == expected

    def test_nesting_near_the_recursion_limit(self, tmp_path):
        # the object hook's frames can pass the limit where a parse without
        # it does not; such a file must still reach trace_from_obj
        def read_without_the_hook(path):
            return trace_from_obj(read_json(path, MalformedTrace))

        def write(depth, inner="{}"):
            path.write_text('{"rng_seed": ' + "[" * depth + inner + "]" * depth + "}")

        def too_deep():
            return outcome(read_without_the_hook, path)[1].startswith("not valid JSON")

        path = tmp_path / "trace.json"
        shallow, deep = 1, 100_000      # the least nesting too deep to parse lies between
        while deep - shallow > 1:
            middle = (shallow + deep) // 2
            write(middle)
            shallow, deep = (shallow, middle) if too_deep() else (middle, deep)
        messages = set()
        for depth in range(deep - 50, deep + 5):
            for inner in ("{}", json.dumps(entry())):
                write(depth, inner)
                got = outcome(read_trace, path)
                assert got == outcome(read_without_the_hook, path), depth
                messages.add(got[1].split(":")[0])
        assert messages == {"trace rng_seed must be an integer", "not valid JSON"}


class TestOrdering:
    def test_jobs_sorted_by_time(self):
        trace = SubmissionTrace(jobs=[(900, spec("late")), (10, spec("early"))])
        assert [s.name for _t, s in trace.jobs] == ["early", "late"]

    def test_same_instant_keeps_input_order(self):
        trace = SubmissionTrace(jobs=[(5, spec("first")), (5, spec("second")),
                                      (0, spec("zero"))])
        assert [s.name for _t, s in trace.jobs] == ["zero", "first", "second"]

    def test_faults_sorted(self):
        trace = SubmissionTrace(faults=[FaultDirective(300, "a", 0, 10),
                                        FaultDirective(100, "b", 0, 10)])
        assert [f.t_ms for f in trace.faults] == [100, 300]

    def test_negative_times_rejected(self):
        with pytest.raises(MalformedTrace):
            SubmissionTrace(jobs=[(-1, spec())])
        with pytest.raises(MalformedTrace):
            SubmissionTrace(faults=[FaultDirective(-5, "a", 0, 10)])
        with pytest.raises(MalformedTrace):
            SubmissionTrace(faults=[FaultDirective(0, "a", 0, 0)])


class TestGenerators:
    def test_clusters_deterministic(self):
        assert random_clusters(11) == random_clusters(11)

    def test_cluster_ids_unique_and_bounded(self):
        for seed in range(30):
            specs = random_clusters(seed)
            ids = [c.cluster_id for c in specs]
            assert len(ids) == len(set(ids))
            assert 1 <= len(specs) <= 4
            for c in specs:
                assert 2 <= c.node_count <= 8
                assert 1 <= c.speed_factor <= 4

    def test_trace_deterministic(self):
        clusters = random_clusters(2)
        a = random_trace(9, clusters, 30)
        b = random_trace(9, clusters, 30)
        assert trace_to_obj(a) == trace_to_obj(b)

    def test_every_job_is_satisfiable(self):
        rng = random.Random(0)
        for _ in range(20):
            seed = rng.randint(0, 10_000)
            clusters = random_clusters(seed)
            cap = {}
            for c in clusters:
                cap[c.kind] = max(cap.get(c.kind, 0), c.node_count)
            trace = random_trace(seed, clusters, 40, elastic_fraction=0.4)
            for _t, s in trace.jobs:
                if isinstance(s.shape, Elastic):
                    assert s.kind_preferences == (ResourceKind.CLOUD,)
                    assert s.shape.min_workers <= cap[ResourceKind.CLOUD]
                else:
                    for kind in s.kind_preferences:
                        assert cap[kind] >= s.shape.node_count

    def test_rigid_only_flag(self):
        clusters = random_clusters(5)
        trace = random_trace(5, clusters, 50, rigid_only=True, elastic_fraction=1.0)
        assert all(isinstance(s.shape, Rigid) for _t, s in trace.jobs)

    def test_no_elastic_without_a_cloud_cluster(self):
        clusters = [c for c in random_clusters(3) if c.kind is not ResourceKind.CLOUD]
        if not clusters:
            pytest.skip("seed produced cloud-only topology")
        trace = random_trace(3, clusters, 40, elastic_fraction=1.0)
        assert all(isinstance(s.shape, Rigid) for _t, s in trace.jobs)

    def test_tight_walltime_equals_slowest_duration(self):
        clusters = random_clusters(8)
        by_kind = {}
        for c in clusters:
            by_kind.setdefault(c.kind, []).append(c)
        trace = random_trace(8, clusters, 40, rigid_only=True, tight_walltime=True)
        for _t, s in trace.jobs:
            slow = min(c.speed_factor for k in s.kind_preferences for c in by_kind[k])
            assert s.walltime_limit_ms == job_duration_ms(
                s.work_units, slow, s.shape.node_count)

    def test_fault_targets_exist(self):
        clusters = random_clusters(4)
        index = {c.cluster_id: c for c in clusters}
        trace = random_trace(4, clusters, 10, n_faults=25)
        assert len(trace.faults) == 25
        for f in trace.faults:
            assert f.cluster_id in index
            assert 0 <= f.node_index < index[f.cluster_id].node_count
            assert f.down_duration_ms >= 100

    def test_arrivals_within_span(self):
        clusters = random_clusters(6)
        trace = random_trace(6, clusters, 60, arrival_span_ms=5_000)
        assert all(0 <= t <= 5_000 for t, _s in trace.jobs)
        assert all(s.priority in (0, 1, 2) for _t, s in trace.jobs)

    def test_trace_json_has_no_floats(self):
        clusters = random_clusters(12)
        trace = random_trace(12, clusters, 30, n_faults=3)
        text = json.dumps(trace_to_obj(trace))
        assert "." not in text
