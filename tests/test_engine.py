import copy
import dataclasses
import gc
import hashlib
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import log_events
from hybridsched import engine, model
from hybridsched import scheduler as scheduler_mod
from hybridsched.catalog import DatasetCatalog, MissingDataset
from hybridsched.cloud import CloudLayer, Quota
from hybridsched.engine import (
    TERMINAL_EVENT_KINDS,
    AlreadyTerminal,
    EventLog,
    NonTerminating,
    PastTime,
    SimConfig,
    SimEvent,
    SimEventKind,
    Simulation,
    UnknownJob,
    UnknownNode,
    canonical_line,
    payload_get,
    run_trace,
)
from hybridsched.metrics import utilization
from hybridsched.model import (
    BadShape,
    ClusterSpec,
    DuplicateCluster,
    Elastic,
    JobSpec,
    JobState,
    LifecycleEvent,
    ResourceKind,
    Rigid,
    UnknownKind,
    ValidationError,
)
from hybridsched.traces import (
    FaultDirective,
    SubmissionTrace,
    random_clusters,
    random_trace,
    read_trace,
    trace_to_obj,
)

CPU = ResourceKind.CPU
GPU = ResourceKind.GPU
CLOUD = ResourceKind.CLOUD


def cluster(cid, kind, nodes, speed=1):
    return ClusterSpec(cluster_id=cid, kind=kind, node_count=nodes,
                       cores_per_node=8, speed_factor=speed)


def rigid(name, nodes, work, wall, prefs=(CPU,), priority=0, refs=()):
    return JobSpec(name=name, user_id="u", kind_preferences=tuple(prefs),
                   shape=Rigid(node_count=nodes), work_units=work,
                   walltime_limit_ms=wall, dataset_refs=tuple(refs),
                   priority=priority)


def elastic(name, lo, hi, work, wall):
    return JobSpec(name=name, user_id="u", kind_preferences=(CLOUD,),
                   shape=Elastic(min_workers=lo, max_workers=hi),
                   work_units=work, walltime_limit_ms=wall)


def kinds_of(log):
    return [e["kind"] for e in log_events(log)]


def events_of(log, kind):
    return [e for e in log_events(log) if e["kind"] == kind.value]


class TestBasics:
    def test_empty_trace(self):
        log, records = run_trace(SubmissionTrace(), [cluster("cpu0", CPU, 2)])
        assert len(log) == 0
        assert records == {}

    def test_single_job_timeline(self):
        # 100 units on 2 nodes at speed 10: exactly 5000 ms
        sim = Simulation([cluster("gpu0", GPU, 4, speed=10)])
        sim.schedule_arrival(0, rigid("j", 2, 100, 60_000, prefs=(GPU,)))
        sim.run_to_quiescence()
        started = events_of(sim.log, SimEventKind.JOB_STARTED)[0]
        finished = events_of(sim.log, SimEventKind.JOB_FINISHED)[0]
        assert started["t"] == 0
        assert started["node_indices"] == [0, 1]
        assert finished["t"] == 5000
        rec = sim.records["j000000"]
        assert rec.state is JobState.COMPLETED
        assert (rec.start_ms, rec.end_ms) == (0, 5000)

    def test_ids_are_stable(self):
        sim = Simulation([cluster("cpu0", CPU, 2)])
        a = sim.submit_now(rigid("a", 1, 1, 1000))
        b = sim.submit_now(rigid("b", 1, 1, 1000))
        assert (a, b) == ("j000000", "j000001")

    def test_invalid_spec_burns_no_id(self):
        sim = Simulation([cluster("cpu0", CPU, 2)])
        with pytest.raises(ValidationError):
            sim.submit_now(rigid("bad", 1, 0, 1000))
        assert sim.submit_now(rigid("ok", 1, 1, 1000)) == "j000000"

    def test_unsatisfiable_job_fails_at_arrival(self):
        sim = Simulation([cluster("cpu0", CPU, 2)])
        sim.schedule_arrival(0, rigid("big", 5, 1, 1000))
        sim.run_to_quiescence()
        assert kinds_of(sim.log) == ["JobSubmitted", "JobFailed"]
        assert sim.records["j000000"].state is JobState.FAILED

    def test_duplicate_cluster_rejected(self):
        with pytest.raises(DuplicateCluster):
            Simulation([cluster("c", CPU, 1), cluster("c", CPU, 2)])

    def test_cluster_above_the_node_bound_rejected(self):
        # refused before any per-node state is built
        with pytest.raises(ValidationError, match="node_count 65537 is above the limit"):
            Simulation([cluster("c", CPU, 1), cluster("big", CPU, 65_537)])

    def test_arrival_in_the_past_rejected(self):
        sim = Simulation([cluster("cpu0", CPU, 1)])
        sim.advance_to(100)
        with pytest.raises(PastTime):
            sim.schedule_arrival(50, rigid("late", 1, 1, 1000))

    def test_unknown_fault_target_rejected(self):
        sim = Simulation([cluster("cpu0", CPU, 2)])
        with pytest.raises(UnknownNode):
            sim.inject_node_failure("cpu0", 7, 10, 100)
        with pytest.raises(UnknownNode):
            sim.inject_node_failure("nope", 0, 10, 100)


class TestTheDoor:
    """schedule_arrival and submit_now check a job at the call, before an id is consumed."""

    @staticmethod
    def catalog_sim():
        catalog = DatasetCatalog()
        catalog.register_datasets([{"name": "survey", "size_bytes": 10}])
        return Simulation([cluster("cpu0", CPU, 2)], catalog=catalog)

    def test_submit_now_rejects_an_unknown_ref(self):
        sim = self.catalog_sim()
        with pytest.raises(MissingDataset):
            sim.submit_now(rigid("ghost", 1, 1, 1000, refs=("survey", "ghost")))
        assert sim.scheduler.clusters["cpu0"].owner == {}
        assert sim.records == {} and len(sim.log) == 0
        # the whole site is still free: a 2-node job starts and finishes
        assert sim.submit_now(rigid("both", 2, 1, 1000, refs=("survey",))) == "j000000"
        sim.run_to_quiescence()
        assert sim.records["j000000"].state is JobState.COMPLETED

    @pytest.mark.parametrize("spec, error", [
        (rigid("gpu", 1, 1, 1000, prefs=(GPU,)), UnknownKind),
        (elastic("inverted", 4, 2, 1, 1000), BadShape),
        (rigid("ghost", 1, 1, 1000, refs=("ghost",)), MissingDataset),
    ])
    def test_schedule_arrival_rejects_at_the_call(self, spec, error):
        catalog = DatasetCatalog()
        sim = Simulation([cluster("cpu0", CPU, 2), cluster("cloud0", CLOUD, 2)],
                         catalog=catalog)
        sim.advance_to(3)
        with pytest.raises(error):
            sim.schedule_arrival(5, spec)
        assert sim.clock == 3 and sim._pending == []
        assert sim.records == {} and len(sim.log) == 0
        assert sim.schedule_arrival(5, rigid("ok", 1, 1, 1000)) == "j000000"

    def test_run_trace_checks_each_job_once(self, monkeypatch):
        clusters = random_clusters(4)
        trace = random_trace(4, clusters, n_jobs=30, n_faults=2)
        seen = []
        check = engine.validate_job

        def counting(spec, known):
            seen.append(spec)
            return check(spec, known)

        monkeypatch.setattr(engine, "validate_job", counting)
        run_trace(trace, clusters)
        assert seen == [spec for _t, spec in trace.jobs]

    def test_run_trace_raises_the_first_bad_job_before_any_fault(self):
        trace = SubmissionTrace(
            jobs=[(0, rigid("ok", 1, 1, 1000)),
                  (10, rigid("gpu", 1, 1, 1000, prefs=(GPU,))),
                  (20, rigid("zero", 1, 0, 1000))],
            faults=[FaultDirective(0, "cpu9", 0, 100)],
        )
        with pytest.raises(UnknownKind):
            run_trace(trace, [cluster("cpu0", CPU, 1)])


class TestWalltime:
    def test_kill_fires_at_exact_limit(self):
        sim = Simulation([cluster("cpu0", CPU, 1)])
        sim.schedule_arrival(0, rigid("slow", 1, 10, 5_000))   # needs 10000 ms
        sim.run_to_quiescence()
        out = events_of(sim.log, SimEventKind.JOB_TIMED_OUT)[0]
        assert out["t"] == 5_000
        assert sim.records["j000000"].state is JobState.TIMED_OUT

    def test_finish_wins_the_tie(self):
        # duration == walltime: completion, not a kill
        sim = Simulation([cluster("cpu0", CPU, 1)])
        sim.schedule_arrival(0, rigid("edge", 1, 5, 5_000))
        sim.run_to_quiescence()
        assert sim.records["j000000"].state is JobState.COMPLETED
        assert sim.records["j000000"].end_ms == 5_000

    def test_credited_work_stops_at_kill(self):
        sim = Simulation([cluster("cpu0", CPU, 1)])
        sim.schedule_arrival(0, rigid("slow", 1, 10, 4_000))
        sim.run_to_quiescence()
        assert sim.records["j000000"].credited_milli == 4_000   # 1 unit/ms x 4000


class TestFailures:
    def _scenario(self, budget):
        config = SimConfig(retry_budget=budget)
        sim = Simulation([cluster("cpu0", CPU, 3)], config=config)
        sim.schedule_arrival(0, rigid("j", 2, 12, 10_000))       # 6000 ms on 2 nodes
        sim.inject_node_failure("cpu0", 0, 2_000, 1_000)
        sim.run_to_quiescence()
        return sim

    def test_retry_budget_one_restarts_and_finishes_once(self):
        sim = self._scenario(budget=1)
        finishes = events_of(sim.log, SimEventKind.JOB_FINISHED)
        assert len(finishes) == 1
        assert finishes[0]["t"] == 8_000        # restarted from zero at t=2000
        starts = events_of(sim.log, SimEventKind.JOB_STARTED)
        assert [s["t"] for s in starts] == [0, 2_000]
        assert starts[1]["node_indices"] == [1, 2]
        assert sim.records["j000000"].state is JobState.COMPLETED

    def test_retry_budget_zero_fails_at_fault(self):
        sim = self._scenario(budget=0)
        assert events_of(sim.log, SimEventKind.JOB_FINISHED) == []
        failed = events_of(sim.log, SimEventKind.JOB_FAILED)[0]
        assert failed["t"] == 2_000
        assert sim.records["j000000"].state is JobState.FAILED

    def test_idle_node_failure_hurts_nobody(self):
        sim = Simulation([cluster("cpu0", CPU, 2)])
        sim.schedule_arrival(0, rigid("j", 1, 2, 10_000))
        sim.inject_node_failure("cpu0", 1, 500, 200)   # node 1 is idle
        sim.run_to_quiescence()
        assert sim.records["j000000"].state is JobState.COMPLETED
        assert sim.records["j000000"].end_ms == 2_000

    def test_requeued_job_keeps_its_place(self):
        sim = Simulation([cluster("cpu0", CPU, 1)])
        sim.schedule_arrival(0, rigid("a", 1, 10, 20_000))
        sim.schedule_arrival(0, rigid("b", 1, 1, 20_000))
        sim.inject_node_failure("cpu0", 0, 2_000, 100)
        sim.run_to_quiescence()
        starts = events_of(sim.log, SimEventKind.JOB_STARTED)
        # a restarts ahead of b once the node returns
        assert [(s["t"], s["job_id"]) for s in starts[:2]] == [
            (0, "j000000"), (2_100, "j000000")]

    def test_walltime_budget_resets_per_attempt(self):
        # 6000 ms of work, 7000 ms walltime: the fault at t=2000 would
        # blow the budget if the clock carried over, but each attempt
        # gets the full allowance
        sim = Simulation([cluster("cpu0", CPU, 1)])
        sim.schedule_arrival(0, rigid("j", 1, 6, 7_000))
        sim.inject_node_failure("cpu0", 0, 2_000, 500)
        sim.run_to_quiescence()
        rec = sim.records["j000000"]
        assert rec.state is JobState.COMPLETED
        assert rec.end_ms == 2_500 + 6_000


@pytest.mark.extra_seeds
class TestOverlappingFaults:
    def test_inner_fault_neither_ends_nor_restarts_the_outage(self):
        # node 0 is down 100..1100 and, inside that, 200..300: one outage,
        # so the probe arriving at 400 waits for the node until 1100
        spec = cluster("cpu0", CPU, 1)
        sim = Simulation([spec])
        sim.inject_node_failure("cpu0", 0, 100, 1_000)
        sim.inject_node_failure("cpu0", 0, 200, 100)
        sim.schedule_arrival(400, rigid("probe", 1, 1, 5_000))   # 1000 ms of work
        sim.run_to_quiescence()
        assert [(e["t"], e["kind"]) for e in log_events(sim.log)] == [
            (100, "NodeDown"), (400, "JobSubmitted"), (400, "JobQueued"),
            (1_100, "NodeUp"), (1_100, "JobStarted"), (2_100, "JobFinished")]
        assert events_of(sim.log, SimEventKind.JOB_STARTED)[0]["node_indices"] == [0]
        window = (0, 2_100)
        report = utilization(sim.log, [spec], window)
        busy, avail = oracles.scan_utilization(log_events(sim.log), [("cpu0", 1)], window)
        assert report.per_cluster[0].available_node_ms == avail["cpu0"] == 2_100 - 1_000
        assert report.per_cluster[0].busy_node_ms == busy["cpu0"] == 1_000

    def test_probe_goes_to_the_node_that_is_up(self):
        sim = Simulation([cluster("cpu0", CPU, 2)])
        sim.inject_node_failure("cpu0", 0, 100, 1_000)
        sim.inject_node_failure("cpu0", 0, 200, 100)
        sim.schedule_arrival(400, rigid("probe", 1, 1, 5_000))
        sim.run_to_quiescence()
        started = events_of(sim.log, SimEventKind.JOB_STARTED)[0]
        assert (started["t"], started["node_indices"]) == (400, [1])

    def test_back_to_back_windows_form_one_outage(self):
        # node 0 is down 100..200 and 200..300: one outage 100..300, so the
        # job arriving at 150 starts at 300, not at 200 only to be evicted
        # (and, with no retries, failed) in the same millisecond
        spec = cluster("cpu0", CPU, 1)
        sim = Simulation([spec], config=SimConfig(retry_budget=0))
        sim.inject_node_failure("cpu0", 0, 100, 100)
        sim.inject_node_failure("cpu0", 0, 200, 100)
        sim.schedule_arrival(150, rigid("probe", 1, 1, 5_000))   # 1000 ms of work
        sim.run_to_quiescence()
        assert [(e["t"], e["kind"]) for e in log_events(sim.log)] == [
            (100, "NodeDown"), (150, "JobSubmitted"), (150, "JobQueued"),
            (300, "NodeUp"), (300, "JobStarted"), (1_300, "JobFinished")]
        assert sim.records["j000000"].state is JobState.COMPLETED
        window = (0, 1_300)
        report = utilization(sim.log, [spec], window)
        _busy, avail = oracles.scan_utilization(log_events(sim.log), [("cpu0", 1)], window)
        assert report.per_cluster[0].available_node_ms == avail["cpu0"] == 1_300 - 200

    def test_no_start_on_a_node_whose_fault_starts_in_the_same_millisecond(self):
        # at 100 node 0 fails under the running job, and node 1 fails too,
        # its fault injected later: the requeued job must not start on
        # node 1 between the two NodeDowns, only to lose it (and, with one
        # retry, fail); it waits for node 0 to come back at 200
        sim = Simulation([cluster("cpu0", CPU, 2)], config=SimConfig(retry_budget=1))
        sim.schedule_arrival(0, rigid("j", 1, 1, 5_000))          # 1000 ms of work
        sim.inject_node_failure("cpu0", 0, 100, 100)
        sim.inject_node_failure("cpu0", 1, 100, 500)
        sim.run_to_quiescence()
        assert [(e["t"], e["kind"]) for e in log_events(sim.log)] == [
            (0, "JobSubmitted"), (0, "JobQueued"), (0, "JobStarted"),
            (100, "NodeDown"), (100, "JobQueued"), (100, "NodeDown"),
            (200, "NodeUp"), (200, "JobStarted"), (600, "NodeUp"), (1_200, "JobFinished")]
        assert [e["node_index"] for e in events_of(sim.log, SimEventKind.NODE_DOWN)] == [0, 1]
        assert [e["node_indices"] for e in events_of(sim.log, SimEventKind.JOB_STARTED)] == [
            [0], [0]]
        assert sim.records["j000000"].state is JobState.COMPLETED

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 60), st.integers(1, 40),
                              st.booleans()),
                    max_size=8),
           st.lists(st.tuples(st.integers(0, 60), st.integers(1, 3), st.integers(1, 40)),
                    max_size=4))
    def test_down_set_is_the_union_of_fault_windows(self, drawn, jobs):
        # a fault drawn with `touch` starts on the previous fault's node at
        # the millisecond that fault ends
        faults = []
        for node, t_ms, down_ms, touch in drawn:
            if touch and faults:
                node, t_ms = faults[-1][0], faults[-1][1] + faults[-1][2]
            faults.append((node, t_ms, down_ms))
        spec = cluster("cpu0", CPU, 3)
        sim = Simulation([spec], config=SimConfig(retry_budget=2))
        for node, t_ms, down_ms in faults:
            sim.inject_node_failure("cpu0", node, t_ms, down_ms)
        for t_ms, nodes, work in jobs:
            sim.schedule_arrival(t_ms, rigid("j", nodes, work, 100_000))
        cs = sim.clusters()["cpu0"]
        end = max([t + d for _n, t, d in faults], default=0) + 1
        for now in range(0, end + 1):
            sim.advance_to(now)
            assert cs.down == {n for n, t, d in faults if t <= now < t + d}, now
            assert not cs.down & cs.owner.keys(), now
        # no start or rescale puts a job on a node inside an injected window,
        # not even for the instant between two events of one millisecond
        events = log_events(sim.log)
        for event in events:
            if event["kind"] in ("JobStarted", "RescaleApplied"):
                for n, t, d in faults:
                    assert not (n in event["node_indices"] and t <= event["t"] < t + d), \
                        (event, (n, t, d))
        # the log's down spans cover exactly the union of the windows
        spans = oracles.down_spans_from_log(events, end)
        for node in range(3):
            logged = {ms for a, b in spans.get(("cpu0", node), ()) for ms in range(a, b)}
            assert logged == {ms for n, t, d in faults if n == node for ms in range(t, t + d)}


class TestCancellation:
    def test_cancel_running_frees_and_invalidates_timer(self):
        sim = Simulation([cluster("cpu0", CPU, 1)])
        sim.submit_now(rigid("a", 1, 10, 30_000))
        sim.submit_now(rigid("b", 1, 2, 30_000))
        sim.advance_to(500)
        sim.cancel_now("j000000")
        sim.run_to_quiescence()
        cancelled = events_of(sim.log, SimEventKind.JOB_CANCELLED)[0]
        assert cancelled["t"] == 500
        # b takes over immediately and is the only finisher
        finishes = events_of(sim.log, SimEventKind.JOB_FINISHED)
        assert [(f["t"], f["job_id"]) for f in finishes] == [(2_500, "j000001")]

    def test_cancel_queued(self):
        sim = Simulation([cluster("cpu0", CPU, 1)])
        sim.submit_now(rigid("a", 1, 10, 30_000))
        sim.submit_now(rigid("b", 1, 1, 30_000))
        assert oracles.queue_order(sim.scheduler) == ["j000001"]
        assert sim.cancel_now("j000001") is JobState.CANCELLED
        assert sim.records["j000001"].state is JobState.CANCELLED
        assert oracles.queue_order(sim.scheduler) == []
        sim.run_to_quiescence()
        assert sim.records["j000000"].state is JobState.COMPLETED

    def test_cancel_of_an_unknown_job_raises(self):
        sim = Simulation([cluster("cpu0", CPU, 1)])
        later = sim.schedule_arrival(1_000, rigid("a", 1, 1, 30_000))
        for job_id in ("ghost", later):     # an arrival still pending has no record yet
            with pytest.raises(UnknownJob):
                sim.cancel_now(job_id)
        assert len(sim.log) == 0

    def test_a_second_cancel_raises_already_terminal(self):
        sim = Simulation([cluster("cpu0", CPU, 1)])
        sim.submit_now(rigid("a", 1, 10, 30_000))
        sim.cancel_now("j000000")
        rows = len(sim.log)
        with pytest.raises(AlreadyTerminal) as raised:
            sim.cancel_now("j000000")
        assert raised.value.state is JobState.CANCELLED
        assert len(sim.log) == rows

    def test_cancel_of_a_running_job_frees_its_nodes_and_keeps_its_work(self):
        sim = Simulation([cluster("cpu0", CPU, 3, speed=2)])
        sim.submit_now(rigid("a", 2, 10, 30_000))
        sim.advance_to(700)
        cs = sim.clusters()["cpu0"]
        assert cs.owner == {0: "j000000", 1: "j000000"}
        sim.cancel_now("j000000")
        rec = sim.records["j000000"]
        assert cs.owner == {} and cs.free_nodes() == [0, 1, 2]
        # the last placement stays on the record: the result manifest reads it
        assert (rec.cluster_id, rec.node_indices, rec.start_ms) == ("cpu0", (0, 1), 0)
        assert (rec.state, rec.end_ms) == (JobState.CANCELLED, 700)
        assert rec.credited_milli == 2 * 2 * 700    # speed x nodes x ms up to the cancel
        with pytest.raises(scheduler_mod.NoAllocation):
            sim.scheduler.release("j000000")

    def test_cancel_of_a_requeued_job_removes_only_its_entry(self):
        # b loses its node at t=100 and goes back to its old place, ahead
        # of c and d; cancelling it takes out its entry and no other
        sim = Simulation([cluster("cpu0", CPU, 2)])
        for name in "abcd":
            sim.submit_now(rigid(name, 1, 10, 30_000))
        sim.inject_node_failure("cpu0", 1, 100, 50_000)
        sim.advance_to(100)
        assert oracles.queue_order(sim.scheduler) == ["j000001", "j000002", "j000003"]
        assert sim.records["j000001"].state is JobState.QUEUED
        sim.cancel_now("j000001")
        assert oracles.queue_order(sim.scheduler) == ["j000002", "j000003"]
        rec = sim.records["j000001"]
        assert (rec.state, rec.end_ms, rec.credited_milli) == (JobState.CANCELLED, 100, 0)
        assert events_of(sim.log, SimEventKind.JOB_CANCELLED) == [
            {"t": 100, "seq": len(sim.log) - 1, "kind": "JobCancelled", "job_id": "j000001"}]


# Each job state is the one its last Job* event names.
STATE_OF_EVENT = {
    SimEventKind.JOB_SUBMITTED: JobState.SUBMITTED,
    SimEventKind.JOB_QUEUED: JobState.QUEUED,
    SimEventKind.JOB_STARTED: JobState.RUNNING,
    SimEventKind.JOB_FINISHED: JobState.COMPLETED,
    SimEventKind.JOB_FAILED: JobState.FAILED,
    SimEventKind.JOB_TIMED_OUT: JobState.TIMED_OUT,
    SimEventKind.JOB_CANCELLED: JobState.CANCELLED,
}


class TestLifecycleRows:
    """Every row of the lifecycle table is a move some run makes, and the
    table is the only way a job's state changes."""

    @pytest.fixture
    def taken(self, monkeypatch):
        moves = set()

        def spy(state, event, *, retries_left=1):
            nxt = model.transition(state, event, retries_left=retries_left)
            moves.add((state, event, nxt))
            return nxt
        monkeypatch.setattr(engine, "transition", spy)
        monkeypatch.setattr(scheduler_mod, "transition", spy)
        return moves

    def runs(self):
        """(log, records) of seeded traces with faults, hybrid off and on, and of
        one run that cancels a queued and a running job."""
        for seed in range(1, 13):
            clusters = random_clusters(seed)
            trace = random_trace(seed, clusters, 150, n_faults=6)
            for hybrid in (False, True):
                yield run_trace(trace, clusters, SimConfig(hybrid_rigid_on_cloud=hybrid))
        sim = Simulation([cluster("cpu0", CPU, 1)])
        sim.submit_now(rigid("a", 1, 10, 30_000))
        sim.submit_now(rigid("b", 1, 1, 30_000))
        sim.advance_to(500)
        sim.cancel_now("j000001")
        sim.cancel_now("j000000")
        sim.run_to_quiescence()
        yield sim.log, sim.records

    def test_each_state_is_named_by_one_job_event_kind(self):
        assert sorted(STATE_OF_EVENT.values()) == sorted(JobState)
        assert sorted(s.value for s in JobState) == sorted(oracles.STATES)

    def test_no_row_is_dead(self, taken):
        for _ in self.runs():
            pass
        rows = {(state, event) for state, event, _ in taken}
        assert rows - {(JobState.RUNNING, LifecycleEvent.NODE_LOST)} == set(model._TRANSITIONS)
        node_lost = {nxt for state, event, nxt in taken if event is LifecycleEvent.NODE_LOST}
        assert node_lost == {JobState.QUEUED, JobState.FAILED}

    def test_job_events_walk_the_table_to_the_final_state(self, taken):
        for log, records in self.runs():
            moves = {(state, nxt) for state, _, nxt in taken}
            seen = {}
            for e in log_events(log):
                kind = SimEventKind(e["kind"])
                if kind in STATE_OF_EVENT:
                    seen.setdefault(e["job_id"], []).append(STATE_OF_EVENT[kind])
            assert seen.keys() == records.keys()
            for job_id, states in seen.items():
                assert states[0] is JobState.SUBMITTED
                for before, after in zip(states, states[1:]):
                    assert (before, after) in moves, (job_id, states)
                assert states[-1] is records[job_id].state


class TestStepping:
    def test_step_is_equivalent_to_one_shot(self):
        clusters = random_clusters(11)
        trace = random_trace(11, clusters, n_jobs=60, n_faults=2)
        log_a, _ = run_trace(trace, clusters)

        sim = Simulation(clusters)
        for t, spec in trace.jobs:
            sim.schedule_arrival(t, spec)
        for f in trace.faults:
            sim.inject_node_failure(f.cluster_id, f.node_index, f.t_ms, f.down_duration_ms)
        while sim._pending:
            sim.advance_to(sim.clock + 777)
        assert sim.live_jobs() == []
        assert sim.log.canonical_bytes() == log_a.canonical_bytes()

    def test_step_before_first_event_is_quiet(self):
        sim = Simulation([cluster("cpu0", CPU, 1)])
        sim.schedule_arrival(5_000, rigid("j", 1, 1, 1000))
        sim.advance_to(4_999)
        assert log_events(sim.log) == []
        assert sim.clock == 4_999

    def test_stale_step_is_a_noop(self):
        sim = Simulation([cluster("cpu0", CPU, 1)])
        sim.advance_to(100)
        mark = len(sim.log)
        sim.advance_to(50)
        assert log_events(sim.log)[mark:] == []
        assert sim.clock == 100


class TestNonTermination:
    def test_deadlock_detected_when_events_run_dry(self):
        sim = Simulation([cluster("cpu0", CPU, 1)])
        sim.hold_nodes("cpu0", (0,))
        sim.schedule_arrival(0, rigid("stuck", 1, 1, 1000))
        with pytest.raises(NonTerminating):
            sim.run_to_quiescence()

    def test_horizon_guard(self):
        # 2*10**7 work units at speed 1 would finish at 2*10**10 ms, past HORIZON_MS
        sim = Simulation([cluster("cpu0", CPU, 1)])
        sim.schedule_arrival(0, rigid("long", 1, 2 * 10**7, 3 * 10**10))
        with pytest.raises(NonTerminating):
            sim.run_to_quiescence()

    def test_refused_step_keeps_the_pending_event(self):
        sim = Simulation([cluster("cpu0", CPU, 1)])
        sim.submit_now(rigid("long", 1, 2 * 10**7, 3 * 10**10))   # finishes at 2*10**10 ms
        pending = list(sim._pending)
        with pytest.raises(NonTerminating):
            sim.advance_to(3 * 10**10)
        assert sim._pending == pending

    def test_release_hold_unblocks(self):
        sim = Simulation([cluster("cpu0", CPU, 1)])
        sim.hold_nodes("cpu0", (0,))
        sim.submit_now(rigid("j", 1, 1, 5_000))
        sim.release_hold("cpu0", (0,))
        sim.run_to_quiescence()
        assert sim.records["j000000"].state is JobState.COMPLETED


class TestElasticRuns:
    def test_grows_to_fair_share_immediately(self):
        sim = Simulation([cluster("cloud0", CLOUD, 4)])
        sim.schedule_arrival(0, elastic("e", 1, 4, 8, 60_000))
        sim.run_to_quiescence()
        rec = sim.records["j000000"]
        assert oracles.worker_history(log_events(sim.log), "j000000") == [(0, 1), (0, 4)]
        # 8000 milli-units at 4 units/ms from t=0
        assert rec.end_ms == 2_000

    def test_shrinks_when_a_second_elastic_starts_beside_it(self):
        # 6 nodes, max 4: e1 grows to 4 and leaves two free, so e2 can
        # start at its minimum; the rebalance then takes e1 down to the
        # fair share of 3. (A newcomer that finds no free node just
        # waits: shares cover running jobs only.)
        sim = Simulation([cluster("cloud0", CLOUD, 6)])
        sim.schedule_arrival(0, elastic("e1", 1, 4, 40, 60_000))
        sim.schedule_arrival(1_000, elastic("e2", 1, 4, 40, 60_000))
        sim.run_to_quiescence()
        h1 = oracles.worker_history(log_events(sim.log), "j000000")
        assert (0, 4) in h1
        assert (1_000, 3) in h1       # shrank from 4 to its fair share
        for _t, w in h1:
            assert 1 <= w <= 4
        rescales = events_of(sim.log, SimEventKind.RESCALE_APPLIED)
        at_1000 = [(ev["job_id"], ev["workers"]) for ev in rescales if ev["t"] == 1_000]
        # shrinks are applied before grows within a pass
        assert at_1000 == [("j000000", 3), ("j000001", 3)]
        for ev in rescales:
            assert len(ev["node_indices"]) == ev["workers"]

    def test_credited_work_conserved(self):
        rng = random.Random(3)
        for trial in range(20):
            n = rng.randint(2, 8)
            speed = rng.randint(1, 3)
            sim = Simulation([cluster("cloud0", CLOUD, n, speed=speed)])
            jobs = rng.randint(1, 3)
            for i in range(jobs):
                lo = rng.randint(1, max(1, n // 2))
                sim.schedule_arrival(rng.randint(0, 2_000),
                                     elastic(f"e{i}", lo, rng.randint(lo, n),
                                             rng.randint(1, 30), 400_000))
            sim.run_to_quiescence()
            events = log_events(sim.log)
            for job_id, rec in sim.records.items():
                assert rec.state is JobState.COMPLETED, (trial, job_id)
                required = rec.spec.work_units * 1000
                final_rate = speed * oracles.worker_history(events, job_id)[-1][1]
                assert rec.credited_milli >= required
                # overshoot bounded by one ms of the final rate
                assert rec.credited_milli - required < final_rate

    def test_rigid_dispatch_never_steals_elastic_nodes(self):
        # rigid work on a separate cpu cluster; elastic on the cloud pool
        sim = Simulation([cluster("cloud0", CLOUD, 3), cluster("cpu0", CPU, 2)])
        sim.schedule_arrival(0, elastic("e", 1, 3, 30, 60_000))
        sim.schedule_arrival(100, rigid("r", 2, 4, 60_000))
        sim.run_to_quiescence()
        assert not sim.scheduler._holds_nodes(sim.records["j000001"])
        started = [e for e in events_of(sim.log, SimEventKind.JOB_STARTED)
                   if e["job_id"] == "j000001"]
        assert started[0]["cluster_id"] == "cpu0"


class TestStaging:
    def _sim(self, wall):
        catalog = DatasetCatalog(bandwidth_bytes_per_s={"cpu0": 1_000})
        catalog.register_datasets([{"name": "survey", "size_bytes": 1_500}])
        sim = Simulation([cluster("cpu0", CPU, 1)], catalog=catalog)
        sim.schedule_arrival(0, rigid("j", 1, 1, wall, refs=("survey",)))
        sim.run_to_quiescence()
        return sim

    def test_staging_delays_completion(self):
        sim = self._sim(wall=3_000)
        # 1500 ms staging + 1000 ms compute
        assert sim.records["j000000"].end_ms == 2_500
        assert sim.records["j000000"].state is JobState.COMPLETED

    def test_staging_consumes_walltime(self):
        sim = self._sim(wall=2_000)
        assert sim.records["j000000"].state is JobState.TIMED_OUT
        assert sim.records["j000000"].end_ms == 2_000

    def test_no_bandwidth_entry_means_free_staging(self):
        catalog = DatasetCatalog()
        catalog.register_datasets([{"name": "survey", "size_bytes": 10**12}])
        sim = Simulation([cluster("cpu0", CPU, 1)], catalog=catalog)
        sim.schedule_arrival(0, rigid("j", 1, 1, 2_000, refs=("survey",)))
        sim.run_to_quiescence()
        assert sim.records["j000000"].end_ms == 1_000


class TestDeterminismAndLog:
    def test_same_trace_same_bytes(self):
        clusters = random_clusters(21)
        trace = random_trace(21, clusters, n_jobs=80, n_faults=3)
        log_a, _ = run_trace(trace, clusters)
        log_b, _ = run_trace(trace, clusters)
        assert log_a.canonical_bytes() == log_b.canonical_bytes()

    def test_canonical_field_order(self):
        sim = Simulation([cluster("cpu0", CPU, 1)])
        sim.submit_now(rigid("j", 1, 1, 1000))
        line = sim.log.canonical_bytes().splitlines()[-1]
        assert line.startswith(b'{"t":0,"seq":')
        assert b'"kind":"JobStarted"' in line

    def test_log_write_read(self, tmp_path):
        clusters = random_clusters(6)
        trace = random_trace(6, clusters, n_jobs=25)
        log, _ = run_trace(trace, clusters)
        path = tmp_path / "events.jsonl"
        log.write(path)
        assert path.read_bytes() == log.canonical_bytes()

    def test_write_and_bytes_match_the_lines(self, tmp_path):
        clusters = random_clusters(9)
        log, _ = run_trace(random_trace(9, clusters, n_jobs=60, n_faults=2), clusters)
        # the benchmark builds the service_mix log bytes from canonical_lines
        text = "".join(line + "\n" for line in log.canonical_lines()).encode("utf-8")
        log.write(tmp_path / "events.jsonl")
        assert (tmp_path / "events.jsonl").read_bytes() == log.canonical_bytes() == text

    def test_canonical_bytes_peak_stays_under_twice_its_output(self):
        clusters = random_clusters(9)
        log, _ = run_trace(random_trace(9, clusters, 300, n_faults=6), clusters)
        tracemalloc.start()
        try:
            data = log.canonical_bytes()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(data), (peak, len(data))

    def test_read_trace_peak_stays_under_four_times_its_file(self, tmp_path):
        # each job's spec is decoded as the JSON parser closes its entry,
        # so the parsed tree of the whole trace is never held at once (a
        # tree parsed whole first peaks at about 8x the file), and the
        # file's bytes are decoded as soon as they are read, so they are
        # not held through the parse (holding them peaks at 4.2-4.5x);
        # this trace peaks at 3.2-3.5x on Python 3.10-3.13
        trace = random_trace(9, random_clusters(9), 2000, n_faults=20)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace_to_obj(trace), separators=(",", ":")))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            read = read_trace(path)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert read == trace
        assert peak <= 4 * size, (peak, size)

    def test_simulation_heap_per_event_of_an_elastic_run(self):
        # a finished job's record holds nothing the log has: an elastic
        # job's worker history is read from its JobStarted/RescaleApplied
        # rows. This run keeps 159-164 bytes per event on Python 3.10-3.13;
        # a list of (t_ms, workers) tuples per elastic job made it 200-206.
        # The untraced first run keeps the frames that Python 3.10 allocates
        # at each function's first call out of the figure, and the full
        # collection empties the free lists, so the traced run allocates
        # every object it keeps
        clusters = [cluster("cloud0", CLOUD, 8, speed=2), cluster("cloud1", CLOUD, 6),
                    cluster("cpu0", CPU, 4)]
        trace = random_trace(9, clusters, 300, arrival_span_ms=600_000, elastic_fraction=1.0,
                             n_faults=10)

        def run():
            sim = Simulation(clusters)
            for t_ms, spec in trace.jobs:
                sim.schedule_arrival(t_ms, spec)
            for f in trace.faults:
                sim.inject_node_failure(f.cluster_id, f.node_index, f.t_ms, f.down_duration_ms)
            sim.run_to_quiescence()
            return sim

        run()
        gc.collect()
        tracemalloc.start()
        try:
            sim = run()
            gc.collect()
            heap, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(events_of(sim.log, SimEventKind.RESCALE_APPLIED)) > 0
        assert heap <= 180 * len(sim.log), (heap, len(sim.log))

    def test_seq_strictly_increasing(self):
        clusters = random_clusters(9)
        trace = random_trace(9, clusters, n_jobs=50, n_faults=2)
        log, _ = run_trace(trace, clusters)
        events = log_events(log)
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        times = [e["t"] for e in events]
        assert times == sorted(times)


def _pinned_rigid_with_faults():
    clusters = [cluster("cpu0", CPU, 4), cluster("gpu0", GPU, 2, speed=3)]
    return run_trace(random_trace(4, clusters, n_jobs=40, n_faults=6, rigid_only=True),
                     clusters)[0]


def _pinned_cloud_elastic():
    clusters = [cluster("cloud0", CLOUD, 6, speed=2), cluster("cpu0", CPU, 3)]
    return run_trace(random_trace(8, clusters, n_jobs=40, elastic_fraction=0.6, n_faults=3),
                     clusters)[0]


class TestPinnedLogBytes:
    """The canonical bytes of two seeded runs, pinned: a change to the
    engine, the event form or the serializer must not move one byte."""

    @pytest.mark.parametrize("run, events, sha256", [
        (_pinned_rigid_with_faults, 176,
         "d00c6b0b962ac593ec2541579d3a680ea84b5c720d093388ec3c0debbeeb68be"),
        (_pinned_cloud_elastic, 168,
         "a5b4d514f693942c9721859359b766be36dd89d34dbd9e38900b928c78eeef1f"),
    ])
    def test_seeded_log_bytes(self, tmp_path, run, events, sha256):
        log = run()
        data = log.canonical_bytes()
        assert (len(log), hashlib.sha256(data).hexdigest()) == (events, sha256)
        path = tmp_path / "events.jsonl"
        log.write(path)
        assert path.read_bytes() == data

    def test_empty_log_writes_an_empty_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        EventLog().write(path)
        assert path.read_bytes() == EventLog().canonical_bytes() == b""


class TestReferenceCounting:
    def test_dropped_run_is_freed_without_the_collector(self):
        clusters = [cluster("cloud0", CLOUD, 6, speed=2), cluster("cpu0", CPU, 3)]
        trace = random_trace(8, clusters, n_jobs=40, elastic_fraction=0.6, n_faults=3)
        gc.collect()
        gc.disable()
        try:
            log, records = run_trace(trace, clusters)
            kinds = set(kinds_of(log))
            assert {"NodeDown", "RescaleApplied"} <= kinds
            del log, records
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCompactEvents:
    def test_events_have_no_instance_dict(self):
        event = _pinned_cloud_elastic().events[0]
        assert not hasattr(event, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.t_ms = 1

    def test_get_returns_every_key_and_none_for_a_missing_one(self):
        # payload_get is how the metrics replay reads a payload
        log = _pinned_cloud_elastic()
        for (_t_ms, _kind, payload), obj in zip(log.rows(), log_events(log)):
            for key in ("t", "seq", "kind"):
                del obj[key]
            assert obj, payload
            for key, value in obj.items():
                got = payload_get(payload, key)
                # a node list is a tuple in the row and a JSON list once parsed
                assert (list(got) if isinstance(got, tuple) else got) == value, (payload, key)
            assert payload_get(payload, "no_such_key") is None

    def test_get_skips_a_value_equal_to_a_key_name(self):
        sim = Simulation([cluster("job_id", CPU, 1)])   # a cluster named like a key
        sim.submit_now(rigid("j", 1, 1, 1000))
        payload = sim.log.payload[sim.log.kind.index(SimEventKind.JOB_STARTED)]
        assert (payload_get(payload, "cluster_id"), payload_get(payload, "job_id")) == (
            "job_id", "j000000")

    def test_parsed_events_agree_with_the_emitted_ones(self):
        log = _pinned_cloud_elastic()
        parsed = oracles.log_from_events(log_events(log))
        assert list(parsed.rows()) == list(log.rows())


JOB_ONLY_KINDS = TERMINAL_EVENT_KINDS | {SimEventKind.JOB_SUBMITTED, SimEventKind.JOB_QUEUED}


def assert_rows_share(log, records):
    """The log's rows hold what the engine holds, with nothing copied at emit."""
    assert not [p for p in log.payload if any(isinstance(v, list) for v in p)]
    # every job-only row of a job is one ("job_id", job_id) tuple
    job_only = [p for kind, p in zip(log.kind, log.payload) if kind in JOB_ONLY_KINDS]
    assert all(p == ("job_id", payload_get(p, "job_id")) for p in job_only)
    assert len({id(p) for p in job_only}) == len(records)
    # the last row that placed a job (a rigid job's JobStarted) holds its
    # record's node tuple itself
    placed = {}
    for kind, p in zip(log.kind, log.payload):
        if kind in (SimEventKind.JOB_STARTED, SimEventKind.RESCALE_APPLIED):
            placed[payload_get(p, "job_id")] = payload_get(p, "node_indices")
    assert placed
    for job_id, nodes in placed.items():
        assert nodes is records[job_id].node_indices, job_id


class TestSharedRows:
    def test_a_seeded_elastic_run_with_faults(self):
        kinds, requeued = set(), 0
        for seed in (1, 2, 3):
            clusters = random_clusters(seed)
            trace = random_trace(seed, clusters, 150, elastic_fraction=0.6, n_faults=6)
            log, records = run_trace(trace, clusters, SimConfig(hybrid_rigid_on_cloud=True))
            assert_rows_share(log, records)
            kinds.update(log.kind)
            queued = [payload_get(p, "job_id") for _t_ms, kind, p in log.rows()
                      if kind is SimEventKind.JOB_QUEUED]
            requeued += len(queued) - len(set(queued))
        # rescales, node losses, requeues and failures all took their turn
        assert requeued and {SimEventKind.RESCALE_APPLIED, SimEventKind.NODE_DOWN,
                             SimEventKind.JOB_FAILED} <= kinds


# the payload keys each kind is logged with, in canonical (alphabetical)
# order; emit sites write them so, since nothing is sorted at emit
EVENT_KEYS = {
    SimEventKind.JOB_SUBMITTED: {("job_id",)},
    SimEventKind.JOB_QUEUED: {("job_id",)},
    SimEventKind.JOB_STARTED: {("cluster_id", "job_id", "node_indices"),
                               ("cluster_id", "job_id", "node_indices", "workers")},
    SimEventKind.JOB_FINISHED: {("job_id",)},
    SimEventKind.JOB_FAILED: {("job_id",)},
    SimEventKind.JOB_TIMED_OUT: {("job_id",)},
    SimEventKind.JOB_CANCELLED: {("job_id",)},
    SimEventKind.NODE_DOWN: {("cluster_id", "node_index")},
    SimEventKind.NODE_UP: {("cluster_id", "node_index")},
    SimEventKind.NODES_HELD: {("cluster_id", "node_indices")},
    SimEventKind.NODES_RELEASED: {("cluster_id", "node_indices")},
    SimEventKind.RESCALE_APPLIED: {("cluster_id", "job_id", "node_indices", "workers")},
}


class TestPayloadKeyOrder:
    """Every emit site writes its payload keys in canonical order."""

    def test_every_kind_is_pinned(self):
        assert set(EVENT_KEYS) == set(SimEventKind)

    def test_emitted_keys_are_pinned_and_ascending(self):
        sim = Simulation([cluster("cloud0", CLOUD, 4), cluster("cpu0", CPU, 2)])
        layer = CloudLayer(sim)
        layer.create_user("u", Quota(max_concurrent_jobs=100, max_nodes_in_use=100,
                                     max_vcluster_nodes=4))
        vc = layer.provision_vcluster("u", 1, "img")                 # NodesHeld
        sim.submit_now(rigid("ok", 1, 1, 10_000))                   # JobStarted, no workers
        sim.submit_now(rigid("late", 1, 100, 10))                   # JobTimedOut
        sim.submit_now(rigid("huge", 3, 1, 1000))                   # JobFailed at arrival
        sim.submit_now(elastic("e1", 1, 3, 50, 60_000))             # JobStarted with workers
        sim.submit_now(elastic("e2", 1, 3, 50, 60_000))             # RescaleApplied
        sim.cancel_now(sim.submit_now(rigid("gone", 2, 1, 1000)))   # JobCancelled
        sim.inject_node_failure("cpu0", 0, 5, 100)                  # NodeDown, NodeUp
        layer.release_vcluster(vc.vcluster_id)                      # NodesReleased
        sim.run_to_quiescence()

        seen = {}
        for _t_ms, kind, payload in sim.log.rows():     # the engine's own rows
            keys = payload[0::2]
            assert all(a < b for a, b in zip(keys, keys[1:])), (kind, payload)
            assert keys in EVENT_KEYS[kind], (kind, payload)
            seen.setdefault(kind, set()).add(keys)
        assert seen == EVENT_KEYS


class TestColumnarLog:
    """The log keeps columns; SimEvents are built only when they are read.

    `log.events`, `Simulation.step` and `EventLog.canonical_lines` remain
    for the benchmark alone; every other test reads events through
    `log_events`."""

    def test_the_log_keeps_no_event_object(self):
        gc.collect()
        log = _pinned_cloud_elastic()
        assert len(log) == 168
        assert not [o for o in gc.get_objects() if isinstance(o, SimEvent)]

    def test_every_read_path_agrees(self):
        log = _pinned_cloud_elastic()
        events = log.events
        n = len(events)
        rows = [(t_ms, seq, kind, payload)
                for seq, (t_ms, kind, payload) in enumerate(log.rows())]
        assert len(rows) == n == len(log)

        def fields(event):
            return (event.t_ms, event.seq, event.kind, event.payload)

        assert [(e["t"], e["seq"], e["kind"]) for e in log_events(log)] == [
            (t_ms, seq, kind.value) for t_ms, seq, kind, _payload in rows]
        assert [fields(events[i]) for i in range(n)] == rows
        assert [fields(events[i - n]) for i in range(n)] == rows
        assert fields(events[-1]) == rows[-1]
        for a, b in [(0, n), (5, 17), (n - 3, n + 10), (-4, -1), (7, 7)]:
            assert [fields(e) for e in events[a:b]] == rows[a:b]
        assert [fields(e) for e in events[::3]] == rows[::3]
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                events[index]
        with pytest.raises(TypeError):
            iter(log)

    def test_step_returns_the_events_of_its_window(self):
        clusters = [cluster("cloud0", CLOUD, 6, speed=2), cluster("cpu0", CPU, 3)]
        sim = Simulation(clusters)
        for t_ms, spec in random_trace(8, clusters, n_jobs=40, elastic_fraction=0.6).jobs:
            sim.schedule_arrival(t_ms, spec)
        stepped = sim.step(5_000) + sim.step(10**9)
        assert [canonical_line(e.t_ms, e.seq, e.kind, e.payload) for e in stepped] == (
            sim.log.canonical_lines())


class TestAgainstFifoOracle:
    """With backfilling off the engine must agree with the independent
    time-stepped FIFO simulator on every start time."""

    def _compare(self, seed, topology):
        trace = random_trace(seed, topology, n_jobs=40, rigid_only=True,
                             arrival_span_ms=15_000)
        log, records = run_trace(trace, topology, SimConfig(backfill=False))
        starts = {}
        for ev in events_of(log, SimEventKind.JOB_STARTED):
            starts.setdefault(ev["job_id"], ev["t"])

        jobs = []
        for i, (t, spec) in enumerate(trace.jobs):
            jobs.append((f"j{i:06d}", t, spec.priority,
                         tuple(k.value for k in spec.kind_preferences),
                         spec.shape.node_count, spec.work_units,
                         spec.walltime_limit_ms))
        oracle = oracles.FifoOracle(
            [(c.cluster_id, c.kind.value, c.node_count, c.speed_factor)
             for c in topology], jobs).run()
        assert starts == oracle.start_ms

    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_topology(self, seed):
        topology = [cluster("cpu0", CPU, 3), cluster("cpu1", CPU, 2, speed=2),
                    cluster("gpu0", GPU, 2, speed=3)]
        self._compare(seed, topology)

    @pytest.mark.parametrize("seed", range(8, 12))
    def test_single_cluster(self, seed):
        self._compare(seed, [cluster("cpu0", CPU, 4)])


@pytest.mark.extra_seeds
class TestPlanIdempotence:
    """Before the elastic rescale pass, a plan cycle leaves nothing to do.

    A second plan at the same instant, run dry on a copy of the scheduler,
    starts nothing and returns the same reservation. After the rescale
    pass this does not always hold: a shrink can free a node that a job
    could start on at once (ROADMAP item 3)."""

    @given(seed=st.integers(1, 10_000), n_jobs=st.integers(1, 30),
           n_faults=st.integers(0, 3), backfill=st.booleans(), hybrid=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_second_plan_before_the_rescale_pass_is_empty(self, seed, n_jobs, n_faults,
                                                          backfill, hybrid):
        clusters = random_clusters(seed)
        trace = random_trace(seed, clusters, n_jobs, n_faults=n_faults, elastic_fraction=0.3)
        config = SimConfig(backfill=backfill, hybrid_rigid_on_cloud=hybrid)
        sim = Simulation(clusters, config)
        for t_ms, spec in trace.jobs:
            sim.schedule_arrival(t_ms, spec)
        for fault in trace.faults:
            sim.inject_node_failure(fault.cluster_id, fault.node_index,
                                    fault.t_ms, fault.down_duration_ms)
        rescale_pass = sim._rescale_pass

        def checked(decision):
            again = copy.deepcopy(sim.scheduler).plan(sim.clock)
            assert again.starts == (), (sim.clock, again.starts)
            assert again.reservation == decision.reservation, sim.clock
            rescale_pass(decision)

        sim._rescale_pass = checked
        sim.run_to_quiescence()
        assert sim.log.canonical_bytes() == run_trace(trace, clusters, config)[0].canonical_bytes()


# one operation on a live simulation: a submission (user, elastic?, two
# sizes, work, walltime), a cancel (index into the known ids), a fault
# (cluster, node, delay, length) or a step of the clock
bounded_ops = st.lists(st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(["u", "v", "w"]), st.booleans(),
              st.integers(1, 6), st.integers(1, 6), st.integers(1, 30),
              st.integers(100, 20_000)),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("fault"), st.sampled_from(["cpu0", "cloud0"]), st.integers(0, 5),
              st.integers(0, 3_000), st.integers(1, 4_000)),
    st.tuples(st.just("step"), st.integers(0, 5_000)),
), max_size=40)


@pytest.mark.extra_seeds
class TestBoundedState:
    """Per-job state in the engine and the scheduler covers live jobs only."""

    @staticmethod
    def check(sim):
        live = {j for j, r in sim.records.items() if not r.state.terminal}
        assert set(sim._run) == live
        assert sorted(sim.live_jobs()) == sorted(live)
        sched = sim.scheduler
        # the queue is one sorted list with one entry per Queued live job,
        # and each entry holds the facts its record and the routing rule give
        queue = sched._queue
        assert queue == sorted(queue)
        assert sorted(entry[2] for entry in queue) == sorted(
            j for j in live if sim.records[j].state is JobState.QUEUED)
        for neg_priority, seq, job_id, needed, wall_ms, accept in queue:
            spec = sim.records[job_id].spec
            shape = spec.shape
            assert (neg_priority, seq, needed, wall_ms) == (
                -spec.priority, sim.records[job_id].submit_seq,
                shape.min_workers if isinstance(shape, Elastic) else shape.node_count,
                spec.walltime_limit_ms), job_id
            assert accept == tuple(
                cid for kind in sched.effective_preferences(spec)
                for cid in sorted(sched.clusters)
                if sched.clusters[cid].spec.kind is kind), job_id
        # a job holds nodes exactly while it is Running, and each cluster's
        # owner map is exactly the inverse of the Running records' placements
        owners = {cid: {} for cid in sched.clusters}
        for job_id, record in sim.records.items():
            running = record.state is JobState.RUNNING
            assert sched._holds_nodes(record) == running, job_id
            if running:
                nodes = record.node_indices
                assert type(nodes) is tuple and list(nodes) == sorted(set(nodes)), job_id
                for n in nodes:
                    assert n not in owners[record.cluster_id], (job_id, n)
                    owners[record.cluster_id][n] = job_id
        for cid, cs in sched.clusters.items():
            assert cs.owner == owners[cid], cid
            assert not cs.held & cs.owner.keys(), cid
        recount = {}
        for record in sim.records.values():
            if record.state.terminal:
                continue
            shape = record.spec.shape
            nodes = shape.max_workers if isinstance(shape, Elastic) else shape.node_count
            jobs, total = recount.get(record.spec.user_id, (0, 0))
            recount[record.spec.user_id] = (jobs + 1, total + nodes)
        assert sim._user_load == recount
        for user in ("u", "v", "w"):
            assert sim.user_load(user) == recount.get(user, (0, 0))
        assert all(t_ms >= sim.clock for t_ms in sim._fault_starts)

    def test_passed_fault_starts_are_dropped(self):
        clusters = random_clusters(9)
        trace = random_trace(9, clusters, 300, n_faults=6)
        sim = Simulation(clusters)
        for t_ms, spec in trace.jobs:
            sim.schedule_arrival(t_ms, spec)
        for fault in trace.faults:
            sim.inject_node_failure(fault.cluster_id, fault.node_index,
                                    fault.t_ms, fault.down_duration_ms)
        assert len(sim._fault_starts) == 6
        sim.run_to_quiescence()
        assert [t_ms for t_ms in sim._fault_starts if t_ms < sim.clock] == []
        assert hashlib.sha256(sim.log.canonical_bytes()).hexdigest() == (
            "e655e2b4f64b2b2a85b0f29cde4014252e63706ae6e96f962b63e16cd7799bdb")

    @given(cpu_nodes=st.integers(1, 4), cloud_nodes=st.integers(1, 5),
           cloud_speed=st.integers(1, 3), budget=st.integers(0, 2),
           rigid_on_cloud=st.booleans(), ops=bounded_ops)
    @settings(max_examples=150, deadline=None)
    def test_state_tracks_the_live_jobs(self, cpu_nodes, cloud_nodes, cloud_speed,
                                        budget, rigid_on_cloud, ops):
        sim = Simulation([cluster("cpu0", CPU, cpu_nodes),
                          cluster("cloud0", CLOUD, cloud_nodes, speed=cloud_speed)],
                         config=SimConfig(retry_budget=budget,
                                          hybrid_rigid_on_cloud=rigid_on_cloud))
        sizes = {"cpu0": cpu_nodes, "cloud0": cloud_nodes}
        for op in ops:
            if op[0] == "submit":
                _op, user, is_elastic, a, b, work, wall = op
                if is_elastic:
                    shape, prefs = Elastic(min_workers=a, max_workers=max(a, b)), (CLOUD,)
                else:
                    shape, prefs = Rigid(node_count=a), (CPU, CLOUD) if b % 2 else (CPU,)
                sim.submit_now(JobSpec(name="j", user_id=user, kind_preferences=prefs,
                                       shape=shape, work_units=work,
                                       walltime_limit_ms=wall))
            elif op[0] == "cancel":
                if sim.records:
                    job_id = sorted(sim.records)[op[1] % len(sim.records)]
                    if not sim.records[job_id].state.terminal:
                        sim.cancel_now(job_id)
            elif op[0] == "fault":
                _op, cid, node, delay, length = op
                sim.inject_node_failure(cid, node % sizes[cid], sim.clock + delay, length)
            else:
                sim.advance_to(sim.clock + op[1])
            self.check(sim)
        sim.run_to_quiescence()
        self.check(sim)
        assert sim._run == {} and sim._user_load == {}
