"""Metrics tests: fixed-point rendering, exact interval accounting, waits."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hybridsched.engine import EventLog, SimConfig, Simulation, run_trace
from hybridsched.metrics import (
    Comparison,
    EmptyWindow,
    compare,
    fixed4,
    format_fixed4,
    format_ratio,
    nearest_rank,
    utilization,
    wait_stats,
)
from hybridsched.model import ClusterSpec, Elastic, JobSpec, ResourceKind, Rigid
from hybridsched.traces import FaultDirective, SubmissionTrace, random_clusters, random_trace

CPU = ResourceKind.CPU
CLOUD = ResourceKind.CLOUD


def cluster(cid, kind, nodes, speed=1):
    return ClusterSpec(cluster_id=cid, kind=kind, node_count=nodes,
                       cores_per_node=8, speed_factor=speed)


def log_of(*lines):
    return EventLog.parse_lines(list(lines))


def submitted(t, seq, jid):
    return '{"t":%d,"seq":%d,"kind":"JobSubmitted","job_id":"%s"}' % (t, seq, jid)


def queued(t, seq, jid):
    return '{"t":%d,"seq":%d,"kind":"JobQueued","job_id":"%s"}' % (t, seq, jid)


def started(t, seq, jid, cid, nodes):
    return ('{"t":%d,"seq":%d,"kind":"JobStarted","cluster_id":"%s",'
            '"job_id":"%s","node_indices":%s}'
            % (t, seq, cid, jid, list(nodes)))


def finished(t, seq, jid):
    return '{"t":%d,"seq":%d,"kind":"JobFinished","job_id":"%s"}' % (t, seq, jid)


class TestFixedPoint:
    def test_examples(self):
        assert format_ratio(1, 2) == "0.5000"
        assert format_ratio(1, 3) == "0.3333"
        assert format_ratio(2, 3) == "0.6667"
        assert format_ratio(0, 5) == "0.0000"
        assert format_ratio(5, 5) == "1.0000"

    def test_zero_denominator(self):
        assert format_ratio(0, 0) == "0.0000"

    def test_half_up_at_the_edge(self):
        # 3/20000 = 0.00015 rounds up, 1/40000 = 0.000025 rounds down
        assert format_ratio(3, 20_000) == "0.0002"
        assert format_ratio(1, 40_000) == "0.0000"
        assert format_ratio(1, 20_000) == "0.0001"

    def test_negative_rendering(self):
        assert format_fixed4(-1666) == "-0.1666"
        assert format_fixed4(1666) == "0.1666"
        assert format_fixed4(0) == "0.0000"
        assert format_fixed4(-10000) == "-1.0000"

    @given(n=st.integers(min_value=0, max_value=10**9),
           d=st.integers(min_value=1, max_value=10**9))
    def test_matches_fraction_oracle(self, n, d):
        assert fixed4(n, d) == oracles.fixed4_oracle(n, d)


class TestNearestRank:
    def test_examples(self):
        assert nearest_rank([], 50) == 0
        assert nearest_rank([7], 50) == 7
        assert nearest_rank([1, 2, 3, 4], 50) == 2
        assert nearest_rank([1, 2, 3, 4], 95) == 4
        assert nearest_rank(list(range(1, 101)), 95) == 95
        assert nearest_rank([5, 6], 0) == 5

    @given(values=st.lists(st.integers(0, 10_000), min_size=1, max_size=60),
           pct=st.integers(min_value=0, max_value=100))
    def test_matches_oracle(self, values, pct):
        values.sort()
        assert nearest_rank(values, pct) == oracles.percentile_oracle(values, pct)


class TestUtilization:
    def test_half_busy_single_cluster(self):
        # one 2-node job for 5000 of a 10000 ms window on 2 nodes
        log = log_of(
            submitted(0, 0, "j0"), queued(0, 1, "j0"),
            started(0, 2, "j0", "cpu0", [0, 1]),
            finished(5_000, 3, "j0"),
        )
        report = utilization(log, [cluster("cpu0", CPU, 2)], (0, 10_000))
        assert report.per_cluster[0].busy_node_ms == 10_000
        assert report.per_cluster[0].available_node_ms == 20_000
        assert report.aggregate_utilization == "0.5000"

    def test_empty_log_is_zero(self):
        report = utilization(EventLog(), [cluster("cpu0", CPU, 2)], (0, 100))
        assert report.aggregate_utilization == "0.0000"
        assert report.available_node_ms == 200

    def test_empty_window_rejected(self):
        with pytest.raises(EmptyWindow):
            utilization(EventLog(), [cluster("cpu0", CPU, 1)], (5, 5))
        with pytest.raises(EmptyWindow):
            utilization(EventLog(), [cluster("cpu0", CPU, 1)], (6, 5))

    def test_open_segment_runs_to_window_end(self):
        log = log_of(started(2_000, 0, "j0", "cpu0", [0]))
        report = utilization(log, [cluster("cpu0", CPU, 1)], (0, 3_000))
        assert report.busy_node_ms == 1_000

    def test_window_clips_both_sides(self):
        log = log_of(started(0, 0, "j0", "cpu0", [0]), finished(10_000, 1, "j0"))
        report = utilization(log, [cluster("cpu0", CPU, 1)], (4_000, 6_000))
        assert report.busy_node_ms == 2_000
        assert report.available_node_ms == 2_000

    def test_requeue_closes_segment(self):
        log = log_of(
            started(0, 0, "j0", "cpu0", [0, 1]),
            queued(3_000, 1, "j0"),
            started(5_000, 2, "j0", "cpu0", [0, 1]),
            finished(6_000, 3, "j0"),
        )
        report = utilization(log, [cluster("cpu0", CPU, 2)], (0, 10_000))
        assert report.busy_node_ms == 2 * 3_000 + 2 * 1_000

    def test_rescale_splits_segment(self):
        log = log_of(
            started(0, 0, "e0", "cloud0", [0]),
            ('{"t":1000,"seq":1,"kind":"RescaleApplied","cluster_id":"cloud0",'
             '"job_id":"e0","node_indices":[0,1,2],"workers":3}'),
            finished(2_000, 2, "e0"),
        )
        report = utilization(log, [cluster("cloud0", CLOUD, 4)], (0, 2_000))
        assert report.busy_node_ms == 1 * 1_000 + 3 * 1_000

    def test_downtime_shrinks_availability(self):
        log = log_of(
            '{"t":1000,"seq":0,"kind":"NodeDown","cluster_id":"cpu0","node_index":1}',
            '{"t":3000,"seq":1,"kind":"NodeUp","cluster_id":"cpu0","node_index":1}',
        )
        report = utilization(log, [cluster("cpu0", CPU, 2)], (0, 10_000))
        assert report.available_node_ms == 20_000 - 2_000

    def test_open_ended_downtime(self):
        log = log_of(
            '{"t":4000,"seq":0,"kind":"NodeDown","cluster_id":"cpu0","node_index":0}',
        )
        report = utilization(log, [cluster("cpu0", CPU, 1)], (0, 10_000))
        assert report.available_node_ms == 4_000

    def test_holds_excluded_and_reported(self):
        # node 0 held 1000..3000, node 1 from 5000 to the end of the window;
        # the release of node 3, which was never held, is ignored
        log = log_of(
            '{"t":1000,"seq":0,"kind":"NodesHeld","cluster_id":"cloud0","node_indices":[0]}',
            '{"t":3000,"seq":1,"kind":"NodesReleased","cluster_id":"cloud0","node_indices":[0]}',
            '{"t":4000,"seq":2,"kind":"NodesReleased","cluster_id":"cloud0","node_indices":[3]}',
            '{"t":5000,"seq":3,"kind":"NodesHeld","cluster_id":"cloud0","node_indices":[1]}',
        )
        report = utilization(log, [cluster("cloud0", CLOUD, 4)], (0, 10_000))
        assert report.per_cluster[0].held_node_ms == 2_000 + 5_000
        assert report.per_cluster[0].available_node_ms == 40_000 - 7_000

    def test_clusters_reported_sorted_with_obj_and_text(self):
        report = utilization(EventLog(), [cluster("b", CPU, 1), cluster("a", CPU, 1)],
                             (0, 100))
        assert [c.cluster_id for c in report.per_cluster] == ["a", "b"]
        obj = report.to_obj()
        assert obj["window"] == {"from_ms": 0, "to_ms": 100}
        assert obj["aggregate"]["utilization"] == "0.0000"
        text = report.render_text()
        assert "TOTAL" in text and "cluster" in text

    def test_matches_per_ms_scan_on_random_runs(self):
        rng = random.Random(77)
        for _ in range(12):
            seed = rng.randint(0, 99_999)
            clusters = random_clusters(seed)
            trace = random_trace(seed, clusters, n_jobs=25,
                                 arrival_span_ms=4_000, elastic_fraction=0.4,
                                 n_faults=2)
            log, _records = run_trace(trace, clusters)
            events = oracles.log_events(log)
            window = (0, max(events[-1]["t"] if events else 0, 1))
            report = utilization(log, clusters, window)
            busy, avail = oracles.scan_utilization(
                events, [(c.cluster_id, c.node_count) for c in clusters], window)
            for cu in report.per_cluster:
                assert cu.busy_node_ms == busy[cu.cluster_id], seed
                assert cu.available_node_ms == avail[cu.cluster_id], seed

    def test_scan_agreement_with_holds(self):
        spec = cluster("cloud0", CLOUD, 3)
        sim = Simulation([spec])
        sim.hold_nodes("cloud0", (2,))
        sim.schedule_arrival(0, JobSpec(
            name="e", user_id="u", kind_preferences=(CLOUD,),
            shape=Elastic(min_workers=1, max_workers=2), work_units=8,
            walltime_limit_ms=60_000))
        sim.run_to_quiescence()
        events = oracles.log_events(sim.log)
        assert events[0] == {"t": 0, "seq": 0, "kind": "NodesHeld", "cluster_id": "cloud0",
                             "node_indices": [2]}
        window = (0, max(events[-1]["t"], 1))
        report = utilization(sim.log, [spec], window)
        busy, avail = oracles.scan_utilization(
            events, [("cloud0", 3)], window, holds=[("cloud0", 2, 0, None)])
        assert report.per_cluster[0].busy_node_ms == busy["cloud0"]
        assert report.per_cluster[0].available_node_ms == avail["cloud0"]
        assert report.per_cluster[0].held_node_ms > 0


class TestWaitStats:
    def test_hand_built_log(self):
        log = log_of(
            submitted(0, 0, "a"), queued(0, 1, "a"),
            submitted(0, 2, "b"), queued(0, 3, "b"),
            started(0, 4, "a", "cpu0", [0]),
            started(1_000, 5, "b", "cpu0", [1]),
            finished(5_000, 6, "a"),
            finished(6_000, 7, "b"),
        )
        stats = wait_stats(log)
        assert stats.n_jobs == 2
        assert stats.n_started == 2
        assert stats.n_never_started == 0
        assert stats.mean_wait_ms == 500       # (0 + 1000) / 2
        assert stats.median_wait_ms == 0       # nearest rank on [0, 1000]
        assert stats.p95_wait_ms == 1_000
        assert stats.mean_turnaround_ms == 5_500
        assert stats.makespan_ms == 6_000

    def test_mean_rounds_half_up(self):
        log = log_of(
            submitted(0, 0, "a"), started(1, 1, "a", "c", [0]), finished(2, 2, "a"),
            submitted(0, 3, "b"), started(2, 4, "b", "c", [0]), finished(3, 5, "b"),
        )
        # waits [1, 2]: mean 1.5 -> 2
        assert wait_stats(log).mean_wait_ms == 2

    def test_never_started_excluded_from_waits(self):
        log = log_of(
            submitted(0, 0, "a"), queued(0, 1, "a"),
            '{"t":0,"seq":2,"kind":"JobFailed","job_id":"a"}',
            submitted(0, 3, "b"), started(100, 4, "b", "c", [0]),
            finished(200, 5, "b"),
        )
        stats = wait_stats(log)
        assert stats.n_jobs == 2
        assert stats.n_started == 1
        assert stats.n_never_started == 1
        assert stats.mean_wait_ms == 100

    def test_empty_log(self):
        stats = wait_stats(EventLog())
        assert stats.n_jobs == 0
        assert stats.mean_wait_ms == 0
        assert stats.makespan_ms == 0

    def test_requeued_job_wait_counts_first_start_only(self):
        log = log_of(
            submitted(0, 0, "a"), queued(0, 1, "a"),
            started(500, 2, "a", "c", [0]),
            queued(700, 3, "a"),
            started(2_000, 4, "a", "c", [0]),
            finished(3_000, 5, "a"),
        )
        assert wait_stats(log).mean_wait_ms == 500

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n_jobs=st.integers(1, 30),
           cancel_at=st.integers(0, 6_000), pick=st.integers(0, 29))
    def test_matches_the_line_scan_on_random_runs(self, seed, n_jobs, cancel_at, pick):
        # elastic jobs on a cloud pool, rigid ones on a CPU cluster, node
        # faults on both, and one live job cancelled part way through
        clusters = [cluster("cloud0", CLOUD, 6, speed=2), cluster("cpu0", CPU, 3)]
        trace = random_trace(seed, clusters, n_jobs, arrival_span_ms=4_000,
                             elastic_fraction=0.5, n_faults=3)
        sim = Simulation(clusters)
        for t_ms, spec in trace.jobs:
            sim.schedule_arrival(t_ms, spec)
        for f in trace.faults:
            sim.inject_node_failure(f.cluster_id, f.node_index, f.t_ms, f.down_duration_ms)
        sim.advance_to(cancel_at)
        live = sorted(sim.live_jobs())
        if live:
            sim.cancel_now(live[pick % len(live)])
        sim.run_to_quiescence()
        assert wait_stats(sim.log).to_obj() == oracles.scan_wait_stats(
            oracles.log_events(sim.log))


class TestCompare:
    def test_identical_sides_have_zero_delta(self):
        clusters = random_clusters(21)
        trace = random_trace(21, clusters, 20, arrival_span_ms=3_000)
        cmp = compare(trace, clusters, clusters)
        assert cmp.delta_utilization_fixed4 == 0
        assert cmp.utilization_a.window == cmp.utilization_b.window
        obj = cmp.to_obj()
        assert obj["delta"]["utilization"] == "0.0000"
        assert obj["delta"]["makespan_ms"] == 0

    def test_labels_and_render(self):
        clusters = random_clusters(22)
        trace = random_trace(22, clusters, 10, arrival_span_ms=2_000)
        cmp = compare(trace, clusters, clusters,
                      label_a="baseline", label_b="candidate")
        text = cmp.render_text()
        assert "baseline" in text and "candidate" in text
        assert isinstance(cmp, Comparison)

    def test_shared_window_covers_the_longer_run(self):
        # same trace on a slow vs fast topology: window = slower makespan
        slow = [cluster("cpu0", CPU, 2, speed=1)]
        fast = [cluster("cpu0", CPU, 2, speed=4)]
        trace = SubmissionTrace(jobs=[(0, JobSpec(
            name="j", user_id="u", kind_preferences=(CPU,),
            shape=Rigid(node_count=1), work_units=20, walltime_limit_ms=120_000))])
        cmp = compare(trace, slow, fast)
        assert cmp.utilization_a.window == (0, 20_000)
        assert cmp.utilization_b.busy_node_ms == 5_000
        assert cmp.delta_utilization_fixed4 == fixed4(5_000, 40_000) - fixed4(20_000, 40_000)

    def test_backfill_cuts_makespan_not_busy(self):
        clusters = [cluster("cpu0", CPU, 2)]
        wide = JobSpec(name="wide", user_id="u", kind_preferences=(CPU,),
                       shape=Rigid(node_count=2), work_units=10,
                       walltime_limit_ms=60_000)
        narrow = JobSpec(name="narrow", user_id="u", kind_preferences=(CPU,),
                         shape=Rigid(node_count=1), work_units=10,
                         walltime_limit_ms=10_000)
        blocker = JobSpec(name="blocker", user_id="u", kind_preferences=(CPU,),
                          shape=Rigid(node_count=1), work_units=30,
                          walltime_limit_ms=60_000)
        trace = SubmissionTrace(jobs=[(0, blocker), (1, wide), (2, narrow)])
        cmp = compare(trace, clusters, clusters,
                      config_a=SimConfig(backfill=False),
                      config_b=SimConfig(backfill=True))
        # narrow slips into the blocker's shadow: finishes sooner
        assert cmp.waits_b.makespan_ms < cmp.waits_a.makespan_ms
        assert cmp.waits_b.mean_wait_ms < cmp.waits_a.mean_wait_ms
        # every job completes on both sides within the shared window, so
        # total busy node-time is the same and the delta is exactly zero
        assert cmp.utilization_a.busy_node_ms == cmp.utilization_b.busy_node_ms
        assert cmp.delta_utilization_fixed4 == 0
