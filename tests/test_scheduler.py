import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hybridsched.model import (
    Allocation,
    ClusterSpec,
    Elastic,
    JobRecord,
    JobSpec,
    JobState,
    ResourceKind,
    Rigid,
)
from hybridsched.scheduler import (
    AlreadyTerminal,
    ClusterState,
    DuplicateJob,
    NoAllocation,
    Reservation,
    Scheduler,
    UnknownJob,
    Unsatisfiable,
    fair_share_targets,
)

CPU = ResourceKind.CPU
GPU = ResourceKind.GPU
CLOUD = ResourceKind.CLOUD


def cluster(cid, kind, nodes, speed=1):
    return ClusterSpec(cluster_id=cid, kind=kind, node_count=nodes,
                       cores_per_node=8, speed_factor=speed)


def rigid(job_id, nodes, wall=10_000, prefs=(CPU,), priority=0, work=10):
    return JobRecord(job_id=job_id, state=JobState.QUEUED, spec=JobSpec(
        name=job_id, user_id="u", kind_preferences=tuple(prefs),
        shape=Rigid(node_count=nodes), work_units=work, walltime_limit_ms=wall,
        priority=priority))


def elastic(job_id, lo, hi, wall=10_000, work=10):
    return JobRecord(job_id=job_id, state=JobState.QUEUED, spec=JobSpec(
        name=job_id, user_id="u", kind_preferences=(CLOUD,),
        shape=Elastic(min_workers=lo, max_workers=hi), work_units=work,
        walltime_limit_ms=wall))


def mk(specs, **flags):
    states = {c.cluster_id: ClusterState(c) for c in specs}
    records = {}
    return Scheduler(states, records, **flags), records


def add(sched, records, rec, now=0):
    records[rec.job_id] = rec
    sched.enqueue(rec, now)
    return rec


def started_ids(decision):
    return [job_id for job_id, _a in decision.starts]


class TestQueueOrder:
    def test_fifo_by_submission(self):
        sched, records = mk([cluster("cpu0", CPU, 1)])
        add(sched, records, rigid("a", 1))
        add(sched, records, rigid("b", 1))
        assert sched.queued_jobs() == ["a", "b"]

    def test_priority_beats_submission(self):
        sched, records = mk([cluster("cpu0", CPU, 1)])
        add(sched, records, rigid("a", 1, priority=0))
        add(sched, records, rigid("b", 1, priority=2))
        add(sched, records, rigid("c", 1, priority=1))
        assert sched.queued_jobs() == ["b", "c", "a"]

    def test_requeue_keeps_submission_seq(self):
        # a job bounced back by a node loss must regain its old position
        sched, records = mk([cluster("cpu0", CPU, 1)])
        a = add(sched, records, rigid("a", 1))
        add(sched, records, rigid("b", 1))
        assert sched.remove_queued("a")
        sched.enqueue(a, now_ms=500)
        assert sched.queued_jobs() == ["a", "b"]

    def test_double_enqueue_rejected(self):
        sched, records = mk([cluster("cpu0", CPU, 1)])
        a = add(sched, records, rigid("a", 1))
        with pytest.raises(DuplicateJob):
            sched.enqueue(a, 0)


class TestPlacement:
    def test_first_fit_ascending(self):
        sched, records = mk([cluster("cpu0", CPU, 4)])
        add(sched, records, rigid("a", 2))
        add(sched, records, rigid("b", 1))
        decision = sched.plan(0)
        allocs = dict(decision.starts)
        assert allocs["a"].node_indices == (0, 1)
        assert allocs["b"].node_indices == (2,)

    def test_lexicographic_cluster_tiebreak(self):
        sched, records = mk([cluster("cpub", CPU, 2), cluster("cpua", CPU, 2)])
        add(sched, records, rigid("a", 1))
        decision = sched.plan(0)
        assert dict(decision.starts)["a"].cluster_id == "cpua"

    def test_preference_order_before_cluster_id(self):
        # "a0" sorts before "gpu0" but the job prefers gpu
        sched, records = mk([cluster("a0", CPU, 2), cluster("gpu0", GPU, 2)])
        add(sched, records, rigid("j", 1, prefs=(GPU, CPU)))
        decision = sched.plan(0)
        assert dict(decision.starts)["j"].cluster_id == "gpu0"

    def test_falls_through_to_second_preference(self):
        sched, records = mk([cluster("gpu0", GPU, 1), cluster("cpu0", CPU, 4)])
        add(sched, records, rigid("big", 3, prefs=(GPU, CPU)))
        decision = sched.plan(0)
        assert dict(decision.starts)["big"].cluster_id == "cpu0"

    def test_unsatisfiable_reported_not_queued_forever(self):
        sched, records = mk([cluster("cpu0", CPU, 2)])
        with pytest.raises(Unsatisfiable) as err:
            add(sched, records, rigid("huge", 3))
        assert (err.value.job_id, err.value.needed) == ("huge", 3)
        assert sched.queued_jobs() == []
        assert sched.plan(0).starts == ()

    def test_rigid_never_lands_on_cloud_by_default(self):
        sched, records = mk([cluster("cloud0", CLOUD, 4)])
        with pytest.raises(Unsatisfiable) as err:
            add(sched, records, rigid("r", 1, prefs=(CLOUD,)))
        assert err.value.job_id == "r"
        assert sched.queued_jobs() == []
        assert sched.plan(0).starts == ()

    def test_rigid_on_cloud_with_flag(self):
        sched, records = mk([cluster("cloud0", CLOUD, 4)],
                            hybrid_rigid_on_cloud=True)
        add(sched, records, rigid("r", 1, prefs=(CLOUD,)))
        assert started_ids(sched.plan(0)) == ["r"]

    def test_first_preference_only_pins_primary_kind(self):
        sched, records = mk([cluster("cpu0", CPU, 1), cluster("gpu0", GPU, 2)],
                            first_preference_only=True)
        add(sched, records, rigid("a", 1, prefs=(CPU, GPU)))
        add(sched, records, rigid("b", 1, prefs=(CPU, GPU)))
        decision = sched.plan(0)
        # only one cpu node; the partitioned baseline may not spill b to gpu
        assert started_ids(decision) == ["a"]
        assert decision.reservation is not None
        assert decision.reservation.job_id == "b"
        assert decision.reservation.cluster_id == "cpu0"


class TestReservationAndBackfill:
    def test_blocked_head_gets_reservation(self):
        sched, records = mk([cluster("cpu0", CPU, 2)])
        add(sched, records, rigid("a", 2, wall=10_000))
        sched.plan(0)
        add(sched, records, rigid("b", 2, wall=5_000))
        decision = sched.plan(0)
        r = decision.reservation
        assert r is not None and r.job_id == "b"
        assert r.start_ms == 10_000
        assert r.node_indices == (0, 1)
        assert r.expected_end_ms == 15_000

    def test_backfill_fits_before_reservation(self):
        sched, records = mk([cluster("cpu0", CPU, 2)])
        add(sched, records, rigid("a", 1, wall=10_000))
        sched.plan(0)
        add(sched, records, rigid("b", 2, wall=5_000))
        add(sched, records, rigid("c", 1, wall=10_000))   # ends exactly at start
        decision = sched.plan(0)
        assert started_ids(decision) == ["c"]

    def test_backfill_rejected_when_it_would_overrun(self):
        sched, records = mk([cluster("cpu0", CPU, 2)])
        add(sched, records, rigid("a", 1, wall=10_000))
        sched.plan(0)
        add(sched, records, rigid("b", 2, wall=5_000))
        add(sched, records, rigid("c", 1, wall=10_001))   # one ms too long
        decision = sched.plan(0)
        assert decision.starts == ()

    def test_backfill_on_disjoint_nodes_ignores_walltime(self):
        sched, records = mk([cluster("cpu0", CPU, 3)])
        add(sched, records, rigid("a", 2, wall=5_000))
        sched.plan(0)
        add(sched, records, rigid("b", 2, wall=5_000))    # reserves nodes 0,1
        add(sched, records, rigid("c", 1, wall=900_000))  # node 2 is unreserved
        decision = sched.plan(0)
        assert decision.reservation.node_indices == (0, 1)
        assert started_ids(decision) == ["c"]
        assert dict(decision.starts)["c"].node_indices == (2,)

    def test_backfill_free_on_other_clusters(self):
        sched, records = mk([cluster("cpu0", CPU, 1), cluster("gpu0", GPU, 1)])
        add(sched, records, rigid("a", 1, wall=10_000))
        sched.plan(0)
        add(sched, records, rigid("b", 1, wall=10_000))
        add(sched, records, rigid("c", 1, wall=999_999, prefs=(CPU, GPU)))
        decision = sched.plan(0)
        assert dict(decision.starts)["c"].cluster_id == "gpu0"

    def test_no_backfill_flag_blocks_everything_behind_head(self):
        sched, records = mk([cluster("cpu0", CPU, 2)], backfill=False)
        add(sched, records, rigid("a", 1, wall=10_000))
        sched.plan(0)
        add(sched, records, rigid("b", 2))
        add(sched, records, rigid("c", 1, wall=100))
        decision = sched.plan(0)
        assert decision.starts == ()
        assert decision.reservation.job_id == "b"

    def test_no_backfill_past_unreservable_head(self):
        # every cpu node down: the head has no bounded start, so later
        # jobs (even on another healthy cluster) must wait
        sched, records = mk([cluster("cpu0", CPU, 2), cluster("gpu0", GPU, 2)])
        sched.clusters["cpu0"].down.update({0, 1})
        add(sched, records, rigid("a", 1, prefs=(CPU,)))
        add(sched, records, rigid("b", 1, prefs=(GPU,)))
        decision = sched.plan(0)
        assert decision.starts == ()
        assert decision.reservation is None

    def test_reservation_counts_cycle_starts(self):
        # b's reservation must account for a job started in the same cycle
        sched, records = mk([cluster("cpu0", CPU, 1)])
        add(sched, records, rigid("a", 1, wall=7_000))
        add(sched, records, rigid("b", 1, wall=1_000))
        decision = sched.plan(0)
        assert started_ids(decision) == ["a"]
        assert decision.reservation.job_id == "b"
        assert decision.reservation.start_ms == 7_000

    def test_early_backfill_on_a_reserved_node_keeps_the_unreserved_count(self):
        # c ends by the reservation start and takes reserved node 2, which
        # leaves unreserved node 4 free for d, whose run overlaps the start
        sched, records = mk([cluster("cpu0", CPU, 5)])
        add(sched, records, rigid("a", 2, wall=10_000))
        sched.plan(0)
        add(sched, records, rigid("b", 4, wall=5_000))
        add(sched, records, rigid("c", 1, wall=10_000))
        add(sched, records, rigid("d", 1, wall=999_999))
        decision = sched.plan(0)
        assert decision.reservation.node_indices == (0, 1, 2, 3)
        assert decision.reservation.start_ms == 10_000
        starts = dict(decision.starts)
        assert list(starts) == ["c", "d"]
        assert starts["c"].node_indices == (2,)
        assert starts["d"].node_indices == (4,)

    def test_held_nodes_invisible(self):
        sched, records = mk([cluster("cpu0", CPU, 2)])
        sched.clusters["cpu0"].held.add(0)
        add(sched, records, rigid("a", 2))
        decision = sched.plan(0)
        assert decision.starts == ()
        assert decision.reservation is None   # held nodes have no deadline


class TestCancel:
    def test_cancel_queued_removes_entry(self):
        sched, records = mk([cluster("cpu0", CPU, 1)])
        add(sched, records, rigid("a", 1))
        state, freed = sched.cancel("a", 0)
        assert state is JobState.CANCELLED
        assert freed == ()
        assert sched.queued_jobs() == []

    def test_cancel_running_frees_nodes(self):
        sched, records = mk([cluster("cpu0", CPU, 2)])
        add(sched, records, rigid("a", 2))
        sched.plan(0)
        records["a"].state = JobState.RUNNING
        state, freed = sched.cancel("a", 100)
        assert state is JobState.CANCELLED
        assert freed == (0, 1)
        assert sched.clusters["cpu0"].free_count() == 2

    def test_cancel_terminal_raises(self):
        sched, records = mk([cluster("cpu0", CPU, 1)])
        add(sched, records, rigid("a", 1))
        sched.cancel("a", 0)
        with pytest.raises(AlreadyTerminal):
            sched.cancel("a", 1)

    def test_cancel_unknown_raises(self):
        sched, _records = mk([cluster("cpu0", CPU, 1)])
        with pytest.raises(UnknownJob):
            sched.cancel("ghost", 0)


class TestRecordAllocation:
    """The scheduler is the one writer of a record's allocation."""

    def test_plan_resize_and_release_keep_the_record_in_step(self):
        sched, records = mk([cluster("cloud0", CLOUD, 5)])
        rec = add(sched, records, elastic("e", 2, 5))
        cs = sched.clusters["cloud0"]
        assert rec.allocation is None
        decision = sched.plan(0)
        rec.state = JobState.RUNNING
        assert rec.allocation is dict(decision.starts)["e"]
        assert rec.allocation.node_indices == (0, 1)
        assert cs.owner == {0: "e", 1: "e"}
        assert sched.apply_worker_count("e", 1) == (0,)            # shrink
        assert rec.allocation.node_indices == (0,)
        assert cs.owner == {0: "e"}
        assert sched.apply_worker_count("e", 4) == (0, 1, 2, 3)    # grow
        assert rec.allocation.node_indices == (0, 1, 2, 3)
        assert cs.owner == {0: "e", 1: "e", 2: "e", 3: "e"}
        assert rec.allocation.start_ms == 0
        assert sched.release("e") == ("cloud0", (0, 1, 2, 3))
        assert rec.allocation is None and cs.owner == {}
        with pytest.raises(NoAllocation):
            sched.release("e")
        with pytest.raises(NoAllocation):
            sched.apply_worker_count("e", 2)

    def test_cancel_of_a_running_job_clears_its_allocation(self):
        sched, records = mk([cluster("cpu0", CPU, 2)])
        rec = add(sched, records, rigid("a", 2))
        sched.plan(0)
        rec.state = JobState.RUNNING
        assert rec.allocation.node_indices == (0, 1)
        assert sched.clusters["cpu0"].owner == {0: "a", 1: "a"}
        sched.cancel("a", 100)
        assert rec.allocation is None
        assert sched.clusters["cpu0"].owner == {}
        with pytest.raises(NoAllocation):
            sched.release("a")

    def test_a_running_job_cannot_be_enqueued(self):
        sched, records = mk([cluster("cpu0", CPU, 2)])
        rec = add(sched, records, rigid("a", 1))
        sched.plan(0)
        rec.state = JobState.RUNNING
        with pytest.raises(DuplicateJob):
            sched.enqueue(rec, 10)
        assert sched.queued_jobs() == []
        assert rec.allocation.node_indices == (0,)
        assert sched.clusters["cpu0"].owner == {0: "a"}

    def test_release_of_an_unknown_job_raises(self):
        sched, _records = mk([cluster("cpu0", CPU, 1)])
        with pytest.raises(NoAllocation):
            sched.release("ghost")


class TestElastic:
    def _running_elastic(self, sched, records, job_id, lo, hi):
        rec = add(sched, records, elastic(job_id, lo, hi))
        decision = sched.plan(0)
        assert job_id in started_ids(decision)
        rec.state = JobState.RUNNING
        return rec

    def test_starts_at_min_workers(self):
        sched, records = mk([cluster("cloud0", CLOUD, 6)])
        add(sched, records, elastic("e", 2, 6))
        decision = sched.plan(0)
        assert dict(decision.starts)["e"].node_indices == (0, 1)

    def test_targets_split_free_pool(self):
        sched, records = mk([cluster("cloud0", CLOUD, 6)])
        self._running_elastic(sched, records, "e1", 1, 6)
        self._running_elastic(sched, records, "e2", 1, 6)
        targets = dict(sched.elastic_targets("cloud0"))
        # pool = 6 nodes over two jobs
        assert targets == {"e1": 3, "e2": 3}

    def test_targets_clamped_and_repaired(self):
        sched, records = mk([cluster("cloud0", CLOUD, 4)])
        self._running_elastic(sched, records, "e1", 3, 4)
        self._running_elastic(sched, records, "e2", 1, 4)
        targets = dict(sched.elastic_targets("cloud0"))
        assert targets["e1"] >= 3
        assert sum(targets.values()) <= 4

    def test_reserved_nodes_excluded_from_pool(self):
        sched, records = mk([cluster("cloud0", CLOUD, 4)])
        self._running_elastic(sched, records, "e", 1, 4)
        r = Reservation(job_id="head", cluster_id="cloud0",
                        node_indices=(1, 2), start_ms=50, expected_end_ms=100)
        targets = dict(sched.elastic_targets("cloud0", r))
        assert targets["e"] == 2    # node 3 plus its own node 0

    def test_apply_shrink_drops_highest_indices(self):
        sched, records = mk([cluster("cloud0", CLOUD, 4)])
        self._running_elastic(sched, records, "e", 3, 4)
        new = sched.apply_worker_count("e", 1)
        assert new == (0,)
        assert sorted(sched.clusters["cloud0"].free_nodes()) == [1, 2, 3]

    def test_apply_grow_takes_lowest_free(self):
        sched, records = mk([cluster("cloud0", CLOUD, 5)])
        self._running_elastic(sched, records, "e", 1, 5)
        new = sched.apply_worker_count("e", 3)
        assert new == (0, 1, 2)


class TestFairShare:
    def test_remainder_goes_to_earliest(self):
        assert fair_share_targets(7, [(1, 10), (1, 10), (1, 10)]) == [3, 2, 2]

    def test_minima_repair_takes_from_latest(self):
        assert fair_share_targets(4, [(3, 8), (3, 8)]) == [3, 3]
        # sum of minima may legitimately exceed the pool; the caller
        # guarantees it never does for pools fed by running jobs
        assert fair_share_targets(5, [(1, 8), (3, 8)]) == [2, 3]

    def test_max_clamp_does_not_redistribute(self):
        assert fair_share_targets(10, [(1, 2), (1, 9)]) == [2, 5]

    def test_empty(self):
        assert fair_share_targets(5, []) == []

    @given(
        st.integers(0, 60),
        st.lists(st.tuples(st.integers(1, 8), st.integers(0, 8)).map(
            lambda p: (p[0], p[0] + p[1])), max_size=8),
    )
    def test_matches_oracle(self, pool, bounds):
        got = fair_share_targets(pool, bounds)
        assert got == oracles.fair_share_oracle(pool, bounds)
        for target, (lo, hi) in zip(got, bounds):
            assert lo <= target <= hi
        if bounds and sum(lo for lo, _ in bounds) <= pool:
            assert sum(got) <= pool



# node states drawn for the differential test, free and busy the most
# often: free, busy until a deadline, down, held, or busy on a node whose
# fault starts this instant
NODE_STATES = ("free", "free", "free", "busy", "busy", "busy", "down", "held", "busy_down")
KIND_NAMES = {CPU: "cpu", GPU: "gpu", CLOUD: "cloud"}


@st.composite
def plan_inputs(draw):
    now = draw(st.integers(0, 5))
    kinds = draw(st.lists(st.sampled_from((CPU, GPU, CLOUD)), min_size=1, max_size=3))
    per_kind = {}
    clusters = []
    for kind in kinds:
        cid = f"{KIND_NAMES[kind]}{per_kind.setdefault(kind, 0)}"
        per_kind[kind] += 1
        nodes = [(draw(st.sampled_from(NODE_STATES)), now + draw(st.integers(2, 14)))
                 for _ in range(draw(st.integers(2, 8)))]
        clusters.append((cid, kind, nodes))
    # a reservation starts at a busy node's deadline: walls that end
    # there, or 1 ms later, from the check's three clock readings probe the
    # backfill boundary
    ends = sorted({deadline - now for _cid, _kind, nodes in clusters
                   for state, deadline in nodes if state.startswith("busy")})
    jobs = []
    for i in range(draw(st.integers(1, 12))):
        if ends and draw(st.booleans()):
            wall = max(1, draw(st.sampled_from(ends)) - draw(st.integers(0, 2)))
        else:
            wall = draw(st.integers(1, 16))
        if draw(st.integers(0, 2)) == 0:
            lo = draw(st.integers(1, 3))
            shape, prefs = Elastic(min_workers=lo, max_workers=lo + draw(st.integers(0, 2))), (CLOUD,)
        else:
            shape = Rigid(node_count=draw(st.integers(1, 4)))
            prefs = tuple(draw(st.permutations((CPU, GPU, CLOUD)))[:draw(st.integers(1, 3))])
        spec = JobSpec(name=f"q{i}", user_id="u", kind_preferences=prefs, shape=shape,
                       work_units=10, walltime_limit_ms=wall,
                       priority=draw(st.integers(0, 2)))
        jobs.append((f"q{i:02d}", spec, draw(st.booleans())))
    return now, clusters, jobs


@pytest.mark.extra_seeds
class TestPlanAgainstReference:
    """plan() returns what the straight queue walk in oracles returns."""

    @given(plan_inputs())
    @settings(max_examples=250, deadline=None)
    def test_same_decision_as_reference_plan(self, drawn):
        # one drawn site at three clock readings, before every node's
        # deadline, under every combination of the scheduler flags
        now, clusters, jobs = drawn
        for shift, backfill, rigid_on_cloud, first_only in itertools.product(
                (0, 1, 2), (True, False), (True, False), (True, False)):
            self.check(now + shift, clusters, jobs,
                       dict(backfill=backfill, hybrid_rigid_on_cloud=rigid_on_cloud,
                            first_preference_only=first_only))

    @staticmethod
    def check(now, clusters, jobs, flags):
        sched, records = mk([cluster(cid, kind, len(nodes)) for cid, kind, nodes in clusters],
                            **flags)
        ref_clusters = {}
        for cid, kind, nodes in clusters:
            cs = sched.clusters[cid]
            busy = {}
            for n, (state, deadline) in enumerate(nodes):
                if state in ("busy", "busy_down"):
                    # a job started at t=0 whose walltime ends at the deadline
                    rec = rigid(f"r-{cid}-{n}", 1, wall=deadline, prefs=(kind,))
                    rec.state = JobState.RUNNING
                    rec.allocation = Allocation(job_id=rec.job_id, cluster_id=cid,
                                                node_indices=(n,), start_ms=0)
                    records[rec.job_id] = rec
                    cs.owner[n] = rec.job_id
                    busy[n] = deadline
                if state in ("down", "busy_down"):
                    cs.down.add(n)
                if state == "held":
                    cs.held.add(n)
            ref_clusters[cid] = (len(nodes), busy, set(cs.down), set(cs.held))

        # the acceptance sets, worked out here from the documented policy
        by_kind = {}
        for cid, kind, _nodes in sorted(clusters):
            by_kind.setdefault(kind, []).append(cid)
        queued = []
        for seq, (job_id, spec, _requeued) in enumerate(jobs):
            if isinstance(spec.shape, Elastic):
                prefs, needed = (CLOUD,), spec.shape.min_workers
            else:
                prefs, needed = spec.kind_preferences, spec.shape.node_count
                if flags["first_preference_only"]:
                    prefs = prefs[:1]
                if not flags["hybrid_rigid_on_cloud"]:
                    prefs = tuple(k for k in prefs if k is not CLOUD)
            accept = tuple(cid for kind in prefs for cid in by_kind.get(kind, ()))
            record = JobRecord(job_id=job_id, state=JobState.QUEUED, spec=spec)
            records[job_id] = record
            if all(ref_clusters[cid][0] < needed for cid in accept):
                with pytest.raises(Unsatisfiable):
                    sched.enqueue(record, now)
                continue
            sched.enqueue(record, now)
            queued.append(((-spec.priority, seq, job_id),
                           (job_id, needed, spec.walltime_limit_ms, accept)))
        # a requeued job goes back to the position of its first submission
        for job_id, spec, requeued in jobs:
            if requeued and sched.remove_queued(job_id):
                sched.enqueue(records[job_id], now)
        queue = [entry for _key, entry in sorted(queued)]
        assert sched.queued_jobs() == [job_id for job_id, *_rest in queue]

        decision = sched.plan(now)
        want_starts, want_reservation = oracles.reference_plan(
            ref_clusters, queue, now, backfill=flags["backfill"])
        assert [(job_id, a.cluster_id, a.node_indices)
                for job_id, a in decision.starts] == want_starts
        r = decision.reservation
        assert (None if r is None else
                (r.job_id, r.cluster_id, r.node_indices, r.start_ms, r.expected_end_ms)
                ) == want_reservation
        started = {job_id for job_id, *_rest in want_starts}
        assert sched.queued_jobs() == [job_id for job_id, *_rest in queue
                                       if job_id not in started]
