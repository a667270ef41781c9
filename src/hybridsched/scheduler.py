"""Resource scheduling: queue, placement, backfilling, elastic fair share.

The scheduler matches queued jobs to typed pools respecting each job's
ordered kind preferences. Policy is FIFO by (priority, submission order)
with a single head-of-queue reservation and conservative backfilling:
a later job may start out of order only if its walltime-bounded run
provably cannot delay the reserved start of the queue head.

Every tie-break is lexicographic (cluster_id, node index, job_id) so that
identical inputs always produce identical decisions.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

from .model import (
    Allocation,
    ClusterSpec,
    Elastic,
    JobRecord,
    JobState,
    LifecycleEvent,
    ResourceKind,
    transition,
)


class SchedulerError(Exception):
    pass


class DuplicateJob(SchedulerError):
    def __init__(self, job_id: str):
        self.job_id = job_id
        super().__init__(f"job {job_id} is already queued or live")


class NoAllocation(SchedulerError):
    def __init__(self, job_id: str):
        self.job_id = job_id
        super().__init__(f"job {job_id} holds no live allocation")


class AlreadyTerminal(SchedulerError):
    def __init__(self, job_id: str, state: JobState):
        self.job_id = job_id
        self.state = state
        super().__init__(f"job {job_id} is already terminal ({state.value})")


class UnknownJob(SchedulerError):
    def __init__(self, job_id: str):
        self.job_id = job_id
        super().__init__(f"unknown job {job_id}")


class Unsatisfiable(SchedulerError):
    """No acceptable cluster owns enough nodes for this job, ever."""

    def __init__(self, job_id: str, needed: int):
        self.job_id = job_id
        self.needed = needed
        super().__init__(f"job {job_id} needs {needed} nodes; no acceptable cluster has them")


@dataclass(frozen=True, slots=True)
class QueueEntry:
    """One queued job. Queue order is (-priority, submit_seq, job_id).

    needed, wall_ms and accept are the plan cycle's per-job facts, fixed
    at enqueue: nodes to start, walltime, and acceptable cluster ids in
    preference scan order. They leave the scheduler with the entry.
    """

    job_id: str
    priority: int
    submit_seq: int
    needed: int
    wall_ms: int
    accept: tuple[str, ...]

    @property
    def sort_key(self) -> tuple:
        return (-self.priority, self.submit_seq, self.job_id)


@dataclass(frozen=True, slots=True)
class Reservation:
    """Earliest guaranteed start for the blocked head of the queue."""

    job_id: str
    cluster_id: str
    node_indices: tuple[int, ...]
    start_ms: int
    expected_end_ms: int


@dataclass(frozen=True, slots=True)
class DispatchDecision:
    """Output of one plan cycle: jobs to start now, plus head reservation."""

    starts: tuple[tuple[str, Allocation], ...]
    reservation: Optional[Reservation]


class ClusterState:
    """Node bookkeeping for one cluster.

    owner maps each busy node to the job holding it; the job's placement
    itself is its JobRecord.allocation, and the scheduler writes both. A
    node is free iff it has no owner, is not down, and is not held by a
    virtual cluster.
    """

    def __init__(self, spec: ClusterSpec):
        self.spec = spec
        self.owner: dict[int, str] = {}
        self.down: set[int] = set()
        self.held: set[int] = set()

    def free_nodes(self) -> list[int]:
        blocked = self.owner.keys() | self.down | self.held
        return [i for i in range(self.spec.node_count) if i not in blocked]

    def free_count(self) -> int:
        return self.spec.node_count - len(self.owner.keys() | self.down | self.held)

    def busy_count(self) -> int:
        return len(self.owner)


class Scheduler:
    """Single-writer scheduler over a set of cluster states.

    Owns the queue and all placement decisions, and is the one writer of
    JobRecord.allocation and ClusterState.owner; the simulation engine
    (or the live service) drives it through one serialized command
    stream and turns its decisions into lifecycle events.
    """

    def __init__(self, clusters: dict[str, ClusterState], records: dict[str, JobRecord],
                 *, backfill: bool = True, hybrid_rigid_on_cloud: bool = False,
                 first_preference_only: bool = False):
        self.clusters = clusters
        self.records = records
        self.backfill = backfill
        self.hybrid_rigid_on_cloud = hybrid_rigid_on_cloud
        self.first_preference_only = first_preference_only
        self._queue_keys: list[tuple] = []
        self._queue_entries: dict[str, QueueEntry] = {}
        self._submit_seq = 0
        self._seq_of_job: dict[str, int] = {}   # live jobs only; forget() drops one
        # cluster ids per kind, lexicographic, fixed at construction
        self._by_kind: dict[ResourceKind, list[str]] = {}
        for cid in sorted(clusters):
            self._by_kind.setdefault(clusters[cid].spec.kind, []).append(cid)

    # -- queue ------------------------------------------------------------

    def enqueue(self, job: JobRecord, now_ms: int) -> QueueEntry:
        """Insert a Queued job preserving the total order.

        A job requeued after a node loss keeps its original submit_seq, so
        it goes back to its old position rather than the tail. Raises
        Unsatisfiable, and queues nothing, when no acceptable cluster owns
        enough nodes.
        """
        job_id = job.job_id
        if job_id in self._queue_entries or job.allocation is not None:
            raise DuplicateJob(job_id)
        needed = job.spec.needed_nodes()
        accept = self._acceptable_clusters(self.effective_preferences(job))
        if all(self.clusters[cid].spec.node_count < needed for cid in accept):
            raise Unsatisfiable(job_id, needed)
        if job_id in self._seq_of_job:
            seq = self._seq_of_job[job_id]
        else:
            seq = self._submit_seq
            self._submit_seq += 1
            self._seq_of_job[job_id] = seq
        entry = QueueEntry(job_id, job.spec.priority, seq, needed,
                           job.spec.walltime_limit_ms, accept)
        bisect.insort(self._queue_keys, entry.sort_key)
        self._queue_entries[job_id] = entry
        return entry

    def remove_queued(self, job_id: str) -> bool:
        entry = self._queue_entries.pop(job_id, None)
        if entry is None:
            return False
        idx = bisect.bisect_left(self._queue_keys, entry.sort_key)
        del self._queue_keys[idx]
        return True

    def forget(self, job_id: str):
        """Drop what the scheduler still keeps of a job that has ended."""
        self._seq_of_job.pop(job_id, None)

    def queued_jobs(self) -> list[str]:
        """Job ids in queue order."""
        return [key[2] for key in self._queue_keys]

    def queue_length(self) -> int:
        """Jobs queued. Kept only for perfbench/tracer.py, which reads it on every plan."""
        return len(self._queue_keys)

    # -- helpers ----------------------------------------------------------

    def effective_preferences(self, job: JobRecord) -> tuple[ResourceKind, ...]:
        """Kinds the scheduler may actually use for this job.

        Elastic jobs run only on cloud pools. Rigid jobs drop the cloud
        kind unless hybrid placement of rigid work on spare VMs is on.
        With first_preference_only (the statically partitioned baseline)
        a rigid job is pinned to its primary kind.
        """
        if isinstance(job.spec.shape, Elastic):
            return (ResourceKind.CLOUD,)
        prefs = job.spec.kind_preferences
        if self.first_preference_only:
            prefs = prefs[:1]
        if not self.hybrid_rigid_on_cloud:
            prefs = tuple(k for k in prefs if k is not ResourceKind.CLOUD)
        return prefs

    def _acceptable_clusters(self, prefs: tuple[ResourceKind, ...]) -> tuple[str, ...]:
        return tuple(cid for kind in prefs for cid in self._by_kind.get(kind, ()))

    # -- planning ---------------------------------------------------------

    def plan(self, now_ms: int) -> DispatchDecision:
        """One scheduling pass over the queue at virtual time now_ms.

        Every entry, in queue order, starts on the first acceptable
        cluster with enough usable free nodes and takes the lowest of
        them. Until a reservation exists every free node is usable. The
        first entry that cannot start is the head: it gets a reservation
        and, if backfill is on, the walk goes on past it. From then on the
        reserved nodes are off limits to a job on the reserved cluster
        that would still run at the reservation start; any other job may
        use them. No reservation, or backfill off, ends the pass.
        """
        starts: list[tuple[str, Allocation]] = []
        reservation: Optional[Reservation] = None
        reserved_set: frozenset[int] = frozenset()
        res_cid: Optional[str] = None
        res_start = 0
        res_usable = 0   # free nodes of res_cid outside reserved_set
        free: dict[str, list[int]] = {}
        free_len = {cid: cs.free_count() for cid, cs in self.clusters.items()}
        free_total = sum(free_len.values())

        entries = self._queue_entries
        for key in self._queue_keys:
            if free_total == 0 and reservation is not None:
                break   # no node anywhere, head already protected: nothing can start
            entry = entries[key[2]]
            needed = entry.needed
            wall = entry.wall_ms
            for cid in entry.accept:
                if cid == res_cid and now_ms + wall > res_start:
                    if res_usable >= needed:
                        nodes = self._free(cid, free)
                        chosen = tuple([n for n in nodes if n not in reserved_set][:needed])
                        for n in chosen:
                            nodes.remove(n)
                        res_usable -= needed
                        break
                elif free_len[cid] >= needed:
                    nodes = self._free(cid, free)
                    chosen = tuple(nodes[:needed])
                    del nodes[:needed]
                    if cid == res_cid:
                        res_usable -= sum(1 for n in chosen if n not in reserved_set)
                    break
            else:
                if reservation is not None:
                    continue
                reservation = self._reserve(entry, now_ms, free)
                if reservation is None or not self.backfill:
                    # no bounded start for the head (nodes down or held),
                    # or no backfill: nothing may pass it
                    break
                reserved_set = frozenset(reservation.node_indices)
                res_cid = reservation.cluster_id
                res_start = reservation.start_ms
                res_usable = sum(1 for n in self._free(res_cid, free)
                                 if n not in reserved_set)
                continue
            job_id = entry.job_id
            alloc = Allocation(job_id=job_id, cluster_id=cid, node_indices=chosen,
                               start_ms=now_ms)
            owner = self.clusters[cid].owner
            for n in chosen:
                owner[n] = job_id
            self.records[job_id].allocation = alloc   # _reserve reads it this cycle
            starts.append((job_id, alloc))
            free_total -= needed
            free_len[cid] -= needed

        for job_id, _alloc in starts:
            self.remove_queued(job_id)
        return DispatchDecision(starts=tuple(starts), reservation=reservation)

    def _free(self, cid: str, cache: dict[str, list[int]]) -> list[int]:
        if cid not in cache:
            cache[cid] = self.clusters[cid].free_nodes()
        return cache[cid]

    def _reserve(self, entry: QueueEntry, now_ms: int, free_cache) -> Optional[Reservation]:
        """Earliest time enough nodes free up on any acceptable cluster.

        Availability of a busy node is the walltime-bounded end of its
        allocation; down and held nodes are not available at any bounded
        time. Ties between clusters go to preference scan order.
        """
        best: Optional[tuple[int, str, tuple[int, ...]]] = None
        needed = entry.needed
        records = self.records
        for cid in entry.accept:
            cs = self.clusters[cid]
            if cs.spec.node_count < needed:
                continue
            # (avail_time, node); down and held nodes are never available
            avail = [(now_ms, n) for n in self._free(cid, free_cache)]
            for n, job_id in cs.owner.items():   # this cycle's starts included
                record = records[job_id]
                avail.append((record.allocation.start_ms + record.spec.walltime_limit_ms, n))
            if len(avail) < needed:
                continue
            avail.sort()
            start = max(now_ms, avail[needed - 1][0])
            chosen = tuple(sorted(n for t, n in avail if t <= start)[:needed])
            if best is None or start < best[0]:
                best = (start, cid, chosen)
        if best is None:
            return None
        start, cid, chosen = best
        return Reservation(job_id=entry.job_id, cluster_id=cid, node_indices=chosen,
                           start_ms=start, expected_end_ms=start + entry.wall_ms)

    # -- releases and cancellation ---------------------------------------

    def _placed_record(self, job_id: str) -> JobRecord:
        record = self.records.get(job_id)
        if record is None or record.allocation is None:
            raise NoAllocation(job_id)
        return record

    def release(self, job_id: str) -> tuple[str, tuple[int, ...]]:
        """Free all nodes of a live allocation; returns (cluster_id, nodes)."""
        record = self._placed_record(job_id)
        alloc = record.allocation
        record.allocation = None
        owner = self.clusters[alloc.cluster_id].owner
        for n in alloc.node_indices:
            del owner[n]
        return alloc.cluster_id, alloc.node_indices

    def cancel(self, job_id: str, now_ms: int) -> tuple[JobState, tuple[int, ...]]:
        """Cancel wherever the job currently is; returns (new state, freed nodes)."""
        job = self.records.get(job_id)
        if job is None:
            raise UnknownJob(job_id)
        if job.state.terminal:
            raise AlreadyTerminal(job_id, job.state)
        freed: tuple[int, ...] = ()
        if job.state is JobState.QUEUED:
            self.remove_queued(job_id)
        elif job.state in (JobState.DISPATCHED, JobState.RUNNING):
            _, freed = self.release(job_id)
        job.state = transition(job.state, LifecycleEvent.CANCEL_REQUESTED)
        return job.state, freed

    # -- elastic fair share ------------------------------------------------

    def running_elastic_on(self, cid: str) -> list[str]:
        """Running elastic job ids on a cloud cluster, by submission order."""
        out = []
        for job_id in set(self.clusters[cid].owner.values()):
            job = self.records[job_id]
            if isinstance(job.spec.shape, Elastic) and job.state is JobState.RUNNING:
                out.append(job_id)
        out.sort(key=lambda j: self._seq_of_job[j])
        return out

    def elastic_targets(self, cid: str, reservation: Optional[Reservation] = None
                        ) -> list[tuple[str, int]]:
        """Fair-share worker targets for the running elastic jobs on `cid`.

        The distributable pool is the cluster's free nodes plus nodes held
        by elastic jobs; free nodes inside a head reservation on this
        cluster are off limits so that growth cannot delay the head.
        """
        cs = self.clusters[cid]
        jobs = self.running_elastic_on(cid)
        if not jobs:
            return []
        free = cs.free_nodes()
        if reservation is not None and reservation.cluster_id == cid:
            reserved = set(reservation.node_indices)
            free = [n for n in free if n not in reserved]
        held_by_elastic = sum(len(self.records[j].allocation.node_indices) for j in jobs)
        pool = len(free) + held_by_elastic
        bounds = []
        for job_id in jobs:
            shape = self.records[job_id].spec.shape
            bounds.append((shape.min_workers, shape.max_workers))
        targets = fair_share_targets(pool, bounds)
        return list(zip(jobs, targets))

    def apply_worker_count(self, job_id: str, target: int) -> tuple[int, ...]:
        """Shrink or grow a running elastic allocation to `target` workers.

        Shrinks drop the highest node indices; growth takes the lowest
        free indices. Growth is clamped by what is actually free.
        """
        record = self._placed_record(job_id)
        alloc = record.allocation
        cs = self.clusters[alloc.cluster_id]
        current = list(alloc.node_indices)
        if target < len(current):
            new_nodes = tuple(current[: target])
            for n in current[target:]:
                del cs.owner[n]
        elif target > len(current):
            grab = cs.free_nodes()[: target - len(current)]
            for n in grab:
                cs.owner[n] = job_id
            new_nodes = tuple(sorted(current + grab))
        else:
            return alloc.node_indices
        record.allocation = Allocation(job_id=job_id, cluster_id=alloc.cluster_id,
                                       node_indices=new_nodes, start_ms=alloc.start_ms)
        return new_nodes


def fair_share_targets(pool: int, bounds: list[tuple[int, int]]) -> list[int]:
    """Integer fair shares of `pool` nodes over jobs with (min, max) bounds.

    Base share is pool // n with the remainder going to the earliest
    submitters; each share is clamped into its job's bounds. If clamping
    at minima oversubscribes the pool, the overage is taken back from the
    latest submitters (never below a job's minimum).
    """
    n = len(bounds)
    if n == 0:
        return []
    fair, rem = divmod(pool, n)
    targets = []
    for i, (lo, hi) in enumerate(bounds):
        share = fair + (1 if i < rem else 0)
        targets.append(min(max(share, lo), hi))
    excess = sum(targets) - pool
    if excess > 0:
        for i in range(n - 1, -1, -1):
            if excess <= 0:
                break
            cut = min(excess, targets[i] - bounds[i][0])
            targets[i] -= cut
            excess -= cut
    return targets
