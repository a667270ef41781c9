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

from .model import ClusterSpec, Elastic, JobRecord, JobSpec, ResourceKind, SimConfig
from .model import transition  # noqa: F401 - perfbench/tracer.py wraps it here


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


class Unsatisfiable(SchedulerError):
    """No acceptable cluster owns enough nodes for this job, ever."""

    def __init__(self, job_id: str, needed: int):
        self.job_id = job_id
        self.needed = needed
        super().__init__(f"job {job_id} needs {needed} nodes; no acceptable cluster has them")


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
    """Output of one plan cycle: ids of the jobs to start now, plus head reservation."""

    starts: tuple[str, ...]
    reservation: Optional[Reservation]


class ClusterState:
    """Node bookkeeping for one cluster.

    owner maps each busy node to the job holding it, and is the one
    record of occupancy: a job holds nodes exactly while the nodes on its
    JobRecord are owned by it. The scheduler writes both. A node is free
    iff it has no owner, is not down, and is not held by a virtual
    cluster.
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
    a JobRecord's placement (cluster_id, node_indices, start_ms) and
    submit_seq and of ClusterState.owner. It neither reads nor writes a
    job's lifecycle state: the simulation engine drives it through one
    serialized command stream, turns its decisions into lifecycle
    events, and asks it to release or dequeue a job that ends.
    """

    def __init__(self, clusters: dict[str, ClusterState], records: dict[str, JobRecord],
                 config: SimConfig):
        self.clusters = clusters
        self.records = records
        self.config = config
        # one entry per queued job, kept sorted: (-priority, submit_seq,
        # job_id, needed, wall_ms, accept). The first three fields are
        # unique, so sorting never compares the rest, the plan cycle's facts
        # fixed at enqueue: nodes to start, walltime, and acceptable cluster
        # ids in preference scan order
        self._queue: list[tuple] = []
        self._submit_seq = 0
        # cluster ids per kind, lexicographic, fixed at construction; the engine reads it too
        self.by_kind: dict[ResourceKind, list[str]] = {}
        for cid in sorted(clusters):
            self.by_kind.setdefault(clusters[cid].spec.kind, []).append(cid)

    # -- queue ------------------------------------------------------------

    def enqueue(self, job: JobRecord) -> None:
        """Insert a Queued job preserving the total order.

        A job's first enqueue stores its submit_seq on its record; a
        requeue after a node loss keeps it, so the job goes back to its
        old position rather than the tail. Raises Unsatisfiable, and
        queues nothing, when no acceptable cluster owns enough nodes.
        """
        job_id = job.job_id
        if self._queue_index(job) is not None or self._holds_nodes(job):
            raise DuplicateJob(job_id)
        needed = job.spec.needed_nodes()
        accept = self._acceptable_clusters(self.effective_preferences(job.spec))
        if all(self.clusters[cid].spec.node_count < needed for cid in accept):
            raise Unsatisfiable(job_id, needed)
        seq = job.submit_seq
        if seq is None:
            seq = job.submit_seq = self._submit_seq
            self._submit_seq += 1
        bisect.insort(self._queue, (-job.spec.priority, seq, job_id, needed,
                                    job.spec.walltime_limit_ms, accept))

    def _queue_index(self, job: JobRecord) -> Optional[int]:
        """Position of the job's entry in the queue, or None if it is not queued."""
        if job.submit_seq is None:   # never queued
            return None
        queue = self._queue
        i = bisect.bisect_left(queue, (-job.spec.priority, job.submit_seq, job.job_id))
        return i if i < len(queue) and queue[i][2] == job.job_id else None

    def remove_queued(self, job_id: str) -> bool:
        record = self.records.get(job_id)
        i = None if record is None else self._queue_index(record)
        if i is None:
            return False
        del self._queue[i]
        return True

    def queue_length(self) -> int:
        """Jobs queued. Kept only for perfbench/tracer.py, which reads it on every plan."""
        return len(self._queue)

    # -- helpers ----------------------------------------------------------

    def effective_preferences(self, spec: JobSpec) -> tuple[ResourceKind, ...]:
        """Kinds the scheduler may actually use for this job.

        Elastic jobs run only on cloud pools. Rigid jobs drop the cloud
        kind unless hybrid placement of rigid work on spare VMs is on.
        With first_preference_only (the statically partitioned baseline)
        a rigid job is pinned to its primary kind. This is the one
        statement of that rule: the cloud layer's routing reads it too.
        """
        if isinstance(spec.shape, Elastic):
            return (ResourceKind.CLOUD,)
        prefs = spec.kind_preferences
        if self.config.first_preference_only:
            prefs = prefs[:1]
        if not self.config.hybrid_rigid_on_cloud:
            prefs = tuple(k for k in prefs if k is not ResourceKind.CLOUD)
        return prefs

    def _acceptable_clusters(self, prefs: tuple[ResourceKind, ...]) -> tuple[str, ...]:
        return tuple(cid for kind in prefs for cid in self.by_kind.get(kind, ()))

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
        starts: list[str] = []
        reservation: Optional[Reservation] = None
        reserved_set: frozenset[int] = frozenset()
        res_cid: Optional[str] = None
        res_start = 0
        res_usable = 0   # free nodes of res_cid outside reserved_set
        free: dict[str, list[int]] = {}
        free_len = {cid: cs.free_count() for cid, cs in self.clusters.items()}
        free_total = sum(free_len.values())

        for _prio, _seq, job_id, needed, wall, accept in self._queue:
            if free_total == 0 and reservation is not None:
                break   # no node anywhere, head already protected: nothing can start
            for cid in accept:
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
                reservation = self._reserve(job_id, needed, wall, accept, now_ms, free)
                if reservation is None or not self.config.backfill:
                    # no bounded start for the head (nodes down or held),
                    # or no backfill: nothing may pass it
                    break
                reserved_set = frozenset(reservation.node_indices)
                res_cid = reservation.cluster_id
                res_start = reservation.start_ms
                res_usable = sum(1 for n in self._free(res_cid, free)
                                 if n not in reserved_set)
                continue
            owner = self.clusters[cid].owner
            for n in chosen:
                owner[n] = job_id
            record = self.records[job_id]   # _reserve reads it this cycle
            record.cluster_id = cid
            record.node_indices = chosen
            record.start_ms = now_ms
            starts.append(job_id)
            free_total -= needed
            free_len[cid] -= needed

        for job_id in starts:
            self.remove_queued(job_id)
        return DispatchDecision(starts=tuple(starts), reservation=reservation)

    def _free(self, cid: str, cache: dict[str, list[int]]) -> list[int]:
        if cid not in cache:
            cache[cid] = self.clusters[cid].free_nodes()
        return cache[cid]

    def _reserve(self, head_id: str, needed: int, wall: int, accept: tuple[str, ...],
                 now_ms: int, free_cache) -> Optional[Reservation]:
        """Earliest time enough nodes free up on any acceptable cluster.

        Availability of a busy node is its owner's kill deadline (start
        plus walltime); down and held nodes are not available at any
        bounded time. Ties between clusters go to preference scan order.
        """
        best: Optional[tuple[int, str, tuple[int, ...]]] = None
        records = self.records
        for cid in accept:
            cs = self.clusters[cid]
            if cs.spec.node_count < needed:
                continue
            # (avail_time, node); down and held nodes are never available
            avail = [(now_ms, n) for n in self._free(cid, free_cache)]
            for n, owner_id in cs.owner.items():   # this cycle's starts included
                record = records[owner_id]
                avail.append((record.start_ms + record.spec.walltime_limit_ms, n))
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
        return Reservation(job_id=head_id, cluster_id=cid, node_indices=chosen,
                           start_ms=start, expected_end_ms=start + wall)

    # -- releases ---------------------------------------------------------

    def _holds_nodes(self, record: JobRecord) -> bool:
        """Whether ClusterState.owner gives the job the nodes its record names."""
        nodes = record.node_indices
        return bool(nodes) and self.clusters[record.cluster_id].owner.get(nodes[0]) == record.job_id

    def _placed_record(self, job_id: str) -> JobRecord:
        record = self.records.get(job_id)
        if record is None or not self._holds_nodes(record):
            raise NoAllocation(job_id)
        return record

    def release(self, job_id: str) -> None:
        """Free a job's nodes; its record keeps naming them as its last placement."""
        record = self._placed_record(job_id)
        owner = self.clusters[record.cluster_id].owner
        for n in record.node_indices:
            del owner[n]

    # -- elastic fair share ------------------------------------------------

    def running_elastic_on(self, cid: str) -> list[str]:
        """Elastic job ids holding nodes on a cloud cluster, by submission order.

        A job holds nodes exactly while it runs, so these are the running ones.
        """
        records = self.records
        jobs = {j for j in self.clusters[cid].owner.values()
                if isinstance(records[j].spec.shape, Elastic)}
        return sorted(jobs, key=lambda j: records[j].submit_seq)

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
        held_by_elastic = sum(len(self.records[j].node_indices) for j in jobs)
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
        cs = self.clusters[record.cluster_id]
        current = record.node_indices
        if target < len(current):
            for n in current[target:]:
                del cs.owner[n]
            record.node_indices = current[:target]
        elif target > len(current):
            grab = cs.free_nodes()[: target - len(current)]
            for n in grab:
                cs.owner[n] = job_id
            record.node_indices = tuple(sorted(current + tuple(grab)))
        return record.node_indices


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
