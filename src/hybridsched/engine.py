"""Deterministic discrete-event simulation of the cluster platform.

The engine stands in for the real clusters: it executes dispatched jobs
under the linear work model, fires completions, walltime kills, node
failures and recoveries, runs a scheduler plan cycle after every event,
and appends everything to a totally ordered event log whose canonical
JSON Lines form is byte-identical across runs of the same inputs.

The core consumes no randomness; determinism is structural. Progress of
running jobs is accounted in integer work milli-units (work_units x 1000)
credited at speed_factor x workers per virtual millisecond, so a rigid
job finishes after exactly ceil(1000 x work / (speed x nodes)) ms and an
elastic job finishes at the first instant its credited work reaches the
requirement, with an exact ceiling-division solve between rescales.
"""

from __future__ import annotations

import heapq
import io
import json
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Optional

from .model import (
    ClusterSpec,
    Elastic,
    JobRecord,
    JobSpec,
    JobState,
    LifecycleEvent,
    ResourceKind,
    projected_nodes,
    transition,
    validate_cluster,
    validate_job,
)
from .scheduler import ClusterState, DispatchDecision, Scheduler, Unsatisfiable


class SimEventKind(str, Enum):
    JOB_SUBMITTED = "JobSubmitted"
    JOB_QUEUED = "JobQueued"
    JOB_STARTED = "JobStarted"
    JOB_FINISHED = "JobFinished"
    JOB_FAILED = "JobFailed"
    JOB_TIMED_OUT = "JobTimedOut"
    JOB_CANCELLED = "JobCancelled"
    NODE_DOWN = "NodeDown"
    NODE_UP = "NodeUp"
    NODES_HELD = "NodesHeld"
    NODES_RELEASED = "NodesReleased"
    RESCALE_APPLIED = "RescaleApplied"


TERMINAL_EVENT_KINDS = frozenset({
    SimEventKind.JOB_FINISHED,
    SimEventKind.JOB_FAILED,
    SimEventKind.JOB_TIMED_OUT,
    SimEventKind.JOB_CANCELLED,
})


# One encoder for every line: json.dumps would build a new one per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def payload_get(payload: tuple, key: str):
    """The value of `key` in a flat payload, or None when it is absent."""
    i, n = 0, len(payload)
    while i < n:            # a while loop: a range object per call costs more
        if payload[i] == key:
            return payload[i + 1]
        i += 2
    return None


def canonical_line(t_ms: int, seq: int, kind: SimEventKind, payload: tuple) -> str:
    """Fixed serialization: t, seq, kind, then payload keys alphabetical."""
    obj = {"t": t_ms, "seq": seq, "kind": kind.value}
    for i in range(0, len(payload), 2):
        obj[payload[i]] = payload[i + 1]
    return _ENCODER.encode(obj)


@dataclass(frozen=True, slots=True)
class SimEvent:
    """One log entry, totally ordered by (t_ms, seq).

    The log stores no SimEvent: `EventLog.events` builds one when an
    entry is read. payload is flat, (k1, v1, k2, v2, ...), with its keys
    in canonical (alphabetical) order as each emit site writes them. Kept
    only because the benchmark (perfbench/run.py) reads `log.events[-1].t_ms`.
    """

    t_ms: int
    seq: int
    kind: SimEventKind
    payload: tuple


class EventView:
    """Read-only indexable view of a log's events, each SimEvent built on read.

    It holds the log's columns, not the log, so it makes no reference
    cycle. Kept only for the benchmark (perfbench/run.py), which indexes it.
    """

    __slots__ = ("_t_ms", "_kind", "_payload")

    def __init__(self, t_ms: list, kind: list, payload: list):
        self._t_ms, self._kind, self._payload = t_ms, kind, payload

    def __len__(self):
        return len(self._t_ms)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._t_ms)))]
        seq = index + len(self._t_ms) if index < 0 else index
        if not 0 <= seq < len(self._t_ms):
            raise IndexError("event index out of range")
        return SimEvent(self._t_ms[seq], seq, self._kind[seq], self._payload[seq])


class EventLog:
    """Append-only event record with a byte-stable canonical form.

    Events are kept as three parallel columns (t_ms, kind, flat payload
    tuple); an event's seq is its position, so an entry costs three list
    slots and no object of its own.
    """

    def __init__(self):
        self.t_ms: list[int] = []
        self.kind: list[SimEventKind] = []
        self.payload: list[tuple] = []
        self.events = EventView(self.t_ms, self.kind, self.payload)

    def append(self, t_ms: int, kind: SimEventKind, payload: tuple):
        """Add one event; its seq is the log's length before the call."""
        self.t_ms.append(t_ms)
        self.kind.append(kind)
        self.payload.append(payload)

    def __len__(self):
        return len(self.t_ms)

    def rows(self):
        """(t_ms, kind, payload) of every event in seq order, no SimEvent built."""
        return zip(self.t_ms, self.kind, self.payload)

    def canonical_lines(self) -> list[str]:
        """Every canonical line, in one list. Kept only for the benchmark (perfbench/run.py)."""
        return [canonical_line(t_ms, seq, kind, payload)
                for seq, (t_ms, kind, payload) in enumerate(self.rows())]

    def canonical_bytes(self) -> bytes:
        """The canonical form, serialized into one buffer: no list of lines, no joined copy."""
        buf = io.BytesIO()
        self._serialize(buf)
        return buf.getvalue()

    def write(self, path):
        """Write the canonical bytes one line at a time, never the whole log at once."""
        with open(path, "wb") as fh:
            self._serialize(fh)

    def _serialize(self, fh):
        """The one line loop behind write and canonical_bytes."""
        for seq, (t_ms, kind, payload) in enumerate(self.rows()):
            fh.write((canonical_line(t_ms, seq, kind, payload) + "\n").encode("utf-8"))

    @classmethod
    def parse_lines(cls, lines) -> "EventLog":
        """Rebuild a log from canonical lines.

        Raises ValueError on a line whose seq is not its position.
        """
        log = cls()
        for line in lines:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj["seq"] != len(log):
                raise ValueError(f"event seq {obj['seq']} at position {len(log)}")
            payload = tuple(chain.from_iterable(sorted(
                (k, v) for k, v in obj.items() if k not in ("t", "seq", "kind"))))
            log.append(obj["t"], SimEventKind(obj["kind"]), payload)
        return log

    @classmethod
    def read(cls, path) -> "EventLog":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse_lines(fh)


@dataclass
class SimConfig:
    """Tunable policy knobs; defaults give the full hybrid-sharing setup."""

    retry_budget: int = 1
    horizon_ms: int = 10_000_000_000
    backfill: bool = True
    hybrid_rigid_on_cloud: bool = False
    first_preference_only: bool = False


class SimulationError(Exception):
    pass


class NonTerminating(SimulationError):
    """Virtual time passed the horizon (or events ran dry) with live jobs."""

    def __init__(self, detail: str):
        super().__init__(detail)


class UnknownNode(SimulationError):
    def __init__(self, cluster_id: str, node_index: int):
        super().__init__(f"no node {node_index} on cluster {cluster_id}")


class PastTime(SimulationError):
    def __init__(self, at_ms: int, now_ms: int):
        super().__init__(f"cannot schedule at {at_ms}; clock already at {now_ms}")


class DuplicateCluster(SimulationError):
    def __init__(self, cluster_id: str):
        super().__init__(f"duplicate cluster_id {cluster_id}")


@dataclass(slots=True)
class _RunState:
    """Timer and crediting state of one live job; its placement and work are on its JobRecord."""

    epoch: int = 0
    retries_left: int = 1
    credit_from_ms: int = 0       # crediting starts here (start + staging)


# pending-entry tags; an entry is (t_ms, tick, tag, a, b) with (a, b)
# (job_id, spec) for an arrival, (job_id, epoch) for a finish or a kill
# and (cluster_id, node_index) for a node going down or up
_ARRIVAL = 0
_FINISH = 1
_KILL = 2
_NODE_DOWN = 3
_NODE_UP = 4


class Simulation:
    """Single-threaded deterministic engine over one set of clusters.

    Drive it either in batch (schedule_arrival + run_to_quiescence, as
    run_trace does) or incrementally (submit_now / cancel_now /
    advance_to, as the live service does; step is advance_to that also
    returns the events of the window). Instances share nothing; run as
    many in parallel as you like.
    """

    def __init__(self, clusters: list[ClusterSpec], config: Optional[SimConfig] = None,
                 catalog=None):
        self.config = config or SimConfig()
        self.catalog = catalog
        seen = set()
        for spec in clusters:
            validate_cluster(spec)
            if spec.cluster_id in seen:
                raise DuplicateCluster(spec.cluster_id)
            seen.add(spec.cluster_id)
        states = {s.cluster_id: ClusterState(s) for s in sorted(clusters, key=lambda s: s.cluster_id)}
        self.records: dict[str, JobRecord] = {}
        self.scheduler = Scheduler(
            states, self.records,
            backfill=self.config.backfill,
            hybrid_rigid_on_cloud=self.config.hybrid_rigid_on_cloud,
            first_preference_only=self.config.first_preference_only,
        )
        # elastic jobs run only on cloud pools, so only these can rescale
        self._cloud_ids = [cid for cid, cs in states.items()
                           if cs.spec.kind is ResourceKind.CLOUD]
        self.log = EventLog()
        self.clock = 0
        self._pending: list[tuple] = []     # heap of (t_ms, tick, tag, a, b)
        self._tick = 0
        # per-job state of live jobs only: _retire drops a job's entries as
        # it ends and leaves its result facts on its JobRecord
        self._run: dict[str, _RunState] = {}
        self._user_load: dict[str, tuple[int, int]] = {}   # user -> (live jobs, projected nodes)
        self._job_idx = 0
        self._down_depth: dict[tuple[str, int], int] = {}   # faults open per node
        # t_ms -> (cluster, node) of faults due then; kept while t_ms >= clock
        self._fault_starts: dict[int, list[tuple[str, int]]] = {}
        self._known_kinds = {s.kind for s in clusters}

    # -- plumbing ---------------------------------------------------------

    @property
    def now_ms(self) -> int:
        return self.clock

    def clusters(self) -> dict[str, ClusterState]:
        return self.scheduler.clusters

    def _emit(self, kind: SimEventKind, *payload):
        """Log an event now; payload is (k1, v1, k2, v2, ...), keys in alphabetical order."""
        self.log.append(self.clock, kind, payload)

    def _push(self, t_ms: int, tag: int, a, b):
        heapq.heappush(self._pending, (t_ms, self._tick, tag, a, b))
        self._tick += 1

    def new_job_id(self) -> str:
        job_id = f"j{self._job_idx:06d}"
        self._job_idx += 1
        return job_id

    def live_jobs(self) -> list[str]:
        return list(self._run)

    def user_load(self, user_id: str) -> tuple[int, int]:
        """(live jobs, their projected nodes in total) of one user."""
        return self._user_load.get(user_id, (0, 0))

    # -- submission and control -------------------------------------------

    def schedule_arrival(self, t_ms: int, spec: JobSpec, job_id: Optional[str] = None) -> str:
        if t_ms < self.clock:
            raise PastTime(t_ms, self.clock)
        job_id = job_id or self.new_job_id()
        self._push(t_ms, _ARRIVAL, job_id, spec)
        return job_id

    def submit_now(self, spec: JobSpec, job_id: Optional[str] = None) -> str:
        """Process a submission synchronously at the current clock."""
        validate_job(spec, self._known_kinds)   # before an id is consumed
        job_id = job_id or self.new_job_id()
        self._handle_arrival(job_id, spec)
        self._plan_cycle()
        return job_id

    def cancel_now(self, job_id: str) -> JobState:
        """Cancel a job at the current clock (AlreadyTerminal if done)."""
        if job_id in self._run:
            self._credit(job_id)    # a running job keeps the work done up to now
        state, _freed = self.scheduler.cancel(job_id, self.clock)
        self.records[job_id].end_ms = self.clock
        self._retire(job_id)
        self._emit(SimEventKind.JOB_CANCELLED, "job_id", job_id)
        self._plan_cycle()
        return state

    def inject_node_failure(self, cluster_id: str, node_index: int, at_ms: int, down_ms: int):
        """Schedule a NodeDown/NodeUp pair for one node."""
        cs = self.scheduler.clusters.get(cluster_id)
        if cs is None or not (0 <= node_index < cs.spec.node_count):
            raise UnknownNode(cluster_id, node_index)
        if at_ms < self.clock:
            raise PastTime(at_ms, self.clock)
        if down_ms < 1:
            raise SimulationError("down_ms must be >= 1")
        self._push(at_ms, _NODE_DOWN, cluster_id, node_index)
        self._fault_starts.setdefault(at_ms, []).append((cluster_id, node_index))
        self._push(at_ms + down_ms, _NODE_UP, cluster_id, node_index)

    # -- vcluster carve-outs (driven by the cloud layer) ------------------

    def hold_nodes(self, cluster_id: str, nodes: tuple[int, ...]):
        """Mark free nodes invisible to the scheduler (vcluster carve-out); logs NodesHeld."""
        cs = self.scheduler.clusters[cluster_id]
        free = set(cs.free_nodes())
        for n in nodes:
            if n not in free:
                raise SimulationError(f"node {n} on {cluster_id} is not free")
        cs.held.update(nodes)
        self._emit(SimEventKind.NODES_HELD,
                   "cluster_id", cluster_id, "node_indices", sorted(nodes))

    def release_hold(self, cluster_id: str, nodes: tuple[int, ...]):
        """Return carved-out nodes to scheduler visibility, log NodesReleased, replan."""
        cs = self.scheduler.clusters[cluster_id]
        cs.held.difference_update(nodes)
        self._emit(SimEventKind.NODES_RELEASED,
                   "cluster_id", cluster_id, "node_indices", sorted(nodes))
        self._plan_cycle()

    # -- time -------------------------------------------------------------

    def step(self, until_ms: int) -> list[SimEvent]:
        """advance_to plus the window's events; kept only because perfbench/tracer.py wraps it."""
        mark = len(self.log)
        self.advance_to(until_ms)
        return self.log.events[mark:]

    def advance_to(self, until_ms: int) -> None:
        """Advance the clock to until_ms, processing everything due.

        Builds no SimEvent. The clock never moves backward: a stale
        until_ms is a no-op.
        """
        while self._pending and self._pending[0][0] <= until_ms:
            self._process_one()
        self._advance_clock(until_ms)

    def run_to_quiescence(self) -> None:
        """Process every pending event; all jobs must end terminal."""
        while self._pending:
            self._process_one()
        live = self.live_jobs()
        if live:
            raise NonTerminating(
                f"no events remain but {len(live)} job(s) still live at t={self.clock}: "
                + ", ".join(sorted(live)[:10])
            )

    def _process_one(self):
        t_ms, _tick, tag, a, b = self._pending[0]
        if t_ms > self.config.horizon_ms and self.live_jobs():
            # the event stays pending, so a caller that raises the horizon
            # and steps again loses no timer
            raise NonTerminating(
                f"virtual time {t_ms} exceeds horizon {self.config.horizon_ms} "
                f"with live jobs: {', '.join(sorted(self.live_jobs())[:10])}"
            )
        heapq.heappop(self._pending)
        self._advance_clock(t_ms)
        if tag == _ARRIVAL:
            validate_job(b, self._known_kinds)
            self._handle_arrival(a, b)
        elif tag == _FINISH:
            if not self._timer_valid(a, b):
                return
            self._end_run(a, LifecycleEvent.FINISHED, SimEventKind.JOB_FINISHED)
        elif tag == _KILL:
            if not self._timer_valid(a, b):
                return
            self._end_run(a, LifecycleEvent.WALLTIME_EXCEEDED, SimEventKind.JOB_TIMED_OUT)
        elif tag == _NODE_DOWN:
            self._handle_node_down(a, b)
        elif tag == _NODE_UP:
            self._handle_node_up(a, b)
        self._plan_cycle()

    def _advance_clock(self, t_ms: int):
        if t_ms > self.clock:
            # only the current millisecond's fault starts are ever read,
            # and the clock visits every millisecond that has some
            self._fault_starts.pop(self.clock, None)
            self.clock = t_ms

    def _timer_valid(self, job_id: str, epoch: int) -> bool:
        rs = self._run.get(job_id)      # None once the job has ended
        return rs is not None and rs.epoch == epoch

    def _retire(self, job_id: str):
        """The one terminal hook: drop a job's live state; its JobRecord keeps the results.

        Every transition into a terminal state calls it, after the job has
        released its nodes and before its terminal event is logged.
        """
        record = self.records[job_id]
        del self._run[job_id]
        self.scheduler.forget(job_id)
        user = record.spec.user_id
        jobs, nodes = self._user_load[user]
        if jobs == 1:
            del self._user_load[user]
        else:
            self._user_load[user] = (jobs - 1, nodes - projected_nodes(record.spec))

    # -- event handlers ---------------------------------------------------

    def _handle_arrival(self, job_id: str, spec: JobSpec):
        """Record and queue a job whose spec its caller has validated."""
        record = JobRecord(job_id=job_id, spec=spec, submit_ms=self.clock)
        if isinstance(spec.shape, Elastic):
            record.worker_history = []
        self.records[job_id] = record
        self._run[job_id] = _RunState(retries_left=self.config.retry_budget)
        jobs, nodes = self._user_load.get(spec.user_id, (0, 0))
        self._user_load[spec.user_id] = (jobs + 1, nodes + projected_nodes(spec))
        self._emit(SimEventKind.JOB_SUBMITTED, "job_id", job_id)
        try:
            self.scheduler.enqueue(record, self.clock)
        except Unsatisfiable:
            # There is no Queued->Failed edge in the lifecycle table, so a
            # job no acceptable cluster could ever hold is failed here,
            # before it enters the queue.
            record.state = JobState.FAILED
            record.end_ms = self.clock
            self._retire(job_id)
            self._emit(SimEventKind.JOB_FAILED, "job_id", job_id)
            return
        record.state = transition(record.state, LifecycleEvent.VALIDATED)
        self._emit(SimEventKind.JOB_QUEUED, "job_id", job_id)

    def _end_run(self, job_id: str, event: LifecycleEvent, kind: SimEventKind):
        """A running job's timer fired: it finished or hit its walltime."""
        record = self.records[job_id]
        self._credit(job_id)
        record.state = transition(record.state, event)
        record.end_ms = self.clock
        self.scheduler.release(job_id)
        self._retire(job_id)
        self._emit(kind, "job_id", job_id)

    def _handle_node_down(self, cluster_id: str, node_index: int):
        # Faults may overlap or touch on one node: only the first opens the
        # outage, so the log holds one NodeDown/NodeUp pair spanning their
        # union. The node is down while its key is in _down_depth.
        key = (cluster_id, node_index)
        if key in self._down_depth:
            self._down_depth[key] += 1
            return
        self._down_depth[key] = 1
        cs = self.scheduler.clusters[cluster_id]
        cs.down.add(node_index)
        self._emit(SimEventKind.NODE_DOWN, "cluster_id", cluster_id, "node_index", node_index)
        victim = cs.owner.get(node_index)
        if victim is None:
            return
        record = self.records[victim]
        rs = self._run[victim]
        self._credit(victim)    # a failed job keeps its work; a requeued one restarts
        self.scheduler.release(victim)
        rs.epoch += 1
        record.state = transition(record.state, LifecycleEvent.NODE_LOST,
                                  retries_left=rs.retries_left)
        if record.state is JobState.QUEUED:
            rs.retries_left -= 1
            record.credited_milli = 0   # restart from scratch on the next attempt
            self.scheduler.enqueue(record, self.clock)
            self._emit(SimEventKind.JOB_QUEUED, "job_id", victim)
        else:
            record.end_ms = self.clock
            self._retire(victim)
            self._emit(SimEventKind.JOB_FAILED, "job_id", victim)

    def _handle_node_up(self, cluster_id: str, node_index: int):
        key = (cluster_id, node_index)
        self._down_depth[key] -= 1
        # A fault starting on this node at this very millisecond is still
        # pending (had it run, its window would hold the depth above 0): it
        # continues the outage, so the node stays down at depth 0 until then.
        if self._down_depth[key] > 0 or key in self._fault_starts.get(self.clock, ()):
            return
        del self._down_depth[key]
        cs = self.scheduler.clusters[cluster_id]
        cs.down.discard(node_index)
        self._emit(SimEventKind.NODE_UP, "cluster_id", cluster_id, "node_index", node_index)

    # -- the plan cycle ---------------------------------------------------

    def _plan_cycle(self):
        # A fault takes its node out of placement from its millisecond's
        # first plan cycle, though its NodeDown (and any eviction) comes at
        # its own turn among that millisecond's events: no job starts on a
        # node only to lose it in the same millisecond.
        for cluster_id, node_index in self._fault_starts.get(self.clock, ()):
            self.scheduler.clusters[cluster_id].down.add(node_index)
        decision = self.scheduler.plan(self.clock)
        for job_id in decision.starts:
            self._start_job(job_id)
        self._rescale_pass(decision)

    def _start_job(self, job_id: str):
        """Run a job that plan placed (on its record): Running, JobStarted, timer armed."""
        record = self.records[job_id]
        cs = self.scheduler.clusters[record.cluster_id]
        record.state = transition(record.state, LifecycleEvent.SCHEDULED)
        record.state = transition(record.state, LifecycleEvent.STARTED)
        self._run[job_id].credit_from_ms = (
            self.clock + self._staging_delay(record.spec, cs.spec))
        nodes = list(record.node_indices)
        if isinstance(record.spec.shape, Elastic):
            record.worker_history.append((self.clock, len(nodes)))
            self._emit(SimEventKind.JOB_STARTED, "cluster_id", record.cluster_id,
                       "job_id", job_id, "node_indices", nodes, "workers", len(nodes))
        else:
            self._emit(SimEventKind.JOB_STARTED, "cluster_id", record.cluster_id,
                       "job_id", job_id, "node_indices", nodes)
        self._schedule_finish(job_id)

    def _staging_delay(self, spec: JobSpec, cluster: ClusterSpec) -> int:
        if self.catalog is None or not spec.dataset_refs:
            return 0
        return sum(self.catalog.staging_delay_ms(name, cluster.cluster_id)
                   for name in spec.dataset_refs)

    def _work_rate(self, record: JobRecord) -> int:
        """Milli-units of work credited per ms: speed_factor x workers."""
        spec = self.scheduler.clusters[record.cluster_id].spec
        return spec.speed_factor * len(record.node_indices)

    def _credit(self, job_id: str):
        """Advance work credit for a running job up to the current clock."""
        rs = self._run[job_id]
        record = self.records[job_id]
        if record.state is not JobState.RUNNING:
            return
        if self.clock > rs.credit_from_ms:
            record.credited_milli += self._work_rate(record) * (self.clock - rs.credit_from_ms)
            rs.credit_from_ms = self.clock

    def _schedule_finish(self, job_id: str):
        """(Re)arm the one live timer for a running job: finish or kill."""
        rs = self._run[job_id]
        record = self.records[job_id]
        kill_at = record.start_ms + record.spec.walltime_limit_ms   # as _reserve reads it
        rs.epoch += 1
        remaining = record.spec.work_units * 1000 - record.credited_milli
        finish_at = max(self.clock, rs.credit_from_ms)
        if remaining > 0:
            finish_at += -(-remaining // self._work_rate(record))
        if finish_at <= kill_at:
            self._push(finish_at, _FINISH, job_id, rs.epoch)
        else:
            self._push(kill_at, _KILL, job_id, rs.epoch)

    def _rescale_pass(self, decision: DispatchDecision):
        """Refit every running elastic job to its fair share, shrinks first."""
        reservation = decision.reservation
        records = self.records
        for cid in self._cloud_ids:
            targets = self.scheduler.elastic_targets(cid, reservation)
            shrinks = [(j, t) for j, t in targets if t < len(records[j].node_indices)]
            grows = [(j, t) for j, t in targets if t > len(records[j].node_indices)]
            for job_id, target in shrinks + grows:
                self._credit(job_id)   # at the old worker count
                new_nodes = self.scheduler.apply_worker_count(job_id, target)
                workers = len(new_nodes)
                records[job_id].worker_history.append((self.clock, workers))
                self._emit(SimEventKind.RESCALE_APPLIED, "cluster_id", cid, "job_id", job_id,
                           "node_indices", list(new_nodes), "workers", workers)
                self._schedule_finish(job_id)


def run_trace(trace, clusters: list[ClusterSpec], config: Optional[SimConfig] = None,
              catalog=None) -> tuple[EventLog, dict[str, JobRecord]]:
    """Run a submission trace to completion on the given clusters.

    Jobs are validated against the configured kinds (and the catalog, when
    one is supplied) before anything runs; identical inputs produce a
    byte-identical canonical event log.
    """
    known = {s.kind for s in clusters}
    for _t, spec in trace.jobs:
        validate_job(spec, known)
        if catalog is not None and spec.dataset_refs:
            catalog.resolve(spec.dataset_refs)
    sim = Simulation(clusters, config=config, catalog=catalog)
    for t_ms, spec in trace.jobs:
        sim.schedule_arrival(t_ms, spec)
    for fault in trace.faults:
        sim.inject_node_failure(fault.cluster_id, fault.node_index,
                                fault.t_ms, fault.down_duration_ms)
    sim.run_to_quiescence()
    return sim.log, sim.records
