"""Independent reference implementations the test suite checks against.

Everything here is written from scratch in the dumbest way that could
work: literal tables, per-millisecond scans, a time-stepped FIFO loop.
Oracles consume primitives (parsed JSON lines, tuples, ints) so a bug in
the package cannot leak into its own check. The wire decoders at the
end are the one exception: they are the package's earlier decoders,
kept to check the current ones against, and build its value types (the
earlier service config decoder builds the earlier config type, which
held three scheduler settings of its own). `log_from_events` and
`outcome` are helpers, not oracles: the first turns parsed log lines
into an `EventLog` for tests that hand a log to the package, the second
gives what a decoder and its reference decoder must agree on.
"""

import copy
import heapq
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from hybridsched import model
from hybridsched.catalog import BadDatasetName, CatalogError, DuplicateDataset
from hybridsched.engine import EventLog, SimEventKind
from hybridsched.model import ClusterSpec, Elastic, JobSpec, MalformedSpec, ResourceKind, Rigid
from hybridsched.service import ConfigError
from hybridsched.traces import FaultDirective, MalformedTrace, SubmissionTrace


# --- lifecycle table, hand-walked ------------------------------------------

STATES = ("Submitted", "Queued", "Running",
          "Completed", "Failed", "Cancelled", "TimedOut")
EVENTS = ("Validated", "Started", "Finished",
          "Errored", "CancelRequested", "WalltimeExceeded", "NodeLost")

# None = invalid pair. "NodeLost" from Running depends on the retry
# budget and is resolved by transition_oracle below.
TRANSITION_TABLE = {
    ("Submitted", "Validated"): "Queued",
    ("Submitted", "Errored"): "Failed",
    ("Queued", "Started"): "Running",
    ("Queued", "CancelRequested"): "Cancelled",
    ("Running", "Finished"): "Completed",
    ("Running", "WalltimeExceeded"): "TimedOut",
    ("Running", "CancelRequested"): "Cancelled",
    ("Running", "NodeLost"): "budget",
}


def transition_oracle(state, event, retries_left=1):
    """Next state name, or None for an invalid pair."""
    nxt = TRANSITION_TABLE.get((state, event))
    if nxt == "budget":
        return "Queued" if retries_left > 0 else "Failed"
    return nxt


# --- runtime model ---------------------------------------------------------

def duration_oracle(work_units, speed_factor, nodes):
    """ceil(1000 * work / (speed * nodes)) with exact rationals, min 1 ms."""
    d = math.ceil(Fraction(1000 * work_units, speed_factor * nodes))
    return max(1, d)


def staging_oracle(size_bytes, bandwidth_bytes_per_s):
    if not bandwidth_bytes_per_s:
        return 0
    return math.ceil(Fraction(1000 * size_bytes, bandwidth_bytes_per_s))


DATASET_FIELDS = {"name", "size_bytes"}


def reference_dataset_entry(entry):
    """(name, size_bytes) of a config dataset entry, or the catalog's error
    for its shape: not an object, then an unknown key, then a missing one,
    each naming the least such key."""
    if not isinstance(entry, dict):
        raise CatalogError("dataset entry must be a JSON object")
    unknown = sorted(set(entry) - DATASET_FIELDS)
    if unknown:
        raise CatalogError(f"unknown field: {unknown[0]}")
    missing = sorted(DATASET_FIELDS - set(entry))
    if missing:
        raise CatalogError(f"missing field: {missing[0]}")
    return entry["name"], entry["size_bytes"]


def reference_register_dataset(sizes, name, size_bytes):
    """Add one dataset to the name -> size dict `sizes`, or raise the
    catalog's error for the first rule it breaks, checked in this order:
    a non-empty str name, an exact int size of at least 0, a new name."""
    if not isinstance(name, str) or name == "":
        raise BadDatasetName("dataset name must be a non-empty string")
    if type(size_bytes) is not int or size_bytes < 0:
        raise CatalogError("size_bytes must be a non-negative integer")
    if name in sizes:
        raise DuplicateDataset(name)
    sizes[name] = size_bytes


# --- statistics ------------------------------------------------------------

def mean_half_up_oracle(values):
    if not values:
        return 0
    return math.floor(Fraction(sum(values), len(values)) + Fraction(1, 2))


def percentile_oracle(values, pct):
    """Nearest-rank percentile over already collected values."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = max(1, math.ceil(Fraction(pct * len(ordered), 100)))
    return ordered[rank - 1]


def fixed4_oracle(numer, denom):
    if denom == 0:
        return 0
    return math.floor(Fraction(numer * 10000, denom) + Fraction(1, 2))


# --- canonical log helpers -------------------------------------------------

def parse_log(lines):
    """Canonical JSON lines -> list of plain dicts, order preserved."""
    out = []
    for line in lines:
        line = line.strip()
        if line:
            out.append(json.loads(line))
    return out


def log_events(log):
    """An EventLog's events as plain dicts ("t", "seq", "kind", payload keys),
    read back from its canonical bytes: the one way tests read a log."""
    return parse_log(log.canonical_bytes().splitlines())


def outcome(decode, document):
    """decode's value on a copy of document, or its error's type, message and cause type."""
    try:
        return "value", decode(copy.deepcopy(document))
    except Exception as exc:
        return type(exc), str(exc), type(exc.__cause__)


def log_from_events(events):
    """An EventLog built through EventLog.append from parse_log's dicts, each
    payload flattened in alphabetical key order with each list value made a
    tuple, as the engine logs node lists; each seq must be its position."""
    log = EventLog()
    for position, event in enumerate(events):
        assert event["seq"] == position, (event, position)
        payload = sorted((k, tuple(v) if isinstance(v, list) else v)
                         for k, v in event.items() if k not in ("t", "seq", "kind"))
        log.append(event["t"], SimEventKind(event["kind"]), tuple(x for kv in payload for x in kv))
    return log


TERMINAL_KINDS = {"JobFinished", "JobFailed", "JobTimedOut", "JobCancelled"}


def segments_from_log(events, end_ms):
    """Allocation segments as (cluster_id, nnodes, t0, t1) per the log.

    A segment opens at JobStarted, is split by RescaleApplied, closes at
    the job's terminal event or a requeue; anything still open runs to
    end_ms.
    """
    open_seg = {}
    segs = []
    for ev in events:
        kind = ev["kind"]
        if kind == "JobStarted":
            open_seg[ev["job_id"]] = (ev["cluster_id"], len(ev["node_indices"]), ev["t"])
        elif kind == "RescaleApplied":
            jid = ev["job_id"]
            if jid in open_seg:
                cid, n, t0 = open_seg.pop(jid)
                segs.append((cid, n, t0, ev["t"]))
                open_seg[jid] = (ev["cluster_id"], len(ev["node_indices"]), ev["t"])
        elif kind in TERMINAL_KINDS or kind == "JobQueued":
            jid = ev.get("job_id")
            if jid in open_seg:
                cid, n, t0 = open_seg.pop(jid)
                segs.append((cid, n, t0, ev["t"]))
    for cid, n, t0 in open_seg.values():
        segs.append((cid, n, t0, end_ms))
    return segs


def worker_history(events, job_id):
    """(t, workers) of each JobStarted/RescaleApplied row of one job, from a
    scan of the whole parsed log; workers is the row's node count."""
    return [(ev["t"], len(ev["node_indices"])) for ev in events
            if ev["kind"] in ("JobStarted", "RescaleApplied") and ev["job_id"] == job_id]


def down_spans_from_log(events, end_ms):
    """(cluster_id, node) -> list of [t0, t1) down intervals."""
    spans = {}
    open_down = {}
    for ev in events:
        if ev["kind"] == "NodeDown":
            open_down[(ev["cluster_id"], ev["node_index"])] = ev["t"]
        elif ev["kind"] == "NodeUp":
            key = (ev["cluster_id"], ev["node_index"])
            if key in open_down:
                spans.setdefault(key, []).append((open_down.pop(key), ev["t"]))
    for key, t0 in open_down.items():
        spans.setdefault(key, []).append((t0, end_ms))
    return spans


def scan_utilization(events, clusters, window, holds=()):
    """Per-millisecond busy/available scan of parsed log events (see
    log_events); clusters is [(cid, node_count)].

    holds entries are (cluster_id, node, t0, t1_or_None). Slow on
    purpose: this is the ground truth the fast interval arithmetic is
    checked against, so keep windows small.
    """
    from_ms, to_ms = window
    segs = segments_from_log(events, to_ms)
    down = down_spans_from_log(events, to_ms)
    blocked = {}
    for key, spans in down.items():
        blocked.setdefault(key, []).extend(spans)
    for cid, node, t0, t1 in holds:
        blocked.setdefault((cid, node), []).append((t0, to_ms if t1 is None else t1))

    busy = {cid: 0 for cid, _n in clusters}
    avail = {cid: 0 for cid, _n in clusters}
    for ms in range(from_ms, to_ms):
        for cid, n, t0, t1 in segs:
            if t0 <= ms < t1:
                busy[cid] += n
        for cid, node_count in clusters:
            for node in range(node_count):
                spans = blocked.get((cid, node), ())
                if not any(a <= ms < b for a, b in spans):
                    avail[cid] += 1
    return busy, avail


def scan_wait_stats(events):
    """Wait and turnaround figures of a canonical log, as WaitStats.to_obj() names them.

    Wait is first JobStarted minus JobSubmitted; turnaround runs from
    submit to the terminal event; a job that ends without starting counts
    as never started and stays out of both.
    """
    submitted = {}
    starts = {}
    ended = {}
    for ev in events:
        kind = ev["kind"]
        if kind == "JobSubmitted":
            submitted[ev["job_id"]] = ev["t"]
        elif kind == "JobStarted":
            starts.setdefault(ev["job_id"], []).append(ev["t"])
        elif kind in TERMINAL_KINDS:
            ended[ev["job_id"]] = ev["t"]
    waits = [min(ts) - submitted[j] for j, ts in starts.items()]
    turnarounds = [ended[j] - submitted[j] for j in starts if j in ended]
    return {
        "n_jobs": len(submitted),
        "n_started": len(starts),
        "n_never_started": len([j for j in ended if j not in starts]),
        "mean_wait_ms": mean_half_up_oracle(waits),
        "median_wait_ms": percentile_oracle(waits, 50),
        "p95_wait_ms": percentile_oracle(waits, 95),
        "mean_turnaround_ms": mean_half_up_oracle(turnarounds),
        "makespan_ms": (max(ended.values()) - min(submitted.values())) if ended else 0,
    }


def replay_occupancy(events, clusters, job_kinds):
    """Walk a parsed canonical log and report every occupancy/kind violation.

    clusters: {cluster_id: (kind, node_count)}
    job_kinds: {job_id: set of kind strings the job may run on}
    Returns a list of violation strings; empty means the log is clean.
    """
    holder = {cid: {} for cid in clusters}   # node -> job_id
    where = {}                               # job -> cluster
    bad = []
    for ev in events:
        kind = ev["kind"]
        if kind == "JobStarted" or kind == "RescaleApplied":
            jid = ev["job_id"]
            cid = ev["cluster_id"]
            nodes = ev["node_indices"]
            ckind, count = clusters[cid]
            if kind == "JobStarted" and ckind not in job_kinds[jid]:
                bad.append(f"t={ev['t']} {jid} started on {cid} kind {ckind}, "
                           f"allows {sorted(job_kinds[jid])}")
            if kind == "RescaleApplied":
                for node, owner in list(holder[cid].items()):
                    if owner == jid:
                        del holder[cid][node]
            for node in nodes:
                if not (0 <= node < count):
                    bad.append(f"t={ev['t']} {jid} uses node {node} outside {cid}")
                elif node in holder[cid]:
                    bad.append(f"t={ev['t']} node {cid}/{node} double-booked: "
                               f"{holder[cid][node]} and {jid}")
                else:
                    holder[cid][node] = jid
            where[jid] = cid
            if len(holder[cid]) > count:
                bad.append(f"t={ev['t']} occupancy {len(holder[cid])} > {count} on {cid}")
        elif kind in TERMINAL_KINDS or kind == "JobQueued":
            jid = ev.get("job_id")
            cid = where.pop(jid, None)
            if cid is not None:
                for node, owner in list(holder[cid].items()):
                    if owner == jid:
                        del holder[cid][node]
    return bad


# --- FIFO-without-backfill simulator ---------------------------------------

class FifoOracle:
    """Event-stepped FIFO scheduler with no backfilling at all.

    Rigid jobs only. One plan pass runs after every single event, so two
    frees at the same instant are planned one at a time (the contract's
    granularity; batching them can hand the head a different cluster).
    A pass scans the queue in (-priority, seq) order; the head is placed
    on the first acceptable cluster (preference order, then lexicographic
    id) with enough free nodes, lowest indices first. If the head does
    not fit, nothing later starts. Runtime of a placed job is the exact
    modeled duration capped by its walltime. Same-time ordering: arrivals
    in trace order first, then job ends in the order they started.

    clusters: [(cid, kind, node_count, speed_factor)]
    jobs: [(job_id, arrive_ms, priority, kinds, needed, work, wall)]
          listed in submission order (which fixes seq).
    """

    def __init__(self, clusters, jobs):
        self.clusters = sorted(clusters)
        self.jobs = [(arrive, prio, seq, jid, kinds, needed, work, wall)
                     for seq, (jid, arrive, prio, kinds, needed, work, wall)
                     in enumerate(jobs)]
        self.start_ms = {}
        self.end_ms = {}

    def run(self):
        free = {cid: set(range(n)) for cid, _k, n, _s in self.clusters}
        speed = {cid: s for cid, _k, n, s in self.clusters}
        heap = []                             # (t, tick, tag, payload)
        tick = 0
        for arrive, prio, seq, jid, kinds, needed, work, wall in sorted(
                self.jobs, key=lambda j: (j[0], j[2])):
            heapq.heappush(heap, (arrive, tick, "arrive",
                                  (prio, seq, jid, kinds, needed, work, wall)))
            tick += 1
        queue = []                            # (sort key..) kept sorted on insert
        while heap:
            t, _tk, tag, payload = heapq.heappop(heap)
            if tag == "arrive":
                prio, seq, jid, kinds, needed, work, wall = payload
                queue.append((-prio, seq, jid, kinds, needed, work, wall))
                queue.sort()
            else:
                cid, nodes, jid = payload
                free[cid] |= nodes
                self.end_ms[jid] = t
            while queue:
                _np, _seq, jid, kinds, needed, work, wall = queue[0]
                placed = None
                for kind in kinds:
                    for cid, ckind, _n, _s in self.clusters:
                        if ckind != kind or len(free[cid]) < needed:
                            continue
                        placed = (cid, frozenset(sorted(free[cid])[:needed]))
                        break
                    if placed:
                        break
                if placed is None:
                    break                     # head blocked: nothing may pass it
                cid, nodes = placed
                free[cid] -= nodes
                self.start_ms[jid] = t
                dur = min(duration_oracle(work, speed[cid], needed), wall)
                heapq.heappush(heap, (t + dur, tick, "end", (cid, nodes, jid)))
                tick += 1
                queue.pop(0)
        if queue:
            raise RuntimeError(f"oracle finished with jobs still queued: {queue}")
        return self


# --- one plan pass ---------------------------------------------------------

def queue_order(sched):
    """Job ids in a Scheduler's queue order, the order plan walks."""
    return [entry[2] for entry in sched._queue]


def reference_plan(clusters, queue, now_ms, backfill=True):
    """One conservative-backfill plan pass, as a straight walk of the queue.

    clusters: {cid: (node_count, busy, down, held)}; busy maps each node
              of a live allocation to that allocation's walltime-bounded
              end, down and held are sets of node indices (a node may be
              both busy and down).
    queue:    [(job_id, needed, wall_ms, accept)] in queue order; accept
              lists the acceptable cluster ids in scan order.

    Every entry is tried: while no reservation exists the entry starts on
    the first acceptable cluster with enough free nodes (lowest indices),
    else it becomes the head and reserves the earliest start any
    acceptable cluster can guarantee (ties to scan order). After that an
    entry starts only if it fits beside the reservation: ending by its
    start on the reserved cluster, or avoiding its nodes. A head that
    cannot be reserved, or any head without backfill, ends the pass.
    Returns (starts, reservation): starts is [(job_id, cid, nodes)], the
    reservation (job_id, cid, nodes, start_ms, end_ms) or None.
    """
    free = {}
    ends = {}
    for cid, (count, busy, down, held) in clusters.items():
        free[cid] = [n for n in range(count)
                     if n not in busy and n not in down and n not in held]
        ends[cid] = dict(busy)
    starts = []
    reservation = None
    for job_id, needed, wall_ms, accept in queue:
        if reservation is None:
            cid = next((c for c in accept if len(free[c]) >= needed), None)
            if cid is not None:
                nodes = tuple(free[cid][:needed])
                free[cid] = free[cid][needed:]
                for n in nodes:
                    ends[cid][n] = now_ms + wall_ms
                starts.append((job_id, cid, nodes))
                continue
            best = None
            for cid in accept:
                # a busy node is never free, and a down or held one that is
                # not busy has no bounded time at which it frees
                avail = sorted([(now_ms, n) for n in free[cid]]
                               + [(t, n) for n, t in ends[cid].items()])
                if len(avail) < needed:
                    continue
                start = max(now_ms, avail[needed - 1][0])
                nodes = tuple(sorted(n for t, n in avail if t <= start)[:needed])
                if best is None or start < best[3]:
                    best = (job_id, cid, nodes, start, start + wall_ms)
            if best is None:
                break
            reservation = best
            if not backfill:
                break
            continue
        _head, res_cid, res_nodes, res_start, _end = reservation
        for cid in accept:
            usable = free[cid]
            if cid == res_cid and now_ms + wall_ms > res_start:
                usable = [n for n in usable if n not in res_nodes]
            if len(usable) >= needed:
                nodes = tuple(usable[:needed])
                free[cid] = [n for n in free[cid] if n not in nodes]
                starts.append((job_id, cid, nodes))
                break
    return starts, reservation


# --- fair share ------------------------------------------------------------

def fair_share_oracle(pool, bounds):
    """Documented fair-share policy, written as a second opinion.

    Equal split with the remainder to the earliest entries, clamped to
    each job's bounds; when the minima alone oversubscribe the pool the
    overage comes back off the latest entries, never below a minimum.
    Surplus freed by max-clamping is deliberately not redistributed.
    """
    n = len(bounds)
    if n == 0:
        return []
    shares = []
    for i in range(n):
        base = pool // n
        if i < pool - base * n:
            base += 1
        lo, hi = bounds[i]
        shares.append(min(hi, max(lo, base)))
    over = sum(shares) - pool
    i = n - 1
    while over > 0 and i >= 0:
        give = min(over, shares[i] - bounds[i][0])
        shares[i] -= give
        over -= give
        i -= 1
    return shares


# --- admission -------------------------------------------------------------

TERMINAL_STATES = frozenset({"Completed", "Failed", "Cancelled", "TimedOut"})


def projected_nodes_oracle(spec_obj):
    """Most nodes a job can ever hold: an elastic job's maximum, a rigid job's size."""
    shape = spec_obj["shape"]
    if "elastic" in shape:
        return shape["elastic"]["max_workers"]
    return shape["rigid"]["node_count"]


def reference_admit(jobs, quota, spec_obj):
    """The scan-based quota check: walk every job ever submitted.

    jobs holds (user_id, state name, spec object) per submitted job,
    quota the user's quota object, spec_obj the new job's spec object.
    Returns None to admit, else the reject reason's name.
    """
    live = [spec for user_id, state, spec in jobs
            if user_id == spec_obj["user_id"] and state not in TERMINAL_STATES]
    if len(live) + 1 > quota["max_concurrent_jobs"]:
        return "ConcurrencyQuota"
    committed = sum(projected_nodes_oracle(spec) for spec in live)
    if committed + projected_nodes_oracle(spec_obj) > quota["max_nodes_in_use"]:
        return "NodeQuota"
    return None


# --- wire decoders, as first written ----------------------------------------
#
# The job-spec and trace decoders as they stood before their single-pass
# rewrite, kept verbatim apart from the names, so a test can check that
# the rewrite accepts the same inputs, builds equal values and rejects
# everything else with the same error and message. They keep shape and
# preference tables of their own.

_SPEC_REQUIRED = ("name", "user_id", "kind_preferences", "shape", "work_units", "walltime_limit_ms")
_SPEC_FIELDS = frozenset(_SPEC_REQUIRED + ("dataset_refs", "priority"))
_RIGID_FIELDS = frozenset({"node_count"})
_ELASTIC_FIELDS = frozenset({"min_workers", "max_workers"})
_SHARED_SHAPES_MAX = 1024
_SHAPES = {}
_PREFERENCES = {}


def is_integer(value) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    # `type(...) is int` is the fast path; bool is a subclass of int
    return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))


def _require_int(obj: dict, key: str, where: str) -> int:
    value = obj.get(key)
    if not is_integer(value):
        raise MalformedSpec(f"{where}.{key} must be an integer")
    return value


def _require_str_list(value, fieldname: str) -> list:
    if not isinstance(value, list):
        raise MalformedSpec(f"{fieldname} must be a list of strings")
    for item in value:
        if not isinstance(item, str):
            raise MalformedSpec(f"{fieldname} must be a list of strings")
    return value


def _parse_shape(obj):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise MalformedSpec('shape must be {"rigid": {...}} or {"elastic": {...}}')
    [(tag, body)] = obj.items()
    if not isinstance(body, dict):
        raise MalformedSpec(f"shape.{tag} must be an object")
    if tag == "rigid":
        if not body.keys() <= _RIGID_FIELDS:
            raise MalformedSpec(f"unknown shape field: {min(body.keys() - _RIGID_FIELDS)}")
        return _shared_shape(Rigid, _require_int(body, "node_count", "shape.rigid"))
    if tag == "elastic":
        if not body.keys() <= _ELASTIC_FIELDS:
            raise MalformedSpec(f"unknown shape field: {min(body.keys() - _ELASTIC_FIELDS)}")
        return _shared_shape(Elastic, _require_int(body, "min_workers", "shape.elastic"),
                             _require_int(body, "max_workers", "shape.elastic"))
    raise MalformedSpec(f"unknown shape tag: {tag}")


def _shared_shape(cls, *fields: int):
    key = (cls, *fields)
    shape = _SHAPES.get(key)
    if shape is None:
        if len(_SHAPES) >= _SHARED_SHAPES_MAX:
            _SHAPES.clear()
        shape = _SHAPES[key] = cls(*fields)
    return shape


def _parse_preferences(kinds: list[str]) -> tuple:
    key = tuple(kinds)
    prefs = _PREFERENCES.get(key)
    if prefs is None:
        prefs = tuple([ResourceKind.parse(k) for k in key])
        if len(key) <= len(ResourceKind):
            _PREFERENCES[key] = prefs
    return prefs


def reference_job_spec_from_obj(obj: dict) -> JobSpec:
    """Parse the canonical JSON object form; unknown fields are rejected."""
    if not isinstance(obj, dict):
        raise MalformedSpec("job spec must be a JSON object")
    fields = obj.keys()
    if not fields <= _SPEC_FIELDS:
        raise MalformedSpec(f"unknown field: {min(fields - _SPEC_FIELDS)}")
    has_refs = "dataset_refs" in obj
    # every key is known, so a required one is missing iff too few remain
    if len(obj) - has_refs - ("priority" in obj) < len(_SPEC_REQUIRED):
        missing = next(k for k in _SPEC_REQUIRED if k not in obj)
        raise MalformedSpec(f"missing field: {missing}")
    name = obj["name"]
    if not isinstance(name, str):
        raise MalformedSpec("name must be a string")
    user_id = obj["user_id"]
    if not isinstance(user_id, str):
        raise MalformedSpec("user_id must be a string")
    kinds = _require_str_list(obj["kind_preferences"], "kind_preferences")
    refs = tuple(_require_str_list(obj["dataset_refs"], "dataset_refs")) if has_refs else ()
    priority = obj.get("priority", 0)
    if not is_integer(priority):
        raise MalformedSpec("priority must be an integer")
    # positional, in field order: keyword arguments make the frozen
    # dataclass's __init__ about 30% slower, and this runs once per job
    return JobSpec(
        name,
        user_id,
        _parse_preferences(kinds),
        _parse_shape(obj["shape"]),
        _require_int(obj, "work_units", "spec"),
        _require_int(obj, "walltime_limit_ms", "spec"),
        refs,
        priority,
    )


_TRACE_FIELDS = frozenset({"rng_seed", "jobs", "faults"})
_JOB_ENTRY_FIELDS = frozenset({"t_ms", "spec"})
_FAULT_FIELDS = frozenset({"t_ms", "cluster_id", "node_index", "down_duration_ms"})
_FAULT_INT_FIELDS = ("t_ms", "node_index", "down_duration_ms")


def reference_trace_from_obj(obj) -> SubmissionTrace:
    if not isinstance(obj, dict):
        raise MalformedTrace("trace must be a JSON object")
    if not obj.keys() <= _TRACE_FIELDS:
        raise MalformedTrace(f"unknown trace fields: {sorted(obj.keys() - _TRACE_FIELDS)}")
    for key in ("jobs", "faults"):
        if not isinstance(obj.get(key, []), list):
            raise MalformedTrace(f"trace {key} must be a list")
    rng_seed = obj.get("rng_seed", 0)
    if not is_integer(rng_seed):
        raise MalformedTrace("trace rng_seed must be an integer")
    jobs = []
    for entry in obj.get("jobs", ()):
        if not isinstance(entry, dict) or entry.keys() != _JOB_ENTRY_FIELDS:
            raise MalformedTrace("each job entry needs exactly t_ms and spec")
        try:
            spec = reference_job_spec_from_obj(entry["spec"])
        except MalformedSpec as exc:
            raise MalformedTrace(str(exc)) from exc
        t_ms = entry["t_ms"]
        if not is_integer(t_ms):
            raise MalformedTrace("job t_ms must be an integer")
        jobs.append((t_ms, spec))
    faults = []
    for entry in obj.get("faults", ()):
        if not isinstance(entry, dict) or entry.keys() != _FAULT_FIELDS:
            raise MalformedTrace("bad fault directive")
        for key in _FAULT_INT_FIELDS:
            if not is_integer(entry[key]):
                raise MalformedTrace(f"fault {key} must be an integer")
        if not isinstance(entry["cluster_id"], str):
            raise MalformedTrace("fault cluster_id must be a string")
        faults.append(FaultDirective(**entry))
    return SubmissionTrace(jobs=jobs, faults=faults, rng_seed=rng_seed)


@dataclass
class ReferenceServiceConfig:
    clusters: list[ClusterSpec]
    listen_addr: str = "127.0.0.1:8080"
    auth_header: str = "X-User-Id"
    mode: str = "sim"                      # "sim" (virtual time) or "realtime"
    backfill: bool = True
    hybrid_rigid_on_cloud: bool = False
    retry_budget: int = 1
    provision_delay_ms: int = 0
    users: list[dict] = field(default_factory=list)
    datasets: list[dict] = field(default_factory=list)
    bandwidth_bytes_per_s: dict[str, int] = field(default_factory=dict)


def reference_load_config(path, env: Optional[dict] = None) -> ReferenceServiceConfig:
    """Read a JSON config file; HYBRIDSCHED_ADDR overrides the listen address.

    Unknown keys, and bandwidths of clusters the config does not list,
    are kept and never read.
    """
    import os
    env = os.environ if env is None else env
    raw = model.read_json(path, ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if not isinstance(raw.get("clusters"), list) or not raw["clusters"]:
        raise ConfigError("config must list at least one cluster")
    try:
        clusters = model.cluster_specs_from_obj(raw["clusters"])
    except model.ValidationError as exc:
        raise ConfigError(f"bad cluster entry: {exc}") from exc
    sched = raw.get("scheduler", {})
    if not isinstance(sched, dict):
        raise ConfigError("scheduler must be a JSON object")
    cfg = ReferenceServiceConfig(
        clusters=clusters,
        listen_addr=raw.get("listen_addr", "127.0.0.1:8080"),
        auth_header=raw.get("auth_header", "X-User-Id"),
        mode=raw.get("mode", "sim"),
        backfill=sched.get("backfill", True),
        hybrid_rigid_on_cloud=sched.get("hybrid_rigid_on_cloud", False),
        retry_budget=sched.get("retry_budget", 1),
        provision_delay_ms=sched.get("provision_delay_ms", 0),
        users=raw.get("users", []),
        datasets=raw.get("datasets", []),
        bandwidth_bytes_per_s=raw.get("bandwidth_bytes_per_s", {}),
    )
    addr = env.get("HYBRIDSCHED_ADDR")
    if addr:
        cfg.listen_addr = addr
    if not isinstance(cfg.listen_addr, str) or not cfg.listen_addr.rpartition(":")[2].isdecimal():
        raise ConfigError(f"listen_addr must be a host:port string, got {cfg.listen_addr!r}")
    if not isinstance(cfg.auth_header, str) or not cfg.auth_header:
        raise ConfigError("auth_header must be a non-empty string")
    if cfg.mode not in ("sim", "realtime"):
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    for name in ("backfill", "hybrid_rigid_on_cloud"):
        if not isinstance(getattr(cfg, name), bool):
            raise ConfigError(f"scheduler.{name} must be true or false")
    if not model.is_integer(cfg.retry_budget) or cfg.retry_budget < 0:
        raise ConfigError("scheduler.retry_budget must be a non-negative integer")
    if not model.is_integer(cfg.provision_delay_ms) or cfg.provision_delay_ms < 0:
        raise ConfigError("scheduler.provision_delay_ms must be a non-negative integer")
    if not isinstance(cfg.users, list):
        raise ConfigError("users must be a list")
    bandwidth = cfg.bandwidth_bytes_per_s
    if not isinstance(bandwidth, dict) or not all(
            model.is_integer(v) and v >= 0 for v in bandwidth.values()):
        raise ConfigError("bandwidth_bytes_per_s must map cluster ids to non-negative integers")
    return cfg
