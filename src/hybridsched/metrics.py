"""Efficiency figures computed from event logs.

Everything here is exact integer arithmetic over the canonical log: busy
node-time from allocation segments, available node-time net of downtime
and vcluster holds, wait/turnaround statistics with nearest-rank
percentiles, and side-by-side comparisons of two runs of the same
trace. Ratios are rendered to four decimals by integer arithmetic
(half-up); no floats are involved anywhere.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from .engine import EventLog, SimEventKind, TERMINAL_EVENT_KINDS, payload_get
from .model import ClusterSpec


class MetricsError(ValueError):
    pass


class EmptyWindow(MetricsError):
    def __init__(self, from_ms: int, to_ms: int):
        super().__init__(f"window [{from_ms}, {to_ms}) is empty")


def fixed4(numer: int, denom: int) -> int:
    """numer/denom scaled to 1e-4 units, rounded half-up. 0 when denom=0."""
    if denom == 0:
        return 0
    return (numer * 10000 * 2 + denom) // (denom * 2)


def format_fixed4(q: int) -> str:
    sign = "-" if q < 0 else ""
    q = abs(q)
    return f"{sign}{q // 10000}.{q % 10000:04d}"


def format_ratio(numer: int, denom: int) -> str:
    return format_fixed4(fixed4(numer, denom))


def format_table(rows) -> str:
    """Left-aligned columns two spaces apart, a dashed rule under the header row."""
    cells = [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def utilization_rows(obj: dict) -> list[tuple]:
    """Table rows of a UtilizationReport in its to_obj() form, TOTAL last."""
    rows = [("cluster", "busy_node_ms", "avail_node_ms", "held_node_ms", "util")]
    for c in obj["clusters"] + [{**obj["aggregate"], "cluster_id": "TOTAL"}]:
        rows.append((c["cluster_id"], c["busy_node_ms"], c["available_node_ms"],
                     c["held_node_ms"], c["utilization"]))
    return rows


@dataclass(frozen=True)
class ClusterUtilization:
    cluster_id: str
    busy_node_ms: int
    available_node_ms: int
    held_node_ms: int

    @property
    def utilization(self) -> str:
        return format_ratio(self.busy_node_ms, self.available_node_ms)


@dataclass(frozen=True)
class UtilizationReport:
    window: tuple[int, int]
    per_cluster: tuple[ClusterUtilization, ...]

    @property
    def busy_node_ms(self) -> int:
        return sum(c.busy_node_ms for c in self.per_cluster)

    @property
    def available_node_ms(self) -> int:
        return sum(c.available_node_ms for c in self.per_cluster)

    @property
    def held_node_ms(self) -> int:
        return sum(c.held_node_ms for c in self.per_cluster)

    @property
    def aggregate_utilization(self) -> str:
        return format_ratio(self.busy_node_ms, self.available_node_ms)

    def to_obj(self) -> dict:
        return {
            "window": {"from_ms": self.window[0], "to_ms": self.window[1]},
            "clusters": [
                {
                    "cluster_id": c.cluster_id,
                    "busy_node_ms": c.busy_node_ms,
                    "available_node_ms": c.available_node_ms,
                    "held_node_ms": c.held_node_ms,
                    "utilization": c.utilization,
                }
                for c in self.per_cluster
            ],
            "aggregate": {
                "busy_node_ms": self.busy_node_ms,
                "available_node_ms": self.available_node_ms,
                "held_node_ms": self.held_node_ms,
                "utilization": self.aggregate_utilization,
            },
        }

    def render_text(self) -> str:
        return format_table(utilization_rows(self.to_obj()))


def _clip(a: int, b: int, lo: int, hi: int) -> int:
    """Length of [a,b) ∩ [lo,hi)."""
    return max(0, min(b, hi) - max(a, lo))


def _merge_len(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Total length of the union of intervals, clipped to [lo,hi)."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    cur_a: Optional[int] = None
    cur_b = 0
    for a, b in clipped:
        if b <= a:
            continue
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


# Node spans in the log: the event kind that closes one -> the kind that opened it.
_CLOSES = {SimEventKind.NODE_UP: SimEventKind.NODE_DOWN,
           SimEventKind.NODES_RELEASED: SimEventKind.NODES_HELD}
_OPENERS = frozenset(_CLOSES.values())


def _span_keys(payload: tuple, opener: SimEventKind) -> list[tuple[SimEventKind, str, int]]:
    nodes = payload_get(payload, "node_indices")
    if nodes is None:
        nodes = (payload_get(payload, "node_index"),)
    return [(opener, payload_get(payload, "cluster_id"), n) for n in nodes]


def utilization(log: EventLog, clusters: list[ClusterSpec], window: tuple[int, int]
                ) -> UtilizationReport:
    """Replay the log into exact busy/available node-time over a window.

    Busy time is the sum over allocation segments of node count x overlap
    with the window; a segment opens at JobStarted, is split by every
    RescaleApplied, and closes at the job's terminal event or requeue. A
    node's available time excludes its NodeDown..NodeUp and
    NodesHeld..NodesReleased spans; a span still open at the end of the
    window runs to its end, and a close with no open span is ignored.
    """
    from_ms, to_ms = window
    if from_ms >= to_ms:
        raise EmptyWindow(from_ms, to_ms)
    busy: dict[str, int] = {c.cluster_id: 0 for c in clusters}
    open_seg: dict[str, tuple[str, int, int]] = {}          # job -> (cluster, nnodes, t0)
    open_span: dict[tuple[SimEventKind, str, int], int] = {}  # (opener, cluster, node) -> t0
    spans: dict[tuple[SimEventKind, str, int], list[tuple[int, int]]] = {}

    def close_seg(job_id: str, t: int):
        cid, nnodes, t0 = open_seg.pop(job_id)
        busy[cid] += nnodes * _clip(t0, t, from_ms, to_ms)

    for t_ms, kind, payload in log.rows():
        if kind is SimEventKind.JOB_STARTED:
            job_id = payload_get(payload, "job_id")
            nodes = payload_get(payload, "node_indices")
            open_seg[job_id] = (payload_get(payload, "cluster_id"), len(nodes), t_ms)
        elif kind is SimEventKind.RESCALE_APPLIED:
            job_id = payload_get(payload, "job_id")
            if job_id in open_seg:
                close_seg(job_id, t_ms)
                nodes = payload_get(payload, "node_indices")
                open_seg[job_id] = (payload_get(payload, "cluster_id"), len(nodes), t_ms)
        elif kind in TERMINAL_EVENT_KINDS or kind is SimEventKind.JOB_QUEUED:
            job_id = payload_get(payload, "job_id")
            if job_id in open_seg:
                close_seg(job_id, t_ms)
        elif kind in _OPENERS:
            for key in _span_keys(payload, kind):
                open_span[key] = t_ms
        elif kind in _CLOSES:
            for key in _span_keys(payload, _CLOSES[kind]):
                t0 = open_span.pop(key, None)
                if t0 is not None:
                    spans.setdefault(key, []).append((t0, t_ms))
    for job_id in list(open_seg):
        close_seg(job_id, to_ms)
    for key, t0 in open_span.items():
        spans.setdefault(key, []).append((t0, to_ms))

    per = []
    length = to_ms - from_ms
    for spec in sorted(clusters, key=lambda c: c.cluster_id):
        cid = spec.cluster_id
        avail = spec.node_count * length
        held_ms = 0
        for node in range(spec.node_count):
            holds = spans.get((SimEventKind.NODES_HELD, cid, node), [])
            excluded = spans.get((SimEventKind.NODE_DOWN, cid, node), []) + holds
            if excluded:
                avail -= _merge_len(excluded, from_ms, to_ms)
            held_ms += sum(_clip(a, b, from_ms, to_ms) for a, b in holds)
        per.append(ClusterUtilization(cluster_id=cid, busy_node_ms=busy[cid],
                                      available_node_ms=avail, held_node_ms=held_ms))
    return UtilizationReport(window=window, per_cluster=tuple(per))


@dataclass(frozen=True)
class WaitStats:
    n_jobs: int
    n_started: int
    n_never_started: int
    mean_wait_ms: int
    median_wait_ms: int
    p95_wait_ms: int
    mean_turnaround_ms: int
    makespan_ms: int

    def to_obj(self) -> dict:
        return asdict(self)


def nearest_rank(sorted_values: list[int], pct: int) -> int:
    """Nearest-rank percentile: value at rank ceil(pct/100 x N), 1-based."""
    if not sorted_values:
        return 0
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def _mean_half_up(total: int, n: int) -> int:
    if n == 0:
        return 0
    return (2 * total + n) // (2 * n)


def wait_stats(log: EventLog) -> WaitStats:
    """Queue-wait and turnaround figures from one log.

    Wait is first start minus submit; jobs that reach a terminal state
    without ever starting are reported in their own count and excluded
    from the wait distribution.
    """
    submit: dict[str, int] = {}
    first_start: dict[str, int] = {}
    end: dict[str, int] = {}
    for t_ms, kind, payload in log.rows():
        if kind is SimEventKind.JOB_SUBMITTED:
            submit[payload_get(payload, "job_id")] = t_ms
        elif kind is SimEventKind.JOB_STARTED:
            first_start.setdefault(payload_get(payload, "job_id"), t_ms)
        elif kind in TERMINAL_EVENT_KINDS:
            end[payload_get(payload, "job_id")] = t_ms
    waits = sorted(first_start[j] - submit[j] for j in first_start)
    turnarounds = [end[j] - submit[j] for j in first_start if j in end]
    never = [j for j in end if j not in first_start]
    makespan = 0
    if end:
        makespan = max(end.values()) - min(submit.values())
    return WaitStats(
        n_jobs=len(submit),
        n_started=len(first_start),
        n_never_started=len(never),
        mean_wait_ms=_mean_half_up(sum(waits), len(waits)),
        median_wait_ms=nearest_rank(waits, 50),
        p95_wait_ms=nearest_rank(waits, 95),
        mean_turnaround_ms=_mean_half_up(sum(turnarounds), len(turnarounds)),
        makespan_ms=makespan,
    )


@dataclass(frozen=True)
class Comparison:
    """Two runs of one trace, plus deltas (B minus A)."""

    label_a: str
    label_b: str
    utilization_a: UtilizationReport
    utilization_b: UtilizationReport
    waits_a: WaitStats
    waits_b: WaitStats

    @property
    def delta_utilization_fixed4(self) -> int:
        qa = fixed4(self.utilization_a.busy_node_ms, self.utilization_a.available_node_ms)
        qb = fixed4(self.utilization_b.busy_node_ms, self.utilization_b.available_node_ms)
        return qb - qa

    def render_text(self) -> str:
        ua, ub, wa, wb = self.utilization_a, self.utilization_b, self.waits_a, self.waits_b
        return format_table([
            ("metric", self.label_a, self.label_b, "delta"),
            ("utilization", ua.aggregate_utilization, ub.aggregate_utilization,
             format_fixed4(self.delta_utilization_fixed4)),
            ("busy_node_ms", ua.busy_node_ms, ub.busy_node_ms, ub.busy_node_ms - ua.busy_node_ms),
            ("mean_wait_ms", wa.mean_wait_ms, wb.mean_wait_ms, wb.mean_wait_ms - wa.mean_wait_ms),
            ("makespan_ms", wa.makespan_ms, wb.makespan_ms, wb.makespan_ms - wa.makespan_ms),
        ])


def compare(log_a: EventLog, log_b: EventLog, clusters: list[ClusterSpec],
            label_a: str = "A", label_b: str = "B") -> Comparison:
    """Replay two finished logs of one trace on one cluster list, side by side.

    Both sides are measured over the shared window (0, max last event
    time) so busy time is compared against equal availability.
    """
    last_a = log_a.t_ms[-1] if len(log_a) else 0
    last_b = log_b.t_ms[-1] if len(log_b) else 0
    to_ms = max(last_a, last_b, 1)
    window = (0, to_ms)
    return Comparison(
        label_a=label_a, label_b=label_b,
        utilization_a=utilization(log_a, clusters, window),
        utilization_b=utilization(log_b, clusters, window),
        waits_a=wait_stats(log_a),
        waits_b=wait_stats(log_b),
    )
