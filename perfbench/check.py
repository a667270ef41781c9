"""Independent checker for the benchmark's outputs.

Every expectation is computed here from the generated inputs (plain JSON
objects), the canonical log lines and the HTTP response bodies. Nothing
is imported from `hybridsched`, so a fault in the program cannot leak
into its own check.

The checker counts operations: one per job and one per cluster row of
the utilization report for an offline run, one per request and one per
job for the service run. An operation fails when any check on it fails.
Failures of two kinds are traced to a known program fault, node faults
whose windows overlap on one node (the second NodeUp clears the down
state, and metrics.utilization overwrites the open down interval): a job
placed on such a node inside its fault windows, and a cluster row whose
available node-ms disagrees on a cluster with such a node. Every other
failure, and every check that belongs to no single operation, makes the
run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

TERMINAL = ("JobFinished", "JobFailed", "JobTimedOut", "JobCancelled")
KNOWN_DEFECT_KINDS = ("on_down_node", "available_node_ms")


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def fixed4_text(numer: int, denom: int) -> str:
    """numer/denom to four decimals, half up, as a string; '0.0000' for denom 0."""
    if denom == 0:
        return "0.0000"
    q, r = divmod(numer * 10000, denom)
    if 2 * r >= denom:
        q += 1
    return f"{q // 10000}.{q % 10000:04d}"


def union_length(intervals, lo: int, hi: int) -> int:
    """Length of the union of half-open intervals, clipped to [lo, hi)."""
    total = 0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def overlap(a0: int, a1: int, b0: int, b1: int) -> bool:
    return max(a0, b0) < min(a1, b1)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    known_defect_failures: int = 0
    problems: list[str] = field(default_factory=list)   # failures not traced to the known fault

    @property
    def correct(self) -> bool:
        return not self.problems

    def op(self, violations: list[tuple[str, str]], known_defect: bool = False):
        """Count one operation; `violations` is a list of (kind, message)."""
        self.attempted += 1
        if not violations:
            return
        self.failed += 1
        if known_defect and all(kind in KNOWN_DEFECT_KINDS for kind, _ in violations):
            self.known_defect_failures += 1
        else:
            self.problems.extend(msg for _kind, msg in violations)

    def global_check(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)


@dataclass
class Attempt:
    cluster_id: str
    start: int
    pieces: list = field(default_factory=list)     # (t, worker count)
    end: int = -1
    end_kind: str = ""


class Site:
    """Inputs of one run, as the checker sees them."""

    def __init__(self, clusters: list[dict], jobs: dict[str, dict], faults: list[dict],
                 *, retry_budget: int, hybrid_rigid_on_cloud: bool = False,
                 datasets: list[dict] = (), bandwidth: dict[str, int] | None = None):
        self.clusters = {c["cluster_id"]: c for c in clusters}
        self.jobs = jobs
        self.retry_budget = retry_budget
        self.hybrid = hybrid_rigid_on_cloud
        self.dataset_size = {d["name"]: d["size_bytes"] for d in datasets}
        self.bandwidth = dict(bandwidth or {})
        self.faults: dict[tuple[str, int], list[tuple[int, int]]] = {}
        for f in faults:
            key = (f["cluster_id"], f["node_index"])
            self.faults.setdefault(key, []).append((f["t_ms"], f["t_ms"] + f["down_duration_ms"]))
        self.holds: dict[tuple[str, int], list[list[int]]] = {}   # node -> [[t0, t1]]

    def add_hold(self, cluster_id: str, nodes, t0: int):
        for n in nodes:
            self.holds.setdefault((cluster_id, n), []).append([t0, None])

    def end_hold(self, cluster_id: str, nodes, t1: int):
        for n in nodes:
            for span in self.holds.get((cluster_id, n), []):
                if span[1] is None:
                    span[1] = t1

    def overlapping_fault_nodes(self) -> set[tuple[str, int]]:
        out = set()
        for key, windows in self.faults.items():
            ws = sorted(windows)
            if any(ws[i + 1][0] < ws[i][1] for i in range(len(ws) - 1)):
                out.add(key)
        return out

    def accepted_kinds(self, spec: dict) -> set[str]:
        if "elastic" in spec["shape"]:
            return {"cloud"}
        kinds = set(spec["kind_preferences"])
        if not self.hybrid:
            kinds.discard("cloud")
        return kinds

    def staging_ms(self, spec: dict, cluster_id: str) -> int:
        bw = self.bandwidth.get(cluster_id)
        if not bw:
            return 0
        return sum(ceil_div(1000 * self.dataset_size[name], bw) for name in spec["dataset_refs"])


class Replay:
    """One pass over the canonical log: occupancy, segments, attempts."""

    def __init__(self, site: Site, lines: list[str]):
        self.site = site
        self.job_problems: dict[str, list[tuple[str, str]]] = {j: [] for j in site.jobs}
        self.global_problems: list[str] = []
        self.submit: dict[str, int] = {}
        self.first_start: dict[str, int] = {}
        self.end: dict[str, int] = {}
        self.terminal_count: dict[str, int] = {}
        self.terminal_kind: dict[str, str] = {}
        self.attempts: dict[str, list[Attempt]] = {}
        self.segments: list[tuple[str, str, tuple, int, int]] = []   # job, cluster, nodes, t0, t1
        self._owner: dict[tuple[str, int], str] = {}
        self._open: dict[str, tuple[str, tuple, int]] = {}
        self._fault_starts: dict[tuple[str, int], set[int]] = {
            k: {a for a, _b in ws} for k, ws in site.faults.items()}
        last = (-1, -1)
        for line in lines:
            ev = json.loads(line)
            key = (ev["t"], ev["seq"])
            if key <= last:
                self.global_problems.append(f"log out of order at seq {ev['seq']}")
            last = key
            self._event(ev)
        for job_id, problems in self.job_problems.items():
            if job_id not in self.submit:
                problems.append(("lifecycle", f"{job_id}: never submitted"))
            count = self.terminal_count.get(job_id, 0)
            if count != 1:
                problems.append(("lifecycle", f"{job_id}: {count} terminal events"))
        for job_id in self._open:
            self.job_problems[job_id].append(("lifecycle", f"{job_id}: allocation never closed"))

    def _problem(self, job_id: str, kind: str, msg: str):
        self.job_problems.setdefault(job_id, []).append((kind, f"{job_id}: {msg}"))

    def _claim(self, job_id: str, cid: str, nodes, t: int):
        spec = self.site.jobs.get(job_id)
        cluster = self.site.clusters.get(cid)
        if spec is None or cluster is None:
            self.global_problems.append(f"unknown job {job_id} or cluster {cid} at t={t}")
            return
        if cluster["kind"] not in self.site.accepted_kinds(spec):
            self._problem(job_id, "wrong_kind", f"placed on {cid} ({cluster['kind']})")
        if len(set(nodes)) != len(nodes):
            self._problem(job_id, "double_booked", f"repeats a node on {cid} at t={t}")
        for n in nodes:
            if not (isinstance(n, int) and 0 <= n < cluster["node_count"]):
                self._problem(job_id, "node_range", f"node {n} out of range on {cid}")
                continue
            other = self._owner.get((cid, n))
            if other is not None and other != job_id:
                self._problem(job_id, "double_booked",
                              f"{cid}/{n} already held by {other} at t={t}")
            for t0, t1 in self.site.holds.get((cid, n), []):
                if t0 <= t and (t1 is None or t < t1):
                    self._problem(job_id, "double_booked", f"{cid}/{n} is vcluster-held at t={t}")
            self._owner[(cid, n)] = job_id

    def _free(self, job_id: str, cid: str, nodes):
        for n in nodes:
            if self._owner.get((cid, n)) == job_id:
                del self._owner[(cid, n)]

    def _close(self, job_id: str, t: int):
        cid, nodes, t0 = self._open.pop(job_id)
        self.segments.append((job_id, cid, nodes, t0, t))
        self._free(job_id, cid, nodes)

    def _check_count(self, job_id: str, n: int, workers):
        shape = self.site.jobs[job_id]["shape"]
        if "rigid" in shape:
            if n != shape["rigid"]["node_count"]:
                self._problem(job_id, "shape", f"rigid job got {n} nodes")
        else:
            lo, hi = shape["elastic"]["min_workers"], shape["elastic"]["max_workers"]
            if not lo <= n <= hi or workers != n:
                self._problem(job_id, "shape", f"elastic job at {n} workers (logged {workers})")

    def _event(self, ev: dict):
        kind, t, job_id = ev["kind"], ev["t"], ev.get("job_id")
        if job_id is not None and job_id not in self.site.jobs:
            self.global_problems.append(f"log names unknown job {job_id}")
            return
        if kind == "JobSubmitted":
            if job_id in self.submit:
                self._problem(job_id, "lifecycle", "submitted twice")
            self.submit[job_id] = t
        elif kind == "JobStarted":
            if job_id in self._open:
                self._problem(job_id, "lifecycle", f"started twice at t={t}")
                return
            nodes = tuple(ev["node_indices"])
            self._claim(job_id, ev["cluster_id"], nodes, t)
            self._check_count(job_id, len(nodes), ev.get("workers", len(nodes)))
            self._open[job_id] = (ev["cluster_id"], nodes, t)
            self.first_start.setdefault(job_id, t)
            self.attempts.setdefault(job_id, []).append(
                Attempt(ev["cluster_id"], t, [(t, len(nodes))]))
        elif kind == "RescaleApplied":
            if job_id not in self._open or self._open[job_id][0] != ev["cluster_id"]:
                self._problem(job_id, "lifecycle", f"rescaled while not running at t={t}")
                return
            nodes = tuple(ev["node_indices"])
            self._close(job_id, t)
            self._claim(job_id, ev["cluster_id"], nodes, t)
            self._check_count(job_id, len(nodes), ev.get("workers"))
            self._open[job_id] = (ev["cluster_id"], nodes, t)
            attempt = self.attempts[job_id][-1]
            attempt.pieces.append((t, len(nodes)))
        elif kind == "JobQueued":
            if job_id in self._open:
                self._end_attempt(job_id, t, "requeued")
        elif kind in TERMINAL:
            self.terminal_count[job_id] = self.terminal_count.get(job_id, 0) + 1
            self.terminal_kind[job_id] = kind
            self.end[job_id] = t
            if job_id in self._open:
                self._end_attempt(job_id, t, kind)

    def _end_attempt(self, job_id: str, t: int, how: str):
        cid, nodes, _t0 = self._open[job_id]
        self._close(job_id, t)
        attempt = self.attempts[job_id][-1]
        attempt.end, attempt.end_kind = t, how
        if how in ("requeued", "JobFailed"):
            if not any(t in self._fault_starts.get((cid, n), ()) for n in nodes):
                self._problem(job_id, "lifecycle", f"{how} at t={t} with no fault on its nodes")

    # -- per-job timing ---------------------------------------------------

    def check_jobs(self, cancelled: set[str] = frozenset()):
        site = self.site
        for job_id, spec in site.jobs.items():
            attempts = self.attempts.get(job_id, [])
            kind = self.terminal_kind.get(job_id)
            if kind is None:
                continue
            if (kind == "JobCancelled") != (job_id in cancelled):
                self._problem(job_id, "lifecycle",
                              f"ends {kind}; client cancelled: {job_id in cancelled}")
            if not attempts:
                if kind != "JobCancelled":
                    self._problem(job_id, "lifecycle", f"ends {kind} without ever starting")
                continue
            requeues = sum(1 for a in attempts if a.end_kind == "requeued")
            if requeues > site.retry_budget:
                self._problem(job_id, "lifecycle", f"requeued {requeues} times")
            last = attempts[-1]
            if last.end_kind == "JobFailed" and requeues != site.retry_budget:
                self._problem(job_id, "lifecycle", f"failed after {requeues} requeues")
            if last.end_kind in ("JobFinished", "JobTimedOut"):
                want_kind, want_t = self.expected_end(spec, last)
                if (want_kind, want_t) != (last.end_kind, last.end):
                    self._problem(job_id, "timing", f"{last.end_kind} at {last.end}, "
                                                f"expected {want_kind} at {want_t}")
        suspects = site.overlapping_fault_nodes()
        for job_id, cid, nodes, t0, t1 in self.segments:
            for n in nodes:
                for a, b in site.faults.get((cid, n), ()):
                    if overlap(t0, t1, a, b):
                        kind = "on_down_node" if (cid, n) in suspects else "in_fault_window"
                        self._problem(job_id, kind,
                                      f"on {cid}/{n} during [{t0},{t1}) inside fault [{a},{b})")

    def expected_end(self, spec: dict, attempt: Attempt) -> tuple[str, int]:
        """(terminal kind, time) of an attempt that ran to its end.

        Rigid: min(staging + ceil(1000 w / (speed x nodes)), walltime).
        Elastic: the first ms at which speed x workers, integrated from
        start + staging, reaches 1000 w; killed at start + walltime.
        Reaching the work exactly at the walltime counts as finished.
        """
        speed = self.site.clusters[attempt.cluster_id]["speed_factor"]
        kill = attempt.start + spec["walltime_limit_ms"]
        credit_from = attempt.start + self.site.staging_ms(spec, attempt.cluster_id)
        need = 1000 * spec["work_units"]
        done = 0
        finish = None
        pieces = attempt.pieces + [(None, 0)]
        for (a, workers), (b, _w) in zip(pieces, pieces[1:]):
            a = max(a, credit_from)
            rate = speed * workers
            if b is not None and b <= a:
                continue
            if b is None or done + rate * (b - a) >= need:
                finish = a + ceil_div(need - done, rate)
                break
            done += rate * (b - a)
        if finish <= kill:
            return "JobFinished", finish
        return "JobTimedOut", kill

    # -- figures ------------------------------------------------------------

    def utilization_rows(self, lo: int, hi: int) -> dict[str, dict]:
        busy = {cid: 0 for cid in self.site.clusters}
        for _job, cid, nodes, t0, t1 in self.segments:
            busy[cid] += len(nodes) * max(0, min(t1, hi) - max(t0, lo))
        for _job, (cid, nodes, t0) in self._open.items():
            busy[cid] += len(nodes) * max(0, hi - max(t0, lo))
        rows = {}
        for cid, c in self.site.clusters.items():
            avail = c["node_count"] * (hi - lo)
            held = 0
            for n in range(c["node_count"]):
                holds = [(t0, hi if t1 is None else t1)
                         for t0, t1 in self.site.holds.get((cid, n), [])]
                held += sum(max(0, min(b, hi) - max(a, lo)) for a, b in holds)
                avail -= union_length(self.site.faults.get((cid, n), []) + holds, lo, hi)
            rows[cid] = {"busy_node_ms": busy[cid], "available_node_ms": avail,
                         "held_node_ms": held, "utilization": fixed4_text(busy[cid], avail)}
        return rows

    def wait_figures(self) -> dict:
        waits = sorted(self.first_start[j] - self.submit[j] for j in self.first_start)
        turns = [self.end[j] - self.submit[j] for j in self.first_start if j in self.end]

        def rank(values, pct):
            if not values:
                return 0
            k = (pct * len(values) + 99) // 100
            return values[max(k, 1) - 1]

        def mean(values):
            if not values:
                return 0
            q, r = divmod(sum(values), len(values))
            return q + (1 if 2 * r >= len(values) else 0)

        return {
            "n_jobs": len(self.submit),
            "n_started": len(self.first_start),
            "n_never_started": sum(1 for j in self.end if j not in self.first_start),
            "mean_wait_ms": mean(waits),
            "median_wait_ms": rank(waits, 50),
            "p95_wait_ms": rank(waits, 95),
            "mean_turnaround_ms": mean(turns),
            "makespan_ms": (max(self.end.values()) - min(self.submit.values())) if self.end else 0,
        }


def compare_report(replay: Replay, report: dict) -> tuple[dict[str, list], list[str]]:
    """Per-cluster violations of one utilization report, plus report-level ones."""
    lo, hi = report["window"]["from_ms"], report["window"]["to_ms"]
    want = replay.utilization_rows(lo, hi)
    per: dict[str, list] = {cid: [] for cid in want}
    seen = set()
    for row in report["clusters"]:
        cid = row["cluster_id"]
        if cid not in want or cid in seen:
            return per, [f"report row for unexpected cluster {cid}"]
        seen.add(cid)
        for key in ("busy_node_ms", "available_node_ms", "held_node_ms"):
            if row[key] != want[cid][key]:
                per[cid].append((key, f"{cid} {key} over [{lo},{hi}): "
                                      f"{row[key]}, expected {want[cid][key]}"))
        if row["utilization"] != fixed4_text(row["busy_node_ms"], row["available_node_ms"]):
            per[cid].append(("ratio", f"{cid} utilization {row['utilization']} misrounded"))
    problems = [] if seen == set(want) else ["report misses clusters"]
    agg = report["aggregate"]
    for key in ("busy_node_ms", "available_node_ms", "held_node_ms"):
        if agg[key] != sum(row[key] for row in report["clusters"]):
            problems.append(f"aggregate {key} is not the sum of its rows")
    if agg["utilization"] != fixed4_text(agg["busy_node_ms"], agg["available_node_ms"]):
        problems.append("aggregate utilization misrounded")
    return per, problems


def check_offline(site: Site, lines: list[str], report: dict, waits: dict) -> Outcome:
    """An `hsctl simulate` run: one op per job and per cluster row."""
    out = Outcome()
    replay = Replay(site, lines)
    replay.check_jobs()
    for msg in replay.global_problems:
        out.global_check(False, msg)
    for job_id in site.jobs:
        out.op(replay.job_problems[job_id], known_defect=True)
    last_t = json.loads(lines[-1])["t"] if lines else 0
    out.global_check(report["window"] == {"from_ms": 0, "to_ms": max(last_t, 1)},
                     f"report window {report['window']} is not the log's span")
    rows, problems = compare_report(replay, report)
    for msg in problems:
        out.global_check(False, msg)
    suspect_clusters = {cid for cid, _n in site.overlapping_fault_nodes()}
    for cid, violations in rows.items():
        out.op(violations, known_defect=cid in suspect_clusters)
    want = replay.wait_figures()
    out.global_check(waits == want, f"wait stats {waits} != expected {want}")
    return out


def check_service(site: Site, lines: list[str], exchanges: list[dict]) -> Outcome:
    """One service client run: one op per request and per job.

    `exchanges` lists each request in order with the virtual clock the
    client knew when it sent it: {"op", "clock", "status", "body", ...}.
    Holds must already be registered on the site from the vcluster
    responses; a job the client cancelled is named in "job_id".
    """
    out = Outcome()
    replay = Replay(site, lines)
    cancelled = {x["job_id"] for x in exchanges if x["op"] == "cancel" and x["status"] == 202}
    replay.check_jobs(cancelled)
    for msg in replay.global_problems:
        out.global_check(False, msg)
    metrics_polls = [x for x in exchanges if x["op"] == "metrics"]
    for x in exchanges:
        out.op(_check_exchange(replay, x, x is metrics_polls[-1] if metrics_polls else False))
    for job_id in site.jobs:
        out.op(replay.job_problems[job_id])
    return out


def _check_exchange(replay: Replay, x: dict, final_metrics: bool) -> list[tuple[str, str]]:
    op, body, clock = x["op"], x["body"], x["clock"]
    want_status = {"submit": 201, "vc_create": 201, "cancel": 202}.get(op, 200)
    if x["status"] != want_status:
        return [("status", f"{op} returned {x['status']}: {body}")]
    bad = []
    if op == "submit":
        spec = replay.site.jobs.get(body.get("job_id"))
        if spec is None or body.get("layer") != ("cloud" if "elastic" in spec["shape"] else "hpc"):
            bad.append(("body", f"submit answered {body}"))
    elif op == "status":
        # A job still Queued at the poll may start later at the same clock
        # (a cancel or release frees nodes), so only a Running answer pins
        # the start down exactly.
        job_id = x["job_id"]
        first = replay.first_start.get(job_id)
        state = body.get("state")
        if body.get("job_id") != job_id or state not in ("Queued", "Running"):
            bad.append(("body", f"status of {job_id} at {clock}: {body}"))
        elif state == "Running" and (first != clock or body.get("cluster_id")
                                     != replay.attempts[job_id][0].cluster_id):
            bad.append(("body", f"status of {job_id}: Running at {clock} on "
                                f"{body.get('cluster_id')}, log starts it at {first}"))
        elif state == "Queued" and first is not None and first < clock:
            bad.append(("body", f"status of {job_id}: Queued at {clock}, log starts it at {first}"))
    elif op == "cancel":
        job_id = x["job_id"]
        if (body.get("state") != "Cancelled" or replay.terminal_kind.get(job_id) != "JobCancelled"
                or replay.end.get(job_id) != clock):
            bad.append(("body", f"cancel of {job_id} at {clock}: {body}"))
    elif op == "advance":
        if body.get("now_ms") != x["until"]:
            bad.append(("body", f"advance to {x['until']} answered {body}"))
    elif op == "metrics":
        report = body["utilization"]
        if report["window"] != {"from_ms": 0, "to_ms": max(clock, 1)}:
            bad.append(("body", f"metrics window {report['window']} at clock {clock}"))
        rows, problems = compare_report(replay, report)
        bad.extend(v for vs in rows.values() for v in vs)
        bad.extend(("report", m) for m in problems)
        if final_metrics and body["waits"] != replay.wait_figures():
            bad.append(("waits", f"wait stats {body['waits']} != expected {replay.wait_figures()}"))
    elif op == "vc_create":
        cluster = replay.site.clusters.get(body.get("cluster_id"), {})
        if (cluster.get("kind") != "cloud" or len(body.get("node_indices", ())) != x["nodes"]
                or body.get("owner") != x["user"]):
            bad.append(("body", f"vcluster answered {body}"))
    elif op == "vc_release":
        if body.get("freed_nodes") != x["nodes"]:
            bad.append(("body", f"vcluster release answered {body}"))
    elif op == "clusters":
        if len(body.get("clusters", ())) != len(replay.site.clusters):
            bad.append(("body", f"clusters answered {body}"))
    return bad
