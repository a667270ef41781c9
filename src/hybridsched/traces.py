"""Submission traces: the input format for offline simulation runs.

A trace bundles timed job arrivals with optional node-fault directives
and the RNG seed that produced it (recorded for provenance; the engine
itself never draws randomness). Traces round-trip through a plain JSON
file so runs can be archived and replayed byte-for-byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

from .model import (
    ClusterSpec,
    Elastic,
    JobSpec,
    MalformedSpec,
    ResourceKind,
    Rigid,
    is_integer,
    job_duration_ms,
    job_spec_from_obj,
    job_spec_to_obj,
    read_json,
)


class MalformedTrace(ValueError):
    pass


@dataclass(frozen=True)
class FaultDirective:
    """Take one node down for a fixed window of virtual time."""

    t_ms: int
    cluster_id: str
    node_index: int
    down_duration_ms: int


@dataclass
class SubmissionTrace:
    """Timed job arrivals plus fault directives, sorted by t_ms.

    Sorting is stable, so arrivals at the same instant keep their input
    order (which fixes their submission sequence and job ids).
    """

    jobs: list[tuple[int, JobSpec]] = field(default_factory=list)
    faults: list[FaultDirective] = field(default_factory=list)
    rng_seed: int = 0

    def __post_init__(self):
        for t_ms, _spec in self.jobs:
            if t_ms < 0:
                raise MalformedTrace(f"negative arrival time {t_ms}")
        for f in self.faults:
            if f.t_ms < 0:
                raise MalformedTrace(f"negative fault time {f.t_ms}")
            if f.down_duration_ms < 1:
                raise MalformedTrace("down_duration_ms must be >= 1")
        self.jobs.sort(key=itemgetter(0))
        self.faults.sort(key=attrgetter("t_ms"))


def trace_to_obj(trace: SubmissionTrace) -> dict:
    return {
        "rng_seed": trace.rng_seed,
        "jobs": [{"t_ms": t, "spec": job_spec_to_obj(spec)} for t, spec in trace.jobs],
        "faults": [
            {"t_ms": f.t_ms, "cluster_id": f.cluster_id,
             "node_index": f.node_index, "down_duration_ms": f.down_duration_ms}
            for f in trace.faults
        ],
    }


_TRACE_FIELDS = frozenset({"rng_seed", "jobs", "faults"})
_JOB_ENTRY_FIELDS = frozenset({"t_ms", "spec"})
_FAULT_FIELDS = frozenset({"t_ms", "cluster_id", "node_index", "down_duration_ms"})
_FAULT_INT_FIELDS = ("t_ms", "node_index", "down_duration_ms")


def trace_from_obj(obj) -> SubmissionTrace:
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
        spec = entry["spec"]
        if type(spec) is not JobSpec:       # not decoded already by _decode_job_spec
            try:
                spec = job_spec_from_obj(spec)
            except MalformedSpec as exc:
                raise MalformedTrace(str(exc)) from exc
        t_ms = entry["t_ms"]
        if type(t_ms) is not int and not is_integer(t_ms):
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


def write_trace(trace: SubmissionTrace, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace_to_obj(trace), fh, indent=2)
        fh.write("\n")


def _decode_job_spec(obj: dict) -> dict:
    """json.loads object hook: decode the spec of each {t_ms, spec} object as it closes,
    so that the whole parsed tree of a trace is never held at once. Only a spec that
    decodes is replaced: trace_from_obj meets every error, in its own order, as parsed."""
    if len(obj) == 2 and "spec" in obj and "t_ms" in obj:
        try:
            obj["spec"] = job_spec_from_obj(obj["spec"])
        except ValueError:
            pass
    return obj


def read_trace(path) -> SubmissionTrace:
    return trace_from_obj(read_json(path, MalformedTrace, _decode_job_spec))


# ---------------------------------------------------------------------------
# Seeded generators for test workloads. Everything below exists to feed the
# simulator; the distributions are arbitrary but frozen by the seed.

_KIND_POOL = [ResourceKind.CPU, ResourceKind.GPU, ResourceKind.CLOUD, ResourceKind.KNL]


def random_clusters(seed: int) -> list[ClusterSpec]:
    """1..4 clusters with distinct ids and mixed kinds."""
    rng = random.Random(seed)
    count = rng.randint(1, 4)
    kinds = [rng.choice(_KIND_POOL) for _ in range(count)]
    specs = []
    per_kind: dict[ResourceKind, int] = {}
    for kind in kinds:
        idx = per_kind.get(kind, 0)
        per_kind[kind] = idx + 1
        specs.append(ClusterSpec(
            cluster_id=f"{kind.value}{idx}",
            kind=kind,
            node_count=rng.randint(2, 8),
            cores_per_node=rng.choice([8, 16, 32, 68]),
            speed_factor=rng.randint(1, 4),
        ))
    return specs


def random_trace(seed: int, clusters: list[ClusterSpec], n_jobs: int, *,
                 arrival_span_ms: int = 20_000,
                 elastic_fraction: float = 0.25,
                 n_faults: int = 0,
                 rigid_only: bool = False,
                 tight_walltime: bool = False) -> SubmissionTrace:
    """A satisfiable random workload for the given topology.

    Every generated job fits on at least one cluster of a kind it lists.
    With tight_walltime the walltime equals the job's modeled duration on
    the slowest acceptable cluster, so runtimes are fully predictable by
    walltime (the regime the backfilling guarantee is stated for);
    otherwise walltimes carry random slack and some jobs time out.
    """
    rng = random.Random(seed)
    by_kind: dict[ResourceKind, list[ClusterSpec]] = {}
    for spec in clusters:
        by_kind.setdefault(spec.kind, []).append(spec)
    kinds = sorted(by_kind, key=lambda k: k.value)
    has_cloud = ResourceKind.CLOUD in by_kind
    jobs: list[tuple[int, JobSpec]] = []
    for i in range(n_jobs):
        t_ms = rng.randint(0, arrival_span_ms)
        elastic = (has_cloud and not rigid_only
                   and rng.random() < elastic_fraction)
        if elastic:
            pool = max(c.node_count for c in by_kind[ResourceKind.CLOUD])
            lo = rng.randint(1, max(1, pool // 2))
            hi = rng.randint(lo, pool)
            shape = Elastic(min_workers=lo, max_workers=hi)
            prefs = (ResourceKind.CLOUD,)
            needed = lo
        else:
            primary = rng.choice(kinds)
            cap = max(c.node_count for c in by_kind[primary])
            needed = rng.randint(1, cap)
            shape = Rigid(node_count=needed)
            prefs = [primary]
            for k in kinds:
                if k is not primary and rng.random() < 0.5:
                    if max(c.node_count for c in by_kind[k]) >= needed:
                        prefs.append(k)
            rng.shuffle(prefs)
            prefs = tuple(sorted(prefs, key=lambda k: k is not primary))
        work = rng.randint(1, 40)
        slow = min(c.speed_factor for k in prefs for c in by_kind[k])
        base = job_duration_ms(work, slow, needed)
        if tight_walltime:
            wall = base
        else:
            wall = max(1, rng.randint(base // 2, base * 2))
        jobs.append((t_ms, JobSpec(
            name=f"job{i}",
            user_id="trace",
            kind_preferences=prefs,
            shape=shape,
            work_units=work,
            walltime_limit_ms=wall,
            priority=rng.choice([0, 0, 0, 1, 2]),
        )))
    faults = []
    for _ in range(n_faults):
        target = rng.choice(clusters)
        faults.append(FaultDirective(
            t_ms=rng.randint(0, arrival_span_ms),
            cluster_id=target.cluster_id,
            node_index=rng.randint(0, target.node_count - 1),
            down_duration_ms=rng.randint(100, 5_000),
        ))
    return SubmissionTrace(jobs=jobs, faults=faults, rng_seed=seed)
