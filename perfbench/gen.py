"""Seeded input generator for the three benchmark workloads.

Everything a workload feeds the program is made here from the seed: the
trace and cluster files of the offline workloads, and the service config
plus the client's request script of `service_mix`. Jobs are built from
the public `hybridsched.model` types and serialized with the model's own
codecs, so the files are exactly what `hsctl simulate` and the service
accept. The program's `traces.random_trace` is deliberately not used: an
edit to it must not change a workload.

Every generated job is placeable under the configuration it runs with:
a rigid job lists only kinds with a cluster large enough for it (cloud
only as a fallback, which the scheduler drops, since rigid-on-cloud
placement is off), and an elastic job's minimum fits the cloud pool even
while the client's virtual clusters hold part of it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace

from hybridsched.model import (
    ClusterSpec,
    Elastic,
    JobSpec,
    ResourceKind,
    Rigid,
    cluster_spec_to_obj,
    job_duration_ms,
    job_spec_to_obj,
    validate_job,
)

CPU, GPU, KNL, CLOUD = ResourceKind.CPU, ResourceKind.GPU, ResourceKind.KNL, ResourceKind.CLOUD

# Cluster topologies are fixed; only the jobs, faults and the client's
# script depend on the seed, which keeps the load the same across seeds.
BATCH_SITE = [
    ClusterSpec("cpu0", CPU, node_count=32, cores_per_node=32, speed_factor=2),
    ClusterSpec("cpu1", CPU, node_count=16, cores_per_node=16, speed_factor=1),
    ClusterSpec("gpu0", GPU, node_count=8, cores_per_node=8, speed_factor=6),
    ClusterSpec("knl0", KNL, node_count=12, cores_per_node=68, speed_factor=3),
]
CLOUD_POOLS = [
    ClusterSpec("cloud0", CLOUD, node_count=24, cores_per_node=8, speed_factor=2),
    ClusterSpec("cloud1", CLOUD, node_count=16, cores_per_node=8, speed_factor=1),
]
SERVICE_SITE = [
    ClusterSpec("cloud0", CLOUD, node_count=16, cores_per_node=8, speed_factor=2),
    ClusterSpec("cpu0", CPU, node_count=16, cores_per_node=32, speed_factor=2),
    ClusterSpec("gpu0", GPU, node_count=6, cores_per_node=8, speed_factor=6),
    ClusterSpec("knl0", KNL, node_count=8, cores_per_node=68, speed_factor=3),
]

BACKLOG_BURSTS = 4
BACKLOG_JOBS = 1_000                  # per burst
BACKLOG_SPAN_MS = 90_000
ELASTIC_JOBS = 1_500
ELASTIC_SPAN_MS = 6_000_000
ELASTIC_FRACTION = 0.75
RANDOM_FAULTS = 400
SERVICE_SUBMITS = 1_200
SERVICE_USERS = 48
SERVICE_DATASETS = 2_000
SERVICE_VCLUSTERS = ((0, 3), (1, 3))      # (user index, node count), carved at t=0
# Seeded arrivals and faults of offline_elastic_faults start here; the
# fixed overlapping-fault prelude below happens entirely before it.
SEEDED_START_MS = 2_000
# Two fault windows on cpu0 node 0 that overlap: (100, 1100) and
# (200, 300). The engine brings the node back at 300, the probe job that
# arrives at 400 is placed on it, and metrics.utilization counts 100 ms
# of downtime for the node instead of 1000. Both inputs are seed-free,
# so the failures they cause are the same in every run.
OVERLAP_FAULTS = (
    {"t_ms": 100, "cluster_id": "cpu0", "node_index": 0, "down_duration_ms": 1000},
    {"t_ms": 200, "cluster_id": "cpu0", "node_index": 0, "down_duration_ms": 100},
)
PROBE_JOB = (400, JobSpec(name="probe", user_id="bench", kind_preferences=(CPU,),
                          shape=Rigid(node_count=1), work_units=1,
                          walltime_limit_ms=10_000))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _log_uniform(rng: random.Random, hi: int) -> int:
    """1 to hi - 1 (1 when hi is 1), small values most likely: job sizes are heavy-tailed."""
    return int(hi ** rng.random())


def _rigid(rng: random.Random, i: int, clusters: list[ClusterSpec], user: str,
           with_cloud_fallback: bool) -> JobSpec:
    cap = {}
    slowest = {}
    for c in clusters:
        if c.kind is CLOUD:
            continue
        cap[c.kind] = max(cap.get(c.kind, 0), c.node_count)
    primary = rng.choices([CPU, GPU, KNL], weights=[5, 2, 3])[0]
    needed = _log_uniform(rng, cap[primary])
    prefs = [primary] + [k for k in (CPU, GPU, KNL)
                         if k is not primary and cap[k] >= needed and rng.random() < 0.5]
    prefs[1:] = rng.sample(prefs[1:], len(prefs) - 1)
    if with_cloud_fallback and rng.random() < 0.15:
        prefs.append(CLOUD)
    for c in clusters:
        if c.kind in prefs and c.kind is not CLOUD and c.node_count >= needed:
            slowest[c.kind] = min(slowest.get(c.kind, c.speed_factor), c.speed_factor)
    work = rng.randint(20, 400)
    base = job_duration_ms(work, min(slowest.values()), needed)
    return JobSpec(name=f"job{i}", user_id=user, kind_preferences=tuple(prefs),
                   shape=Rigid(node_count=needed), work_units=work,
                   walltime_limit_ms=max(1, base * rng.randint(70, 250) // 100),
                   priority=rng.choice([0, 0, 0, 1, 2]))


def _elastic(rng: random.Random, i: int, min_cap: int, max_cap: int, user: str) -> JobSpec:
    lo = rng.randint(1, min_cap)
    hi = rng.randint(lo, max_cap)
    work = rng.randint(20, 400)
    base = job_duration_ms(work, 1, lo)
    prefs = (CLOUD,) if rng.random() < 0.8 else (CPU, CLOUD)
    return JobSpec(name=f"job{i}", user_id=user, kind_preferences=prefs,
                   shape=Elastic(min_workers=lo, max_workers=hi), work_units=work,
                   walltime_limit_ms=max(1, base * rng.randint(60, 200) // 100),
                   priority=rng.choice([0, 0, 0, 1, 2]))


def _check_placeable(spec: JobSpec, clusters: list[ClusterSpec]):
    validate_job(spec, {c.kind for c in clusters})
    if isinstance(spec.shape, Elastic):
        kinds = {CLOUD}
    else:
        kinds = set(spec.kind_preferences) - {CLOUD}
    if not any(c.kind in kinds and c.node_count >= spec.needed_nodes() for c in clusters):
        raise AssertionError(f"generated job {spec.name} cannot be placed")


def _non_overlapping_faults(rng: random.Random, clusters: list[ClusterSpec], n: int,
                            start_ms: int, span_ms: int) -> list[dict]:
    """n node faults; windows on one node are laid out one after another.

    Each fault draws its node (weighted by cluster size), start and length
    independently; a window that would begin before the previous one on
    the same node has ended is pushed back until 1 ms after it.
    """
    nodes = [(c.cluster_id, k) for c in clusters for k in range(c.node_count)]
    drawn: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for _ in range(n):
        node = rng.choice(nodes)
        drawn.setdefault(node, []).append(
            (start_ms + rng.randrange(span_ms), rng.randint(500, 30_000)))
    faults = []
    for (cid, k), windows in sorted(drawn.items()):
        free_at = 0
        for t, down in sorted(windows):
            t = max(t, free_at + 1)
            faults.append({"t_ms": t, "cluster_id": cid, "node_index": k,
                           "down_duration_ms": down})
            free_at = t + down
    faults.sort(key=lambda f: (f["t_ms"], f["cluster_id"], f["node_index"]))
    return faults


def _trace_obj(seed: int, jobs: list[tuple[int, JobSpec]], faults: list[dict]) -> dict:
    jobs = sorted(jobs, key=lambda j: j[0])    # stable: file order is job-id order
    return {"rng_seed": seed,
            "jobs": [{"t_ms": t, "spec": job_spec_to_obj(s)} for t, s in jobs],
            "faults": faults}


@dataclass
class OfflineInputs:
    clusters: list[dict]
    trace: dict
    retry_budget: int = 1            # SimConfig default, as in hsctl simulate
    hybrid_rigid_on_cloud: bool = False


def offline_backlog(seed: int) -> OfflineInputs:
    """Rigid-only jobs on the four batch clusters, arriving faster than they run.

    The jobs come in bursts; each burst arrives within BACKLOG_SPAN_MS and
    the next one starts once the site could have run the previous one
    twice over, so the run is several independent queue build-ups and
    drains, which keeps its cost close to the same for every seed.
    """
    rng = _rng("offline_backlog", seed)
    capacity = sum(c.speed_factor * c.node_count for c in BATCH_SITE)   # work units / s
    jobs = []
    start = 0
    for burst in range(BACKLOG_BURSTS):
        work = 0
        for i in range(burst * BACKLOG_JOBS, (burst + 1) * BACKLOG_JOBS):
            spec = _rigid(rng, i, BATCH_SITE, "bench", with_cloud_fallback=False)
            _check_placeable(spec, BATCH_SITE)
            jobs.append((start + rng.randrange(BACKLOG_SPAN_MS), spec))
            work += spec.work_units
        start += BACKLOG_SPAN_MS + 2 * 1000 * work // capacity
    return OfflineInputs(clusters=[cluster_spec_to_obj(c) for c in BATCH_SITE],
                         trace=_trace_obj(seed, jobs, []))


def offline_elastic_faults(seed: int) -> OfflineInputs:
    """Mostly elastic jobs on the batch site plus two cloud pools, with faults."""
    rng = _rng("offline_elastic_faults", seed)
    site = BATCH_SITE + CLOUD_POOLS
    min_cloud = min(c.node_count for c in CLOUD_POOLS)
    jobs = [PROBE_JOB]
    for i in range(ELASTIC_JOBS):
        if rng.random() < ELASTIC_FRACTION:
            spec = _elastic(rng, i, 4, min_cloud, "bench")
        else:
            spec = _rigid(rng, i, site, "bench", with_cloud_fallback=True)
        _check_placeable(spec, site)
        jobs.append((SEEDED_START_MS + rng.randrange(ELASTIC_SPAN_MS), spec))
    faults = list(OVERLAP_FAULTS) + _non_overlapping_faults(
        rng, site, RANDOM_FAULTS, SEEDED_START_MS, ELASTIC_SPAN_MS)
    faults.sort(key=lambda f: f["t_ms"])
    return OfflineInputs(clusters=[cluster_spec_to_obj(c) for c in site],
                         trace=_trace_obj(seed, jobs, faults))


@dataclass
class ServiceInputs:
    """Service config plus the client's script.

    Script steps: ("vc_create", user, body), ("submit", user, body, cancel),
    ("advance", body), ("metrics",), ("vc_release", index). A submit is
    always followed by a status poll; `cancel` asks the client to cancel
    the job right after the poll if the poll shows it Queued.
    """

    config: dict
    script: list[tuple] = field(default_factory=list)
    drain_step_ms: int = 120_000


def _body(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def service_mix(seed: int) -> ServiceInputs:
    rng = _rng("service_mix", seed)
    users = [f"u{k}" for k in range(SERVICE_USERS)]
    datasets = [{"name": f"ds{k:04d}", "size_bytes": rng.randint(1, 4_000) * 1_000_000}
                for k in range(SERVICE_DATASETS)]
    config = {
        "clusters": [cluster_spec_to_obj(c) for c in SERVICE_SITE],
        "mode": "sim",
        "scheduler": {"backfill": True, "retry_budget": 1},
        "users": [{"user_id": u,
                   "quota": {"max_concurrent_jobs": 1_000_000,
                             "max_nodes_in_use": 1_000_000_000,
                             "max_vcluster_nodes": 8}} for u in users],
        "datasets": datasets,
        "bandwidth_bytes_per_s": {"cloud0": 400_000_000, "gpu0": 1_000_000_000,
                                  "knl0": 200_000_000},
    }
    cloud = next(c for c in SERVICE_SITE if c.kind is CLOUD)
    held = sum(n for _u, n in SERVICE_VCLUSTERS)
    script: list[tuple] = []
    for user_idx, nodes in SERVICE_VCLUSTERS:
        script.append(("vc_create", users[user_idx],
                       _body({"node_count": nodes, "image": "bench"})))
    releases = {SERVICE_SUBMITS * (k + 1) // (len(SERVICE_VCLUSTERS) + 1): k
                for k in range(len(SERVICE_VCLUSTERS))}
    for i in range(SERVICE_SUBMITS):
        user = rng.choice(users)
        if rng.random() < 0.4:
            spec = _elastic(rng, i, 4, cloud.node_count - held, user)
        else:
            spec = _rigid(rng, i, SERVICE_SITE, user, with_cloud_fallback=True)
        if rng.random() < 0.3:
            refs = rng.sample([d["name"] for d in datasets], rng.randint(1, 2))
            spec = replace(spec, dataset_refs=tuple(refs))
        _check_placeable(spec, SERVICE_SITE)
        script.append(("submit", user, _body(job_spec_to_obj(spec)), i % 40 == 7))
        if i % 4 == 3:
            script.append(("advance", _body({"by_ms": rng.randint(200, 2_000)})))
        if i % 25 == 24:
            script.append(("metrics",))
        if i in releases:
            script.append(("vc_release", releases[i]))
    return ServiceInputs(config=config, script=script)
