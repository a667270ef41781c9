"""A corpus of seeded logs across scheduler configurations.

Each cell runs `random_clusters(seed)` and a 150-job `random_trace` under
one `SimConfig`, pins the SHA-256 of the canonical log, and checks the
log against oracles that import nothing from the engine. The traces are
mixed (30% elastic jobs, 6 node faults), rigid-only, or mixed with tight
walltimes (each walltime equals the job's modeled duration on its slowest
acceptable cluster); the configs vary backfill, `retry_budget`,
`hybrid_rigid_on_cloud` and `first_preference_only`. The oracles:

- the benchmark's checker (`perfbench/check.py`) replays every attempt,
  end time, occupancy and report row;
- the jobs failed at arrival are exactly the rigid jobs that no
  acceptable cluster can hold. The checker does not model that rule, so
  with `hybrid_rigid_on_cloud` off (a rigid job that lists only `cloud`
  has nowhere to run) or `first_preference_only` on (a rigid job may use
  only its first kind) its one complaint is such a job;
- rigid-only cells without backfilling also go through `FifoOracle`;
- every plan cycle of the run returns what `oracles.reference_plan`
  returns on the same state, and a reference plan on the state the
  cycle's starts leave, before the elastic rescale pass, starts nothing.

After a change that is meant to move the logs, rewrite the hashes with

    PYTHONPATH=src python tests/test_corpus.py
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import oracles
from hybridsched.engine import SimConfig, run_trace
from hybridsched.metrics import utilization, wait_stats
from hybridsched.model import cluster_spec_to_obj
from hybridsched.scheduler import Scheduler
from hybridsched.traces import random_clusters, random_trace, trace_to_obj

HERE = Path(__file__).resolve().parent
HASHES_PATH = HERE / "corpus_hashes.json"

_spec = importlib.util.spec_from_file_location(
    "perfbench_check", HERE.parent / "perfbench" / "check.py")
check = sys.modules["perfbench_check"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

SEEDS = range(1, 13)


def on_off(flag):
    return "on" if flag else "off"


# (seed, trace, backfill, retry_budget, hybrid_rigid_on_cloud,
# first_preference_only); a mixed trace has 30% elastic jobs and 6 node
# faults, a tight one is mixed with tight walltimes, and a rigid-only one
# has neither, so the FIFO oracle can replay it
MIXED, RIGID_ONLY, TIGHT = "mixed", "rigid-only", "tight-walltime"
CELLS = [(seed, MIXED, backfill, budget, hybrid, False)
         for seed in SEEDS for backfill in (True, False)
         for budget in (0, 1) for hybrid in (True, False)]
CELLS += [(seed, RIGID_ONLY, False, 1, seed % 2 == 0, False) for seed in SEEDS]
CELLS += [(seed, TIGHT, True, 1, hybrid, False) for seed in SEEDS for hybrid in (True, False)]
CELLS += [(seed, MIXED, True, 1, hybrid, True) for seed in SEEDS for hybrid in (True, False)]


def cell_name(cell):
    seed, trace, backfill, budget, hybrid, first_only = cell
    return (f"seed={seed} {trace} backfill={on_off(backfill)} retry_budget={budget} "
            f"hybrid={on_off(hybrid)}" + (" first_preference_only=on" if first_only else ""))


def inputs(seed, trace):
    """(clusters, trace) of a cell."""
    clusters = random_clusters(seed)
    if trace == RIGID_ONLY:
        return clusters, random_trace(seed, clusters, n_jobs=150, rigid_only=True)
    return clusters, random_trace(seed, clusters, n_jobs=150, n_faults=6, elastic_fraction=0.3,
                                  tight_walltime=trace == TIGHT)


def run_cell(cell, clusters, trace):
    _seed, _trace, backfill, budget, hybrid, first_only = cell
    config = SimConfig(backfill=backfill, retry_budget=budget, hybrid_rigid_on_cloud=hybrid,
                       first_preference_only=first_only)
    return run_trace(trace, clusters, config)[0]


def acceptable_kinds(spec, hybrid, first_only=False):
    if "elastic" in spec["shape"]:
        return ("cloud",)
    prefs = spec["kind_preferences"][:1] if first_only else spec["kind_preferences"]
    return tuple(k for k in prefs if hybrid or k != "cloud")


def unsatisfiable(clusters, jobs, hybrid, first_only):
    """Rigid jobs with no acceptable cluster of at least their size."""
    return {job_id for job_id, spec in jobs.items() if "rigid" in spec["shape"]
            and not any(c["kind"] in acceptable_kinds(spec, hybrid, first_only)
                        and c["node_count"] >= spec["shape"]["rigid"]["node_count"]
                        for c in clusters)}


def failed_at_arrival(events):
    """Jobs whose own events begin JobSubmitted, JobFailed."""
    kinds = {}
    for ev in events:
        if "job_id" in ev:
            kinds.setdefault(ev["job_id"], []).append(ev["kind"])
    return {job_id for job_id, seen in kinds.items() if seen[:2] == ["JobSubmitted", "JobFailed"]}


def fifo_starts(clusters, entries, unsat, hybrid):
    """Start time of each job under FifoOracle; unsatisfiable jobs never queue."""
    jobs = [(job_id, entry["t_ms"], entry["spec"]["priority"],
             acceptable_kinds(entry["spec"], hybrid),
             entry["spec"]["shape"]["rigid"]["node_count"], entry["spec"]["work_units"],
             entry["spec"]["walltime_limit_ms"])
            for job_id, entry in entries.items() if job_id not in unsat]
    topology = [(c["cluster_id"], c["kind"], c["node_count"], c["speed_factor"])
                for c in clusters]
    return oracles.FifoOracle(topology, jobs).run().start_ms


def reference_state(sched, facts):
    """(clusters, queue) of oracles.reference_plan, read off a live scheduler.

    facts maps each job id to its (needed, wall_ms, accept), worked out
    from the trace; only occupancy and queue order come from sched.
    """
    records = sched.records
    clusters = {}
    for cid, cs in sched.clusters.items():
        busy = {n: records[job_id].start_ms + records[job_id].spec.walltime_limit_ms
                for n, job_id in cs.owner.items()}
        clusters[cid] = (cs.spec.node_count, busy, set(cs.down), set(cs.held))
    return clusters, [(job_id, *facts[job_id]) for job_id in oracles.queue_order(sched)]


def checked_plan(cell, cluster_objs, jobs, cycles):
    """Scheduler.plan, checking each cycle against oracles.reference_plan.

    Each checked cycle appends its clock reading to cycles.
    """
    _seed, _kind, backfill, _budget, hybrid, first_only = cell
    name = cell_name(cell)
    by_kind = {}
    for c in sorted(cluster_objs, key=lambda c: c["cluster_id"]):
        by_kind.setdefault(c["kind"], []).append(c["cluster_id"])
    facts = {}
    for job_id, spec in jobs.items():
        [(tag, shape)] = spec["shape"].items()
        accept = tuple(cid for kind in acceptable_kinds(spec, hybrid, first_only)
                       for cid in by_kind.get(kind, ()))
        facts[job_id] = (shape["node_count" if tag == "rigid" else "min_workers"],
                         spec["walltime_limit_ms"], accept)
    plan = Scheduler.plan

    def checked(sched, now_ms):
        before = reference_state(sched, facts)
        decision = plan(sched, now_ms)
        starts, reservation = oracles.reference_plan(*before, now_ms, backfill)
        records = sched.records
        assert [(job_id, records[job_id].cluster_id, records[job_id].node_indices)
                for job_id in decision.starts] == starts, (name, now_ms)
        r = decision.reservation
        assert (None if r is None else (r.job_id, r.cluster_id, r.node_indices, r.start_ms,
                                        r.expected_end_ms)) == reservation, (name, now_ms)
        again, _ = oracles.reference_plan(*reference_state(sched, facts), now_ms, backfill)
        # the cycle is a fixpoint before the rescale pass
        assert again == [], (name, now_ms)
        cycles.append(now_ms)
        return decision
    return checked


HASHES = json.loads(HASHES_PATH.read_text()) if HASHES_PATH.exists() else {}


@pytest.mark.parametrize("seed", SEEDS)
def test_cells_of_one_seed(seed, monkeypatch):
    for kind in (MIXED, RIGID_ONLY, TIGHT):
        clusters, trace = inputs(seed, kind)
        cluster_objs = [cluster_spec_to_obj(c) for c in clusters]
        trace_obj = trace_to_obj(trace)
        for cell in CELLS:
            if cell[:2] == (seed, kind):
                check_cell(cell, clusters, trace, cluster_objs, trace_obj, monkeypatch)


def check_cell(cell, clusters, trace, cluster_objs, trace_obj, monkeypatch):
    name = cell_name(cell)
    _seed, kind, backfill, budget, hybrid, first_only = cell
    entries = {f"j{i:06d}": entry for i, entry in enumerate(trace_obj["jobs"])}
    jobs = {job_id: entry["spec"] for job_id, entry in entries.items()}
    cycles = []
    with monkeypatch.context() as patch:
        patch.setattr(Scheduler, "plan", checked_plan(cell, cluster_objs, jobs, cycles))
        log = run_cell(cell, clusters, trace)
    assert cycles, name
    data = log.canonical_bytes()
    assert hashlib.sha256(data).hexdigest() == HASHES.get(name), name

    lines = data.decode().splitlines()
    events = oracles.parse_log(lines)      # oracles.log_events(log), serialized once
    unsat = unsatisfiable(cluster_objs, jobs, hybrid, first_only)
    assert failed_at_arrival(events) == unsat, name

    last_t = events[-1]["t"] if events else 0
    report = utilization(log, clusters, (0, max(last_t, 1))).to_obj()
    site = check.Site(cluster_objs, jobs, trace_obj["faults"], retry_budget=budget,
                      hybrid_rigid_on_cloud=hybrid)
    outcome = check.check_offline(site, lines, report, wait_stats(log).to_obj())
    explained = {f"{job_id}: ends JobFailed without ever starting" for job_id in unsat}
    assert [p for p in outcome.problems if p not in explained] == [], name
    assert outcome.known_defect_failures == 0, name

    if kind == RIGID_ONLY and not backfill:
        starts = {}
        for ev in events:
            if ev["kind"] == "JobStarted":
                starts.setdefault(ev["job_id"], ev["t"])
        assert starts == fifo_starts(cluster_objs, entries, unsat, hybrid), name


if __name__ == "__main__":
    hashes = {cell_name(cell): hashlib.sha256(
        run_cell(cell, *inputs(cell[0], cell[1])).canonical_bytes()).hexdigest() for cell in CELLS}
    HASHES_PATH.write_text(json.dumps(hashes, indent=1) + "\n")
    print(f"wrote {len(hashes)} hashes to {HASHES_PATH}")
