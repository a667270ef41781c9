"""Bounded-exhaustive engine runs: every trace of a small scope, end to end.

Hypothesis and the seeded corpus sample their inputs; here every trace of
a small scope runs through `run_trace` and is checked with the
benchmark's checker (`perfbench/check.py` `check_offline`), as
`tests/test_corpus.py` does. The scope: one 2-node cpu cluster of speed
100 and at most two rigid jobs, each needing 1 or 2 nodes, with 1 or 3
work units, a walltime of exactly, half of or four times its run time,
arriving at 0 or 5 ms; plus at most one fault (node 0 or 1, from 0 or
7 ms, for 1 or 20 ms). Traces are distinct after the stable sort by
arrival time, 457 job lists in all.

Each run is also checked for a rule the checker does not encode: a fault
takes its node out of placement from its millisecond's first plan cycle
(`Simulation._plan_cycle`), so no job starts on a node, or grows onto it,
at the millisecond a fault on it begins.

The tier-1 test runs the scope with backfill on. Run it with backfill on
and off, and the wide scope too, with

    PYTHONPATH=src python tests/test_enumeration.py

The wide scope adds a 2-node cloud pool of speed 100 and at most one
elastic job (1-2 workers, 1 or 3 work units, a walltime of exactly or
half its one-worker run time, arriving at 0 or 5 ms), lets the rigid jobs
run on the pool (`hybrid_rigid_on_cloud`), and puts its one fault on the
pool, 20 ms long, since the base scope covers faults on the cpu
cluster and faults of 1 ms.
"""

import itertools
import json
import sys
import time

from hybridsched.engine import SimConfig, run_trace
from hybridsched.metrics import utilization, wait_stats
from hybridsched.model import (
    ClusterSpec,
    Elastic,
    JobSpec,
    ResourceKind,
    Rigid,
    cluster_spec_to_obj,
)
from hybridsched.traces import FaultDirective, SubmissionTrace, trace_to_obj
from test_corpus import check

CPU = ResourceKind.CPU
CLOUD = ResourceKind.CLOUD
SPEED = 100


def cluster(cid, kind):
    return ClusterSpec(cluster_id=cid, kind=kind, node_count=2, cores_per_node=8,
                       speed_factor=SPEED)


def run_ms(work, workers):
    return -(-1000 * work // (SPEED * workers))


def rigid_jobs(prefs):
    """(t_ms, spec) of each of the 24 rigid jobs of the scope."""
    return [(t_ms, JobSpec(name="r", user_id="u", kind_preferences=prefs,
                           shape=Rigid(node_count=needed), work_units=work,
                           walltime_limit_ms=wall))
            for needed, work, t_ms in itertools.product((1, 2), (1, 3), (0, 5))
            for run in [run_ms(work, needed)]
            for wall in (run, run // 2, 4 * run)]


def elastic_jobs():
    """(t_ms, spec) of each of the 8 elastic jobs of the wide scope."""
    return [(t_ms, JobSpec(name="e", user_id="u", kind_preferences=(CLOUD,),
                           shape=Elastic(min_workers=1, max_workers=2), work_units=work,
                           walltime_limit_ms=wall))
            for work, t_ms in itertools.product((1, 3), (0, 5))
            for run in [run_ms(work, 1)]
            for wall in (run, run // 2)]


def job_lists(prefs):
    """Every list of at most two rigid jobs, each list once after the sort by arrival."""
    rigid = rigid_jobs(prefs)
    return [list(jobs) for n in (0, 1, 2) for jobs in itertools.product(rigid, repeat=n)
            if list(jobs) == sorted(jobs, key=lambda job: job[0])]


def faults(cluster_id, lengths=(1, 20)):
    """No fault, then each single fault of the scope on one cluster."""
    return [[]] + [[FaultDirective(t_ms, cluster_id, node, length)]
                   for node, t_ms, length in itertools.product((0, 1), (0, 7), lengths)]


def scope(wide=False):
    """(clusters, hybrid_rigid_on_cloud, trace) of every trace of the scope."""
    if not wide:
        clusters = [cluster("cpu0", CPU)]
        for jobs, fault in itertools.product(job_lists((CPU,)), faults("cpu0")):
            yield clusters, False, SubmissionTrace(jobs=jobs, faults=fault)
        return
    clusters = [cluster("cloud0", CLOUD), cluster("cpu0", CPU)]
    for jobs, extra, fault in itertools.product(job_lists((CPU, CLOUD)),
                                                [[]] + [[e] for e in elastic_jobs()],
                                                faults("cloud0", lengths=(20,))):
        yield clusters, True, SubmissionTrace(jobs=jobs + extra, faults=fault)


def run_one(clusters, hybrid, trace, backfill):
    """(canonical lines, problems) of one run: the checker's, then the pre-marking rule's."""
    config = SimConfig(backfill=backfill, hybrid_rigid_on_cloud=hybrid)
    log = run_trace(trace, clusters, config)[0]
    lines = log.canonical_bytes().decode().splitlines()
    trace_obj = trace_to_obj(trace)
    jobs = {f"j{i:06d}": entry["spec"] for i, entry in enumerate(trace_obj["jobs"])}
    report = utilization(log, clusters, (0, max(log.t_ms[-1] if lines else 0, 1))).to_obj()
    site = check.Site([cluster_spec_to_obj(c) for c in clusters], jobs, trace_obj["faults"],
                      retry_budget=config.retry_budget, hybrid_rigid_on_cloud=hybrid)
    outcome = check.check_offline(site, lines, report, wait_stats(log).to_obj())
    problems = list(outcome.problems)
    if outcome.known_defect_failures:
        problems.append(f"{outcome.known_defect_failures} known-defect failures")
    fault_starts = {(f.t_ms, f.cluster_id, f.node_index) for f in trace.faults}
    held = {}   # job -> its nodes, from its last JobStarted or RescaleApplied
    for line in lines if fault_starts else ():
        if '"kind":"JobStarted"' in line or '"kind":"RescaleApplied"' in line:
            ev = json.loads(line)
            job_id, nodes = ev["job_id"], ev["node_indices"]
            before = held.get(job_id, ()) if ev["kind"] == "RescaleApplied" else ()
            held[job_id] = nodes
            for n in set(nodes).difference(before):
                if (ev["t"], ev["cluster_id"], n) in fault_starts:
                    problems.append(f"{job_id} takes {ev['cluster_id']}/{n} at {ev['t']}, "
                                    f"as a fault on it begins")
    return lines, problems


def check_every_run(traces, flags=(True, False)):
    """Run each trace under each backfill flag; return (runs, failures)."""
    runs = 0
    failures = []
    for clusters, hybrid, trace in traces:
        for backfill in flags:
            runs += 1
            _lines, problems = run_one(clusters, hybrid, trace, backfill)
            if problems:
                failures.append((trace_to_obj(trace), backfill, problems))
    return runs, failures


def test_every_small_trace_with_backfill():
    runs, failures = check_every_run(scope(), flags=(True,))
    assert runs == 457 * 9
    assert not failures, f"{len(failures)} of {runs} runs fail; first: {failures[:2]}"


if __name__ == "__main__":
    failed = False
    for wide in (False, True):
        t0 = time.perf_counter()
        runs, failures = check_every_run(scope(wide))
        print(f"{'wide' if wide else 'base'} scope: {runs} runs, {len(failures)} failing, "
              f"{time.perf_counter() - t0:.1f} s")
        for failure in failures[:5]:
            print("  ", failure)
        failed = failed or bool(failures)
    sys.exit(1 if failed else 0)
