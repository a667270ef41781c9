"""Bounded-exhaustive check of Scheduler.plan against oracles.reference_plan.

Hypothesis samples, so a backfill boundary bug can hide from it for a
whole run. Here every site of a small scope is checked instead: one
3-node cpu cluster whose nodes are each free, busy to t=5, busy to t=10,
down or held, and every queue of one or two rigid jobs that need 1-3
nodes with walltime 4, 5, 6 or 10, planned at t=0, once with backfill on
and once with it off. The walltimes end before, at, just after and well
after the t=5 deadline, so both sides of the reservation boundary are
covered.

The wide scope adds a cloud pool, the routing flags and longer queues: a
2-node cpu cluster whose nodes are each free, busy to t=5, busy to t=10 or
down, a 2-node cloud pool whose nodes are each free, busy to t=5 or held,
and every queue of one to three of six jobs (rigid jobs that list cpu,
cloud or both, and elastic ones), planned at t=0, 1 and 2 with backfill
on and off under each setting of hybrid_rigid_on_cloud and
first_preference_only. Its 2-node pools never leave a free node outside a
reservation on the reserved cluster, so the pool3 scope repeats it with
a 3-node cloud pool, where a head that reserves two of them can leave the
third for a job that would still run at the reservation start.

Tier-1 runs the base scope; run the wide and pool3 scopes, or either one,
with

    PYTHONPATH=src python tests/test_exhaustive.py [wide] [pool3]
"""

import itertools
import sys
import time

import pytest

import test_scheduler
from hybridsched.model import ResourceKind

CPU = ResourceKind.CPU
CLOUD = ResourceKind.CLOUD
NODE_STATES = (("free", 0), ("busy", 5), ("busy", 10), ("down", 0), ("held", 0))
JOB_SHAPES = tuple(itertools.product((1, 2, 3), (4, 5, 6, 10)))   # (needed, wall)
# the spec of queue position i with a given shape, built once
SPECS = {(i, shape): test_scheduler.rigid(f"q{i}", shape[0], wall=shape[1]).spec
         for i in (0, 1) for shape in JOB_SHAPES}
FLAGS = dict(hybrid_rigid_on_cloud=False, first_preference_only=False)
SITES = 125 * (12 + 12 * 12)

WIDE_CPU_STATES = (("free", 0), ("busy", 5), ("busy", 10), ("down", 0))
WIDE_CLOUD_STATES = (("free", 0), ("busy", 5), ("held", 0))
# rigid jobs that list cpu then cloud, cloud then cpu, cpu only and cloud
# only, then elastic jobs of 1-2 and 2-2 workers; the walltimes 4-6
# straddle the t=5 deadline and 10 reaches the t=10 one
WIDE_JOBS = (test_scheduler.rigid("a", 1, wall=4, prefs=(CPU, CLOUD)),
             test_scheduler.rigid("b", 2, wall=6, prefs=(CLOUD, CPU)),
             test_scheduler.rigid("c", 2, wall=5, prefs=(CPU,)),
             test_scheduler.rigid("d", 1, wall=10, prefs=(CLOUD,)),
             test_scheduler.elastic("e", 1, 2, wall=5),
             test_scheduler.elastic("f", 2, 2, wall=4))
WIDE_SPECS = {(i, k): job.spec for i in range(3) for k, job in enumerate(WIDE_JOBS)}
# cloud pool size of each wide scope
CLOUD_NODES = {"wide": 2, "pool3": 3}


def sites():
    """Every (clusters, jobs) site of the scope, 125 node states x 156 queues."""
    queues = [q for length in (1, 2) for q in itertools.product(JOB_SHAPES, repeat=length)]
    for nodes in itertools.product(NODE_STATES, repeat=3):
        clusters = [("cpu0", CPU, list(nodes))]
        for queue in queues:
            jobs = [(f"q{i}", SPECS[i, shape], False) for i, shape in enumerate(queue)]
            yield clusters, jobs


def wide_sites(cloud_nodes=2):
    """Every (clusters, jobs) site of a wide scope, 16 x 3**cloud_nodes node states x 258 queues."""
    queues = [q for length in (1, 2, 3)
              for q in itertools.product(range(len(WIDE_JOBS)), repeat=length)]
    for cpu, cloud in itertools.product(itertools.product(WIDE_CPU_STATES, repeat=2),
                                        itertools.product(WIDE_CLOUD_STATES,
                                                          repeat=cloud_nodes)):
        clusters = [("cloud0", CLOUD, list(cloud)), ("cpu0", CPU, list(cpu))]
        for queue in queues:
            yield clusters, [(f"q{i}", WIDE_SPECS[i, k], False) for i, k in enumerate(queue)]


def plan_every_site(backfill, scope=sites, shifts=(0,), flag_sets=(FLAGS,)):
    """Check every site under each flag set and clock shift; return (checked, failures)."""
    check = test_scheduler.TestPlanAgainstReference.check
    checked = 0
    failures = []
    for clusters, jobs in scope():
        for flags, now in itertools.product(flag_sets, shifts):
            checked += 1
            try:
                check(now, clusters, jobs, dict(flags, backfill=backfill))
            except (AssertionError, pytest.fail.Exception):
                failures.append((now, flags, [nodes for _cid, _kind, nodes in clusters],
                                 [job_id for job_id, _spec, _requeued in jobs]))
    return checked, failures


def test_every_small_site_plans_as_the_reference():
    checked, failures = plan_every_site(backfill=True)
    assert checked == SITES
    assert not failures, f"{len(failures)} of {checked} sites differ; first: {failures[:3]}"


def test_every_small_site_plans_as_the_reference_without_backfill():
    checked, failures = plan_every_site(backfill=False)
    assert checked == SITES
    assert not failures, f"{len(failures)} of {checked} sites differ; first: {failures[:3]}"


if __name__ == "__main__":
    routing = [dict(hybrid_rigid_on_cloud=hybrid, first_preference_only=first_only)
               for hybrid, first_only in itertools.product((False, True), repeat=2)]
    failed = False
    for name in sys.argv[1:] or list(CLOUD_NODES):
        cloud_nodes = CLOUD_NODES[name]
        for backfill in (True, False):
            t0 = time.perf_counter()
            checked, failures = plan_every_site(backfill, lambda: wide_sites(cloud_nodes),
                                                (0, 1, 2), routing)
            assert checked == 4**2 * 3**cloud_nodes * (6 + 6**2 + 6**3) * 4 * 3, checked
            print(f"{name} scope, backfill {'on' if backfill else 'off'}: {checked} plans, "
                  f"{len(failures)} differ, {time.perf_counter() - t0:.1f} s")
            for failure in failures[:5]:
                print("  ", failure)
            failed = failed or bool(failures)
    sys.exit(1 if failed else 0)
