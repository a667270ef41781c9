"""Bounded-exhaustive check of Scheduler.plan against oracles.reference_plan.

Hypothesis samples, so a backfill boundary bug can hide from it for a
whole run. Here every site of a small scope is checked instead: one
3-node cpu cluster whose nodes are each free, busy to t=5, busy to t=10,
down or held, and every queue of one or two rigid jobs that need 1-3
nodes with walltime 4, 5, 6 or 10, planned at t=0, once with backfill on
and once with it off. The walltimes end before, at, just after and well
after the t=5 deadline, so both sides of the reservation boundary are
covered.
"""

import itertools

import test_scheduler
from hybridsched.model import ResourceKind

CPU = ResourceKind.CPU
NODE_STATES = (("free", 0), ("busy", 5), ("busy", 10), ("down", 0), ("held", 0))
JOB_SHAPES = tuple(itertools.product((1, 2, 3), (4, 5, 6, 10)))   # (needed, wall)
# the spec of queue position i with a given shape, built once
SPECS = {(i, shape): test_scheduler.rigid(f"q{i}", shape[0], wall=shape[1]).spec
         for i in (0, 1) for shape in JOB_SHAPES}
FLAGS = dict(hybrid_rigid_on_cloud=False, first_preference_only=False)
SITES = 125 * (12 + 12 * 12)


def sites():
    """Every (clusters, jobs) site of the scope, 125 node states x 156 queues."""
    queues = [q for length in (1, 2) for q in itertools.product(JOB_SHAPES, repeat=length)]
    for nodes in itertools.product(NODE_STATES, repeat=3):
        clusters = [("cpu0", CPU, list(nodes))]
        for queue in queues:
            jobs = [(f"q{i}", SPECS[i, shape], False) for i, shape in enumerate(queue)]
            yield clusters, jobs


def plan_every_site(backfill):
    """Check every site with the given backfill flag; return (checked, failures)."""
    check = test_scheduler.TestPlanAgainstReference.check
    flags = dict(FLAGS, backfill=backfill)
    checked = 0
    failures = []
    for clusters, jobs in sites():
        checked += 1
        try:
            check(0, clusters, jobs, flags)
        except AssertionError:
            failures.append((clusters[0][2],
                             [(spec.shape.node_count, spec.walltime_limit_ms)
                              for _job_id, spec, _requeued in jobs]))
    return checked, failures


def test_every_small_site_plans_as_the_reference():
    checked, failures = plan_every_site(backfill=True)
    assert checked == SITES
    assert not failures, f"{len(failures)} of {checked} sites differ; first: {failures[:3]}"


def test_every_small_site_plans_as_the_reference_without_backfill():
    checked, failures = plan_every_site(backfill=False)
    assert checked == SITES
    assert not failures, f"{len(failures)} of {checked} sites differ; first: {failures[:3]}"
