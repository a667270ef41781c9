"""The checker flags what it must, on small hand-made logs.

    python3 -m pytest perfbench/test_check.py -q
"""

import json

import check

CLUSTERS = [
    {"cluster_id": "cpu0", "kind": "cpu", "node_count": 4, "cores_per_node": 8, "speed_factor": 2},
    {"cluster_id": "gpu0", "kind": "gpu", "node_count": 2, "cores_per_node": 8, "speed_factor": 4},
    {"cluster_id": "cloud0", "kind": "cloud", "node_count": 4, "cores_per_node": 8,
     "speed_factor": 1},
]


def rigid(nodes, work, kinds=("cpu",), wall=100_000):
    return {"name": "x", "user_id": "u", "kind_preferences": list(kinds),
            "shape": {"rigid": {"node_count": nodes}}, "work_units": work,
            "walltime_limit_ms": wall, "dataset_refs": [], "priority": 0}


def elastic(lo, hi, work, wall=100_000):
    return {"name": "e", "user_id": "u", "kind_preferences": ["cloud"],
            "shape": {"elastic": {"min_workers": lo, "max_workers": hi}}, "work_units": work,
            "walltime_limit_ms": wall, "dataset_refs": [], "priority": 0}


def log(*events):
    """Canonical lines from (t, kind, payload) triples; seq is the position."""
    lines = []
    for seq, (t, kind, payload) in enumerate(events):
        obj = {"t": t, "seq": seq, "kind": kind}
        obj.update(sorted(payload.items()))
        lines.append(json.dumps(obj, separators=(",", ":")))
    return lines


def submitted(t, job):
    return [(t, "JobSubmitted", {"job_id": job}), (t, "JobQueued", {"job_id": job})]


def started(t, job, cid, nodes, **extra):
    return (t, "JobStarted", {"cluster_id": cid, "job_id": job, "node_indices": nodes, **extra})


def finished(t, job):
    return (t, "JobFinished", {"job_id": job})


# j0 needs ceil(1000 * 10 / (2 * 2)) = 2500 ms on cpu0, j1 ceil(4000 / 4) = 1000 ms.
JOBS = {"j000000": rigid(2, 10), "j000001": rigid(2, 4)}


def problems(jobs, lines, faults=()):
    replay = check.Replay(check.Site(CLUSTERS, jobs, list(faults), retry_budget=1), lines)
    replay.check_jobs()
    return {job: sorted({kind for kind, _ in found})
            for job, found in replay.job_problems.items() if found}


def test_clean_log_passes():
    lines = log(*submitted(0, "j000000"), started(0, "j000000", "cpu0", [0, 1]),
                *submitted(0, "j000001"), started(0, "j000001", "cpu0", [2, 3]),
                finished(1000, "j000001"), finished(2500, "j000000"))
    assert problems(JOBS, lines) == {}


def test_flags_double_booking():
    lines = log(*submitted(0, "j000000"), started(0, "j000000", "cpu0", [0, 1]),
                *submitted(0, "j000001"), started(0, "j000001", "cpu0", [1, 2]),
                finished(1000, "j000001"), finished(2500, "j000000"))
    assert problems(JOBS, lines) == {"j000001": ["double_booked"]}


def test_flags_wrong_kind_placement():
    # on gpu0 j1 would take ceil(4000 / 8) = 500 ms; it finishes then
    lines = log(*submitted(0, "j000000"), started(0, "j000000", "cpu0", [0, 1]),
                *submitted(0, "j000001"), started(0, "j000001", "gpu0", [0, 1]),
                finished(500, "j000001"), finished(2500, "j000000"))
    assert problems(JOBS, lines) == {"j000001": ["wrong_kind"]}


def test_flags_rigid_finish_off_by_one_ms():
    for t in (2499, 2501):
        lines = log(*submitted(0, "j000000"), started(0, "j000000", "cpu0", [0, 1]),
                    *submitted(0, "j000001"), started(0, "j000001", "cpu0", [2, 3]),
                    finished(1000, "j000001"), finished(t, "j000000"))
        assert problems(JOBS, lines) == {"j000000": ["timing"]}


def test_rigid_walltime_kill_is_expected_when_shorter():
    jobs = {"j000000": rigid(2, 10, wall=2499)}
    ok = log(*submitted(0, "j000000"), started(0, "j000000", "cpu0", [0, 1]),
             (2499, "JobTimedOut", {"job_id": "j000000"}))
    late = log(*submitted(0, "j000000"), started(0, "j000000", "cpu0", [0, 1]),
               finished(2500, "j000000"))
    assert problems(jobs, ok) == {}
    assert problems(jobs, late) == {"j000000": ["timing"]}


def test_flags_elastic_finish_off_by_one_ms():
    # 1 worker for 1000 ms credits 1000 of 3000; 2 workers finish the rest at 2000
    jobs = {"j000000": elastic(1, 4, 3)}

    def run(t_end):
        return log(*submitted(0, "j000000"), started(0, "j000000", "cloud0", [0], workers=1),
                   (1000, "RescaleApplied", {"cluster_id": "cloud0", "job_id": "j000000",
                                             "node_indices": [0, 1], "workers": 2}),
                   finished(t_end, "j000000"))

    assert problems(jobs, run(2000)) == {}
    assert problems(jobs, run(1999)) == {"j000000": ["timing"]}
    assert problems(jobs, run(2001)) == {"j000000": ["timing"]}


def test_overlapping_faults_are_traced_to_the_known_defect():
    # cpu0/0 is down over (100, 1100); the engine's view ends at 300
    faults = [{"t_ms": 100, "cluster_id": "cpu0", "node_index": 0, "down_duration_ms": 1000},
              {"t_ms": 200, "cluster_id": "cpu0", "node_index": 0, "down_duration_ms": 100}]
    jobs = {"j000000": rigid(1, 1)}
    lines = log(*submitted(400, "j000000"), started(400, "j000000", "cpu0", [0]),
                finished(900, "j000000"))
    site = check.Site(CLUSTERS, jobs, faults, retry_budget=1)
    rows = [{"cluster_id": "cloud0", "busy_node_ms": 0, "available_node_ms": 3600,
             "held_node_ms": 0, "utilization": "0.0000"},
            {"cluster_id": "cpu0", "busy_node_ms": 500, "available_node_ms": 3500,
             "held_node_ms": 0, "utilization": "0.1429"},
            {"cluster_id": "gpu0", "busy_node_ms": 0, "available_node_ms": 1800,
             "held_node_ms": 0, "utilization": "0.0000"}]
    report = {"window": {"from_ms": 0, "to_ms": 900}, "clusters": rows,
              "aggregate": {"busy_node_ms": 500, "available_node_ms": 8900,
                            "held_node_ms": 0, "utilization": "0.0562"}}
    waits = {"n_jobs": 1, "n_started": 1, "n_never_started": 0, "mean_wait_ms": 0,
             "median_wait_ms": 0, "p95_wait_ms": 0, "mean_turnaround_ms": 500,
             "makespan_ms": 500}
    out = check.check_offline(site, lines, report, waits)
    assert (out.attempted, out.failed, out.known_defect_failures) == (4, 2, 2)
    assert out.correct, out.problems
    # the same placement on a node whose fault windows do not overlap is a plain failure
    site = check.Site(CLUSTERS, jobs, faults[:1], retry_budget=1)
    rows[1]["available_node_ms"] = 2800
    rows[1]["utilization"] = "0.1786"
    report["aggregate"].update(available_node_ms=8200, utilization="0.0610")
    out = check.check_offline(site, lines, report, waits)
    assert out.failed == 1 and not out.correct
