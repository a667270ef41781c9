"""Acceptance gate: ten system-level checks, one line of verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines. Each check recomputes its expectation from an
independent oracle (hand-walked timelines, brute-force scans, a
no-backfill reference scheduler) rather than from the code under test.
"""

import random
import threading
import time
from dataclasses import replace

import oracles
from hybridsched.engine import SimConfig, Simulation, run_trace
from hybridsched.metrics import compare, utilization
from hybridsched.model import (
    ClusterSpec,
    Elastic,
    InvalidTransition,
    JobSpec,
    JobState,
    ResourceKind,
    Rigid,
    transition,
)
from hybridsched.service import ServiceConfig, make_service_server
from hybridsched.traces import (
    FaultDirective,
    SubmissionTrace,
    random_clusters,
    random_trace,
)

CPU = ResourceKind.CPU
GPU = ResourceKind.GPU
KNL = ResourceKind.KNL
CLOUD = ResourceKind.CLOUD


def report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {name}" + (f" -- {detail}" if detail else "")
    print(line, flush=True)
    assert ok, line


def cluster(cid, kind, nodes, speed=1):
    return ClusterSpec(cluster_id=cid, kind=kind, node_count=nodes,
                       cores_per_node=8, speed_factor=speed)


def rigid(name, nodes, work, wall, prefs=(CPU,), user="u"):
    return JobSpec(name=name, user_id=user, kind_preferences=tuple(prefs),
                   shape=Rigid(node_count=nodes), work_units=work,
                   walltime_limit_ms=wall)


def test_criterion_01_determinism():
    t0 = time.perf_counter()
    identical = 0
    for seed in range(50):
        clusters = random_clusters(seed)
        n_jobs = 50 + (seed * 101) % 151        # 50..200
        trace = random_trace(seed, clusters, n_jobs, arrival_span_ms=30_000,
                             elastic_fraction=0.25, n_faults=seed % 3)
        log1, _ = run_trace(trace, clusters)
        log2, _ = run_trace(trace, clusters)
        identical += log1.canonical_bytes() == log2.canonical_bytes()
    elapsed = time.perf_counter() - t0
    report("criterion 1: determinism, 50 traces run twice",
           identical == 50 and elapsed < 10.0,
           f"{identical}/50 byte-identical in {elapsed:.2f}s (budget 10s)")


def test_criterion_02_no_overallocation_and_kind_respect():
    violations = []
    for seed in range(1000):
        clusters = random_clusters(seed)
        trace = random_trace(seed + 7_000_000, clusters,
                             n_jobs=8 + seed % 17,
                             arrival_span_ms=3_000, elastic_fraction=0.3,
                             n_faults=seed % 3)
        log, records = run_trace(trace, clusters)
        cluster_map = {c.cluster_id: (c.kind.value, c.node_count) for c in clusters}
        job_kinds = {jid: {k.value for k in rec.spec.kind_preferences}
                     for jid, rec in records.items()}
        violations.extend(oracles.replay_occupancy(oracles.log_events(log),
                                                   cluster_map, job_kinds))
    report("criterion 2: occupancy and kind respect over 1000 traces",
           not violations,
           violations[0] if violations else "0 violations in 1000 replays")


def test_criterion_03_conservative_backfilling():
    # Regime with exact runtime knowledge: rigid jobs, priority 0, tight
    # walltimes, uniform speed within a topology, no faults. The
    # reference is an independent no-backfill FIFO scheduler; the claim
    # is that backfilling never delays the first job that had to wait
    # for a reservation.
    rng = random.Random(33)
    checked = 0
    exact = 0
    violations = []
    for _case in range(400):
        speed = rng.randint(1, 3)
        kinds = rng.sample([CPU, GPU, KNL], rng.randint(1, 3))
        clusters = [cluster(f"{k.value}{i}", k, rng.randint(2, 6), speed)
                    for i, k in enumerate(kinds)]
        trace = random_trace(rng.randint(0, 10**6), clusters,
                             n_jobs=rng.randint(6, 20),
                             arrival_span_ms=6_000, rigid_only=True,
                             tight_walltime=True)
        sim = Simulation(clusters)
        ordered = []
        for t_ms, spec in trace.jobs:
            spec = replace(spec, priority=0)
            sim.schedule_arrival(t_ms, spec)
            ordered.append((t_ms, spec))
        first = []   # the job of the first reservation any plan cycle makes

        def plan(now_ms, plan=sim.scheduler.plan, first=first):
            decision = plan(now_ms)
            if decision.reservation is not None and not first:
                first.append(decision.reservation.job_id)
            return decision

        sim.scheduler.plan = plan
        sim.run_to_quiescence()
        if not first:
            continue
        head = first[0]
        checked += 1
        with_bf = sim.records[head].start_ms
        oracle = oracles.FifoOracle(
            [(c.cluster_id, c.kind.value, c.node_count, c.speed_factor)
             for c in clusters],
            [(f"j{i:06d}", t_ms, spec.priority,
              [k.value for k in spec.kind_preferences],
              spec.shape.node_count, spec.work_units, spec.walltime_limit_ms)
             for i, (t_ms, spec) in enumerate(ordered)],
        ).run()
        without_bf = oracle.start_ms[head]
        if with_bf > without_bf:
            violations.append((head, with_bf, without_bf))
        elif with_bf == without_bf:
            exact += 1
    report("criterion 3: backfilling never delays the blocked head",
           checked > 0 and not violations,
           violations[:3] if violations else
           f"{checked} reserved heads checked, {exact} equal, 0 delayed")


def test_criterion_04_state_machine_totality():
    matched = 0
    total = 0
    for state in JobState:
        for new in JobState:
            total += 1
            want = new.value if (state.value, new.value) in oracles.TRANSITIONS else None
            try:
                got = transition(state, new).value
            except InvalidTransition:
                got = None
            matched += got == want
    report("criterion 4: state machine matches oracle table",
           matched == total == 49, f"{matched}/{total} cells")


def test_criterion_05_hybrid_beats_partitioned():
    # 4 CPU + 2 GPU nodes. Four GPU-preferring jobs (CPU fallback, 20
    # units: 10s on a gpu node, 20s on a cpu node) arrive just before
    # four CPU-only jobs (10 units: 10s). Manual schedules:
    #   shared:      gpu busy 20000, cpu busy 80000 -> 100000/120000
    #   partitioned: gpu busy 40000, cpu busy 40000 ->  80000/120000
    # Both finish at t=20000, so the shared window is (0, 20000).
    t0 = time.perf_counter()
    clusters = [cluster("cpu0", CPU, 4, speed=1), cluster("gpu0", GPU, 2, speed=2)]
    jobs = []
    for i in range(4):
        jobs.append((0, rigid(f"g{i}", 1, 20, 20_000, prefs=(GPU, CPU))))
    for i in range(4):
        jobs.append((0, rigid(f"c{i}", 1, 10, 10_000, prefs=(CPU,))))
    trace = SubmissionTrace(jobs=jobs)
    partitioned, _ = run_trace(trace, clusters, SimConfig(first_preference_only=True))
    hybrid, _ = run_trace(trace, clusters)
    result = compare(partitioned, hybrid, clusters,
                     label_a="partitioned", label_b="hybrid")
    elapsed = time.perf_counter() - t0
    part, hyb = result.utilization_a, result.utilization_b
    ok = (part.window == (0, 20_000)
          and part.busy_node_ms == 80_000
          and part.available_node_ms == 120_000
          and part.aggregate_utilization == "0.6667"
          and hyb.busy_node_ms == 100_000
          and hyb.available_node_ms == 120_000
          and hyb.aggregate_utilization == "0.8333"
          and result.delta_utilization_fixed4 == 1_666
          and result.delta_utilization_fixed4 >= 1_000
          and elapsed < 1.0)
    report("criterion 5: hybrid sharing beats static partition by >= 10pp",
           ok,
           f"partitioned {part.aggregate_utilization}, hybrid "
           f"{hyb.aggregate_utilization}, delta +16.66pp in {elapsed:.2f}s")


def test_criterion_06_utilization_exactness():
    rng = random.Random(606)
    matches = 0
    for case in range(100):
        seed = rng.randint(0, 10**6)
        gen = random.Random(seed)
        kinds = gen.sample([CPU, GPU, CLOUD], gen.randint(1, 2))
        clusters = [cluster(f"{k.value}{i}", k, gen.randint(2, 4),
                            gen.randint(1, 3)) for i, k in enumerate(kinds)]
        cloud_cap = max((c.node_count for c in clusters if c.kind is CLOUD),
                        default=0)
        jobs = []
        for i in range(gen.randint(4, 8)):
            t = gen.randint(0, 1_000)
            if cloud_cap and gen.random() < 0.3:
                lo = gen.randint(1, max(1, cloud_cap // 2))
                spec = JobSpec(name=f"e{i}", user_id="u",
                               kind_preferences=(CLOUD,),
                               shape=Elastic(min_workers=lo,
                                             max_workers=gen.randint(lo, cloud_cap)),
                               work_units=gen.randint(1, 3),
                               walltime_limit_ms=gen.randint(500, 6_000))
            else:
                k = gen.choice(kinds)
                cap = max(c.node_count for c in clusters if c.kind is k)
                spec = JobSpec(name=f"r{i}", user_id="u", kind_preferences=(k,),
                               shape=Rigid(node_count=gen.randint(1, cap)),
                               work_units=gen.randint(1, 3),
                               walltime_limit_ms=gen.randint(500, 6_000))
            jobs.append((t, spec))
        faults = []
        if gen.random() < 0.4:
            target = gen.choice(clusters)
            faults.append(FaultDirective(
                t_ms=gen.randint(0, 1_500), cluster_id=target.cluster_id,
                node_index=gen.randint(0, target.node_count - 1),
                down_duration_ms=gen.randint(50, 800)))
        log, _records = run_trace(SubmissionTrace(jobs=jobs, faults=faults),
                                  clusters)
        events = oracles.log_events(log)
        hi = max(events[-1]["t"] if events else 0, 1)
        if case % 4 == 0 and hi > 10:
            lo_w = gen.randint(1, hi // 2)
            window = (lo_w, gen.randint(lo_w + 1, hi))
        else:
            window = (0, hi)
        rep = utilization(log, clusters, window)
        busy, avail = oracles.scan_utilization(
            events, [(c.cluster_id, c.node_count) for c in clusters], window)
        good = all(cu.busy_node_ms == busy[cu.cluster_id]
                   and cu.available_node_ms == avail[cu.cluster_id]
                   for cu in rep.per_cluster)
        matches += good
    report("criterion 6: interval utilization equals per-ms scan",
           matches == 100, f"{matches}/100 exact")


def test_criterion_07_elastic_bounds_and_conservation():
    rng = random.Random(707)
    bound_violations = 0
    conservation_violations = 0
    jobs_seen = 0
    for _ in range(100):
        nodes = rng.randint(2, 8)
        speed = rng.randint(1, 3)
        sim = Simulation([cluster("cloud0", CLOUD, nodes, speed=speed)])
        specs = []
        for i in range(rng.randint(1, 4)):
            lo = rng.randint(1, max(1, nodes // 2))
            spec = JobSpec(name=f"e{i}", user_id="u", kind_preferences=(CLOUD,),
                           shape=Elastic(min_workers=lo,
                                         max_workers=rng.randint(lo, nodes)),
                           work_units=rng.randint(1, 30),
                           walltime_limit_ms=500_000)
            specs.append(spec)
            sim.schedule_arrival(rng.randint(0, 2_000), spec)
        sim.run_to_quiescence()
        events = oracles.log_events(sim.log)
        for rec in sim.records.values():
            jobs_seen += 1
            shape = rec.spec.shape
            history = oracles.worker_history(events, rec.job_id)
            for _t, w in history:
                if not shape.min_workers <= w <= shape.max_workers:
                    bound_violations += 1
            # an ended job's run state is gone; its record keeps the facts
            required = rec.spec.work_units * 1000
            if rec.state is not JobState.COMPLETED:
                conservation_violations += 1
            elif not (required <= rec.credited_milli
                      < required + speed * history[-1][1]):
                conservation_violations += 1
    report("criterion 7: elastic worker bounds and work conservation",
           bound_violations == 0 and conservation_violations == 0,
           f"{jobs_seen} elastic jobs across 100 workloads, "
           f"{bound_violations} bound / {conservation_violations} conservation violations")


def test_criterion_08_http_round_trip():
    import requests

    t0 = time.perf_counter()
    cfg = ServiceConfig(
        clusters=[cluster("cpu0", CPU, 4)],
        listen_addr="127.0.0.1:0",
        users=[{"user_id": "u",
                "quota": {"max_concurrent_jobs": 10, "max_nodes_in_use": 100,
                          "max_vcluster_nodes": 0}}],
    )
    server, service = make_service_server(cfg)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = "http://127.0.0.1:%d" % server.server_address[1]
    try:
        from hybridsched.model import job_spec_to_obj

        job_ids = []
        for name, nodes, work in [("a", 2, 10), ("b", 1, 6), ("c", 1, 4)]:
            obj = job_spec_to_obj(rigid(name, nodes, work, 60_000))
            r = requests.post(f"{base}/v1/jobs", json=obj, timeout=5)
            assert r.status_code == 201, r.text
            job_ids.append(r.json()["job_id"])
        requests.post(f"{base}/v1/clock/advance", json={"until_ms": 120_000},
                      timeout=5)
        consistent = 0
        for job_id in job_ids:
            status = requests.get(f"{base}/v1/jobs/{job_id}", timeout=5).json()
            manifest = requests.get(f"{base}/v1/jobs/{job_id}/result",
                                    timeout=5).json()
            events = oracles.log_events(service.sim.log)
            started = [e["t"] for e in events
                       if e["kind"] == "JobStarted" and e.get("job_id") == job_id]
            ended = [e["t"] for e in events
                     if e["kind"] in ("JobFinished", "JobFailed",
                                      "JobTimedOut", "JobCancelled")
                     and e.get("job_id") == job_id]
            log_duration = ended[-1] - started[0]
            if (status["state"] == "Completed"
                    and manifest["terminal"] == "Completed"
                    and manifest["duration_ms"] == log_duration):
                consistent += 1
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
    elapsed = time.perf_counter() - t0
    report("criterion 8: HTTP submit/poll/result round trip",
           consistent == 3 and elapsed < 5.0,
           f"3/3 manifests match the event log in {elapsed:.2f}s (budget 5s)")


def test_criterion_09_failure_paths():
    # Hand-walked: 12 units on 2 of 3 nodes (speed 1) is 6000 ms; the
    # fault hits node 0 at t=2000.  Budget 1: restart on nodes 1,2 at
    # 2000, finish once at 8000.  Budget 0: fail at 2000, no finish.
    def scenario(budget):
        sim = Simulation([cluster("cpu0", CPU, 3)],
                         config=SimConfig(retry_budget=budget))
        sim.schedule_arrival(0, rigid("j", 2, 12, 10_000))
        sim.inject_node_failure("cpu0", 0, 2_000, 1_000)
        sim.run_to_quiescence()
        return sim

    retry = scenario(1)
    events = oracles.log_events(retry.log)
    starts = [(e["t"], tuple(e["node_indices"])) for e in events if e["kind"] == "JobStarted"]
    finishes = [e["t"] for e in events if e["kind"] == "JobFinished"]
    ok_retry = (starts == [(0, (0, 1)), (2_000, (1, 2))]
                and finishes == [8_000]
                and retry.records["j000000"].state is JobState.COMPLETED)

    fail = scenario(0)
    events = oracles.log_events(fail.log)
    failures = [e["t"] for e in events if e["kind"] == "JobFailed"]
    ok_fail = (failures == [2_000]
               and not [e for e in events if e["kind"] == "JobFinished"]
               and fail.records["j000000"].state is JobState.FAILED)

    report("criterion 9: node-failure retry and exhaustion timelines",
           ok_retry and ok_fail,
           "budget 1 completes once at t=8000; budget 0 fails at t=2000")


def test_criterion_10_performance():
    clusters = random_clusters(0)
    trace = random_trace(1, clusters, n_jobs=10_000,
                         arrival_span_ms=8_000_000, elastic_fraction=0.2)
    t0 = time.perf_counter()
    log, records = run_trace(trace, clusters)
    elapsed = time.perf_counter() - t0
    terminal = sum(1 for r in records.values() if r.state.terminal)
    report("criterion 10: 10k-job trace under the time budget",
           len(log) >= 30_000 and terminal == 10_000 and elapsed < 5.0,
           f"{len(log)} events, {terminal}/10000 jobs terminal, "
           f"{elapsed:.2f}s (budget 5s)")
