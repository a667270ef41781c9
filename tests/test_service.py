"""Service tests: handlers through the WSGI app, wire mappings, config."""

import gc
import io
import json
import re
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    rule,
)

import oracles
from test_corpus import check, unsatisfiable
from test_engine import assert_rows_share

from hybridsched import cloud as cloud_mod
from hybridsched import engine
from hybridsched import model
from hybridsched import service as service_mod
from hybridsched.catalog import DuplicateDataset, MissingDataset
from hybridsched.cloud import RejectReason
from hybridsched.engine import AlreadyTerminal, UnknownJob
from hybridsched.model import (
    ClusterSpec,
    Elastic,
    JobSpec,
    JobState,
    ResourceKind,
    Rigid,
    cluster_spec_to_obj,
    job_spec_to_obj,
)
from hybridsched.service import (
    ConfigError,
    ERROR_TABLE,
    Service,
    ServiceConfig,
    job_view,
    load_config,
    make_service_server,
    map_exception,
)
from hybridsched.traces import random_trace

CPU = ResourceKind.CPU
CLOUD = ResourceKind.CLOUD


def cluster(cid, kind, nodes, speed=1):
    return ClusterSpec(cluster_id=cid, kind=kind, node_count=nodes,
                       cores_per_node=8, speed_factor=speed)


def base_config(**overrides):
    defaults = dict(
        clusters=[cluster("cpu0", CPU, 4), cluster("cloud0", CLOUD, 4)],
        users=[{"user_id": "u",
                "quota": {"max_concurrent_jobs": 10, "max_nodes_in_use": 100,
                          "max_vcluster_nodes": 4}}],
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def call(service, method, path, body=None, headers=None, query=""):
    """Drive the WSGI app directly; returns (status, parsed json body)."""
    raw = json.dumps(body).encode("utf-8") if body is not None else b""
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": str(len(raw)),
        "wsgi.input": io.BytesIO(raw),
    }
    for name, value in (headers or {}).items():
        environ["HTTP_" + name.upper().replace("-", "_")] = value
    out = {}

    def start_response(status, response_headers):
        out["status"] = int(status.split()[0])
        out["headers"] = dict(response_headers)

    payload = b"".join(service.wsgi_app(environ, start_response))
    assert out["headers"]["Content-Type"] == "application/json"
    return out["status"], json.loads(payload)


def raw_call(service, method, path, raw, user=None, query="", length=None):
    """Send raw body bytes, with Content-Length `length` if given, else
    their size; returns (status, payload bytes)."""
    environ = {"REQUEST_METHOD": method, "PATH_INFO": path, "QUERY_STRING": query,
               "CONTENT_LENGTH": str(len(raw)) if length is None else length,
               "wsgi.input": io.BytesIO(raw)}
    if user is not None:
        environ["HTTP_X_USER_ID"] = user
    out = []
    payload = b"".join(service.wsgi_app(environ, lambda status, headers: out.append(status)))
    return int(out[0].split()[0]), payload


def rigid_obj(name="j", nodes=1, work=5, wall=60_000, prefs=("cpu",), user="u"):
    spec = JobSpec(name=name, user_id=user,
                   kind_preferences=tuple(ResourceKind(p) for p in prefs),
                   shape=Rigid(node_count=nodes), work_units=work,
                   walltime_limit_ms=wall)
    return job_spec_to_obj(spec)


def elastic_obj(name="e", lo=1, hi=2, work=5, wall=60_000, user="u"):
    spec = JobSpec(name=name, user_id=user, kind_preferences=(CLOUD,),
                   shape=Elastic(min_workers=lo, max_workers=hi),
                   work_units=work, walltime_limit_ms=wall)
    return job_spec_to_obj(spec)


def history_of(events, job_id):
    """The oracle's worker history of one job, in the status view's form."""
    return [{"t_ms": t, "workers": w} for t, w in oracles.worker_history(events, job_id)]


@pytest.fixture
def svc():
    return Service(base_config())


class TestSubmit:
    def test_rigid_round_trip(self, svc):
        status, body = call(svc, "POST", "/v1/jobs", rigid_obj(nodes=2, work=10))
        assert status == 201
        assert body == {"job_id": "j000000", "layer": "hpc"}
        status, view = call(svc, "GET", "/v1/jobs/j000000")
        assert status == 200
        assert view["state"] == "Running"
        assert view["cluster_id"] == "cpu0"
        assert view["node_indices"] == [0, 1]
        # 10 units, 2 nodes, speed 1 -> 5000 ms
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 10_000})
        status, manifest = call(svc, "GET", "/v1/jobs/j000000/result")
        assert status == 200
        assert manifest["terminal"] == "Completed"
        assert manifest["duration_ms"] == 5_000
        assert manifest["credited_work_milliunits"] >= 10_000

    def test_elastic_routes_to_cloud(self, svc):
        status, body = call(svc, "POST", "/v1/jobs", elastic_obj(hi=3))
        assert status == 201 and body["layer"] == "cloud"
        _status, view = call(svc, "GET", "/v1/jobs/%s" % body["job_id"])
        assert view["worker_history"][0]["workers"] == 1
        assert view["worker_history"] == history_of(oracles.log_events(svc.sim.log), body["job_id"])

    def test_result_before_terminal_conflicts(self, svc):
        _s, body = call(svc, "POST", "/v1/jobs", rigid_obj())
        status, err = call(svc, "GET", "/v1/jobs/%s/result" % body["job_id"])
        assert status == 409
        assert err["error"]["code"] == "not_finished"

    def test_validation_failures(self, svc):
        bad = rigid_obj()
        bad["work_units"] = 0
        assert call(svc, "POST", "/v1/jobs", bad)[0] == 422
        status, err = call(svc, "POST", "/v1/jobs", ["not", "an", "object"])
        assert status == 422 and err["error"]["code"] == "validation_failed"
        status, _err = call(svc, "POST", "/v1/jobs")
        assert status == 422

    def test_body_not_json(self, svc):
        environ = {
            "REQUEST_METHOD": "POST", "PATH_INFO": "/v1/jobs",
            "QUERY_STRING": "", "CONTENT_LENGTH": "5",
            "wsgi.input": io.BytesIO(b"{nope"),
        }
        out = {}
        payload = b"".join(svc.wsgi_app(environ, lambda s, h: out.update(status=s)))
        assert out["status"].startswith("422")
        assert json.loads(payload)["error"]["code"] == "validation_failed"

    # Arabic-Indic, fullwidth, '+', '_' and spaced lengths of the 15-byte
    # body: int() alone reads each as 15, so the body would be read
    @pytest.mark.parametrize("length", ["-1", "-100", "nope", "\u0661\u0665", "\uff11\uff15",
                                        "+15", "1_5", " 15 "])
    def test_bad_content_length_reads_no_body(self, svc, length):
        # a negative length must not read the input to EOF, which on a
        # live socket blocks until the client hangs up
        environ = {
            "REQUEST_METHOD": "POST", "PATH_INFO": "/v1/clock/advance",
            "QUERY_STRING": "", "CONTENT_LENGTH": length,
            "wsgi.input": io.BytesIO(b'{"by_ms": 1000}'),
        }
        out = {}
        payload = b"".join(svc.wsgi_app(environ, lambda s, h: out.update(status=s)))
        assert out["status"].startswith("422")
        assert json.loads(payload)["error"] == {"code": "validation_failed",
                                                "message": "empty request body"}
        assert call(svc, "GET", "/v1/clock")[1]["now_ms"] == 0

    # int() refuses more than 4,300 digits, so each of these lengths was
    # once read as no body: an all-digit length is read by its digit count
    # once its leading zeros are gone
    @pytest.mark.parametrize("length, status", [
        ("9" * 5000, 413), ("99999999", 413), ("1" + "0" * 4999, 413),
        ("0" * 5000 + "15", 200), ("0" * 4998 + "15", 200), ("0", 422)],
        ids=["5000_nines", "8_nines", "1e4999", "15_in_5002_digits", "15_in_5000_digits",
             "zero"])
    def test_long_content_length(self, svc, length, status):
        environ = {
            "REQUEST_METHOD": "POST", "PATH_INFO": "/v1/clock/advance",
            "QUERY_STRING": "", "CONTENT_LENGTH": length,
            "wsgi.input": io.BytesIO(b'{"by_ms": 1000}'),
        }
        out = {}
        payload = b"".join(svc.wsgi_app(environ, lambda s, h: out.update(status=s)))
        assert out["status"].startswith(str(status)), (out, payload)
        if status == 413:
            assert json.loads(payload)["error"]["code"] == "body_too_large"
        assert call(svc, "GET", "/v1/clock")[1]["now_ms"] == (1000 if status == 200 else 0)

    def test_auth_header_must_match_spec(self, svc):
        status, err = call(svc, "POST", "/v1/jobs", rigid_obj(),
                           headers={"X-User-Id": "someone-else"})
        assert status == 403
        assert err["error"]["code"] == "auth_mismatch"
        status, _body = call(svc, "POST", "/v1/jobs", rigid_obj(),
                             headers={"X-User-Id": "u"})
        assert status == 201

    def test_unknown_user_404(self, svc):
        status, err = call(svc, "POST", "/v1/jobs", rigid_obj(user="ghost"))
        assert status == 404 and err["error"]["code"] == "unknown_user"

    def test_quota_rejection(self):
        cfg = base_config(users=[{"user_id": "u",
                                  "quota": {"max_concurrent_jobs": 0,
                                            "max_nodes_in_use": 0,
                                            "max_vcluster_nodes": 0}}])
        svc = Service(cfg)
        status, err = call(svc, "POST", "/v1/jobs", rigid_obj())
        assert status == 403 and err["error"]["code"] == "quota_rejected"

    def test_unroutable_rigid_cloud_only(self, svc):
        status, err = call(svc, "POST", "/v1/jobs", rigid_obj(prefs=("cloud",)))
        assert status == 422 and err["error"]["code"] == "unroutable_kind"

    def test_missing_dataset(self, svc):
        obj = rigid_obj()
        obj["dataset_refs"] = ["nope"]
        status, err = call(svc, "POST", "/v1/jobs", obj)
        assert status == 422 and err["error"]["code"] == "missing_dataset"

    def test_failed_submissions_consume_no_job_id(self, svc):
        call(svc, "POST", "/v1/jobs", rigid_obj(user="ghost"))
        bad = rigid_obj()
        bad["work_units"] = -3
        call(svc, "POST", "/v1/jobs", bad)
        assert svc.sim.records == {}
        status, body = call(svc, "POST", "/v1/jobs", rigid_obj())
        assert status == 201 and body["job_id"] == "j000000"


class TestStatusCancel:
    def test_unknown_job_paths(self, svc):
        for method, path in [("GET", "/v1/jobs/jX"),
                             ("GET", "/v1/jobs/jX/result"),
                             ("DELETE", "/v1/jobs/jX")]:
            status, err = call(svc, method, path)
            assert status == 404
            assert err["error"]["code"] == "unknown_job"

    def test_cancel_running_then_again(self, svc):
        _s, body = call(svc, "POST", "/v1/jobs", rigid_obj(work=40))
        job_id = body["job_id"]
        status, out = call(svc, "DELETE", "/v1/jobs/%s" % job_id)
        assert status == 202 and out["state"] == "Cancelled"
        status, err = call(svc, "DELETE", "/v1/jobs/%s" % job_id)
        assert status == 409 and err["error"]["code"] == "already_terminal"


class TestWorkerHistory:
    """An elastic job's status-view history is read from its log rows."""

    @staticmethod
    def history(svc, job_id):
        status, view = call(svc, "GET", f"/v1/jobs/{job_id}")
        assert status == 200
        assert view["worker_history"] == history_of(oracles.log_events(svc.sim.log), job_id)
        return [(h["t_ms"], h["workers"]) for h in view["worker_history"]]

    def test_a_requeued_job_spans_both_attempts(self, svc):
        _s, body = call(svc, "POST", "/v1/jobs", elastic_obj(lo=1, hi=4, work=40))
        job_id = body["job_id"]
        svc.sim.inject_node_failure("cloud0", 0, 1_000, 500)
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 1_200})
        assert svc.sim.records[job_id].start_ms == 1_000     # requeued, then restarted
        assert self.history(svc, job_id) == [(0, 1), (0, 4), (1_000, 1), (1_000, 3)]
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 60_000})
        assert svc.sim.records[job_id].state is JobState.COMPLETED
        assert self.history(svc, job_id) == [(0, 1), (0, 4), (1_000, 1), (1_000, 3),
                                             (1_500, 4)]

    def test_a_job_cancelled_while_queued_has_none(self, svc):
        # the pool is full at the millisecond the second job is submitted
        # and cancelled, so the first job's JobStarted row is in its window
        _s, first = call(svc, "POST", "/v1/jobs", elastic_obj(lo=4, hi=4))
        _s, second = call(svc, "POST", "/v1/jobs", elastic_obj(lo=1, hi=4))
        status, out = call(svc, "DELETE", "/v1/jobs/%s" % second["job_id"])
        assert (status, out["state"]) == (202, "Cancelled")
        assert self.history(svc, second["job_id"]) == []
        assert self.history(svc, first["job_id"]) == [(0, 4)]

    def test_a_rescale_at_the_last_millisecond_is_kept(self, svc):
        # the newcomer takes the free node and the fair share shrinks the
        # first job at 100, the millisecond it is cancelled
        _s, first = call(svc, "POST", "/v1/jobs", elastic_obj(lo=1, hi=3, work=100))
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 100})
        _s, second = call(svc, "POST", "/v1/jobs", elastic_obj(lo=1, hi=4, work=100))
        call(svc, "DELETE", "/v1/jobs/%s" % first["job_id"])
        assert svc.sim.records[first["job_id"]].end_ms == 100
        assert self.history(svc, first["job_id"]) == [(0, 1), (0, 3), (100, 2)]
        assert self.history(svc, second["job_id"]) == [(100, 1), (100, 2), (100, 4)]

    def test_status_view_is_the_log_scan_on_random_runs(self):
        # seeded runs with node faults, viewed every second of virtual time
        # (a live job's rows run to the log's end) and once all have ended
        requeued = failed = 0
        for seed in range(8):
            clusters = [cluster("cloud0", CLOUD, 6, speed=2), cluster("cloud1", CLOUD, 4),
                        cluster("cpu0", CPU, 3)]
            trace = random_trace(seed, clusters, 40, arrival_span_ms=8_000,
                                 elastic_fraction=0.7, n_faults=8)
            sim = engine.Simulation(clusters)
            for t_ms, spec in trace.jobs:
                sim.schedule_arrival(t_ms, spec)
            for f in trace.faults:
                sim.inject_node_failure(f.cluster_id, f.node_index, f.t_ms, f.down_duration_ms)
            until = 0
            while True:
                sim.advance_to(until)
                events = oracles.log_events(sim.log)
                for job_id, record in sim.records.items():
                    if isinstance(record.spec.shape, Elastic):
                        assert (job_view(record, sim.log)["worker_history"]
                                == history_of(events, job_id)), (seed, until, job_id)
                if until > trace.jobs[-1][0] and not sim.live_jobs():
                    break
                until += 1_000
            kinds = {}
            for ev in events:
                if ev.get("job_id") in sim.records:
                    kinds.setdefault(ev["job_id"], []).append(ev["kind"])
            for job_id, seen in kinds.items():
                if isinstance(sim.records[job_id].spec.shape, Elastic) and "JobStarted" in seen:
                    after = seen[seen.index("JobStarted"):]
                    requeued += "JobQueued" in after
                    failed += "JobFailed" in after
        assert requeued > 0 and failed > 0, (requeued, failed)


class TestResultManifest:
    """The result manifest's bytes for every terminal path, pinned."""

    def result_bytes(self, svc, job_id):
        status, payload = raw_call(svc, "GET", f"/v1/jobs/{job_id}/result", b"")
        assert status == 200
        return payload

    def test_completed(self, svc):
        call(svc, "POST", "/v1/jobs", rigid_obj(nodes=2, work=10))
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 10_000})
        assert self.result_bytes(svc, "j000000") == (
            b'{"job_id": "j000000", "terminal": "Completed", "submit_ms": 0, "start_ms": 0, '
            b'"end_ms": 5000, "duration_ms": 5000, "credited_work_milliunits": 10000, '
            b'"work_units": 10, "cluster_id": "cpu0", "node_indices": [0, 1]}')

    def test_timed_out(self, svc):
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 100})
        call(svc, "POST", "/v1/jobs", rigid_obj(nodes=1, work=10, wall=4_000))
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 10_000})
        assert self.result_bytes(svc, "j000000") == (
            b'{"job_id": "j000000", "terminal": "TimedOut", "submit_ms": 100, "start_ms": 100, '
            b'"end_ms": 4100, "duration_ms": 4000, "credited_work_milliunits": 4000, '
            b'"work_units": 10, "cluster_id": "cpu0", "node_indices": [0]}')

    def test_failed_after_node_loss(self):
        svc = Service(base_config(scheduler=engine.SimConfig(retry_budget=0)))
        call(svc, "POST", "/v1/jobs", elastic_obj(lo=1, hi=3, work=40))
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 1_000})
        call(svc, "POST", "/v1/jobs", elastic_obj(name="e2", lo=1, hi=3, work=40))
        svc.sim.inject_node_failure("cloud0", 1, 3_000, 500)
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 60_000})
        assert self.result_bytes(svc, "j000000") == (
            b'{"job_id": "j000000", "terminal": "Failed", "submit_ms": 0, "start_ms": 0, '
            b'"end_ms": 3000, "duration_ms": 3000, "credited_work_milliunits": 7000, '
            b'"work_units": 40, "cluster_id": "cloud0", "node_indices": [0, 1]}')

    def test_unsatisfiable(self, svc):
        assert call(svc, "POST", "/v1/jobs", rigid_obj(nodes=5))[0] == 201
        assert self.result_bytes(svc, "j000000") == (
            b'{"job_id": "j000000", "terminal": "Failed", "submit_ms": 0, "start_ms": null, '
            b'"end_ms": 0, "duration_ms": null, "credited_work_milliunits": 0, '
            b'"work_units": 5}')

    def test_cancelled_while_queued(self, svc):
        call(svc, "POST", "/v1/jobs", rigid_obj(nodes=4, work=40))
        call(svc, "POST", "/v1/jobs", rigid_obj(name="k", nodes=1))
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 700})
        assert call(svc, "DELETE", "/v1/jobs/j000001")[0] == 202
        assert self.result_bytes(svc, "j000001") == (
            b'{"job_id": "j000001", "terminal": "Cancelled", "submit_ms": 0, "start_ms": null, '
            b'"end_ms": 700, "duration_ms": null, "credited_work_milliunits": 0, '
            b'"work_units": 5}')

    def test_cancelled_while_queued_after_a_node_loss(self, svc):
        # the manifest names the cluster and nodes of the lost attempt
        call(svc, "POST", "/v1/jobs", rigid_obj(nodes=4, work=40))
        svc.sim.inject_node_failure("cpu0", 2, 1_000, 5_000)
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 2_000})
        assert call(svc, "DELETE", "/v1/jobs/j000000")[0] == 202
        assert self.result_bytes(svc, "j000000") == (
            b'{"job_id": "j000000", "terminal": "Cancelled", "submit_ms": 0, "start_ms": 0, '
            b'"end_ms": 2000, "duration_ms": 2000, "credited_work_milliunits": 0, '
            b'"work_units": 40, "cluster_id": "cpu0", "node_indices": [0, 1, 2, 3]}')

    def test_cancelled_while_running(self, svc):
        call(svc, "POST", "/v1/jobs", elastic_obj(lo=1, hi=3, work=40))
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 1_000})
        call(svc, "POST", "/v1/jobs", elastic_obj(name="e2", lo=1, hi=3, work=40))
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 2_500})
        assert call(svc, "DELETE", "/v1/jobs/j000000")[0] == 202
        assert self.result_bytes(svc, "j000000") == (
            b'{"job_id": "j000000", "terminal": "Cancelled", "submit_ms": 0, "start_ms": 0, '
            b'"end_ms": 2500, "duration_ms": 2500, "credited_work_milliunits": 6000, '
            b'"work_units": 40, "cluster_id": "cloud0", "node_indices": [0, 1]}')

    def test_last_placement_after_a_requeue_and_a_rescale(self, svc):
        # j000000 loses node 0, waits queued without a placement in its
        # view, and restarts on other nodes once j000001 ends
        call(svc, "POST", "/v1/jobs", rigid_obj(nodes=2, work=10))
        call(svc, "POST", "/v1/jobs", rigid_obj(name="k", nodes=2, work=40))
        svc.sim.inject_node_failure("cpu0", 0, 1_000, 30_000)
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 1_000})
        view = call(svc, "GET", "/v1/jobs/j000000")[1]
        assert view["state"] == "Queued" and "node_indices" not in view
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 20_000})
        view = call(svc, "GET", "/v1/jobs/j000000")[1]
        assert (view["start_ms"], view["cluster_id"], view["node_indices"]) == (20_000, "cpu0", [1, 2])
        # elastic j000002 shrinks from three nodes to two when j000003
        # starts; j000003 grows when j000002 ends
        call(svc, "POST", "/v1/jobs", elastic_obj(lo=1, hi=3, work=40))
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 21_000})
        call(svc, "POST", "/v1/jobs", elastic_obj(name="e2", lo=1, hi=3, work=100))
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 80_000})
        assert self.result_bytes(svc, "j000000") == (
            b'{"job_id": "j000000", "terminal": "Completed", "submit_ms": 0, "start_ms": 20000, '
            b'"end_ms": 25000, "duration_ms": 5000, "credited_work_milliunits": 10000, '
            b'"work_units": 10, "cluster_id": "cpu0", "node_indices": [1, 2]}')
        assert self.result_bytes(svc, "j000002") == (
            b'{"job_id": "j000002", "terminal": "Completed", "submit_ms": 20000, '
            b'"start_ms": 20000, "end_ms": 39500, "duration_ms": 19500, '
            b'"credited_work_milliunits": 40000, "work_units": 40, "cluster_id": "cloud0", '
            b'"node_indices": [0, 1]}')
        assert self.result_bytes(svc, "j000003") == (
            b'{"job_id": "j000003", "terminal": "Completed", "submit_ms": 21000, '
            b'"start_ms": 21000, "end_ms": 60500, "duration_ms": 39500, '
            b'"credited_work_milliunits": 100000, "work_units": 100, "cluster_id": "cloud0", '
            b'"node_indices": [0, 2, 3]}')


def with_refs(obj, refs):
    return {**obj, "dataset_refs": refs}


class TestSubmitOutcomes:
    """Exact status and body bytes of each submit outcome, in the order
    handle_submit checks: decode, auth, check (validate + datasets), quota,
    route."""

    USERS = [{"user_id": "u", "quota": {"max_concurrent_jobs": 10, "max_nodes_in_use": 100,
                                        "max_vcluster_nodes": 4}},
             {"user_id": "q", "quota": {"max_concurrent_jobs": 1, "max_nodes_in_use": 2,
                                        "max_vcluster_nodes": 0}}]

    # (case id, jobs q submits first, body, auth header, status, payload)
    CASES = [
        ("rigid", [], rigid_obj(nodes=2), None, 201,
         b'{"job_id": "j000000", "layer": "hpc"}'),
        ("elastic", [], elastic_obj(), None, 201,
         b'{"job_id": "j000000", "layer": "cloud"}'),
        ("validation_failed", [], rigid_obj(work=0), None, 422,
         b'{"error": {"code": "validation_failed", "message": "work_units must be >= 1"}}'),
        ("auth_mismatch", [], rigid_obj(), "q", 403,
         (b'{"error": {"code": "auth_mismatch", '
          b'"message": "auth header says \'q\' but spec says \'u\'"}}')),
        # a mis-authed spec that is also invalid: auth is checked first
        ("auth_before_check", [], rigid_obj(work=0), "q", 403,
         (b'{"error": {"code": "auth_mismatch", '
          b'"message": "auth header says \'q\' but spec says \'u\'"}}')),
        ("missing_dataset", [], with_refs(rigid_obj(), ["nope"]), None, 422,
         b'{"error": {"code": "missing_dataset", "message": "no dataset named \'nope\'"}}'),
        ("unknown_user", [], rigid_obj(user="ghost"), None, 404,
         b'{"error": {"code": "unknown_user", "message": "no user \'ghost\'"}}'),
        ("concurrency_quota", [rigid_obj(user="q")], rigid_obj(name="k", user="q"), None, 403,
         (b'{"error": {"code": "quota_rejected", '
          b'"message": "admission rejected: ConcurrencyQuota"}}')),
        ("node_quota", [], rigid_obj(nodes=3, user="q"), None, 403,
         b'{"error": {"code": "quota_rejected", "message": "admission rejected: NodeQuota"}}'),
        ("unroutable_kind", [], rigid_obj(prefs=("cloud",)), None, 422,
         b'{"error": {"code": "unroutable_kind", "message": "not routable: UnroutableKind"}}'),
        # over quota and cloud-only rigid: admission is checked before routing
        ("quota_before_route", [], rigid_obj(nodes=3, prefs=("cloud",), user="q"), None, 403,
         b'{"error": {"code": "quota_rejected", "message": "admission rejected: NodeQuota"}}'),
    ]

    @pytest.mark.parametrize("first, body, user, status, payload",
                             [case[1:] for case in CASES], ids=[case[0] for case in CASES])
    def test_status_and_body_bytes(self, first, body, user, status, payload):
        svc = Service(base_config(users=self.USERS))
        for obj in first:
            assert call(svc, "POST", "/v1/jobs", obj)[0] == 201
        raw = json.dumps(body).encode("utf-8")
        assert raw_call(svc, "POST", "/v1/jobs", raw, user=user) == (status, payload)


ADMIT_QUOTAS = {"u": {"max_concurrent_jobs": 3, "max_nodes_in_use": 6, "max_vcluster_nodes": 0},
                "v": {"max_concurrent_jobs": 5, "max_nodes_in_use": 4, "max_vcluster_nodes": 0}}
admission_ops = st.lists(st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(sorted(ADMIT_QUOTAS)), st.booleans(),
              st.integers(1, 4), st.integers(1, 4), st.integers(1, 20)),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("advance"), st.integers(0, 8_000)),
), max_size=30)


@pytest.mark.extra_seeds
class TestAdmissionAgainstReference:
    """The indexed admission check agrees with the scan over every record."""

    @given(ops=admission_ops)
    @settings(max_examples=150, deadline=None)
    def test_verdicts_agree(self, ops):
        svc = Service(base_config(users=[{"user_id": u, "quota": q}
                                         for u, q in ADMIT_QUOTAS.items()]))
        for op in ops:
            if op[0] == "submit":
                _op, user, is_elastic, a, b, work = op
                body = (elastic_obj(lo=min(a, b), hi=max(a, b), work=work, user=user)
                        if is_elastic else rigid_obj(nodes=a, work=work, user=user))
                jobs = [(r.spec.user_id, r.state.value, job_spec_to_obj(r.spec))
                        for r in svc.sim.records.values()]
                expected = oracles.reference_admit(jobs, ADMIT_QUOTAS[user], body)
                try:
                    svc.cloud.admit(model.job_spec_from_obj(body))
                    reason = None
                except cloud_mod.QuotaRejected as exc:
                    reason = exc.reason.value
                assert reason == expected
                status, out = call(svc, "POST", "/v1/jobs", body)
                assert status == (201 if expected is None else 403), out
            elif op[0] == "cancel":
                if svc.sim.records:
                    job_id = sorted(svc.sim.records)[op[1] % len(svc.sim.records)]
                    assert call(svc, "DELETE", f"/v1/jobs/{job_id}")[0] in (202, 409)
            else:
                assert call(svc, "POST", "/v1/clock/advance", {"by_ms": op[1]})[0] == 200


class TestIntrospection:
    def test_clusters_reflect_occupancy(self, svc):
        call(svc, "POST", "/v1/jobs", rigid_obj(nodes=3, work=40))
        status, body = call(svc, "GET", "/v1/clusters")
        assert status == 200
        ids = [c["cluster_id"] for c in body["clusters"]]
        assert ids == ["cloud0", "cpu0"]
        cpu = body["clusters"][1]
        assert cpu["busy_nodes"] == 3 and cpu["free_nodes"] == 1

    def test_metrics_empty_and_after_work(self, svc):
        status, body = call(svc, "GET", "/v1/metrics")
        assert status == 200
        assert body["utilization"]["aggregate"]["utilization"] == "0.0000"
        call(svc, "POST", "/v1/jobs", rigid_obj(work=10))
        call(svc, "POST", "/v1/clock/advance", {"by_ms": 20_000})
        _status, body = call(svc, "GET", "/v1/metrics")
        assert body["utilization"]["aggregate"]["busy_node_ms"] == 10_000
        assert body["waits"]["n_started"] == 1

    def test_metrics_window_param(self, svc):
        call(svc, "POST", "/v1/jobs", rigid_obj(work=10))
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 20_000})
        _status, body = call(svc, "GET", "/v1/metrics", query="window_ms=4000")
        assert body["utilization"]["window"] == {"from_ms": 16_000, "to_ms": 20_000}
        assert body["utilization"]["aggregate"]["busy_node_ms"] == 0
        status, err = call(svc, "GET", "/v1/metrics", query="window_ms=soon")
        assert status == 422 and err["error"]["code"] == "validation_failed"
        # int() alone reads each of these as a number: Arabic-Indic 3,
        # fullwidth 5, an underscore, a plus (also as a query-string space)
        # and surrounding spaces. Only an optional '-' and ASCII digits count.
        for raw in ("%D9%A3", "%EF%BC%95", "1_000", "+5", "%2B5", "%205%20", "-"):
            status, err = call(svc, "GET", "/v1/metrics", query="window_ms=" + raw)
            assert (status, err["error"]) == (422, {
                "code": "validation_failed", "message": "window_ms must be an integer"}), raw
        # a blank value, a bare name and a repeated name, whose first value
        # alone is valid, are refused too: the client sent a window
        for query in ("window_ms=", "window_ms", "window_ms=5&window_ms=x",
                      "window_ms=5&window_ms=5"):
            status, err = call(svc, "GET", "/v1/metrics", query=query)
            assert (status, err["error"]) == (422, {
                "code": "validation_failed", "message": "window_ms must be an integer"}), query
        status, err = call(svc, "GET", "/v1/metrics", query="window_ms=-0005")
        assert err["error"]["message"] == "window_ms must be non-negative"

    def test_negative_metrics_window_rejected(self, svc):
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 1_000})
        status, err = call(svc, "GET", "/v1/metrics", query="window_ms=-5")
        assert status == 422 and err["error"]["code"] == "validation_failed"
        _status, body = call(svc, "GET", "/v1/metrics", query="window_ms=0")
        assert body["utilization"]["window"] == {"from_ms": 1_000, "to_ms": 1_001}


class TestUsers:
    def test_create_list_duplicate(self, svc):
        status, body = call(svc, "POST", "/v1/users",
                            {"user_id": "alice",
                             "quota": {"max_concurrent_jobs": 1,
                                       "max_nodes_in_use": 2,
                                       "max_vcluster_nodes": 0}})
        assert status == 201 and body["user_id"] == "alice"
        status, err = call(svc, "POST", "/v1/users",
                           {"user_id": "alice", "quota": {
                               "max_concurrent_jobs": 1, "max_nodes_in_use": 1,
                               "max_vcluster_nodes": 0}})
        assert status == 409 and err["error"]["code"] == "duplicate_user"
        _status, listing = call(svc, "GET", "/v1/users")
        assert [u["user_id"] for u in listing["users"]] == ["alice", "u"]
        # the wire body keeps its key order
        assert list(listing["users"][0]) == ["user_id", "display_name", "quota"]
        assert list(listing["users"][0]["quota"]) == [
            "max_concurrent_jobs", "max_nodes_in_use", "max_vcluster_nodes"]

    def test_bad_quota_shapes(self, svc):
        status, err = call(svc, "POST", "/v1/users",
                           {"user_id": "bob", "quota": {"max_concurrent_jobs": -1,
                                                        "max_nodes_in_use": 0,
                                                        "max_vcluster_nodes": 0}})
        assert status == 422 and err["error"]["code"] == "validation_failed"
        status, err = call(svc, "POST", "/v1/users",
                           {"user_id": "bob", "quota": {"max_jobs": 5}})
        assert status == 422 and err["error"]["code"] == "validation_failed"

    @pytest.mark.parametrize("value", [1.5, True, "2", None])
    def test_non_integer_quota_field(self, svc, value):
        quota = {"max_concurrent_jobs": 1, "max_nodes_in_use": 1, "max_vcluster_nodes": 0}
        quota["max_nodes_in_use"] = value
        status, err = call(svc, "POST", "/v1/users", {"user_id": "bob", "quota": quota})
        assert status == 422 and err["error"]["code"] == "validation_failed"
        assert "max_nodes_in_use must be an integer" in err["error"]["message"]

    @pytest.mark.parametrize("field, value", [("user_id", ""), ("user_id", 5),
                                              ("user_id", ["bob"]), ("display_name", [1]),
                                              ("dispaly_name", "Bob")])
    def test_bad_user_fields(self, svc, field, value):
        body = {"user_id": "bob", "quota": {"max_concurrent_jobs": 1, "max_nodes_in_use": 1,
                                            "max_vcluster_nodes": 0}}
        body[field] = value
        status, err = call(svc, "POST", "/v1/users", body)
        assert status == 422 and err["error"]["code"] == "validation_failed"
        _status, listing = call(svc, "GET", "/v1/users")
        assert [u["user_id"] for u in listing["users"]] == ["u"]

    @pytest.mark.parametrize("body, message", [
        ({"user_id": "bob", "quota": {"max_concurrent_jobs": 1, "max_nodes_in_use": 1,
                                      "max_vcluster_nodes": 0, "max_gpus": 1}},
         "quota must be an object of exactly"),
        ({"quota": {"max_concurrent_jobs": 1, "max_nodes_in_use": 1, "max_vcluster_nodes": 0}},
         "user_id must be a non-empty string"),
    ])
    def test_extra_quota_key_or_missing_user_id(self, svc, body, message):
        status, err = call(svc, "POST", "/v1/users", body)
        assert status == 422 and err["error"]["code"] == "validation_failed"
        assert message in err["error"]["message"]
        _status, listing = call(svc, "GET", "/v1/users")
        assert [u["user_id"] for u in listing["users"]] == ["u"]


class TestVClusters:
    def test_lifecycle(self, svc):
        status, vc = call(svc, "POST", "/v1/vclusters",
                          {"node_count": 2, "image": "astro:1"},
                          headers={"X-User-Id": "u"})
        assert status == 201
        assert vc["vcluster_id"] == "vc0000"
        assert vc["cluster_id"] == "cloud0"
        assert vc["node_indices"] == [0, 1]
        assert vc["state"] == "Ready"
        _status, listing = call(svc, "GET", "/v1/vclusters")
        assert len(listing["vclusters"]) == 1
        status, freed = call(svc, "DELETE", "/v1/vclusters/vc0000")
        assert status == 200 and freed["freed_nodes"] == [0, 1]
        status, err = call(svc, "DELETE", "/v1/vclusters/vc0000")
        assert status == 409 and err["error"]["code"] == "already_released"
        status, err = call(svc, "DELETE", "/v1/vclusters/vc9999")
        assert status == 404 and err["error"]["code"] == "unknown_vcluster"

    def test_rows_share_what_the_engine_holds(self, svc):
        status, vc = call(svc, "POST", "/v1/vclusters",
                          {"user_id": "u", "node_count": 2, "image": "i"})
        assert status == 201
        jobs = [call(svc, "POST", "/v1/jobs", obj)[1]["job_id"] for obj in (
            rigid_obj(nodes=4, work=40), rigid_obj(nodes=4), rigid_obj(nodes=4),
            elastic_obj(hi=2, work=40), elastic_obj(hi=2, work=40))]
        call(svc, "POST", "/v1/clock/advance", {"by_ms": 1_000})
        assert call(svc, "DELETE", "/v1/jobs/%s" % jobs[0])[1]["state"] == "Cancelled"
        assert call(svc, "DELETE", "/v1/jobs/%s" % jobs[2])[1]["state"] == "Cancelled"
        call(svc, "DELETE", "/v1/vclusters/%s" % vc["vcluster_id"])   # the elastic jobs grow
        call(svc, "POST", "/v1/clock/advance", {"by_ms": 100_000})
        kinds = set(svc.sim.log.kind)
        assert {engine.SimEventKind.NODES_HELD, engine.SimEventKind.NODES_RELEASED,
                engine.SimEventKind.JOB_CANCELLED, engine.SimEventKind.RESCALE_APPLIED} <= kinds
        assert not svc.sim.live_jobs()
        assert_rows_share(svc.sim.log, svc.sim.records)

    def test_owner_from_body_when_no_header(self, svc):
        status, vc = call(svc, "POST", "/v1/vclusters",
                          {"user_id": "u", "node_count": 1, "image": "i"})
        assert status == 201 and vc["owner"] == "u"

    def assert_nothing_held(self, svc):
        _status, listing = call(svc, "GET", "/v1/vclusters")
        assert listing["vclusters"] == []
        assert engine.SimEventKind.NODES_HELD not in svc.sim.log.kind

    def test_header_does_not_excuse_a_non_string_user_id(self, svc):
        status, err = call(svc, "POST", "/v1/vclusters",
                           {"user_id": 5, "node_count": 1, "image": "i"},
                           headers={"X-User-Id": "u"})
        assert (status, err["error"]) == (
            422, {"code": "validation_failed", "message": "user_id must be a string"})
        self.assert_nothing_held(svc)

    def test_header_and_body_naming_different_users(self, svc):
        call(svc, "POST", "/v1/users", {"user_id": "v", "quota": {
            "max_concurrent_jobs": 0, "max_nodes_in_use": 0, "max_vcluster_nodes": 4}})
        status, err = call(svc, "POST", "/v1/vclusters",
                           {"user_id": "v", "node_count": 1, "image": "i"},
                           headers={"X-User-Id": "u"})
        assert (status, err["error"]) == (
            403, {"code": "auth_mismatch", "message": "auth header says 'u' but spec says 'v'"})
        self.assert_nothing_held(svc)

    def test_header_and_body_naming_the_same_user(self, svc):
        status, vc = call(svc, "POST", "/v1/vclusters",
                          {"user_id": "u", "node_count": 1, "image": "i"},
                          headers={"X-User-Id": "u"})
        assert status == 201 and vc["owner"] == "u"

    def test_quota_and_capacity_errors(self, svc):
        status, err = call(svc, "POST", "/v1/vclusters",
                           {"user_id": "u", "node_count": 5, "image": "i"})
        assert status == 403 and err["error"]["code"] == "quota_exceeded"
        call(svc, "POST", "/v1/vclusters", {"user_id": "u", "node_count": 4, "image": "i"})
        # user quota is spent and the pool is empty; a fresh user sees capacity
        call(svc, "POST", "/v1/users", {"user_id": "w", "quota": {
            "max_concurrent_jobs": 0, "max_nodes_in_use": 0, "max_vcluster_nodes": 8}})
        status, err = call(svc, "POST", "/v1/vclusters",
                           {"user_id": "w", "node_count": 1, "image": "i"})
        assert status == 409 and err["error"]["code"] == "insufficient_capacity"

    def test_unknown_owner(self, svc):
        status, err = call(svc, "POST", "/v1/vclusters",
                           {"user_id": "ghost", "node_count": 1, "image": "i"})
        assert status == 404 and err["error"]["code"] == "unknown_user"

    @pytest.mark.parametrize("node_count", ["2", 1.5, True, 0, None])
    def test_bad_node_count(self, svc, node_count):
        status, err = call(svc, "POST", "/v1/vclusters",
                           {"user_id": "u", "node_count": node_count, "image": "i"})
        assert status == 422 and err["error"]["code"] == "validation_failed"
        _status, listing = call(svc, "GET", "/v1/vclusters")
        assert listing["vclusters"] == []

    @pytest.mark.parametrize("field, value", [("user_id", ["u"]), ("user_id", {"u": 1}),
                                              ("image", {"a": 1})])
    def test_non_string_fields(self, svc, field, value):
        body = {"user_id": "u", "node_count": 1, "image": "i"}
        body[field] = value
        status, err = call(svc, "POST", "/v1/vclusters", body)
        assert status == 422 and err["error"]["code"] == "validation_failed"

    def test_unknown_field(self, svc):
        status, err = call(svc, "POST", "/v1/vclusters",
                           {"user_id": "u", "node_count": 1, "imgae": "astro:1"})
        assert (status, err["error"]) == (
            422, {"code": "validation_failed", "message": "unknown field: imgae"})
        _status, listing = call(svc, "GET", "/v1/vclusters")
        assert listing["vclusters"] == []


class TestClock:
    def test_clock_and_advance(self, svc):
        status, body = call(svc, "GET", "/v1/clock")
        assert status == 200 and body == {"now_ms": 0, "mode": "sim"}
        status, body = call(svc, "POST", "/v1/clock/advance", {"until_ms": 500})
        assert status == 200 and body["now_ms"] == 500
        _status, body = call(svc, "POST", "/v1/clock/advance", {"by_ms": 250})
        assert body["now_ms"] == 750
        # stale target is a no-op, never a rewind
        _status, body = call(svc, "POST", "/v1/clock/advance", {"until_ms": 10})
        assert body["now_ms"] == 750

    def test_advance_validation(self, svc):
        assert call(svc, "POST", "/v1/clock/advance", {})[0] == 422
        assert call(svc, "POST", "/v1/clock/advance", {"until_ms": -5})[0] == 422
        assert call(svc, "POST", "/v1/clock/advance", {"until_ms": "soon"})[0] == 422

    @pytest.mark.parametrize("now", [0, 1_000])
    @pytest.mark.parametrize("body", [{"by_ms": -400}, {"until_ms": 5_000, "by_ms": 1},
                                      {"until_ms": 500, "by_ms": 0},
                                      {"by_ms": 5, "untill_ms": 100}])
    def test_advance_checks_its_body_at_every_clock(self, svc, now, body):
        call(svc, "POST", "/v1/clock/advance", {"until_ms": now})
        status, err = call(svc, "POST", "/v1/clock/advance", body)
        assert status == 422 and err["error"]["code"] == "validation_failed"
        assert call(svc, "GET", "/v1/clock")[1]["now_ms"] == now

    def test_past_until_is_a_no_op(self, svc):
        call(svc, "POST", "/v1/clock/advance", {"until_ms": 1_000})
        status, body = call(svc, "POST", "/v1/clock/advance", {"until_ms": 400})
        assert (status, body) == (200, {"now_ms": 1_000, "events_fired": 0})

    @pytest.mark.parametrize("body", [{"until_ms": True}, {"by_ms": True},
                                      {"by_ms": "5"}, {"by_ms": 1.5}, {"until_ms": None}])
    def test_advance_needs_an_integer(self, svc, body):
        status, err = call(svc, "POST", "/v1/clock/advance", body)
        assert status == 422 and err["error"]["code"] == "validation_failed"
        assert call(svc, "GET", "/v1/clock")[1]["now_ms"] == 0

    def test_advance_past_the_horizon_is_refused(self, svc):
        # the kill timer of this job lies past the engine's horizon
        call(svc, "POST", "/v1/jobs", rigid_obj(work=10**9, wall=10**12))
        status, err = call(svc, "POST", "/v1/clock/advance", {"until_ms": 10**13})
        assert status == 422 and err["error"]["code"] == "validation_failed"
        _status, job = call(svc, "GET", "/v1/jobs/j000000")
        assert job["state"] == "Running"

    @pytest.mark.parametrize("raw", [b"[" * 100_000, b'{"by_ms": 1' + b"0" * 5_000 + b"}",
                                     b"\xff\xfe", b'{"by_ms": 1'])
    def test_undecodable_body(self, svc, raw):
        status, payload = raw_call(svc, "POST", "/v1/clock/advance", raw)
        assert status == 422 and b"validation_failed" in payload

    def test_advance_reports_events_fired(self, svc):
        call(svc, "POST", "/v1/jobs", rigid_obj(work=10))
        _status, body = call(svc, "POST", "/v1/clock/advance", {"until_ms": 60_000})
        assert body["events_fired"] == 1    # the JobFinished

    def test_advance_counts_events_without_building_them(self, svc, monkeypatch):
        call(svc, "POST", "/v1/jobs", rigid_obj(work=10))
        call(svc, "POST", "/v1/jobs", elastic_obj(work=10))

        def no_event(view, index):
            raise AssertionError("the advance built a SimEvent")

        monkeypatch.setattr(engine.EventView, "__getitem__", no_event)
        mark = len(svc.sim.log)
        status, body = call(svc, "POST", "/v1/clock/advance", {"until_ms": 60_000})
        assert status == 200
        assert body["events_fired"] == len(svc.sim.log) - mark > 0


class TestRoutingErrors:
    def test_unknown_route(self, svc):
        status, err = call(svc, "GET", "/v1/nothing")
        assert status == 404 and err["error"]["code"] == "no_such_route"

    def test_wrong_method(self, svc):
        status, err = call(svc, "PUT", "/v1/jobs")
        assert status == 405 and err["error"]["code"] == "method_not_allowed"


class TestWireTables:
    SAMPLES = [
        (model.NonPositive("work_units"), "validation_failed", 422),
        (model.EmptyPreferences(), "validation_failed", 422),
        (MissingDataset("d"), "missing_dataset", 422),
        (DuplicateDataset("d"), "duplicate_dataset", 409),
        (cloud_mod.UnknownUser("u"), "unknown_user", 404),
        (cloud_mod.DuplicateUser("u"), "duplicate_user", 409),
        (cloud_mod.BadQuota("q"), "validation_failed", 422),
        (cloud_mod.BadUser("u"), "validation_failed", 422),
        (cloud_mod.BadNodeCount("2"), "validation_failed", 422),
        (cloud_mod.UnknownVCluster("v"), "unknown_vcluster", 404),
        (cloud_mod.AlreadyReleased("v"), "already_released", 409),
        (cloud_mod.InsufficientCloudCapacity(3), "insufficient_capacity", 409),
        (cloud_mod.QuotaExceeded("over"), "quota_exceeded", 403),
        (cloud_mod.QuotaRejected(RejectReason.CONCURRENCY_QUOTA), "quota_rejected", 403),
        (cloud_mod.QuotaRejected(RejectReason.NODE_QUOTA), "quota_rejected", 403),
        (cloud_mod.Unroutable(), "unroutable_kind", 422),
        (UnknownJob("j"), "unknown_job", 404),
        (AlreadyTerminal("j", JobState.COMPLETED), "already_terminal", 409),
    ]

    def test_every_table_row_has_a_working_sample(self):
        covered = set()
        for exc, code, status in self.SAMPLES:
            mapped = map_exception(exc)
            assert mapped is not None, exc
            assert (mapped.code, mapped.http_status) == (code, status), exc
            covered.add(type(exc))
        # every declared row is exercised by at least one sample above
        for etype, _code, _status in ERROR_TABLE:
            assert any(issubclass(c, etype) for c in covered), etype

    def test_verdict_table_covers_every_reject_reason(self):
        # admission and routing rejects are exceptions carrying a reason;
        # every reason has a sample, and each sample maps to a wire error
        reasons = set()
        for exc, code, status in self.SAMPLES:
            if isinstance(exc, (cloud_mod.QuotaRejected, cloud_mod.Unroutable)):
                mapped = map_exception(exc)
                assert (mapped.code, mapped.http_status) == (code, status), exc
                reasons.add(exc.reason)
        assert reasons == set(RejectReason)

    def test_unmapped_exception_stays_unmapped(self):
        assert map_exception(RuntimeError("boom")) is None

    def test_internal_error_path(self, svc, monkeypatch):
        def boom(req):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(svc, "handle_clock", boom)
        status, err = call(svc, "GET", "/v1/clock")
        assert status == 500 and err["error"]["code"] == "internal_error"
        assert "wires crossed" in err["error"]["message"]


class TestConfigFile:
    def write(self, tmp_path, obj):
        path = tmp_path / "service.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def good_obj(self):
        return {
            "clusters": [{"cluster_id": "cpu0", "kind": "cpu", "node_count": 2,
                          "cores_per_node": 8, "speed_factor": 1}],
            "listen_addr": "127.0.0.1:9099",
            "mode": "sim",
            "scheduler": {"backfill": False, "retry_budget": 2},
            "users": [{"user_id": "u", "quota": {"max_concurrent_jobs": 1,
                                                 "max_nodes_in_use": 1,
                                                 "max_vcluster_nodes": 0}}],
            "datasets": [{"name": "d", "size_bytes": 10}],
            "bandwidth_bytes_per_s": {"cpu0": 1000},
        }

    def test_full_round_trip(self, tmp_path):
        cfg = load_config(self.write(tmp_path, self.good_obj()), env={})
        assert cfg.listen_addr == "127.0.0.1:9099"
        assert cfg.scheduler == engine.SimConfig(backfill=False, retry_budget=2)
        assert cfg.clusters[0].cluster_id == "cpu0"
        svc = Service(cfg)
        assert svc.catalog.names() == ["d"]
        assert [u.user_id for u in svc.cloud.list_users()] == ["u"]
        # the catalog and the cloud layer are the one copy of the datasets
        # and users; the caller's config is kept
        assert svc.config.datasets == [] and svc.config.scheduler.backfill is False
        assert svc.config.users == []
        assert cfg.datasets == [{"name": "d", "size_bytes": 10}]
        assert cfg.users == self.good_obj()["users"]
        _status, listing = call(svc, "GET", "/v1/users")
        assert [u["user_id"] for u in listing["users"]] == ["u"]

    def test_env_overrides_listen_addr(self, tmp_path):
        path = self.write(tmp_path, self.good_obj())
        cfg = load_config(path, env={"HYBRIDSCHED_ADDR": "0.0.0.0:7777"})
        assert cfg.listen_addr == "0.0.0.0:7777"

    def test_rejects_bad_configs(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(self.write(tmp_path, {"clusters": []}), env={})
        obj = self.good_obj()
        obj["mode"] = "warp"
        with pytest.raises(ConfigError):
            load_config(self.write(tmp_path, obj), env={})
        obj = self.good_obj()
        obj["clusters"][0]["node_count"] = "many"
        with pytest.raises(ConfigError):
            load_config(self.write(tmp_path, obj), env={})
        bad = tmp_path / "broken.json"
        bad.write_text("{")
        with pytest.raises(ConfigError):
            load_config(str(bad), env={})

    @pytest.mark.parametrize("config", [[], 5, "cpu0", None])
    def test_rejects_a_config_that_is_not_an_object(self, tmp_path, config):
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            load_config(self.write(tmp_path, config), env={})

    @pytest.mark.parametrize("key, value, message", [
        ("clusters", 5, "at least one cluster"),
        ("clusters", {"cpu0": {}}, "at least one cluster"),
        ("clusters", "cpu0", "at least one cluster"),
        ("users", 5, "users must be a list"),
        ("users", {"u": {}}, "users must be a list"),
        ("scheduler", 5, "scheduler must be a JSON object"),
        ("scheduler", ["backfill"], "scheduler must be a JSON object"),
        ("listen_addr", 5, "listen_addr must be a host:port string"),
        ("listen_addr", None, "listen_addr must be a host:port string"),
        ("listen_addr", "127.0.0.1", "listen_addr must be a host:port string"),
        ("listen_addr", "127.0.0.1:http", "listen_addr must be a host:port string"),
        ("auth_header", 5, "auth_header must be a non-empty string"),
        ("auth_header", "", "auth_header must be a non-empty string"),
        ("mode", 5, "unknown mode 5"),
        # a port is 0-65535 in ASCII digits: bind() would raise OverflowError
        # on the first, and the second, an Arabic-Indic three, would bind port 3
        ("listen_addr", "127.0.0.1:70000", "port of 0-65535"),
        ("listen_addr", "127.0.0.1:\u0663", "port of 0-65535"),
        ("listen_addr", "127.0.0.1:65536", "port of 0-65535"),
        ("listen_addr", "127.0.0.1:000080", "port of 0-65535"),
    ])
    def test_rejects_wrongly_typed_top_level_fields(self, tmp_path, key, value, message):
        obj = self.good_obj()
        obj[key] = value
        with pytest.raises(ConfigError, match=message):
            load_config(self.write(tmp_path, obj), env={})

    @pytest.mark.parametrize("name", ["backfill", "hybrid_rigid_on_cloud"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_rejects_a_scheduler_flag_that_is_not_a_boolean(self, tmp_path, name, value):
        obj = self.good_obj()
        obj["scheduler"][name] = value
        with pytest.raises(ConfigError, match=f"scheduler.{name} must be true or false"):
            load_config(self.write(tmp_path, obj), env={})

    def test_absent_keys_take_the_dataclass_defaults(self, tmp_path):
        obj = {"clusters": self.good_obj()["clusters"], "scheduler": {}}
        cfg = load_config(self.write(tmp_path, obj), env={})
        assert cfg == ServiceConfig(clusters=cfg.clusters)

    def test_env_listen_addr_is_checked_too(self, tmp_path):
        with pytest.raises(ConfigError, match="listen_addr"):
            load_config(self.write(tmp_path, self.good_obj()), env={"HYBRIDSCHED_ADDR": "nohost"})

    @pytest.mark.parametrize("addr", ["0.0.0.0:70000", "0.0.0.0:\u0663", "0.0.0.0:" + "9" * 5000])
    def test_env_port_out_of_range_is_refused(self, tmp_path, addr):
        with pytest.raises(ConfigError, match="port of 0-65535"):
            load_config(self.write(tmp_path, self.good_obj()), env={"HYBRIDSCHED_ADDR": addr})

    @pytest.mark.parametrize("port", ["0", "65535", "08080"])
    def test_ports_at_the_bounds_are_taken(self, tmp_path, port):
        obj = self.good_obj()
        obj["listen_addr"] = f"127.0.0.1:{port}"
        assert load_config(self.write(tmp_path, obj), env={}).listen_addr == obj["listen_addr"]

    @pytest.mark.parametrize("value", [-1, "1", 1.5, True, None])
    def test_rejects_bad_retry_budget(self, tmp_path, value):
        obj = self.good_obj()
        obj["scheduler"]["retry_budget"] = value
        with pytest.raises(ConfigError, match="retry_budget"):
            load_config(self.write(tmp_path, obj), env={})

    @pytest.mark.parametrize("value", [1.5, True, "1", -1])
    def test_rejects_bad_user_quota(self, tmp_path, value):
        obj = self.good_obj()
        obj["users"][0]["quota"]["max_concurrent_jobs"] = value
        with pytest.raises(ConfigError, match="max_concurrent_jobs"):
            Service(load_config(self.write(tmp_path, obj), env={}))

    @pytest.mark.parametrize("value", ["5", -1, 1.5, True, None])
    def test_rejects_bad_provision_delay(self, tmp_path, value):
        obj = self.good_obj()
        obj["scheduler"]["provision_delay_ms"] = value
        with pytest.raises(ConfigError, match="provision_delay_ms"):
            load_config(self.write(tmp_path, obj), env={})

    @pytest.mark.parametrize("change, message", [
        ({"user_id": ""}, "user_id must be a non-empty string"),
        ({"user_id": 5}, "user_id must be a non-empty string"),
        ({"user_id": None}, "user_id must be a non-empty string"),
        ({"user_id": "v", "display_name": 5}, "display_name must be a string"),
        ({"user_id": "u"}, "user 'u' already exists"),
    ])
    def test_rejects_bad_user_entry(self, tmp_path, change, message):
        # users are checked where the Service registers them
        obj = self.good_obj()
        obj["users"].append({**obj["users"][0], **change})
        with pytest.raises(ConfigError, match=message):
            Service(load_config(self.write(tmp_path, obj), env={}))

    def test_rejects_a_user_without_an_id(self, tmp_path):
        obj = self.good_obj()
        del obj["users"][0]["user_id"]
        with pytest.raises(ConfigError, match="user_id must be a non-empty string$"):
            Service(load_config(self.write(tmp_path, obj), env={}))

    @pytest.mark.parametrize("bandwidth", [
        {"cpu0": "1000"}, {"cpu0": -1}, {"cpu0": 1.5}, {"cpu0": True}, {"cpu0": None}, [1000],
    ])
    def test_rejects_bad_bandwidth(self, tmp_path, bandwidth):
        obj = self.good_obj()
        obj["bandwidth_bytes_per_s"] = bandwidth
        with pytest.raises(ConfigError, match="bandwidth_bytes_per_s"):
            load_config(self.write(tmp_path, obj), env={})

    @pytest.mark.parametrize("datasets, message", [
        ([{"name": 5, "size_bytes": 1}], "non-empty string"),
        ([{"name": "", "size_bytes": 1}], "non-empty string"),
        ([{"name": "d", "size_bytes": 1.5}], "non-negative integer"),
        ([{"name": "d", "size_bytes": True}], "non-negative integer"),
        ([{"name": "d", "size_bytes": "10"}], "non-negative integer"),
        ([{"name": "d", "size_bytes": -1}], "non-negative integer"),
        ([{"name": "d"}], "missing field: size_bytes"),
        ([{"size_bytes": 1}], "missing field: name"),
        (["d"], "bad dataset entry: dataset entry must be a JSON object"),
        # a key beside the two fields is refused, not dropped
        ([{"name": "d", "size_bytes": 1, "sise_bytes": 5}], "unknown field: sise_bytes"),
        ([{"name": "d", "size_bytes": 1}, {"name": "d", "size_bytes": 2}],
         "'d' already registered"),
        # more than one bad entry: the first in file order is reported
        ([{"name": "", "size_bytes": 1}, {"name": "e"}], "non-empty string"),
        ([{"name": "d"}, {"name": "e", "size_bytes": 1}, {"name": "e", "size_bytes": 2}],
         "missing field: size_bytes"),
        ([{"name": "d", "size_bytes": 1}, {"name": "d", "size_bytes": 2}, {"size_bytes": 3}],
         "'d' already registered"),
        ([{"name": "d", "size_bytes": -1}, "e", {"name": 5, "size_bytes": 1}],
         "non-negative integer"),
        (["e", {"name": "", "size_bytes": 1}], "dataset entry must be a JSON object"),
        ([{"name": "d", "size_bytes": 1}, {"name": ["d"], "size_bytes": 1}, {"name": "d"}],
         "non-empty string"),
    ])
    def test_service_rejects_bad_dataset_entry(self, tmp_path, datasets, message):
        obj = self.good_obj()
        obj["datasets"] = datasets
        config = load_config(self.write(tmp_path, obj), env={})
        with pytest.raises(ConfigError, match=message):
            Service(config)

    @pytest.mark.parametrize("datasets", [5, {}, "", {"d": 5}, None])
    def test_rejects_datasets_that_are_not_a_list(self, tmp_path, datasets):
        obj = self.good_obj()
        obj["datasets"] = datasets
        with pytest.raises(ConfigError, match="^datasets must be a list$"):
            load_config(self.write(tmp_path, obj), env={})


class TestReferenceCounting:
    """A Service holds no reference cycle, so dropping it frees it at once."""

    def test_dropped_service_is_freed_without_the_collector(self):
        gc.collect()
        gc.disable()
        try:
            svc = Service(base_config(datasets=[{"name": "d", "size_bytes": 10}],
                                      bandwidth_bytes_per_s={"cloud0": 1_000}))
            job = rigid_obj(work=40)
            job["dataset_refs"] = ["d"]
            assert call(svc, "POST", "/v1/jobs", job)[0] == 201
            assert call(svc, "POST", "/v1/jobs", elastic_obj())[0] == 201
            assert call(svc, "POST", "/v1/jobs", rigid_obj(nodes=4))[0] == 201
            assert call(svc, "GET", "/v1/jobs/j000000")[0] == 200
            assert call(svc, "GET", "/v1/jobs/j000000/result")[0] == 409
            assert call(svc, "DELETE", "/v1/jobs/j000002")[0] == 202
            status, vc = call(svc, "POST", "/v1/vclusters", {"node_count": 1, "image": "i"},
                              headers={"X-User-Id": "u"})
            assert status == 201
            assert call(svc, "DELETE", f"/v1/vclusters/{vc['vcluster_id']}")[0] == 200
            assert call(svc, "GET", "/v1/clusters")[0] == 200
            assert call(svc, "GET", "/v1/metrics", query="window_ms=500")[0] == 200
            assert call(svc, "POST", "/v1/clock/advance", {"by_ms": 60_000})[0] == 200
            assert call(svc, "GET", "/v1/jobs/j000000/result")[0] == 200
            assert call(svc, "GET", "/v1/nothing")[0] == 404
            assert call(svc, "PUT", "/v1/jobs")[0] == 405
            assert call(svc, "POST", "/v1/jobs", {"name": "x"})[0] == 422
            del svc
            assert gc.collect() == 0
        finally:
            gc.enable()


def read_reply(sock):
    """(status, parsed JSON body) of the one HTTP/1.0 reply on sock."""
    head, _, payload = sock.makefile("rb").read().partition(b"\r\n\r\n")
    return int(head.split(b"\r\n")[0].split()[1]), json.loads(payload)


class TestOverRealHttp:
    def run_server(self, cfg):
        server, service = make_service_server(cfg)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        return server, thread, f"http://127.0.0.1:{port}"

    def test_sim_mode_round_trip(self):
        cfg = base_config(listen_addr="127.0.0.1:0")
        server, thread, base = self.run_server(cfg)
        try:
            _status, raw = oracles.http_call("GET", f"{base}/v1/clock")
            assert json.loads(raw)["now_ms"] == 0
            status, raw = oracles.http_call("POST", f"{base}/v1/jobs", rigid_obj(work=10))
            assert status == 201
            job_id = json.loads(raw)["job_id"]
            status, _raw = oracles.http_call("POST", f"{base}/v1/clock/advance",
                                             {"until_ms": 60_000})
            assert status == 200
            _status, raw = oracles.http_call("GET", f"{base}/v1/jobs/{job_id}/result")
            manifest = json.loads(raw)
            assert manifest["terminal"] == "Completed"
            assert manifest["duration_ms"] == 10_000
        finally:
            server.shutdown()
            thread.join(timeout=5)
            server.server_close()

    def test_realtime_mode_moves_the_clock(self):
        cfg = base_config(listen_addr="127.0.0.1:0", mode="realtime")
        server, thread, base = self.run_server(cfg)
        try:
            first = json.loads(oracles.http_call("GET", f"{base}/v1/clock")[1])
            assert first["mode"] == "realtime"
            time.sleep(0.05)
            second = json.loads(oracles.http_call("GET", f"{base}/v1/clock")[1])
            assert second["now_ms"] >= first["now_ms"] + 50
        finally:
            server.shutdown()
            thread.join(timeout=5)
            server.server_close()

    def test_negative_content_length_is_answered_at_once(self):
        # the client keeps its side open, so a server that read the body
        # to EOF would never answer
        server, thread, _base = self.run_server(base_config(listen_addr="127.0.0.1:0"))
        try:
            with socket.create_connection(server.server_address, timeout=5) as sock:
                sock.sendall(b"POST /v1/clock/advance HTTP/1.0\r\n"
                             b"Content-Length: -1\r\n\r\n")
                status, body = read_reply(sock)
            assert status == 422
            assert body["error"]["message"] == "empty request body"
        finally:
            server.shutdown()
            thread.join(timeout=5)
            server.server_close()

    def test_a_stalled_body_does_not_hold_up_other_clients(self, monkeypatch):
        # the slow client declares 100 bytes, sends 5 and keeps its side
        # open; the single-threaded server must give up on it after the
        # read timeout and then answer the next client
        monkeypatch.setattr(service_mod, "REQUEST_TIMEOUT_S", 0.3)
        server, thread, _base = self.run_server(base_config(listen_addr="127.0.0.1:0"))
        try:
            with socket.create_connection(server.server_address, timeout=5) as slow:
                slow.sendall(b"POST /v1/clock/advance HTTP/1.0\r\n"
                             b"Content-Length: 100\r\n\r\n" b'{"by_')
                t0 = time.monotonic()
                with socket.create_connection(server.server_address, timeout=3) as other:
                    other.sendall(b"GET /v1/clock HTTP/1.0\r\n\r\n")
                    other_status, clock = read_reply(other)
                waited = time.monotonic() - t0
                slow_status, body = read_reply(slow)
            assert (other_status, clock["now_ms"]) == (200, 0)
            assert waited < 2.0, waited
            assert slow_status == 408 and body["error"]["code"] == "request_timeout"
        finally:
            server.shutdown()
            thread.join(timeout=5)
            server.server_close()

    def test_a_stalled_request_line_is_answered_without_a_traceback(self, monkeypatch, capfd):
        # the slow client stops inside its request line, before the app
        # sees anything; it gets the stalled body's 408, and the server
        # prints nothing and moves on to the next client
        monkeypatch.setattr(service_mod, "REQUEST_TIMEOUT_S", 0.3)
        server, thread, _base = self.run_server(base_config(listen_addr="127.0.0.1:0"))
        try:
            with socket.create_connection(server.server_address, timeout=5) as slow:
                slow.sendall(b"GET /v1/cl")
                t0 = time.monotonic()
                with socket.create_connection(server.server_address, timeout=3) as other:
                    other.sendall(b"GET /v1/clock HTTP/1.0\r\n\r\n")
                    other_status, clock = read_reply(other)
                waited = time.monotonic() - t0
                slow_status, body = read_reply(slow)
            assert (other_status, clock["now_ms"]) == (200, 0)
            assert waited < 2.0, waited
            assert slow_status == 408
            assert body == {"error": {"code": "request_timeout",
                                      "message": "request not sent in 0.3 s"}}
        finally:
            server.shutdown()
            thread.join(timeout=5)
            server.server_close()
        assert "Traceback" not in capfd.readouterr().err

    def test_oversized_content_length_is_refused_unread(self):
        # no body byte is ever sent: a server that tried to read it would
        # time out instead of answering 413 at once
        server, thread, _base = self.run_server(base_config(listen_addr="127.0.0.1:0"))
        try:
            with socket.create_connection(server.server_address, timeout=3) as sock:
                sock.sendall(b"POST /v1/jobs HTTP/1.0\r\nContent-Length: %d\r\n\r\n"
                             % (service_mod.MAX_BODY_BYTES + 1))
                status, body = read_reply(sock)
            assert status == 413 and body["error"]["code"] == "body_too_large"
        finally:
            server.shutdown()
            thread.join(timeout=5)
            server.server_close()


# -- fuzzing the wire -------------------------------------------------------

QUOTA = {"max_concurrent_jobs": 2, "max_nodes_in_use": 4, "max_vcluster_nodes": 2}
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def maybe(valid):
    """A field's valid value half the time, any JSON value otherwise."""
    return st.just(valid) | json_values


# one body per route family: every field optional, each valid or of any type
valid_jobs = st.sampled_from([rigid_obj(), elastic_obj(), rigid_obj(wall=10**12, work=10**9)])
bodies = st.one_of(
    json_values, valid_jobs,
    valid_jobs.flatmap(lambda obj: st.fixed_dictionaries(
        {}, optional={k: maybe(v) for k, v in obj.items()})),
    st.fixed_dictionaries({}, optional={"user_id": maybe("v"), "quota": maybe(QUOTA),
                                        "display_name": maybe("V")}),
    st.fixed_dictionaries({}, optional={"user_id": maybe("u"), "node_count": maybe(1),
                                        "image": maybe("img")}),
    st.fixed_dictionaries({}, optional={"by_ms": maybe(1_000), "until_ms": maybe(10**13)}),
)
encoded = bodies.map(lambda obj: json.dumps(obj).encode("utf-8"))
ROUTES = [("POST", "/v1/jobs"), ("GET", "/v1/jobs/{}"), ("GET", "/v1/jobs/{}/result"),
          ("DELETE", "/v1/jobs/{}"), ("GET", "/v1/clusters"), ("GET", "/v1/metrics"),
          ("POST", "/v1/users"), ("GET", "/v1/users"), ("POST", "/v1/vclusters"),
          ("GET", "/v1/vclusters"), ("DELETE", "/v1/vclusters/{}"), ("GET", "/v1/clock"),
          ("POST", "/v1/clock/advance")]
segments = st.sampled_from(["j000000", "j000001", "vc0000", "vc0001", "", ".."]) \
    | st.text(max_size=6)


@st.composite
def wire_requests(draw):
    method, path = draw(st.sampled_from(ROUTES))
    if draw(st.integers(0, 3)) == 0:     # now and then a wrong method or an unknown route
        method = draw(st.sampled_from(["GET", "POST", "DELETE", "PUT", "HEAD"]))
        path = draw(st.sampled_from([path, "/v1/{}", "/v1/{}/{}"]))
    path = path.format(*(draw(segments) for _ in range(path.count("{}"))))
    body = draw(st.one_of(
        encoded,
        encoded.flatmap(lambda raw: st.integers(0, len(raw)).map(lambda cut: raw[:cut])),
        st.binary(max_size=24),                        # often not UTF-8
        st.sampled_from([b"[" * 100_000,               # nested past the recursion limit
                         b'{"by_ms": 1' + b"0" * 5_000 + b"}"]),   # past the int digit limit
    ))
    user = draw(st.none() | st.sampled_from(["u", "v", "nobody"]) | st.text(max_size=6))
    query = draw(st.sampled_from(["", "window_ms=100", "window_ms=-5", "window_ms=x"]))
    length = draw(st.none() | st.sampled_from(   # None: the body's size
        ["-1", "0", "", "x", str(service_mod.MAX_BODY_BYTES + 1)]))
    return method, path, body, user, query, length


@pytest.mark.extra_seeds
class TestFuzz:
    @given(st.lists(wire_requests(), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_no_request_gets_a_500(self, reqs):
        svc = Service(base_config())
        for method, path, body, user, query, length in reqs:
            status, payload = raw_call(svc, method, path, body, user, query, length)
            assert status < 500, (method, path, body[:80], user, payload)
            json.loads(payload)


# -- a model of the service, checked after every request --------------------

MODEL_SITE = [cluster("cpu0", CPU, 3, speed=10), cluster("cloud0", CLOUD, 4, speed=10)]
MODEL_USERS = ["u0", "u1", "u2"]
# a report row the checker finds wrong in a poll at clock 0 (see teardown)
PADDED_POLL = re.compile(r"\w+ (busy|available|held)_node_ms over \[0,1\): ")
# the job state each log event leaves its job in
STATE_AFTER = {"JobSubmitted": "Submitted", "JobQueued": "Queued", "JobStarted": "Running",
               "JobFinished": "Completed", "JobFailed": "Failed", "JobTimedOut": "TimedOut",
               "JobCancelled": "Cancelled"}
quotas = st.fixed_dictionaries({"max_concurrent_jobs": st.integers(0, 4),
                                "max_nodes_in_use": st.integers(0, 8),
                                "max_vcluster_nodes": st.integers(0, 3)})


def replayed_states(events) -> dict:
    """job_id -> the state the log's events leave the job in."""
    return {ev["job_id"]: STATE_AFTER[ev["kind"]] for ev in events if ev["kind"] in STATE_AFTER}


def node_spans(events, opens, closes) -> set:
    """(cluster_id, node) of the spans the log has opened and not closed."""
    open_now = set()
    for ev in events:
        if ev["kind"] in (opens, closes):
            nodes = ev.get("node_indices", [ev.get("node_index")])
            keys = {(ev["cluster_id"], n) for n in nodes}
            open_now = open_now | keys if ev["kind"] == opens else open_now - keys
    return open_now


class ServiceMachine(RuleBasedStateMachine):
    """Users, submits, cancels, clock advances, vclusters and node faults on
    one Service. After each step its answers must agree with the log, read
    back through the oracles, and with what the model saw it accept. At
    teardown the run is drained and its accepted exchanges are replayed
    by the benchmark's checker, perfbench/check.py."""

    users = Bundle("users")
    jobs = Bundle("jobs")
    vclusters = Bundle("vclusters")

    def __init__(self):
        super().__init__()
        self.quota = {"u0": {"max_concurrent_jobs": 4, "max_nodes_in_use": 8,
                             "max_vcluster_nodes": 2}}
        # the config's users go through the same decoder as POST /v1/users
        self.svc = Service(ServiceConfig(
            clusters=MODEL_SITE, users=[{"user_id": "u0", "quota": self.quota["u0"]}]))
        self.specs = {}       # job_id -> spec object of each job answered 201
        self.holds = {}       # vcluster_id -> [owner, cluster_id, nodes, t0, t1 or None]
        self.faults = []      # fault objects of the trace format, as injected
        self.exchanges = []   # accepted requests, in the shape check.check_service reads

    def accepted(self, op, status, body, **extra):
        self.exchanges.append({"op": op, "clock": self.svc.sim.now_ms, "status": status,
                               "body": body, **extra})

    @initialize(target=users)
    def configured_user(self):
        return "u0"

    @rule(target=users, user_id=st.sampled_from(MODEL_USERS), quota=quotas,
          extra=st.sampled_from([None, "extra_quota_key", "no_user_id", "display_name",
                                 "unknown_key"]))
    def create_user(self, user_id, quota, extra):
        body = {"user_id": user_id, "quota": dict(quota)}
        if extra == "extra_quota_key":
            body["quota"]["max_gpus"] = 1
        elif extra == "no_user_id":
            del body["user_id"]
        elif extra == "display_name":
            body["display_name"] = 5
        elif extra == "unknown_key":
            body["dispaly_name"] = "U"
        status, out = call(self.svc, "POST", "/v1/users", body)
        if extra is not None:
            assert (status, out["error"]["code"]) == (422, "validation_failed"), out
            return multiple()
        if user_id in self.quota:
            assert (status, out["error"]["code"]) == (409, "duplicate_user"), out
            return multiple()
        assert status == 201 and out["user_id"] == user_id, out
        self.quota[user_id] = quota
        return user_id

    @rule(target=jobs, user=st.one_of(users, users, users, st.just("nobody")),
          nodes=st.integers(1, 4), work=st.integers(1, 3), wall=st.sampled_from([60_000, 150]),
          prefs=st.sampled_from([("cpu",), ("cpu", "cloud"), ("cloud",)]))
    def submit_rigid(self, user, nodes, work, wall, prefs):
        return self.submit(rigid_obj(nodes=nodes, work=work, wall=wall, prefs=prefs, user=user))

    @rule(target=jobs, user=st.one_of(users, users, users, st.just("nobody")),
          a=st.integers(1, 4), b=st.integers(1, 4), work=st.integers(1, 3),
          wall=st.sampled_from([60_000, 150]))
    def submit_elastic(self, user, a, b, work, wall):
        return self.submit(elastic_obj(lo=min(a, b), hi=max(a, b), work=work, wall=wall,
                                       user=user))

    def submit(self, obj):
        user = obj["user_id"]
        status, out = call(self.svc, "POST", "/v1/jobs", obj, headers={"X-User-Id": user})
        if user not in self.quota:
            assert (status, out["error"]["code"]) == (404, "unknown_user"), out
            return multiple()
        states = replayed_states(oracles.log_events(self.svc.sim.log))
        jobs = [(spec["user_id"], states[job_id], spec) for job_id, spec in self.specs.items()]
        reason = oracles.reference_admit(jobs, self.quota[user], obj)
        if reason is not None:
            assert (status, out["error"]["code"]) == (403, "quota_rejected"), out
            assert reason in out["error"]["message"]
            return multiple()
        elastic = "elastic" in obj["shape"]
        if not elastic and obj["kind_preferences"] == ["cloud"]:   # rigid work on cloud is off
            assert (status, out["error"]["code"]) == (422, "unroutable_kind"), out
            return multiple()
        assert status == 201 and out["layer"] == ("cloud" if elastic else "hpc"), out
        self.accepted("submit", status, out)
        self.specs[out["job_id"]] = obj
        return out["job_id"]

    @rule(job_id=jobs)
    def cancel(self, job_id):
        before = replayed_states(oracles.log_events(self.svc.sim.log))[job_id]
        status, out = call(self.svc, "DELETE", f"/v1/jobs/{job_id}")
        if before in oracles.TERMINAL_STATES:
            assert (status, out["error"]["code"]) == (409, "already_terminal"), out
        else:
            assert (status, out["state"]) == (202, "Cancelled"), out
            self.accepted("cancel", status, out, job_id=job_id)

    @rule(by_ms=st.integers(0, 300))
    def advance(self, by_ms):
        now = self.svc.sim.now_ms
        status, out = call(self.svc, "POST", "/v1/clock/advance", {"by_ms": by_ms})
        assert (status, out["now_ms"]) == (200, now + by_ms), out
        self.accepted("advance", status, out, until=now + by_ms)

    @rule(target=vclusters, user=users, node_count=st.integers(1, 3))
    def create_vcluster(self, user, node_count):
        status, out = call(self.svc, "POST", "/v1/vclusters",
                           {"node_count": node_count, "image": "img"}, headers={"X-User-Id": user})
        held = sum(len(nodes) for owner, _cid, nodes, _t0, t1 in self.holds.values()
                   if owner == user and t1 is None)
        if held + node_count > self.quota[user]["max_vcluster_nodes"]:
            assert (status, out["error"]["code"]) == (403, "quota_exceeded"), out
            return multiple()
        if status == 409:
            assert out["error"]["code"] == "insufficient_capacity", out
            return multiple()
        assert status == 201 and len(out["node_indices"]) == node_count, out
        self.accepted("vc_create", status, out, user=user, nodes=node_count)
        self.holds[out["vcluster_id"]] = [user, out["cluster_id"], out["node_indices"],
                                          self.svc.sim.now_ms, None]
        return out["vcluster_id"]

    @rule(vcluster_id=vclusters)
    def release_vcluster(self, vcluster_id):
        hold = self.holds[vcluster_id]
        status, out = call(self.svc, "DELETE", f"/v1/vclusters/{vcluster_id}")
        if hold[4] is not None:
            assert (status, out["error"]["code"]) == (409, "already_released"), out
        else:
            assert (status, sorted(out["freed_nodes"])) == (200, sorted(hold[2])), out
            self.accepted("vc_release", status, out, vc={"cluster_id": hold[1],
                                                        "node_indices": hold[2]}, nodes=hold[2])
            hold[4] = self.svc.sim.now_ms

    @rule(site=st.sampled_from(MODEL_SITE), node=st.integers(0, 3),
          delay_ms=st.integers(1, 100), down_ms=st.integers(1, 200))
    def node_fault(self, site, node, delay_ms, down_ms):
        # at least 1 ms ahead: a fault due now marks its node down before
        # its NodeDown, and only an advance brings both
        fault = {"t_ms": self.svc.sim.now_ms + delay_ms, "cluster_id": site.cluster_id,
                 "node_index": node % site.node_count, "down_duration_ms": down_ms}
        self.svc.sim.inject_node_failure(fault["cluster_id"], fault["node_index"],
                                         fault["t_ms"], down_ms)
        self.faults.append(fault)

    @invariant()
    def agrees_with_the_log(self):
        events = oracles.log_events(self.svc.sim.log)
        states = replayed_states(events)
        views = {job_id: call(self.svc, "GET", f"/v1/jobs/{job_id}")[1] for job_id in self.specs}
        # each job's wire state is the one its log events leave it in
        assert {job_id: view["state"] for job_id, view in views.items()} == states

        # each elastic job's worker history is its JobStarted/RescaleApplied rows
        for job_id, view in views.items():
            if "elastic" in self.specs[job_id]["shape"]:
                assert view["worker_history"] == history_of(events, job_id)

        # no node is in two placements, and none is down or held
        held = node_spans(events, "NodesHeld", "NodesReleased")
        down = node_spans(events, "NodeDown", "NodeUp")
        placed = [(view["cluster_id"], n) for view in views.values()
                  if view["state"] == "Running" for n in view["node_indices"]]
        assert len(placed) == len(set(placed))
        assert not set(placed) & (held | down)

        # the held set is NodesHeld minus NodesReleased, in the engine and the model
        clusters = self.svc.sim.clusters()
        assert held == {(cid, n) for cid, cs in clusters.items() for n in cs.held}
        assert held == {(cid, n) for _owner, cid, nodes, _t0, t1 in self.holds.values()
                        if t1 is None for n in nodes}
        assert down == {(cid, n) for cid, cs in clusters.items() for n in cs.down}

        # each user's live jobs and projected nodes, within quota
        for user, quota in self.quota.items():
            live = [spec for job_id, spec in self.specs.items()
                    if spec["user_id"] == user and states[job_id] not in oracles.TERMINAL_STATES]
            load = (len(live), sum(oracles.projected_nodes_oracle(spec) for spec in live))
            assert self.svc.sim.user_load(user) == load
            assert load[0] <= quota["max_concurrent_jobs"]
            assert load[1] <= quota["max_nodes_in_use"]

        # /v1/metrics is the per-millisecond scan of the log
        status, metrics = call(self.svc, "GET", "/v1/metrics")
        assert status == 200
        self.accepted("metrics", status, metrics)
        to_ms = max(self.svc.sim.now_ms, 1)
        holds = [(cid, n, t0, t1) for _owner, cid, nodes, t0, t1 in self.holds.values()
                 for n in nodes]
        busy, avail = oracles.scan_utilization(
            events, [(c.cluster_id, c.node_count) for c in MODEL_SITE], (0, to_ms), holds)
        held_ms = {c.cluster_id: 0 for c in MODEL_SITE}
        for cid, _n, t0, t1 in holds:
            held_ms[cid] += (to_ms if t1 is None else t1) - t0
        assert {c["cluster_id"]: (c["busy_node_ms"], c["available_node_ms"], c["held_node_ms"])
                for c in metrics["utilization"]["clusters"]} == {
            cid: (busy[cid], avail[cid], held_ms[cid]) for cid in busy}
        assert metrics["waits"] == oracles.scan_wait_stats(events)

    def teardown(self):
        # drain as perfbench/run.py does: release every vcluster, then
        # advance until every job has ended, and poll the metrics last
        for vcluster_id, hold in self.holds.items():
            if hold[4] is None:
                self.release_vcluster(vcluster_id)
        for _ in range(10):
            if not self.svc.sim.live_jobs():
                break
            self.advance(60_000)
        status, metrics = call(self.svc, "GET", "/v1/metrics")
        self.accepted("metrics", status, metrics)
        clusters = [cluster_spec_to_obj(c) for c in MODEL_SITE]
        site = check.Site(clusters, self.specs, self.faults, retry_budget=1)
        for x in self.exchanges:
            if x["op"] == "vc_create":
                site.add_hold(x["body"]["cluster_id"], x["body"]["node_indices"], x["clock"])
            elif x["op"] == "vc_release":
                site.end_hold(x["vc"]["cluster_id"], x["vc"]["node_indices"], x["clock"])
        lines = self.svc.sim.log.canonical_bytes().decode().splitlines()
        outcome = check.check_service(site, lines, self.exchanges)
        # The checker does not know that a job no acceptable cluster can
        # hold fails at arrival. It orders a claim and a hold by their
        # millisecond, not by the log, so a job that starts and is
        # cancelled at t looks vcluster-held by a vcluster created later
        # at t. And it replays a poll against the final log, so a poll at
        # clock 0, whose window the service pads to [0, 1), is compared
        # with the starts and holds of the requests that follow it at 0.
        explained = {f"{job_id}: ends JobFailed without ever starting"
                     for job_id in unsatisfiable(clusters, self.specs, False, False)}
        cancels = [(x["job_id"], x["clock"]) for x in self.exchanges if x["op"] == "cancel"]
        explained |= {f"{job_id}: {x['body']['cluster_id']}/{n} is vcluster-held at t={t}"
                      for job_id, t in cancels for x in self.exchanges
                      if x["op"] == "vc_create" and x["clock"] == t
                      for n in x["body"]["node_indices"]}
        assert [p for p in outcome.problems
                if p not in explained and not PADDED_POLL.match(p)] == []


TestServiceModel = pytest.mark.extra_seeds(ServiceMachine.TestCase)
TestServiceModel.settings = settings(max_examples=25, stateful_step_count=40, deadline=None)
