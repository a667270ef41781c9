"""Service tests: handlers through the WSGI app, wire mappings, config."""

import gc
import io
import json
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from hybridsched import cloud as cloud_mod
from hybridsched import engine
from hybridsched import model
from hybridsched import service as service_mod
from hybridsched.catalog import DuplicateDataset, MissingDataset
from hybridsched.cloud import RejectReason
from hybridsched.model import (
    ClusterSpec,
    Elastic,
    JobSpec,
    JobState,
    ResourceKind,
    Rigid,
    job_spec_to_obj,
)
from hybridsched.scheduler import AlreadyTerminal, UnknownJob
from hybridsched.service import (
    ConfigError,
    ERROR_TABLE,
    Service,
    ServiceConfig,
    VERDICT_TABLE,
    load_config,
    make_service_server,
    map_exception,
)

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

    @pytest.mark.parametrize("length", ["-1", "-100", "nope"])
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
        svc = Service(base_config(retry_budget=0))
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


ADMIT_QUOTAS = {"u": {"max_concurrent_jobs": 3, "max_nodes_in_use": 6, "max_vcluster_nodes": 0},
                "v": {"max_concurrent_jobs": 5, "max_nodes_in_use": 4, "max_vcluster_nodes": 0}}
admission_ops = st.lists(st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(sorted(ADMIT_QUOTAS)), st.booleans(),
              st.integers(1, 4), st.integers(1, 4), st.integers(1, 20)),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("advance"), st.integers(0, 8_000)),
), max_size=30)


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
                verdict = svc.cloud.admit(model.job_spec_from_obj(body))
                assert (verdict.reason.value if verdict.reason else None) == expected
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
                                              ("user_id", ["bob"]), ("display_name", [1])])
    def test_bad_user_fields(self, svc, field, value):
        body = {"user_id": "bob", "quota": {"max_concurrent_jobs": 1, "max_nodes_in_use": 1,
                                            "max_vcluster_nodes": 0}}
        body[field] = value
        status, err = call(svc, "POST", "/v1/users", body)
        assert status == 422 and err["error"]["code"] == "validation_failed"
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

    def test_owner_from_body_when_no_header(self, svc):
        status, vc = call(svc, "POST", "/v1/vclusters",
                          {"user_id": "u", "node_count": 1, "image": "i"})
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
        (cloud_mod.BadNodeCount("2"), "validation_failed", 422),
        (cloud_mod.UnknownVCluster("v"), "unknown_vcluster", 404),
        (cloud_mod.AlreadyReleased("v"), "already_released", 409),
        (cloud_mod.InsufficientCloudCapacity(3), "insufficient_capacity", 409),
        (cloud_mod.QuotaExceeded("over"), "quota_exceeded", 403),
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

    def test_unmapped_exception_stays_unmapped(self):
        assert map_exception(RuntimeError("boom")) is None

    def test_internal_error_path(self, svc, monkeypatch):
        def boom(req):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(svc, "handle_clock", boom)
        status, err = call(svc, "GET", "/v1/clock")
        assert status == 500 and err["error"]["code"] == "internal_error"
        assert "wires crossed" in err["error"]["message"]

    def test_verdict_table_covers_every_reject_reason(self):
        assert set(VERDICT_TABLE) == set(RejectReason)


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
        assert cfg.backfill is False
        assert cfg.retry_budget == 2
        assert cfg.clusters[0].cluster_id == "cpu0"
        svc = Service(cfg)
        assert svc.catalog.names() == ["d"]
        assert [u.user_id for u in svc.cloud.list_users()] == ["u"]
        # the catalog and the cloud layer are the one copy of the datasets
        # and users; the caller's config is kept
        assert svc.config.datasets == [] and svc.config.backfill is False
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

    def test_env_listen_addr_is_checked_too(self, tmp_path):
        with pytest.raises(ConfigError, match="listen_addr"):
            load_config(self.write(tmp_path, self.good_obj()), env={"HYBRIDSCHED_ADDR": "nohost"})

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
            load_config(self.write(tmp_path, obj), env={})

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
        ({"user_id": "u"}, "duplicate user_id 'u'"),
    ])
    def test_rejects_bad_user_entry(self, tmp_path, change, message):
        obj = self.good_obj()
        obj["users"].append({**obj["users"][0], **change})
        with pytest.raises(ConfigError, match=message):
            load_config(self.write(tmp_path, obj), env={})

    def test_rejects_a_user_without_an_id(self, tmp_path):
        obj = self.good_obj()
        del obj["users"][0]["user_id"]
        with pytest.raises(ConfigError, match="'user_id'$"):
            load_config(self.write(tmp_path, obj), env={})

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
        ([{"name": "d"}], "missing 'size_bytes'"),
        ([{"size_bytes": 1}], "missing 'name'"),
        (["d"], "bad dataset entry"),
        (5, "bad dataset entry"),
        ([{"name": "d", "size_bytes": 1}, {"name": "d", "size_bytes": 2}],
         "'d' already registered"),
        # more than one bad entry: the first in file order is reported
        ([{"name": "", "size_bytes": 1}, {"name": "e"}], "non-empty string"),
        ([{"name": "d"}, {"name": "e", "size_bytes": 1}, {"name": "e", "size_bytes": 2}],
         "missing 'size_bytes'"),
        ([{"name": "d", "size_bytes": 1}, {"name": "d", "size_bytes": 2}, {"size_bytes": 3}],
         "'d' already registered"),
        ([{"name": "d", "size_bytes": -1}, "e", {"name": 5, "size_bytes": 1}],
         "non-negative integer"),
        (["e", {"name": "", "size_bytes": 1}], "string indices must be integers"),
        ([{"name": "d", "size_bytes": 1}, {"name": ["d"], "size_bytes": 1}, {"name": "d"}],
         "non-empty string"),
    ])
    def test_service_rejects_bad_dataset_entry(self, tmp_path, datasets, message):
        obj = self.good_obj()
        obj["datasets"] = datasets
        config = load_config(self.write(tmp_path, obj), env={})
        with pytest.raises(ConfigError, match=message):
            Service(config)


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
        import requests

        cfg = base_config(listen_addr="127.0.0.1:0")
        server, thread, base = self.run_server(cfg)
        try:
            assert requests.get(f"{base}/v1/clock", timeout=5).json()["now_ms"] == 0
            r = requests.post(f"{base}/v1/jobs", json=rigid_obj(work=10), timeout=5)
            assert r.status_code == 201
            job_id = r.json()["job_id"]
            r = requests.post(f"{base}/v1/clock/advance",
                              json={"until_ms": 60_000}, timeout=5)
            assert r.status_code == 200
            manifest = requests.get(f"{base}/v1/jobs/{job_id}/result", timeout=5).json()
            assert manifest["terminal"] == "Completed"
            assert manifest["duration_ms"] == 10_000
        finally:
            server.shutdown()
            thread.join(timeout=5)
            server.server_close()

    def test_realtime_mode_moves_the_clock(self):
        import requests

        cfg = base_config(listen_addr="127.0.0.1:0", mode="realtime")
        server, thread, base = self.run_server(cfg)
        try:
            first = requests.get(f"{base}/v1/clock", timeout=5).json()
            assert first["mode"] == "realtime"
            time.sleep(0.05)
            second = requests.get(f"{base}/v1/clock", timeout=5).json()
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
