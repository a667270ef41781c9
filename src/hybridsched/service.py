"""HTTP face of the platform.

A WSGI application (stdlib only, no framework) exposing job submission,
status/result polling, cancellation, cluster and metric introspection,
user and vcluster management, and explicit virtual-clock control. All
mutations funnel through one Simulation instance on a single-threaded
server, so every response reflects a linearizable history.

By default the service runs on virtual time: the clock only moves when
a client advances it. With mode "realtime" each request first catches
the virtual clock up to wall-clock elapsed milliseconds, which turns the
same engine into a crude live executor.
"""

from __future__ import annotations

import dataclasses
import json
import re
import time
from dataclasses import dataclass, field
from typing import Optional

from . import catalog as catalog_mod
from . import cloud as cloud_mod
from . import model
from .engine import SimConfig, Simulation
from .metrics import utilization, wait_stats
from .model import ClusterSpec, Elastic, cluster_spec_from_obj, job_spec_from_obj
from .scheduler import AlreadyTerminal, UnknownJob


class ConfigError(ValueError):
    pass


@dataclass
class ServiceConfig:
    clusters: list[ClusterSpec]
    listen_addr: str = "127.0.0.1:8080"
    auth_header: str = "X-User-Id"
    mode: str = "sim"                      # "sim" (virtual time) or "realtime"
    backfill: bool = True
    hybrid_rigid_on_cloud: bool = False
    retry_budget: int = 1
    provision_delay_ms: int = 0
    users: list[dict] = field(default_factory=list)
    datasets: list[dict] = field(default_factory=list)
    bandwidth_bytes_per_s: dict[str, int] = field(default_factory=dict)


def load_config(path, env: Optional[dict] = None) -> ServiceConfig:
    """Read a JSON config file; HYBRIDSCHED_ADDR overrides the listen address."""
    import os
    env = os.environ if env is None else env
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if not isinstance(raw.get("clusters"), list) or not raw["clusters"]:
        raise ConfigError("config must list at least one cluster")
    try:
        clusters = [cluster_spec_from_obj(entry) for entry in raw["clusters"]]
    except model.ValidationError as exc:
        raise ConfigError(f"bad cluster entry: {exc}") from exc
    sched = raw.get("scheduler", {})
    if not isinstance(sched, dict):
        raise ConfigError("scheduler must be a JSON object")
    cfg = ServiceConfig(
        clusters=clusters,
        listen_addr=raw.get("listen_addr", "127.0.0.1:8080"),
        auth_header=raw.get("auth_header", "X-User-Id"),
        mode=raw.get("mode", "sim"),
        backfill=sched.get("backfill", True),
        hybrid_rigid_on_cloud=sched.get("hybrid_rigid_on_cloud", False),
        retry_budget=sched.get("retry_budget", 1),
        provision_delay_ms=sched.get("provision_delay_ms", 0),
        users=raw.get("users", []),
        datasets=raw.get("datasets", []),
        bandwidth_bytes_per_s=raw.get("bandwidth_bytes_per_s", {}),
    )
    addr = env.get("HYBRIDSCHED_ADDR")
    if addr:
        cfg.listen_addr = addr
    if not isinstance(cfg.listen_addr, str) or not cfg.listen_addr.rpartition(":")[2].isdecimal():
        raise ConfigError(f"listen_addr must be a host:port string, got {cfg.listen_addr!r}")
    if not isinstance(cfg.auth_header, str) or not cfg.auth_header:
        raise ConfigError("auth_header must be a non-empty string")
    if cfg.mode not in ("sim", "realtime"):
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    for name in ("backfill", "hybrid_rigid_on_cloud"):
        if not isinstance(getattr(cfg, name), bool):
            raise ConfigError(f"scheduler.{name} must be true or false")
    if not model.is_integer(cfg.retry_budget) or cfg.retry_budget < 0:
        raise ConfigError("scheduler.retry_budget must be a non-negative integer")
    if not model.is_integer(cfg.provision_delay_ms) or cfg.provision_delay_ms < 0:
        raise ConfigError("scheduler.provision_delay_ms must be a non-negative integer")
    if not isinstance(cfg.users, list):
        raise ConfigError("users must be a list")
    user_ids = set()
    for entry in cfg.users:
        try:
            cloud_mod.Quota(**entry["quota"])
            user_id = entry["user_id"]
            display_name = entry.get("display_name", "")
        except (cloud_mod.BadQuota, KeyError, TypeError) as exc:
            raise ConfigError(f"bad user entry {entry!r}: {exc}") from exc
        if not isinstance(user_id, str) or not user_id:
            raise ConfigError(f"bad user entry {entry!r}: user_id must be a non-empty string")
        if user_id in user_ids:
            raise ConfigError(f"duplicate user_id {user_id!r}")
        if not isinstance(display_name, str):
            raise ConfigError(f"bad user entry {entry!r}: display_name must be a string")
        user_ids.add(user_id)
    bandwidth = cfg.bandwidth_bytes_per_s
    if not isinstance(bandwidth, dict) or not all(
            model.is_integer(v) and v >= 0 for v in bandwidth.values()):
        raise ConfigError("bandwidth_bytes_per_s must map cluster ids to non-negative integers")
    return cfg


@dataclass(frozen=True)
class ApiError(Exception):
    code: str
    message: str
    http_status: int


# Every module error surfaced over the wire maps to exactly one
# (code, status); the mapping test walks this table.
ERROR_TABLE: list[tuple[type, str, int]] = [
    (model.ValidationError, "validation_failed", 422),
    (catalog_mod.MissingDataset, "missing_dataset", 422),
    (catalog_mod.DuplicateDataset, "duplicate_dataset", 409),
    (cloud_mod.UnknownUser, "unknown_user", 404),
    (cloud_mod.DuplicateUser, "duplicate_user", 409),
    (cloud_mod.BadQuota, "validation_failed", 422),
    (cloud_mod.BadNodeCount, "validation_failed", 422),
    (cloud_mod.UnknownVCluster, "unknown_vcluster", 404),
    (cloud_mod.AlreadyReleased, "already_released", 409),
    (cloud_mod.InsufficientCloudCapacity, "insufficient_capacity", 409),
    (cloud_mod.QuotaExceeded, "quota_exceeded", 403),
    (UnknownJob, "unknown_job", 404),
    (AlreadyTerminal, "already_terminal", 409),
]

# Admission/routing rejections are verdicts, not exceptions; their wire
# mappings live here so the totality test covers them too.
VERDICT_TABLE: dict[cloud_mod.RejectReason, tuple[str, int]] = {
    cloud_mod.RejectReason.CONCURRENCY_QUOTA: ("quota_rejected", 403),
    cloud_mod.RejectReason.NODE_QUOTA: ("quota_rejected", 403),
    cloud_mod.RejectReason.UNROUTABLE_KIND: ("unroutable_kind", 422),
}


def map_exception(exc: Exception) -> Optional[ApiError]:
    for etype, code, status in ERROR_TABLE:
        if isinstance(exc, etype):
            return ApiError(code=code, message=str(exc), http_status=status)
    return None


def job_view(record) -> dict:
    view = {
        "job_id": record.job_id,
        "name": record.spec.name,
        "user_id": record.spec.user_id,
        "state": record.state.value,
        "submit_ms": record.submit_ms,
        "start_ms": record.start_ms,
        "end_ms": record.end_ms,
    }
    if record.allocation is not None:
        view["cluster_id"] = record.allocation.cluster_id
        view["node_indices"] = list(record.allocation.node_indices)
    if isinstance(record.spec.shape, Elastic):
        view["worker_history"] = [{"t_ms": t, "workers": w} for t, w in record.worker_history]
    return view


def result_manifest(record) -> dict:
    manifest = {
        "job_id": record.job_id,
        "terminal": record.state.value,
        "submit_ms": record.submit_ms,
        "start_ms": record.start_ms,
        "end_ms": record.end_ms,
        "duration_ms": (record.end_ms - record.start_ms
                        if record.start_ms is not None else None),
        "credited_work_milliunits": record.credited_milli,
        "work_units": record.spec.work_units,
    }
    if record.last_cluster_id is not None:
        manifest["cluster_id"] = record.last_cluster_id
        manifest["node_indices"] = list(record.last_node_indices)
    return manifest


# (method, path pattern, Service method name). Handlers are looked up by
# name per request: bound methods stored on the instance would make every
# Service a reference cycle that only the cyclic collector can free.
_ROUTES = [
    ("POST", re.compile(r"^/v1/jobs$"), "handle_submit"),
    ("GET", re.compile(r"^/v1/jobs/([^/]+)$"), "handle_status"),
    ("GET", re.compile(r"^/v1/jobs/([^/]+)/result$"), "handle_result"),
    ("DELETE", re.compile(r"^/v1/jobs/([^/]+)$"), "handle_cancel"),
    ("GET", re.compile(r"^/v1/clusters$"), "handle_clusters"),
    ("GET", re.compile(r"^/v1/metrics$"), "handle_metrics"),
    ("POST", re.compile(r"^/v1/users$"), "handle_create_user"),
    ("GET", re.compile(r"^/v1/users$"), "handle_list_users"),
    ("POST", re.compile(r"^/v1/vclusters$"), "handle_create_vcluster"),
    ("GET", re.compile(r"^/v1/vclusters$"), "handle_list_vclusters"),
    ("DELETE", re.compile(r"^/v1/vclusters/([^/]+)$"), "handle_release_vcluster"),
    ("GET", re.compile(r"^/v1/clock$"), "handle_clock"),
    ("POST", re.compile(r"^/v1/clock/advance$"), "handle_advance"),
]


class Service:
    """One platform instance: simulation, cloud layer, catalog, wire glue."""

    def __init__(self, config: ServiceConfig):
        self.catalog = catalog_mod.DatasetCatalog(
            bandwidth_bytes_per_s=config.bandwidth_bytes_per_s)
        sim_config = SimConfig(
            retry_budget=config.retry_budget,
            backfill=config.backfill,
            hybrid_rigid_on_cloud=config.hybrid_rigid_on_cloud,
        )
        self.sim = Simulation(config.clusters, config=sim_config, catalog=self.catalog)
        self.cloud = cloud_mod.CloudLayer(self.sim, provision_delay_ms=config.provision_delay_ms)
        for entry in config.users:
            quota = cloud_mod.Quota(**entry["quota"])
            self.cloud.create_user(entry["user_id"], quota,
                                   entry.get("display_name", ""))
        try:
            self.catalog.register_datasets(config.datasets)
        except KeyError as exc:
            raise ConfigError(f"dataset entry is missing {exc}") from exc
        except (catalog_mod.CatalogError, TypeError) as exc:
            raise ConfigError(f"bad dataset entry: {exc}") from exc
        # the catalog and the cloud layer are the one resident copy of the
        # datasets and users; the caller's config object is left as it was
        self.config = dataclasses.replace(config, datasets=[], users=[])
        self._kinds = {c.kind for c in config.clusters}
        self._t0 = time.monotonic()

    # -- handlers (each returns (status_int, body_obj)) -------------------

    def handle_submit(self, req) -> tuple[int, dict]:
        try:
            spec = job_spec_from_obj(req.json())
            model.validate_job(spec, self._kinds)
        except model.ValidationError as exc:
            raise ApiError("validation_failed", str(exc), 422) from exc
        caller = req.header(self.config.auth_header)
        if caller and caller != spec.user_id:
            raise ApiError("auth_mismatch",
                           f"auth header says {caller!r} but spec says {spec.user_id!r}", 403)
        if spec.dataset_refs:
            self.catalog.resolve(spec.dataset_refs)
        verdict = self.cloud.admit(spec)
        if not verdict.accepted:
            code, status = VERDICT_TABLE[verdict.reason]
            raise ApiError(code, f"admission rejected: {verdict.reason.value}", status)
        verdict = self.cloud.route(spec)
        if not verdict.accepted:
            code, status = VERDICT_TABLE[verdict.reason]
            raise ApiError(code, f"not routable: {verdict.reason.value}", status)
        job_id = self.sim.submit_now(spec)
        return 201, {"job_id": job_id, "layer": verdict.layer.value}

    def handle_status(self, req, job_id: str) -> tuple[int, dict]:
        record = self.sim.records.get(job_id)
        if record is None:
            raise UnknownJob(job_id)
        return 200, job_view(record)

    def handle_result(self, req, job_id: str) -> tuple[int, dict]:
        record = self.sim.records.get(job_id)
        if record is None:
            raise UnknownJob(job_id)
        if not record.state.terminal:
            raise ApiError("not_finished",
                           f"job {job_id} is {record.state.value}", 409)
        return 200, result_manifest(record)

    def handle_cancel(self, req, job_id: str) -> tuple[int, dict]:
        state = self.sim.cancel_now(job_id)
        return 202, {"job_id": job_id, "state": state.value}

    def handle_clusters(self, req) -> tuple[int, dict]:
        out = []
        for cid in sorted(self.sim.clusters()):
            cs = self.sim.clusters()[cid]
            out.append({
                "cluster_id": cid,
                "kind": cs.spec.kind.value,
                "node_count": cs.spec.node_count,
                "cores_per_node": cs.spec.cores_per_node,
                "speed_factor": cs.spec.speed_factor,
                "free_nodes": cs.free_count(),
                "busy_nodes": cs.busy_count(),
                "down_nodes": len(cs.down),
                "held_nodes": len(cs.held),
            })
        return 200, {"clusters": out}

    def handle_metrics(self, req) -> tuple[int, dict]:
        now = self.sim.now_ms
        window_ms = req.query_int("window_ms")
        if window_ms is not None and window_ms < 0:
            raise ApiError("validation_failed", "window_ms must be non-negative", 422)
        from_ms = 0 if window_ms is None else max(0, now - window_ms)
        to_ms = max(now, from_ms + 1)
        report = utilization(self.sim.log, self.config.clusters, (from_ms, to_ms))
        return 200, {"utilization": report.to_obj(), "waits": wait_stats(self.sim.log).to_obj()}

    def handle_create_user(self, req) -> tuple[int, dict]:
        body = req.json()
        try:
            quota = cloud_mod.Quota(**body.get("quota", {}))
        except TypeError as exc:
            raise ApiError("validation_failed", f"bad quota: {exc}", 422) from exc
        user_id = _str_field(body, "user_id")
        if not user_id:
            raise ApiError("validation_failed", "user_id must be non-empty", 422)
        account = self.cloud.create_user(user_id, quota, _str_field(body, "display_name"))
        return 201, {"user_id": account.user_id, "created_at_ms": account.created_at_ms}

    def handle_list_users(self, req) -> tuple[int, dict]:
        return 200, {"users": [
            {"user_id": a.user_id, "display_name": a.display_name,
             "quota": {"max_concurrent_jobs": a.quota.max_concurrent_jobs,
                       "max_nodes_in_use": a.quota.max_nodes_in_use,
                       "max_vcluster_nodes": a.quota.max_vcluster_nodes}}
            for a in self.cloud.list_users()
        ]}

    def handle_create_vcluster(self, req) -> tuple[int, dict]:
        body = req.json()
        owner = req.header(self.config.auth_header) or _str_field(body, "user_id")
        vc = self.cloud.provision_vcluster(owner, body.get("node_count", 0),
                                           _str_field(body, "image"))
        return 201, self._vc_view(vc)

    def handle_list_vclusters(self, req) -> tuple[int, dict]:
        return 200, {"vclusters": [self._vc_view(v) for v in self.cloud.list_vclusters()]}

    def handle_release_vcluster(self, req, vcluster_id: str) -> tuple[int, dict]:
        freed = self.cloud.release_vcluster(vcluster_id)
        return 200, {"vcluster_id": vcluster_id, "freed_nodes": list(freed)}

    def handle_clock(self, req) -> tuple[int, dict]:
        return 200, {"now_ms": self.sim.now_ms, "mode": self.config.mode}

    def handle_advance(self, req) -> tuple[int, dict]:
        body = req.json()
        if "until_ms" in body:
            target, base = body["until_ms"], 0
        elif "by_ms" in body:
            target, base = body["by_ms"], self.sim.now_ms
        else:
            raise ApiError("validation_failed", "need until_ms or by_ms", 422)
        if not model.is_integer(target) or base + target < 0:
            raise ApiError("validation_failed", "advance target must be a non-negative integer", 422)
        if base + target > self.sim.config.horizon_ms:
            # the engine raises NonTerminating past the horizon, mid-step
            raise ApiError("validation_failed",
                           f"advance target is past the horizon ({self.sim.config.horizon_ms} ms)",
                           422)
        mark = len(self.sim.log)
        self.sim.advance_to(base + target)
        return 200, {"now_ms": self.sim.now_ms, "events_fired": len(self.sim.log) - mark}

    def _vc_view(self, vc) -> dict:
        return {
            "vcluster_id": vc.vcluster_id,
            "owner": vc.owner,
            "cluster_id": vc.cluster_id,
            "node_indices": list(vc.node_indices),
            "image": vc.image,
            "state": vc.state.value,
            "ready_at_ms": vc.ready_at_ms,
        }

    # -- WSGI glue ---------------------------------------------------------

    def wsgi_app(self, environ, start_response):
        if self.config.mode == "realtime":
            elapsed = int((time.monotonic() - self._t0) * 1000)
            self.sim.advance_to(elapsed)
        method = environ["REQUEST_METHOD"]
        path = environ.get("PATH_INFO", "/")
        req = _Request(environ)
        status, body = self._dispatch(method, path, req)
        payload = json.dumps(body).encode("utf-8")
        start_response(f"{status} {_REASONS.get(status, 'OK')}", [
            ("Content-Type", "application/json"),
            ("Content-Length", str(len(payload))),
        ])
        return [payload]

    def _dispatch(self, method: str, path: str, req) -> tuple[int, dict]:
        for want_method, pattern, name in _ROUTES:
            match = pattern.match(path)
            if match and method == want_method:
                try:
                    return getattr(self, name)(req, *match.groups())
                except ApiError as exc:
                    return exc.http_status, _error_body(exc)
                except Exception as exc:     # noqa: BLE001 - mapped below
                    mapped = map_exception(exc)
                    if mapped is None:
                        mapped = ApiError("internal_error",
                                          f"{type(exc).__name__}: {exc}", 500)
                    return mapped.http_status, _error_body(mapped)
        if any(p.match(path) for _m, p, _n in _ROUTES):
            return 405, {"error": {"code": "method_not_allowed", "message": method}}
        return 404, {"error": {"code": "no_such_route", "message": path}}


def _str_field(body: dict, name: str) -> str:
    value = body.get(name, "")
    if not isinstance(value, str):
        raise ApiError("validation_failed", f"{name} must be a string", 422)
    return value


def _error_body(err: ApiError) -> dict:
    return {"error": {"code": err.code, "message": err.message}}


_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted", 400: "Bad Request", 403: "Forbidden",
    404: "Not Found", 405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Content Too Large", 422: "Unprocessable Entity", 500: "Internal Server Error",
}

# make_server's timeout on each socket read: the server is single-threaded,
# so one stalled client would hold up every other one
REQUEST_TIMEOUT_S = 5
MAX_BODY_BYTES = 1 << 20     # a larger Content-Length gets 413, its body unread


class _Request:
    def __init__(self, environ):
        self.environ = environ
        self._body: Optional[bytes] = None

    def body(self) -> bytes:
        if self._body is None:
            try:
                length = int(self.environ.get("CONTENT_LENGTH") or 0)
            except ValueError:
                length = 0
            if length > MAX_BODY_BYTES:
                raise ApiError("body_too_large", f"body over {MAX_BODY_BYTES} bytes", 413)
            # a negative length would read to EOF and block on a live socket
            try:
                self._body = self.environ["wsgi.input"].read(length) if length > 0 else b""
            except TimeoutError:
                raise ApiError("request_timeout", f"body not sent in {REQUEST_TIMEOUT_S} s", 408)
        return self._body

    def json(self) -> dict:
        raw = self.body()
        if not raw:
            raise ApiError("validation_failed", "empty request body", 422)
        try:
            obj = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad UTF-8, bad JSON and integers past the
            # interpreter's digit limit; RecursionError, nesting too deep
            raise ApiError("validation_failed", f"body is not valid JSON: {exc}", 422)
        if not isinstance(obj, dict):
            raise ApiError("validation_failed", "body must be a JSON object", 422)
        return obj

    def header(self, name: str) -> Optional[str]:
        key = "HTTP_" + name.upper().replace("-", "_")
        return self.environ.get(key)

    def query_int(self, name: str) -> Optional[int]:
        from urllib.parse import parse_qs
        raw = parse_qs(self.environ.get("QUERY_STRING", "")).get(name)
        if not raw:
            return None
        try:
            return int(raw[0])
        except ValueError:
            raise ApiError("validation_failed", f"{name} must be an integer", 422)


def make_server(host: str, port: int, app):
    """A bound single-threaded WSGI server for app.

    The stdlib HTTP server (http.server, socketserver, email) is imported
    here, so the in-process app and the offline simulator never load it.
    """
    from wsgiref import simple_server

    class _QuietHandler(simple_server.WSGIRequestHandler):
        timeout = REQUEST_TIMEOUT_S

        def log_message(self, *args):   # keep test output clean
            pass

    return simple_server.make_server(host, port, app, handler_class=_QuietHandler)


def make_service_server(config: ServiceConfig) -> tuple:
    """Build (server, service); caller owns serve_forever/shutdown."""
    host, _, port = config.listen_addr.rpartition(":")
    service = Service(config)
    server = make_server(host or "127.0.0.1", int(port), service.wsgi_app)
    return server, service


def serve(config: ServiceConfig):
    server, service = make_service_server(config)
    host, port = server.server_address[:2]
    print(f"hybridsched service on http://{host}:{port} (mode={config.mode})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return service
