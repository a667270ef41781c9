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

import bisect
import contextlib
import dataclasses
import json
import re
import time
from dataclasses import dataclass, field
from typing import Optional

from . import catalog as catalog_mod
from . import cloud as cloud_mod
from . import model
from .engine import HORIZON_MS, SimConfig, SimEventKind, Simulation, payload_get
from .engine import AlreadyTerminal, UnknownJob
from .metrics import utilization, wait_stats
from .model import ClusterSpec, Elastic, JobState, job_spec_from_obj
from .model import cluster_spec_from_obj  # noqa: F401 - perfbench/tracer.py wraps it here


class ConfigError(ValueError):
    pass


@dataclass
class ServiceConfig:
    clusters: list[ClusterSpec]
    listen_addr: str = "127.0.0.1:8080"
    auth_header: str = "X-User-Id"
    mode: str = "sim"                      # "sim" (virtual time) or "realtime"
    scheduler: SimConfig = field(default_factory=SimConfig)
    provision_delay_ms: int = 0
    users: list[dict] = field(default_factory=list)
    datasets: list[dict] = field(default_factory=list)
    bandwidth_bytes_per_s: dict[str, int] = field(default_factory=dict)


# The keys a config file may hold; any other is refused, and an absent one
# takes its dataclass default. Each top-level key but clusters and scheduler
# is a ServiceConfig field, and each scheduler key a SimConfig field but
# provision_delay_ms, which ServiceConfig keeps for the CloudLayer.
_CONFIG_KEYS = frozenset({"clusters", "listen_addr", "auth_header", "mode", "scheduler",
                          "users", "datasets", "bandwidth_bytes_per_s"})
_SCHEDULER_KEYS = frozenset({"backfill", "hybrid_rigid_on_cloud", "retry_budget",
                             "provision_delay_ms"})


def load_config(path, env: Optional[dict] = None) -> ServiceConfig:
    """Read a JSON config file; HYBRIDSCHED_ADDR overrides the listen address."""
    import os
    env = os.environ if env is None else env
    raw = model.read_json(path, ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if not raw.keys() <= _CONFIG_KEYS:
        raise ConfigError(f"unknown field: {min(raw.keys() - _CONFIG_KEYS)}")
    if not isinstance(raw.get("clusters"), list) or not raw["clusters"]:
        raise ConfigError("config must list at least one cluster")
    try:
        clusters = model.cluster_specs_from_obj(raw.pop("clusters"))
    except model.ValidationError as exc:
        raise ConfigError(f"bad cluster entry: {exc}") from exc
    sched = raw.pop("scheduler", {})
    if not isinstance(sched, dict):
        raise ConfigError("scheduler must be a JSON object")
    if not sched.keys() <= _SCHEDULER_KEYS:
        raise ConfigError(f"unknown field: scheduler.{min(sched.keys() - _SCHEDULER_KEYS)}")
    if "provision_delay_ms" in sched:
        raw["provision_delay_ms"] = sched.pop("provision_delay_ms")
    if env.get("HYBRIDSCHED_ADDR"):
        raw["listen_addr"] = env["HYBRIDSCHED_ADDR"]
    cfg = ServiceConfig(clusters=clusters, scheduler=SimConfig(**sched), **raw)
    port = cfg.listen_addr.rpartition(":")[2] if isinstance(cfg.listen_addr, str) else ""
    # at most five digits: this also keeps int() off a digit string too long to convert
    if not (port.isascii() and port.isdecimal() and len(port) <= 5 and int(port) <= 65535):
        raise ConfigError("listen_addr must be a host:port string with a port of 0-65535, "
                          f"got {cfg.listen_addr!r}")
    if not isinstance(cfg.auth_header, str) or not cfg.auth_header:
        raise ConfigError("auth_header must be a non-empty string")
    if cfg.mode not in ("sim", "realtime"):
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    for name in ("backfill", "hybrid_rigid_on_cloud"):
        if not isinstance(getattr(cfg.scheduler, name), bool):
            raise ConfigError(f"scheduler.{name} must be true or false")
    if not model.is_integer(cfg.scheduler.retry_budget) or cfg.scheduler.retry_budget < 0:
        raise ConfigError("scheduler.retry_budget must be a non-negative integer")
    if not model.is_integer(cfg.provision_delay_ms) or cfg.provision_delay_ms < 0:
        raise ConfigError("scheduler.provision_delay_ms must be a non-negative integer")
    if not isinstance(cfg.users, list):
        raise ConfigError("users must be a list")
    if not isinstance(cfg.datasets, list):
        raise ConfigError("datasets must be a list")
    bandwidth = cfg.bandwidth_bytes_per_s
    if not isinstance(bandwidth, dict) or not all(
            model.is_integer(v) and v >= 0 for v in bandwidth.values()):
        raise ConfigError("bandwidth_bytes_per_s must map cluster ids to non-negative integers")
    unknown = bandwidth.keys() - {c.cluster_id for c in clusters}
    if unknown:
        raise ConfigError(f"bandwidth_bytes_per_s names no configured cluster: {min(unknown)}")
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
    (cloud_mod.BadUser, "validation_failed", 422),
    (cloud_mod.BadNodeCount, "validation_failed", 422),
    (cloud_mod.UnknownVCluster, "unknown_vcluster", 404),
    (cloud_mod.AlreadyReleased, "already_released", 409),
    (cloud_mod.InsufficientCloudCapacity, "insufficient_capacity", 409),
    (cloud_mod.QuotaExceeded, "quota_exceeded", 403),
    (cloud_mod.QuotaRejected, "quota_rejected", 403),
    (cloud_mod.Unroutable, "unroutable_kind", 422),
    (UnknownJob, "unknown_job", 404),
    (AlreadyTerminal, "already_terminal", 409),
]


def map_exception(exc: Exception) -> Optional[ApiError]:
    for etype, code, status in ERROR_TABLE:
        if isinstance(exc, etype):
            return ApiError(code=code, message=str(exc), http_status=status)
    return None


# one module tuple: looking up the two enum members for each row made the scan 4x slower
_WORKER_ROWS = (SimEventKind.JOB_STARTED, SimEventKind.RESCALE_APPLIED)


def worker_history(log, record) -> list[dict]:
    """An elastic job's node count at each of its JobStarted/RescaleApplied rows.

    Only the rows from the job's submission to its end, or to the log's
    end while it is live, are read.
    """
    t_ms, kinds, payloads = log.t_ms, log.kind, log.payload
    lo = bisect.bisect_left(t_ms, record.submit_ms)
    hi = len(t_ms) if record.end_ms is None else bisect.bisect_right(t_ms, record.end_ms, lo)
    return [{"t_ms": t_ms[i], "workers": len(payload_get(payloads[i], "node_indices"))}
            for i in range(lo, hi) if kinds[i] in _WORKER_ROWS
            and payload_get(payloads[i], "job_id") == record.job_id]


def job_view(record, log) -> dict:
    """The status view: a running job's placement, an elastic job's worker history."""
    view = {
        "job_id": record.job_id,
        "name": record.spec.name,
        "user_id": record.spec.user_id,
        "state": record.state.value,
        "submit_ms": record.submit_ms,
        "start_ms": record.start_ms,
        "end_ms": record.end_ms,
    }
    if record.state is JobState.RUNNING:
        view["cluster_id"] = record.cluster_id
        view["node_indices"] = list(record.node_indices)
    if isinstance(record.spec.shape, Elastic):
        view["worker_history"] = worker_history(log, record)
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
    if record.cluster_id is not None:
        manifest["cluster_id"] = record.cluster_id
        manifest["node_indices"] = list(record.node_indices)
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
        self.sim = Simulation(config.clusters, config=config.scheduler, catalog=self.catalog)
        self.cloud = cloud_mod.CloudLayer(self.sim, provision_delay_ms=config.provision_delay_ms)
        for entry in config.users:
            try:
                self.cloud.create_user(*cloud_mod.user_from_obj(entry))
            except cloud_mod.CloudError as exc:
                raise ConfigError(f"bad user entry {entry!r}: {exc}") from exc
        try:
            self.catalog.register_datasets(config.datasets)
        except catalog_mod.CatalogError as exc:
            raise ConfigError(f"bad dataset entry: {exc}") from exc
        # the catalog and the cloud layer are the one resident copy of the
        # datasets and users; the caller's config object is left as it was
        self.config = dataclasses.replace(config, datasets=[], users=[])
        self._t0 = time.monotonic()

    # -- handlers (each returns (status_int, body_obj)) -------------------

    def handle_submit(self, req) -> tuple[int, dict]:
        spec = job_spec_from_obj(req.json())
        self._caller(req, spec.user_id)
        self.sim.check_job(spec)      # before admission; submit_now checks again
        self.cloud.admit(spec)
        layer = self.cloud.route(spec)
        job_id = self.sim.submit_now(spec)
        return 201, {"job_id": job_id, "layer": layer.value}

    def handle_status(self, req, job_id: str) -> tuple[int, dict]:
        record = self.sim.records.get(job_id)
        if record is None:
            raise UnknownJob(job_id)
        return 200, job_view(record, self.sim.log)

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
        account = self.cloud.create_user(*cloud_mod.user_from_obj(req.json()))
        return 201, {"user_id": account.user_id, "created_at_ms": account.created_at_ms}

    def handle_list_users(self, req) -> tuple[int, dict]:
        return 200, {"users": [
            {"user_id": a.user_id, "display_name": a.display_name,
             "quota": dataclasses.asdict(a.quota)}
            for a in self.cloud.list_users()
        ]}

    def handle_create_vcluster(self, req) -> tuple[int, dict]:
        body = req.json()
        _refuse_unknown(body, {"user_id", "node_count", "image"})
        owner = self._caller(req, _str_field(body, "user_id") if "user_id" in body else None)
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
        _refuse_unknown(body, {"until_ms", "by_ms"})
        if len(body) != 1:
            raise ApiError("validation_failed", "need exactly one of until_ms and by_ms", 422)
        [(key, target)] = body.items()
        if not model.is_integer(target) or target < 0:
            raise ApiError("validation_failed", "advance target must be a non-negative integer", 422)
        if key == "by_ms":
            target += self.sim.now_ms
        if target > HORIZON_MS:
            # the engine raises NonTerminating past the horizon, mid-step
            raise ApiError("validation_failed",
                           f"advance target is past the horizon ({HORIZON_MS} ms)", 422)
        mark = len(self.sim.log)
        self.sim.advance_to(target)
        return 200, {"now_ms": self.sim.now_ms, "events_fired": len(self.sim.log) - mark}

    def _caller(self, req, named: Optional[str]) -> str:
        """The user a request acts for: the user_id its body names, or the auth header's
        when the body names none (None). A header naming another user gets 403."""
        caller = req.header(self.config.auth_header)
        if named is None:
            return caller or ""
        if caller and caller != named:
            raise ApiError("auth_mismatch",
                           f"auth header says {caller!r} but spec says {named!r}", 403)
        return named

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


def _refuse_unknown(body: dict, known: set) -> None:
    if not body.keys() <= known:
        raise ApiError("validation_failed", f"unknown field: {min(body.keys() - known)}", 422)


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
_MAX_BODY_DIGITS = len(str(MAX_BODY_BYTES))


def _request_timeout() -> ApiError:
    return ApiError("request_timeout", f"request not sent in {REQUEST_TIMEOUT_S} s", 408)


def _body_too_large() -> ApiError:
    return ApiError("body_too_large", f"body over {MAX_BODY_BYTES} bytes", 413)


def _ascii_int(text: str) -> int:
    """int(text) for an optional '-' and ASCII digits only; int() alone also takes
    spaces, '+', '_' and other scripts' digits. Anything else raises ValueError."""
    if not (text.isascii() and text.removeprefix("-").isdecimal()):
        raise ValueError(text)
    return int(text)    # also ValueError past int()'s digit limit


class _Request:
    def __init__(self, environ):
        self.environ = environ
        self._body: Optional[bytes] = None

    def body(self) -> bytes:
        if self._body is None:
            text = self.environ.get("CONTENT_LENGTH") or "0"
            if text.isascii() and text.isdecimal():
                # by its digit count first: int() refuses over 4,300 digits
                text = text.lstrip("0") or "0"
                if len(text) > _MAX_BODY_DIGITS:
                    raise _body_too_large()
            try:
                length = _ascii_int(text)
            except ValueError:
                length = 0
            if length > MAX_BODY_BYTES:
                raise _body_too_large()
            # a negative length would read to EOF and block on a live socket
            try:
                self._body = self.environ["wsgi.input"].read(length) if length > 0 else b""
            except TimeoutError:
                raise _request_timeout()
        return self._body

    def json(self) -> dict:
        raw = self.body()
        if not raw:
            raise ApiError("validation_failed", "empty request body", 422)
        obj = model.parse_json(
            raw, lambda message: ApiError("validation_failed", f"body is {message}", 422))
        if not isinstance(obj, dict):
            raise ApiError("validation_failed", "body must be a JSON object", 422)
        return obj

    def header(self, name: str) -> Optional[str]:
        key = "HTTP_" + name.upper().replace("-", "_")
        return self.environ.get(key)

    def query_int(self, name: str) -> Optional[int]:
        from urllib.parse import parse_qs
        values = parse_qs(self.environ.get("QUERY_STRING", ""), keep_blank_values=True).get(name)
        if values is None:
            return None
        try:
            [text] = values     # a repeated name is refused as a blank one is
            return _ascii_int(text)
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

        def handle(self):
            try:
                super().handle()
            except TimeoutError:
                # stalled in its request line or headers, before the app
                # saw it: answered as the app answers a stalled body
                payload = json.dumps(_error_body(_request_timeout())).encode("utf-8")
                with contextlib.suppress(OSError):      # the client may be gone too
                    self.wfile.write(b"HTTP/1.0 408 Request Timeout\r\nContent-Type: "
                                     b"application/json\r\nContent-Length: %d\r\n\r\n%s"
                                     % (len(payload), payload))

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
