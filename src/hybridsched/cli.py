"""hsctl: command-line client and offline simulation driver.

Thin by design: remote subcommands are plain HTTP calls against the
service with no policy of their own, and the simulate subcommand links
the engine directly so offline runs share the exact scheduler code the
service uses.

Exit codes: 0 success, 1 remote/API failure, 2 bad input, 3 simulation
guard tripped (non-terminating run).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from urllib.parse import quote

from .engine import NonTerminating, SimConfig, UnknownNode, run_trace
from .metrics import compare, format_table, utilization, utilization_rows, wait_stats
from .model import MalformedSpec, ValidationError, cluster_specs_from_obj, read_json
from .service import ConfigError, load_config, serve
from .traces import MalformedTrace, read_trace

EXIT_OK = 0
EXIT_REMOTE = 1
EXIT_INPUT = 2
EXIT_GUARD = 3

DEFAULT_SERVER = "http://127.0.0.1:8080"


def _fail(message: str, code: int = EXIT_INPUT) -> int:
    """Print one `hsctl:` line on stderr and return code. Control characters
    echoed from a file or a server body are escaped, so none can break the
    line or forge another; printable non-ASCII stays."""
    message = "".join(c if c.isprintable() else c.encode("unicode_escape").decode()
                      for c in message)
    print(f"hsctl: {message}", file=sys.stderr)
    return code


def _server(args) -> str:
    if args.server:
        return args.server
    return os.environ.get("HYBRIDSCHED_SERVER", DEFAULT_SERVER)


def _request(args, method: str, path: str, body=None, headers=None):
    """(status, body bytes) of the server's answer, or None after one
    `cannot reach` line. A 4xx or 5xx answer is an answer, not a failure."""
    # imported here: simulate and serve never load the HTTP client
    import http.client
    import urllib.error
    import urllib.request

    url = _server(args).rstrip("/") + path
    data = None if body is None else json.dumps(body).encode()
    try:
        req = urllib.request.Request(url, data=data, method=method,
                                     headers={"Content-Type": "application/json",
                                              **(headers or {})})
        try:
            resp = urllib.request.urlopen(req, timeout=10)
        except urllib.error.HTTPError as exc:   # a 4xx or 5xx answer, also a URLError
            resp = exc
        with resp:
            return resp.status, resp.read()
    except (OSError, ValueError, http.client.HTTPException) as exc:
        _fail(f"cannot reach {url}: {exc}")
        return None


def _finish(args, reply, render) -> int:
    """Common tail: --json passes the body through verbatim, else render."""
    if reply is None:
        return EXIT_REMOTE
    status, body = reply
    if status >= 400:
        return _fail(f"{status}: {body.decode('utf-8', 'replace')}", EXIT_REMOTE)
    if args.json:
        sys.stdout.write(body.decode("utf-8"))
        return EXIT_OK
    render(json.loads(body))
    return EXIT_OK


def cmd_submit(args) -> int:
    try:
        body = read_json(args.file, MalformedSpec)
    except (OSError, MalformedSpec) as exc:
        return _fail(f"cannot read {args.file}: {exc}")
    headers = {}
    user = args.user or (body.get("user_id") if isinstance(body, dict) else None)
    if user:
        headers["X-User-Id"] = user
    resp = _request(args, "POST", "/v1/jobs", body=body, headers=headers)
    return _finish(args, resp, lambda obj: print(obj["job_id"]))


def _render_fields(obj):
    """One `key: value` line per non-null key, in the body's order."""
    for key, value in obj.items():
        if value is not None:
            print(f"{key}: {value}")


def _job_path(job_id: str) -> str:
    """The job's URL path, its id quoted as one segment: a `/`, `?` or `#`
    in the id is percent-encoded, not sent as URL syntax."""
    return "/v1/jobs/" + quote(job_id, safe="")


def cmd_status(args) -> int:
    resp = _request(args, "GET", _job_path(args.job_id))
    return _finish(args, resp, _render_fields)


def cmd_result(args) -> int:
    resp = _request(args, "GET", _job_path(args.job_id) + "/result")
    return _finish(args, resp, _render_fields)


def cmd_cancel(args) -> int:
    resp = _request(args, "DELETE", _job_path(args.job_id))
    return _finish(args, resp, lambda obj: print(f"{obj['job_id']}: {obj['state']}"))


def cmd_clusters(args) -> int:
    def render(obj):
        rows = [("cluster", "kind", "nodes", "free", "busy", "down", "held", "speed")]
        for c in obj["clusters"]:
            rows.append((c["cluster_id"], c["kind"], c["node_count"], c["free_nodes"],
                         c["busy_nodes"], c["down_nodes"], c["held_nodes"], c["speed_factor"]))
        print(format_table(rows))

    resp = _request(args, "GET", "/v1/clusters")
    return _finish(args, resp, render)


def cmd_metrics(args) -> int:
    path = "/v1/metrics"
    if args.window_ms is not None:
        path += f"?window_ms={args.window_ms}"

    def render(obj):
        print(format_table(utilization_rows(obj["utilization"])))
        waits = obj["waits"]
        print(f"jobs: {waits['n_jobs']}  started: {waits['n_started']}  "
              f"mean_wait_ms: {waits['mean_wait_ms']}  makespan_ms: {waits['makespan_ms']}")

    resp = _request(args, "GET", path)
    return _finish(args, resp, render)


def cmd_advance(args) -> int:
    if (args.until_ms is None) == (args.by_ms is None):
        return _fail("advance needs exactly one of --until-ms/--by-ms")
    body = ({"until_ms": args.until_ms} if args.until_ms is not None
            else {"by_ms": args.by_ms})
    resp = _request(args, "POST", "/v1/clock/advance", body=body)
    return _finish(args, resp, lambda obj: print(f"now_ms: {obj['now_ms']}  "
                                                 f"events_fired: {obj['events_fired']}"))


def cmd_simulate(args) -> int:
    try:
        trace = read_trace(args.trace)
    except (OSError, MalformedTrace, ValidationError) as exc:
        return _fail(f"bad trace {args.trace}: {exc}")
    try:
        clusters = cluster_specs_from_obj(read_json(args.clusters, MalformedSpec))
    except (OSError, ValidationError) as exc:
        return _fail(f"bad clusters file {args.clusters}: {exc}")
    try:
        log, records = run_trace(trace, clusters)
    except NonTerminating as exc:
        return _fail(f"simulation did not terminate: {exc}", EXIT_GUARD)
    except ValidationError as exc:
        return _fail(f"invalid job in trace: {exc}")
    except UnknownNode as exc:
        return _fail(f"invalid fault in trace: {exc}")
    try:
        log.write(args.out)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}")
    last = log.t_ms[-1] if len(log) else 0
    window = (0, max(last, 1))
    report = utilization(log, clusters, window)
    stats = wait_stats(log)
    print(f"jobs: {len(records)}  events: {len(log)}  makespan_ms: {stats.makespan_ms}")
    print(f"log written to {args.out}")
    print(report.render_text())
    if args.compare_baseline:
        try:
            baseline, _ = run_trace(trace, clusters, SimConfig(first_preference_only=True))
        except NonTerminating as exc:   # waiting for a first preference can pass the horizon
            return _fail(f"baseline simulation did not terminate: {exc}", EXIT_GUARD)
        result = compare(baseline, log, clusters, label_a="partitioned", label_b="hybrid")
        print()
        print(result.render_text())
    return EXIT_OK


def cmd_serve(args) -> int:
    try:
        serve(load_config(args.config))     # Service(config) checks the users and datasets
    except (OSError, ConfigError) as exc:
        return _fail(f"bad config {args.config}: {exc}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsctl",
        description="client for the hybrid scheduling platform")
    parser.add_argument("--server", default=None,
                        help=f"service URL (default {DEFAULT_SERVER}, "
                             "env HYBRIDSCHED_SERVER)")
    parser.add_argument("--json", action="store_true",
                        help="emit the raw API response body unmodified")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("submit", help="submit a job spec file")
    p.add_argument("--file", required=True)
    p.add_argument("--user", default=None, help="override the auth user id")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("status", help="show one job")
    p.add_argument("job_id")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("result", help="fetch a finished job's result manifest")
    p.add_argument("job_id")
    p.set_defaults(func=cmd_result)

    p = sub.add_parser("cancel", help="cancel a job")
    p.add_argument("job_id")
    p.set_defaults(func=cmd_cancel)

    p = sub.add_parser("clusters", help="list clusters and node states")
    p.set_defaults(func=cmd_clusters)

    p = sub.add_parser("metrics", help="utilization and wait statistics")
    p.add_argument("--window-ms", type=int, default=None)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("advance", help="advance the service's virtual clock")
    p.add_argument("--until-ms", type=int, default=None)
    p.add_argument("--by-ms", type=int, default=None)
    p.set_defaults(func=cmd_advance)

    p = sub.add_parser("simulate", help="run a trace offline and write the event log")
    p.add_argument("--trace", required=True)
    p.add_argument("--clusters", required=True)
    p.add_argument("--out", default="events.jsonl")
    p.add_argument("--compare-baseline", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("serve", help="run the service from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
