"""CLI tests: exit codes, rendering, --json passthrough, offline simulate."""

import contextlib
import hashlib
import json
import pathlib
import socket
import subprocess
import sys
import threading

import pytest

import hybridsched
import oracles
from hybridsched import cli as cli_mod
from hybridsched.cli import EXIT_GUARD, EXIT_INPUT, EXIT_OK, EXIT_REMOTE, main
from hybridsched.engine import Simulation
from hybridsched.model import (
    ClusterSpec,
    JobSpec,
    ResourceKind,
    Rigid,
    cluster_spec_to_obj,
    job_spec_to_obj,
)
from hybridsched import service as service_mod
from hybridsched.service import ServiceConfig, make_service_server
from hybridsched.traces import (
    FaultDirective,
    SubmissionTrace,
    random_clusters,
    random_trace,
    trace_to_obj,
    write_trace,
)

CPU = ResourceKind.CPU
GPU = ResourceKind.GPU
CLOUD = ResourceKind.CLOUD


def cluster(cid, kind, nodes, speed=1):
    return ClusterSpec(cluster_id=cid, kind=kind, node_count=nodes,
                       cores_per_node=8, speed_factor=speed)


@pytest.fixture
def server():
    cfg = ServiceConfig(
        clusters=[cluster("cpu0", CPU, 4), cluster("cloud0", CLOUD, 2)],
        listen_addr="127.0.0.1:0",
        users=[{"user_id": "u",
                "quota": {"max_concurrent_jobs": 10, "max_nodes_in_use": 100,
                          "max_vcluster_nodes": 2}}],
    )
    srv, service = make_service_server(cfg)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    base = "http://127.0.0.1:%d" % srv.server_address[1]
    yield base
    srv.shutdown()
    thread.join(timeout=5)
    srv.server_close()


def spec_file(tmp_path, **kw):
    spec = JobSpec(name=kw.pop("name", "j"), user_id=kw.pop("user", "u"),
                   kind_preferences=(CPU,),
                   shape=Rigid(node_count=kw.pop("nodes", 1)),
                   work_units=kw.pop("work", 10),
                   walltime_limit_ms=kw.pop("wall", 60_000))
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job_spec_to_obj(spec)))
    return str(path)


def unreachable_server() -> str:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return "http://127.0.0.1:%d" % port


@contextlib.contextmanager
def garbage_server(reply=b"garbage\r\n\r\n"):
    """URL of a server that answers one connection with reply, by default a
    line that is not HTTP."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)

    def answer():
        conn, _addr = sock.accept()
        with conn:
            conn.recv(65536)
            conn.sendall(reply)

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    try:
        yield "http://127.0.0.1:%d" % sock.getsockname()[1]
    finally:
        sock.close()
        thread.join(timeout=5)


# stdout of test_every_remote_command_runs_without_requests: the bytes the
# remote commands printed when they sent their requests through requests
EVERY_REMOTE_COMMAND_OUT = """\
j000000
exit 0
j000001
exit 0
job_id: j000000
name: j
user_id: u
state: Running
submit_ms: 0
start_ms: 0
cluster_id: cpu0
node_indices: [0]
exit 0
j000001: Cancelled
exit 0
now_ms: 60000  events_fired: 1
exit 0
job_id: j000000
terminal: Completed
submit_ms: 0
start_ms: 0
end_ms: 10000
duration_ms: 10000
credited_work_milliunits: 10000
work_units: 10
cluster_id: cpu0
node_indices: [0]
exit 0
cluster  kind   nodes  free  busy  down  held  speed
-------  -----  -----  ----  ----  ----  ----  -----
cloud0   cloud  2      2     0     0     0     1
cpu0     cpu    4      4     0     0     0     1
exit 0
cluster  busy_node_ms  avail_node_ms  held_node_ms  util
-------  ------------  -------------  ------------  ------
cloud0   0             120000         0             0.0000
cpu0     10000         240000         0             0.0417
TOTAL    10000         360000         0             0.0278
jobs: 2  started: 2  mean_wait_ms: 0  makespan_ms: 10000
exit 0
exit 1
"""


class TestRemoteCommands:
    def test_submit_advance_result_flow(self, server, tmp_path, capsys):
        assert main(["--server", server, "submit", "--file",
                     spec_file(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().out == "j000000\n"
        assert main(["--server", server, "advance", "--until-ms", "60000"]) == EXIT_OK
        assert "now_ms: 60000" in capsys.readouterr().out
        assert main(["--server", server, "result", "j000000"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "job_id: j000000" in out
        assert "terminal: Completed" in out
        assert "duration_ms: 10000" in out

    def test_status_renders_fields(self, server, tmp_path, capsys):
        main(["--server", server, "submit", "--file", spec_file(tmp_path, nodes=2)])
        capsys.readouterr()
        assert main(["--server", server, "status", "j000000"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "state: Running" in out
        assert "cluster_id: cpu0" in out
        assert "node_indices: [0, 1]" in out

    def test_json_is_byte_passthrough(self, server, tmp_path, capsys):
        main(["--server", server, "submit", "--file", spec_file(tmp_path)])
        capsys.readouterr()
        _status, raw = oracles.http_call("GET", server + "/v1/jobs/j000000")
        assert main(["--server", server, "--json", "status", "j000000"]) == EXIT_OK
        assert capsys.readouterr().out == raw.decode("utf-8")

    def test_cancel(self, server, tmp_path, capsys):
        main(["--server", server, "submit", "--file", spec_file(tmp_path, work=40)])
        capsys.readouterr()
        assert main(["--server", server, "cancel", "j000000"]) == EXIT_OK
        assert capsys.readouterr().out == "j000000: Cancelled\n"

    def test_clusters_table(self, server, capsys):
        assert main(["--server", server, "clusters"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == [
            "cluster", "kind", "nodes", "free", "busy", "down", "held", "speed"]
        assert "cpu0" in out

    def test_metrics_with_window(self, server, tmp_path, capsys):
        main(["--server", server, "submit", "--file", spec_file(tmp_path)])
        main(["--server", server, "advance", "--by-ms", "20000"])
        capsys.readouterr()
        assert main(["--server", server, "metrics", "--window-ms", "5000"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "TOTAL" in out and "makespan_ms:" in out

    def test_remote_error_exits_1(self, server, capsys):
        assert main(["--server", server, "status", "zzz"]) == EXIT_REMOTE
        err = capsys.readouterr().err
        assert "404" in err and "unknown_job" in err

    def test_unreachable_server_exits_1(self, capsys):
        assert main(["--server", unreachable_server(), "clusters"]) == EXIT_REMOTE
        assert "cannot reach" in capsys.readouterr().err

    def test_a_server_url_with_no_scheme_exits_1(self, capsys):
        url = unreachable_server().removeprefix("http://")
        assert main(["--server", url, "clusters"]) == EXIT_REMOTE
        err = capsys.readouterr().err
        assert err.startswith(f"hsctl: cannot reach {url}/v1/clusters: ") and err.count("\n") == 1

    def test_a_reply_that_is_not_http_exits_1(self, capsys):
        with garbage_server() as url:
            assert main(["--server", url, "clusters"]) == EXIT_REMOTE
        err = capsys.readouterr().err
        assert err.startswith(f"hsctl: cannot reach {url}/v1/clusters: ") and err.count("\n") == 1

    def test_a_user_id_that_is_not_latin_1_submits(self, server, tmp_path, capsys):
        # the spec's user_id travels in the body only: no header, whose
        # values are Latin-1, carries it
        body = {"user_id": "\u4e2d", "quota": {"max_concurrent_jobs": 1, "max_nodes_in_use": 1,
                                                "max_vcluster_nodes": 0}}
        assert oracles.http_call("POST", server + "/v1/users", body)[0] == 201
        assert main(["--server", server, "submit", "--file",
                     spec_file(tmp_path, user="\u4e2d")]) == EXIT_OK
        assert capsys.readouterr().out == "j000000\n"
        assert main(["--server", server, "status", "j000000"]) == EXIT_OK
        assert "user_id: \u4e2d\n" in capsys.readouterr().out

    def test_a_2xx_body_that_is_not_json_exits_1(self, capsys):
        html = b"<html>\n<body>a proxy page</body>\n</html>\n"
        reply = b"HTTP/1.0 200 OK\r\nContent-Type: text/html\r\n\r\n" + html
        with garbage_server(reply) as url:
            assert main(["--server", url, "clusters"]) == EXIT_REMOTE
        err = capsys.readouterr().err
        assert err.startswith("hsctl: 200 answer is not valid JSON: ") and err.count("\n") == 1

    def test_json_writes_a_body_that_is_not_utf_8_as_received(self, capsysbinary):
        body = b'{"clusters": "\xff\xfe"}'
        reply = b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + body
        with garbage_server(reply) as url:
            assert main(["--server", url, "--json", "clusters"]) == EXIT_OK
        out, err = capsysbinary.readouterr()
        assert (out, err) == (body, b"")

    @pytest.mark.parametrize("job_id", ["j000000?x", "j000000 x"])
    def test_a_job_id_is_one_path_segment(self, server, tmp_path, capsys, job_id):
        # unquoted, "?x" would be sent as a query and j000000 shown, and
        # http.client would refuse the space
        main(["--server", server, "submit", "--file", spec_file(tmp_path)])
        capsys.readouterr()
        assert main(["--server", server, "status", job_id]) == EXIT_REMOTE
        err = capsys.readouterr().err
        assert err.startswith("hsctl: 404: ") and f'"message": "unknown job {job_id}"' in err

    def test_a_job_id_cannot_reach_another_route(self, server, capsys):
        # unquoted, the ".." would be collapsed into DELETE /v1/vclusters/vc0000
        body = {"user_id": "u", "node_count": 1, "image": "img"}
        assert oracles.http_call("POST", server + "/v1/vclusters", body)[0] == 201
        assert main(["--server", server, "cancel", "../vclusters/vc0000"]) == EXIT_REMOTE
        err = capsys.readouterr().err
        assert err.startswith("hsctl: 404: ") and "no_such_route" in err
        status, raw = oracles.http_call("GET", server + "/v1/vclusters")
        assert status == 200
        assert [vc["state"] for vc in json.loads(raw)["vclusters"]] == ["Ready"]

    def test_every_remote_command_runs_without_requests(self, server, tmp_path):
        src = str(pathlib.Path(hybridsched.__file__).parent.parent)
        spec = spec_file(tmp_path)
        argvs = [["submit", "--file", spec], ["submit", "--file", spec],
                 ["status", "j000000"], ["cancel", "j000001"],
                 ["advance", "--until-ms", "60000"], ["result", "j000000"],
                 ["clusters"], ["metrics"], ["status", "zzz"]]
        code = f"""
import sys
sys.modules["requests"] = None     # import requests raises ImportError
sys.path.insert(0, {src!r})
from hybridsched.cli import main
for argv in {argvs!r}:
    print("exit", main(["--server", {server!r}] + argv), flush=True)
"""
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout == EVERY_REMOTE_COMMAND_OUT
        assert run.stderr == ('hsctl: 404: {"error": {"code": "unknown_job", '
                              '"message": "unknown job zzz"}}\n')

    def test_server_from_environment(self, server, capsys, monkeypatch):
        monkeypatch.setenv("HYBRIDSCHED_SERVER", server)
        assert main(["clusters"]) == EXIT_OK
        assert "cpu0" in capsys.readouterr().out

    def test_submit_bad_files(self, server, tmp_path, capsys):
        assert main(["--server", server, "submit", "--file",
                     str(tmp_path / "absent.json")]) == EXIT_INPUT
        bad = tmp_path / "bad.json"
        bad.write_text("{...")
        assert main(["--server", server, "submit", "--file", str(bad)]) == EXIT_INPUT
        capsys.readouterr()

    def test_advance_needs_exactly_one_flag(self, capsys):
        assert main(["advance"]) == EXIT_INPUT
        assert main(["advance", "--until-ms", "5", "--by-ms", "5"]) == EXIT_INPUT
        capsys.readouterr()


class TestSimulate:
    def write_inputs(self, tmp_path, seed=14, n_jobs=20, faults=0):
        clusters = random_clusters(seed)
        trace = random_trace(seed, clusters, n_jobs, arrival_span_ms=4_000,
                             n_faults=faults)
        trace_path = tmp_path / "trace.json"
        write_trace(trace, trace_path)
        clusters_path = tmp_path / "clusters.json"
        clusters_path.write_text(json.dumps(
            [cluster_spec_to_obj(c) for c in clusters]))
        return str(trace_path), str(clusters_path)

    def test_simulate_writes_log_deterministically(self, tmp_path, capsys):
        trace_path, clusters_path = self.write_inputs(tmp_path)
        out1 = tmp_path / "run1.jsonl"
        out2 = tmp_path / "run2.jsonl"
        assert main(["simulate", "--trace", trace_path, "--clusters", clusters_path,
                     "--out", str(out1)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "jobs: 20" in stdout
        assert "TOTAL" in stdout
        assert main(["simulate", "--trace", trace_path, "--clusters", clusters_path,
                     "--out", str(out2)]) == EXIT_OK
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        first = json.loads(out1.read_text().splitlines()[0])
        assert list(first)[:3] == ["t", "seq", "kind"]

    def test_compare_baseline_flag(self, tmp_path, capsys):
        trace_path, clusters_path = self.write_inputs(tmp_path, seed=2, n_jobs=12)
        assert main(["simulate", "--trace", trace_path, "--clusters", clusters_path,
                     "--out", str(tmp_path / "o.jsonl"),
                     "--compare-baseline"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "partitioned" in out and "hybrid" in out

    def test_compare_baseline_runs_two_simulations(self, tmp_path, capsys, monkeypatch):
        # the hybrid run's own log is replayed; only the baseline is run again
        trace_path, clusters_path = self.write_inputs(tmp_path, seed=9, n_jobs=300)
        runs = []
        run = Simulation.run_to_quiescence
        monkeypatch.setattr(Simulation, "run_to_quiescence",
                            lambda sim: runs.append(sim) or run(sim))
        out = tmp_path / "o.jsonl"
        assert main(["simulate", "--trace", trace_path, "--clusters", clusters_path,
                     "--out", str(out), "--compare-baseline"]) == EXIT_OK
        assert len(runs) == 2
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        # the bytes the three-run form printed for this input
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "6cf30ca83527b7dfbdefc284927a448146445ca40b6cc114810c7b4a0f6235fd")

    def test_bad_inputs_exit_2(self, tmp_path, capsys):
        trace_path, clusters_path = self.write_inputs(tmp_path)
        assert main(["simulate", "--trace", str(tmp_path / "none.json"),
                     "--clusters", clusters_path]) == EXIT_INPUT
        broken = tmp_path / "broken.json"
        broken.write_text("[}")
        assert main(["simulate", "--trace", trace_path,
                     "--clusters", str(broken)]) == EXIT_INPUT
        capsys.readouterr()

    @pytest.mark.parametrize("section, field, value, message", [
        ("jobs", "t_ms", 1.5, "job t_ms must be an integer"),
        ("jobs", "t_ms", "5", "job t_ms must be an integer"),
        ("jobs", "t_ms", True, "job t_ms must be an integer"),
        ("faults", "t_ms", 2.0, "fault t_ms must be an integer"),
        ("faults", "node_index", True, "fault node_index must be an integer"),
        ("faults", "down_duration_ms", "100", "fault down_duration_ms must be an integer"),
        ("faults", "cluster_id", 0, "fault cluster_id must be a string"),
        ("faults", "cluster_id", "gpu9", "no node 0 on cluster gpu9"),
        ("faults", "node_index", 7, "no node 7 on cluster cpu0"),
        (None, "jobs", 5, "trace jobs must be a list"),
        (None, "faults", {}, "trace faults must be a list"),
        (None, "rng_seed", "1", "trace rng_seed must be an integer"),
        (None, "rng_seed", False, "trace rng_seed must be an integer"),
    ])
    def test_bad_trace_field_exits_2(self, tmp_path, capsys, section, field, value, message):
        trace = SubmissionTrace(
            jobs=[(0, JobSpec(name="j", user_id="u", kind_preferences=(CPU,),
                              shape=Rigid(node_count=1), work_units=1,
                              walltime_limit_ms=1_000))],
            faults=[FaultDirective(10, "cpu0", 0, 100)],
        )
        obj = trace_to_obj(trace)
        (obj if section is None else obj[section][0])[field] = value
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(json.dumps(obj))
        clusters_path = tmp_path / "clusters.json"
        clusters_path.write_text(json.dumps(
            [cluster_spec_to_obj(cluster("cpu0", CPU, 1))]))
        out = tmp_path / "o.jsonl"
        code = main(["simulate", "--trace", str(trace_path),
                     "--clusters", str(clusters_path), "--out", str(out)])
        assert code == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_a_job_of_an_unoffered_kind_exits_2(self, tmp_path, capsys):
        # the second job asks for gpu, which no cluster offers
        jobs = [(t_ms, JobSpec(name="j", user_id="u", kind_preferences=prefs,
                               shape=Rigid(node_count=1), work_units=1,
                               walltime_limit_ms=1_000))
                for t_ms, prefs in ((0, (CPU,)), (5, (ResourceKind.GPU,)), (9, (CPU,)))]
        trace_path = tmp_path / "trace.json"
        write_trace(SubmissionTrace(jobs=jobs), trace_path)
        clusters_path = tmp_path / "clusters.json"
        clusters_path.write_text(json.dumps(
            [cluster_spec_to_obj(cluster("cpu0", CPU, 1))]))
        out = tmp_path / "o.jsonl"
        code = main(["simulate", "--trace", str(trace_path),
                     "--clusters", str(clusters_path), "--out", str(out)])
        assert code == EXIT_INPUT
        assert "invalid job in trace" in capsys.readouterr().err
        assert not out.exists()

    def test_nonterminating_guard_exits_3(self, tmp_path, capsys):
        # the only node goes down past the horizon while a job waits
        trace = SubmissionTrace(
            jobs=[(100, JobSpec(name="stuck", user_id="u",
                                kind_preferences=(CPU,),
                                shape=Rigid(node_count=1), work_units=1,
                                walltime_limit_ms=1_000))],
            faults=[FaultDirective(0, "cpu0", 0, 2 * 10**10)],
        )
        trace_path = tmp_path / "trace.json"
        write_trace(trace, trace_path)
        clusters_path = tmp_path / "clusters.json"
        clusters_path.write_text(json.dumps(
            [cluster_spec_to_obj(cluster("cpu0", CPU, 1))]))
        code = main(["simulate", "--trace", str(trace_path),
                     "--clusters", str(clusters_path),
                     "--out", str(tmp_path / "o.jsonl")])
        assert code == EXIT_GUARD
        assert "did not terminate" in capsys.readouterr().err

    def test_a_baseline_past_the_horizon_exits_3(self, tmp_path, capsys):
        # flex runs on cpu0 in the hybrid run; pinned to gpu0 it waits for
        # the blocker and would finish at 1.1e10 ms, past the horizon
        def job(name, prefs, work):
            return JobSpec(name=name, user_id="u", kind_preferences=prefs,
                           shape=Rigid(node_count=1), work_units=work,
                           walltime_limit_ms=3 * 10**10)
        trace_path = tmp_path / "trace.json"
        write_trace(SubmissionTrace(jobs=[(0, job("blocker", (GPU,), 6 * 10**6)),
                                          (1, job("flex", (GPU, CPU), 5 * 10**6))]), trace_path)
        clusters_path = tmp_path / "clusters.json"
        clusters_path.write_text(json.dumps(
            [cluster_spec_to_obj(c) for c in (cluster("gpu0", GPU, 1), cluster("cpu0", CPU, 1))]))
        out = tmp_path / "o.jsonl"
        code = main(["simulate", "--trace", str(trace_path), "--clusters", str(clusters_path),
                     "--out", str(out), "--compare-baseline"])
        assert code == EXIT_GUARD
        err = capsys.readouterr().err
        assert err.startswith("hsctl: baseline simulation did not terminate") and err.count("\n") == 1
        assert out.exists()


class TestServe:
    @pytest.mark.parametrize("key, value, message", [
        ("scheduler", {"provision_delay_ms": "5"}, "provision_delay_ms"),
        ("datasets", [{"name": "d", "size_bytes": 1.5}], "size_bytes"),
        ("datasets", [{"name": "d", "size_bytes": 1}, {"name": "d", "size_bytes": 2}],
         "already registered"),
        ("datasets", [{"size_bytes": 1}], "missing field: name"),
        ("users", 5, "users must be a list"),
        ("scheduler", 5, "scheduler must be a JSON object"),
        ("scheduler", {"backfill": "false"}, "scheduler.backfill must be true or false"),
        ("listen_addr", 5, "listen_addr must be a host:port string"),
        ("auth_header", 5, "auth_header must be a non-empty string"),
        # users are checked where the Service registers them, still before binding
        ("users", [{"user_id": "u", "quota": {"max_concurrent_jobs": -1, "max_nodes_in_use": 1,
                                              "max_vcluster_nodes": 0}}],
         "max_concurrent_jobs must be >= 0"),
        ("users", [{"user_id": "u", "quota": {"max_concurrent_jobs": 1, "max_nodes_in_use": 1,
                                              "max_vcluster_nodes": 0}}] * 2,
         "user 'u' already exists"),
        # a key the decoder does not know is refused, not dropped
        ("schedular", {"backfill": False}, "unknown field: schedular"),
        ("scheduler", {"backfil": False}, "unknown field: scheduler.backfil"),
        ("scheduler", {"first_preference_only": True},
         "unknown field: scheduler.first_preference_only"),
        ("bandwidth_bytes_per_s", {"cpuO": 1000}, "names no configured cluster: cpuO"),
        ("users", [{"user_id": "u", "dispaly_name": "U",
                    "quota": {"max_concurrent_jobs": 1, "max_nodes_in_use": 1,
                              "max_vcluster_nodes": 0}}], "unknown field: dispaly_name"),
        ("datasets", {}, "datasets must be a list"),
        ("datasets", [{"name": "d", "size_bytes": 1, "sise_bytes": 5}],
         "unknown field: sise_bytes"),
        # bind() would raise OverflowError on the first; the second, an
        # Arabic-Indic three, would bind port 3
        ("listen_addr", "127.0.0.1:70000", "port of 0-65535"),
        ("listen_addr", "127.0.0.1:\u0663", "port of 0-65535"),
    ])
    def test_bad_config_exits_2_before_binding(self, tmp_path, capsys, monkeypatch,
                                              key, value, message):
        def no_bind(*args, **kwargs):
            raise AssertionError("a bad config must be refused before the socket is bound")

        monkeypatch.setattr(service_mod, "make_server", no_bind)
        config = {"clusters": [cluster_spec_to_obj(cluster("cpu0", CPU, 1))],
                  "listen_addr": "127.0.0.1:0", key: value}
        path = tmp_path / "service.json"
        path.write_text(json.dumps(config))
        assert main(["serve", "--config", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "bad config" in err and message in err

    def test_a_port_in_use_is_not_a_bad_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HYBRIDSCHED_ADDR", raising=False)
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen(1)
            addr = "127.0.0.1:%d" % held.getsockname()[1]
            path = tmp_path / "service.json"
            path.write_text(json.dumps({"clusters": [cluster_spec_to_obj(cluster("cpu0", CPU, 1))],
                                        "listen_addr": addr}))
            assert main(["serve", "--config", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"hsctl: cannot listen on {addr}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("config", [[], 5, {"clusters": 5}])
    def test_malformed_top_level_exits_2(self, tmp_path, capsys, monkeypatch, config):
        monkeypatch.setattr(service_mod, "make_server", None)   # never reached
        path = tmp_path / "service.json"
        path.write_text(json.dumps(config))
        assert main(["serve", "--config", str(path)]) == EXIT_INPUT
        assert "bad config" in capsys.readouterr().err


# file contents that no JSON reader in hsctl may turn into a traceback
BAD_BYTES = {
    "bad_utf8": b'{"name": "\xff"}',
    "deep_nesting": b"[" * 100_000 + b"]" * 100_000,
}


class TestBadFiles:
    """Each input file hsctl reads: a bad one exits 2 with one hsctl: line."""

    def argv(self, tmp_path, monkeypatch, target, bad):
        """hsctl arguments that read the file bad as target, the other inputs good."""
        trace_path, clusters_path = TestSimulate().write_inputs(tmp_path)
        if target == "trace":
            return ["simulate", "--trace", bad, "--clusters", clusters_path,
                    "--out", str(tmp_path / "o.jsonl")]
        if target == "clusters":
            return ["simulate", "--trace", trace_path, "--clusters", bad,
                    "--out", str(tmp_path / "o.jsonl")]
        if target == "config":
            monkeypatch.setattr(service_mod, "make_server", None)   # never reached
            return ["serve", "--config", bad]

        def no_request(*args, **kwargs):
            raise AssertionError("the job file is read before any request")

        monkeypatch.setattr(cli_mod, "_request", no_request)
        return ["--server", unreachable_server(), "submit", "--file", bad]

    @staticmethod
    def one_hsctl_line(capsys) -> str:
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("hsctl: "), err
        return err

    @pytest.mark.parametrize("content", sorted(BAD_BYTES))
    @pytest.mark.parametrize("target", ["trace", "clusters", "config", "job"])
    def test_unreadable_json_exits_2(self, tmp_path, capsys, monkeypatch, target, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(BAD_BYTES[content])
        argv = self.argv(tmp_path, monkeypatch, target, str(bad))
        assert main(argv) == EXIT_INPUT
        assert "not valid JSON" in self.one_hsctl_line(capsys)
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("target", ["clusters", "config"])
    def test_a_cluster_id_listed_twice_exits_2(self, tmp_path, capsys, monkeypatch, target):
        cpu0 = cluster_spec_to_obj(cluster("cpu0", CPU, 2))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([cpu0, cpu0] if target == "clusters" else
                                  {"clusters": [cpu0, cpu0], "listen_addr": "127.0.0.1:0"}))
        argv = self.argv(tmp_path, monkeypatch, target, str(bad))
        assert main(argv) == EXIT_INPUT
        assert "duplicate cluster_id cpu0" in self.one_hsctl_line(capsys)

    @pytest.mark.parametrize("target", ["clusters", "config"])
    def test_a_cluster_above_the_node_bound_exits_2(self, tmp_path, capsys, monkeypatch,
                                                     target):
        big = cluster_spec_to_obj(cluster("cpu0", CPU, 65_537))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([big] if target == "clusters" else
                                  {"clusters": [big], "listen_addr": "127.0.0.1:0"}))
        argv = self.argv(tmp_path, monkeypatch, target, str(bad))
        assert main(argv) == EXIT_INPUT
        assert "node_count 65537 is above the limit of 65536" in self.one_hsctl_line(capsys)

    @pytest.mark.parametrize("key, escaped", [
        ("a\nTraceback (most recent call last):", r"a\nTraceback (most recent call last):"),
        ("\x1b[2J\x1b[31mred\r", r"\x1b[2J\x1b[31mred\r"),
        ("caf\u00e9\u2028x", r"café\u2028x"),
    ])
    def test_control_characters_in_an_error_are_escaped(self, tmp_path, capsys, monkeypatch,
                                                         key, escaped):
        entry = {**cluster_spec_to_obj(cluster("cpu0", CPU, 2)), key: 1}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([entry]))
        argv = self.argv(tmp_path, monkeypatch, "clusters", str(bad))
        assert main(argv) == EXIT_INPUT
        assert self.one_hsctl_line(capsys).endswith(f"unknown field: {escaped}\n")

    def test_a_server_error_body_is_one_line(self, capsys, monkeypatch):
        reply = (502, b"<html>\nTraceback (most recent call last):\n</html>")
        monkeypatch.setattr(cli_mod, "_request", lambda *args, **kwargs: reply)
        assert main(["status", "j000000"]) == EXIT_REMOTE
        err = self.one_hsctl_line(capsys)
        assert err == r"hsctl: 502: <html>\nTraceback (most recent call last):\n</html>" + "\n"

    def test_an_unwritable_out_exits_2(self, tmp_path, capsys):
        trace_path, clusters_path = TestSimulate().write_inputs(tmp_path)
        out = tmp_path / "no" / "such" / "x.jsonl"
        assert main(["simulate", "--trace", trace_path, "--clusters", clusters_path,
                     "--out", str(out)]) == EXIT_INPUT
        assert f"hsctl: cannot write {out}" in self.one_hsctl_line(capsys)


class TestImportFootprint:
    """The HTTP server and client libraries load only where they are used."""

    def test_cli_and_service_load_no_http_library(self):
        src = str(pathlib.Path(hybridsched.__file__).parent.parent)
        code = f"""
import json, sys
sys.path.insert(0, {src!r})
import hybridsched.cli
from hybridsched.model import ClusterSpec, ResourceKind
from hybridsched.service import Service, ServiceConfig
Service(ServiceConfig(clusters=[ClusterSpec("cpu0", ResourceKind.CPU, 2, 8, 1)],
                      datasets=[{{"name": "d", "size_bytes": 1}}]))
http = ("requests", "urllib3", "urllib.request", "http.client", "http.server", "socketserver",
        "wsgiref.simple_server")
print(json.dumps([name for name in http if name in sys.modules]))
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60).stdout
        assert json.loads(out) == []
