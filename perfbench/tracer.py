"""Span tracing around the program's public functions, from outside.

`Tracer.install` replaces each traced function with a wrapper on the
class or module that defines it and, for names a consumer imported
directly (`from .metrics import utilization`), on the consumer module
too. Each call records a span (name, parent span, start, end, and one
number captured from the arguments or result, such as the queue length
at a plan call). Spans stay in memory; `layer_figures` turns one round's
spans into the per-layer metrics and `write` dumps them when the run
ends. `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter_ns

import hybridsched.catalog as catalog
import hybridsched.cloud as cloud
import hybridsched.engine as engine
import hybridsched.metrics as metrics
import hybridsched.model as model
import hybridsched.scheduler as scheduler
import hybridsched.service as service
import hybridsched.traces as traces

S = engine.Simulation
# (span name, owner, attribute, consumers that imported the name, probe)
# A probe maps (args, result) to the number kept on the span.
TARGETS = [
    ("scheduler.plan", scheduler.Scheduler, "plan", (),
     lambda a, r: (a[0].queue_length() + len(r.starts), len(r.starts), r.reservation is not None)),
    ("scheduler.enqueue", scheduler.Scheduler, "enqueue", (), None),
    ("scheduler.release", scheduler.Scheduler, "release", (), None),
    ("scheduler.elastic_targets", scheduler.Scheduler, "elastic_targets", (), None),
    ("scheduler.apply_worker_count", scheduler.Scheduler, "apply_worker_count", (), None),
    ("engine.run_to_quiescence", S, "run_to_quiescence", (), None),
    ("engine.step", S, "step", (), None),
    ("engine.submit_now", S, "submit_now", (), None),
    ("engine.cancel_now", S, "cancel_now", (), None),
    ("engine.hold_nodes", S, "hold_nodes", (), None),
    ("engine.release_hold", S, "release_hold", (), None),
    ("engine.schedule_arrival", S, "schedule_arrival", (), None),
    ("engine.inject_node_failure", S, "inject_node_failure", (), None),
    ("engine.canonical_bytes", engine.EventLog, "canonical_bytes", (), None),
    ("cloud.admit", cloud.CloudLayer, "admit", (), lambda a, r: len(a[0].sim.records)),
    ("cloud.route", cloud.CloudLayer, "route", (), None),
    ("cloud.provision_vcluster", cloud.CloudLayer, "provision_vcluster", (), None),
    ("cloud.release_vcluster", cloud.CloudLayer, "release_vcluster", (), None),
    ("catalog.resolve", catalog.DatasetCatalog, "resolve", (), None),
    ("catalog.staging_delay_ms", catalog.DatasetCatalog, "staging_delay_ms", (), None),
    ("metrics.utilization", metrics, "utilization", (service,), lambda a, r: len(a[0])),
    ("metrics.wait_stats", metrics, "wait_stats", (service,), lambda a, r: len(a[0])),
    ("model.job_spec_from_obj", model, "job_spec_from_obj", (service, traces), None),
    ("model.cluster_spec_from_obj", model, "cluster_spec_from_obj", (service,), None),
    ("model.transition", model, "transition", (engine, scheduler), None),
    ("service.wsgi_app", service.Service, "wsgi_app", (), None),
    ("service.handle_submit", service.Service, "handle_submit", (), None),
    ("service.handle_status", service.Service, "handle_status", (), None),
    ("service.handle_cancel", service.Service, "handle_cancel", (), None),
    ("service.handle_advance", service.Service, "handle_advance", (), None),
    ("service.handle_metrics", service.Service, "handle_metrics", (), None),
    ("service.handle_clusters", service.Service, "handle_clusters", (), None),
    ("service.handle_create_vcluster", service.Service, "handle_create_vcluster", (), None),
    ("service.handle_release_vcluster", service.Service, "handle_release_vcluster", (), None),
    ("traces.read_trace", traces, "read_trace", (), None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, parent index, start ns, end ns, probe value]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, probe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if probe is not None:
                span[4] = probe(args, result)
            return result
        return traced

    def install(self):
        for name, owner, attr, consumers, probe in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, probe)
            for target in (owner, *consumers):
                self._saved.append((target, attr, getattr(target, attr)))
                setattr(target, attr, wrapper)

    def uninstall(self):
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def take(self) -> list[list]:
        """The spans recorded since the last take; the tracer starts afresh."""
        out = list(self.spans)
        self.spans.clear()
        return out

    @staticmethod
    def write(spans: list[list], path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, t0, t1, value) in enumerate(spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start_ns": t0, "end_ns": t1, "value": value}) + "\n")


def self_times(spans: list[list]) -> list[int]:
    """Duration of each span minus the time its child spans cover."""
    own = [t1 - t0 for _n, _p, t0, t1, _v in spans]
    for _n, parent, t0, t1, _v in spans:
        if parent >= 0:
            own[parent] -= t1 - t0
    return own


def layer_figures(spans: list[list], log_events: int, log_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one round from its spans.

    Inclusive times (`*_s` named after a function) cover the function and
    everything it calls; `engine.self_s` and `service.self_s` are the
    layer's own time with every child span taken out.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    incl: dict[str, int] = {}
    layer_self: dict[str, int] = {}
    for i, (name, _p, t0, t1, _v) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0) + (t1 - t0)
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + own[i]
    plans = [s[4] for s in spans if s[0] == "scheduler.plan"]
    admits = [s[4] for s in spans if s[0] == "cloud.admit"]

    def n(name):
        return calls.get(name, 0)

    def sec(*names):
        return sum(incl.get(x, 0) for x in names) / 1e9

    def per(total, count, scale=1.0):
        return total * scale / count if count else 0.0

    rescales = n("scheduler.apply_worker_count")
    return {
        "scheduler.plan_calls": n("scheduler.plan"),
        "scheduler.plan_s": sec("scheduler.plan"),
        "scheduler.plan_us_per_call": per(sec("scheduler.plan"), n("scheduler.plan"), 1e6),
        "scheduler.queue_len_at_plan_mean": per(sum(p[0] for p in plans), len(plans)),
        "scheduler.queue_len_max": max((p[0] for p in plans), default=0),
        "scheduler.starts": sum(p[1] for p in plans),
        "scheduler.reservations": sum(1 for p in plans if p[2]),
        "scheduler.plan_productive_ratio": per(sum(1 for p in plans if p[1]), len(plans)),
        "scheduler.enqueue_s": sec("scheduler.enqueue"),
        "scheduler.release_calls": n("scheduler.release"),
        "scheduler.release_s": sec("scheduler.release"),
        "scheduler.elastic_targets_calls": n("scheduler.elastic_targets"),
        "scheduler.elastic_targets_s": sec("scheduler.elastic_targets"),
        "scheduler.apply_worker_count_calls": rescales,
        "engine.rescales": rescales,
        "engine.rescale_yield": per(rescales, n("scheduler.elastic_targets")),
        "engine.events": log_events,
        "engine.self_s": layer_self.get("engine", 0) / 1e9,
        "engine.us_per_event": per(layer_self.get("engine", 0) / 1e3, log_events),
        "engine.canonical_bytes_s": sec("engine.canonical_bytes"),
        "engine.log_bytes": log_bytes,
        "cloud.admit_calls": n("cloud.admit"),
        "cloud.admit_s": sec("cloud.admit"),
        "cloud.admit_us_per_call": per(sec("cloud.admit"), n("cloud.admit"), 1e6),
        "cloud.records_at_admit_mean": per(sum(admits), len(admits)),
        "cloud.route_s": sec("cloud.route"),
        "cloud.vcluster_s": sec("cloud.provision_vcluster", "cloud.release_vcluster"),
        "metrics.utilization_calls": n("metrics.utilization"),
        "metrics.utilization_s": sec("metrics.utilization"),
        "metrics.events_replayed": sum(s[4] for s in spans
                                       if s[0] in ("metrics.utilization", "metrics.wait_stats")),
        "metrics.wait_stats_s": sec("metrics.wait_stats"),
        "catalog.resolve_calls": n("catalog.resolve"),
        "catalog.staging_delay_calls": n("catalog.staging_delay_ms"),
        "catalog.staging_delay_s": sec("catalog.staging_delay_ms"),
        "model.decode_s": sec("model.job_spec_from_obj", "model.cluster_spec_from_obj"),
        "model.transition_calls": n("model.transition"),
        "service.requests": n("service.wsgi_app"),
        "service.self_s": layer_self.get("service", 0) / 1e9,
        "service.submit_s": sec("service.handle_submit"),
        "service.status_s": sec("service.handle_status"),
        "service.advance_s": sec("service.handle_advance"),
        "service.metrics_s": sec("service.handle_metrics"),
        "traces.read_trace_s": sec("traces.read_trace"),
    }
