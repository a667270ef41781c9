"""Core domain types shared by every layer of the platform.

Defines the typed resource pools, job descriptions, the job lifecycle
state machine, and the runtime model that converts abstract work into
virtual duration on a pool of a given speed.

All times are integer virtual milliseconds and all arithmetic is integer
arithmetic; nothing in here touches floating point, which is what makes
simulation runs reproducible byte-for-byte across platforms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Container, Optional, Union


class ResourceKind(str, Enum):
    """The four pool types a job may target."""

    CPU = "cpu"
    GPU = "gpu"
    KNL = "knl"
    CLOUD = "cloud"

    @classmethod
    def parse(cls, text: str) -> "ResourceKind":
        try:
            return _KIND_BY_VALUE[text]
        except (KeyError, TypeError):     # TypeError: an unhashable value
            raise UnknownKind(text) from None

    def __str__(self) -> str:
        return self.value


class JobState(str, Enum):
    """Lifecycle states of a job, one per Job* row kind: a job is in the
    state its last JobSubmitted, JobQueued, JobStarted, JobFinished,
    JobFailed, JobTimedOut or JobCancelled row names. It moves only along
    the (state, new state) pairs of the lifecycle table (transition).

    Completed, Failed, Cancelled and TimedOut are terminal: once reached,
    the job moves nowhere else.
    """

    SUBMITTED = "Submitted"
    QUEUED = "Queued"
    RUNNING = "Running"
    COMPLETED = "Completed"
    FAILED = "Failed"
    CANCELLED = "Cancelled"
    TIMED_OUT = "TimedOut"

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL_STATES


_TERMINAL_STATES = frozenset(
    {JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED, JobState.TIMED_OUT}
)


@dataclass(frozen=True, slots=True)
class Rigid:
    """Fixed node count for the whole run (classic HPC/MPI style)."""

    node_count: int


@dataclass(frozen=True, slots=True)
class Elastic:
    """Worker count may vary between min and max while running.

    Only schedulable on cloud pools.
    """

    min_workers: int
    max_workers: int


JobShape = Union[Rigid, Elastic]


@dataclass(frozen=True, slots=True, init=False)
class JobSpec:
    """A user's computing task as submitted.

    kind_preferences is an ordered list: the scheduler tries the first
    kind with a feasible cluster before falling through to later ones.

    __init__ is written out, not generated: a frozen dataclass's own sets
    each field with object.__setattr__, which makes it about 4x slower
    than an unfrozen one, and a trace builds one spec per job. This one
    stores each argument through its field's slot descriptor, so every
    way of building a spec (positional, keyword, dataclasses.replace)
    takes the same path and the instance stays frozen afterwards.
    """

    name: str
    user_id: str
    kind_preferences: tuple[ResourceKind, ...]
    shape: JobShape
    work_units: int
    walltime_limit_ms: int
    dataset_refs: tuple[str, ...] = ()
    priority: int = 0

    def __init__(self, name: str, user_id: str, kind_preferences: tuple[ResourceKind, ...],
                 shape: JobShape, work_units: int, walltime_limit_ms: int,
                 dataset_refs: tuple[str, ...] = (), priority: int = 0) -> None:
        _set_name(self, name)
        _set_user_id(self, user_id)
        _set_kind_preferences(self, kind_preferences)
        _set_shape(self, shape)
        _set_work_units(self, work_units)
        _set_walltime_limit_ms(self, walltime_limit_ms)
        _set_dataset_refs(self, dataset_refs)
        _set_priority(self, priority)

    def needed_nodes(self) -> int:
        """Node count required to start: full size for rigid, min for elastic."""
        if isinstance(self.shape, Rigid):
            return self.shape.node_count
        return self.shape.min_workers


# the slot descriptors JobSpec.__init__ stores through; __slots__ lists
# the fields in declaration order
(_set_name, _set_user_id, _set_kind_preferences, _set_shape, _set_work_units,
 _set_walltime_limit_ms, _set_dataset_refs, _set_priority) = [
    getattr(JobSpec, name).__set__ for name in JobSpec.__slots__]


@dataclass(frozen=True, slots=True)
class ClusterSpec:
    """A typed resource pool.

    speed_factor is work units per node per virtual second; it is how
    hardware differences (GPU vs CPU vs KNL) enter the model without
    modeling the hardware itself.
    """

    cluster_id: str
    kind: ResourceKind
    node_count: int
    cores_per_node: int
    speed_factor: int


@dataclass(frozen=True)
class SimConfig:
    """Tunable policy knobs; defaults give the full hybrid-sharing setup.

    The engine reads retry_budget and the scheduler the three flags.
    """

    retry_budget: int = 1
    backfill: bool = True
    hybrid_rigid_on_cloud: bool = False
    first_preference_only: bool = False


@dataclass(slots=True)
class JobRecord:
    """Mutable per-job record tracked by the platform.

    The one per-job home of a job's lifecycle, placement and credited
    work, each field with one writer. The engine writes state (as it logs
    each Job* row), submit_ms, end_ms and credited_milli (reset by a
    requeue). The scheduler writes the placement: cluster_id, node_indices
    (a sorted tuple) and start_ms at each start, node_indices at each
    resize. They stay when the job gives up its nodes, as its last
    placement; whether it holds them now is ClusterState.owner's to say.
    submit_seq, also the scheduler's, is set at the first enqueue and
    kept through a requeue. A job's worker history is not kept here: its
    JobStarted and RescaleApplied rows in the event log are the one
    record of it.
    """

    job_id: str
    spec: JobSpec
    state: JobState = JobState.SUBMITTED
    submit_ms: Optional[int] = None
    start_ms: Optional[int] = None
    end_ms: Optional[int] = None
    cluster_id: Optional[str] = None
    node_indices: tuple[int, ...] = ()
    credited_milli: int = 0
    submit_seq: Optional[int] = None


# --- errors ---------------------------------------------------------------


class ValidationError(ValueError):
    """A job or cluster spec violates an invariant and is rejected."""


class EmptyPreferences(ValidationError):
    def __init__(self):
        super().__init__("kind_preferences must not be empty")


class UnknownKind(ValidationError):
    def __init__(self, kind):
        self.kind = kind
        super().__init__(f"unknown or unconfigured resource kind: {kind}")


class DuplicateKind(ValidationError):
    def __init__(self, kind):
        self.kind = kind
        super().__init__(f"resource kind listed twice: {kind}")


class BadShape(ValidationError):
    def __init__(self, detail: str):
        super().__init__(f"bad job shape: {detail}")


class NonPositive(ValidationError):
    def __init__(self, fieldname: str):
        self.fieldname = fieldname
        super().__init__(f"{fieldname} must be >= 1")


class MalformedSpec(ValidationError):
    """Structural problem in the wire encoding (missing/unknown/wrongly typed field)."""


class TooManyNodes(ValidationError):
    def __init__(self, node_count: int):
        super().__init__(f"node_count {node_count} is above the limit of {MAX_CLUSTER_NODES}")


class DuplicateCluster(ValidationError):
    def __init__(self, cluster_id: str):
        super().__init__(f"duplicate cluster_id {cluster_id}")


class InvalidTransition(Exception):
    """The (state, new state) pair is not in the lifecycle table."""

    def __init__(self, state: JobState, new: JobState):
        self.state = state
        self.new = new
        super().__init__(f"no transition from {state.value} to {new.value}")


# --- operations -----------------------------------------------------------


def validate_job(spec: JobSpec, known_kinds: Container[ResourceKind]) -> JobSpec:
    """Check every JobSpec invariant; return the spec unchanged if it holds.

    known_kinds holds the kinds offered by at least one configured
    cluster; a preference outside it is rejected as UnknownKind.
    """
    if not spec.kind_preferences:
        raise EmptyPreferences()
    seen = set()
    for kind in spec.kind_preferences:
        if kind in seen:
            raise DuplicateKind(kind)
        seen.add(kind)
        if kind not in known_kinds:
            raise UnknownKind(kind.value)
    if spec.work_units < 1:
        raise NonPositive("work_units")
    if spec.walltime_limit_ms < 1:
        raise NonPositive("walltime_limit_ms")
    if isinstance(spec.shape, Rigid):
        if spec.shape.node_count < 1:
            raise NonPositive("node_count")
    elif isinstance(spec.shape, Elastic):
        if spec.shape.min_workers < 1:
            raise NonPositive("min_workers")
        if spec.shape.max_workers < 1:
            raise NonPositive("max_workers")
        if spec.shape.min_workers > spec.shape.max_workers:
            raise BadShape(
                f"min_workers {spec.shape.min_workers} > max_workers {spec.shape.max_workers}"
            )
        if ResourceKind.CLOUD not in spec.kind_preferences:
            raise BadShape("elastic jobs run on the cloud pool; preferences must include cloud")
    else:
        raise BadShape(f"unrecognized shape {spec.shape!r}")
    return spec


# Lifecycle table: the (state, new state) moves the engine makes, and no
# others. Running goes back to Queued when a lost node requeues the job.
_TRANSITIONS = frozenset({
    (JobState.SUBMITTED, JobState.QUEUED),
    (JobState.SUBMITTED, JobState.FAILED),
    (JobState.QUEUED, JobState.RUNNING),
    (JobState.QUEUED, JobState.CANCELLED),
    (JobState.RUNNING, JobState.QUEUED),
    (JobState.RUNNING, JobState.COMPLETED),
    (JobState.RUNNING, JobState.FAILED),
    (JobState.RUNNING, JobState.TIMED_OUT),
    (JobState.RUNNING, JobState.CANCELLED),
})


def transition(state: JobState, new: JobState) -> JobState:
    """Return new if (state, new) is in the lifecycle table; raise InvalidTransition if not.

    The engine makes every move through it, as it logs the Job* row named for the new state.
    """
    if (state, new) not in _TRANSITIONS:
        raise InvalidTransition(state, new)
    return new


def projected_nodes(spec: JobSpec) -> int:
    """Worst-case node demand a job can ever hold at once.

    Elastic jobs are charged at max_workers so quota soundness survives
    later growth.
    """
    if isinstance(spec.shape, Elastic):
        return spec.shape.max_workers
    return spec.shape.node_count


def job_duration_ms(work_units: int, speed_factor: int, nodes: int) -> int:
    """Virtual run time of `work_units` on `nodes` nodes at `speed_factor`.

    ceil(1000 * work_units / (speed_factor * nodes)), never below 1 ms.
    Python integers are unbounded, so the product cannot overflow.
    """
    if work_units < 1:
        raise NonPositive("work_units")
    if speed_factor < 1:
        raise NonPositive("speed_factor")
    if nodes < 1:
        raise NonPositive("nodes")
    rate = speed_factor * nodes
    return max(1, -(-1000 * work_units // rate))


# --- canonical JSON encoding ---------------------------------------------

_SPEC_REQUIRED = ("name", "user_id", "kind_preferences", "shape", "work_units", "walltime_limit_ms")
_SPEC_FIELDS = frozenset(_SPEC_REQUIRED + ("dataset_refs", "priority"))
_RIGID_FIELDS = frozenset({"node_count"})
_ELASTIC_FIELDS = frozenset({"min_workers", "max_workers"})
_KIND_BY_VALUE = {kind.value: kind for kind in ResourceKind}

# Decoded shapes and preference tuples are frozen, so all specs with equal
# ones can share one instance: a trace of thousands of jobs has a few dozen
# distinct shapes. Only tuples of at most len(ResourceKind) known kinds are
# shared, which bounds that table by itself; node counts are unbounded, so
# the shape table starts over when it reaches its cap.
_SHARED_SHAPES_MAX = 1024
_SHAPES: dict[tuple, JobShape] = {}
_PREFERENCES: dict[tuple[str, ...], tuple[ResourceKind, ...]] = {}


def is_integer(value) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    # `type(...) is int` is the fast path; bool is a subclass of int
    return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))


def job_spec_to_obj(spec: JobSpec) -> dict:
    """Canonical JSON object form of a JobSpec (snake_case, fixed field set)."""
    if isinstance(spec.shape, Rigid):
        shape = {"rigid": {"node_count": spec.shape.node_count}}
    else:
        shape = {
            "elastic": {
                "min_workers": spec.shape.min_workers,
                "max_workers": spec.shape.max_workers,
            }
        }
    return {
        "name": spec.name,
        "user_id": spec.user_id,
        "kind_preferences": [k.value for k in spec.kind_preferences],
        "shape": shape,
        "work_units": spec.work_units,
        "walltime_limit_ms": spec.walltime_limit_ms,
        "dataset_refs": list(spec.dataset_refs),
        "priority": spec.priority,
    }


def _require_int(obj: dict, key: str, where: str) -> int:
    value = obj.get(key)
    if not is_integer(value):
        raise MalformedSpec(f"{where}.{key} must be an integer")
    return value


def job_spec_from_obj(obj: dict) -> JobSpec:
    """Parse the canonical JSON object form; unknown fields are rejected.

    One pass with every check written inline, since a trace decodes one
    spec per job. The checks run in a fixed order and the first to fail
    names the error: the key set; name and user_id; kind_preferences and
    dataset_refs as lists of strings; priority; the kinds themselves; the
    shape; work_units; walltime_limit_ms. An integer field is tested with
    `type(value) is int` first and is_integer only when that fails.
    """
    if not isinstance(obj, dict):
        raise MalformedSpec("job spec must be a JSON object")
    # issuperset walks the dict's keys; `keys() <= ...` is slower
    if not _SPEC_FIELDS.issuperset(obj):
        raise MalformedSpec(f"unknown field: {min(obj.keys() - _SPEC_FIELDS)}")
    has_refs = "dataset_refs" in obj
    # every key is known, so a required one is missing iff too few remain
    if len(obj) - has_refs - ("priority" in obj) < len(_SPEC_REQUIRED):
        missing = next(k for k in _SPEC_REQUIRED if k not in obj)
        raise MalformedSpec(f"missing field: {missing}")
    name = obj["name"]
    if not isinstance(name, str):
        raise MalformedSpec("name must be a string")
    user_id = obj["user_id"]
    if not isinstance(user_id, str):
        raise MalformedSpec("user_id must be a string")
    kinds = obj["kind_preferences"]
    if not isinstance(kinds, list):
        raise MalformedSpec("kind_preferences must be a list of strings")
    for kind in kinds:
        if not isinstance(kind, str):
            raise MalformedSpec("kind_preferences must be a list of strings")
    refs = ()
    if has_refs:
        refs = obj["dataset_refs"]
        if not isinstance(refs, list):
            raise MalformedSpec("dataset_refs must be a list of strings")
        for ref in refs:
            if not isinstance(ref, str):
                raise MalformedSpec("dataset_refs must be a list of strings")
        refs = tuple(refs)
    priority = obj.get("priority", 0)
    if type(priority) is not int and not is_integer(priority):
        raise MalformedSpec("priority must be an integer")

    kinds = tuple(kinds)
    preferences = _PREFERENCES.get(kinds)
    if preferences is None:
        preferences = tuple([ResourceKind.parse(k) for k in kinds])
        if len(kinds) <= len(ResourceKind):
            _PREFERENCES[kinds] = preferences

    shape = obj["shape"]
    if not isinstance(shape, dict) or len(shape) != 1:
        raise MalformedSpec('shape must be {"rigid": {...}} or {"elastic": {...}}')
    [tag] = shape
    body = shape[tag]
    if not isinstance(body, dict):
        raise MalformedSpec(f"shape.{tag} must be an object")
    if tag == "rigid":
        if not _RIGID_FIELDS.issuperset(body):
            raise MalformedSpec(f"unknown shape field: {min(body.keys() - _RIGID_FIELDS)}")
        count = body.get("node_count")
        if type(count) is not int and not is_integer(count):
            raise MalformedSpec("shape.rigid.node_count must be an integer")
        key = (Rigid, count)      # (shape class, *its fields)
    elif tag == "elastic":
        if not _ELASTIC_FIELDS.issuperset(body):
            raise MalformedSpec(f"unknown shape field: {min(body.keys() - _ELASTIC_FIELDS)}")
        low = body.get("min_workers")
        if type(low) is not int and not is_integer(low):
            raise MalformedSpec("shape.elastic.min_workers must be an integer")
        high = body.get("max_workers")
        if type(high) is not int and not is_integer(high):
            raise MalformedSpec("shape.elastic.max_workers must be an integer")
        key = (Elastic, low, high)
    else:
        raise MalformedSpec(f"unknown shape tag: {tag}")
    shape = _SHAPES.get(key)
    if shape is None:
        if len(_SHAPES) >= _SHARED_SHAPES_MAX:
            _SHAPES.clear()
        shape = _SHAPES[key] = key[0](*key[1:])

    work_units = obj["work_units"]
    if type(work_units) is not int and not is_integer(work_units):
        raise MalformedSpec("spec.work_units must be an integer")
    walltime_limit_ms = obj["walltime_limit_ms"]
    if type(walltime_limit_ms) is not int and not is_integer(walltime_limit_ms):
        raise MalformedSpec("spec.walltime_limit_ms must be an integer")
    # positional, in field order: keyword arguments cost more per call
    return JobSpec(name, user_id, preferences, shape, work_units, walltime_limit_ms,
                   refs, priority)


_CLUSTER_FIELDS = ("cluster_id", "kind", "node_count", "cores_per_node", "speed_factor")
_CLUSTER_FIELD_SET = frozenset(_CLUSTER_FIELDS)


def cluster_spec_to_obj(spec: ClusterSpec) -> dict:
    return {
        "cluster_id": spec.cluster_id,
        "kind": spec.kind.value,
        "node_count": spec.node_count,
        "cores_per_node": spec.cores_per_node,
        "speed_factor": spec.speed_factor,
    }


def cluster_spec_from_obj(obj: dict) -> ClusterSpec:
    if not isinstance(obj, dict):
        raise MalformedSpec("cluster spec must be a JSON object")
    fields = obj.keys()
    if not fields <= _CLUSTER_FIELD_SET:
        raise MalformedSpec(f"unknown field: {min(fields - _CLUSTER_FIELD_SET)}")
    if len(fields) < len(_CLUSTER_FIELDS):
        missing = next(k for k in _CLUSTER_FIELDS if k not in obj)
        raise MalformedSpec(f"missing field: {missing}")
    if not isinstance(obj["cluster_id"], str) or not obj["cluster_id"]:
        raise MalformedSpec("cluster_id must be a non-empty string")
    spec = ClusterSpec(
        cluster_id=obj["cluster_id"],
        kind=ResourceKind.parse(obj["kind"]),
        node_count=_require_int(obj, "node_count", "cluster"),
        cores_per_node=_require_int(obj, "cores_per_node", "cluster"),
        speed_factor=_require_int(obj, "speed_factor", "cluster"),
    )
    return validate_cluster(spec)


MAX_CLUSTER_NODES = 65_536     # placement lists a cluster's free nodes one by one


def validate_cluster(spec: ClusterSpec) -> ClusterSpec:
    if spec.node_count < 1:
        raise NonPositive("node_count")
    if spec.node_count > MAX_CLUSTER_NODES:
        raise TooManyNodes(spec.node_count)
    if spec.cores_per_node < 1:
        raise NonPositive("cores_per_node")
    if spec.speed_factor < 1:
        raise NonPositive("speed_factor")
    return spec


def cluster_specs_from_obj(obj) -> list[ClusterSpec]:
    """Decode a JSON list of cluster specs: the one cluster-list decoder."""
    if not isinstance(obj, list):
        raise MalformedSpec("clusters must be a JSON list")
    specs = [cluster_spec_from_obj(entry) for entry in obj]
    reject_duplicate_clusters(specs)
    return specs


def reject_duplicate_clusters(specs) -> None:
    """Raise DuplicateCluster at the first cluster_id listed twice."""
    seen = set()
    for spec in specs:
        if spec.cluster_id in seen:
            raise DuplicateCluster(spec.cluster_id)
        seen.add(spec.cluster_id)


def parse_json(raw, error, object_hook=None):
    """Decode outside JSON, bytes as UTF-8 or text already decoded; bad input raises error(message).

    object_hook is passed on to json.loads. Its frames can pass the
    recursion limit in a document that parses without it, so such a
    document is parsed again without it.
    """
    try:
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        try:
            return json.loads(text, object_hook=object_hook)
        except RecursionError:
            if object_hook is None:
                raise
            return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and integers past the
        # interpreter's digit limit; RecursionError, nesting too deep
        raise error(f"not valid JSON: {exc}") from exc


def read_json(path, error, object_hook=None):
    """Read and parse a JSON file, the one place the package reads one; OSError passes through.

    The bytes read are decoded at once and never bound to a name, so
    they are freed before the parse starts.
    """
    with open(path, "rb") as fh:
        try:
            text = fh.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"not valid JSON: {exc}") from exc
    return parse_json(text, error, object_hook)
