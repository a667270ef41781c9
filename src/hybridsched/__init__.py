"""Hybrid cloud/HPC scheduling platform: model, scheduler, simulator, service.

The package splits along the platform's own seams: `model` holds the job
and cluster domain types, `scheduler` the queue/placement policy,
`engine` the deterministic event simulator, `cloud` the user/quota/
vcluster layer, `catalog` the shared dataset store, `metrics` the
efficiency figures, `service` the HTTP surface, and `cli` the hsctl
entry point.
"""

from .model import (
    ClusterSpec,
    Elastic,
    JobRecord,
    JobSpec,
    JobState,
    LifecycleEvent,
    ResourceKind,
    Rigid,
    ValidationError,
    job_duration_ms,
    transition,
    validate_cluster,
    validate_job,
)
from .scheduler import Scheduler, ClusterState, Reservation, fair_share_targets
from .engine import (
    EventLog,
    NonTerminating,
    SimConfig,
    SimEventKind,
    Simulation,
    run_trace,
)
from .traces import FaultDirective, SubmissionTrace, random_clusters, random_trace
from .catalog import DatasetCatalog
from .cloud import CloudLayer, Quota, UserAccount, VirtualCluster
from .metrics import UtilizationReport, WaitStats, compare, utilization, wait_stats

__all__ = [
    "CloudLayer",
    "ClusterSpec",
    "ClusterState",
    "DatasetCatalog",
    "Elastic",
    "EventLog",
    "FaultDirective",
    "JobRecord",
    "JobSpec",
    "JobState",
    "LifecycleEvent",
    "NonTerminating",
    "Quota",
    "Reservation",
    "ResourceKind",
    "Rigid",
    "Scheduler",
    "SimConfig",
    "SimEventKind",
    "Simulation",
    "SubmissionTrace",
    "UserAccount",
    "UtilizationReport",
    "ValidationError",
    "VirtualCluster",
    "WaitStats",
    "compare",
    "fair_share_targets",
    "job_duration_ms",
    "random_clusters",
    "random_trace",
    "run_trace",
    "transition",
    "utilization",
    "validate_cluster",
    "validate_job",
    "wait_stats",
]

__version__ = "0.1.0"
