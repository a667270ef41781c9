"""Top-layer platform concerns: accounts, quotas, routing, vclusters.

Sits above the scheduler. Decides whether a submission is admitted (user
quota headroom), which layer it belongs to (elastic work to the cloud
pool, rigid work to the batch clusters), and carves user-provisioned
virtual clusters out of free cloud nodes, hiding them from the batch
scheduler for as long as they live.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import Elastic, JobSpec, ResourceKind, is_integer, projected_nodes
from .engine import Simulation


class CloudError(Exception):
    pass


class DuplicateUser(CloudError):
    def __init__(self, user_id: str):
        super().__init__(f"user {user_id!r} already exists")


class UnknownUser(CloudError):
    def __init__(self, user_id: str):
        self.user_id = user_id
        super().__init__(f"no user {user_id!r}")


class UnknownVCluster(CloudError):
    def __init__(self, vcluster_id: str):
        super().__init__(f"no vcluster {vcluster_id!r}")


class AlreadyReleased(CloudError):
    def __init__(self, vcluster_id: str):
        super().__init__(f"vcluster {vcluster_id!r} already released")


class InsufficientCloudCapacity(CloudError):
    def __init__(self, requested: int):
        self.requested = requested
        super().__init__(f"no cloud cluster has {requested} free nodes")


class QuotaExceeded(CloudError):
    def __init__(self, detail: str):
        super().__init__(detail)


class BadQuota(CloudError):
    pass


class BadUser(CloudError):
    pass


class BadNodeCount(CloudError):
    def __init__(self, node_count):
        super().__init__(f"node_count must be an integer >= 1, got {node_count!r}")


class PartitionViolation(CloudError):
    pass


_QUOTA_FIELDS = ("max_concurrent_jobs", "max_nodes_in_use", "max_vcluster_nodes")


@dataclass(frozen=True)
class Quota:
    max_concurrent_jobs: int
    max_nodes_in_use: int
    max_vcluster_nodes: int

    def __post_init__(self):
        for name in _QUOTA_FIELDS:
            value = getattr(self, name)
            if not is_integer(value):
                raise BadQuota(f"{name} must be an integer")
            if value < 0:
                raise BadQuota(f"{name} must be >= 0")


_USER_FIELDS = frozenset({"user_id", "display_name", "quota"})


def user_from_obj(obj) -> tuple[str, Quota, str]:
    """The one decoder of an outside user entry (a config's or a POST
    /v1/users body) into create_user's arguments; raises BadUser or BadQuota."""
    if not isinstance(obj, dict):
        raise BadUser("user entry must be a JSON object")
    if not obj.keys() <= _USER_FIELDS:
        raise BadUser(f"unknown field: {min(obj.keys() - _USER_FIELDS)}")
    user_id = obj.get("user_id")
    if not isinstance(user_id, str) or not user_id:
        raise BadUser("user_id must be a non-empty string")
    display_name = obj.get("display_name", "")
    if not isinstance(display_name, str):
        raise BadUser("display_name must be a string")
    quota = obj.get("quota")
    if not isinstance(quota, dict) or quota.keys() != set(_QUOTA_FIELDS):
        raise BadQuota(f"quota must be an object of exactly {', '.join(_QUOTA_FIELDS)}")
    return user_id, Quota(**quota), display_name


@dataclass(frozen=True)
class UserAccount:
    user_id: str
    display_name: str
    quota: Quota
    created_at_ms: int


class TargetLayer(str, Enum):
    CLOUD = "cloud"
    HPC = "hpc"


class RejectReason(str, Enum):
    CONCURRENCY_QUOTA = "ConcurrencyQuota"
    NODE_QUOTA = "NodeQuota"
    UNROUTABLE_KIND = "UnroutableKind"


class QuotaRejected(CloudError):
    def __init__(self, reason: RejectReason):
        self.reason = reason
        super().__init__(f"admission rejected: {reason.value}")


class Unroutable(CloudError):
    reason = RejectReason.UNROUTABLE_KIND

    def __init__(self):
        super().__init__(f"not routable: {self.reason.value}")


class VClusterState(str, Enum):
    PROVISIONING = "Provisioning"
    READY = "Ready"
    RELEASED = "Released"


@dataclass
class VirtualCluster:
    vcluster_id: str
    owner: str
    cluster_id: str
    node_indices: tuple[int, ...]
    image: str
    state: VClusterState
    ready_at_ms: int


class CloudLayer:
    """User management and task allocation over one simulation instance."""

    def __init__(self, sim: Simulation, provision_delay_ms: int = 0):
        self.sim = sim
        self.provision_delay_ms = provision_delay_ms
        self.users: dict[str, UserAccount] = {}
        self.vclusters: dict[str, VirtualCluster] = {}
        self._vc_idx = 0

    # -- users ------------------------------------------------------------

    def create_user(self, user_id: str, quota: Quota, display_name: str = "") -> UserAccount:
        if not user_id:
            raise BadUser("user_id must be a non-empty string")
        if user_id in self.users:
            raise DuplicateUser(user_id)
        account = UserAccount(user_id=user_id, display_name=display_name or user_id,
                              quota=quota, created_at_ms=self.sim.now_ms)
        self.users[user_id] = account
        return account

    def get_user(self, user_id: str) -> UserAccount:
        account = self.users.get(user_id)
        if account is None:
            raise UnknownUser(user_id)
        return account

    def list_users(self) -> list[UserAccount]:
        return [self.users[u] for u in sorted(self.users)]

    # -- admission and routing --------------------------------------------

    def admit(self, spec: JobSpec) -> None:
        """Quota check against the user's live jobs; admission-time only.

        Raises QuotaRejected with the first quota the job would break.
        """
        account = self.get_user(spec.user_id)
        live, committed = self.sim.user_load(spec.user_id)
        if live + 1 > account.quota.max_concurrent_jobs:
            raise QuotaRejected(RejectReason.CONCURRENCY_QUOTA)
        if committed + projected_nodes(spec) > account.quota.max_nodes_in_use:
            raise QuotaRejected(RejectReason.NODE_QUOTA)

    def route(self, spec: JobSpec) -> TargetLayer:
        """Pick the layer an admitted job runs in.

        Elastic work always belongs to the cloud pool, rigid work to the
        batch clusters. A job the scheduler's placement rule leaves no
        kind to run on is Unroutable.
        """
        if not self.sim.scheduler.effective_preferences(spec):
            raise Unroutable()
        return TargetLayer.CLOUD if isinstance(spec.shape, Elastic) else TargetLayer.HPC

    # -- virtual clusters --------------------------------------------------

    def _vc_nodes_of(self, user_id: str) -> int:
        return sum(len(vc.node_indices) for vc in self.vclusters.values()
                   if vc.owner == user_id and vc.state is not VClusterState.RELEASED)

    def provision_vcluster(self, user_id: str, node_count: int, image: str) -> VirtualCluster:
        """Carve node_count free cloud nodes into a private vcluster.

        First-fit: lexicographically first cloud cluster with enough free
        nodes, lowest indices first. The nodes vanish from scheduler view
        until release.
        """
        account = self.get_user(user_id)
        if not is_integer(node_count) or node_count < 1:
            raise BadNodeCount(node_count)
        held = self._vc_nodes_of(user_id)
        if held + node_count > account.quota.max_vcluster_nodes:
            raise QuotaExceeded(
                f"user {user_id} holds {held} vcluster nodes; "
                f"+{node_count} exceeds quota {account.quota.max_vcluster_nodes}")
        chosen = None
        for cid in sorted(self.sim.clusters()):
            cs = self.sim.clusters()[cid]
            if cs.spec.kind is not ResourceKind.CLOUD:
                continue
            free = cs.free_nodes()
            if len(free) >= node_count:
                chosen = (cid, tuple(free[:node_count]))
                break
        if chosen is None:
            raise InsufficientCloudCapacity(node_count)
        cid, nodes = chosen
        self.sim.hold_nodes(cid, nodes)
        vcluster_id = f"vc{self._vc_idx:04d}"
        self._vc_idx += 1
        now = self.sim.now_ms
        state = VClusterState.PROVISIONING if self.provision_delay_ms > 0 else VClusterState.READY
        vc = VirtualCluster(vcluster_id=vcluster_id, owner=user_id, cluster_id=cid,
                            node_indices=nodes, image=image, state=state,
                            ready_at_ms=now + self.provision_delay_ms)
        self.vclusters[vcluster_id] = vc
        self.verify_partition(cid)
        return vc

    def get_vcluster(self, vcluster_id: str) -> VirtualCluster:
        vc = self.vclusters.get(vcluster_id)
        if vc is None:
            raise UnknownVCluster(vcluster_id)
        if vc.state is VClusterState.PROVISIONING and self.sim.now_ms >= vc.ready_at_ms:
            vc.state = VClusterState.READY
        return vc

    def list_vclusters(self) -> list[VirtualCluster]:
        return [self.get_vcluster(v) for v in sorted(self.vclusters)]

    def release_vcluster(self, vcluster_id: str) -> tuple[int, ...]:
        vc = self.vclusters.get(vcluster_id)
        if vc is None:
            raise UnknownVCluster(vcluster_id)
        if vc.state is VClusterState.RELEASED:
            raise AlreadyReleased(vcluster_id)
        self.sim.release_hold(vc.cluster_id, vc.node_indices)
        vc.state = VClusterState.RELEASED
        self.verify_partition(vc.cluster_id)
        return vc.node_indices

    # -- invariants --------------------------------------------------------

    def verify_partition(self, cluster_id: str):
        """No node may be both batch-allocated and vcluster-held.

        Free is the complement of owned, held and down, and each busy node
        has one owner, so overlap with the held set is the one way the
        pool can fail to partition.
        """
        cs = self.sim.clusters()[cluster_id]
        both = cs.held & cs.owner.keys()
        if both:
            raise PartitionViolation(
                f"overlapping node sets on {cluster_id}: held and allocated {sorted(both)}")
