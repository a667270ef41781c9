"""Top-layer tests: accounts, quota admission, routing, vclusters."""

import pytest

from oracles import log_events

from hybridsched.cloud import (
    AlreadyReleased,
    BadQuota,
    CloudError,
    CloudLayer,
    DuplicateUser,
    InsufficientCloudCapacity,
    PartitionViolation,
    Quota,
    QuotaExceeded,
    QuotaRejected,
    RejectReason,
    TargetLayer,
    UnknownUser,
    UnknownVCluster,
    Unroutable,
    VClusterState,
    projected_nodes,
)
from hybridsched.engine import SimConfig, Simulation
from hybridsched.model import ClusterSpec, Elastic, JobSpec, ResourceKind, Rigid

CPU = ResourceKind.CPU
CLOUD = ResourceKind.CLOUD


def cluster(cid, kind, nodes, speed=1):
    return ClusterSpec(cluster_id=cid, kind=kind, node_count=nodes,
                       cores_per_node=8, speed_factor=speed)


def rigid(name, nodes, work=5, wall=60_000, prefs=(CPU,), user="u"):
    return JobSpec(name=name, user_id=user, kind_preferences=tuple(prefs),
                   shape=Rigid(node_count=nodes), work_units=work,
                   walltime_limit_ms=wall)


def elastic(name, lo, hi, work=5, wall=60_000, user="u"):
    return JobSpec(name=name, user_id=user, kind_preferences=(CLOUD,),
                   shape=Elastic(min_workers=lo, max_workers=hi),
                   work_units=work, walltime_limit_ms=wall)


def make_layer(clusters=None, config=None, delay=0):
    sim = Simulation(clusters or [cluster("cloud0", CLOUD, 4),
                                  cluster("cpu0", CPU, 4)],
                     config=config)
    return CloudLayer(sim, provision_delay_ms=delay)


WIDE = Quota(max_concurrent_jobs=100, max_nodes_in_use=1000, max_vcluster_nodes=1000)


class TestUsers:
    def test_create_and_get(self):
        layer = make_layer()
        acct = layer.create_user("alice", WIDE, display_name="Alice")
        assert layer.get_user("alice") is acct
        assert acct.display_name == "Alice"
        assert acct.created_at_ms == 0

    def test_display_name_defaults_to_id(self):
        layer = make_layer()
        assert layer.create_user("bob", WIDE).display_name == "bob"

    def test_duplicate_and_unknown(self):
        layer = make_layer()
        layer.create_user("alice", WIDE)
        with pytest.raises(DuplicateUser):
            layer.create_user("alice", WIDE)
        with pytest.raises(UnknownUser):
            layer.get_user("nobody")
        with pytest.raises(CloudError):
            layer.create_user("", WIDE)

    def test_list_sorted(self):
        layer = make_layer()
        layer.create_user("zed", WIDE)
        layer.create_user("amy", WIDE)
        assert [a.user_id for a in layer.list_users()] == ["amy", "zed"]

    def test_negative_quota_rejected(self):
        with pytest.raises(BadQuota):
            Quota(max_concurrent_jobs=-1, max_nodes_in_use=0, max_vcluster_nodes=0)


class TestProjectedNodes:
    def test_rigid_is_its_shape(self):
        assert projected_nodes(rigid("r", 3)) == 3

    def test_elastic_charged_at_max(self):
        assert projected_nodes(elastic("e", 1, 7)) == 7


class TestAdmission:
    def test_concurrency_quota(self):
        layer = make_layer()
        layer.create_user("u", Quota(1, 1000, 0))
        assert layer.admit(rigid("a", 1)) is None
        layer.sim.submit_now(rigid("a", 1))
        with pytest.raises(QuotaRejected) as info:
            layer.admit(rigid("b", 1))
        assert info.value.reason is RejectReason.CONCURRENCY_QUOTA

    def test_node_quota_counts_elastic_at_max(self):
        layer = make_layer()
        layer.create_user("u", Quota(100, 8, 0))
        layer.sim.submit_now(elastic("e", 1, 4))   # projected 4, running with 1
        with pytest.raises(QuotaRejected) as info:
            layer.admit(rigid("r5", 5))
        assert info.value.reason is RejectReason.NODE_QUOTA
        assert layer.admit(rigid("r4", 4)) is None

    def test_terminal_jobs_release_quota(self):
        layer = make_layer()
        layer.create_user("u", Quota(1, 2, 0))
        layer.sim.submit_now(rigid("a", 1, work=1, wall=10_000))
        with pytest.raises(QuotaRejected):
            layer.admit(rigid("b", 1))
        layer.sim.run_to_quiescence()
        assert layer.admit(rigid("b", 1)) is None

    def test_zero_concurrency_admits_nothing(self):
        layer = make_layer()
        layer.create_user("u", Quota(0, 1000, 0))
        with pytest.raises(QuotaRejected):
            layer.admit(rigid("a", 1))

    def test_unknown_user_raises(self):
        layer = make_layer()
        with pytest.raises(UnknownUser):
            layer.admit(rigid("a", 1, user="ghost"))

    def test_other_users_jobs_do_not_count(self):
        layer = make_layer()
        layer.create_user("u", Quota(1, 1, 0))
        layer.create_user("v", Quota(1, 1, 0))
        layer.sim.submit_now(rigid("a", 1, user="u"))
        assert layer.admit(rigid("b", 1, user="v")) is None


class TestRouting:
    def test_elastic_goes_to_cloud(self):
        layer = make_layer()
        assert layer.route(elastic("e", 1, 2)) is TargetLayer.CLOUD

    def test_rigid_goes_to_hpc(self):
        layer = make_layer()
        assert layer.route(rigid("r", 1)) is TargetLayer.HPC

    def test_rigid_cloud_only_is_unroutable_by_default(self):
        layer = make_layer()
        with pytest.raises(Unroutable) as info:
            layer.route(rigid("r", 1, prefs=(CLOUD,)))
        assert info.value.reason is RejectReason.UNROUTABLE_KIND

    def test_rigid_cloud_only_routes_when_enabled(self):
        layer = make_layer(config=SimConfig(hybrid_rigid_on_cloud=True))
        assert layer.route(rigid("r", 1, prefs=(CLOUD,))) is TargetLayer.HPC

    def test_mixed_preferences_route_to_hpc(self):
        layer = make_layer()
        assert layer.route(rigid("r", 1, prefs=(CPU, CLOUD))) is TargetLayer.HPC

    def test_first_preference_only_agrees_with_the_engine(self):
        # pinned to its first kind, cloud, a rigid job has no kind left:
        # routing rejects it and the engine fails it at arrival
        config = SimConfig(first_preference_only=True)
        spec = rigid("r", 1, prefs=(CLOUD, CPU))
        layer = make_layer(config=config)
        with pytest.raises(Unroutable) as info:
            layer.route(spec)
        assert info.value.reason is RejectReason.UNROUTABLE_KIND
        job_id = layer.sim.submit_now(spec)
        layer.sim.run_to_quiescence()
        assert [(e["kind"], e["job_id"]) for e in log_events(layer.sim.log)] == [
            ("JobSubmitted", job_id), ("JobFailed", job_id)]


class TestVClusters:
    def test_first_fit_lowest_indices(self):
        layer = make_layer()
        layer.create_user("u", WIDE)
        vc = layer.provision_vcluster("u", 2, image="astro:latest")
        assert vc.vcluster_id == "vc0000"
        assert vc.cluster_id == "cloud0"
        assert vc.node_indices == (0, 1)
        assert vc.state is VClusterState.READY
        assert vc.image == "astro:latest"

    def test_ids_increment(self):
        layer = make_layer()
        layer.create_user("u", WIDE)
        assert layer.provision_vcluster("u", 1, "i").vcluster_id == "vc0000"
        assert layer.provision_vcluster("u", 1, "i").vcluster_id == "vc0001"

    def test_lexicographic_cluster_choice(self):
        layer = make_layer([cluster("cloudB", CLOUD, 4), cluster("cloudA", CLOUD, 2)])
        layer.create_user("u", WIDE)
        # cloudA is first but too small for 3 nodes
        vc = layer.provision_vcluster("u", 3, "i")
        assert vc.cluster_id == "cloudB"
        vc2 = layer.provision_vcluster("u", 1, "i")
        assert vc2.cluster_id == "cloudA"

    def test_skips_non_cloud_clusters(self):
        layer = make_layer([cluster("cpu0", CPU, 8)])
        layer.create_user("u", WIDE)
        with pytest.raises(InsufficientCloudCapacity):
            layer.provision_vcluster("u", 1, "i")

    def test_capacity_exhaustion(self):
        layer = make_layer()
        layer.create_user("u", WIDE)
        layer.provision_vcluster("u", 4, "i")
        with pytest.raises(InsufficientCloudCapacity):
            layer.provision_vcluster("u", 1, "i")

    def test_vcluster_quota_is_cumulative(self):
        layer = make_layer()
        layer.create_user("u", Quota(0, 0, 3))
        layer.provision_vcluster("u", 2, "i")
        with pytest.raises(QuotaExceeded):
            layer.provision_vcluster("u", 2, "i")
        layer.provision_vcluster("u", 1, "i")

    def test_released_nodes_leave_quota_and_return_to_pool(self):
        layer = make_layer()
        layer.create_user("u", Quota(0, 0, 2))
        vc = layer.provision_vcluster("u", 2, "i")
        freed = layer.release_vcluster(vc.vcluster_id)
        assert freed == (0, 1)
        assert vc.state is VClusterState.RELEASED
        # quota headroom restored and the same low indices come back
        vc2 = layer.provision_vcluster("u", 2, "i")
        assert vc2.node_indices == (0, 1)

    def test_release_twice_and_unknown(self):
        layer = make_layer()
        layer.create_user("u", WIDE)
        vc = layer.provision_vcluster("u", 1, "i")
        layer.release_vcluster(vc.vcluster_id)
        with pytest.raises(AlreadyReleased):
            layer.release_vcluster(vc.vcluster_id)
        with pytest.raises(UnknownVCluster):
            layer.release_vcluster("vc9999")
        with pytest.raises(UnknownVCluster):
            layer.get_vcluster("vc9999")

    def test_bad_node_count(self):
        layer = make_layer()
        layer.create_user("u", WIDE)
        with pytest.raises(CloudError):
            layer.provision_vcluster("u", 0, "i")

    def test_held_nodes_invisible_to_scheduler(self):
        layer = make_layer()
        layer.create_user("u", WIDE)
        layer.provision_vcluster("u", 4, "i")
        job_id = layer.sim.submit_now(elastic("e", 1, 2, work=1))
        assert layer.sim.records[job_id].state.value == "Queued"
        layer.release_vcluster("vc0000")
        layer.sim.run_to_quiescence()
        assert layer.sim.records[job_id].state.value == "Completed"

    def test_provisioning_delay_is_lazy(self):
        layer = make_layer(delay=500)
        layer.create_user("u", WIDE)
        vc = layer.provision_vcluster("u", 1, "i")
        assert vc.state is VClusterState.PROVISIONING
        assert vc.ready_at_ms == 500
        assert layer.get_vcluster(vc.vcluster_id).state is VClusterState.PROVISIONING
        layer.sim.advance_to(500)
        assert layer.get_vcluster(vc.vcluster_id).state is VClusterState.READY

    def test_list_vclusters_sorted(self):
        layer = make_layer()
        layer.create_user("u", WIDE)
        layer.provision_vcluster("u", 1, "i")
        layer.provision_vcluster("u", 1, "i")
        assert [v.vcluster_id for v in layer.list_vclusters()] == ["vc0000", "vc0001"]


class TestPartitionInvariant:
    def test_holds_with_running_jobs_and_vclusters(self):
        layer = make_layer()
        layer.create_user("u", WIDE)
        layer.sim.submit_now(elastic("e", 1, 2, work=30))
        layer.provision_vcluster("u", 1, "i")
        layer.verify_partition("cloud0")
        layer.release_vcluster("vc0000")
        layer.verify_partition("cloud0")
        layer.sim.run_to_quiescence()
        layer.verify_partition("cloud0")

    def test_detects_overlap(self):
        layer = make_layer()
        layer.create_user("u", WIDE)
        cs = layer.sim.clusters()["cloud0"]
        cs.held.add(0)
        # forge a job on the held node: two owners for one node
        cs.owner[0] = "fake"
        with pytest.raises(PartitionViolation):
            layer.verify_partition("cloud0")
