"""The cluster end to end: spawn, spread, offload, survive node death.

One controller VM and two worker VMs share a network fabric; the
controller runs the registry server, each worker runs the rexec daemon
plus the heartbeat agent.  Timings are tightened so failure detection
fits in test time.
"""

import threading
import time

import pytest

from repro.cluster import Cluster, PlacementError
from repro.core.application import KILLED_EXIT_CODE
from repro.core.execspec import ExecSpec, Placement, launch
from repro.core.launcher import MultiProcVM
from repro.io.streams import ByteArrayOutputStream, PrintStream
from repro.jvm.errors import NodeUnavailableException
from repro.net.fabric import NetworkFabric
from repro.unixfs.machine import standard_process

pytestmark = pytest.mark.cluster

CTRL = "ctrl.example.com"
NODE_1 = "node-1.example.com"
NODE_2 = "node-2.example.com"


@pytest.fixture
def pool():
    """Controller + two workers (node-2 is a playground), all enrolled."""
    fabric = NetworkFabric()
    ctrl = MultiProcVM.boot(
        os_context=standard_process(hostname=CTRL), network=fabric)
    workers = {
        NODE_1: MultiProcVM.boot(
            os_context=standard_process(hostname=NODE_1), network=fabric),
        NODE_2: MultiProcVM.boot(
            os_context=standard_process(hostname=NODE_2), network=fabric),
    }
    cluster = Cluster(ctrl, suspect_after=0.4, dead_after=0.8,
                      failover_grace=3.0)
    cluster.start(sweep_interval=0.1)
    cluster.join(workers[NODE_1], rexec_port=7101, interval=0.1)
    cluster.join(workers[NODE_2], rexec_port=7102, interval=0.1,
                 playground=True)
    yield ctrl, workers, cluster
    for worker in list(workers.values()):
        cluster.shutdown_worker(worker)
    ctrl.shutdown()


class TestClusterExec:
    def test_output_and_exit_code_relay(self, pool):
        __, ___, cluster = pool
        app = cluster.exec("tools.Echo", ["over", "there"],
                           user="alice", password="wonderland")
        assert app.wait_for(10) == 0
        assert app.output_text() == "over there\n"
        assert app.terminated
        assert app.exit_code == 0
        app.close()

    def test_credentials_travel_identity_does_not(self, pool):
        """Section 5.2 holds through the scheduler: the *target* VM
        authenticates the travelling credentials."""
        __, ___, cluster = pool
        app = cluster.exec("tools.Whoami", [], user="bob",
                           password="builder")
        assert app.wait_for(10) == 0
        assert app.output_text().strip() == "bob"
        app.close()

    def test_round_robin_spreads_across_nodes(self, pool):
        __, ___, cluster = pool
        apps = [cluster.exec("tools.True", [], user="alice",
                             password="wonderland") for _ in range(6)]
        for app in apps:
            assert app.wait_for(10) == 0
            app.close()
        nodes = [app.node for app in apps]
        assert nodes.count(NODE_1) == 3
        assert nodes.count(NODE_2) == 3

    def test_destroy_is_not_mistaken_for_node_death(self, pool):
        __, ___, cluster = pool
        app = cluster.exec("tools.Sleep", ["30"], user="alice",
                           password="wonderland")
        assert app.wait_for(0.5) is None
        app.destroy()
        assert app.wait_for(10) == KILLED_EXIT_CODE
        assert len(app.placements) == 1  # no failover for a wanted kill
        app.close()

    def test_untrusted_confined_to_playground(self, pool):
        __, ___, cluster = pool
        nodes = set()
        for _ in range(4):
            app = cluster.exec("tools.True", [], user="alice",
                               password="wonderland", untrusted=True)
            assert app.wait_for(10) == 0
            nodes.add(app.node)
            app.close()
        assert nodes == {NODE_2}

    def test_least_loaded_picks_the_idle_node(self, pool):
        __, ___, cluster = pool
        # Occupy node-1 with sleepers, then wait for its inflated load to
        # arrive by heartbeat.
        registry = cluster.registry
        sleepers = []
        while registry.find(NODE_1).load.get("apps", 0) \
                <= registry.find(NODE_2).load.get("apps", 0):
            sleepers.append(cluster.exec(
                "tools.Sleep", ["30"], user="alice", password="wonderland",
                policy="least-loaded"))
            time.sleep(0.15)
            assert len(sleepers) < 20, "load never diverged"
        app = cluster.exec("tools.True", [], user="alice",
                           password="wonderland", policy="least-loaded")
        assert app.wait_for(10) == 0
        assert app.node == NODE_2
        app.close()
        for sleeper in sleepers:
            sleeper.destroy()
            sleeper.close()


class TestFailover:
    def test_unreachable_node_is_marked_dead_and_skipped(self, pool):
        """A registry entry the fabric has never heard of: placement tries
        it first (sorted round-robin), gets the typed unavailability
        signal, declares it dead, and lands elsewhere."""
        __, ___, cluster = pool
        ghost = "aaa-ghost.example.com"  # sorts before the real nodes
        cluster.registry.register(ghost, port=7999)
        app = cluster.exec("tools.Echo", ["alive"], user="alice",
                           password="wonderland")
        assert app.wait_for(10) == 0
        assert app.node in (NODE_1, NODE_2)
        assert cluster.registry.find(ghost).state == "dead"
        assert cluster.metrics.total("cluster.failovers") >= 1
        app.close()

    def test_node_death_replaces_running_launch(self, pool):
        __, workers, cluster = pool
        app = cluster.exec("tools.Sleep", ["30"], user="alice",
                           password="wonderland")
        assert app.node == NODE_1  # round-robin from a fresh cursor
        result = {}

        def waiter():
            result["code"] = app.wait_for(20)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.4)
        cluster.shutdown_worker(workers.pop(NODE_1))
        deadline = time.monotonic() + 10
        while len(app.placements) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert app.placements == [NODE_1, NODE_2]
        app.destroy()
        thread.join(10)
        assert result["code"] is not None
        assert cluster.registry.find(NODE_1).state == "dead"
        app.close()

    def test_empty_pool_raises_placement_error(self, pool):
        __, workers, cluster = pool
        for name in list(workers):
            cluster.shutdown_worker(workers.pop(name))
        deadline = time.monotonic() + 10
        while cluster.registry.live_nodes() and \
                time.monotonic() < deadline:
            time.sleep(0.05)
        cluster.placement_attempts = 1  # no point queueing in this test
        with pytest.raises(PlacementError):
            cluster.exec("tools.True", [], user="alice",
                         password="wonderland")

    def test_queued_launch_waits_for_a_node(self, pool):
        """Placement with a momentarily empty pool retries with backoff —
        the launch is queued, not failed."""
        ctrl, workers, cluster = pool
        for name in list(workers):
            cluster.shutdown_worker(workers.pop(name))
        deadline = time.monotonic() + 10
        while cluster.registry.live_nodes() and \
                time.monotonic() < deadline:
            time.sleep(0.05)
        cluster.placement_backoff = 0.2
        cluster.placement_attempts = 10
        result = {}

        def launch():
            app = cluster.exec("tools.Echo", ["queued"], user="alice",
                               password="wonderland")
            result["code"] = app.wait_for(10)
            result["node"] = app.node
            app.close()

        thread = threading.Thread(target=launch)
        thread.start()
        time.sleep(0.3)  # the launch is now waiting on an empty pool
        late = MultiProcVM.boot(
            os_context=standard_process(hostname="node-3.example.com"),
            network=ctrl.vm.network)
        workers["node-3.example.com"] = late
        cluster.join(late, rexec_port=7103, interval=0.1)
        thread.join(15)
        assert result.get("code") == 0
        assert result.get("node") == "node-3.example.com"


class TestTypedUnavailability:
    def test_unknown_host_raises_node_unavailable(self, pool):
        ctrl, __, ___ = pool
        with ctrl.host_session():
            ctx = ctrl.initial.context()
            with pytest.raises(NodeUnavailableException):
                launch(ExecSpec("tools.True", user="alice",
                                password="wonderland",
                                placement=Placement.remote(
                                    "no-such-host.example.com")),
                       ctx=ctx)

    def test_connection_refused_raises_node_unavailable(self, pool):
        """A known host with nothing listening is just as unavailable."""
        ctrl, __, ___ = pool
        with ctrl.host_session():
            ctx = ctrl.initial.context()
            with pytest.raises(NodeUnavailableException):
                launch(ExecSpec("tools.True", user="alice",
                                password="wonderland",
                                placement=Placement.remote(NODE_1, 7555)),
                       ctx=ctx)


class TestIntrospection:
    def test_proc_cluster_nodes(self, pool):
        ctrl, __, ___ = pool
        sink = ByteArrayOutputStream()
        with ctrl.host_session():
            code = ctrl.run("tools.Cat", ["/proc/cluster/nodes"],
                            stdout=PrintStream(sink))
        assert code == 0
        text = sink.to_text()
        assert NODE_1 in text and NODE_2 in text
        assert "playground" in text
        assert "live" in text

    def test_proc_cluster_placements(self, pool):
        ctrl, __, cluster = pool
        app = cluster.exec("tools.True", [], user="alice",
                           password="wonderland")
        assert app.wait_for(10) == 0
        app.close()
        sink = ByteArrayOutputStream()
        with ctrl.host_session():
            code = ctrl.run("tools.Cat", ["/proc/cluster/placements"],
                            stdout=PrintStream(sink))
        assert code == 0
        assert "tools.True" in sink.to_text()

    def test_proc_cluster_absent_without_a_cluster(self):
        mvm = MultiProcVM.boot()
        try:
            sink = ByteArrayOutputStream()
            err = ByteArrayOutputStream()
            with mvm.host_session():
                code = mvm.run("tools.Cat", ["/proc/cluster/nodes"],
                               stdout=PrintStream(sink),
                               stderr=PrintStream(err))
            assert code != 0
        finally:
            mvm.shutdown()

    def test_vmstat_gains_cluster_lines(self, pool):
        ctrl, __, ___ = pool
        sink = ByteArrayOutputStream()
        with ctrl.host_session():
            code = ctrl.run("tools.Cat", ["/proc/vmstat"],
                            stdout=PrintStream(sink))
        assert code == 0
        assert "cluster.nodes.live\t2" in sink.to_text()

    def test_cluster_status_tool(self, pool):
        ctrl, __, ___ = pool
        sink = ByteArrayOutputStream()
        with ctrl.host_session():
            code = ctrl.run("tools.Cluster", ["status"],
                            stdout=PrintStream(sink))
        assert code == 0
        text = sink.to_text()
        assert NODE_1 in text
        assert "2 live" in text

    def test_cluster_exec_tool_from_shell(self, pool):
        ctrl, __, ___ = pool
        sink = ByteArrayOutputStream()
        with ctrl.host_session():
            alice = ctrl.vm.user_database.lookup("alice")
            shell = ctrl.exec(
                "tools.Shell",
                ["-c", "setprop rsh.password wonderland",
                 "cluster exec whoami",
                 "cluster exec -p least-loaded echo via the pool"],
                user=alice, stdout=PrintStream(sink),
                stderr=PrintStream(sink))
            assert shell.wait_for(15) == 0
        text = sink.to_text()
        assert "alice" in text
        assert "via the pool" in text

    def test_cluster_tool_without_cluster_fails_cleanly(self):
        mvm = MultiProcVM.boot()
        try:
            sink = ByteArrayOutputStream()
            with mvm.host_session():
                code = mvm.run("tools.Cluster", ["status"],
                               stderr=PrintStream(sink))
            assert code == 1
            assert "not a cluster controller" in sink.to_text()
        finally:
            mvm.shutdown()
