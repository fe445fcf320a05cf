#!/usr/bin/env python
"""A 3-node cluster: load-balanced placement, playground offload, failover.

One controller VM and three worker VMs boot on one simulated network.
The controller runs the cluster registry; every worker runs the rexec
daemon plus a heartbeat agent.  The demo then:

1. launches a dozen applications across the pool (round-robin and
   least-loaded placement);
2. confines an "untrusted" launch to the designated playground node;
3. kills node-2 mid-run and watches the launches that lived there get
   re-placed onto surviving nodes;
4. shows the live membership through ``/proc/cluster/nodes`` and the
   ``cluster status`` coreutil.

Run with::

    python examples/cluster_demo.py
"""

import time

from repro import ExecSpec, MultiProcVM, Placement
from repro.cluster import Cluster
from repro.io.streams import ByteArrayOutputStream, PrintStream
from repro.net.fabric import NetworkFabric
from repro.unixfs.machine import standard_process

CTRL = "ctrl.example.com"
NODES = ["node-1.example.com", "node-2.example.com", "node-3.example.com"]


def banner(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def run_tool(mvm, class_name, args):
    sink = ByteArrayOutputStream()
    with mvm.host_session():
        code = mvm.run(class_name, args, stdout=PrintStream(sink),
                       stderr=PrintStream(sink))
    return code, sink.to_text()


def main() -> None:
    fabric = NetworkFabric()
    ctrl = MultiProcVM.boot(
        os_context=standard_process(hostname=CTRL), network=fabric)
    workers = {name: MultiProcVM.boot(
        os_context=standard_process(hostname=name), network=fabric)
        for name in NODES}

    banner("membership: 3 workers join the pool")
    cluster = Cluster(ctrl, suspect_after=0.4, dead_after=0.8,
                      failover_grace=3.0)
    cluster.start(sweep_interval=0.1)
    for index, name in enumerate(NODES):
        # node-3 is the playground: untrusted work is confined to it.
        cluster.join(workers[name], rexec_port=7101 + index, interval=0.1,
                     playground=(name == NODES[2]))
    print(cluster.render_nodes())

    banner("placement: 12 launches across the pool")
    finished = []
    for i in range(8):
        app = ctrl.launch(ExecSpec("tools.Echo", [f"job-{i}"], user="alice",
                                   password="wonderland",
                                   placement=Placement.cluster()))
        assert app.wait_for(10) == 0
        finished.append(app)
        print(f"job-{i:<2} round-robin   -> {app.node}")
    for i in range(8, 11):
        app = ctrl.launch(ExecSpec(
            "tools.Echo", [f"job-{i}"], user="alice", password="wonderland",
            placement=Placement.cluster(policy="least-loaded")))
        assert app.wait_for(10) == 0
        finished.append(app)
        print(f"job-{i:<2} least-loaded -> {app.node}")

    untrusted = ctrl.launch(ExecSpec(
        "tools.Echo", ["sandboxed"], user="alice", password="wonderland",
        placement=Placement.cluster(untrusted=True)))
    assert untrusted.wait_for(10) == 0
    finished.append(untrusted)
    print(f"job-11 untrusted    -> {untrusted.node}  (playground only)")
    assert untrusted.node == NODES[2]
    spread = {node: sum(1 for a in finished if a.node == node)
              for node in NODES}
    print("spread:", spread)
    assert len(finished) >= 10
    assert all(count > 0 for count in spread.values())

    banner("failover: kill node-2 while work runs there")
    sleepers = []
    while len([s for s in sleepers if s.node == NODES[1]]) < 2:
        sleepers.append(ctrl.launch(ExecSpec(
            "tools.Sleep", ["60"], user="alice", password="wonderland",
            placement=Placement.cluster())))
    print("sleepers placed on:", [s.node for s in sleepers])
    doomed = [s for s in sleepers if s.node == NODES[1]]
    cluster.shutdown_worker(workers.pop(NODES[1]))
    print(f"{NODES[1]} is gone; waiting for the detector + re-placement...")
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline and \
            any(s.node == NODES[1] for s in doomed):
        time.sleep(0.1)
    for sleeper in doomed:
        print(f"  {' -> '.join(sleeper.placements)}")
        assert sleeper.node != NODES[1], "launch stuck on a dead node"
        assert len(sleeper.placements) >= 2
    for sleeper in sleepers:
        sleeper.destroy()
        sleeper.close()
    for app in finished:
        app.close()

    banner("introspection: /proc/cluster/nodes")
    code, text = run_tool(ctrl, "tools.Cat", ["/proc/cluster/nodes"])
    assert code == 0
    print(text, end="")
    assert "dead" in text  # node-2's tombstone is visible

    banner("introspection: cluster status")
    code, text = run_tool(ctrl, "tools.Cluster", ["status"])
    assert code == 0
    print(text, end="")
    assert "2 live" in text

    failovers = int(cluster.metrics.total("cluster.failovers"))
    placements = int(cluster.metrics.total("cluster.placements"))
    print(f"\n{placements} placements, {failovers} failovers, "
          f"{len(cluster.registry.live_nodes())} nodes still live")

    for worker in list(workers.values()):
        cluster.shutdown_worker(worker)
    ctrl.shutdown()
    print("all JVMs terminated cleanly")


if __name__ == "__main__":
    main()
