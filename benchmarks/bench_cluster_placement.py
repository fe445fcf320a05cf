"""Cluster scheduler benches: placement latency and spawn throughput.

Two questions for the scaling roadmap:

* How much does a placement *decision* cost, and how does it grow with
  pool size?  Measured on a directly-driven registry + scheduler (no VMs)
  at 1, 3 and 9 nodes, for every policy.
* What end-to-end spawn throughput does one controller get out of a real
  pool (registry server, heartbeat agents, rexec daemons, the credential
  round trip) at 1 and 3 worker VMs?

Run with ``--trace-out PATH`` to export a JSONL trace of the VM-backed
cases (the placement-latency microbench never boots a VM).
"""

import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _common import banner  # noqa: E402

from repro.cluster import Cluster, NodeRegistry, Scheduler  # noqa: E402
from repro.core.execspec import ExecSpec, Placement, launch  # noqa: E402
from repro.core.launcher import MultiProcVM  # noqa: E402
from repro.net.fabric import NetworkFabric  # noqa: E402
from repro.telemetry.metrics import MetricsRegistry  # noqa: E402
from repro.unixfs.machine import standard_process  # noqa: E402

POOL_SIZES = (1, 3, 9)
POLICIES = ("round-robin", "least-loaded", "locality")


def _registry_with(nodes: int) -> NodeRegistry:
    registry = NodeRegistry(metrics=MetricsRegistry(), clock=lambda: 0.0)
    for index in range(nodes):
        registry.register(f"node-{index}.example.com", port=7100 + index,
                          load={"apps": index % 4, "awt": 0},
                          classes=["bench.Target"] if index == nodes - 1
                          else [])
    return registry


def test_bench_placement_latency(benchmark):
    """Pure decision cost: place() against 1/3/9-node pools, per policy."""
    results = {}
    for nodes in POOL_SIZES:
        registry = _registry_with(nodes)
        scheduler = Scheduler(registry, metrics=registry.metrics)
        for policy in POLICIES:
            loops = 2000
            start = time.perf_counter()
            for _ in range(loops):
                scheduler.place("bench.Target", policy=policy)
            results[(nodes, policy)] = \
                (time.perf_counter() - start) / loops * 1e6

    # The benchmark fixture records the 3-node round-robin case.
    registry = _registry_with(3)
    scheduler = Scheduler(registry, metrics=registry.metrics)
    benchmark(lambda: scheduler.place("bench.Target"))

    print(banner("cluster: placement decision latency (us/placement)"))
    header = "nodes  " + "".join(f"{p:>14}" for p in POLICIES)
    print(header)
    for nodes in POOL_SIZES:
        row = f"{nodes:>5}  " + "".join(
            f"{results[(nodes, policy)]:14.2f}" for policy in POLICIES)
        print(row)
    for policy in POLICIES:
        assert results[(9, policy)] < 1000, \
            f"{policy} placement should stay well under 1 ms"


def _boot_pool(workers: int):
    fabric = NetworkFabric()
    ctrl = MultiProcVM.boot(
        os_context=standard_process(hostname="bench-ctrl.example.com"),
        network=fabric)
    pool = [MultiProcVM.boot(
        os_context=standard_process(
            hostname=f"bench-n{index}.example.com"),
        network=fabric) for index in range(workers)]
    cluster = Cluster(ctrl, suspect_after=2.0, dead_after=4.0)
    cluster.start(sweep_interval=0.2)
    for index, worker in enumerate(pool):
        cluster.join(worker, rexec_port=7110 + index, interval=0.5)
    return ctrl, pool, cluster


def _spawn_throughput(cluster, launches: int) -> float:
    start = time.perf_counter()
    spec = ExecSpec("tools.True", user="alice", password="wonderland",
                    placement=Placement.cluster())
    apps = [launch(spec, vm=cluster.vm) for _ in range(launches)]
    for app in apps:
        assert app.wait_for(15) == 0
        app.close()
    return launches / (time.perf_counter() - start)


def test_bench_spawn_throughput(benchmark):
    """End-to-end scheduled spawns/second at 1, 3 and 9 worker VMs."""
    rates = {}
    for workers in (1, 3, 9):
        ctrl, pool, cluster = _boot_pool(workers)
        try:
            _spawn_throughput(cluster, 4)  # warm the wire
            rates[workers] = _spawn_throughput(cluster, 12)
            if workers == 3:
                with ctrl.host_session():
                    benchmark.pedantic(
                        lambda: _spawn_throughput(cluster, 3),
                        rounds=5, iterations=1, warmup_rounds=1)
        finally:
            for worker in list(pool):
                cluster.shutdown_worker(worker)
            ctrl.shutdown()

    print(banner("cluster: scheduled spawn throughput (launches/s)"))
    for workers, rate in sorted(rates.items()):
        print(f"{workers} worker VM(s): {rate:8.1f} launches/s")
    assert all(rate > 0 for rate in rates.values())
