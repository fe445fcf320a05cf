"""Supervision overhead: respawn latency and admission throughput.

Two costs the Unix-init layer adds on top of Section 5.1 exec/waitFor:

* **Respawn latency** — how long after a supervised service dies until
  its replacement is running (reap + restart-budget bookkeeping +
  backoff + relaunch).  Backoff is forced to ~0 so the number is the
  supervision machinery itself, not the configured delay.
* **Admission throughput** — admit/release cycles per second through
  the VM-wide run queue, and the cost of *shedding* when saturated
  (the overload path must stay cheap: a melting VM cannot afford an
  expensive "no").
"""

import os
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _common import banner, bench_mvm, register_main  # noqa: E402,F401

from repro.core.execspec import ExecSpec  # noqa: E402
from repro.jvm.threads import JThread  # noqa: E402
from repro.super import (  # noqa: E402
    AdmissionController,
    AdmissionPolicy,
    AdmissionRejected,
    BackoffPolicy,
    ServiceSpec,
    Supervisor,
)

#: REPRO_BENCH_N scales the admission series (smoke runs force it tiny).
BENCH_N = int(os.environ.get("REPRO_BENCH_N", "2000"))

INSTANT = BackoffPolicy(base=0.0001, factor=1.0, cap=0.0001, jitter=0.0)


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


def test_bench_respawn_latency(benchmark, bench_mvm):
    class_name = register_main(
        bench_mvm.vm, "LongLived",
        lambda jclass, ctx, args: JThread.sleep(30) or 0)

    with bench_mvm.host_session():
        supervisor = Supervisor(bench_mvm, name="bench-respawn",
                                probe_interval=0.05)
        supervisor.add(ServiceSpec("victim", ExecSpec(class_name),
                                   backoff=INSTANT, max_restarts=10 ** 6,
                                   restart_window=10 ** 6))
        supervisor.start()
        service = supervisor.service("victim")
        assert _wait_until(lambda: service.app is not None)

        def kill_and_await_respawn():
            before = service.restarts
            service.app.destroy()
            assert _wait_until(
                lambda: service.restarts > before
                and service.app is not None)

        try:
            benchmark.pedantic(kill_and_await_respawn, rounds=15,
                               iterations=1, warmup_rounds=2)
        finally:
            supervisor.shutdown()
    print(banner("S1: supervised respawn latency (kill -> running again)"))
    print(f"measured: {benchmark.stats.stats.mean * 1000:8.2f} ms")


def test_bench_admission_throughput(benchmark, bench_mvm):
    controller = AdmissionController(
        bench_mvm.vm, AdmissionPolicy(max_running=8))
    users = ["alice", "bob", "carol", "dave"]

    def cycle():
        tickets = []
        for i in range(BENCH_N):
            tickets.append(controller.admit(users[i % len(users)]))
            if len(tickets) == 8:
                for ticket in tickets:
                    ticket.release()
                tickets.clear()
        for ticket in tickets:
            ticket.release()

    benchmark.pedantic(cycle, rounds=5, iterations=1, warmup_rounds=1)
    per_admit_us = benchmark.stats.stats.mean / max(BENCH_N, 1) * 1e6
    print(banner("S2: admission admit/release throughput"))
    print(f"amortized per admit+release: {per_admit_us:8.2f} us")


def test_bench_admission_shedding(benchmark, bench_mvm):
    """The overload path: rejections per second at full capacity."""
    controller = AdmissionController(
        bench_mvm.vm, AdmissionPolicy(max_running=1))
    holder = controller.admit("holder")

    def shed():
        for _ in range(BENCH_N):
            try:
                controller.admit("burst")
            except AdmissionRejected:
                pass

    try:
        benchmark.pedantic(shed, rounds=5, iterations=1, warmup_rounds=1)
    finally:
        holder.release()
    per_shed_us = benchmark.stats.stats.mean / max(BENCH_N, 1) * 1e6
    print(banner("S3: admission shedding cost when saturated"))
    print(f"amortized per rejection: {per_shed_us:8.2f} us")
    assert controller.stats()["rejected"] >= BENCH_N
