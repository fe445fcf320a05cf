"""Experiment C6 — application launch/teardown inside one MPJVM.

Section 2's case for the single-JVM design rests on launching an
*application* being far cheaper than launching a whole JVM.  This bench
measures both sides that we can measure for real:

* launching + waiting out a trivial application in a running MPJVM
  (thread-group + loader + System reload + main thread + reaper teardown);
* booting an entire fresh multi-processing VM (our stand-in for "starting
  another JVM process", which on the 1997 testbed took ~seconds).
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _common import banner, bench_mvm, register_main  # noqa: E402,F401

from repro.core.execspec import ExecSpec  # noqa: E402
from repro.core.launcher import MultiProcVM  # noqa: E402
from repro.procsim.model import ProcessCostModel  # noqa: E402


def test_bench_application_launch_and_wait(benchmark, bench_mvm):
    class_name = register_main(bench_mvm.vm, "Noop",
                               lambda jclass, ctx, args: 0)

    with bench_mvm.host_session():
        def launch():
            app = bench_mvm.launch(ExecSpec(class_name))
            assert app.wait_for(10) == 0

        result = benchmark.pedantic(launch, rounds=30, iterations=1,
                                    warmup_rounds=3)
    measured_s = benchmark.stats.stats.mean
    model = ProcessCostModel()
    print(banner("C6: application lifecycle vs JVM process startup"))
    print(f"in-VM app launch+exit (measured): {measured_s * 1000:8.2f} ms")
    print(f"JVM process startup (model):      "
          f"{model.jvm_startup_s * 1000:8.2f} ms")
    print(f"advantage of the single-JVM path: "
          f"x{model.jvm_startup_s / measured_s:0.0f}")
    assert measured_s < model.jvm_startup_s, \
        "paper claim: app launch must beat JVM startup"


def test_bench_concurrent_application_burst(benchmark, bench_mvm):
    """Ten applications launched together and all reaped."""
    class_name = register_main(bench_mvm.vm, "BurstNoop",
                               lambda jclass, ctx, args: 0)

    with bench_mvm.host_session():
        def burst():
            apps = [bench_mvm.launch(ExecSpec(class_name)) for _ in range(10)]
            for app in apps:
                assert app.wait_for(10) == 0

        benchmark.pedantic(burst, rounds=10, iterations=1, warmup_rounds=2)
    per_app_ms = benchmark.stats.stats.mean * 1000 / 10
    print(banner("C6b: concurrent burst of 10 applications"))
    print(f"amortized per-application cost: {per_app_ms:8.2f} ms")


def test_bench_full_vm_boot(benchmark):
    """The cost of one whole (multi-processing) VM, for the C1 ratio."""
    def boot_and_stop():
        mvm = MultiProcVM.boot()
        mvm.shutdown()

    benchmark.pedantic(boot_and_stop, rounds=10, iterations=1,
                       warmup_rounds=2)
    print(banner("C6c: full VM boot+shutdown (the unit N-JVM deployments "
                 "pay per application)"))
    print(f"measured: {benchmark.stats.stats.mean * 1000:8.2f} ms")
