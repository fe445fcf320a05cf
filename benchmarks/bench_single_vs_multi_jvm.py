"""Experiment C1 — N applications: N JVM processes vs one MPJVM.

Section 2: "a small device or an old computer system may be under-powered
and equipped with inadequate memory such that it is crippling to try to
start multiple JVMs."

We measure the single-VM side for real — per-application memory (via
tracemalloc over parked applications) and per-application launch time —
and put the calibrated process model (see ``repro.procsim.model``) next to
it for the N-process side, then print the paper's comparison for several
fleet sizes.
"""

import sys
import tracemalloc

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _common import banner, bench_mvm, register_main  # noqa: E402,F401

from repro.core.execspec import ExecSpec  # noqa: E402
from repro.jvm.threads import JThread  # noqa: E402
from repro.procsim.model import (  # noqa: E402
    ProcessCostModel,
    format_table,
    section2_table,
)


def _parked_main(jclass, ctx, args):
    JThread.sleep(60.0)
    return 0


def test_bench_per_application_memory(benchmark, bench_mvm):
    """Real per-application memory of the single-VM design."""
    class_name = register_main(bench_mvm.vm, "Parked", _parked_main)
    sample = 20

    with bench_mvm.host_session():
        def measure() -> float:
            tracemalloc.start()
            before, __ = tracemalloc.get_traced_memory()
            apps = [bench_mvm.launch(ExecSpec(class_name))
                    for _ in range(sample)]
            after, __ = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            for app in apps:
                app.destroy()
            for app in apps:
                app.wait_for(10)
            return (after - before) / sample

        per_app_bytes = benchmark.pedantic(measure, rounds=5, iterations=1,
                                           warmup_rounds=1)
    per_app_kb = per_app_bytes / 1024
    model = ProcessCostModel()
    print(banner("C1: memory per additional application"))
    print(f"one more app in the MPJVM (measured):  {per_app_kb:10.1f} KB")
    print(f"one more JVM process (model):          "
          f"{model.jvm_base_memory_kb:10.1f} KB")
    print(f"advantage: x{model.jvm_base_memory_kb / max(per_app_kb, 0.001):0.0f}")
    assert per_app_kb < model.jvm_base_memory_kb, \
        "paper claim: apps must be much lighter than JVM processes"


def test_bench_section2_comparison_table(benchmark, bench_mvm):
    """The full Section 2 table, with the launch time measured live."""
    class_name = register_main(bench_mvm.vm, "NoopRow",
                               lambda jclass, ctx, args: 0)

    with bench_mvm.host_session():
        def launch():
            app = bench_mvm.launch(ExecSpec(class_name))
            assert app.wait_for(10) == 0

        benchmark.pedantic(launch, rounds=20, iterations=1,
                           warmup_rounds=3)
    measured_launch_s = benchmark.stats.stats.mean
    model = ProcessCostModel()
    for n_apps in (2, 4, 8, 16):
        rows = section2_table(n_apps, model,
                              measured_launch_s=measured_launch_s)
        print(format_table(
            rows, banner(f"C1: {n_apps} applications — N JVMs vs 1 MPJVM")))
        memory_row, startup_row = rows[0], rows[1]
        assert memory_row.advantage > 1.0
        assert startup_row.advantage > 1.0
        # The memory advantage grows with fleet size (the small-device
        # argument gets stronger, not weaker).
    small = section2_table(2, model, measured_launch_s=measured_launch_s)
    large = section2_table(16, model, measured_launch_s=measured_launch_s)
    assert large[0].advantage > small[0].advantage
