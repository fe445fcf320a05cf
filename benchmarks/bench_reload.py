"""Experiment C4 / F5 — the cost of reloading System per application.

Section 5.5 buys isolation (own streams, own security-manager slot) at the
price of re-defining the System class once per application.  This bench
quantifies that price and compares it with the plain delegated (shared)
load, and shows where it sits inside the whole application launch.
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _common import banner, bench_mvm, register_main  # noqa: E402,F401

from repro.core.execspec import ExecSpec  # noqa: E402
from repro.core.reload import ApplicationClassLoader  # noqa: E402


def test_bench_system_reload_per_application(benchmark, bench_mvm):
    """Define a fresh System copy (new loader + new statics + init)."""
    counter = [0]

    def reload_once():
        counter[0] += 1
        loader = ApplicationClassLoader(bench_mvm.vm.boot_loader,
                                        f"bench-{counter[0]}")
        jclass = loader.load_class("java.lang.System")
        assert jclass.loader is loader

    benchmark(reload_once)
    reload_us = benchmark.stats.stats.mean * 1e6
    print(banner("C4: System reload cost (per application)"))
    print(f"re-define System through a fresh loader: {reload_us:8.1f} us")


def test_bench_shared_load_baseline(benchmark, bench_mvm):
    """Baseline: the delegated (cached, shared) load of a system class."""
    loader = ApplicationClassLoader(bench_mvm.vm.boot_loader, "shared")
    loader.load_class("java.lang.SystemProperties")

    def shared_load():
        loader.load_class("java.lang.SystemProperties")

    benchmark(shared_load)
    print(banner("C4b: shared (delegated, cached) class load baseline"))
    print(f"mean: {benchmark.stats.stats.mean * 1e9:8.1f} ns")


def test_bench_extra_reloadable_classes_ablation(benchmark, bench_mvm):
    """Section 5.5's open question ("find out which of the JVM-wide state
    truly is JVM-wide") implies the reloadable set may grow; this ablation
    measures launch-side cost as it does."""
    from repro.jvm.classloading import ClassMaterial
    extra_names = []
    for index in range(16):
        name = f"bench.PerAppState{index}"
        if name not in bench_mvm.vm.registry:
            material = ClassMaterial(name)
            material.static_init = (
                lambda jclass: jclass.statics.update({"slot": 0}))
            bench_mvm.vm.registry.register(material)
        extra_names.append(name)

    import time
    results = {}
    for count in (0, 4, 16):
        chosen = extra_names[:count]
        loops = 200
        start = time.perf_counter()
        for index in range(loops):
            loader = ApplicationClassLoader(
                bench_mvm.vm.boot_loader, f"abl-{count}-{index}",
                extra_reloadable=chosen)
            loader.load_class("java.lang.System")
            for name in chosen:
                loader.load_class(name)
        results[count] = (time.perf_counter() - start) / loops * 1e6

    def baseline():
        loader = ApplicationClassLoader(bench_mvm.vm.boot_loader, "abl")
        loader.load_class("java.lang.System")

    benchmark(baseline)
    print(banner("C4d: reload-set size ablation (per-application cost)"))
    for count, micros in results.items():
        print(f"System + {count:2d} extra reloadable classes: "
              f"{micros:8.1f} us")
    assert results[16] > results[0], "more reloads must cost more"


def test_bench_reload_share_of_app_launch(benchmark, bench_mvm):
    """How much of a whole application launch the reload machinery is."""
    class_name = register_main(bench_mvm.vm, "ReloadShare",
                               lambda jclass, ctx, args: 0)

    with bench_mvm.host_session():
        def launch():
            app = bench_mvm.launch(ExecSpec(class_name))
            assert app.wait_for(10) == 0

        benchmark.pedantic(launch, rounds=20, iterations=1,
                           warmup_rounds=3)
    launch_us = benchmark.stats.stats.mean * 1e6

    # Measure the reload alone, inline, for the share computation.
    import time
    loops = 200
    start = time.perf_counter()
    for index in range(loops):
        loader = ApplicationClassLoader(bench_mvm.vm.boot_loader,
                                        f"share-{index}")
        loader.load_class("java.lang.System")
    reload_us = (time.perf_counter() - start) / loops * 1e6
    print(banner("C4c: reload share of application launch"))
    print(f"full launch+exit:   {launch_us:8.1f} us")
    print(f"System reload only: {reload_us:8.1f} us "
          f"({100 * reload_us / launch_us:0.1f}% of launch)")
    assert reload_us < launch_us, \
        "reloading must not dominate application launch"
