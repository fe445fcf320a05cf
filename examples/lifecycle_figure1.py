#!/usr/bin/env python
"""Figure 1, live: the lifetime of a JVM — and of an application.

Part 1 uses a *plain* (single-application) VM and shows the classic rule:
the JVM exits exactly when the last non-daemon thread finishes, stopping
daemon threads mid-work.

Part 2 shows the multi-processing re-reading of the same rule (Feature 1):
an application with the same thread structure ends — and the JVM keeps
running, ready for the next application.

Run with::

    python examples/lifecycle_figure1.py
"""

import time

from repro import (
    ClassMaterial,
    ExecSpec,
    JThread,
    MultiProcVM,
    VirtualMachine,
)
from repro.jvm.errors import ThreadDeath
from repro.jvm.threads import checkpoint


def build_demo_material(tag: str) -> ClassMaterial:
    material = ClassMaterial(f"demo.Lifecycle{tag}")

    @material.member
    def main(jclass, ctx, args):
        out = ctx.stdout

        def daemon_body():
            try:
                while True:
                    checkpoint()
                    time.sleep(0.01)
            except ThreadDeath:
                out.println(f"[{tag}] daemon stopped in the middle of "
                            "whatever it was doing")
                raise

        def worker_body():
            out.println(f"[{tag}] non-daemon worker running ...")
            JThread.sleep(0.2)
            out.println(f"[{tag}] non-daemon worker done")

        JThread(target=daemon_body, name=f"{tag}-daemon",
                daemon=True).start()
        JThread(target=worker_body, name=f"{tag}-worker",
                daemon=False).start()
        out.println(f"[{tag}] main returns now — but the worker is "
                    "non-daemon, so we keep running")

    return material


def part1_plain_vm() -> None:
    print("=== Part 1: a plain JVM (Figure 1) ===")
    vm = VirtualMachine().boot()
    vm.registry.register(build_demo_material("jvm"))
    vm.run_main("demo.Lifecyclejvm")
    terminated = vm.await_termination(5.0)
    print(vm.out.target.to_text())
    print(f"VM terminated: {terminated} (exit code {vm.exit_code})\n")


def part2_multiproc_vm() -> None:
    print("=== Part 2: the same lifecycle, as an application "
          "(Feature 1) ===")
    mvm = MultiProcVM.boot()
    mvm.vm.registry.register(build_demo_material("app"))
    with mvm.host_session():
        app = mvm.launch(ExecSpec("demo.Lifecycleapp", [], stdout=mvm.vm.out))
        code = app.wait_for(5)
        print(mvm.vm.out.target.to_text())
        print(f"application ended with code {code}; "
              f"VM still running: {not mvm.vm.terminated}")
        # The VM is alive and well: run another application.
        echo = mvm.launch(ExecSpec("tools.Echo", ["the", "vm", "survived"],
                                   stdout=mvm.vm.out))
        echo.wait_for(5)
    print(mvm.vm.out.target.to_text().splitlines()[-1])
    mvm.shutdown()
    print(f"VM shut down explicitly: {mvm.vm.terminated}")


if __name__ == "__main__":
    part1_plain_vm()
    part2_multiproc_vm()
