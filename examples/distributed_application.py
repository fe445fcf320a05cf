#!/usr/bin/env python
"""Applications spanning JVMs — the paper's Section 8 future work, built.

    "it is conceivable that the notion of an application as a set of
    threads can be extended to include threads of other JVM's, possibly on
    other hosts."

Two multi-processing JVMs boot on two simulated hosts sharing one network.
JVM B runs the rexec daemon; from JVM A we:

1. run remote commands with ``rsh`` from an ordinary shell;
2. build a :class:`DistributedApplication` whose threads live in *both*
   JVMs, and tear the whole thing down with one call.

Run with::

    python examples/distributed_application.py
"""

import time

from repro import ExecSpec, MultiProcVM, Placement, launch
from repro.dist.client import DistributedApplication
from repro.io.streams import ByteArrayOutputStream, PrintStream
from repro.net.fabric import NetworkFabric
from repro.unixfs.machine import standard_process

HOST_A, HOST_B = "vm-a.example.com", "vm-b.example.com"


def main() -> None:
    fabric = NetworkFabric()
    mvm_a = MultiProcVM.boot(
        os_context=standard_process(hostname=HOST_A), network=fabric)
    mvm_b = MultiProcVM.boot(
        os_context=standard_process(hostname=HOST_B), network=fabric)

    # JVM B: start the rexec daemon.
    with mvm_b.host_session():
        mvm_b.exec("dist.RexecDaemon", ["7100"])
    while fabric.resolve(HOST_B)._listener(7100) is None:
        time.sleep(0.01)

    with mvm_a.host_session():
        # --- 1. rsh from a shell on JVM A --------------------------------
        sink = ByteArrayOutputStream()
        alice = mvm_a.vm.user_database.lookup("alice")
        shell = mvm_a.exec(
            "tools.Shell",
            ["-c",
             "setprop rsh.password wonderland",
             "echo --- local identity:", "whoami", "hostname",
             f"echo --- remote identity via rsh {HOST_B}:",
             f"rsh {HOST_B} whoami",
             f"rsh {HOST_B} hostname",
             f"rsh {HOST_B} cat /etc/motd"],
            user=alice, stdout=PrintStream(sink), stderr=PrintStream(sink))
        shell.wait_for(30)
        print(sink.to_text())

        # --- 2. one application, threads in two JVMs ---------------------
        ctx = mvm_a.initial.context()
        distributed = DistributedApplication(
            local=mvm_a.exec("tools.Sleep", ["30"]))
        distributed.add_remote(launch(
            ExecSpec("tools.Sleep", ("30",), user="alice",
                     password="wonderland",
                     placement=Placement.remote(HOST_B)),
            ctx=ctx))
        print("distributed application running:",
              f"local part {distributed.local.name} on {HOST_A},",
              f"remote part on {HOST_B}")
        print("terminated?", distributed.terminated)
        distributed.destroy_all()
        codes = distributed.wait_all(10)
        print("destroyed everywhere; exit codes:", codes)

    mvm_a.shutdown()
    mvm_b.shutdown()
    print("both JVMs terminated cleanly")


if __name__ == "__main__":
    main()
