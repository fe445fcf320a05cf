"""The three closed-loop workloads of the end-to-end benchmark.

Each workload runs as one client thread in a closed loop: the next op
starts only after the previous one is verified.  A *round* boots fresh VMs
(``setup``), runs a fixed number of ops, and shuts the VMs down
(``teardown``).  The program receives only inputs generated from the
seed.

An op is split into the three calls the client times separately in the
traced run: ``launch(k)`` returns a handle, ``wait(handle)`` returns the
exit code (None on timeout), and ``check(handle, code, expected)`` returns
the verified output size in bytes, or None when the output is wrong.
"""

from __future__ import annotations

import random
import time

from repro import MultiProcVM
from repro.core.execspec import ExecSpec, Placement
from repro.io.streams import ByteArrayOutputStream, PrintStream
from repro.jvm.classloading import ClassMaterial
from repro.net.fabric import NetworkFabric
from repro.security.codesource import CodeSource
from repro.unixfs.machine import standard_process

#: How long one op may take before it counts as a failure (the slowest op
#: takes about 0.15 s).
OP_TIMEOUT_S = 10.0

WORDS = ("alpha", "bravo", "delta", "kappa", "omega", "sigma", "theta",
         "zulu")


def _numbers(rng: random.Random, count: int) -> list[str]:
    return [str(rng.randrange(10 ** 8, 10 ** 9)) for _ in range(count)]


class LaunchStorm:
    """Launch a trivial task-backed app that prints ``hello <k>``.

    Isolates the application lifecycle and reaper, the per-application
    ``System`` reload, class loading, the exec-time checks and the
    scheduler; bypasses pipes, the shell and dist.
    """

    name = "launch_storm"
    ops_per_round = 3000
    warmup_ops = 200

    def setup(self, rng: random.Random, ops: int) -> None:
        self.tokens = _numbers(rng, ops)
        self.mvm = MultiProcVM.boot()
        self.vms = [self.mvm.vm]
        material = ClassMaterial(
            "perfbench.Hello",
            code_source=CodeSource(
                "file:/usr/local/java/apps/hello/Hello.class"))

        def main(jclass, ctx, args):
            ctx.stdout.println(f"hello {args[0]}")
            return 0
            yield  # a generator main: the app runs as a scheduler task

        material.members["main"] = main
        self.mvm.vm.registry.register(material)
        self.session = self.mvm.host_session()
        self.session.__enter__()

    def expect(self, k: int) -> bytes:
        return f"hello {self.tokens[k]}\n".encode()

    def launch(self, k: int):
        sink = ByteArrayOutputStream()
        app = self.mvm.launch(ExecSpec("perfbench.Hello", (self.tokens[k],),
                                       stdout=PrintStream(sink)))
        return app, sink

    def wait(self, handle):
        app, _ = handle
        code = app.wait_for(OP_TIMEOUT_S)
        if code is None:
            app.destroy()
        return code

    def check(self, handle, code, expected: bytes):
        data = handle[1].to_bytes()
        return len(data) if code == 0 and data == expected else None

    def teardown(self) -> None:
        self.session.__exit__(None, None, None)
        self.mvm.shutdown()


class ShellPipeline:
    """``tools.Shell -c`` as alice: a streaming pipeline plus a redirect.

    Spends its time in the shell, ring pipes, the VFS, OS-thread stages and
    the user-permission path; bypasses dist, net and the scheduler.
    """

    name = "shell_pipeline"
    ops_per_round = 12
    warmup_ops = 1
    LINES = 3000
    DATA_PATH = "/home/alice/perfbench.txt"
    OUT_PATH = "/tmp/perfbench.out"

    def setup(self, rng: random.Random, ops: int) -> None:
        self.word = rng.choice(WORDS)
        lines = []
        for _ in range(self.LINES):
            first, second = rng.choice(WORDS), rng.choice(WORDS)
            number = str(rng.randrange(100, 1000))
            lines.append((f"{first} {number} {second}",
                          f"{first} {second} {number}",
                          f"{number} {first}-{second}")[rng.randrange(3)])
        self.data = "".join(line + "\n" for line in lines).encode()
        self.matches = sum(1 for line in lines if self.word in line)
        self.tokens = _numbers(rng, ops)
        self.mvm = MultiProcVM.boot()
        self.vms = [self.mvm.vm]
        os_context = self.mvm.vm.os_context
        os_context.vfs.write_file(self.DATA_PATH, self.data, os_context.user)
        self.alice = self.mvm.vm.user_database.lookup("alice")
        self.session = self.mvm.host_session()
        self.session.__enter__()

    def expect(self, k: int) -> bytes:
        return f"{self.matches}\n{self.tokens[k]}\n".encode()

    def launch(self, k: int):
        out, err = ByteArrayOutputStream(), ByteArrayOutputStream()
        script = ("-c",
                  f"cat {self.DATA_PATH} | grep {self.word} | wc -l",
                  f"echo {self.tokens[k]} > {self.OUT_PATH}",
                  f"cat {self.OUT_PATH}")
        app = self.mvm.launch(ExecSpec(
            "tools.Shell", script, user=self.alice,
            stdout=PrintStream(out), stderr=PrintStream(err)))
        return app, out, err

    def wait(self, handle):
        app = handle[0]
        code = app.wait_for(OP_TIMEOUT_S)
        if code is None:
            app.destroy()
        return code

    def check(self, handle, code, expected: bytes):
        _, out, err = handle
        data = out.to_bytes()
        ok = code == 0 and data == expected and not err.to_bytes()
        return len(data) if ok else None

    def teardown(self) -> None:
        self.session.__exit__(None, None, None)
        self.mvm.shutdown()


class RemoteExec:
    """``tools.Cat`` of a seeded file on VM B, launched from VM A.

    Exercises pooled frame transport, the rexec daemon, the fabric and
    per-exec re-authentication; bypasses the shell.
    """

    name = "remote_exec"
    ops_per_round = 600
    warmup_ops = 50
    HOST_A = "perfbench-a.example.com"
    HOST_B = "perfbench-b.example.com"
    PORT = 7100
    DATA_PATH = "/home/alice/perfbench-remote.txt"
    LINES = 100

    def setup(self, rng: random.Random, ops: int) -> None:
        self.data = "".join(
            f"{rng.choice(WORDS)} {rng.choice(WORDS)} "
            f"{rng.randrange(10 ** 6, 10 ** 7)} {rng.choice(WORDS)}\n"
            for _ in range(self.LINES)).encode()
        fabric = NetworkFabric()
        self.mvm_a = MultiProcVM.boot(
            os_context=standard_process(hostname=self.HOST_A),
            network=fabric)
        self.mvm_b = MultiProcVM.boot(
            os_context=standard_process(hostname=self.HOST_B),
            network=fabric)
        self.vms = [self.mvm_a.vm, self.mvm_b.vm]
        os_context = self.mvm_b.vm.os_context
        os_context.vfs.write_file(self.DATA_PATH, self.data, os_context.user)
        with self.mvm_b.host_session():
            self.mvm_b.launch(ExecSpec("dist.RexecDaemon", (str(self.PORT),)))
        host_b = fabric.resolve(self.HOST_B)
        deadline = time.monotonic() + 10.0
        while host_b._listener(self.PORT) is None:
            if time.monotonic() > deadline:
                raise RuntimeError("rexec daemon did not start listening")
            time.sleep(0.002)
        self.spec = ExecSpec("tools.Cat", (self.DATA_PATH,), user="alice",
                             password="wonderland",
                             placement=Placement.remote(self.HOST_B,
                                                        self.PORT))
        self.session = self.mvm_a.host_session()
        self.session.__enter__()

    def expect(self, k: int) -> bytes:
        return self.data

    def launch(self, k: int):
        return self.mvm_a.launch(self.spec)

    def wait(self, handle):
        code = handle.wait_for(OP_TIMEOUT_S)
        if code is None:
            handle.destroy()
        return code

    def check(self, handle, code, expected: bytes):
        try:
            data = handle.output_bytes()
            return len(data) if code == 0 and data == expected else None
        finally:
            handle.close()

    def teardown(self) -> None:
        self.session.__exit__(None, None, None)
        self.mvm_a.shutdown()
        self.mvm_b.shutdown()


WORKLOADS = {w.name: w for w in (LaunchStorm, ShellPipeline, RemoteExec)}
