"""Distributed applications: threads of other JVMs (Section 8 future work).

Two multi-processing JVMs on two simulated hosts share one network fabric;
JVM B runs the rexec daemon, JVM A launches remote work on it.
"""

import time

import pytest

from repro.core.execspec import ExecSpec, Placement, launch
from repro.core.launcher import MultiProcVM
from repro.dist.client import DistributedApplication
from repro.io.streams import ByteArrayOutputStream, PrintStream
from repro.jvm.errors import RemoteException, SecurityException
from repro.net.fabric import NetworkFabric
from repro.unixfs.machine import standard_process

HOST_A = "vm-a.example.com"
HOST_B = "vm-b.example.com"
PORT = 7100


def rexec(ctx, class_name, args, user="alice", password="wonderland"):
    """Launch ``class_name`` on JVM B with ``user``'s credentials."""
    return launch(ExecSpec(class_name, tuple(args), user=user,
                           password=password,
                           placement=Placement.remote(HOST_B, PORT)),
                  ctx=ctx)


@pytest.fixture
def cluster():
    """Two booted MPJVMs on one fabric; B runs the rexec daemon."""
    fabric = NetworkFabric()
    mvm_a = MultiProcVM.boot(
        os_context=standard_process(hostname=HOST_A), network=fabric)
    mvm_b = MultiProcVM.boot(
        os_context=standard_process(hostname=HOST_B), network=fabric)
    with mvm_b.host_session():
        daemon = mvm_b.launch(ExecSpec("dist.RexecDaemon", [str(PORT)]))
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        if fabric.resolve(HOST_B)._listener(PORT) is not None:
            break
        time.sleep(0.01)
    assert fabric.resolve(HOST_B)._listener(PORT) is not None
    yield mvm_a, mvm_b, daemon
    mvm_a.shutdown()
    mvm_b.shutdown()


class TestRemoteExec:
    def test_remote_command_runs_on_other_jvm(self, cluster):
        mvm_a, mvm_b, __ = cluster
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            remote = rexec(ctx, "tools.Echo", ["hello", "from", "afar"])
            assert remote.wait_for(10) == 0
        assert remote.output_text() == "hello from afar\n"

    def test_remote_application_runs_as_authenticated_user(self, cluster):
        mvm_a, mvm_b, __ = cluster
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            remote = rexec(ctx, "tools.Whoami", [],
                           user="bob", password="builder")
            assert remote.wait_for(10) == 0
        assert remote.output_text().strip() == "bob"

    def test_remote_identity_controls_remote_files(self, cluster):
        """User-based access control holds *on the remote JVM*."""
        mvm_a, mvm_b, __ = cluster
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            allowed = rexec(ctx, "tools.Cat", ["/home/alice/notes.txt"])
            assert allowed.wait_for(10) == 0
            denied = rexec(ctx, "tools.Cat", ["/home/bob/todo.txt"])
            assert denied.wait_for(10) == 1
        assert "private notes" in allowed.output_text()
        assert "AccessControlException" in denied.output_text()

    def test_bad_credentials_rejected(self, cluster):
        mvm_a, __, ___ = cluster
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            remote = rexec(ctx, "tools.Echo", ["x"],
                           user="alice", password="wrong")
            with pytest.raises(RemoteException):
                remote.wait_for(10)

    def test_unknown_class_reported(self, cluster):
        mvm_a, __, ___ = cluster
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            remote = rexec(ctx, "no.Such", [])
            with pytest.raises(RemoteException):
                remote.wait_for(10)

    def test_remote_exit_code_propagates(self, cluster):
        mvm_a, __, ___ = cluster
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            remote = rexec(ctx, "tools.False", [])
            assert remote.wait_for(10) == 1

    def test_destroy_reaches_the_remote_jvm(self, cluster):
        mvm_a, mvm_b, __ = cluster
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            remote = rexec(ctx, "tools.Sleep", ["30"])
            assert remote.wait_for(0.3) is None  # still running over there
            remote.destroy()
            code = remote.wait_for(10)
        assert code is not None and code != 0  # killed


class TestDistributedApplication:
    def test_threads_span_two_jvms(self, cluster):
        """The §8 sentence, literally: one application notion covering a
        local part and a remote part."""
        mvm_a, mvm_b, __ = cluster
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            local = mvm_a.launch(ExecSpec("tools.Sleep", ["30"]))
            distributed = DistributedApplication(local=local)
            distributed.add_remote(rexec(ctx, "tools.Sleep", ["30"]))
            assert not distributed.terminated
            distributed.destroy_all()
            codes = distributed.wait_all(10)
        assert len(codes) == 2
        assert all(code is not None for code in codes)
        assert distributed.terminated

    def test_collective_wait_collects_all_codes(self, cluster):
        mvm_a, __, ___ = cluster
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            distributed = DistributedApplication(
                local=mvm_a.launch(ExecSpec("tools.True", [])))
            distributed.add_remote(rexec(ctx, "tools.False", []))
            codes = distributed.wait_all(10)
        assert codes == [0, 1]


class TestRshTool:
    def test_rsh_from_shell(self, cluster):
        mvm_a, __, ___ = cluster
        with mvm_a.host_session():
            sink = ByteArrayOutputStream()
            alice = mvm_a.vm.user_database.lookup("alice")
            shell = mvm_a.launch(ExecSpec(
                "tools.Shell",
                ["-c", "setprop rsh.password wonderland",
                 f"rsh {HOST_B} whoami",
                 f"rsh {HOST_B} echo remote says hi"],
                user=alice,
                stdout=PrintStream(sink), stderr=PrintStream(sink)))
            assert shell.wait_for(15) == 0
        text = sink.to_text()
        assert "alice" in text
        assert "remote says hi" in text

    def test_rsh_bad_password_fails_cleanly(self, cluster):
        mvm_a, __, ___ = cluster
        with mvm_a.host_session():
            sink = ByteArrayOutputStream()
            alice = mvm_a.vm.user_database.lookup("alice")
            shell = mvm_a.launch(ExecSpec(
                "tools.Shell",
                ["-c", "setprop rsh.password nope",
                 f"rsh {HOST_B} whoami", "echo rc=$?"],
                user=alice,
                stdout=PrintStream(sink), stderr=PrintStream(sink)))
            assert shell.wait_for(15) == 0
        assert "rsh:" in sink.to_text()
        assert "rc=1" in sink.to_text()

    def test_rsh_usage_error(self, cluster):
        mvm_a, __, ___ = cluster
        with mvm_a.host_session():
            sink = ByteArrayOutputStream()
            shell = mvm_a.launch(
                ExecSpec("tools.Shell", ["-c", "rsh onlyhost"],
                         stdout=PrintStream(sink),
                         stderr=PrintStream(sink)))
            # sh -c reports the last command's status: rsh's usage error.
            assert shell.wait_for(15) == 2
        assert "usage:" in sink.to_text()


class TestDaemonRobustness:
    def test_daemon_survives_garbage_connection(self, cluster):
        mvm_a, mvm_b, daemon = cluster
        fabric = mvm_a.vm.network
        endpoint = fabric.connect(HOST_A, HOST_B, PORT)
        endpoint.output.write(b"this is not json\n")
        endpoint.close()
        # The daemon keeps serving proper requests afterwards.
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            remote = rexec(ctx, "tools.Echo", ["ok"])
            assert remote.wait_for(10) == 0
        assert daemon.running

    def test_daemon_dies_cleanly_with_its_vm(self, cluster):
        __, mvm_b, daemon = cluster
        daemon.destroy()
        assert daemon.wait_for(10) is not None
        assert daemon.terminated
