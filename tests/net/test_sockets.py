"""Security-checked sockets: SocketPermission enforcement end-to-end."""

import pytest

from repro.core.execspec import ExecSpec
from repro.jvm.errors import SecurityException, SocketException
from repro.jvm.threads import JThread
from repro.net.sockets import ServerSocket, Socket
from repro.security.permissions import SocketPermission


@pytest.fixture
def remote(mvm):
    """A remote host with an echo listener on port 7."""
    host = mvm.vm.network.add_host("remote.example.com")
    listener = host.listen(7)

    def echo_loop():
        endpoint = listener.accept(timeout=5)
        if endpoint is None:
            return
        data = endpoint.input.read(1024)
        endpoint.output.write(b"echo:" + data)
        endpoint.close()

    thread = JThread(target=echo_loop, name="echo-server",
                     group=mvm.vm.root_group, daemon=True)
    thread.start()
    return host


def socket_policy_grant(mvm, host_spec):
    mvm.vm.policy.add_grant(
        [SocketPermission(host_spec, "connect,resolve")],
        code_base="file:/usr/local/java/-")


class TestClientSocket:
    def test_connect_denied_without_permission(self, host, register_app,
                                               remote):
        outcome = {}

        def main(jclass, ctx, args):
            try:
                Socket(ctx, "remote.example.com", 7)
                outcome["result"] = "connected"
            except SecurityException:
                outcome["result"] = "denied"
            return 0

        app = host.launch(ExecSpec(register_app("NetDenied", main)))
        assert app.wait_for(5) == 0
        assert outcome["result"] == "denied"

    def test_connect_allowed_with_grant(self, host, register_app, remote):
        socket_policy_grant(host, "remote.example.com:1-1023")
        outcome = {}

        def main(jclass, ctx, args):
            socket = Socket(ctx, "remote.example.com", 7)
            socket.send_text("hi")
            outcome["reply"] = socket.receive_text(7)
            socket.close()
            return 0

        app = host.launch(ExecSpec(register_app("NetAllowed", main)))
        assert app.wait_for(5) == 0
        assert outcome["reply"] == "echo:hi"

    def test_grant_is_host_specific(self, host, register_app, remote):
        socket_policy_grant(host, "other.example.com")
        outcome = {}

        def main(jclass, ctx, args):
            try:
                Socket(ctx, "remote.example.com", 7)
                outcome["result"] = "connected"
            except SecurityException:
                outcome["result"] = "denied"
            return 0

        app = host.launch(ExecSpec(register_app("WrongHost", main)))
        assert app.wait_for(5) == 0
        assert outcome["result"] == "denied"

    def test_host_code_connects_freely(self, host, remote):
        ctx = host.initial.context()
        socket = Socket(ctx, "remote.example.com", 7)
        socket.send_text("root")
        assert socket.receive_text(9) == "echo:root"
        socket.close()


class TestServerSocket:
    def test_listen_accept_roundtrip(self, host):
        ctx = host.initial.context()
        server = ServerSocket(ctx, 2000)
        fabric = host.vm.network
        client_end = fabric.connect("elsewhere",
                                    host.vm.machine.hostname, 2000)
        accepted = server.accept(timeout=2)
        client_end.output.write(b"msg")
        assert accepted.input.read(3) == b"msg"
        accepted.close()
        client_end.close()
        server.close()

    def test_accept_timeout_raises(self, host):
        ctx = host.initial.context()
        server = ServerSocket(ctx, 2001)
        with pytest.raises(SocketException):
            server.accept(timeout=0.1)
        server.close()

    def test_app_listen_denied_without_permission(self, host,
                                                  register_app):
        outcome = {}

        def main(jclass, ctx, args):
            try:
                ServerSocket(ctx, 2002)
                outcome["result"] = "listening"
            except SecurityException:
                outcome["result"] = "denied"
            return 0

        app = host.launch(ExecSpec(register_app("Listener", main)))
        assert app.wait_for(5) == 0
        assert outcome["result"] == "denied"
