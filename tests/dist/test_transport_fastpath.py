"""The transport: pooling, byte-exact framing, coalescing, the wire format.

Same two-JVM setup as ``test_remote_exec`` — these tests pin down how the
transport behaves: connections outlive one exec and come back from the
per-VM pool, remote stdout is byte-exact, small writes coalesce into few
frames, every client frame is ``tag|len|payload``, and a JSON-lines
request is refused before anything runs.
"""

import json
import time

import pytest

from repro.core.execspec import ExecSpec, Placement, launch
from repro.core.launcher import MultiProcVM
from repro.dist.pool import ChannelPool, pool_for
from repro.dist.protocol import TAG_JSON, encode_frame, read_frame
from repro.io.streams import BufferedInputStream
from repro.jvm.errors import RemoteException, SecurityException
from repro.jvm.threads import JThread
from repro.net.fabric import NetworkFabric
from repro.unixfs.machine import standard_process

from tests.conftest import make_app

HOST_A = "vm-a.example.com"
HOST_B = "vm-b.example.com"
PEER_HOST = "peer.example.com"
PORT = 7100


def rexec(ctx, class_name, args, host=HOST_B):
    """Launch ``class_name`` on ``host`` with alice's credentials."""
    return launch(ExecSpec(class_name, tuple(args), user="alice",
                           password="wonderland",
                           placement=Placement.remote(host, PORT)),
                  ctx=ctx)


@pytest.fixture
def pair():
    """Two booted MPJVMs on one fabric; B runs the rexec daemon."""
    fabric = NetworkFabric()
    mvm_a = MultiProcVM.boot(
        os_context=standard_process(hostname=HOST_A), network=fabric)
    mvm_b = MultiProcVM.boot(
        os_context=standard_process(hostname=HOST_B), network=fabric)
    with mvm_b.host_session():
        mvm_b.launch(ExecSpec("dist.RexecDaemon", [str(PORT)]))
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        if fabric.resolve(HOST_B)._listener(PORT) is not None:
            break
        time.sleep(0.01)
    assert fabric.resolve(HOST_B)._listener(PORT) is not None
    yield mvm_a, mvm_b, fabric
    mvm_a.shutdown()
    mvm_b.shutdown()


class TestConnectionPool:
    def test_clean_exit_parks_the_connection(self, pair):
        mvm_a, __, ___ = pair
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            remote = rexec(ctx, "tools.Echo", ["one"])
            assert remote.wait_for(10) == 0
            metrics = mvm_a.vm.telemetry.metrics
            assert metrics.total("dist.pool.idle") == 1
            assert list(pool_for(mvm_a.vm)._idle) == [(HOST_B, PORT)]

    def test_wait_for_returns_after_the_channel_is_parked(self, pair,
                                                          monkeypatch):
        """A slow park must not let ``wait_for`` return early: the
        channel is idle in the pool by the time the waiter wakes."""
        release = ChannelPool.release

        def slow_release(pool, pooled):
            time.sleep(0.1)
            release(pool, pooled)

        monkeypatch.setattr(ChannelPool, "release", slow_release)
        mvm_a, __, ___ = pair
        with mvm_a.host_session():
            remote = rexec(mvm_a.initial.context(), "tools.Echo", ["one"])
            assert remote.wait_for(5) == 0
            assert mvm_a.vm.telemetry.metrics.total("dist.pool.idle") == 1

    def test_second_exec_is_a_pool_hit(self, pair):
        mvm_a, __, ___ = pair
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            metrics = mvm_a.vm.telemetry.metrics
            first = rexec(ctx, "tools.Echo", ["one"])
            assert first.wait_for(10) == 0
            assert metrics.total("dist.pool.idle") == 1
            hits_before = metrics.total("dist.pool.hit")
            second = rexec(ctx, "tools.Echo", ["two"])
            assert second.wait_for(10) == 0
        assert second.output_text() == "two\n"
        assert metrics.total("dist.pool.hit") == hits_before + 1

    def test_node_death_invalidates_idle_channels(self, pair):
        mvm_a, mvm_b, __ = pair
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            warm = rexec(ctx, "tools.Echo", ["warm"])
            assert warm.wait_for(10) == 0
            metrics = mvm_a.vm.telemetry.metrics
            assert metrics.total("dist.pool.idle") == 1
            victim = rexec(ctx, "tools.Sleep", ["30"])
            assert victim.wait_for(0.3) is None  # running over there
            # Sever the victim's transport abruptly — the network died,
            # not the remote application.
            victim._conn.endpoint.close()
            with pytest.raises(RemoteException):
                victim.wait_for(10)
            assert victim.transport_lost
            # transport_lost dropped the parked channel too: a retry will
            # never be handed a connection to the dead node.
            assert metrics.total("dist.pool.idle") == 0

    def test_check_connect_applies_to_pool_hits(self, pair):
        """A parked channel never launders connect permission: an
        application without a socket grant is denied on acquire even
        though an idle channel to that exact endpoint exists."""
        mvm_a, __, ___ = pair
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            warm = rexec(ctx, "tools.Echo", ["warm"])
            assert warm.wait_for(10) == 0
            metrics = mvm_a.vm.telemetry.metrics
            assert metrics.total("dist.pool.idle") == 1
            outcome = {}

            def main(jclass, app_ctx, args):
                try:
                    pool_for(app_ctx.vm).acquire(app_ctx, HOST_B, PORT)
                    outcome["result"] = "acquired"
                except SecurityException:
                    outcome["result"] = "denied"
                return 0

            app = mvm_a.launch(ExecSpec(make_app(mvm_a.vm, "PoolSnoop", main)))
            assert app.wait_for(10) == 0
            assert outcome["result"] == "denied"
            # the denial consumed nothing
            assert metrics.total("dist.pool.idle") == 1


class TestByteExactOutput:
    RAW = b"\xff\xfe raw \x00 bytes \x80\n"

    def register_binary_writer(self, mvm):
        raw = self.RAW

        def main(jclass, ctx, args):
            ctx.stdout.write(raw)
            return 0

        return make_app(mvm.vm, "BinaryWriter", main)

    def test_binary_framing_preserves_non_utf8_stdout(self, pair):
        mvm_a, mvm_b, __ = pair
        class_name = self.register_binary_writer(mvm_b)
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            remote = rexec(ctx, class_name, [])
            assert remote.wait_for(10) == 0
        assert remote.output_bytes() == self.RAW


class TestCoalescing:
    def test_byte_at_a_time_stdout_costs_one_frame_per_line(self, pair):
        mvm_a, mvm_b, __ = pair
        line = b"coalesced hello\n"

        def main(jclass, ctx, args):
            for byte in line:
                ctx.stdout.write(bytes([byte]))
            return 0

        class_name = make_app(mvm_b.vm, "ByteAtATime", main)
        metrics = mvm_b.vm.telemetry.metrics
        frames_before = metrics.total("dist.frames.sent", type="o")
        coalesced_before = metrics.total("dist.frames.coalesced")
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            remote = rexec(ctx, class_name, [])
            assert remote.wait_for(10) == 0
        assert remote.output_bytes() == line
        frames = metrics.total("dist.frames.sent", type="o") - frames_before
        coalesced = metrics.total("dist.frames.coalesced") - coalesced_before
        assert frames == 1  # 16 writes, one frame
        assert coalesced == len(line) - 1


class TestWireFormat:
    def test_client_request_is_a_json_tagged_frame(self, pair):
        """The request travels as ``TAG_JSON | len | payload`` with no
        protocol-version key; an exit frame back ends the exec cleanly."""
        mvm_a, __, fabric = pair
        listener = fabric.add_host(PEER_HOST).listen(PORT)
        seen = {}

        def peer():
            endpoint = listener.accept(timeout=5)
            if endpoint is None:
                return
            source = BufferedInputStream(endpoint.input)
            seen["first_byte"] = source.peek_byte()
            seen["request"] = read_frame(source)
            endpoint.output.write(encode_frame({"t": "x", "code": 0}))

        thread = JThread(target=peer, name="frame-peer",
                         group=mvm_a.vm.root_group, daemon=True)
        thread.start()
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            remote = rexec(ctx, "tools.Echo", ["hi"], host=PEER_HOST)
            assert remote.wait_for(10) == 0
        thread.join(5)
        assert seen["first_byte"] == TAG_JSON
        request = seen["request"]
        assert request["class_name"] == "tools.Echo"
        assert request["args"] == ["hi"]
        assert "proto" not in request

    def test_json_lines_request_is_closed_unlaunched(self, pair,
                                                     monkeypatch):
        """A JSON-lines request is not a frame: the daemon hangs up
        without authenticating anyone or launching anything."""
        __, mvm_b, fabric = pair
        database = mvm_b.vm.user_database
        authentications = []
        original = database.authenticate

        def counting(*args, **kwargs):
            authentications.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(database, "authenticate", counting)
        metrics = mvm_b.vm.telemetry.metrics
        launched_before = metrics.total("apps.launched")
        endpoint = fabric.connect(HOST_A, HOST_B, PORT)
        request = {"user": "alice", "password": "wonderland",
                   "class_name": "tools.Echo", "args": ["never"]}
        endpoint.output.write((json.dumps(request) + "\n").encode("utf-8"))
        assert endpoint.input.read_all() == b""  # closed, no reply
        endpoint.close()
        assert authentications == []
        assert metrics.total("apps.launched") == launched_before


class TestVerifiedCredentials:
    def test_pooled_execs_derive_once_and_see_disable_next(self, pair):
        """Twenty execs as alice over one pooled channel pay PBKDF2 once;
        disabling alice on B refuses the very next exec unlaunched."""
        mvm_a, mvm_b, __ = pair
        metrics = mvm_b.vm.telemetry.metrics
        derives_before = metrics.total("security.auth.derive")
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            pool_metrics = mvm_a.vm.telemetry.metrics
            for index in range(20):
                remote = rexec(ctx, "tools.Echo", [str(index)])
                assert remote.wait_for(10) == 0
                assert remote.output_text() == f"{index}\n"
            assert pool_metrics.total("dist.pool.miss") == 1
            assert pool_metrics.total("dist.pool.hit") == 19
            assert metrics.total("security.auth.derive") \
                == derives_before + 1
            assert metrics.total("security.auth.cache_hit") >= 19

            mvm_b.vm.user_database.disable("alice")
            launched_before = metrics.total("apps.launched")
            refused = rexec(ctx, "tools.Echo", ["never"])
            with pytest.raises(RemoteException):
                refused.wait_for(10)
        assert pool_metrics.total("dist.pool.hit") == 20
        assert metrics.total("apps.launched") == launched_before
