"""Supervision satellites over the wire: limits travel, typed shedding.

Two multi-processing JVMs on one fabric, exactly like the dist tests;
JVM B additionally runs an admission controller, so this file proves
(1) ResourceLimits given to a remote/cluster launch are enforced on the
*target* VM, and (2) an overloaded VM sheds remote launches with a typed
AdmissionRejected instead of a generic RemoteException.
"""

import time

import pytest

from repro.core.application import ResourceLimitExceeded, ResourceLimits
from repro.core.execspec import ExecSpec, Placement
from repro.core.launcher import MultiProcVM
from repro.dist.protocol import limits_from_wire, limits_to_wire
from repro.net.fabric import NetworkFabric
from repro.super.admission import AdmissionPolicy, AdmissionRejected
from repro.unixfs.machine import standard_process
from tests.conftest import make_app

pytestmark = pytest.mark.supervision

HOST_A = "vm-a.example.com"
HOST_B = "vm-b.example.com"
PORT = 7100


def _boot_pair(admission=None):
    fabric = NetworkFabric()
    mvm_a = MultiProcVM.boot(
        os_context=standard_process(hostname=HOST_A), network=fabric)
    mvm_b = MultiProcVM.boot(
        os_context=standard_process(hostname=HOST_B), network=fabric,
        admission=admission)
    with mvm_b.host_session():
        mvm_b.launch(ExecSpec("dist.RexecDaemon", (str(PORT),)))
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        if fabric.resolve(HOST_B)._listener(PORT) is not None:
            break
        time.sleep(0.01)
    assert fabric.resolve(HOST_B)._listener(PORT) is not None
    return fabric, mvm_a, mvm_b


@pytest.fixture
def pair():
    fabric, mvm_a, mvm_b = _boot_pair()
    yield mvm_a, mvm_b
    mvm_a.shutdown()
    mvm_b.shutdown()


@pytest.fixture
def throttled_pair():
    """B admits exactly one launch beyond its rexec daemon: none."""
    fabric, mvm_a, mvm_b = _boot_pair(
        admission=AdmissionPolicy(max_running=1))
    yield mvm_a, mvm_b
    mvm_a.shutdown()
    mvm_b.shutdown()


class TestLimitsOnTheWire:
    def test_wire_round_trip(self):
        limits = ResourceLimits(max_threads=3, max_children=1)
        wire = limits_to_wire(limits)
        assert wire == {"max_threads": 3, "max_children": 1}
        back = limits_from_wire(wire)
        assert back.max_threads == 3 and back.max_children == 1
        assert back.max_windows is None

    def test_wire_parse_tolerates_junk(self):
        assert limits_from_wire(None) is None
        assert limits_from_wire("nonsense") is None
        assert limits_from_wire({}) is None
        parsed = limits_from_wire(
            {"max_threads": 2, "max_windows": "many", "bogus": 9,
             "max_children": -1, "max_open_streams": True})
        assert parsed.max_threads == 2
        assert parsed.max_windows is None
        assert parsed.max_open_streams is None

    def test_remote_launch_enforces_limits_on_the_target(self, pair):
        mvm_a, mvm_b = pair

        def main(jclass, ctx, args):
            from repro.jvm.threads import JThread
            try:
                for _ in range(4):
                    thread = JThread(target=lambda: JThread.sleep(0.2))
                    thread.start()
            except ResourceLimitExceeded:
                ctx.stdout.println("limited")
                return 0
            ctx.stdout.println("unlimited")
            return 0

        class_name = make_app(mvm_b.vm, "ThreadHog", main)
        with mvm_a.host_session():
            remote = mvm_a.launch(ExecSpec(
                class_name, (), user="alice", password="wonderland",
                limits=ResourceLimits(max_threads=2),
                placement=Placement.remote(HOST_B, PORT)))
            assert remote.wait_for(10) == 0
        assert remote.output_text().strip() == "limited"

    def test_remote_launch_without_limits_is_unbounded(self, pair):
        mvm_a, mvm_b = pair

        def main(jclass, ctx, args):
            from repro.jvm.threads import JThread
            try:
                threads = [JThread(target=lambda: JThread.sleep(0.05))
                           for _ in range(4)]
                for thread in threads:
                    thread.start()
            except ResourceLimitExceeded:
                ctx.stdout.println("limited")
                return 0
            ctx.stdout.println("unlimited")
            return 0

        class_name = make_app(mvm_b.vm, "ThreadHog", main)
        with mvm_a.host_session():
            remote = mvm_a.launch(ExecSpec(
                class_name, (), user="alice", password="wonderland",
                placement=Placement.remote(HOST_B, PORT)))
            assert remote.wait_for(10) == 0
        assert remote.output_text().strip() == "unlimited"


class TestRemoteShedding:
    def test_overloaded_vm_sheds_with_typed_error(self, throttled_pair):
        mvm_a, mvm_b = throttled_pair
        with mvm_a.host_session():
            remote = mvm_a.launch(ExecSpec(
                "tools.Echo", ("hi",), user="alice",
                password="wonderland",
                placement=Placement.remote(HOST_B, PORT)))
            with pytest.raises(AdmissionRejected) as excinfo:
                remote.wait_for(10)
            assert excinfo.value.reason == "remote"
        # The rejection is recorded on the *target* VM.
        assert mvm_b.vm.telemetry.metrics.total("admission.rejected") >= 1
