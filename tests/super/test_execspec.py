"""The unified launch surface: ExecSpec routing and ExitStatus."""

import pytest

import repro
from repro.core.application import ExitStatus
from repro.core.execspec import ExecSpec, Placement, launch
from repro.dist import client as dist_client
from repro.jvm.errors import (
    IllegalArgumentException,
    IllegalStateException,
)
from repro.lang.context import InvocationContext

pytestmark = pytest.mark.supervision


class TestSpec:
    def test_exported_from_the_package_root(self):
        for name in ("ExecSpec", "Placement", "launch", "ExitStatus",
                     "Supervisor", "ServiceSpec", "BackoffPolicy",
                     "AdmissionPolicy", "AdmissionRejected"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_args_normalise_to_a_tuple(self):
        spec = ExecSpec("tools.Echo", ["a", "b"])
        assert spec.args == ("a", "b")

    def test_class_name_required(self):
        with pytest.raises(IllegalArgumentException):
            ExecSpec("")

    def test_state_overrides_skip_unset_fields(self):
        spec = ExecSpec("tools.Echo", cwd="/tmp", name="echo")
        assert spec.state_overrides() == {"cwd": "/tmp", "name": "echo"}

    def test_user_name_accepts_string_or_user(self):
        assert ExecSpec("t.C").user_name() == ""
        assert ExecSpec("t.C", user="alice").user_name() == "alice"

        class U:
            name = "bob"
        assert ExecSpec("t.C", user=U()).user_name() == "bob"

    def test_with_placement_rebinds_routing_only(self):
        spec = ExecSpec("t.C", ("x",))
        remote = spec.with_placement(Placement.remote("hostB"))
        assert remote.placement.kind == "remote"
        assert remote.class_name == "t.C" and remote.args == ("x",)
        assert spec.placement.kind == "local"


class TestRouting:
    def test_local_launch_returns_exit_status(self, mvm, host, capture):
        out = capture()
        app = mvm.launch(ExecSpec("tools.Echo", ("hi",),
                                  stdout=out.stream))
        status = app.wait(5)
        assert isinstance(status, ExitStatus)
        assert status.code == 0 and status.ok
        assert status.signal_like_cause is None
        assert status.duration >= 0
        assert out.text == "hi\n"

    def test_destroyed_app_reports_killed_cause(self, mvm, host):
        app = mvm.launch(ExecSpec("tools.Sleep", ("30",)))
        app.destroy()
        status = app.wait(5)
        assert status.code == 143 and not status.ok
        assert status.signal_like_cause == "killed"

    def test_wait_for_still_returns_the_bare_int(self, mvm, host):
        app = mvm.launch(ExecSpec("tools.True", ()))
        assert app.wait_for(5) == 0

    def test_ctx_launch_from_inside_an_application(self, mvm, host,
                                                   register_app, capture):
        out = capture()

        def main(jclass, ctx, args):
            child = ctx.launch(ExecSpec("tools.Echo", ("nested",)))
            return child.wait(5).code

        class_name = register_app("Launcher", main)
        app = mvm.launch(ExecSpec(class_name, (), stdout=out.stream))
        assert app.wait(5).code == 0

    def test_cluster_placement_without_cluster_raises(self, mvm, host):
        with pytest.raises(IllegalStateException):
            mvm.launch(ExecSpec("tools.Echo", (),
                                placement=Placement.cluster()))

    def test_remote_placement_needs_a_host(self, mvm, host):
        with pytest.raises(IllegalArgumentException):
            launch(ExecSpec("tools.Echo", (),
                            placement=Placement(kind="remote")),
                   vm=mvm.vm)

    def test_unknown_placement_kind_raises(self, mvm, host):
        with pytest.raises(IllegalArgumentException):
            launch(ExecSpec("tools.Echo", (),
                            placement=Placement(kind="warp")),
                   vm=mvm.vm)


class TestInAppRouting:
    """``ctx.launch`` from inside an application honours the placement:
    nothing falls back to a local child."""

    def test_needs_an_application(self, vm):
        ctx = InvocationContext(vm, vm.boot_loader)
        with pytest.raises(IllegalStateException):
            ctx.launch(ExecSpec("tools.True"))

    def test_cluster_placement_without_cluster_raises(self, mvm, host,
                                                      register_app):
        seen = {}

        def main(jclass, ctx, args):
            try:
                ctx.launch(ExecSpec("tools.True",
                                    placement=Placement.cluster()))
            except IllegalStateException as exc:
                seen["error"] = exc
            seen["children"] = len(ctx.app.children)
            return 0

        app = mvm.launch(ExecSpec(register_app("ClusterLess", main)))
        assert app.wait_for(5) == 0
        assert isinstance(seen["error"], IllegalStateException)
        assert seen["children"] == 0

    def test_remote_spec_reaches_the_dist_client(self, mvm, host,
                                                 register_app, monkeypatch):
        created = []

        class RecordingRemote:
            def __init__(self, ctx, host, port, user, password, class_name,
                         args, **kwargs):
                created.append((host, port, user, class_name, args))

        monkeypatch.setattr(dist_client, "RemoteApplication",
                            RecordingRemote)
        seen = {}

        def main(jclass, ctx, args):
            handle = ctx.launch(ExecSpec(
                "tools.Echo", ("hi",), user="alice", password="wonderland",
                placement=Placement.remote("vm-b.example.com", 7100)))
            seen["handle"] = handle
            seen["children"] = len(ctx.app.children)
            return 0

        app = mvm.launch(ExecSpec(register_app("RemoteLauncher", main)))
        assert app.wait_for(5) == 0
        assert isinstance(seen["handle"], RecordingRemote)
        assert seen["children"] == 0
        assert created == [("vm-b.example.com", 7100, "alice",
                            "tools.Echo", ["hi"])]
