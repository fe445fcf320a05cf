"""The ``policygen`` tool, ``/proc/policy``, and the dist wire."""

import time

import pytest

from repro.core.context import current_application
from repro.core.execspec import ExecSpec
from repro.io.file import read_text, write_text
from repro.policytool.recorder import recorder_for

pytestmark = pytest.mark.policy


def run_tool(mvm, args, capture, user=None):
    out = capture()
    kwargs = {"stdout": out.stream, "stderr": out.stream}
    if user is not None:
        kwargs["user"] = mvm.vm.user_database.lookup(user)
    app = mvm.launch(ExecSpec("tools.Policygen", args, **kwargs))
    return app.wait_for(10), out.text


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


@pytest.fixture
def learner(host, register_app):
    """A recorded app that works, then lingers until recording stops."""
    def main(jclass, ctx, args):
        read_text(ctx, "/etc/motd")
        write_text(ctx, "/tmp/policygen-probe.txt", "x")
        app = current_application()
        deadline = time.monotonic() + 10
        while app.policy_recording and time.monotonic() < deadline:
            time.sleep(0.01)
        return 0

    class_name = register_app("Pglearner", main)
    app = host.launch(ExecSpec(class_name, (), record_policy=True))
    assert wait_until(
        lambda: len(recorder_for(host.vm).slice_for(app.app_id) or ()) >= 2)
    yield app
    recorder_for(host.vm).stop(app)
    app.wait_for(10)


class TestRecordVerb:
    def test_record_on_then_off(self, host, register_app, capture):
        def main(jclass, ctx, args):
            app = current_application()
            deadline = time.monotonic() + 10
            while not app.policy_recording \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            read_text(ctx, "/etc/motd")
            return 0

        class_name = register_app("Toggled", main)
        app = host.launch(ExecSpec(class_name, [], name="toggled"))
        code, text = run_tool(host, [
            "record", str(app.app_id), "on"], capture)
        assert code == 0 and "recording on" in text
        assert app.wait_for(10) == 0
        records = recorder_for(host.vm).slice_for(app.app_id).snapshot()
        assert any(r.get("target") == "/etc/motd" for r in records)

    def test_status_verb(self, host, capture, learner):
        code, text = run_tool(host, [
            "record", str(learner.app_id), "status"], capture)
        assert code == 0
        assert "recording on" in text
        code, text = run_tool(host, [
            "record", str(learner.app_id), "off"], capture)
        assert code == 0
        code, text = run_tool(host, [
            "record", str(learner.app_id), "status"], capture)
        assert "recording off" in text

    def test_stranger_cannot_toggle(self, host, capture, learner):
        """Bob lacks standing over another user's application — the
        ``kill`` rule guards learning mode too."""
        code, text = run_tool(host, [
            "record", str(learner.app_id), "off"], capture, user="bob")
        assert code == 1
        assert "policygen:" in text
        assert recorder_for(host.vm).is_recording(learner.app_id)

    def test_unknown_application(self, host, capture):
        code, text = run_tool(host, ["record", "99999", "on"], capture)
        assert code == 1
        assert "no such application" in text


class TestInferDiffLintVerbs:
    def test_infer_prints_a_policy(self, host, capture, learner):
        code, text = run_tool(host, [
            "infer", str(learner.app_id)], capture)
        assert code == 0
        assert "grant codeBase" in text
        assert "/etc/motd" in text
        assert "pglearner" in text  # the app's own code base

    def test_infer_writes_a_file(self, host, capture, learner):
        code, text = run_tool(host, [
            "infer", str(learner.app_id), "-o", "/tmp/inferred.policy"],
            capture)
        assert code == 0 and "wrote" in text
        saved = read_text(host.initial.context(), "/tmp/inferred.policy")
        assert "grant codeBase" in saved

    def test_diff_reports_over_privilege(self, host, capture, learner):
        """The default policy grants local code far more than the
        workload used: diff flags the surplus as unused."""
        code, text = run_tool(host, [
            "diff", str(learner.app_id)], capture)
        assert code == 0
        assert "- unused" in text

    def test_lint_a_file(self, host, capture):
        write_text(host.initial.context(), "/tmp/bad.policy", """
        grant codeBase "file:/a/*", phase "turbo" {
            permission FilePermission "/x", "read";
        };
        """)
        code, text = run_tool(host, ["lint", "/tmp/bad.policy"], capture)
        assert code == 1
        assert "unknown-phase" in text

    def test_lint_live_policy(self, host, capture):
        code, text = run_tool(host, ["lint"], capture)
        assert code == 0  # the default policy has no error findings

    def test_usage_on_nonsense(self, host, capture):
        code, text = run_tool(host, ["frobnicate"], capture)
        assert code == 2
        assert "usage:" in text


class TestProcPolicy:
    def test_policy_dir_lists_applications(self, host, capture, learner):
        out = capture()
        app = host.launch(ExecSpec("tools.Ls", ["/proc/policy"],
                                   stdout=out.stream, stderr=out.stream))
        assert app.wait_for(10) == 0
        assert str(learner.app_id) in out.text.split()
        out = capture()
        app = host.launch(ExecSpec("tools.Ls", ["/proc"],
                                   stdout=out.stream, stderr=out.stream))
        assert app.wait_for(10) == 0
        assert "policy" in out.text.split()

    def test_policy_file_shows_phase_and_delta(self, host, learner):
        ctx = host.initial.context()
        text = read_text(ctx, "/proc/policy/%d" % learner.app_id)
        fields = dict(line.split("\t") for line in text.splitlines())
        assert fields["Phase:"] == "init"
        assert fields["Recording:"] == "on"
        assert int(fields["Records:"]) >= 2
        assert int(fields["InferredGrants:"]) >= 1
        assert "MissingGrants:" in fields and "UnusedGrants:" in fields
        assert int(fields["MissingGrants:"]) == 0  # live policy suffices

    def test_recording_off_after_stop(self, host, learner):
        recorder_for(host.vm).stop(learner)
        text = read_text(host.initial.context(),
                         "/proc/policy/%d" % learner.app_id)
        assert "Recording:\tdone" in text

    def test_vmstat_exports_drop_counter(self, host):
        text = read_text(host.initial.context(), "/proc/vmstat")
        assert "security.audit.dropped" in text

    def test_unknown_app_is_not_found(self, host):
        from repro.jvm.errors import IOException
        with pytest.raises(IOException):
            read_text(host.initial.context(), "/proc/policy/99999")


class TestDistWire:
    HOST_A = "ctl.example.com"
    HOST_B = "wrk.example.com"
    PORT = 7100

    @pytest.fixture
    def pair(self):
        from repro.core.launcher import MultiProcVM
        from repro.net.fabric import NetworkFabric
        from repro.unixfs.machine import standard_process

        fabric = NetworkFabric()
        mvm_a = MultiProcVM.boot(
            os_context=standard_process(hostname=self.HOST_A),
            network=fabric)
        mvm_b = MultiProcVM.boot(
            os_context=standard_process(hostname=self.HOST_B),
            network=fabric)
        with mvm_b.host_session():
            mvm_b.launch(ExecSpec("dist.RexecDaemon", [str(self.PORT)]))
        assert wait_until(lambda: fabric.resolve(
            self.HOST_B)._listener(self.PORT) is not None)
        yield mvm_a, mvm_b
        mvm_a.shutdown()
        mvm_b.shutdown()

    def test_record_and_phase_travel_the_request(self, pair):
        """Satellite: learning mode and the launch phase cross the wire
        like limits — enforced by the *executing* VM."""
        from repro.dist.client import RemoteApplication

        mvm_a, mvm_b = pair
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            remote = RemoteApplication(
                ctx, self.HOST_B, self.PORT, "alice", "wonderland",
                "tools.Cat", ["/etc/motd"], record=True, phase="steady")
            assert remote.wait_for(10) == 0
        recorder = mvm_b.vm.policy_recorder
        assert recorder is not None
        slices = recorder.slices()
        assert slices, "the worker VM recorded the remote launch"
        records = slices[-1].snapshot()
        assert any(r.get("target") == "/etc/motd" for r in records)
        assert all(r.get("phase") == "steady" for r in records)

    def test_junk_phase_is_dropped_not_fatal(self, pair):
        from repro.dist.client import RemoteApplication

        mvm_a, mvm_b = pair
        with mvm_a.host_session():
            ctx = mvm_a.initial.context()
            remote = RemoteApplication(
                ctx, self.HOST_B, self.PORT, "alice", "wonderland",
                "tools.Echo", ["ok"], phase="turbo")
            assert remote.wait_for(10) == 0
        assert remote.output_text() == "ok\n"
