"""Learning mode, audit retention, and the consumption hooks."""

import io
import json

import pytest

from repro.core.execspec import ExecSpec
from repro.io.file import read_text, write_text
from repro.policytool.recorder import RecordingSlice, recorder_for
from repro.telemetry.audit import (
    AuditLog,
    KNOWN_MANAGERS,
    normalize_manager,
)

pytestmark = pytest.mark.policy


class TestRecorder:
    def test_execspec_record_policy_captures_a_slice(self, host,
                                                     register_app):
        def main(jclass, ctx, args):
            read_text(ctx, "/etc/motd")
            return 0

        class_name = register_app("Learner", main)
        app = host.launch(ExecSpec(class_name, (), record_policy=True))
        assert app.wait_for(10) == 0
        slice_ = recorder_for(host.vm).slice_for(app.app_id)
        assert slice_ is not None
        assert not slice_.active  # the exit hook froze it
        records = slice_.snapshot()
        assert any("/etc/motd" in (r.get("target") or "")
                   for r in records)

    def test_recorded_checks_carry_structure_and_stack(self, host,
                                                       register_app):
        def main(jclass, ctx, args):
            read_text(ctx, "/etc/motd")
            return 0

        class_name = register_app("Structured", main)
        app = host.launch(ExecSpec(class_name, (), record_policy=True))
        assert app.wait_for(10) == 0
        records = recorder_for(host.vm).slice_for(app.app_id).snapshot()
        motd = [r for r in records
                if r.get("target") == "/etc/motd" and r["granted"]]
        assert motd
        record = motd[-1]
        assert record["ptype"] == "FilePermission"
        assert record["actions"] == "read"
        assert record["phase"] == "init"
        # The walk's protection-domain context was captured: the app's
        # own (URL-named) domain is on it.
        assert any("structured" in name for name in record["stack"])

    def test_parallel_recordings_never_interleave(self, host,
                                                  register_app):
        """Two applications learning at once: each slice holds only its
        own application's records (satellite c)."""
        def main(jclass, ctx, args):
            for index in range(20):
                write_text(ctx, f"/tmp/{args[0]}-{index}.txt", "x")
            return 0

        class_a = register_app("Parallela", main)
        class_b = register_app("Parallelb", main)
        app_a = host.launch(ExecSpec(class_a, ("a",), record_policy=True))
        app_b = host.launch(ExecSpec(class_b, ("b",), record_policy=True))
        assert app_a.wait_for(10) == 0
        assert app_b.wait_for(10) == 0
        recorder = recorder_for(host.vm)
        for app in (app_a, app_b):
            records = recorder.slice_for(app.app_id).snapshot()
            assert records
            assert all(r["app_id"] == app.app_id for r in records)

    def test_slice_capacity_counts_drops(self, host, register_app,
                                         monkeypatch):
        monkeypatch.setattr("repro.policytool.recorder.SLICE_CAPACITY", 5)

        def main(jclass, ctx, args):
            for index in range(10):
                read_text(ctx, "/etc/motd")
            return 0

        class_name = register_app("Chatty", main)
        app = host.launch(ExecSpec(class_name, (), record_policy=True))
        assert app.wait_for(10) == 0
        slice_ = recorder_for(host.vm).slice_for(app.app_id)
        assert len(slice_) == 5
        assert slice_.dropped > 0

    def test_policygen_can_stop_and_freeze(self, host, register_app):
        import time

        def main(jclass, ctx, args):
            deadline = time.monotonic() + 5
            from repro.core.context import current_application
            while (current_application().policy_recording
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            return 0

        class_name = register_app("Stoppable", main)
        app = host.launch(ExecSpec(class_name, (), record_policy=True))
        recorder = recorder_for(host.vm)
        assert recorder.is_recording(app.app_id)
        recorder.stop(app)
        assert not recorder.is_recording(app.app_id)
        assert app.wait_for(10) == 0


class TestAuditRetention:
    def test_set_capacity_keeps_newest(self):
        log = AuditLog(capacity=10)
        for index in range(10):
            log.record(check="c", permission=f"p{index}", granted=True)
        log.set_capacity(3)
        assert log.capacity == 3
        assert [r["permission"] for r in log.records()] == \
            ["p7", "p8", "p9"]

    def test_overwrites_are_counted_and_collected(self):
        log = AuditLog(capacity=2)
        for index in range(5):
            log.record(check="c", permission=f"p{index}", granted=True)
        assert len(log) == 2
        assert log.dropped == 3
        assert log.collect()["security.audit.dropped"] == 3

    def test_vm_mirrors_drops_into_metrics(self, host):
        audit = host.vm.telemetry.audit
        audit.set_capacity(2)
        baseline = audit.dropped
        for index in range(4):
            audit.record(check="c", permission=f"p{index}", granted=True)
        assert audit.dropped - baseline >= 2
        assert host.vm.telemetry.metrics.total(
            "security.audit.dropped") >= 2

    def test_jsonl_stream_hook(self):
        log = AuditLog(capacity=4)
        sink = io.StringIO()
        hook = log.stream_jsonl(sink)
        log.record(check="c", permission="p1", granted=True)
        log.record(check="c", permission="p2", granted=False)
        log.unstream(hook)
        log.record(check="c", permission="p3", granted=True)
        lines = [json.loads(line) for line in
                 sink.getvalue().strip().splitlines()]
        assert [entry["permission"] for entry in lines] == ["p1", "p2"]
        assert hook.written == 2

    def test_listener_exceptions_are_swallowed(self):
        log = AuditLog(capacity=4)

        def bomb(entry):
            raise RuntimeError("listener bug")

        log.add_listener(bomb)
        record = log.record(check="c", permission="p", granted=True)
        assert record["permission"] == "p"


class TestManagerNormalization:
    def test_subclass_and_qualified_labels_fold(self):
        assert normalize_manager("MySystemSecurityManager") == \
            "SystemSecurityManager"
        assert normalize_manager(
            "repro.security.manager.SecurityManager") == "SecurityManager"
        assert normalize_manager("SystemSecurityManager") == \
            "SystemSecurityManager"
        assert normalize_manager("WeirdThing") == "WeirdThing"
        assert normalize_manager(None) is None

    def test_live_trail_uses_the_two_real_managers_only(self, host,
                                                        register_app):
        """Satellite b: every record the kernel writes names one of the
        two manager classes of Section 5.6 — no free-form drift."""
        from repro.jvm.errors import IOException, SecurityException

        def main(jclass, ctx, args):
            read_text(ctx, "/etc/motd")
            try:
                read_text(ctx, "/home/alice/notes.txt")
            except (IOException, SecurityException):
                pass
            return 0

        bob = host.vm.user_database.lookup("bob")
        app = host.launch(ExecSpec(register_app("Mixed", main), [], user=bob,
                                   name="mixed"))
        assert app.wait_for(10) == 0
        records = host.vm.telemetry.audit.records(app_id=app.app_id)
        assert records
        managers = {r["manager"] for r in records}
        assert managers <= set(KNOWN_MANAGERS)

    def test_record_normalizes_on_write(self):
        log = AuditLog(capacity=4)
        entry = log.record(check="c", permission="p", granted=True,
                           manager="CustomSystemSecurityManager")
        assert entry["manager"] == "SystemSecurityManager"


class TestSliceBasics:
    def test_frozen_slice_ignores_appends(self, host, register_app):
        def main(jclass, ctx, args):
            return 0

        class_name = register_app("Frozen", main)
        app = host.launch(ExecSpec(class_name, (), record_policy=True))
        assert app.wait_for(10) == 0
        slice_ = recorder_for(host.vm).slice_for(app.app_id)
        count = len(slice_)
        slice_.append({"app_id": app.app_id, "granted": True})
        assert len(slice_) == count
        assert isinstance(slice_, RecordingSlice)
