"""The security audit trail (the observability face of Sections 5.3/5.6)."""

import pytest

from repro.core.execspec import ExecSpec
from repro.io.file import read_text
from repro.jvm.errors import IOException, SecurityException

pytestmark = pytest.mark.telemetry


class TestAuditTrail:
    def test_denied_user_permission_check_is_recorded(self, host,
                                                      register_app):
        """Bob's application reading Alice's file is denied through the
        Section 5.3 user-permission path — and the trail names the user,
        the permission, and the deciding manager."""
        def main(jclass, ctx, args):
            try:
                read_text(ctx, "/home/alice/notes.txt")
            except (IOException, SecurityException):
                pass
            return 0

        bob = host.vm.user_database.lookup("bob")
        class_name = register_app("Snoop", main)
        app = host.launch(ExecSpec(class_name, [], user=bob, name="snoop"))
        assert app.wait_for(10) == 0

        audit = host.vm.telemetry.audit
        denials = audit.denials(app_id=app.app_id)
        assert denials, "the denied check must be on the trail"
        denial = denials[-1]
        assert denial["user"] == "bob"
        assert denial["app"] == "snoop"
        assert "/home/alice/notes.txt" in denial["permission"]
        assert denial["manager"] == "SystemSecurityManager"
        assert denial["granted"] is False

    def test_granted_checks_are_recorded_too(self, host, register_app):
        def main(jclass, ctx, args):
            read_text(ctx, "/etc/motd")
            return 0

        app = host.launch(
            ExecSpec(register_app("Reader", main), [], name="reader"))
        assert app.wait_for(10) == 0
        grants = host.vm.telemetry.audit.records(app_id=app.app_id,
                                                 granted=True)
        assert any("/etc/motd" in r["permission"] for r in grants)

    def test_counters_mirror_the_log(self, host, register_app):
        def main(jclass, ctx, args):
            try:
                read_text(ctx, "/home/alice/notes.txt")
            except (IOException, SecurityException):
                pass
            return 0

        bob = host.vm.user_database.lookup("bob")
        app = host.launch(ExecSpec(register_app("Snoop2", main), [], user=bob,
                                   name="snoop2"))
        assert app.wait_for(10) == 0
        metrics = host.vm.telemetry.metrics
        assert metrics.total("security.checks", app="snoop2",
                             decision="deny") >= 1
        audit = host.vm.telemetry.audit
        assert audit.denies >= 1
        assert len(audit) == len(audit.records())
