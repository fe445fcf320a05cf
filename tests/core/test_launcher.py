"""The multi-processing launcher: wiring, stream-close rule, System.exit
semantics (Features 1, 8, 9)."""

import pytest

from repro.core.execspec import ExecSpec
from repro.core.launcher import DEFAULT_POLICY, MultiProcVM
from repro.io.streams import ByteArrayOutputStream, PrintStream, make_pipe
from repro.jvm.errors import SecurityException
from repro.jvm.threads import JThread
from repro.security.policy import parse_policy
from repro.security.sysmanager import SystemSecurityManager


class TestBootWiring:
    def test_components_installed(self, mvm):
        vm = mvm.vm
        assert isinstance(vm.security_manager, SystemSecurityManager)
        assert vm.policy is not None
        assert vm.user_database is not None
        assert vm.application_registry is not None
        assert vm.toolkit is mvm.toolkit
        assert vm.application_registry.initial is mvm.initial
        assert not vm.exit_when_last_nondaemon

    def test_tools_on_command_path(self, mvm):
        for command in ("ls", "cat", "sh", "login", "terminal",
                        "appletviewer", "ps", "kill"):
            class_name = mvm.vm.tool_path[command]
            assert class_name in mvm.vm.registry

    def test_default_policy_parses(self):
        policy = parse_policy(DEFAULT_POLICY)
        assert policy.entries()

    def test_vm_survives_application_exit(self, host, register_app):
        """Feature 1: the end of an application must not end the JVM."""
        app = host.launch(
            ExecSpec(register_app("Short", lambda j, c, a: None)))
        assert app.wait_for(5) == 0
        assert not host.vm.terminated
        # and we can still launch more work
        again = host.launch(
            ExecSpec(register_app("Short2", lambda j, c, a: None)))
        assert again.wait_for(5) == 0

    def test_shutdown_is_idempotent(self):
        mvm = MultiProcVM.boot()
        mvm.shutdown()
        mvm.shutdown()
        assert mvm.vm.terminated

    def test_context_manager(self):
        with MultiProcVM.boot() as mvm:
            assert mvm.vm.state == "booted"
        assert mvm.vm.terminated

    def test_nested_host_sessions_reuse_attachment(self, mvm):
        with mvm.host_session() as outer:
            with mvm.host_session() as inner:
                assert inner is outer
            assert JThread.current_or_none() is outer


class TestStreamCloseRule:
    """Section 5.1: "applications may only close streams that they
    opened"."""

    def test_app_cannot_close_inherited_stream(self, host, register_app):
        outcome = {}

        def main(jclass, ctx, args):
            try:
                ctx.stdout.close()
                outcome["result"] = "closed"
            except SecurityException:
                outcome["result"] = "denied"
            return 0

        out = PrintStream(ByteArrayOutputStream())
        out.owner = host.initial
        app = host.launch(ExecSpec(register_app("Closer", main), stdout=out))
        assert app.wait_for(5) == 0
        assert outcome["result"] == "denied"
        assert not out.closed

    def test_app_may_close_stream_it_opened(self, host, register_app):
        outcome = {}

        def main(jclass, ctx, args):
            from repro.io.file import FileOutputStream
            stream = FileOutputStream(ctx, "/tmp/own.txt")
            stream.close()
            outcome["closed"] = stream.closed
            return 0

        app = host.launch(ExecSpec(register_app("OwnCloser", main)))
        assert app.wait_for(5) == 0
        assert outcome["closed"] is True

    def test_parent_may_close_streams_for_children(self, host,
                                                   register_app):
        """"it is the shell's responsibility to close those streams after
        the application finishes" — the parent is allowed to."""
        def child_main(jclass, ctx, args):
            return 0

        child_class = register_app("PipeChild", child_main)
        outcome = {}

        def parent_main(jclass, ctx, args):
            reader, writer = make_pipe(owner=ctx.app)
            child = ctx.launch(
                ExecSpec(child_class, [], stdout=PrintStream(writer)))
            child.wait_for(5)
            writer.close()
            reader.close()
            outcome["closed"] = writer.closed and reader.closed
            return 0

        parent = host.launch(ExecSpec(register_app("PipeParent", parent_main)))
        assert parent.wait_for(5) == 0
        assert outcome["closed"] is True

    def test_anonymous_streams_unrestricted(self, host, register_app):
        outcome = {}

        def main(jclass, ctx, args):
            scratch = ByteArrayOutputStream()
            scratch.close()
            outcome["closed"] = scratch.closed
            return 0

        app = host.launch(ExecSpec(register_app("Anon", main)))
        assert app.wait_for(5) == 0
        assert outcome["closed"] is True


class TestSystemExitSemantics:
    """Section 6.3: historical System.exit vs the paper's proposal."""

    def test_historical_semantics_denied_for_applications(self, host,
                                                          register_app):
        """In the multi-proc VM, System.exit would kill every application,
        so the system security manager denies it to unprivileged code
        (which is why the Appletviewer port replaced those calls)."""
        outcome = {}

        def main(jclass, ctx, args):
            try:
                ctx.system.exit(1)
                outcome["result"] = "exited"
            except SecurityException:
                outcome["result"] = "denied"
            return 0

        app = host.launch(ExecSpec(register_app("VmKiller", main)))
        assert app.wait_for(5) == 0
        assert outcome["result"] == "denied"
        assert not host.vm.terminated

    def test_proposed_semantics_exit_current_application_only(self):
        """"This change will not be necessary if we change the semantics
        of System.exit() to only exit the current application." (§6.3)"""
        mvm = MultiProcVM.boot(system_exit_exits_application=True)
        try:
            from tests.conftest import make_app

            def main(jclass, ctx, args):
                ctx.system.exit(4)
                return 0

            with mvm.host_session():
                app = mvm.launch(
                    ExecSpec(make_app(mvm.vm, "SelfExiter", main)))
                assert app.wait_for(5) == 4
                assert not mvm.vm.terminated
        finally:
            mvm.shutdown()
