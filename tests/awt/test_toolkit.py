"""Experiment F6: system-thread placement and toolkit plumbing (§5.4)."""

import time

import pytest

from repro.awt.components import Frame
from repro.awt.toolkit import CENTRALIZED, PER_APPLICATION
from repro.core.execspec import ExecSpec
from repro.core.launcher import MultiProcVM
from repro.jvm.errors import IllegalArgumentException
from repro.jvm.threads import JThread
from tests.conftest import make_app


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def window_opener(title):
    def main(jclass, ctx, args):
        frame = Frame(title, name=f"frame-{title}")
        frame.show(ctx.vm.toolkit)
        JThread.sleep(30.0)
        return 0

    return main


class TestXThreadPlacement:
    def test_fixed_mode_uses_system_group(self):
        """Section 5.4: "these threads are created in a special system
        thread group, which does not belong to any application"."""
        mvm = MultiProcVM.boot(legacy_thread_placement=False)
        try:
            with mvm.host_session():
                class_name = make_app(mvm.vm, "Opener",
                                      window_opener("w-fixed"))
                app = mvm.launch(ExecSpec(class_name))
                assert wait_for(lambda: mvm.toolkit.x_thread_group
                                is not None)
                assert mvm.toolkit.x_thread_group is mvm.vm.root_group
                app.destroy()
                app.wait_for(5)
        finally:
            mvm.shutdown()

    def test_legacy_mode_uses_current_group(self):
        """Feature 6's bug, reproduced on demand: the X thread lands in
        whatever group is current — i.e. the first GUI application's."""
        mvm = MultiProcVM.boot(legacy_thread_placement=True)
        try:
            with mvm.host_session():
                class_name = make_app(mvm.vm, "Opener",
                                      window_opener("w-legacy"))
                app = mvm.launch(ExecSpec(class_name))
                assert wait_for(lambda: mvm.toolkit.x_thread_group
                                is not None)
                assert mvm.toolkit.x_thread_group is app.thread_group, \
                    "legacy placement ties the X thread to the first app"
                app.destroy()
                app.wait_for(5)
        finally:
            mvm.shutdown()


class TestToolkitPlumbing:
    def test_invalid_dispatch_mode(self, mvm):
        from repro.awt.toolkit import Toolkit
        with pytest.raises(IllegalArgumentException):
            Toolkit(mvm.vm, dispatch_mode="bogus")

    def test_invoke_and_wait_runs_on_dispatcher(self, host, register_app):
        seen = []

        def main(jclass, ctx, args):
            frame = Frame("w-invoke", name="frame-invoke")
            frame.show(ctx.vm.toolkit)
            JThread.sleep(30.0)
            return 0

        app = host.launch(ExecSpec(register_app("Invoker", main)))
        assert wait_for(
            lambda: host.toolkit.window_id_by_title("w-invoke") is not None)
        host.toolkit.invoke_and_wait(
            lambda: seen.append(JThread.current().name), application=app)
        assert seen and seen[0].startswith("AWT-EventDispatch-")
        app.destroy()
        app.wait_for(5)

    def test_invoke_and_wait_propagates_exception(self, host, register_app):
        def main(jclass, ctx, args):
            frame = Frame("w-exc", name="frame-exc")
            frame.show(ctx.vm.toolkit)
            JThread.sleep(30.0)
            return 0

        app = host.launch(ExecSpec(register_app("Thrower", main)))
        assert wait_for(
            lambda: host.toolkit.window_id_by_title("w-exc") is not None)

        def boom():
            raise ValueError("from the dispatcher")

        with pytest.raises(ValueError):
            host.toolkit.invoke_and_wait(boom, application=app)
        app.destroy()
        app.wait_for(5)

    def test_events_for_disposed_window_dropped(self, host, register_app):
        def main(jclass, ctx, args):
            frame = Frame("w-gone", name="frame-gone")
            frame.show(ctx.vm.toolkit)
            JThread.sleep(30.0)
            return 0

        app = host.launch(ExecSpec(register_app("Goner", main)))
        xserver = host.toolkit.xserver
        assert wait_for(lambda: xserver.find_window("w-gone") is not None)
        window_id = xserver.find_window("w-gone")
        app.destroy()
        app.wait_for(5)
        # The X server no longer knows the window; injecting raises there,
        # but a stale id raced into the toolkit is simply dropped.
        with pytest.raises(IllegalArgumentException):
            xserver.click_component(window_id, "frame-gone")

    def test_multiple_windows_per_application(self, host, register_app):
        def main(jclass, ctx, args):
            for index in range(3):
                Frame(f"multi-{index}",
                      name=f"frame-multi-{index}").show(ctx.vm.toolkit)
            JThread.sleep(30.0)
            return 0

        app = host.launch(ExecSpec(register_app("Multi", main)))
        assert wait_for(lambda: len(host.toolkit.windows_of(app)) == 3)
        app.destroy()
        app.wait_for(5)
        assert host.toolkit.windows_of(app) == []
