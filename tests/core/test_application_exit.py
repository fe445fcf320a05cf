"""Application lifecycle endings (Section 5.1): explicit exit, auto-exit,
external destroy, and the reaper's cleanup duties."""

import time

import pytest

from repro.core.application import KILLED_EXIT_CODE, Application
from repro.core.execspec import ExecSpec
from repro.io.streams import make_pipe
from repro.jvm.errors import (
    IllegalStateException,
    IllegalThreadStateException,
)
from repro.jvm.threads import JThread


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestExplicitExit:
    def test_exit_never_returns_and_sets_code(self, host, register_app):
        after_exit = []

        def main(jclass, ctx, args):
            ctx.stdout.println("bye, bye")
            Application.exit(5)
            after_exit.append("we will never get here")

        app = host.launch(ExecSpec(register_app("Exiter", main)))
        assert app.wait_for(5) == 5
        assert after_exit == []

    def test_exit_stops_sibling_threads(self, host, register_app):
        survived = []

        def main(jclass, ctx, args):
            def worker():
                JThread.sleep(30.0)
                survived.append(True)

            JThread(target=worker, daemon=False).start()
            JThread.sleep(0.05)
            Application.exit(0)

        app = host.launch(ExecSpec(register_app("Stopper", main)))
        assert app.wait_for(5) == 0
        assert survived == []
        assert wait_until(lambda: not app.live_threads())

    def test_exit_outside_application_rejected(self, mvm):
        with pytest.raises(IllegalStateException):
            Application.exit(0)


class TestAutoExit:
    def test_main_return_auto_exits_with_zero(self, host, register_app):
        app = host.launch(
            ExecSpec(register_app("Plain", lambda j, c, a: None)))
        assert app.wait_for(5) == 0
        assert app.terminated

    def test_nonzero_main_return_becomes_exit_code(self, host,
                                                   register_app):
        app = host.launch(ExecSpec(register_app("Failing", lambda j, c, a: 3)))
        assert app.wait_for(5) == 3

    def test_app_lives_while_non_daemon_thread_runs(self, host,
                                                    register_app):
        def main(jclass, ctx, args):
            def worker():
                JThread.sleep(0.5)

            JThread(target=worker, daemon=False).start()
            return 0

        app = host.launch(ExecSpec(register_app("Lingering", main)))
        assert app.wait_for(0.15) is None, \
            "main returned but a non-daemon thread is still alive"
        assert app.wait_for(5) == 0

    def test_daemon_threads_do_not_keep_app_alive(self, host,
                                                  register_app):
        def main(jclass, ctx, args):
            def background():
                JThread.sleep(60.0)

            JThread(target=background, daemon=True).start()
            return 0

        app = host.launch(ExecSpec(register_app("DaemonOnly", main)))
        assert app.wait_for(5) == 0


class TestDestroy:
    def test_parent_may_destroy_child(self, host, register_app):
        def main(jclass, ctx, args):
            JThread.sleep(60.0)
            return 0

        app = host.launch(ExecSpec(register_app("Victim", main)))
        app.destroy()
        assert app.wait_for(5) == KILLED_EXIT_CODE

    def test_destroy_cascades_to_descendants(self, host, register_app):
        grandchild_holder = {}

        def leaf_main(jclass, ctx, args):
            JThread.sleep(60.0)
            return 0

        leaf_class = register_app("Leaf", leaf_main)

        def mid_main(jclass, ctx, args):
            grandchild_holder["app"] = ctx.launch(ExecSpec(leaf_class, []))
            JThread.sleep(60.0)
            return 0

        mid = host.launch(ExecSpec(register_app("Mid", mid_main)))
        assert wait_until(lambda: "app" in grandchild_holder)
        leaf = grandchild_holder["app"]
        mid.destroy()
        assert mid.wait_for(5) is not None
        assert leaf.wait_for(5) is not None
        assert leaf.terminated

    def test_destroy_is_idempotent(self, host, register_app):
        def main(jclass, ctx, args):
            JThread.sleep(60.0)
            return 0

        app = host.launch(ExecSpec(register_app("Once", main)))
        app.destroy(9)
        app.destroy(10)
        assert app.wait_for(5) == 9


class TestReaperCleanup:
    def test_opened_streams_closed(self, host, register_app):
        opened = {}

        def main(jclass, ctx, args):
            from repro.io.file import FileOutputStream
            opened["stream"] = FileOutputStream(ctx, "/tmp/reaped.txt")
            JThread.sleep(60.0)
            return 0

        app = host.launch(ExecSpec(register_app("StreamHolder", main)))
        assert wait_until(lambda: "stream" in opened)
        app.destroy()
        app.wait_for(5)
        assert wait_until(lambda: opened["stream"].closed)

    def test_thread_group_emptied(self, host, register_app):
        def main(jclass, ctx, args):
            for _ in range(3):
                JThread(target=lambda: JThread.sleep(60.0),
                        daemon=False).start()
            JThread.sleep(60.0)
            return 0

        app = host.launch(ExecSpec(register_app("Crowded", main)))
        assert wait_until(lambda: len(app.live_threads()) >= 4)
        app.destroy()
        app.wait_for(5)
        assert wait_until(
            lambda: not app.thread_group.enumerate_threads())

    def test_adopting_thread_into_exiting_app_fails(self, host,
                                                    register_app):
        outcome = {}

        def main(jclass, ctx, args):
            app = ctx.app
            app._begin_exit(0)
            try:
                thread = JThread(target=lambda: None)
                thread.start()
                outcome["spawned"] = True
            except IllegalThreadStateException:
                outcome["spawned"] = False
            JThread.sleep(60.0)

        app = host.launch(ExecSpec(register_app("Zombie", main)))
        app.wait_for(5)
        assert outcome == {"spawned": False}


class TestWaitFor:
    def test_wait_for_times_out(self, host, register_app):
        def main(jclass, ctx, args):
            JThread.sleep(60.0)
            return 0

        app = host.launch(ExecSpec(register_app("Eternal", main)))
        assert app.wait_for(0.1) is None
        app.destroy()
        assert app.wait_for(5) is not None

    def test_wait_for_on_finished_app_returns_immediately(self, host,
                                                          register_app):
        app = host.launch(
            ExecSpec(register_app("Quick", lambda j, c, a: None)))
        assert app.wait_for(5) == 0
        start = time.monotonic()
        assert app.wait_for(5) == 0
        assert time.monotonic() - start < 0.5
