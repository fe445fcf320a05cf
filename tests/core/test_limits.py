"""Per-application resource limits and exit hooks."""

import time

import pytest

from repro.awt.components import Frame
from repro.core.application import ResourceLimitExceeded, ResourceLimits
from repro.core.execspec import ExecSpec
from repro.jvm.threads import JThread


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestThreadLimit:
    def test_thread_limit_enforced(self, host, register_app):
        outcome = {}

        def main(jclass, ctx, args):
            spawned = 0
            try:
                for _ in range(10):
                    JThread(target=lambda: JThread.sleep(5.0),
                            daemon=False).start()
                    spawned += 1
            except ResourceLimitExceeded:
                outcome["spawned"] = spawned
                return 0
            outcome["spawned"] = spawned
            return 0

        class_name = register_app("ThreadHog", main)
        app = host.launch(ExecSpec(class_name, [],
                                   limits=ResourceLimits(max_threads=4)))
        assert app.wait_for(10) == 0
        # main thread counts too: 4 total means 3 extra workers.
        assert outcome["spawned"] == 3
        app.destroy()
        app.wait_for(5)

    def test_unlimited_by_default(self, host, register_app):
        def main(jclass, ctx, args):
            workers = [JThread(target=lambda: JThread.sleep(0.05),
                               daemon=False) for _ in range(10)]
            for worker in workers:
                worker.start()
            return 0

        app = host.launch(ExecSpec(register_app("ManyThreads", main)))
        assert app.wait_for(10) == 0

    def test_limits_inherited_by_children(self, host, register_app):
        outcome = {}

        def child_main(jclass, ctx, args):
            outcome["limit"] = ctx.app.limits.max_threads
            return 0

        child_class = register_app("LimitChild", child_main)

        def parent_main(jclass, ctx, args):
            child = ctx.launch(ExecSpec(child_class, []))
            child.wait_for(5)
            return 0

        parent_class = register_app("LimitParent", parent_main)
        app = host.launch(ExecSpec(parent_class, [],
                                   limits=ResourceLimits(max_threads=7)))
        assert app.wait_for(10) == 0
        assert outcome["limit"] == 7


class TestChildAndStreamLimits:
    def test_child_limit_counts_live_children(self, host, register_app):
        outcome = {}

        def leaf_main(jclass, ctx, args):
            JThread.sleep(30.0)
            return 0

        leaf = register_app("LimitLeaf", leaf_main)

        def main(jclass, ctx, args):
            launched = 0
            try:
                for _ in range(10):
                    ctx.launch(ExecSpec(leaf, []))
                    launched += 1
            except ResourceLimitExceeded:
                pass
            outcome["launched"] = launched
            JThread.sleep(30.0)
            return 0

        app = host.launch(ExecSpec(register_app("Forker", main), [],
                                   limits=ResourceLimits(max_children=3)))
        assert wait_until(lambda: "launched" in outcome)
        assert outcome["launched"] == 3
        app.destroy()  # cascades to the parked children
        app.wait_for(5)

    def test_terminated_children_free_the_budget(self, host, register_app):
        """The ceiling bounds *live* children, like a Unix process limit."""
        outcome = {}
        leaf = register_app("QuickLeaf", lambda j, c, a: 0)

        def main(jclass, ctx, args):
            for _ in range(6):  # sequential: each exits before the next
                child = ctx.launch(ExecSpec(leaf, []))
                child.wait_for(5)
                while child in ctx.app.children:
                    JThread.sleep(0.005)
            outcome["ok"] = True
            return 0

        app = host.launch(ExecSpec(register_app("SerialForker", main), [],
                                   limits=ResourceLimits(max_children=1)))
        assert app.wait_for(15) == 0
        assert outcome.get("ok") is True

    def test_open_stream_limit(self, host, register_app):
        outcome = {}

        def main(jclass, ctx, args):
            from repro.io.file import FileOutputStream
            opened = 0
            try:
                streams = []
                for index in range(10):
                    streams.append(
                        FileOutputStream(ctx, f"/tmp/limit{index}.txt"))
                    opened += 1
            except ResourceLimitExceeded:
                pass
            outcome["opened"] = opened
            return 0

        app = host.launch(ExecSpec(register_app("StreamHog2", main), [],
                                   limits=ResourceLimits(max_open_streams=2)))
        assert app.wait_for(10) == 0
        assert outcome["opened"] == 2

    def test_closing_frees_stream_budget(self, host, register_app):
        outcome = {}

        def main(jclass, ctx, args):
            from repro.io.file import FileOutputStream
            for index in range(5):
                stream = FileOutputStream(ctx, f"/tmp/cycle{index}.txt")
                stream.close()
            outcome["ok"] = True
            return 0

        app = host.launch(ExecSpec(register_app("StreamCycler", main), [],
                                   limits=ResourceLimits(max_open_streams=1)))
        assert app.wait_for(10) == 0
        assert outcome.get("ok") is True


class TestWindowLimit:
    def test_window_limit(self, host, register_app):
        outcome = {}

        def main(jclass, ctx, args):
            shown = 0
            try:
                for index in range(5):
                    Frame(f"limited-{index}",
                          name=f"limframe-{index}").show(ctx.vm.toolkit)
                    shown += 1
            except ResourceLimitExceeded:
                pass
            outcome["shown"] = shown
            return 0

        app = host.launch(ExecSpec(register_app("WindowHog", main), [],
                                   limits=ResourceLimits(max_windows=2)))
        assert wait_until(lambda: "shown" in outcome)
        assert outcome["shown"] == 2
        app.destroy()
        app.wait_for(5)


class TestExitHooks:
    def test_hooks_run_before_threads_stop(self, host, register_app):
        order = []

        def main(jclass, ctx, args):
            ctx.app.add_exit_hook(lambda: order.append("hook"))

            def worker():
                try:
                    JThread.sleep(30.0)
                finally:
                    order.append("worker-stopped")

            JThread(target=worker, daemon=False).start()
            JThread.sleep(30.0)
            return 0

        app = host.launch(ExecSpec(register_app("Hooked", main)))
        assert wait_until(lambda: len(app.live_threads()) >= 2)
        app.destroy()
        app.wait_for(5)
        assert wait_until(lambda: "worker-stopped" in order)
        assert order.index("hook") < order.index("worker-stopped")

    def test_failing_hook_does_not_block_teardown(self, host,
                                                  register_app):
        def main(jclass, ctx, args):
            ctx.app.add_exit_hook(lambda: 1 / 0)
            JThread.sleep(30.0)
            return 0

        app = host.launch(ExecSpec(register_app("BadHook", main)))
        app.destroy()
        assert app.wait_for(5) is not None
        assert app.terminated

    def test_hooks_run_on_natural_exit_too(self, host, register_app):
        hits = []

        def main(jclass, ctx, args):
            ctx.app.add_exit_hook(lambda: hits.append("ran"))
            return 0

        app = host.launch(ExecSpec(register_app("NaturalHook", main)))
        assert app.wait_for(10) == 0
        assert wait_until(lambda: hits == ["ran"])
