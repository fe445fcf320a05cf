"""What the reaper frees (Section 5.1): "a background thread will eventually
clean up the application, stop all threads, and close all windows".

A reaped application's group is destroyed, and the application, its
loader, its group and its threads are freed by reference counting alone;
the cyclic collector has nothing to do.  Its per-application figures
lived on it, so no metric series outlives it either.
"""

import gc
import threading
import time
import weakref

import pytest

from repro.core.execspec import ExecSpec, launch
from repro.io.file import JFile, read_text
from repro.jvm.classloading import ClassMaterial
from repro.jvm.errors import (
    FileNotFoundException,
    IllegalStateException,
    IllegalThreadStateException,
)
from repro.jvm.threads import JThread, ThreadGroup, owning_application


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def reaped(host, app):
    """True once the reaper has finished ``app`` (not just terminated it)."""
    return (app.terminated and host.vm.application_registry.find(app.app_id)
            is None and app not in app.parent.children
            and (app.thread_group.destroyed
                 or host.vm.telemetry.metrics.total("apps.unreaped") > 0))


def trivial(jclass, ctx, args):
    """A generator main: the application runs as a scheduler task."""
    return 0
    yield  # pragma: no cover - makes main a generator function


class TestFreedByReferenceCounting:
    def test_reaped_apps_are_freed_without_the_collector(self, host,
                                                         register_app):
        vm = host.vm
        class_name = register_app("Trivial", trivial)

        def launch_one():
            app = host.launch(ExecSpec(class_name, ()))
            assert app.wait_for(10) == 0
            return app

        warm = launch_one()
        assert wait_until(lambda: reaped(host, warm))
        del warm
        groups_before = vm.main_group.enumerate_groups()
        series_before = len(vm.telemetry.metrics)
        launches = 1000
        refs = []
        gc.collect()
        gc.disable()
        try:
            for _ in range(launches):
                app = launch_one()
                refs.append((weakref.ref(app), weakref.ref(app.thread_group),
                             weakref.ref(app.main_thread),
                             weakref.ref(app.loader)))
                del app
            # The reaper may still be finishing the last one; only
            # reference counting can free anything while gc is off.
            assert wait_until(
                lambda: not any(ref() is not None
                                for quad in refs for ref in quad))
            found = gc.collect()
        finally:
            gc.enable()
        assert found < launches
        assert vm.main_group.enumerate_groups() == groups_before
        assert len(vm.telemetry.metrics) == series_before

    def test_reaped_threads_resolve_to_no_application(self, host,
                                                      register_app):
        """Cutting the group's link to its application must not make the
        walk fall through to the parent application."""
        outcome = {}

        def main(jclass, ctx, args):
            child = launch(ExecSpec(class_name, ()))
            assert child.wait_for(10) == 0
            outcome["child"] = child
            assert wait_until(lambda: reaped(host, child))
            return 0

        class_name = register_app("Leaf", trivial)
        parent = host.launch(ExecSpec(register_app("Root", main), ()))
        assert parent.wait_for(10) == 0
        child = outcome["child"]
        assert child.parent is parent
        assert child.thread_group.destroyed
        assert owning_application(child.thread_group) is None
        assert owning_application(child.main_thread.group) is None

    def test_reaped_loader_defines_no_second_class(self, host,
                                                   register_app):
        app = host.launch(ExecSpec(register_app("Loaded", trivial), ()))
        assert app.wait_for(10) == 0
        assert wait_until(lambda: reaped(host, app))
        loader = app.loader
        system = loader.load_class("java.lang.System")
        assert system is app.system_class
        assert loader.define_class(system.material) is system
        assert loader.defined_classes() == [system]
        with pytest.raises(IllegalStateException):
            loader.define_class(ClassMaterial("demo.LateComer"))


class TestReapingEdgeCases:
    def test_parent_reaped_while_child_runs(self, host, register_app):
        """The child is torn down first; both groups end destroyed."""
        outcome = {}

        def sleeper(jclass, ctx, args):
            JThread.sleep(60.0)
            return 0

        def main(jclass, ctx, args):
            outcome["child"] = launch(ExecSpec(sleeper_name, ()))
            assert wait_until(lambda: outcome["child"].live_threads())
            return 0

        sleeper_name = register_app("Sleeper", sleeper)
        parent = host.launch(ExecSpec(register_app("Parent", main), ()))
        parent.wait_for(10)
        child = outcome["child"]
        # The parent's state turns terminated only after its children
        # were torn down.
        assert child.terminated
        assert child.exit_cause == "killed"
        assert wait_until(lambda: reaped(host, parent))
        assert child.thread_group.destroyed
        assert parent.thread_group.destroyed
        assert parent.children == []
        assert host.vm.telemetry.metrics.total("apps.unreaped") == 0

    def test_launch_from_exiting_app_is_refused(self, host, register_app):
        vm = host.vm
        registry = vm.application_registry
        outcome = {}

        def hook():
            # Exit hooks run while the application is exiting.
            before = len(registry.applications(check=False))
            try:
                launch(ExecSpec("tools.True", ()), vm=vm, parent=app)
            except Exception as exc:  # noqa: BLE001 - relayed to the test
                outcome["error"] = exc
            outcome["entries"] = len(registry.applications(check=False)) \
                - before
            outcome["children"] = list(app.children)
            outcome["subgroups"] = app.thread_group.enumerate_groups()

        def main(jclass, ctx, args):
            JThread.sleep(60.0)
            return 0

        app = host.launch(ExecSpec(register_app("Exiting", main), ()))
        app.add_exit_hook(hook)
        app.destroy()
        app.wait_for(10)
        assert isinstance(outcome["error"], IllegalThreadStateException)
        assert outcome["entries"] == 0
        assert outcome["children"] == []
        assert outcome["subgroups"] == []
        assert wait_until(lambda: reaped(host, app))
        assert app.thread_group.destroyed

    def test_thread_outliving_its_join_keeps_the_group(self, host,
                                                       register_app):
        """A thread that ignores stop() past the reaper's 2 s join: the
        group is kept and counted, and the reaper reaps the next app."""
        metrics = host.vm.telemetry.metrics
        release = threading.Event()
        running = threading.Event()

        def stubborn(jclass, ctx, args):
            running.set()
            release.wait(30.0)  # not a stop point
            return 0

        app = host.launch(ExecSpec(register_app("Stubborn", stubborn), ()))
        try:
            assert running.wait(5.0)
            app.destroy()
            assert app.wait_for(10) is not None
            assert wait_until(lambda: metrics.total("apps.unreaped") == 1)
            assert not app.thread_group.destroyed
            assert app.thread_group in host.vm.main_group.enumerate_groups()
            assert host.vm.application_registry.find(app.app_id) is None

            after = host.launch(ExecSpec(register_app("After", trivial), ()))
            assert after.wait_for(10) == 0
            assert wait_until(lambda: reaped(host, after))
            assert after.thread_group.destroyed
            assert metrics.total("apps.unreaped") == 1
        finally:
            release.set()
        assert wait_until(lambda: not app.live_threads())

    def test_unstarted_thread_of_a_reaped_app_never_runs(self, host,
                                                        register_app):
        """A thread built but not started before its application was
        reaped cannot start later and run outside every application."""
        built = {}

        def main(jclass, ctx, args):
            built["thread"] = JThread(target=lambda: None, name="late")
            return 0

        app = host.launch(ExecSpec(register_app("Builder", main), ()))
        assert app.wait_for(10) == 0
        assert wait_until(lambda: reaped(host, app))
        thread = built["thread"]
        with pytest.raises(IllegalThreadStateException):
            thread.start()
        assert not thread.started

    def test_thread_in_a_destroyed_subgroup_never_runs(self, host,
                                                       register_app):
        """An application that destroys its own subgroup cannot then
        start a thread built in it as an unowned host thread."""
        outcome = {}

        def main(jclass, ctx, args):
            group = ThreadGroup(ctx.app.thread_group, "x")
            thread = JThread(target=lambda: None, group=group)
            group.destroy()
            try:
                thread.start()
            except IllegalThreadStateException as exc:
                outcome["error"] = exc
            outcome["started"] = thread.started
            return 0

        app = host.launch(ExecSpec(register_app("Escaper", main), ()))
        assert app.wait_for(10) == 0
        assert isinstance(outcome["error"], IllegalThreadStateException)
        assert outcome["started"] is False

    def test_reaped_app_is_gone_from_ps_and_proc(self, host, register_app,
                                                 capture):
        app = host.launch(ExecSpec(register_app("Gone", trivial), ()))
        assert app.wait_for(10) == 0
        assert wait_until(lambda: reaped(host, app))
        out = capture()
        ps = host.launch(ExecSpec("tools.Ps", (), stdout=out.stream))
        assert ps.wait_for(10) == 0
        assert "AID USER" in out.text
        assert str(app.app_id) not in [line.split()[0]
                                       for line in out.lines[1:]]
        ctx = host.initial.context()
        assert str(app.app_id) not in JFile(ctx, "/proc").list()
        for name in ("status", "metrics", "audit"):
            with pytest.raises(FileNotFoundException):
                read_text(ctx, f"/proc/{app.app_id}/{name}")


class TestPerApplicationFigures:
    def test_figures_live_on_the_app_and_read_by_label(self, host,
                                                       register_app):
        """The per-app breakdown of the unlabelled VM series is read from
        the live application, in the ``name{app=X}`` form."""
        release = threading.Event()

        def main(jclass, ctx, args):
            release.wait(10.0)
            return 0

        metrics = host.vm.telemetry.metrics
        app = host.launch(ExecSpec(register_app("Figured", main), (),
                                   name="figured"))
        try:
            assert metrics.total("app.threads.started", app="figured") == 1
            assert metrics.total("app.threads.live", app="figured") == 1
            assert metrics.total("reload.classes", app="figured") == 1
            text = metrics.render_text(app="figured")
            assert "reload.classes{app=figured} 1" in text
            names = {d["name"] for d in metrics.snapshot()
                     if d["labels"].get("app") == "figured"}
            assert names == set()
            live = host.vm.application_registry.applications(check=False)
            assert metrics.total("app.threads.live") == sum(
                len(a.live_threads()) for a in live)
        finally:
            release.set()
        assert app.wait_for(10) == 0
        assert wait_until(lambda: reaped(host, app))
        assert metrics.total("app.threads.started", app="figured") == 0
        assert metrics.total("app.threads.started") >= 1

    def test_same_named_apps_read_as_one_line(self, host, register_app):
        """Two live applications of one name share a line, summed, as
        their labelled series did."""
        release = threading.Event()

        def main(jclass, ctx, args):
            release.wait(10.0)
            return 0

        class_name = register_app("Twin", main)
        apps = [host.launch(ExecSpec(class_name, (), name="twin"))
                for _ in range(2)]
        try:
            lines = host.vm.telemetry.metrics.render_text(
                app="twin").splitlines()
            assert lines.count("app.threads.started{app=twin} 2") == 1
            assert len(lines) == len(set(lines))
        finally:
            release.set()
        for app in apps:
            assert app.wait_for(10) == 0
