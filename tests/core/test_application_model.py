"""Experiment F3: applications as thread sets with inherited state (§5.1)."""

import pytest

from repro.core.context import (
    current_application,
    current_application_or_none,
)
from repro.core.execspec import ExecSpec, launch
from repro.io.streams import ByteArrayOutputStream, PrintStream
from repro.jvm.errors import IllegalStateException
from repro.jvm.threads import JThread
from repro.lang.properties import Properties


def test_exec_runs_main_in_new_thread_group(host, register_app):
    seen = {}

    def main(jclass, ctx, args):
        thread = JThread.current()
        seen["thread_name"] = thread.name
        seen["group"] = thread.group
        seen["args"] = list(args)
        return 0

    class_name = register_app("Model", main)
    app = host.launch(ExecSpec(class_name, ["a", "b"]))
    assert app.wait_for(5) == 0
    assert seen["args"] == ["a", "b"]
    assert seen["group"] is app.thread_group
    assert seen["thread_name"].startswith("main-")
    # The app's group nests under the parent application's group.
    assert host.initial.thread_group.parent_of(app.thread_group)


def test_exec_returns_immediately(host, register_app):
    def main(jclass, ctx, args):
        JThread.sleep(0.5)
        return 0

    class_name = register_app("SlowStart", main)
    app = host.launch(ExecSpec(class_name))
    assert app.state == "running"  # exec did not wait
    assert app.wait_for(5) == 0


def test_current_application_resolves_from_any_app_thread(host,
                                                          register_app):
    resolved = []

    def main(jclass, ctx, args):
        resolved.append(current_application())

        def worker():
            resolved.append(current_application())

        thread = JThread(target=worker)
        thread.start()
        thread.join(5)
        return 0

    class_name = register_app("Resolver", main)
    app = host.launch(ExecSpec(class_name))
    assert app.wait_for(5) == 0
    assert resolved == [app, app]


def test_two_instances_of_same_program_are_distinct(host, register_app):
    """"threads give us a convenient way to distinguish two instances of
    the same program running inside a single JVM" (Figure 3)."""
    instances = []

    def main(jclass, ctx, args):
        instances.append(current_application())
        return 0

    class_name = register_app("Twice", main)
    app_a = host.launch(ExecSpec(class_name))
    app_b = host.launch(ExecSpec(class_name))
    assert app_a.wait_for(5) == 0
    assert app_b.wait_for(5) == 0
    assert set(instances) == {app_a, app_b}
    assert app_a.thread_group is not app_b.thread_group


class TestStateInheritance:
    """"When an application creates a child application, the current
    application-wide state of the parent is inherited by the child."""

    def test_child_inherits_parent_state(self, host, register_app):
        child_view = {}

        def child_main(jclass, ctx, args):
            child_view["user"] = ctx.app.user.name
            child_view["cwd"] = ctx.app.cwd
            child_view["color"] = ctx.app.properties.get_property("color")
            child_view["stdout"] = ctx.stdout
            return 0

        child_class = register_app("ChildApp", child_main)

        def parent_main(jclass, ctx, args):
            ctx.app.set_cwd("/tmp")
            ctx.app.properties.set_property("color", "blue")
            child = ctx.launch(ExecSpec(child_class, []))
            child.wait_for(5)
            return 0

        parent_class = register_app("ParentApp", parent_main)
        alice = host.vm.user_database.lookup("alice")
        out = PrintStream(ByteArrayOutputStream())
        parent = host.launch(
            ExecSpec(parent_class, [], user=alice, stdout=out))
        assert parent.wait_for(5) == 0
        assert child_view["user"] == "alice"
        assert child_view["cwd"] == "/tmp"
        assert child_view["color"] == "blue"
        assert child_view["stdout"] is out

    def test_child_properties_are_a_snapshot(self, host, register_app):
        observed = {}

        def child_main(jclass, ctx, args):
            ctx.app.properties.set_property("mine", "child")
            observed["color"] = ctx.app.properties.get_property("color")
            return 0

        child_class = register_app("SnapChild", child_main)

        def parent_main(jclass, ctx, args):
            ctx.app.properties.set_property("color", "red")
            child = ctx.launch(ExecSpec(child_class, []))
            child.wait_for(5)
            observed["parent_mine"] = \
                ctx.app.properties.get_property("mine")
            return 0

        parent_class = register_app("SnapParent", parent_main)
        parent = host.launch(ExecSpec(parent_class))
        assert parent.wait_for(5) == 0
        assert observed["color"] == "red"
        assert observed["parent_mine"] is None

    def test_overrides_replace_inherited_values(self, host, register_app):
        seen = {}

        def main(jclass, ctx, args):
            seen["user"] = ctx.app.user.name
            seen["cwd"] = ctx.app.cwd
            return 0

        class_name = register_app("Overridden", main)
        bob = host.vm.user_database.lookup("bob")
        props = Properties()
        app = host.launch(ExecSpec(class_name, [], user=bob, cwd="/etc",
                                   properties=props))
        assert app.wait_for(5) == 0
        assert seen["user"] == "bob"
        assert seen["cwd"] == "/etc"


class TestRegistry:
    def test_applications_listed_and_removed(self, host, register_app):
        def main(jclass, ctx, args):
            JThread.sleep(10.0)
            return 0

        class_name = register_app("Listed", main)
        app = host.launch(ExecSpec(class_name))
        table = host.vm.application_registry.applications(check=False)
        assert app in table
        assert host.initial in table
        app.destroy()
        app.wait_for(5)
        table = host.vm.application_registry.applications(check=False)
        assert app not in table

    def test_find_by_id(self, host, register_app):
        def main(jclass, ctx, args):
            JThread.sleep(10.0)
            return 0

        app = host.launch(ExecSpec(register_app("Findable", main)))
        registry = host.vm.application_registry
        assert registry.find(app.app_id) is app
        assert registry.find(99999) is None
        app.destroy()
        app.wait_for(5)


def test_host_thread_outside_sessions_has_no_application(mvm):
    assert current_application_or_none() is None
    with pytest.raises(IllegalStateException):
        current_application()


def test_exec_without_vm_or_parent_fails():
    from repro.jvm.errors import IllegalArgumentException
    with pytest.raises(IllegalArgumentException):
        launch(ExecSpec("any.Class"))
