"""Shared objects between applications (Section 8, future work) and the
name-space type-safety guard."""

import pytest

from repro.core.execspec import ExecSpec
from repro.jvm.classloading import ClassMaterial, JObject
from repro.jvm.errors import (
    ClassCastException,
    IllegalArgumentException,
    SecurityException,
)


@pytest.fixture
def message_class(mvm):
    """A plain (shared, boot-loader) class typed objects can safely use."""
    material = ClassMaterial("ipc.Message")

    @material.member
    def text_of(jclass, obj):
        return obj.fields["text"]

    mvm.vm.registry.register(material)
    return mvm.vm.boot_loader.load_class("ipc.Message")


def app_run(mvm, register_app, name, main, **kwargs):
    app = mvm.launch(ExecSpec(register_app(name, main), **kwargs))
    assert app.wait_for(10) == 0
    return app


class TestUntypedSharing:
    def test_bind_and_lookup_across_applications(self, host, register_app):
        received = {}

        def producer(jclass, ctx, args):
            ctx.vm.shared_objects.bind("greeting", "hello from producer")
            return 0

        def consumer(jclass, ctx, args):
            received["value"] = ctx.vm.shared_objects.lookup("greeting")
            return 0

        app_run(host, register_app, "Producer", producer)
        app_run(host, register_app, "Consumer", consumer)
        assert received["value"] == "hello from producer"

    def test_unshareable_type_rejected(self, host):
        with pytest.raises(IllegalArgumentException):
            host.vm.shared_objects.bind("bad", object())
        with pytest.raises(IllegalArgumentException):
            host.vm.shared_objects.bind("bad", ["lists", "leak"])

    def test_tuple_of_primitives_ok(self, host):
        host.vm.shared_objects.bind("point", (3, 4))
        assert host.vm.shared_objects.lookup("point") == (3, 4)

    def test_duplicate_bind_rejected_unless_replace(self, host):
        space = host.vm.shared_objects
        space.bind("slot", "first")
        with pytest.raises(IllegalArgumentException):
            space.bind("slot", "second")
        space.bind("slot", "second", replace=True)
        assert space.lookup("slot") == "second"

    def test_missing_name(self, host):
        with pytest.raises(IllegalArgumentException):
            host.vm.shared_objects.lookup("never-bound")

    def test_names_listing(self, host):
        host.vm.shared_objects.bind("a", "1")
        host.vm.shared_objects.bind("b", "2")
        assert host.vm.shared_objects.names() == ["a", "b"]


class TestTypedSharing:
    def test_boot_class_objects_shared_safely(self, host, register_app,
                                              message_class):
        """Objects of a non-reloadable class resolve identically in every
        application's name space — safe to share."""
        received = {}

        def producer(jclass, ctx, args):
            message = JObject(ctx.load_class("ipc.Message"),
                              text="typed payload")
            ctx.vm.shared_objects.bind("msg", message)
            return 0

        def consumer(jclass, ctx, args):
            message = ctx.vm.shared_objects.lookup("msg", ctx)
            received["text"] = message.invoke("text_of")
            received["same_class"] = message.is_instance_of(
                ctx.load_class("ipc.Message"))
            return 0

        app_run(host, register_app, "TypedProducer", producer)
        app_run(host, register_app, "TypedConsumer", consumer)
        assert received["text"] == "typed payload"
        assert received["same_class"] is True

    def test_reloaded_class_objects_rejected_across_name_spaces(
            self, host, register_app):
        """The §8 hazard: an object of a *reloaded* class (here, System —
        re-defined per application) must not cross into another
        application, whose loader resolves that name to a different
        class."""
        outcome = {}

        def producer(jclass, ctx, args):
            # An object whose class is this application's own System copy.
            own_system = ctx.load_class("java.lang.System")
            ctx.vm.shared_objects.bind("sysobj", JObject(own_system))
            return 0

        def consumer(jclass, ctx, args):
            try:
                ctx.vm.shared_objects.lookup("sysobj", ctx)
                outcome["result"] = "leaked"
            except ClassCastException:
                outcome["result"] = "rejected"
            return 0

        app_run(host, register_app, "SysProducer", producer)
        app_run(host, register_app, "SysConsumer", consumer)
        assert outcome["result"] == "rejected"

    def test_same_application_lookup_is_fine(self, host, register_app):
        outcome = {}

        def main(jclass, ctx, args):
            own_system = ctx.load_class("java.lang.System")
            ctx.vm.shared_objects.bind("own", JObject(own_system))
            back = ctx.vm.shared_objects.lookup("own", ctx)
            outcome["same"] = back.jclass is own_system
            return 0

        app_run(host, register_app, "SelfShare", main)
        assert outcome["same"] is True

    def test_host_lookup_skips_name_space_check(self, host, message_class):
        host.vm.shared_objects.bind("host-msg",
                                    JObject(message_class, text="x"))
        value = host.vm.shared_objects.lookup("host-msg")
        assert value.fields["text"] == "x"


class TestOwnershipAndSecurity:
    def test_unbind_by_owner(self, host, register_app):
        def main(jclass, ctx, args):
            space = ctx.vm.shared_objects
            space.bind("mine", "value")
            space.unbind("mine")
            return 0

        app_run(host, register_app, "OwnerUnbind", main)
        with pytest.raises(IllegalArgumentException):
            host.vm.shared_objects.lookup("mine")

    def test_unbind_by_stranger_denied(self, host, register_app):
        outcome = {}

        def producer(jclass, ctx, args):
            ctx.vm.shared_objects.bind("protected", "value")
            from repro.jvm.threads import JThread
            JThread.sleep(30.0)
            return 0

        def attacker(jclass, ctx, args):
            try:
                ctx.vm.shared_objects.unbind("protected")
                outcome["result"] = "unbound"
            except SecurityException:
                outcome["result"] = "denied"
            return 0

        producer_class = register_app("BindHolder", producer)
        holder = host.launch(ExecSpec(producer_class))
        import time
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if "protected" in host.vm.shared_objects.names():
                break
            time.sleep(0.01)
        app_run(host, register_app, "BindAttacker", attacker)
        assert outcome["result"] == "denied"
        holder.destroy()
        holder.wait_for(5)

    def test_bindings_survive_owner_and_reparent(self, host,
                                                 register_app):
        """SysV-IPC-like persistence: the binding outlives its creator and
        its management rights pass to the creator's parent."""
        def producer(jclass, ctx, args):
            ctx.vm.shared_objects.bind("legacy", "outlives me")
            return 0

        app_run(host, register_app, "LegacyProducer", producer)
        space = host.vm.shared_objects
        assert space.lookup("legacy") == "outlives me"
        # The host session (the producer's ancestor chain) may unbind it.
        space.unbind("legacy")
        assert "legacy" not in space.names()

    def test_remote_code_denied_without_grant(self, host, register_app):
        outcome = {}

        def main(jclass, ctx, args):
            try:
                ctx.vm.shared_objects.bind("evil", "payload")
                outcome["result"] = "bound"
            except SecurityException:
                outcome["result"] = "denied"
            return 0

        class_name = register_app(
            "RemoteBinder", main,
            code_source="http://remote.example.com/Binder.class")
        app_run(host, register_app, "unused", lambda j, c, a: 0)
        app = host.launch(ExecSpec(class_name))
        assert app.wait_for(10) == 0
        assert outcome["result"] == "denied"
