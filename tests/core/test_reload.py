"""Experiment F5: reloading the System class per application (Section 5.5,
Figure 5) — own streams, shared properties."""

import pytest

from repro.core.execspec import ExecSpec
from repro.core.reload import RELOADABLE_CLASSES, ApplicationClassLoader
from repro.io.streams import ByteArrayOutputStream, PrintStream
from repro.jvm.threads import JThread


def parked_app(host, register_app, name):
    def main(jclass, ctx, args):
        JThread.sleep(60.0)
        return 0

    return host.launch(ExecSpec(register_app(name, main)))


class TestSystemReloading:
    def test_each_application_gets_its_own_system_class(self, host,
                                                        register_app):
        app_a = parked_app(host, register_app, "ReloadA")
        app_b = parked_app(host, register_app, "ReloadB")
        try:
            assert app_a.system_class is not app_b.system_class
            assert app_a.system_class.name == app_b.system_class.name \
                == "java.lang.System"
            # "albeit from the same class material"
            assert app_a.system_class.material \
                is app_b.system_class.material
            assert app_a.loader is not app_b.loader
        finally:
            app_a.destroy()
            app_b.destroy()
            app_a.wait_for(5)
            app_b.wait_for(5)

    def test_streams_are_per_application_state(self, host, register_app):
        """Different applications have different ideas about what their
        standard output is; setting one must not affect the other."""
        captured = {}

        def main_writer(jclass, ctx, args):
            ctx.stdout.println(f"from {args[0]}")
            captured[args[0]] = ctx.stdout
            return 0

        class_name = register_app("StreamApp", main_writer)
        out_a, out_b = ByteArrayOutputStream(), ByteArrayOutputStream()
        app_a = host.launch(
            ExecSpec(class_name, ["a"], stdout=PrintStream(out_a)))
        app_b = host.launch(
            ExecSpec(class_name, ["b"], stdout=PrintStream(out_b)))
        assert app_a.wait_for(5) == 0
        assert app_b.wait_for(5) == 0
        assert out_a.to_text() == "from a\n"
        assert out_b.to_text() == "from b\n"
        assert captured["a"] is not captured["b"]

    def test_system_properties_shared_between_applications(self, host,
                                                           register_app):
        """Figure 5: the SystemProperties class is shared — a property set
        by one application is visible to all."""
        read_back = {}

        def setter(jclass, ctx, args):
            ctx.system.set_property("experiment.flag", "set-by-a")
            return 0

        def getter(jclass, ctx, args):
            read_back["value"] = ctx.system.get_property("experiment.flag")
            return 0

        app_a = host.launch(ExecSpec(register_app("PropSetter", setter,
                                                  code_source=None)))
        assert app_a.wait_for(5) == 0
        app_b = host.launch(ExecSpec(register_app("PropGetter", getter)))
        assert app_b.wait_for(5) == 0
        assert read_back["value"] == "set-by-a"

    def test_sysprops_class_identical_across_apps(self, host, register_app):
        app_a = parked_app(host, register_app, "SharedA")
        app_b = parked_app(host, register_app, "SharedB")
        try:
            sysprops_a = app_a.loader.load_class(
                "java.lang.SystemProperties")
            sysprops_b = app_b.loader.load_class(
                "java.lang.SystemProperties")
            assert sysprops_a is sysprops_b
            # And it is exactly the class the app's System statics hold.
            assert app_a.system_class.statics["sysprops_class"] \
                is sysprops_a
        finally:
            app_a.destroy()
            app_b.destroy()
            app_a.wait_for(5)
            app_b.wait_for(5)

    def test_security_manager_slot_is_per_application(self, host,
                                                      register_app):
        """Section 5.6: applications can set their own security managers
        (stored in their own System copy) without affecting anyone."""
        def main(jclass, ctx, args):
            ctx.system.set_security_manager(f"sm-of-{args[0]}")
            return 0

        class_name = register_app("SmApp", main)
        app_a = host.launch(ExecSpec(class_name, ["a"]))
        app_b = host.launch(ExecSpec(class_name, ["b"]))
        assert app_a.wait_for(5) == 0
        assert app_b.wait_for(5) == 0
        assert app_a.system_class.statics["security_manager"] == "sm-of-a"
        assert app_b.system_class.statics["security_manager"] == "sm-of-b"
        # The VM-wide system security manager is untouched.
        from repro.security.sysmanager import SystemSecurityManager
        assert isinstance(host.vm.security_manager, SystemSecurityManager)


class TestApplicationClassLoader:
    def test_reloadable_set_default(self, host):
        loader = ApplicationClassLoader(host.vm.boot_loader, "probe")
        assert loader.reloadable == frozenset({"java.lang.System"})
        assert "java.lang.System" in RELOADABLE_CLASSES

    def test_extra_reloadable_classes(self, host, register_app):
        """The paper's open question: more classes may need reloading;
        the loader supports extending the set per experiment."""
        from repro.jvm.classloading import ClassMaterial
        material = ClassMaterial("demo.PerAppState")
        material.static_init = lambda jclass: jclass.statics.update(
            {"counter": 0})
        host.vm.registry.register(material)

        shared_loader = ApplicationClassLoader(host.vm.boot_loader, "s")
        reloading_loader = ApplicationClassLoader(
            host.vm.boot_loader, "r", extra_reloadable=["demo.PerAppState"])
        via_boot = host.vm.boot_loader.load_class("demo.PerAppState")
        assert shared_loader.load_class("demo.PerAppState") is via_boot
        assert reloading_loader.load_class("demo.PerAppState") \
            is not via_boot

    def test_non_reloadable_delegate_to_parent(self, host):
        loader = ApplicationClassLoader(host.vm.boot_loader, "probe")
        shared = loader.load_class("java.lang.SystemProperties")
        assert shared is host.vm.boot_loader.load_class(
            "java.lang.SystemProperties")

    def test_reload_cached_within_one_loader(self, host):
        loader = ApplicationClassLoader(host.vm.boot_loader, "probe")
        assert loader.load_class("java.lang.System") \
            is loader.load_class("java.lang.System")

    def test_concurrent_loads_define_exactly_once(self, host):
        """The check-then-act race: two threads loading a reloadable name
        at once must get the *same* JClass, with its static initializer
        run exactly once (the loader lock now spans lookup and define)."""
        import threading

        from repro.jvm.classloading import ClassMaterial

        init_runs = []
        material = ClassMaterial("demo.RaceState")
        material.static_init = lambda jclass: init_runs.append(jclass)
        host.vm.registry.register(material, replace=True)

        loader = ApplicationClassLoader(
            host.vm.boot_loader, "racer",
            extra_reloadable=["demo.RaceState"])
        start = threading.Barrier(8)
        results = []

        def load():
            start.wait()
            results.append(loader.load_class("demo.RaceState"))

        threads = [threading.Thread(target=load) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert len(results) == 8
        assert all(result is results[0] for result in results)
        assert len(init_runs) == 1
        reloads = host.vm.telemetry.metrics.total("reload.classes",
                                                  app="racer")
        assert reloads == 1
