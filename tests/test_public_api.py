"""The public API surface: everything advertised is importable and sane."""

import importlib

import pytest

import repro


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"missing export: {name}"


def test_version_present():
    assert repro.__version__


@pytest.mark.parametrize("module_name", [
    "repro.jvm.errors", "repro.jvm.threads", "repro.jvm.classloading",
    "repro.jvm.vm",
    "repro.lang.properties", "repro.lang.system", "repro.lang.sysprops",
    "repro.lang.context", "repro.lang.reflect", "repro.lang.bootstrap",
    "repro.io.streams", "repro.io.file",
    "repro.unixfs.vfs", "repro.unixfs.users", "repro.unixfs.machine",
    "repro.security.permissions", "repro.security.codesource",
    "repro.security.policy", "repro.security.access",
    "repro.security.manager", "repro.security.sysmanager",
    "repro.security.auth",
    "repro.awt.events", "repro.awt.components", "repro.awt.xserver",
    "repro.awt.toolkit", "repro.awt.dispatch",
    "repro.core.application", "repro.core.context", "repro.core.reload",
    "repro.core.usermodel", "repro.core.launcher", "repro.core.sharing",
    "repro.core.execspec",
    "repro.super", "repro.super.faults", "repro.super.admission",
    "repro.super.spec", "repro.super.supervisor",
    "repro.net.fabric", "repro.net.sockets",
    "repro.tools.shell", "repro.tools.terminal", "repro.tools.login",
    "repro.tools.coreutils", "repro.tools.appletviewer",
    "repro.tools.registry",
    "repro.dist.protocol", "repro.dist.daemon", "repro.dist.client",
    "repro.dist.rsh",
    "repro.procsim.model",
    "repro.sched", "repro.sched.core", "repro.sched.waitobj",
    "repro.sched.ops", "repro.sched.timers",
])
def test_every_module_imports_and_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


def test_public_classes_documented():
    for name in repro.__all__:
        item = getattr(repro, name)
        if isinstance(item, type):
            assert item.__doc__, f"{name} lacks a docstring"


def test_paper_policy_exported_and_parses():
    policy = repro.paper_example_policy()
    assert policy.entries()
    assert "UserPermission" in repro.DEFAULT_POLICY


class TestSchedulerExports:
    """The event-loop scheduler core is part of the public surface."""

    def test_scheduler_types_exported(self):
        for name in ("sched", "Scheduler", "Task", "spawn", "sched_yield",
                     "WaitPoint", "SchedEvent", "TaskWaiter"):
            assert name in repro.__all__, name
            assert hasattr(repro, name), name

    def test_spawn_is_default_scheduler_entrypoint(self):
        task = repro.spawn(lambda: 40 + 2)
        assert task.join(5)
        assert task.result == 42

    def test_jthread_facade_signature_stable(self):
        """The facade's constructor surface is pinned: the body's type
        alone picks its backing, so there is no backing parameter."""
        import inspect
        from repro.jvm.threads import JThread
        params = list(inspect.signature(JThread.__init__).parameters)
        assert params == ["self", "target", "name", "group", "daemon",
                          "args"]

    def test_execspec_threads_field(self):
        """ExecSpec carries no threads mode: an application's threads
        get their backing from their bodies, not from the launch."""
        import dataclasses
        from repro.core.execspec import ExecSpec
        spec = ExecSpec("apps.Demo")
        assert "threads" not in {f.name for f in dataclasses.fields(spec)}
        with pytest.raises(TypeError):
            ExecSpec("apps.Demo", **{"threads": "os"})

    def test_wait_objects_are_condition_compatible(self):
        wp = repro.WaitPoint()
        with wp:
            pass  # acquire/release like a Condition
        event = repro.SchedEvent()
        event.set()
        assert event.wait(0) is True
