"""JThread and ThreadGroup semantics (Sections 3.1 and 5.1)."""

import threading
import time

import pytest

from repro.jvm.errors import (
    IllegalArgumentException,
    IllegalStateException,
    IllegalThreadStateException,
    InterruptedException,
    ThreadDeath,
)
from repro.jvm.threads import (
    JThread,
    ThreadGroup,
    checkpoint,
    owning_application,
)
from repro.sched.timers import wait_until


@pytest.fixture
def root():
    return ThreadGroup(None, "system")


def attach_here(group, name="test-main"):
    thread = JThread.attach(name, group)
    return thread


class TestThreadGroupTree:
    def test_root_must_be_named_system(self):
        with pytest.raises(IllegalArgumentException):
            ThreadGroup(None, "not-system")

    def test_parent_of_reflexive_and_transitive(self, root):
        child = ThreadGroup(root, "child")
        grandchild = ThreadGroup(child, "grandchild")
        assert root.parent_of(root)
        assert root.parent_of(child)
        assert root.parent_of(grandchild)
        assert child.parent_of(grandchild)
        assert not child.parent_of(root)
        assert not grandchild.parent_of(child)

    def test_sibling_groups_are_not_ancestors(self, root):
        a = ThreadGroup(root, "a")
        b = ThreadGroup(root, "b")
        assert not a.parent_of(b)
        assert not b.parent_of(a)

    def test_enumerate_groups_recursive(self, root):
        a = ThreadGroup(root, "a")
        b = ThreadGroup(a, "b")
        assert root.enumerate_groups() == [a, b]
        assert root.enumerate_groups(recurse=False) == [a]

    def test_destroy_empty_group(self, root):
        child = ThreadGroup(root, "child")
        child.destroy()
        assert child.destroyed
        assert child not in root.enumerate_groups()
        with pytest.raises(IllegalThreadStateException):
            child.destroy()

    def test_destroy_with_live_thread_fails(self, root):
        child = ThreadGroup(root, "child")
        done = threading.Event()
        thread = JThread(target=done.wait, name="t", group=child, args=(2,))
        thread.start()
        try:
            with pytest.raises(IllegalThreadStateException):
                child.destroy()
        finally:
            done.set()
            thread.join(2)

    def test_destroy_with_live_thread_in_subgroup_changes_nothing(self,
                                                                   root):
        """A live thread anywhere below refuses the destroy before any
        subgroup is destroyed."""
        child = ThreadGroup(root, "child")
        empty = ThreadGroup(child, "empty")
        busy = ThreadGroup(child, "busy")
        done = threading.Event()
        thread = JThread(target=done.wait, name="t", group=busy, args=(2,))
        thread.start()
        try:
            with pytest.raises(IllegalThreadStateException):
                child.destroy()
            assert not empty.destroyed and not busy.destroyed
            assert child.enumerate_groups() == [empty, busy]
        finally:
            done.set()
            thread.join(2)

    def test_add_to_destroyed_group_fails(self, root):
        child = ThreadGroup(root, "child")
        child.destroy()
        with pytest.raises(IllegalThreadStateException):
            ThreadGroup(child, "grandchild")

    def test_start_in_destroyed_group_fails(self, root):
        """A thread built in a group that is destroyed before it starts
        never runs (Java's ThreadGroup.add throws)."""
        child = ThreadGroup(root, "child")
        ran = []
        thread = JThread(target=lambda: ran.append(1), name="t",
                         group=child)
        child.destroy()
        with pytest.raises(IllegalThreadStateException):
            thread.start()
        assert not thread.started and not thread.is_alive()
        assert ran == []


class TestThreadLifecycle:
    def test_target_runs_and_finishes(self, root):
        seen = []
        thread = JThread(target=lambda: seen.append(1), name="t", group=root)
        assert not thread.is_alive()
        thread.start()
        thread.join(2)
        assert seen == [1]
        assert not thread.is_alive()
        assert thread.started

    def test_double_start_fails(self, root):
        thread = JThread(target=lambda: None, name="t", group=root)
        thread.start()
        thread.join(2)
        with pytest.raises(IllegalThreadStateException):
            thread.start()

    def test_thread_removed_from_group_on_finish(self, root):
        thread = JThread(target=lambda: None, name="t", group=root)
        thread.start()
        thread.join(2)
        time.sleep(0.05)
        assert thread not in root.enumerate_threads()

    def test_auto_naming(self, root):
        a = JThread(target=lambda: None, group=root)
        b = JThread(target=lambda: None, group=root)
        assert a.name != b.name
        assert a.name.startswith("Thread-")

    def test_group_defaults_to_creator_group(self, root):
        captured = []

        def outer():
            inner = JThread(target=lambda: None)
            captured.append(inner.group)

        thread = JThread(target=outer, name="outer", group=root)
        thread.start()
        thread.join(2)
        assert captured == [root]

    def test_unattached_creator_without_group_fails(self, root):
        with pytest.raises(IllegalArgumentException):
            JThread(target=lambda: None)

    def test_finish_hooks_run_in_dying_thread(self, root):
        order = []
        thread = JThread(target=lambda: order.append("body"), group=root)
        thread.finish_hooks.append(lambda t: order.append("hook"))
        thread.start()
        thread.join(2)
        time.sleep(0.05)
        assert order == ["body", "hook"]


class TestDaemonSemantics:
    def test_daemon_inherited_from_creator(self, root):
        captured = []

        def outer():
            captured.append(JThread(target=lambda: None).daemon)

        daemon_parent = JThread(target=outer, group=root, daemon=True)
        daemon_parent.start()
        daemon_parent.join(2)
        assert captured == [True]

    def test_set_daemon_after_start_fails(self, root):
        thread = JThread(target=lambda: time.sleep(0.1), group=root)
        thread.start()
        with pytest.raises(IllegalThreadStateException):
            thread.set_daemon(True)
        thread.join(2)

    def test_non_daemon_count(self, root):
        stop = threading.Event()
        d = JThread(target=stop.wait, group=root, daemon=True, args=(5,))
        n = JThread(target=stop.wait, group=root, daemon=False, args=(5,))
        d.start()
        n.start()
        try:
            time.sleep(0.02)
            assert root.non_daemon_count() == 1
            assert root.active_count() == 2
        finally:
            stop.set()
            d.join(2)
            n.join(2)


class TestInterruption:
    def test_sleep_interrupted(self, root):
        result = []

        def body():
            try:
                JThread.sleep(5.0)
                result.append("slept")
            except InterruptedException:
                result.append("interrupted")

        thread = JThread(target=body, group=root)
        thread.start()
        time.sleep(0.05)
        thread.interrupt()
        thread.join(2)
        assert result == ["interrupted"]

    def test_interrupt_flag_cleared_on_raise(self, root):
        result = []

        def body():
            try:
                JThread.sleep(5.0)
            except InterruptedException:
                result.append(JThread.current().is_interrupted())

        thread = JThread(target=body, group=root)
        thread.start()
        time.sleep(0.05)
        thread.interrupt()
        thread.join(2)
        assert result == [False]

    def test_stop_raises_thread_death_at_stop_point(self, root):
        result = []

        def body():
            try:
                while True:
                    checkpoint()
                    time.sleep(0.005)
            except ThreadDeath:
                result.append("died")
                raise

        thread = JThread(target=body, group=root)
        thread.start()
        time.sleep(0.05)
        thread.stop()
        thread.join(2)
        assert result == ["died"]
        assert not thread.is_alive()

    def test_stop_wins_over_interrupt(self, root):
        result = []

        def body():
            try:
                JThread.sleep(5.0)
            except ThreadDeath:
                result.append("death")
            except InterruptedException:
                result.append("interrupt")

        thread = JThread(target=body, group=root)
        thread.start()
        time.sleep(0.05)
        thread.stop()  # sets both flags
        thread.join(2)
        assert result == ["death"]

    def test_group_interrupt_reaches_all_threads(self, root):
        child = ThreadGroup(root, "child")
        hits = []

        def body():
            try:
                JThread.sleep(5.0)
            except InterruptedException:
                hits.append(1)

        threads = [JThread(target=body, group=child) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        root.interrupt()
        for thread in threads:
            thread.join(2)
        assert len(hits) == 3


class TestAttach:
    def test_attach_and_detach(self, root):
        thread = attach_here(root)
        try:
            assert JThread.current() is thread
            assert thread in root.enumerate_threads()
        finally:
            thread.detach()
        assert JThread.current_or_none() is None

    def test_double_attach_fails(self, root):
        thread = attach_here(root)
        try:
            with pytest.raises(IllegalStateException):
                JThread.attach("again", root)
        finally:
            thread.detach()

    def test_current_raises_when_unattached(self):
        with pytest.raises(IllegalStateException):
            JThread.current()


class TestInterruptibleWait:
    def test_predicate_satisfied(self):
        cond = threading.Condition()
        with cond:
            assert wait_until(cond, lambda: True, timeout=0.1)

    def test_timeout(self):
        cond = threading.Condition()
        start = time.monotonic()
        with cond:
            assert not wait_until(cond, lambda: False, timeout=0.1)
        assert time.monotonic() - start < 1.0


class TestOwningApplication:
    def test_walks_ancestry(self, root):
        child = ThreadGroup(root, "child")
        grandchild = ThreadGroup(child, "grandchild")
        marker = object()
        child.application = marker
        assert owning_application(grandchild) is marker
        assert owning_application(child) is marker
        assert owning_application(root) is None

    def test_destroyed_group_belongs_to_no_application(self, root):
        """The reaper cuts a destroyed group's link; the walk must stop
        there rather than reach the parent's application."""
        parent = ThreadGroup(root, "parent")
        parent.application = object()
        child = ThreadGroup(parent, "child")
        nested = ThreadGroup(child, "nested")
        child.application = object()
        child.destroy()
        child.application = None
        assert owning_application(child) is None
        assert owning_application(nested) is None


class TestFailedStart:
    """A backing that fails to start leaves the thread uncounted."""

    @staticmethod
    def _stopping_scheduler():
        from repro.sched import Scheduler
        scheduler = Scheduler(name="stopping")
        scheduler.start()
        scheduler.shutdown()
        return scheduler

    def test_task_backing_refused_by_stopping_loop(self, vm, monkeypatch):
        monkeypatch.setattr(vm, "ensure_scheduler",
                            self._stopping_scheduler)
        before = vm.non_daemon_count

        def body():
            yield

        thread = JThread(target=body, group=vm.main_group, daemon=False)
        with pytest.raises(IllegalStateException):
            thread.start()
        assert not thread.is_alive() and not thread.started
        assert vm.non_daemon_count == before
        assert thread not in vm.main_group.enumerate_threads()

    def test_os_backing_refused(self, vm, monkeypatch):
        import types

        from repro.jvm import threads as threads_module

        class NoThread(threading.Thread):
            def start(self):
                raise RuntimeError("can't start new thread")

        fake = types.SimpleNamespace(**vars(threading))
        fake.Thread = NoThread
        monkeypatch.setattr(threads_module, "threading", fake)
        before = vm.non_daemon_count
        thread = JThread(target=lambda: None, group=vm.main_group,
                         daemon=False)
        with pytest.raises(RuntimeError):
            thread.start()
        monkeypatch.undo()
        assert not thread.is_alive() and not thread.started
        assert vm.non_daemon_count == before
        assert thread not in vm.main_group.enumerate_threads()

    def test_app_still_exits_and_is_reaped(self, host, register_app,
                                           monkeypatch):
        """The refused thread no longer holds its application open."""
        from repro.core.execspec import ExecSpec

        outcome = {}

        def worker():
            yield

        def main(jclass, ctx, args):
            thread = JThread(target=worker, daemon=False)
            try:
                thread.start()
            except IllegalStateException as exc:
                outcome["error"] = exc
            outcome["alive"] = thread.is_alive()
            outcome["live"] = len(ctx.app.live_threads())
            return 0

        monkeypatch.setattr(host.vm, "ensure_scheduler",
                            self._stopping_scheduler)
        app = host.launch(ExecSpec(register_app("Refused", main), ()))
        assert app.wait_for(5) == 0
        monkeypatch.undo()
        assert isinstance(outcome["error"], IllegalStateException)
        assert outcome["alive"] is False
        assert outcome["live"] == 1
        assert app.non_daemon_count == 0

    def test_thread_that_never_ran_is_not_counted_started(
            self, host, register_app, monkeypatch):
        """ThreadsEver and ``app.threads.started`` count only threads
        whose backing started: the refused worker is in neither."""
        from repro.core.execspec import ExecSpec

        metrics = host.vm.telemetry.metrics
        seen = {}

        def worker():
            yield

        def main(jclass, ctx, args):
            with pytest.raises(IllegalStateException):
                JThread(target=worker, daemon=False).start()
            seen["ever"] = ctx.app.stats["threads"]
            return 0

        class_name = register_app("Uncounted", main)
        before = metrics.total("app.threads.started")
        monkeypatch.setattr(host.vm, "ensure_scheduler",
                            self._stopping_scheduler)
        app = host.launch(ExecSpec(class_name, ()))
        assert app.wait_for(5) == 0
        monkeypatch.undo()
        assert seen["ever"] == app.stats["threads"] == 1  # main only
        assert metrics.total("app.threads.started") - before == 1

    def test_failed_start_does_not_shut_the_vm_down(self, vm, monkeypatch):
        """Undoing a failed start only restores the counts: the VM's only
        non-daemon thread failing to start is not its last one ending."""
        assert vm.exit_when_last_nondaemon
        monkeypatch.setattr(vm, "ensure_scheduler",
                            self._stopping_scheduler)

        def body():
            yield

        thread = JThread(target=body, group=vm.main_group, daemon=False)
        with pytest.raises(IllegalStateException):
            thread.start()
        assert vm.non_daemon_count == 0
        assert vm.state == "booted"

    def test_main_that_fails_to_start_ends_its_app_nonzero(self, host,
                                                           register_app,
                                                           monkeypatch):
        """A main thread that never starts is no clean exit: the launch
        raises and the application ends with a non-zero code."""
        from repro.core.execspec import ExecSpec

        registry = host.vm.application_registry
        register = registry.register
        launched = []

        def recording(application):
            launched.append(application)
            register(application)

        def main(jclass, ctx, args):
            return 0
            yield  # pragma: no cover - makes main a generator function

        class_name = register_app("NeverRan", main)
        monkeypatch.setattr(registry, "register", recording)
        monkeypatch.setattr(host.vm, "ensure_scheduler",
                            self._stopping_scheduler)
        with pytest.raises(IllegalStateException):
            host.launch(ExecSpec(class_name, ()))
        monkeypatch.undo()
        app, = launched
        code = app.wait_for(5)
        assert code is not None and code != 0
        deadline = time.monotonic() + 5.0
        while registry.find(app.app_id) is not None \
                and time.monotonic() < deadline:
            time.sleep(0.005)
        assert registry.find(app.app_id) is None
