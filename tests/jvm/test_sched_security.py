"""Security equivalence of the two thread backings.

The scheduler multiplexes many tasks onto one loop thread, which is
exactly the situation JDK 1.2's per-thread security state was never
designed for.  Every scenario here runs twice and requires the same
outcome both times: once as a generator body (a task on the VM's event
loop) and once as the same checks in a plain-callable body (a dedicated
OS thread, the backing shell stages, EDTs and the rexec daemon use).
The scenarios cover inherited-context confinement (Section 5.6),
thread-group ancestry checks (Section 5.1/5.6), the user-based
combination (Section 5.3), and per-thread access-stack isolation.
"""

import threading

import pytest

from repro.jvm.classloading import ClassMaterial
from repro.jvm.errors import AccessControlException, SecurityException
from repro.jvm.threads import JThread, ThreadGroup
from repro.security import access
from repro.security.codesource import CodeSource, ProtectionDomain
from repro.security.permissions import (
    Permissions,
    RuntimePermission,
    UserPermission,
)
from repro.security.sysmanager import SystemSecurityManager

pytestmark = pytest.mark.sched

PERM = RuntimePermission("doSensitiveThing")
BACKINGS = ("sched", "os")


def _domain(name, *permissions):
    return ProtectionDomain(CodeSource(f"file:/{name}"),
                            Permissions(permissions), name=name)


@pytest.fixture(params=BACKINGS)
def backing(request):
    """Both sides of the equivalence claim."""
    return request.param


def _body(scenario, backing):
    """``scenario`` (a generator function) as a body of ``backing``.

    A task runs the generator itself, so each ``yield`` is a switch on
    the shared loop.  An OS thread gets a plain callable that runs the
    same steps straight through.
    """
    if backing == "sched":
        return scenario

    def plain():
        for _ in scenario():
            pass
    return plain


def _thread(vm, scenario, backing, group=None):
    """A new (unstarted) JThread running ``scenario`` under ``backing``."""
    return JThread(target=_body(scenario, backing),
                   group=group if group is not None else vm.main_group)


def _joined(thread, backing):
    """Wait for a started ``thread`` and check which backing ran it."""
    thread.join(5)
    assert not thread.is_alive()
    if backing == "sched":
        assert thread._task is not None and thread._python_thread is None
    else:
        assert thread._task is None and thread._python_thread is not None
    return thread


def _finish(thread, backing):
    thread.start()
    return _joined(thread, backing)


def _run(vm, scenario, backing, group=None):
    return _finish(_thread(vm, scenario, backing, group), backing)


class TestInheritedContext:
    def test_untrusted_creator_confines_the_thread(self, vm, backing):
        outcome = []

        def body():
            yield
            try:
                access.check_permission(PERM)
                outcome.append("allowed")
            except AccessControlException:
                outcome.append("denied")

        with access.stack_frame(_domain("untrusted")):
            thread = _thread(vm, body, backing)
        _finish(thread, backing)
        assert outcome == ["denied"], backing

    def test_trusted_creator_leaves_thread_trusted(self, vm, backing):
        outcome = []

        def body():
            yield
            access.check_permission(PERM)  # host-trusted: must not raise
            outcome.append("allowed")

        _run(vm, body, backing)
        assert outcome == ["allowed"], backing

    def test_snapshot_is_at_creation_not_start(self, vm, backing):
        outcome = []

        def body():
            yield
            try:
                access.check_permission(PERM)
                outcome.append("allowed")
            except AccessControlException:
                outcome.append("denied")

        with access.stack_frame(_domain("untrusted")):
            thread = _thread(vm, body, backing)
        # The creator's frame is gone by start time; the snapshot from
        # construction must still confine the thread.
        _finish(thread, backing)
        assert outcome == ["denied"], backing


class TestGroupAncestry:
    """check_access_group decides thread *creation* (Section 5.1)."""

    @pytest.fixture
    def sm(self, vm):
        manager = SystemSecurityManager()
        vm.set_security_manager(manager)
        return manager

    def _untrusted_class(self, vm, fn, name):
        material = ClassMaterial(
            name, code_source=CodeSource(f"file:/untrusted/{name}.class"))
        material.members["run"] = lambda jclass, *args: fn(*args)
        vm.registry.register(material, replace=True)
        return vm.boot_loader.load_class(name)

    def test_foreign_group_creation_denied(self, vm, sm, backing):
        group_a = ThreadGroup(vm.main_group, "app-a")
        group_b = ThreadGroup(vm.main_group, "app-b")
        outcome = []

        def attack():
            JThread(target=lambda: None, group=group_b)

        jclass = self._untrusted_class(vm, attack, "demo.GroupAttack")

        def body():
            yield
            try:
                jclass.invoke("run")
                outcome.append("allowed")
            except SecurityException:
                outcome.append("denied")

        _run(vm, body, backing, group=group_a)
        assert outcome == ["denied"], backing

    def test_own_subtree_creation_allowed(self, vm, sm, backing):
        group_a = ThreadGroup(vm.main_group, "app-a")
        child = ThreadGroup(group_a, "app-a-child")
        outcome = []

        def create():
            JThread(target=lambda: None, group=child)

        jclass = self._untrusted_class(vm, create, "demo.GroupChild")

        def body():
            yield
            try:
                jclass.invoke("run")
                outcome.append("allowed")
            except SecurityException:
                outcome.append("denied")

        _run(vm, body, backing, group=group_a)
        assert outcome == ["allowed"], backing


class TestUserCombination:
    """Section 5.3: code grants and user grants combine identically."""

    @pytest.fixture
    def user_grants(self):
        saved = access.user_permission_resolver
        granted = Permissions([PERM])
        access.user_permission_resolver = lambda: granted
        yield granted
        access.user_permission_resolver = saved

    def test_user_permission_domain_gains_user_grants(
            self, vm, backing, user_grants):
        outcome = []
        domain = _domain("with-user-perm", UserPermission())

        def body():
            yield
            with access.stack_frame(domain):
                try:
                    access.check_permission(PERM)
                    outcome.append("allowed")
                except AccessControlException:
                    outcome.append("denied")

        _run(vm, body, backing)
        assert outcome == ["allowed"], backing

    def test_without_user_permission_still_denied(
            self, vm, backing, user_grants):
        outcome = []
        domain = _domain("no-user-perm")

        def body():
            yield
            with access.stack_frame(domain):
                try:
                    access.check_permission(PERM)
                    outcome.append("allowed")
                except AccessControlException:
                    outcome.append("denied")

        _run(vm, body, backing)
        assert outcome == ["denied"], backing


class TestStackIsolation:
    """Frames held across a yield stay with their thread, not the loop."""

    def test_frame_survives_yield_and_pops(self, vm, backing):
        outcome = []
        guard = access.stack_frame(_domain("untrusted"))

        def body():
            guard.__enter__()
            yield
            try:
                access.check_permission(PERM)
                outcome.append("allowed-inside")
            except AccessControlException:
                outcome.append("denied-inside")
            guard.__exit__(None, None, None)
            yield
            access.check_permission(PERM)
            outcome.append("allowed-after")

        _run(vm, body, backing)
        assert outcome == ["denied-inside", "allowed-after"], backing

    def test_two_tasks_do_not_share_frames(self, vm):
        """As tasks both interleave on ONE loop thread, so any leak of
        A's untrusted frame would poison B's check; as OS threads each
        keeps its own stack."""
        for backing in BACKINGS:
            self._two_bodies_do_not_share_frames(vm, backing)

    @staticmethod
    def _two_bodies_do_not_share_frames(vm, backing):
        barrier = threading.Event()
        outcome = {}

        def tainted():
            with access.stack_frame(_domain("untrusted")):
                for _ in range(20):
                    yield
            barrier.set()

        def clean():
            for _ in range(20):
                yield
                try:
                    access.check_permission(PERM)
                except AccessControlException:
                    outcome["leak"] = True
            outcome.setdefault("clean", True)

        thread_a = _thread(vm, tainted, backing)
        thread_b = _thread(vm, clean, backing)
        thread_a.start()
        thread_b.start()
        _joined(thread_a, backing)
        _joined(thread_b, backing)
        assert barrier.is_set()
        assert outcome == {"clean": True}, backing


class TestFacadeLessTasks:
    """A body started by untrusted code inherits that code's privilege.

    On the loop this is a raw ``scheduler.spawn`` with no JThread (the
    task-floor mechanism); on an OS thread it is the JThread a
    plain-callable body gets.
    """

    @staticmethod
    def _spawn(vm, scenario, backing):
        if backing == "sched":
            return vm.ensure_scheduler().spawn(scenario)
        thread = _thread(vm, scenario, backing)
        thread.start()
        return thread

    @staticmethod
    def _wait(started, backing):
        if backing == "sched":
            assert started.join(5)
        else:
            _joined(started, backing)

    def test_spawner_context_confines_raw_task(self, vm):
        for backing in BACKINGS:
            self._spawner_context_confines(vm, backing)

    def _spawner_context_confines(self, vm, backing):
        outcome = []

        def body():
            yield
            try:
                access.check_permission(PERM)
                outcome.append("allowed")
            except AccessControlException:
                outcome.append("denied")

        with access.stack_frame(_domain("untrusted")):
            started = self._spawn(vm, body, backing)
        self._wait(started, backing)
        assert outcome == ["denied"], backing

    def test_trusted_spawner_task_stays_trusted(self, vm):
        for backing in BACKINGS:
            self._trusted_spawner_stays_trusted(vm, backing)

    def _trusted_spawner_stays_trusted(self, vm, backing):
        outcome = []

        def body():
            yield
            access.check_permission(PERM)
            outcome.append("allowed")

        self._wait(self._spawn(vm, body, backing), backing)
        assert outcome == ["allowed"], backing
