"""Threads and thread groups for the simulated JVM.

Section 5.1 of the paper defines an application as "a set of Java threads"
rooted in a per-application thread group, and Section 3.1 describes the JVM
lifetime rule (Figure 1): the JVM exits once the last *non-daemon* thread has
finished, stopping any remaining daemon threads "in the middle of whatever
they were doing".

This module supplies both primitives:

* :class:`ThreadGroup` — a tree of groups; ancestry between groups is the
  basis of the system security manager's thread-access policy (Section 5.6).
* :class:`JThread` — a Java-style thread wrapping a Python thread, with
  daemon/non-daemon accounting, interruption, cooperative stop, and an
  inherited access-control context captured at creation time (as in
  JDK 1.2's ``AccessController``).

Python threads cannot be killed asynchronously, so ``stop()`` is cooperative:
it raises :class:`~repro.jvm.errors.ThreadDeath` at the next *stop point*.
Every blocking primitive in this library (piped streams, event queues,
``sleep``, ``join``, application waits) is a stop point.  This matches the
paper's own machinery — its background reaper "will eventually clean up the
application" rather than killing threads instantaneously.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, Optional

from repro.jvm.errors import (
    IllegalArgumentException,
    IllegalStateException,
    IllegalThreadStateException,
    InterruptedException,
    JavaThrowable,
    ThreadDeath,
)

#: Granularity (seconds) at which blocking primitives re-check interruption.
POLL_INTERVAL = 0.01

# Maps live Python threads to their JThread wrapper.
_current_jthreads: dict[int, "JThread"] = {}
_registry_lock = threading.Lock()

# Single coarse lock guarding the thread-group tree.  The tree is small and
# mutations are rare (application launch/exit), so one lock keeps the
# invariants simple.
_tree_lock = threading.RLock()


class ThreadGroup:
    """A node in the thread-group tree.

    Groups form the backbone of the application model: the paper's system
    security manager allows thread ``T`` to access thread ``U`` only if
    ``T``'s group is an *ancestor* of ``U``'s group (Section 5.6), and each
    application's threads all live inside the application's own group
    (Section 5.1, Figure 3).
    """

    def __init__(self, parent: Optional["ThreadGroup"], name: str,
                 daemon: bool = False):
        if parent is None and name != "system":
            # Only the VM boot sequence creates the root group.
            raise IllegalArgumentException(
                "only the root group 'system' may have no parent")
        self.name = name
        self.parent = parent
        self.daemon = daemon
        self._subgroups: list[ThreadGroup] = []
        self._threads: list[JThread] = []
        self._destroyed = False
        #: The application whose root group this is (set by the
        #: application layer); the reaper clears it when it destroys the
        #: group, so neither keeps the other alive.
        self.application = None
        self.vm = parent.vm if parent is not None else None
        if parent is not None:
            parent._add_group(self)

    # -- tree structure ----------------------------------------------------

    def _add_group(self, group: "ThreadGroup") -> None:
        with _tree_lock:
            if self._destroyed:
                raise IllegalThreadStateException(
                    f"thread group {self.name} has been destroyed")
            self._subgroups.append(group)

    def _remove_group(self, group: "ThreadGroup") -> None:
        with _tree_lock:
            if group in self._subgroups:
                self._subgroups.remove(group)

    def _add_thread(self, thread: "JThread") -> None:
        with _tree_lock:
            if self._destroyed:
                raise IllegalThreadStateException(
                    f"thread group {self.name} has been destroyed")
            self._threads.append(thread)

    def _remove_thread(self, thread: "JThread") -> None:
        with _tree_lock:
            if thread in self._threads:
                self._threads.remove(thread)

    def parent_of(self, group: Optional["ThreadGroup"]) -> bool:
        """Return True if this group is ``group`` or an ancestor of it.

        This is ``java.lang.ThreadGroup.parentOf`` and is the predicate the
        system security manager uses for its thread-access policy.
        """
        while group is not None:
            if group is self:
                return True
            group = group.parent
        return False

    @property
    def destroyed(self) -> bool:
        return self._destroyed

    def destroy(self) -> None:
        """Destroy this group and its subgroups and remove it from its
        parent; raises while a thread in the subtree is alive."""
        with _tree_lock:
            if self._destroyed:
                raise IllegalThreadStateException(
                    f"thread group {self.name} already destroyed")
            if self.enumerate_threads(recurse=True):
                raise IllegalThreadStateException(
                    f"thread group {self.name} still has live threads")
            for sub in list(self._subgroups):
                sub.destroy()
            self._destroyed = True
            if self.parent is not None:
                self.parent._remove_group(self)

    # -- enumeration ------------------------------------------------------

    def enumerate_threads(self, recurse: bool = True) -> list["JThread"]:
        """Return live threads in this group (and subgroups if ``recurse``)."""
        with _tree_lock:
            found = [t for t in self._threads if t.is_alive()]
            if recurse:
                for sub in self._subgroups:
                    found.extend(sub.enumerate_threads(recurse=True))
            return found

    def enumerate_groups(self, recurse: bool = True) -> list["ThreadGroup"]:
        with _tree_lock:
            found = list(self._subgroups)
            if recurse:
                for sub in self._subgroups:
                    found.extend(sub.enumerate_groups(recurse=True))
            return found

    def active_count(self) -> int:
        return len(self.enumerate_threads(recurse=True))

    def non_daemon_count(self) -> int:
        """Number of live non-daemon threads in this group's subtree.

        The application-exit rule of Section 5.1 ("as soon as there are only
        daemon threads left in the application's thread group") is evaluated
        over exactly this count.
        """
        return sum(1 for t in self.enumerate_threads(recurse=True)
                   if not t.daemon)

    # -- group-wide operations ---------------------------------------------

    def interrupt(self) -> None:
        """Interrupt every live thread in the subtree."""
        for thread in self.enumerate_threads(recurse=True):
            thread.interrupt()

    def stop_all(self) -> None:
        """Request cooperative stop of every live thread in the subtree.

        Used by the application reaper (Section 5.1): "A background thread
        will eventually clean up the application, stop all threads".
        """
        for thread in self.enumerate_threads(recurse=True):
            thread.stop()

    def uncaught_exception(self, thread: "JThread",
                           exc: BaseException) -> None:
        """Default handler for exceptions escaping a thread's run method."""
        if isinstance(exc, ThreadDeath):
            return
        handler = getattr(self.vm, "report_uncaught", None)
        if handler is not None:
            handler(thread, exc)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadGroup(name={self.name!r})"


class JThread:
    """A Java-style thread.

    Differences from a raw Python thread that the reproduction depends on:

    * membership in a :class:`ThreadGroup` (defaults to the creator's group);
    * a *daemon* flag with the Java default (inherited from the creator) and
      the Java restriction (must be set before ``start``);
    * ``interrupt()`` / ``is_interrupted()`` semantics, honoured by every
      blocking primitive in this library;
    * cooperative ``stop()`` that raises :class:`ThreadDeath` at stop points;
    * an access-control context snapshot inherited from the creating thread
      (JDK 1.2 semantics, needed for Section 5.6's security analysis).
    """

    _counter = 0
    _counter_lock = threading.Lock()

    def __init__(self, target: Optional[Callable] = None,
                 name: Optional[str] = None,
                 group: Optional[ThreadGroup] = None,
                 daemon: Optional[bool] = None,
                 args: Iterable = ()):
        creator = JThread.current_or_none()
        if group is None:
            if creator is not None:
                group = creator.group
            else:
                raise IllegalArgumentException(
                    "no thread group given and calling thread is not attached")
        # Security: creating a thread in a group requires access to that
        # group.  This is how the paper confines applications to their own
        # thread group (Section 5.1).
        vm = group.vm
        if vm is not None and vm.security_manager is not None:
            vm.security_manager.check_access_group(group)

        if name is None:
            with JThread._counter_lock:
                JThread._counter += 1
                name = f"Thread-{JThread._counter}"
        if daemon is None:
            daemon = creator.daemon if creator is not None else False

        self._init_fields(name, group, daemon, target, args)
        from repro.security import access as _access
        self.inherited_context = _access.snapshot_inherited_context()
        group._add_thread(self)

    def _init_fields(self, name: str, group: ThreadGroup, daemon: bool,
                     target: Optional[Callable] = None,
                     args: Iterable = ()) -> None:
        """Every per-thread field, for both ``__init__`` and :meth:`attach`."""
        self.name = name
        self.group = group
        self.daemon = bool(daemon)
        self._target = target
        self._args = tuple(args)
        self._started = False
        self._finished = threading.Event()
        self._finish_done = False
        self._finish_watches: list[Callable[["JThread"], None]] = []
        self._interrupted = False
        self._stop_requested = False
        self._wake = threading.Condition()
        self._python_thread: Optional[threading.Thread] = None
        self._task = None
        self._continuation = None
        #: callbacks run (in this thread) after the thread body finishes;
        #: the application model uses this for its exit rule.
        self.finish_hooks: list[Callable[["JThread"], None]] = []
        #: access-control context inherited from the creator (a tuple of
        #: ProtectionDomains); filled in by repro.security.access.
        self.inherited_context = None
        self._acc_stack: list = []

    # -- identity ----------------------------------------------------------

    @staticmethod
    def current_or_none() -> Optional["JThread"]:
        """The JThread wrapper of the calling Python thread, or None."""
        with _registry_lock:
            return _current_jthreads.get(threading.get_ident())

    @staticmethod
    def current() -> "JThread":
        thread = JThread.current_or_none()
        if thread is None:
            raise IllegalStateException(
                "calling thread is not attached to the VM")
        return thread

    @staticmethod
    def attach(name: str, group: ThreadGroup,
               daemon: bool = False) -> "JThread":
        """Attach the calling Python thread to the VM as a JThread.

        This mirrors JNI's ``AttachCurrentThread`` and is how the host
        process's main thread becomes the thread that runs ``main()``
        (Section 3.1).
        """
        if JThread.current_or_none() is not None:
            raise IllegalStateException("thread is already attached")
        thread = JThread.__new__(JThread)
        thread._init_fields(name, group, daemon)
        thread._python_thread = threading.current_thread()
        group._add_thread(thread)
        application = thread._account_start()
        if application is not None:
            application._count_started_thread()
        with _registry_lock:
            _current_jthreads[threading.get_ident()] = thread
        return thread

    def detach(self) -> None:
        """Detach an attached thread (inverse of :meth:`attach`)."""
        if self._python_thread is not threading.current_thread():
            raise IllegalStateException("only the attached thread may detach")
        with _registry_lock:
            _current_jthreads.pop(threading.get_ident(), None)
        self._finish(None)

    # -- lifecycle ----------------------------------------------------------

    def set_daemon(self, daemon: bool) -> None:
        if self._started:
            raise IllegalThreadStateException(
                "cannot change daemon status of a started thread")
        self.daemon = bool(daemon)

    def _make_continuation(self):
        """The generator frame for this thread's body, or None.

        A generator-function target (or a generator-function ``run``
        override) makes this thread a continuation, which :meth:`start`
        multiplexes on the VM's event loop.  Creating the generator
        executes no body code.
        """
        import inspect
        if self._target is not None:
            if inspect.isgenerator(self._target):
                return self._target
            if inspect.isgeneratorfunction(self._target):
                return self._target(*self._args)
            return None
        run = type(self).run
        if run is not JThread.run and inspect.isgeneratorfunction(run):
            return self.run()
        return None

    def _account_start(self):
        """Mark this thread started, adopt it into its application and
        count it in the VM; returns the application (or None).

        A destroyed group takes no threads (``ThreadGroup.add`` throws in
        Java), so a thread built in it never runs outside every
        application.  The application may refuse the thread (a
        ``max_threads`` limit, an exiting application); the refusal is
        re-raised and leaves the thread unstarted, out of its group and
        out of VM accounting.
        """
        with _tree_lock:
            # Under the tree lock, so destroy() sees this thread alive or
            # this check sees the group destroyed.
            if self.group._destroyed:
                raise IllegalThreadStateException(
                    f"thread group {self.group.name} has been destroyed")
            self._started = True
        application = owning_application(self.group)
        if application is not None:
            try:
                application.adopt_thread(self)
            except BaseException:
                self._started = False
                self.group._remove_thread(self)
                raise
        vm = self.group.vm
        if vm is not None:
            vm.thread_started(self)
        return application

    def _unaccount_start(self, application) -> None:
        """Undo :meth:`_account_start` for a backing that failed to start
        (a loop shutting down, no OS thread to be had): the thread is
        left unstarted, out of its group, its application and VM
        accounting, as a refused adopt leaves it.  Only the counts are
        undone: a thread that never ran ends neither its application
        nor the VM, and it was never counted as started."""
        self._started = False
        self.group._remove_thread(self)
        if application is not None:
            application._unadopt_thread(self)
        vm = self.group.vm
        if vm is not None:
            vm.thread_unstarted(self)

    def start(self) -> None:
        """Start the body; its type alone picks the backing.

        A generator body becomes a task on the VM's event loop (no OS
        thread of its own); a plain callable gets a dedicated OS thread.
        Lifecycle, interruption and finish hooks flow through the same
        :meth:`_finish` path either way.
        """
        if self._started:
            raise IllegalThreadStateException(
                f"thread {self.name} already started")
        application = self._account_start()
        try:
            self._continuation = self._make_continuation()
            if self._continuation is not None:
                vm = self.group.vm
                if vm is not None:
                    scheduler = vm.ensure_scheduler()
                else:
                    from repro.sched import default_scheduler
                    scheduler = default_scheduler()
                self._task = scheduler.spawn_task(
                    self._continuation, name=self.name, jthread=self)
            else:
                # The Python-level thread is always a Python daemon: VM
                # lifetime is tracked by our own accounting, never by
                # the interpreter's.
                self._python_thread = threading.Thread(
                    target=self._run_wrapper, name=self.name, daemon=True)
                self._python_thread.start()
        except BaseException:
            self._continuation = self._python_thread = None
            self._unaccount_start(application)
            raise
        # Counted only once the backing runs: a thread refused or failed
        # to start never shows in ThreadsEver or app.threads.started.
        if application is not None:
            application._count_started_thread()

    def _run_wrapper(self) -> None:
        with _registry_lock:
            _current_jthreads[threading.get_ident()] = self
        failure: Optional[BaseException] = None
        try:
            self.run()
        except ThreadDeath:
            pass
        except BaseException as exc:  # noqa: BLE001 - must not leak upward
            failure = exc
        finally:
            with _registry_lock:
                _current_jthreads.pop(threading.get_ident(), None)
            self._finish(failure)

    def _finish(self, exc: Optional[BaseException] = None) -> None:
        """The single end-of-life path for every backing — exactly once.

        Reports a non-ThreadDeath failure, marks the thread finished,
        removes it from its group, runs finish hooks (each guarded), and
        settles VM accounting.  Idempotent: the OS-thread wrapper, the
        scheduler's task-finish, ``detach()`` and scheduler teardown all
        funnel here, and only the first caller acts — which is what
        makes "finish hooks run exactly once" hold even when a stop()
        races a task death.
        """
        with self._wake:
            if self._finish_done:
                return
            self._finish_done = True
            watches, self._finish_watches = self._finish_watches, []
        if exc is not None and not isinstance(exc, ThreadDeath):
            self.group.uncaught_exception(self, exc)
        self._finished.set()
        self.group._remove_thread(self)
        for hook in list(self.finish_hooks):
            try:
                hook(self)
            except BaseException as hook_exc:  # noqa: BLE001
                self.group.uncaught_exception(self, hook_exc)
        vm = self.group.vm
        if vm is not None:
            vm.thread_finished(self)
        for watch in watches:
            try:
                watch(self)
            except BaseException as watch_exc:  # noqa: BLE001
                self.group.uncaught_exception(self, watch_exc)
        # Like java.lang.Thread.exit, drop what only a live body needs:
        # the body, its arguments and frame, the hooks (which name the
        # application) and the task's link back.  A finished thread then
        # keeps nothing alive that its application is freed with.
        self._target = self._continuation = None
        self._args = ()
        self.finish_hooks.clear()
        if self._task is not None:
            self._task.jthread = None

    def _add_finish_watch(self, callback: Callable[["JThread"], None]) -> bool:
        """Register an internal finish callback; True if already finished.

        Unlike ``finish_hooks`` (application-visible, must be installed
        before start), watches may be added concurrently with the thread
        dying — the scheduler's join path relies on this being atomic.
        """
        with self._wake:
            if self._finish_done:
                return True
            self._finish_watches.append(callback)
            return False

    def run(self) -> None:
        """Thread body; subclasses may override instead of passing target."""
        if self._target is not None:
            self._target(*self._args)

    def is_alive(self) -> bool:
        return self._started and not self._finished.is_set()

    @property
    def started(self) -> bool:
        return self._started

    # -- interruption and stopping -------------------------------------------

    def interrupt(self) -> None:
        """Set this thread's interrupt flag and wake it from blocking waits."""
        vm = self.group.vm
        if vm is not None and vm.security_manager is not None:
            current = JThread.current_or_none()
            if current is not self:
                vm.security_manager.check_access_thread(self)
        with self._wake:
            self._interrupted = True
            self._wake.notify_all()
        task = self._task
        if task is not None:
            # A parked continuation cannot poll its flags; hand it back
            # to the ready queue so delivery happens at the next step.
            task.scheduler._kick(task)

    def is_interrupted(self, clear: bool = False) -> bool:
        with self._wake:
            value = self._interrupted
            if clear:
                self._interrupted = False
            return value

    def stop(self) -> None:
        """Request cooperative stop; takes effect at the next stop point."""
        vm = self.group.vm
        if vm is not None and vm.security_manager is not None:
            current = JThread.current_or_none()
            if current is not self:
                vm.security_manager.check_access_thread(self)
        with self._wake:
            self._stop_requested = True
            self._interrupted = True
            self._wake.notify_all()
        task = self._task
        if task is not None:
            task.scheduler._kick(task)

    @property
    def stop_requested(self) -> bool:
        return self._stop_requested

    def _check_stop_point(self) -> None:
        """Raise ThreadDeath/InterruptedException if flagged.  Stop wins."""
        with self._wake:
            if self._stop_requested:
                raise ThreadDeath(f"thread {self.name} stopped")
            if self._interrupted:
                self._interrupted = False
                raise InterruptedException(
                    f"thread {self.name} interrupted")

    # -- blocking helpers ------------------------------------------------------

    @staticmethod
    def sleep(seconds: float) -> None:
        """Interruptible sleep (a stop point)."""
        from repro.sched.core import assert_not_loop_thread
        assert_not_loop_thread("JThread.sleep")
        thread = JThread.current_or_none()
        if thread is None:
            time.sleep(seconds)
            return
        deadline = time.monotonic() + seconds
        with thread._wake:
            while True:
                thread._check_stop_point_locked()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                thread._wake.wait(min(remaining, 1.0))

    def _check_stop_point_locked(self) -> None:
        """Like :meth:`_check_stop_point` but assumes ``_wake`` is held."""
        if self._stop_requested:
            raise ThreadDeath(f"thread {self.name} stopped")
        if self._interrupted:
            self._interrupted = False
            raise InterruptedException(f"thread {self.name} interrupted")

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for this thread to finish (a stop point for the waiter)."""
        from repro.sched.core import assert_not_loop_thread
        assert_not_loop_thread("JThread.join")
        waiter = JThread.current_or_none()
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if waiter is not None:
                waiter._check_stop_point()
            remaining = POLL_INTERVAL
            if deadline is not None:
                remaining = min(remaining, deadline - time.monotonic())
                if remaining <= 0:
                    return
            if self._finished.wait(remaining):
                return

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flags = "d" if self.daemon else "-"
        state = "alive" if self.is_alive() else (
            "finished" if self._started else "new")
        return f"JThread({self.name!r}, {self.group.name!r}, {flags}, {state})"


def owning_application(group: Optional[ThreadGroup]):
    """The application owning ``group``, via the nearest ancestor group
    tagged with an ``application`` attribute (set by the application layer).

    This is the paper's Section 5.1 derivation: "threads give us a
    convenient way to distinguish two instances of the same program" —
    any thread's application is found by walking its group ancestry.  A
    destroyed group belongs to no application: the walk stops there, so a
    reaped application's finished threads never resolve to its parent.
    """
    while group is not None:
        application = group.application
        if application is not None or group._destroyed:
            return application
        group = group.parent
    return None


def checkpoint() -> None:
    """Explicit stop point for long-running loops in library and app code."""
    thread = JThread.current_or_none()
    if thread is not None:
        thread._check_stop_point()

