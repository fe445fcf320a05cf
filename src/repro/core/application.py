"""The Application abstraction (Section 5.1) — the paper's core contribution.

    "We define an application to be a set of Java threads. ...  Furthermore,
    an application has the following properties:

    * It has a lifetime ...
    * It is memory-protected from other applications ...
    * It is associated with a user that is running the application.
    * It holds application-wide state that is shared among all the threads
      that comprise the application ... the user identification, distinct
      standard input, standard output, and error streams, a current working
      directory, a set of properties.
    * When an application creates a child application, the current
      application-wide state of the parent is inherited by the child."

Implementation notes, mirroring the paper's own description of
``Application.exec`` (here ``launch(ExecSpec(...))``):

* A launch creates a fresh thread group (nested under the parent
  application's group, so the system security manager's ancestry rule lets
  parents manage their children), an
  :class:`~repro.core.reload.ApplicationClassLoader` (Section 5.5), and a
  new ``main`` thread that calls ``MyClass.main(args)`` through the
  reflection API; the launch returns immediately and ``wait_for`` blocks.
* The standard streams *live in the application's own System class statics*
  — the application layer merely re-points them after the reload, exactly
  as Figure 5 shows.
* ``Application.exit`` "will find the application instance that corresponds
  to the currently running thread, schedule that application for
  destruction, and block the current thread.  A background thread will
  eventually clean up the application, stop all threads, and close all
  windows that are associated with the application."  That background
  thread is the :class:`ApplicationRegistry`'s reaper.
* If an application never calls ``exit``, it is exited automatically "as
  soon as there are only daemon threads left in the application's thread
  group".
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.jvm.errors import (
    IllegalArgumentException,
    IllegalStateException,
    IllegalThreadStateException,
)
from repro.jvm.threads import JThread, ThreadGroup
from repro.sched.timers import wait_until
from repro.sched.waitobj import WaitPoint
from repro.lang.context import InvocationContext
from repro.lang.properties import Properties
from repro.lang.reflect import invoke_main
from repro.core.context import current_application_or_none
from repro.core.execspec import ExecSpec
from repro.core.reload import ApplicationClassLoader
from repro.security.auth import NULL_USER, JavaUser
from repro.security.policy import PHASE_INIT, PHASE_SHUTDOWN, PHASES
from repro.super import faults

STATE_NEW = "new"
STATE_RUNNING = "running"
STATE_EXITING = "exiting"
STATE_TERMINATED = "terminated"

#: Exit code reported when an application is killed from outside.
KILLED_EXIT_CODE = 143


@dataclass(frozen=True)
class ResourceLimits:
    """Per-application resource ceilings.

    The paper's protection model (Section 5.6) covers *access*; a real
    multi-user deployment also needs *consumption* bounds — the follow-up
    concern that later drove the Java isolate work.  ``None`` disables a
    limit.  Limits are inherited by child applications (they are
    application-wide state in the Section 5.1 sense).
    """

    max_threads: int | None = None
    max_windows: int | None = None
    max_children: int | None = None
    max_open_streams: int | None = None


@dataclass(frozen=True)
class ExitStatus:
    """The typed result of waiting an application out.

    ``code`` is the Unix-style exit code ``waitFor`` always returned;
    ``signal_like_cause`` says *how* the application ended (``None`` for
    a normal exit, ``"killed"`` for an outside ``destroy``/teardown —
    the moral equivalent of dying to a signal); ``restarts`` is how many
    times a supervisor has respawned this service (0 for unsupervised
    applications); ``duration`` is exec-to-reap wall time in seconds.
    """

    code: int
    signal_like_cause: Optional[str] = None
    restarts: int = 0
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return self.code == 0 and self.signal_like_cause is None


class ResourceLimitExceeded(IllegalStateException):
    """An application hit one of its resource ceilings.

    Typed (enforce-and-record): ``limit`` names the
    :class:`ResourceLimits` field that was hit (``"max_threads"``, ...)
    and ``maximum`` carries the configured ceiling.  Every rejection also
    increments the per-application ``limits.rejected`` counter.
    """

    def __init__(self, message: str | None = None,
                 limit: str | None = None,
                 maximum: int | None = None):
        super().__init__(message)
        self.limit = limit
        self.maximum = maximum


class Application:
    """A set of threads with shared application-wide state (Section 5.1).

    The paper's usage — ``Application.exec`` on a class name and its
    arguments, then ``waitFor`` on the result — reads here::

        from repro import ExecSpec, launch
        app = launch(ExecSpec("MyClass", args))
        app.wait_for()
    """

    _ids = itertools.count(1)

    def __init__(self, vm, class_name: Optional[str],
                 parent: Optional["Application"] = None,
                 name: Optional[str] = None,
                 user: Optional[JavaUser] = None,
                 stdin=None, stdout=None, stderr=None,
                 cwd: Optional[str] = None,
                 properties: Optional[Properties] = None,
                 auto_exit: bool = True,
                 limits: Optional[ResourceLimits] = None):
        self.vm = vm
        self.class_name = class_name
        self.app_id = next(Application._ids)
        self.name = name or (f"{class_name.rsplit('.', 1)[-1].lower()}"
                             f"#{self.app_id}" if class_name
                             else f"app#{self.app_id}")
        self.parent = parent
        self.children: list[Application] = []
        #: Auto-exit on last non-daemon thread; disabled for the synthetic
        #: initial application that hosts the launcher.
        self.auto_exit = auto_exit

        # --- inheritable application-wide state (Section 5.1) ---
        if parent is not None:
            user = user if user is not None else parent.user
            stdin = stdin if stdin is not None else parent.stdin
            stdout = stdout if stdout is not None else parent.stdout
            stderr = stderr if stderr is not None else parent.stderr
            cwd = cwd if cwd is not None else parent.cwd
            properties = properties if properties is not None \
                else parent.properties.copy()
            limits = limits if limits is not None else parent.limits
        self._user = user if user is not None else NULL_USER
        self.limits = limits if limits is not None else ResourceLimits()
        # Launching a child as a *different* user is equivalent to setting
        # the user (Section 5.2): it needs the same privilege.
        if parent is not None and self._user != parent.user:
            sm = vm.security_manager
            if sm is not None:
                sm.check_set_user()
        self.cwd = cwd if cwd is not None else vm.os_context.cwd
        self.properties = properties if properties is not None \
            else Properties()

        # --- thread group (Figure 3) ---
        parent_group = parent.thread_group if parent is not None \
            else vm.main_group
        self.thread_group = ThreadGroup(parent_group,
                                        f"app-{self.name}")
        self.thread_group.application = self

        # --- own System copy (Section 5.5 / Figure 5) ---
        self.loader = ApplicationClassLoader(vm.boot_loader, self.name)
        self.system_class = self.loader.load_class("java.lang.System")
        self.system_class.statics["in"] = stdin if stdin is not None \
            else vm.stdin
        self.system_class.statics["out"] = stdout if stdout is not None \
            else vm.out
        self.system_class.statics["err"] = stderr if stderr is not None \
            else vm.err

        # --- lifecycle ---
        self._state = STATE_NEW
        #: Execution phase for the phase-conditioned MAC: ``init`` at
        #: construction, ``steady`` at first AWT dispatch (or by explicit
        #: :meth:`advance_phase`), ``shutdown`` once exit begins.
        self._phase = PHASE_INIT
        #: True while this application's audit slice is being captured
        #: for policy inference (set by the policy recorder).
        self.policy_recording = False
        self.exit_code: Optional[int] = None
        #: How the application ended: None (normal exit) or "killed"
        #: (destroyed from outside / torn down with its parent).
        self.exit_cause: Optional[str] = None
        #: Times respawned by a supervisor (0 for unsupervised apps).
        self.restarts = 0
        self._started_monotonic: Optional[float] = None
        self._ended_monotonic: Optional[float] = None
        self._cond = WaitPoint()
        self._non_daemon = 0
        self._threads: list[JThread] = []
        self.main_thread: Optional[JThread] = None
        #: How this application's continuation-capable threads are backed:
        #: "sched" (the default — generator mains run as tasks on the
        #: VM's event loop) or "os" (ExecSpec(threads="os"): the same
        #: continuation programs run on dedicated OS threads through
        #: drive_inline).  Plain-callable mains always get an OS thread.
        self._threads_mode = "sched"

        # --- owned resources, torn down by the reaper ---
        self.windows: list = []
        self.opened_streams: list = []
        self.event_queue = None            # set by PerApplicationDispatcher
        self.event_dispatch_thread = None  # set by PerApplicationDispatcher
        #: Run by the reaper before threads are stopped (atexit-style).
        self.exit_hooks: list[Callable[[], None]] = []
        #: Lifetime accounting (threads ever adopted, streams ever opened,
        #: windows ever shown, children ever launched) — the observability
        #: counterpart of the resource limits.
        self.stats = {"threads": 0, "streams": 0, "windows": 0,
                      "children": 0}

        #: Cross-thread lifecycle span: begun by ``_start`` on the
        #: launching thread, ended by the reaper in ``_teardown``.
        self._lifecycle_span = None

        if parent is not None:
            maximum = parent.limits.max_children
            if maximum is not None and len(parent.children) >= maximum:
                raise parent._limit_rejected("max_children", "child",
                                             maximum)
            parent.children.append(self)
            parent.stats["children"] += 1
        registry = vm.application_registry
        if registry is not None:
            registry.register(self)

    # ------------------------------------------------------------------
    # launching (Section 5.1; reached through launch())
    # ------------------------------------------------------------------

    @classmethod
    def _exec_spec(cls, spec: ExecSpec, vm=None,
                   parent: Optional["Application"] = None) -> "Application":
        """The local launch choke point: ``launch()``'s ``LOCAL`` branch.

        Resolves the launching context (the current application, else
        the VM's initial one), then — in order — offers the
        ``app.start`` fault point, asks admission control (when the VM
        runs it) for a slot, constructs the application, and starts its
        main thread.  The admission ticket rides the application's exit
        hooks, so the slot frees when the reaper runs.
        """
        if parent is None:
            parent = current_application_or_none()
        if vm is None:
            if parent is None:
                raise IllegalArgumentException(
                    "launch needs a VM when no application is current")
            vm = parent.vm
        if parent is None and vm.application_registry is not None:
            parent = vm.application_registry.initial
        faults.hit(faults.POINT_APP_START, class_name=spec.class_name,
                   vm=vm)
        ticket = None
        admission = vm.admission
        if admission is not None:
            account = spec.user_name() \
                or (parent.user.name if parent is not None else "")
            ticket = admission.admit(account or "<null>",
                                     timeout=spec.admission_timeout)
        try:
            application = cls(vm, spec.class_name, parent=parent,
                              **spec.state_overrides())
            application._threads_mode = spec.threads
            if ticket is not None:
                application.add_exit_hook(ticket.release)
            if spec.phase is not None:
                # A launch-time phase override (e.g. headless services
                # started straight into "steady").
                application._advance_phase(spec.phase, strict=False)
            if spec.record_policy:
                from repro.policytool.recorder import recorder_for
                recorder_for(vm).start(application)
            application._start(list(spec.args))
        except BaseException:
            if ticket is not None:
                ticket.release()
            raise
        return application

    def _start(self, args: list[str]) -> None:
        with self._cond:
            if self._state != STATE_NEW:
                raise IllegalStateException(
                    f"application {self.name} already started")
            self._state = STATE_RUNNING
            self._started_monotonic = time.monotonic()
        tracer = self.vm.telemetry.tracer
        # The exec span lives on the *launching* thread, so a child's exec
        # nests inside the parent's app.main span; the lifecycle span
        # covers exec-to-reap and is closed by the reaper in _teardown.
        exec_span = tracer.span("app.exec", app=self.name,
                                cls=self.class_name)
        self._lifecycle_span = tracer.begin_span(
            "app.lifecycle", app=self.name, cls=self.class_name,
            user=self._user.name)
        with exec_span:
            jclass = self.loader.load_class(self.class_name)
            ctx = InvocationContext(self.vm, self.loader, jclass, app=self)
            exec_parent = exec_span.span_id

            import inspect
            main_fn = jclass.material.members.get("main")
            main_is_continuation = main_fn is not None \
                and inspect.isgeneratorfunction(main_fn)
            backing = None

            if main_is_continuation:
                # Continuation main: the body is itself a generator, so
                # the JThread facade routes it onto the VM's event loop
                # (or drives it inline on an OS thread when
                # ExecSpec(threads="os") asked for one).  The app.main
                # span is begun/ended explicitly — a ``with`` held
                # across yields would corrupt the loop thread's
                # thread-local span nesting.
                def body():
                    span = tracer.begin_span("app.main", app=self.name,
                                             parent_id=exec_parent,
                                             cls=self.class_name)
                    try:
                        result = yield from invoke_main(jclass, ctx, args)
                    finally:
                        span.end()
                    if isinstance(result, int) and result != 0:
                        self._begin_exit(result)

                if self._threads_mode == "os":
                    backing = "os"
            else:
                def body() -> None:
                    with tracer.span("app.main", app=self.name,
                                     parent_id=exec_parent,
                                     cls=self.class_name):
                        result = invoke_main(jclass, ctx, args)
                    # A non-zero integer return from main becomes the exit
                    # code (the auto-exit path reports 0 for a normal
                    # return).
                    if isinstance(result, int) and result != 0:
                        self._begin_exit(result)

            # "the main method of class MyClass is called ... within a new
            # thread in the newly-created thread group.  Since the main
            # method is executed in its own thread, the exec method returns
            # immediately."
            self.main_thread = JThread(target=body,
                                       name=f"main-{self.name}",
                                       group=self.thread_group,
                                       daemon=False,
                                       backing=backing)
            self.main_thread.start()

    def context(self) -> InvocationContext:
        """A context for host code to act inside this application."""
        return InvocationContext(self.vm, self.loader, None, app=self)

    # ------------------------------------------------------------------
    # application-wide state accessors
    # ------------------------------------------------------------------

    @property
    def user(self) -> JavaUser:
        return self._user

    def set_user(self, user: JavaUser) -> None:
        """Reset the running user (Section 5.2).

        "Special privileges are needed to set the user, and these
        privileges are not normally granted to applications."  The check is
        the system security manager's ``checkSetUser`` (a
        ``RuntimePermission("setUser")``), which the login program's code
        source is granted in the policy.
        """
        sm = self.vm.security_manager
        if sm is not None:
            sm.check_set_user()
        self._user = user

    @property
    def stdin(self):
        return self.system_class.statics["in"]

    @property
    def stdout(self):
        return self.system_class.statics["out"]

    @property
    def stderr(self):
        return self.system_class.statics["err"]

    def set_streams(self, stdin=None, stdout=None, stderr=None) -> None:
        """Repoint standard streams (the shell's redirection mechanism)."""
        if stdin is not None:
            self.system_class.statics["in"] = stdin
        if stdout is not None:
            self.system_class.statics["out"] = stdout
        if stderr is not None:
            self.system_class.statics["err"] = stderr

    def set_cwd(self, path: str) -> None:
        self.cwd = path

    # ------------------------------------------------------------------
    # thread accounting (application lifetime, Section 5.1)
    # ------------------------------------------------------------------

    def _limit_rejected(self, limit: str, kind_word: str,
                        maximum: int) -> ResourceLimitExceeded:
        """Enforce-and-record: count the rejection, build the typed error."""
        self.vm.telemetry.metrics.counter(
            "limits.rejected", app=self.name, limit=limit).inc()
        return ResourceLimitExceeded(
            f"application {self.name} reached its {kind_word} limit "
            f"({maximum})", limit=limit, maximum=maximum)

    def adopt_thread(self, thread: JThread) -> None:
        """Called when a thread starts inside this application's groups."""
        with self._cond:
            if self._state in (STATE_EXITING, STATE_TERMINATED):
                raise IllegalThreadStateException(
                    f"application {self.name} is {self._state}")
            maximum = self.limits.max_threads
            live = sum(1 for t in self._threads if t.is_alive())
            if maximum is not None and live >= maximum:
                raise self._limit_rejected("max_threads", "thread", maximum)
            self._threads.append(thread)
            self.stats["threads"] += 1
            if not thread.daemon:
                self._non_daemon += 1
        metrics = self.vm.telemetry.metrics
        metrics.counter("app.threads.started", app=self.name).inc()
        metrics.gauge("app.threads.live", app=self.name).set(live + 1)
        thread.finish_hooks.append(self._on_thread_finished)

    def _on_thread_finished(self, thread: JThread) -> None:
        auto = False
        with self._cond:
            if thread in self._threads:
                self._threads.remove(thread)
            live = sum(1 for t in self._threads if t.is_alive())
            if not thread.daemon:
                self._non_daemon -= 1
                if (self._non_daemon <= 0 and self.auto_exit
                        and self._state == STATE_RUNNING):
                    auto = True
            self._cond.notify_all()
        self.vm.telemetry.metrics.gauge(
            "app.threads.live", app=self.name).set(live)
        if auto:
            # "If the application does not explicitly call exit(), then the
            # JVM will call the exit method as soon as there are only
            # daemon threads left in the application's thread group."
            self._begin_exit(0)

    def live_threads(self) -> list[JThread]:
        with self._cond:
            return [t for t in self._threads if t.is_alive()]

    @property
    def non_daemon_count(self) -> int:
        with self._cond:
            return self._non_daemon

    # ------------------------------------------------------------------
    # owned resources
    # ------------------------------------------------------------------

    def register_window(self, window) -> None:
        with self._cond:
            maximum = self.limits.max_windows
            if (maximum is not None and window not in self.windows
                    and len(self.windows) >= maximum):
                raise self._limit_rejected("max_windows", "window", maximum)
            if window not in self.windows:
                self.windows.append(window)
                self.stats["windows"] += 1

    def unregister_window(self, window) -> None:
        with self._cond:
            if window in self.windows:
                self.windows.remove(window)

    def register_opened_stream(self, stream) -> None:
        """Track a stream this application opened (Section 5.1 close rule)."""
        with self._cond:
            maximum = self.limits.max_open_streams
            if maximum is not None:
                open_now = sum(1 for s in self.opened_streams
                               if not s.closed)
                if open_now >= maximum:
                    raise self._limit_rejected("max_open_streams",
                                               "open-stream", maximum)
            self.opened_streams.append(stream)
            self.stats["streams"] += 1

    def add_exit_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback the reaper runs at application exit."""
        self.exit_hooks.append(hook)

    # ------------------------------------------------------------------
    # execution phases (the execution-state MAC)
    # ------------------------------------------------------------------

    @property
    def phase(self) -> str:
        """Current lifecycle phase: ``init``, ``steady`` or ``shutdown``."""
        return self._phase

    def advance_phase(self, phase: str) -> bool:
        """Move this application forward to ``phase``.

        Phases only advance (``init`` → ``steady`` → ``shutdown``), so an
        app can *drop* phase-conditioned privileges but never regain them.
        An application may advance itself; anyone else needs the same
        standing as for :meth:`destroy` (ancestor, same user, or the
        ``modifyApplication`` permission).  Returns True if the phase
        changed.
        """
        caller = current_application_or_none()
        if (caller is not self and not self._is_ancestor(caller)
                and caller.user != self._user):
            sm = self.vm.security_manager
            if sm is not None:
                sm.check_modify_application(self)
        return self._advance_phase(phase)

    def _advance_phase(self, phase: str, strict: bool = True) -> bool:
        """Kernel-side phase advance; with ``strict=False`` a backwards
        request is a no-op (used by kernel transition points that may race
        with shutdown)."""
        if phase not in PHASES:
            raise IllegalArgumentException(f"unknown phase {phase!r}")
        with self._cond:
            current_index = PHASES.index(self._phase)
            target_index = PHASES.index(phase)
            if target_index <= current_index:
                if target_index < current_index and strict:
                    raise IllegalStateException(
                        f"cannot move application {self.name} back from "
                        f"{self._phase} to {phase}")
                return False
            self._phase = phase
        # No cache invalidation: per-phase decision memos coexist inside
        # each protection domain, so a transition costs nothing beyond
        # first-touch misses in the new phase.
        telemetry = self.vm.telemetry
        telemetry.tracer.event("app.phase", app=self.name, phase=phase)
        telemetry.metrics.counter("app.phase.transitions",
                                  app=self.name, phase=phase).inc()
        return True

    # ------------------------------------------------------------------
    # exit (Section 5.1)
    # ------------------------------------------------------------------

    @staticmethod
    def exit(status: int = 0) -> None:
        """Exit the *current* application and never return.

        "The static exit method will find the application instance that
        corresponds to the currently running thread, schedule that
        application for destruction, and block the current thread."
        """
        application = current_application_or_none()
        if application is None:
            raise IllegalStateException(
                "Application.exit called outside any application")
        application._begin_exit(status)
        # Block until the reaper stops this thread ("we will never get
        # here" in the paper's sample code).
        while True:
            JThread.sleep(3600.0)

    def destroy(self, status: int = KILLED_EXIT_CODE) -> None:
        """Exit this application from outside (the ``kill`` utility).

        Allowed when the caller's application is an ancestor (the same
        ancestry rule the system security manager uses for threads) or
        runs as the *same user* (the Unix kill rule, the natural reading
        of the paper's user model); otherwise requires the
        ``modifyApplication`` runtime permission.
        """
        caller = current_application_or_none()
        if (caller is not self and not self._is_ancestor(caller)
                and caller.user != self._user):
            sm = self.vm.security_manager
            if sm is not None:
                sm.check_modify_application(self)
        with self._cond:
            if self._state not in (STATE_EXITING, STATE_TERMINATED):
                self.exit_cause = "killed"
        self._begin_exit(status)

    def _is_ancestor(self, caller: Optional["Application"]) -> bool:
        if caller is None:
            return True  # host / system threads are trusted
        return caller.thread_group.parent_of(self.thread_group)

    def _begin_exit(self, status: int) -> None:
        with self._cond:
            if self._state in (STATE_EXITING, STATE_TERMINATED):
                return
            self._state = STATE_EXITING
            self.exit_code = status
            self._cond.notify_all()
        self._advance_phase(PHASE_SHUTDOWN, strict=False)
        self.vm.telemetry.tracer.event("app.exit", app=self.name,
                                       code=status)
        registry = self.vm.application_registry
        if registry is not None:
            registry.schedule_destruction(self)
        else:
            self._teardown()

    def _teardown(self) -> None:
        """Reaper work: hooks, then children, windows, threads, streams."""
        for hook in list(self.exit_hooks):
            try:
                hook()
            except BaseException as exc:  # noqa: BLE001 - reaper survives
                self.vm.report_uncaught(None, exc)
        for child in list(self.children):
            if not child.terminated:
                child._begin_exit_for_teardown()
                child._teardown()
        toolkit = self.vm.toolkit
        if toolkit is not None:
            toolkit.close_windows_of(self)
        self.thread_group.stop_all()
        for thread in self.live_threads():
            thread.join(2.0)
        for stream in list(self.opened_streams):
            if not stream.closed:
                try:
                    stream._close_impl()
                finally:
                    stream.closed = True
        with self._cond:
            self._state = STATE_TERMINATED
            if self.exit_code is None:
                self.exit_code = KILLED_EXIT_CODE
                self.exit_cause = "killed"
            self._ended_monotonic = time.monotonic()
            self._cond.notify_all()
        shared = self.vm.shared_objects
        if shared is not None:
            shared.drop_bindings_of(self)
        registry = self.vm.application_registry
        if registry is not None:
            registry.unregister(self)
        if self.parent is not None and self in self.parent.children:
            self.parent.children.remove(self)
        telemetry = self.vm.telemetry
        telemetry.tracer.event("app.reaped", app=self.name,
                               code=self.exit_code)
        if self._lifecycle_span is not None:
            self._lifecycle_span.end(exit_code=self.exit_code)
        telemetry.metrics.counter("apps.reaped").inc()

    def _begin_exit_for_teardown(self) -> None:
        with self._cond:
            if self._state in (STATE_EXITING, STATE_TERMINATED):
                return
            self._state = STATE_EXITING
            if self.exit_code is None:
                self.exit_code = KILLED_EXIT_CODE
                self.exit_cause = "killed"
            self._cond.notify_all()
        self._advance_phase(PHASE_SHUTDOWN, strict=False)

    # ------------------------------------------------------------------
    # waiting and inspection
    # ------------------------------------------------------------------

    def wait_for(self, timeout: Optional[float] = None) -> Optional[int]:
        """Block until this application terminates; returns its exit code.

        The paper's ``app.waitFor()`` (line 3 of the usage example).

        Soft-deprecated: the bare int stays for compatibility, but new
        code should prefer :meth:`wait`, whose :class:`ExitStatus`
        result also says *how* the application ended.
        """
        with self._cond:
            done = wait_until(
                self._cond, lambda: self._state == STATE_TERMINATED,
                timeout=timeout)
            if not done:
                return None
            return self.exit_code

    def wait(self, timeout: Optional[float] = None) -> Optional[ExitStatus]:
        """Block like :meth:`wait_for`, but return a typed result.

        None on timeout, otherwise an :class:`ExitStatus` carrying the
        exit code, the cause (``"killed"`` vs a normal exit), the
        supervisor restart count, and exec-to-reap duration.
        """
        code = self.wait_for(timeout)
        if code is None:
            return None
        with self._cond:
            started = self._started_monotonic
            ended = self._ended_monotonic
            duration = (ended - started) if started is not None \
                and ended is not None else 0.0
            return ExitStatus(code=code,
                              signal_like_cause=self.exit_cause,
                              restarts=self.restarts,
                              duration=duration)

    @property
    def state(self) -> str:
        with self._cond:
            return self._state

    @property
    def running(self) -> bool:
        return self.state == STATE_RUNNING

    @property
    def terminated(self) -> bool:
        return self.state == STATE_TERMINATED

    def _is_terminal(self) -> bool:
        """Lock-free terminal predicate for scheduler wait-objects.

        :func:`repro.sched.ops.wait_app` parks on :attr:`_cond` with this
        predicate; the caller already holds the wait-point lock, so the
        raw field read is safe.
        """
        return self._state == STATE_TERMINATED

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Application(id={self.app_id}, name={self.name!r}, "
                f"user={self._user.name!r}, state={self.state})")


class ApplicationRegistry:
    """The VM's application table plus the background reaper (Section 5.1)."""

    def __init__(self, vm):
        self.vm = vm
        self._applications: dict[int, Application] = {}
        self._lock = threading.RLock()
        self._queue: list[Application] = []
        self._queue_cond = threading.Condition()
        self._reaper: Optional[JThread] = None
        #: Synthetic root application: the context the VM launcher itself
        #: runs in (the "null user for bootstrapping" of Section 5.2).
        self.initial: Optional[Application] = None

    def start(self) -> "ApplicationRegistry":
        self._reaper = JThread(target=self._reaper_body,
                               name="ApplicationReaper",
                               group=self.vm.root_group, daemon=True)
        self._reaper.start()
        return self

    def register(self, application: Application) -> None:
        with self._lock:
            self._applications[application.app_id] = application
            live = len(self._applications)
        metrics = self.vm.telemetry.metrics
        metrics.counter("apps.launched").inc()
        metrics.gauge("apps.live").set(live)

    def unregister(self, application: Application) -> None:
        with self._lock:
            self._applications.pop(application.app_id, None)
            live = len(self._applications)
        self.vm.telemetry.metrics.gauge("apps.live").set(live)

    def applications(self, check: bool = True) -> list[Application]:
        """A snapshot of live applications (the ``ps`` table)."""
        if check:
            sm = self.vm.security_manager
            if sm is not None:
                sm.check_read_application_table()
        with self._lock:
            return sorted(self._applications.values(),
                          key=lambda a: a.app_id)

    def find(self, app_id: int) -> Optional[Application]:
        with self._lock:
            return self._applications.get(app_id)

    def schedule_destruction(self, application: Application) -> None:
        with self._queue_cond:
            if application not in self._queue:
                self._queue.append(application)
                self._queue_cond.notify_all()

    def _reaper_body(self) -> None:
        """"A background thread will eventually clean up the application,
        stop all threads, and close all windows"."""
        while True:
            with self._queue_cond:
                wait_until(self._queue_cond,
                                   lambda: bool(self._queue))
                application = self._queue.pop(0)
            try:
                application._teardown()
            except BaseException as exc:  # noqa: BLE001 - reaper survives
                self.vm.report_uncaught(JThread.current_or_none(), exc)
