"""The Virtual Machine: boot, lifetime, and process-wide state.

Section 3.1 of the paper walks through the life of a JVM: the OS hands it a
process context (file descriptors, user id), it starts a set of system
threads ("a garbage collector, a thread to execute finalizers, and an idle
thread"), runs ``main`` in a non-daemon thread, and exits "once all
non-daemon threads of an application have finished ... even though daemon
threads may still be running" (Figure 1).

:class:`VirtualMachine` reproduces that lifecycle faithfully — including the
single-application behaviour the paper then sets out to fix.  The
multi-processing extensions (applications, per-app System classes, the
system security manager) are layered on top by :mod:`repro.core.launcher`
and hang off the slots declared here (``security_manager``,
``application_registry``, ``toolkit``, ...).
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.io.streams import (
    RING_STATS,
    ByteArrayOutputStream,
    InputStream,
    NullInputStream,
    OutputStream,
    PrintStream,
)
from repro.jvm.classloading import ClassLoader, ClassRegistry
from repro.jvm.errors import IllegalStateException
from repro.jvm.threads import JThread, ThreadGroup
from repro.lang.properties import Properties
from repro.sched.timers import wait_until
from repro.telemetry import TelemetryHub

JAVA_VERSION = "1.2mp-proto"
JAVA_VENDOR = "repro (Balfanz & Gong multi-processing prototype)"

STATE_NEW = "new"
STATE_BOOTED = "booted"
STATE_EXITING = "exiting"
STATE_TERMINATED = "terminated"


class VirtualMachine:
    """One simulated JVM process.

    Parameters
    ----------
    os_context:
        An :class:`~repro.unixfs.machine.OsProcessContext` describing the
        process the OS created for this VM (Section 3.1).  If omitted, a
        standard machine is built.
    stdin, stdout, stderr:
        Process-level standard streams.  Default to the OS context's, or to
        in-memory streams, never to the host's real stdio (examples pass
        host adapters explicitly).
    """

    def __init__(self, os_context=None,
                 stdin: Optional[InputStream] = None,
                 stdout: Optional[OutputStream] = None,
                 stderr: Optional[OutputStream] = None):
        if os_context is None:
            from repro.unixfs.machine import standard_process
            os_context = standard_process()
        self.os_context = os_context
        self.machine = os_context.machine
        #: Always-on observability: metrics, tracer, and the audit log.
        self.telemetry = TelemetryHub(f"vm-{os_context.pid}")
        self.telemetry.metrics.collect(self._sched_metrics)
        # Process-wide totals (every VM in the process shows the same).
        self.telemetry.metrics.collect(RING_STATS.collect)

        self.stdin: InputStream = stdin or os_context.stdin \
            or NullInputStream()
        raw_out = stdout or os_context.stdout or ByteArrayOutputStream()
        raw_err = stderr or os_context.stderr or ByteArrayOutputStream()
        self.out = raw_out if isinstance(raw_out, PrintStream) \
            else PrintStream(raw_out)
        self.err = raw_err if isinstance(raw_err, PrintStream) \
            else PrintStream(raw_err)

        self.registry = ClassRegistry()
        self.policy = None  # installed by the security layer
        #: The JVM-wide (system) security manager of Section 5.6.  None in a
        #: plain single-application VM.
        self.security_manager = None
        #: Paper Section 6.3: "This change will not be necessary if we
        #: change the semantics of System.exit() to only exit the current
        #: application."  False reproduces the historical semantics.
        self.system_exit_exits_application = False
        #: Figure 1: a plain JVM exits when the last non-daemon thread
        #: finishes.  The multi-processing launcher turns this off — the
        #: whole point of Feature 1 is that an application ending "should
        #: not necessarily cause the JVM to exit".
        self.exit_when_last_nondaemon = True

        # Slots filled by upper layers.
        self.application_registry = None   # repro.core.application
        self.user_database = None          # repro.security.auth
        self.toolkit = None                # repro.awt.toolkit
        self.network = None                # repro.net.fabric
        self.tool_path = {}                # command name -> class name
        self.consoles = {}                 # device name -> TerminalDevice
        self.shared_objects = None         # repro.core.sharing
        self.cluster = None                # repro.cluster.spawn
        self.dist_pool = None              # repro.dist.pool (lazy)
        self.admission = None              # repro.super.admission
        self.supervisors = {}              # name -> repro.super.Supervisor
        self.policy_recorder = None        # repro.policytool.recorder (lazy)
        #: The per-VM event-loop scheduler (repro.sched), created lazily
        #: by ensure_scheduler() the first time a continuation task or a
        #: generator-bodied JThread starts on this VM.
        self.scheduler = None
        self._scheduler_lock = threading.Lock()

        self._state = STATE_NEW
        self._state_lock = threading.Lock()
        self._exit_code: Optional[int] = None
        self._non_daemon = 0
        self._accounting = threading.Condition()
        self._terminated = threading.Event()
        self._shutdown_hooks: list[Callable[[], None]] = []
        self._finalizer_queue: list[Callable[[], None]] = []
        self._finalizer_cond = threading.Condition()

        self.system_properties = self._initial_properties()

        # Thread-group tree (Section 3.1 / Figure 3).
        self.root_group = ThreadGroup(None, "system")
        self.root_group.vm = self
        self.main_group = ThreadGroup(self.root_group, "main")
        self.boot_loader = ClassLoader(self.registry, parent=None,
                                       name="boot")
        self.boot_loader.vm = self

    # -- boot -------------------------------------------------------------------

    def boot(self) -> "VirtualMachine":
        """Start the VM's own daemon threads (Section 3.1).

        "Java uses either a kernel- or user-based thread library to start up
        a number of threads immediately after the JVM gains control from the
        O/S.  These threads include a garbage collector, a thread to execute
        finalizers, and an idle thread to fall back on."
        """
        with self._state_lock:
            if self._state != STATE_NEW:
                raise IllegalStateException(f"VM already {self._state}")
            self._state = STATE_BOOTED
        for name, body in (("Reference Handler", self._idle_body),
                           ("Finalizer", self._finalizer_body),
                           ("GC", self._idle_body)):
            thread = JThread(target=body, name=name, group=self.root_group,
                             daemon=True)
            thread.start()
        from repro.lang import bootstrap
        bootstrap.register_core_classes(self.registry)
        return self

    def _initial_properties(self) -> Properties:
        """System properties per Section 3.1.

        "Some of these values are taken from the respective value of the JVM
        process (e.g. the running user), some of them are hard-coded into
        the JVM (e.g. the Java version), and some of them are acquired by
        some other means (e.g. the O/S version through a system call)."
        """
        props = Properties()
        props.set_property("java.version", JAVA_VERSION)
        props.set_property("java.vendor", JAVA_VENDOR)
        props.set_property("os.name", self.machine.os_name)
        props.set_property("os.version", self.machine.os_version)
        props.set_property("os.arch", "sim")
        props.set_property("user.name", self.os_context.user.name)
        props.set_property("user.home", self.os_context.user.home)
        props.set_property("user.dir", self.os_context.cwd)
        props.set_property("file.separator", "/")
        props.set_property("path.separator", ":")
        props.set_property("line.separator", "\n")
        props.set_property("host.name", self.machine.hostname)
        return props

    # -- system daemon thread bodies -----------------------------------------------

    def _idle_body(self) -> None:
        while not self._terminated.is_set():
            JThread.sleep(0.05)

    def _finalizer_body(self) -> None:
        while not self._terminated.is_set():
            job = None
            with self._finalizer_cond:
                wait_until(self._finalizer_cond,
                           lambda: bool(self._finalizer_queue),
                           timeout=0.05)
                if self._finalizer_queue:
                    job = self._finalizer_queue.pop(0)
            if job is not None:
                try:
                    job()
                except BaseException as exc:  # noqa: BLE001
                    self.report_uncaught(JThread.current_or_none(), exc)

    def register_finalizer(self, job: Callable[[], None]) -> None:
        """Queue a finalization job for the Finalizer thread."""
        with self._finalizer_cond:
            self._finalizer_queue.append(job)
            self._finalizer_cond.notify_all()

    def drain_finalizers(self, timeout: float = 2.0) -> bool:
        """Wait until the finalizer queue is empty (test helper)."""
        import time
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._finalizer_cond:
                if not self._finalizer_queue:
                    return True
            JThread.sleep(0.01)
        return False

    # -- the event-loop scheduler (repro.sched) ---------------------------------------

    def ensure_scheduler(self):
        """The VM's event-loop scheduler, started on first use.

        One loop per VM multiplexes every continuation task (and every
        generator-bodied JThread) for all applications in this VM — the
        ROADMAP's answer to one-OS-thread-per-JThread.  A loop that was
        shut down is restarted, not replaced, so ``sched.*`` counters
        carry on across the restart.
        """
        with self._scheduler_lock:
            if self.scheduler is None:
                from repro.sched import Scheduler
                self.scheduler = Scheduler(
                    name=f"sched-{self.os_context.pid}")
            return self.scheduler.start()

    def _sched_metrics(self) -> dict:
        """``sched.*`` for the metrics registry, read from the loop's own
        counters (all 0 before the loop first starts)."""
        from repro.sched import Scheduler
        scheduler = self.scheduler or Scheduler()
        return {f"sched.{key}": int(value)
                for key, value in scheduler.stats().items()}

    # -- thread accounting (Figure 1) -----------------------------------------------

    def thread_started(self, thread: JThread) -> None:
        if thread.daemon:
            return
        with self._accounting:
            self._non_daemon += 1

    def thread_finished(self, thread: JThread) -> None:
        if thread.daemon:
            return
        trigger = False
        with self._accounting:
            self._non_daemon -= 1
            if self._non_daemon <= 0 and self.exit_when_last_nondaemon:
                trigger = True
            self._accounting.notify_all()
        if trigger:
            # "If all remaining threads turn out to be daemon threads, the
            # JVM exits, stopping all those daemon threads in the middle of
            # whatever they were doing."
            self._begin_shutdown(0)

    def thread_unstarted(self, thread: JThread) -> None:
        """Undo :meth:`thread_started` for a thread whose backing failed
        to start; the last-non-daemon shutdown rule does not apply."""
        if thread.daemon:
            return
        with self._accounting:
            self._non_daemon -= 1

    @property
    def non_daemon_count(self) -> int:
        with self._accounting:
            return self._non_daemon

    # -- running an application (single-application mode, Section 3.1) ---------------

    def run_main(self, class_name: str, args: Optional[list[str]] = None,
                 thread_name: str = "main") -> JThread:
        """``java MyClass arg1 arg2`` — start ``main`` in a non-daemon thread."""
        from repro.lang.context import InvocationContext
        jclass = self.boot_loader.load_class(class_name)
        context = InvocationContext(vm=self, loader=self.boot_loader,
                                    jclass=jclass)

        def body() -> None:
            jclass.invoke("main", context, list(args or []))

        thread = JThread(target=body, name=thread_name,
                         group=self.main_group, daemon=False)
        thread.start()
        return thread

    # -- exit (Figure 1) ----------------------------------------------------------

    def exit(self, status: int = 0) -> None:
        """``System.exit`` — stop the whole VM process."""
        if self.security_manager is not None:
            self.security_manager.check_exit(status)
        self._begin_shutdown(status)

    def add_shutdown_hook(self, hook: Callable[[], None]) -> None:
        self._shutdown_hooks.append(hook)

    def _begin_shutdown(self, status: int) -> None:
        with self._state_lock:
            if self._state in (STATE_EXITING, STATE_TERMINATED):
                return
            self._state = STATE_EXITING
            self._exit_code = status
        for hook in list(self._shutdown_hooks):
            try:
                hook()
            except BaseException as exc:  # noqa: BLE001
                self.report_uncaught(JThread.current_or_none(), exc)
        self.root_group.stop_all()
        # Stop the event loop after stop_all: parked tasks get their
        # ThreadDeath either via the stop-flag kick above or, failing
        # that, from the scheduler's own teardown — finish hooks run
        # exactly once either way.
        scheduler = self.scheduler
        if scheduler is not None:
            scheduler.shutdown()
        with self._state_lock:
            self._state = STATE_TERMINATED
        self._terminated.set()

    def await_termination(self, timeout: Optional[float] = None) -> bool:
        """Block until the VM has exited (Figure 1's end state)."""
        return self._terminated.wait(timeout)

    @property
    def terminated(self) -> bool:
        return self._terminated.is_set()

    @property
    def state(self) -> str:
        with self._state_lock:
            return self._state

    @property
    def exit_code(self) -> Optional[int]:
        return self._exit_code

    # -- diagnostics ---------------------------------------------------------------

    def report_uncaught(self, thread: Optional[JThread],
                        exc: BaseException) -> None:
        from repro.jvm.threads import owning_application
        err = self.err
        name = thread.name if thread is not None else "?"
        if thread is not None:
            application = owning_application(thread.group)
            if application is not None:
                err = application.stderr
        err.println(f'Exception in thread "{name}" '
                    f"{type(exc).__name__}: {exc}")

    def set_security_manager(self, manager) -> None:
        """Install the JVM-wide security manager (Section 5.6)."""
        if self.security_manager is not None:
            from repro.security.permissions import RuntimePermission
            self.security_manager.check_permission(
                RuntimePermission("setSecurityManager"))
        # Back-reference so the manager can attribute audit records made
        # from host threads (no current application) to this VM's hub.
        manager.vm = self
        self.security_manager = manager

    def attach_main_thread(self, name: str = "host-main") -> JThread:
        """Attach the calling host thread to the main group."""
        return JThread.attach(name, self.main_group, daemon=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"VirtualMachine(pid={self.os_context.pid}, "
                f"state={self.state})")
