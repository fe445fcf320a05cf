"""The multi-processing VM launcher: wires every piece together.

Boots a :class:`~repro.jvm.vm.VirtualMachine` and installs the paper's
architecture on it:

* an :class:`~repro.core.application.ApplicationRegistry` with its reaper
  (Section 5.1);
* the :class:`~repro.security.sysmanager.SystemSecurityManager`
  (Section 5.6);
* a policy combining code-source and user grants (Section 5.3) — the
  default policy embeds the paper's Section 5.3 example verbatim;
* the user database and the null bootstrap user (Section 5.2);
* the AWT :class:`~repro.awt.toolkit.Toolkit` in per-application dispatch
  mode (Section 5.4) — pass ``dispatch_mode=CENTRALIZED`` to get the
  classic Figure 2 behaviour for comparison;
* the stream-ownership close rule (Section 5.1);
* the Section 5.3 user-permission resolver on the access controller;
* the demonstration tools of Section 6 on the command path.

Typical use::

    with MultiProcVM.boot() as mvm:
        with mvm.host_session():
            app = mvm.launch(ExecSpec("tools.Cat", ("/etc/motd",)))
            app.wait_for()
"""

from __future__ import annotations

import contextlib
import threading
from typing import Optional

from repro.awt.toolkit import PER_APPLICATION, Toolkit
from repro.core.application import Application, ApplicationRegistry
from repro.core.context import current_application_or_none
from repro.core.execspec import ExecSpec
from repro.core.execspec import launch as launch_spec
from repro.io import streams as streams_mod
from repro.jvm.errors import SecurityException
from repro.jvm.threads import JThread
from repro.jvm.vm import VirtualMachine
from repro.security import access
from repro.security import cache as seccache
from repro.security.auth import (
    NULL_USER,
    UserDatabase,
    standard_user_database,
)
from repro.security.policy import PAPER_EXAMPLE_POLICY, Policy, parse_policy
from repro.security.sysmanager import SystemSecurityManager
import repro.telemetry as telemetry

#: Code base under which all locally installed Java code lives.
LOCAL_CODE_BASE = "file:/usr/local/java/-"

#: The default policy: the paper's Section 5.3 example plus the working
#: grants the demonstration tools need (ordinary application privileges for
#: local code, the setUser privilege for the login program's code source
#: only, and the table/kill privileges the ps/kill tools rely on).
DEFAULT_POLICY = PAPER_EXAMPLE_POLICY + """
// Working grants for locally installed code (Section 6 tools): read
// access to world-readable system areas (the OS layer still hides files
// like /etc/shadow — Feature 3), scratch space in /tmp, and the runtime
// permissions the shell and GUI need.
grant codeBase "file:/usr/local/java/-" {
    permission PropertyPermission "*", "read";
    permission RuntimePermission "setIO";
    permission RuntimePermission "readApplicationTable";
    permission AWTPermission "showWindow";
    permission FilePermission "/", "read";
    permission FilePermission "/etc", "read";
    permission FilePermission "/etc/-", "read";
    permission FilePermission "/usr", "read";
    permission FilePermission "/usr/-", "read";
    permission FilePermission "/var", "read";
    permission FilePermission "/home", "read";
    permission FilePermission "/tmp", "read";
    permission FilePermission "/tmp/-", "read,write,delete";
    permission FilePermission "/proc", "read";
    permission FilePermission "/proc/-", "read";
    permission SocketPermission "*", "resolve";
    permission RuntimePermission "shareObject.bind";
    permission RuntimePermission "shareObject.lookup";
};

// Section 8 (future work): the rexec daemon listens for distributed
// applications and launches work as authenticated users (the login
// pattern: the privilege belongs to the program's code source).
grant codeBase "file:/usr/local/java/tools/rexecd/*" {
    permission SocketPermission "localhost:7000-7999", "listen";
    permission SocketPermission "*", "accept,resolve";
    permission RuntimePermission "setUser";
};

// ... and rsh connects out to rexec daemons on other JVMs.
grant codeBase "file:/usr/local/java/tools/rsh/*" {
    permission SocketPermission "*:7000-7999", "connect,resolve";
};

// Cluster plumbing (the Section 8 pool): the registry server accepts
// agent heartbeats on the controller, and the agent on every worker
// connects back to it.
grant codeBase "file:/usr/local/java/tools/clusterd/*" {
    permission SocketPermission "localhost:7000-7999", "listen";
    permission SocketPermission "*", "accept,resolve";
    permission SocketPermission "*:7000-7999", "connect,resolve";
};

// The cluster control tool launches scheduled work over the dist
// protocol, exactly like rsh.
grant codeBase "file:/usr/local/java/tools/cluster/*" {
    permission SocketPermission "*:7000-7999", "connect,resolve";
};

// The Appletviewer creates AppletClassLoaders and holds the network
// permission it delegates: "an applet will get the permission FROM the
// Appletviewer to connect back to its own host" (Section 6.3).  The
// stack-walk intersects the applet's own-host-only grant with this one.
grant codeBase "file:/usr/local/java/tools/appletviewer/*" {
    permission RuntimePermission "createClassLoader";
    permission SocketPermission "*", "connect,accept,resolve";
};

// Section 5.2: "All we need to do is grant the login program the privilege
// to set its own user."
grant codeBase "file:/usr/local/java/tools/login/*" {
    permission RuntimePermission "setUser";
};

// Working grant: the backup application also needs somewhere to put the
// backups (its read-everything grant is rule 2 of the Section 5.3 policy).
grant codeBase "file:/usr/local/java/apps/backup/*" {
    permission FilePermission "/var/backup", "read";
    permission FilePermission "/var/backup/-", "read,write";
};

// The policygen tool closes the audit loop: it may toggle learning mode
// on applications (the same standing rule as kill applies on top) and
// write inferred policies anywhere the invoking user may write.
grant codeBase "file:/usr/local/java/tools/policygen/*" {
    permission RuntimePermission "controlPolicyRecording";
};
"""


def _resolve_user_permissions():
    """Section 5.3 hook: the permissions of the *running user*.

    Consulted by the access controller when a domain holding
    ``UserPermission`` fails its code-source check.
    """
    application = current_application_or_none()
    if application is None:
        return None
    policy = application.vm.policy
    if policy is None:
        return None
    if getattr(policy, "phase_sensitive", False):
        return policy.permissions_for_user(application.user.name,
                                           application.phase)
    return policy.permissions_for_user(application.user.name)


def _resolve_current_phase():
    """Execution-state MAC hook: the calling app's lifecycle phase.

    Installed as ``security.cache.phase_resolver``; host threads (no
    current application) have no phase, so phase-conditioned grants fail
    closed for them.
    """
    application = current_application_or_none()
    if application is None:
        return None
    return application.phase


def _resolve_check_stack():
    """Policy-learning hook: protection-domain names on the caller's
    access-control context, newest first.  Only consulted for apps in
    recording mode (``telemetry.stack_resolver``)."""
    return tuple(domain.name for domain in access.get_context().domains)


def _stream_close_policy(stream) -> None:
    """Section 5.1: "applications may only close streams that they opened".

    Streams record the application that opened them in ``owner``; standard
    streams handed down by the launcher are owned by the initial
    application.  Anonymous streams (owner None) are unrestricted.
    """
    owner = stream.owner
    if owner is None:
        return
    application = current_application_or_none()
    if application is None or application is owner:
        return
    if application.thread_group.parent_of(owner.thread_group):
        return  # a parent may clean up after its children
    raise SecurityException(
        "application may only close streams that it opened")


def _stream_diagnostic(stream, message: str) -> None:
    """Satellite diagnostic sink: stream-layer trouble goes to the
    *application's own* ``System.err``, never the host process's stdout.
    """
    application = current_application_or_none()
    if application is None:
        return
    sink = application.stderr
    if sink is None or sink is stream:
        return  # never report a broken stderr to itself
    try:
        sink.println(f"repro: {message}")
    except Exception:
        pass  # diagnostics must never take down the stream layer


_hooks_installed = False
_hooks_lock = threading.Lock()


def install_global_hooks() -> None:
    """Install the (VM-agnostic, thread-sensitive) global hooks once."""
    global _hooks_installed
    with _hooks_lock:
        if _hooks_installed:
            return
        access.user_permission_resolver = _resolve_user_permissions
        streams_mod.close_policy = _stream_close_policy
        streams_mod.diagnostic_sink = _stream_diagnostic
        telemetry.app_resolver = current_application_or_none
        telemetry.stack_resolver = _resolve_check_stack
        seccache.phase_resolver = _resolve_current_phase
        _hooks_installed = True


class MultiProcVM:
    """A booted multi-processing JVM and its root (initial) application."""

    def __init__(self, vm: VirtualMachine, initial: Application,
                 toolkit: Toolkit):
        self.vm = vm
        self.initial = initial
        self.toolkit = toolkit

    # ------------------------------------------------------------------
    # boot
    # ------------------------------------------------------------------

    @classmethod
    def boot(cls, os_context=None,
             policy: Optional[Policy] = None,
             users: Optional[UserDatabase] = None,
             dispatch_mode: str = PER_APPLICATION,
             legacy_thread_placement: bool = False,
             xserver=None, network=None,
             stdin=None, stdout=None, stderr=None,
             with_tools: bool = True,
             system_exit_exits_application: bool = False,
             admission=None,
             audit_capacity: Optional[int] = None) -> "MultiProcVM":
        install_global_hooks()
        vm = VirtualMachine(os_context, stdin=stdin, stdout=stdout,
                            stderr=stderr)
        vm.boot()
        if audit_capacity is not None:
            # Bound the audit ring for this deployment (learning sessions
            # can stream overflow to JSONL instead of growing memory).
            vm.telemetry.audit.set_capacity(audit_capacity)
        from repro.net.fabric import NetworkFabric
        vm.network = network if network is not None else NetworkFabric()
        vm.network.add_host(vm.machine.hostname)
        vm.policy = policy if policy is not None \
            else parse_policy(DEFAULT_POLICY)
        vm.boot_loader.policy = vm.policy
        # Re-home the security-cache counters into this VM's telemetry hub
        # so /proc/vmstat and /proc/security/cache report live values.
        bind = getattr(vm.policy, "bind_telemetry", None)
        if bind is not None:
            bind(vm.telemetry.metrics)
        vm.user_database = users if users is not None \
            else standard_user_database()
        vm.system_exit_exits_application = system_exit_exits_application
        # Feature 1: the end of an application "should not necessarily
        # cause the JVM to exit" — VM lifetime is managed by the launcher.
        vm.exit_when_last_nondaemon = False

        registry = ApplicationRegistry(vm)
        vm.application_registry = registry
        registry.start()

        # Tentpole: the read-only introspection surface.  Gating is by the
        # Java-level user model inside the provider, not by mode bits.
        from repro.unixfs.procfs import ProcFileSystem
        vm.os_context.vfs.mount(
            "/proc", ProcFileSystem(vm, current_app=current_application_or_none))

        from repro.core.sharing import SharedObjectSpace
        vm.shared_objects = SharedObjectSpace(vm)

        # Admission control is opt-in: pass an AdmissionPolicy (or a
        # ready AdmissionController) to bound the launch choke point.
        if admission is not None:
            from repro.super.admission import (
                AdmissionController,
                AdmissionPolicy,
            )
            if isinstance(admission, AdmissionPolicy):
                admission = AdmissionController(vm, admission)
            admission.install()

        toolkit = Toolkit(vm, xserver=xserver, dispatch_mode=dispatch_mode,
                          legacy_thread_placement=legacy_thread_placement)

        if with_tools:
            from repro.tools.registry import register_tools
            register_tools(vm)

        # The initial (bootstrap) application: null user, VM streams.
        initial = Application(vm, class_name=None, name="init",
                              user=NULL_USER, auto_exit=False)
        registry.initial = initial
        with initial._cond:
            initial._state = "running"
        vm.stdin.owner = initial
        vm.out.owner = initial
        vm.err.owner = initial

        vm.set_security_manager(SystemSecurityManager())
        return cls(vm, initial, toolkit)

    # ------------------------------------------------------------------
    # host-thread plumbing
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def host_session(self, name: str = "host"):
        """Attach the calling host thread to the initial application.

        Inside the block, ``current_application()`` resolves to the initial
        application, so ``launch`` starts children with inherited state —
        the same situation as the paper's login/shell bootstrap.
        """
        already = JThread.current_or_none()
        if already is not None:
            yield already
            return
        thread = JThread.attach(name, self.initial.thread_group,
                                daemon=False)
        try:
            yield thread
        finally:
            thread.detach()

    # ------------------------------------------------------------------
    # convenience API
    # ------------------------------------------------------------------

    def launch(self, spec: ExecSpec):
        """Launch an :class:`ExecSpec` (the unified entry point).

        Local placements become children of the initial application (or
        of the current one, when called from inside an app); cluster and
        remote placements route through the spec's placement hint.
        """
        parent = current_application_or_none() or self.initial
        return launch_spec(spec, vm=self.vm, parent=parent)

    def run(self, class_name: str, args: Optional[list[str]] = None,
            timeout: float = 10.0, **state_overrides) -> Optional[int]:
        """Launch, wait, and return the exit code."""
        application = self.launch(ExecSpec(class_name, tuple(args or ()),
                                           **state_overrides))
        return application.wait_for(timeout)

    def applications(self):
        return self.vm.application_registry.applications(check=False)

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Destroy all applications, stop the toolkit, stop the VM."""
        self.initial.destroy()
        self.initial.wait_for(5.0)
        self.toolkit.shutdown()
        self.vm.exit(0)
        self.vm.await_termination(5.0)

    def __enter__(self) -> "MultiProcVM":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MultiProcVM(vm={self.vm!r})"
