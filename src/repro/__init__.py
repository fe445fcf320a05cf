"""repro — a reproduction of Balfanz & Gong, *Experience with Secure
Multi-Processing in Java* (ICDCS 1998), as a pure-Python system.

The package builds a simulated JVM substrate (threads, thread groups,
class loaders, a JDK 1.2-style security architecture, an AWT-like toolkit
over a simulated X server, a virtual Unix file system, and a simulated
network) and implements the paper's multi-processing architecture on top:
applications as thread sets, users and user-based access control, reloaded
per-application System classes, the system security manager, and the
Section 6 tools (shell, terminal, login, Appletviewer).

Quickstart::

    from repro import ExecSpec, MultiProcVM, TerminalDevice

    mvm = MultiProcVM.boot()
    console = TerminalDevice("console")
    mvm.vm.consoles["console"] = console
    with mvm.host_session():
        mvm.launch(ExecSpec("tools.Terminal", ("console",)))
        console.type_line("alice")       # login:
        console.type_line("wonderland")  # Password:
        console.type_line("ls /home/alice | wc -l")
        ...

Every launch — local, cluster-scheduled, or remote — goes through one
door: build an :class:`ExecSpec` (optionally with a non-local
:class:`Placement`) and hand it to :func:`launch` (or the convenience
wrappers ``mvm.launch`` / ``ctx.launch``).  That is the paper's
``Application.exec``; there is no other way to start an application.

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-claim-vs-measured record.
"""

from repro import sched
from repro.core.application import (
    Application,
    ApplicationRegistry,
    ExitStatus,
    ResourceLimitExceeded,
    ResourceLimits,
)
from repro.core.execspec import ExecSpec, Placement, launch
from repro.core.context import (
    current_application,
    current_application_or_none,
    current_user,
)
from repro.cluster import Cluster, ClusterApplication, PlacementError
from repro.core.launcher import DEFAULT_POLICY, MultiProcVM
from repro.core.sharing import SharedObjectSpace
from repro.dist.client import DistributedApplication, RemoteApplication
from repro.core.reload import RELOADABLE_CLASSES, ApplicationClassLoader
from repro.jvm.classloading import (
    ClassLoader,
    ClassMaterial,
    ClassRegistry,
    JClass,
    JObject,
)
from repro.jvm.errors import (
    AccessControlException,
    FileNotFoundException,
    IOException,
    JavaThrowable,
    SecurityException,
)
from repro.jvm.threads import JThread, ThreadGroup
from repro.jvm.vm import VirtualMachine
from repro.sched import (
    SchedEvent,
    Scheduler,
    Task,
    TaskWaiter,
    WaitPoint,
    sched_yield,
    spawn,
)
from repro.security.auth import JavaUser, UserDatabase
from repro.security.codesource import CodeSource, ProtectionDomain
from repro.security.permissions import (
    AllPermission,
    AWTPermission,
    FilePermission,
    Permission,
    Permissions,
    PropertyPermission,
    RuntimePermission,
    SocketPermission,
    UserPermission,
)
from repro.policytool import (
    PolicyDiff,
    PolicyRecorder,
    diff_policies,
    infer_policy,
    lint_policy,
    recorder_for,
)
from repro.security.policy import (
    PHASE_INIT,
    PHASE_SHUTDOWN,
    PHASE_STEADY,
    PHASES,
    Policy,
    paper_example_policy,
    parse_policy,
)
from repro.super import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionRejected,
    BackoffPolicy,
    FaultInjector,
    HealthProbe,
    InjectedFault,
    ServiceSpec,
    Supervisor,
)
from repro.tools.terminal import Terminal, TerminalDevice

__version__ = "1.0.0"

__all__ = [
    "Application", "ApplicationRegistry", "ApplicationClassLoader",
    "ExecSpec", "Placement", "launch", "ExitStatus",
    "ResourceLimits", "ResourceLimitExceeded", "SharedObjectSpace",
    "DistributedApplication", "RemoteApplication",
    "Cluster", "ClusterApplication", "PlacementError",
    "Supervisor", "ServiceSpec", "BackoffPolicy", "HealthProbe",
    "AdmissionController", "AdmissionPolicy", "AdmissionRejected",
    "FaultInjector", "InjectedFault",
    "JObject",
    "MultiProcVM", "VirtualMachine", "DEFAULT_POLICY", "RELOADABLE_CLASSES",
    "current_application", "current_application_or_none", "current_user",
    "ClassLoader", "ClassMaterial", "ClassRegistry", "JClass",
    "JThread", "ThreadGroup",
    "sched", "Scheduler", "Task", "spawn", "sched_yield",
    "WaitPoint", "SchedEvent", "TaskWaiter",
    "JavaThrowable", "SecurityException", "AccessControlException",
    "IOException", "FileNotFoundException",
    "JavaUser", "UserDatabase", "CodeSource", "ProtectionDomain",
    "Permission", "Permissions", "AllPermission", "FilePermission",
    "RuntimePermission", "SocketPermission", "PropertyPermission",
    "AWTPermission", "UserPermission",
    "Policy", "parse_policy", "paper_example_policy",
    "PHASES", "PHASE_INIT", "PHASE_STEADY", "PHASE_SHUTDOWN",
    "PolicyRecorder", "PolicyDiff", "recorder_for",
    "infer_policy", "diff_policies", "lint_policy",
    "Terminal", "TerminalDevice",
    "__version__",
]
