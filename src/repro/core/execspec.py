"""One launch description, one verb — the paper's ``Application.exec``.

:class:`ExecSpec` is the one description: *what* to run (class name and
argv), the Section 5.1 state overrides (user, streams, cwd, properties,
limits — everything a child may refuse to inherit), and *where* to run
it (a :class:`Placement` hint).  :func:`launch` is the one verb — it
routes a spec to the local exec path, the cluster scheduler, or the dist
client.  ``mvm.launch`` and ``ctx.launch`` bind it to a VM or a running
application; there is no other way to start an application, so every
launch honours its placement.

The placement kinds:

``Placement.local()``
    A child application on this VM (the default).  Returns an
    :class:`~repro.core.application.Application`.
``Placement.cluster(policy=..., untrusted=...)``
    Hand the launch to this VM's :class:`~repro.cluster.spawn.Cluster`
    scheduler.  Returns a ``ClusterApplication``.
``Placement.remote(host, port=...)``
    A specific JVM over the dist protocol.  Returns a
    ``RemoteApplication``.

All three results honour the same lifecycle surface (``wait_for``,
``wait``, ``destroy``, ``terminated``), so call sites can stay
placement-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.jvm.errors import IllegalArgumentException, IllegalStateException

LOCAL = "local"
CLUSTER = "cluster"
REMOTE = "remote"


@dataclass(frozen=True)
class Placement:
    """Where a launch should run.  Build via the classmethods."""

    kind: str = LOCAL
    host: Optional[str] = None
    port: int = 7100
    policy: str = "round-robin"
    untrusted: bool = False

    @classmethod
    def local(cls) -> "Placement":
        return cls(LOCAL)

    @classmethod
    def cluster(cls, policy: str = "round-robin",
                untrusted: bool = False) -> "Placement":
        return cls(CLUSTER, policy=policy, untrusted=untrusted)

    @classmethod
    def remote(cls, host: str, port: int = 7100) -> "Placement":
        return cls(REMOTE, host=host, port=port)


#: The state-override fields forwarded to the Application constructor.
_STATE_FIELDS = ("name", "user", "stdin", "stdout", "stderr", "cwd",
                 "properties", "limits")


@dataclass(frozen=True)
class ExecSpec:
    """A complete, placement-agnostic description of one launch.

    ``user`` is a :class:`~repro.security.auth.JavaUser` for local
    launches (inherited from the parent when None, Section 5.1); for
    cluster/remote placements it is the *username string* that travels
    with ``password`` and is verified by the target VM
    (credentials travel, identity does not — Section 5.2).  A
    ``JavaUser`` given to a non-local placement contributes its name.

    ``admission_timeout`` is how long a launch may block waiting for an
    admission slot when the target VM runs an
    :class:`~repro.super.admission.AdmissionController`: ``None`` sheds
    immediately with ``AdmissionRejected`` when the VM is saturated.
    """

    class_name: str
    args: tuple = ()
    # -- Section 5.1 state overrides (None = inherit from the parent) --
    user: object = None
    password: str = ""
    stdin: object = None
    stdout: object = None
    stderr: object = None
    cwd: Optional[str] = None
    properties: object = None
    name: Optional[str] = None
    limits: object = None
    # -- policy learning + execution-state MAC --
    #: Capture this app's audit slice for policy inference (policygen).
    record_policy: bool = False
    #: Launch-time phase override (e.g. headless services that should
    #: start straight in "steady"); None keeps the kernel's default.
    phase: Optional[str] = None
    # -- routing + admission --
    placement: Placement = field(default_factory=Placement)
    admission_timeout: Optional[float] = None

    def __post_init__(self):
        if not self.class_name:
            raise IllegalArgumentException("ExecSpec needs a class name")
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args or ()))

    # -- adapters for the three launch paths -----------------------------------

    def state_overrides(self) -> dict:
        """The non-default Section 5.1 overrides, as constructor kwargs."""
        overrides = {}
        for name in _STATE_FIELDS:
            value = getattr(self, name)
            if value is not None:
                overrides[name] = value
        return overrides

    def user_name(self) -> str:
        """The target-side username (for cluster/remote credentials)."""
        user = self.user
        if user is None:
            return ""
        return getattr(user, "name", None) or str(user)

    def with_placement(self, placement: Placement) -> "ExecSpec":
        return replace(self, placement=placement)

    def describe(self) -> str:  # pragma: no cover - cosmetic
        argv = " ".join(str(a) for a in self.args)
        return f"{self.class_name} {argv}".strip()


def launch(spec: ExecSpec, *, vm=None, parent=None, ctx=None):
    """Launch ``spec`` wherever its placement points.

    ``vm``/``parent`` pin the launching context for local placements
    (defaulting to the caller's current application); ``ctx`` is the
    invocation context for remote placements (defaulting to the current
    application's) and cluster ones (defaulting to the controller's
    initial application).
    """
    placement = spec.placement
    if placement.kind == LOCAL:
        from repro.core.application import Application
        return Application._exec_spec(spec, vm=vm, parent=parent)

    if placement.kind == CLUSTER:
        target_vm = _resolve_vm(vm, parent, ctx)
        cluster = getattr(target_vm, "cluster", None)
        if cluster is None:
            raise IllegalStateException(
                "cluster placement needs a Cluster on this VM "
                "(construct repro.cluster.Cluster(mvm) first)")
        return cluster._exec_spec(spec, ctx=ctx)

    if placement.kind == REMOTE:
        if placement.host is None:
            raise IllegalArgumentException(
                "remote placement needs a host (Placement.remote(host))")
        from repro.dist.client import RemoteApplication
        context = ctx if ctx is not None else _current_context()
        return RemoteApplication(
            context, placement.host, placement.port, spec.user_name(),
            spec.password, spec.class_name, list(spec.args),
            stdout=spec.stdout, stderr=spec.stderr, limits=spec.limits,
            record=spec.record_policy, phase=spec.phase)

    raise IllegalArgumentException(
        f"unknown placement kind {placement.kind!r}")


def _resolve_vm(vm, parent, ctx):
    if vm is not None:
        return vm
    if parent is not None:
        return parent.vm
    if ctx is not None:
        return ctx.vm
    from repro.core.context import current_application_or_none
    application = current_application_or_none()
    if application is None:
        raise IllegalStateException(
            "launch needs a VM: pass vm=, or call from inside an "
            "application")
    return application.vm


def _current_context():
    from repro.core.context import current_application_or_none
    application = current_application_or_none()
    if application is None:
        raise IllegalStateException(
            "remote placement needs a ctx= (or a current application)")
    return application.context()
