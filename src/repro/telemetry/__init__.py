"""Kernel-wide telemetry: metrics, tracing, and the security audit trail.

One :class:`TelemetryHub` hangs off every
:class:`~repro.jvm.vm.VirtualMachine` (``vm.telemetry``) and bundles the
three facilities:

* :class:`~repro.telemetry.metrics.MetricsRegistry` — lock-cheap counters,
  gauges, and histograms with labels;
* :class:`~repro.telemetry.trace.Tracer` — span-style structured tracing
  with monotonic timestamps, ring-buffered per application, JSONL export;
* :class:`~repro.telemetry.audit.AuditLog` — the append-only record of
  every security decision.

Layering mirrors the rest of the kernel: this package imports nothing from
``repro`` (pure leaf), and learns about applications through the
:data:`app_resolver` injection point that
:func:`repro.core.launcher.install_global_hooks` fills in with
``current_application_or_none`` — the same idiom as the access
controller's ``user_permission_resolver``.  Code that runs without a
current application (host threads, single-application VMs booted before
any launcher) falls back to the process-wide :data:`GLOBAL_HUB`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.telemetry.audit import (
    AUDIT_CAPACITY,
    AuditLog,
    JsonlStreamHook,
    KNOWN_MANAGERS,
    normalize_manager,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.trace import (
    NOOP_SPAN,
    Span,
    TraceCollector,
    Tracer,
    install_collector,
    installed_collector,
)

__all__ = [
    "AuditLog", "Counter", "Gauge", "Histogram", "JsonlStreamHook",
    "KNOWN_MANAGERS", "MetricsRegistry",
    "NOOP_SPAN", "Span", "TraceCollector", "Tracer", "TelemetryHub",
    "GLOBAL_HUB", "app_resolver", "audit_check", "current_hub",
    "install_collector", "installed_collector", "normalize_manager",
    "stack_resolver",
]

#: Injection point: returns the current Application (or None).  Installed
#: once by the multi-processing launcher; kept module-level so telemetry
#: never imports the application layer.
app_resolver: Optional[Callable[[], object]] = None

#: Injection point: returns the protection-domain names on the calling
#: thread's access-control context, for policy-learning stack capture.
#: Consulted only when the current application has ``policy_recording``
#: set, so ordinary checks never pay for a context snapshot.
stack_resolver: Optional[Callable[[], tuple]] = None


class TelemetryHub:
    """One VM's bundle of metrics + tracer + audit log."""

    def __init__(self, name: str = "vm",
                 audit_capacity: Optional[int] = None):
        self.name = name
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(name)
        self.audit = AuditLog(audit_capacity if audit_capacity is not None
                              else AUDIT_CAPACITY)
        self.metrics.collect(self.audit.collect)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TelemetryHub({self.name!r}, metrics={len(self.metrics)}, "
                f"audit={len(self.audit)})")


#: Fallback hub for code running outside any VM-attached context.
GLOBAL_HUB = TelemetryHub("global")


def _current_application():
    resolver = app_resolver
    if resolver is None:
        return None
    return resolver()


def current_hub() -> TelemetryHub:
    """The hub of the current application's VM, else :data:`GLOBAL_HUB`."""
    application = _current_application()
    if application is not None:
        return application.vm.telemetry
    return GLOBAL_HUB


def audit_check(permission, granted: bool, manager: str,
                check: str = "checkPermission",
                domain: Optional[str] = None, vm=None) -> None:
    """Record one security decision with full attribution.

    ``permission`` may be a :class:`~repro.security.permissions.Permission`
    (the managers pass the checked object so the record carries structured
    ``ptype``/``target``/``actions`` columns for policy inference) or a
    plain string (ancestry-style grants with no permission object).

    Resolves the current application for the user / application columns;
    ``vm`` is a fallback hub source for checks made from host threads (the
    security manager passes its owning VM).  The record is the one count
    of the decision: the registry reads ``security.checks`` from the
    log, and the application, which keeps its own grant and deny counts
    for its ``app``/``decision`` breakdown.  When someone is
    listening this also emits a ``security.check`` trace event, which is
    what puts audited checks into exported JSONL traces.
    """
    application = _current_application()
    if application is not None:
        hub = application.vm.telemetry
        user = application.user.name
        app_id = application.app_id
        app_name = application.name
        if granted:
            application.checks_granted += 1
        else:
            application.checks_denied += 1
    else:
        hub = vm.telemetry if vm is not None else GLOBAL_HUB
        user = None
        app_id = None
        app_name = None
    if isinstance(permission, str):
        permission_str = permission
        ptype = target = actions = None
    else:
        permission_str = str(permission)
        ptype = type(permission).__name__
        target = permission.name
        actions = permission.actions() or None
    phase = getattr(application, "phase", None)
    stack = None
    if application is not None and getattr(application, "policy_recording",
                                           False):
        resolver = stack_resolver
        if resolver is not None:
            try:
                stack = resolver()
            except Exception:
                stack = None
    hub.audit.record(check=check, permission=permission_str,
                     granted=granted, manager=manager, domain=domain,
                     user=user, app_id=app_id, app_name=app_name,
                     ptype=ptype, target=target, actions=actions,
                     phase=phase, stack=stack)
    tracer = hub.tracer
    if tracer.recording:
        tracer.event("security.check", app=app_name,
                     permission=permission_str, granted=granted,
                     manager=manager, user=user)
