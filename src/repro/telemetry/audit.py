"""Append-only audit log of every security decision.

The paper's Section 5.6 design deliberately has *multiple* security
managers — per-application managers for compatibility, the system security
manager for inter-application protection — which means "who denied what"
is genuinely ambiguous without a trail.  Every record therefore names the
deciding manager class alongside the classic audit tuple: the permission
checked, the code source (protection domain) on top of the stack, the
running user of the current application, and the grant/deny outcome.

The log is bounded (a ring of :data:`AUDIT_CAPACITY` records, adjustable
per deployment via :meth:`AuditLog.set_capacity`) so an always-on
deployment cannot leak memory; overwrites are counted in
:attr:`AuditLog.dropped`, which the VM's metrics registry reads through
:meth:`AuditLog.collect` as ``security.audit.dropped``.  Within the
window it is strictly append-only: nothing in the kernel mutates or
removes records.  ``deque.append`` is atomic under the GIL, so recording
takes no lock on the hot path; only the grant/deny counters tolerate
(rare, harmless) lost increments.

Beyond the ring, the log is a *consumption* point: listeners registered
with :meth:`AuditLog.add_listener` see every record as it lands (the
policy recorder of :mod:`repro.policytool` captures per-application
slices this way), and :meth:`AuditLog.stream_jsonl` attaches a listener
that appends each record as a JSON line — so long learning sessions can
spool to disk instead of growing the ring.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from typing import Collection, Iterable, Optional

AUDIT_CAPACITY = 4096

#: The only two classes that decide checks (Section 5.6).  ``audit_check``
#: callers pass free-form labels; :func:`normalize_manager` folds them onto
#: this vocabulary so policy inference can't be confused by label drift.
#: Order matters below: ``SystemSecurityManager`` ends with
#: ``SecurityManager``, so the longer name must be tried first.
KNOWN_MANAGERS = ("SystemSecurityManager", "SecurityManager")


def normalize_manager(label: Optional[str]) -> Optional[str]:
    """Canonicalize a manager label onto :data:`KNOWN_MANAGERS`.

    Subclass and module-qualified spellings (``MySystemSecurityManager``,
    ``repro.security.manager.SecurityManager``) map to the base class name
    they end with; anything unrecognizable passes through unchanged so the
    trail never loses information, only variance.
    """
    if label is None or label in KNOWN_MANAGERS:
        return label
    for known in KNOWN_MANAGERS:
        if label.endswith(known):
            return known
    return label


class JsonlStreamHook:
    """An audit listener that appends each record as one JSON line.

    Accepts a path (opened in append mode and owned by the hook) or any
    object with ``write``.  Writing is serialized by a private lock so
    parallel applications can't interleave half-lines.
    """

    def __init__(self, target):
        if hasattr(target, "write"):
            self._sink = target
            self._owns_sink = False
        else:
            self._sink = open(target, "a", encoding="utf-8")
            self._owns_sink = True
        self._lock = threading.Lock()
        self.written = 0

    def __call__(self, entry: dict) -> None:
        line = json.dumps(entry, default=str)
        with self._lock:
            self._sink.write(line + "\n")
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if self._owns_sink:
                self._sink.close()


class AuditLog:
    """Bounded append-only record of security-manager decisions."""

    def __init__(self, capacity: int = AUDIT_CAPACITY):
        self._records: deque = deque(maxlen=capacity)
        self._seq = itertools.count(1)
        self.grants = 0
        self.denies = 0
        #: Records the ring overwrote (oldest-first eviction).
        self.dropped = 0
        #: Immutable tuple, swapped wholesale on (rare) mutation so the
        #: hot recording path iterates without a lock.
        self._listeners: tuple = ()

    # -- configuration ----------------------------------------------------------

    @property
    def capacity(self) -> Optional[int]:
        return self._records.maxlen

    def set_capacity(self, capacity: int) -> None:
        """Re-bound the ring, keeping the newest records."""
        self._records = deque(self._records, maxlen=capacity)

    # -- listeners --------------------------------------------------------------

    def add_listener(self, listener) -> None:
        """Register ``listener(entry_dict)``; called on every record.

        Listener exceptions are swallowed: observation must never turn a
        granted check into a failure.
        """
        self._listeners = self._listeners + (listener,)

    def remove_listener(self, listener) -> None:
        self._listeners = tuple(
            existing for existing in self._listeners
            if existing is not listener)

    def stream_jsonl(self, target) -> JsonlStreamHook:
        """Attach a listener appending each new record to ``target``.

        Returns the hook; detach with :meth:`unstream`.
        """
        hook = JsonlStreamHook(target)
        self.add_listener(hook)
        return hook

    def unstream(self, hook: JsonlStreamHook) -> None:
        self.remove_listener(hook)
        hook.close()

    # -- write side -------------------------------------------------------------

    def record(self, *, check: str, permission: str,
               granted: bool, manager: Optional[str] = None,
               domain: Optional[str] = None, user: Optional[str] = None,
               app_id: Optional[int] = None,
               app_name: Optional[str] = None,
               ptype: Optional[str] = None,
               target: Optional[str] = None,
               actions: Optional[str] = None,
               phase: Optional[str] = None,
               stack: Optional[Iterable[str]] = None) -> dict:
        """Append one decision; returns the record written.

        ``ptype``/``target``/``actions`` carry the decision in structured
        form (None for string-only checks like the ancestry grants);
        ``phase`` is the application's lifecycle phase at check time and
        ``stack`` the protection-domain names on the walk — captured only
        for applications in policy-learning mode.
        """
        entry = {"seq": next(self._seq), "ts_ns": time.monotonic_ns(),
                 "check": check, "permission": permission,
                 "granted": granted, "manager": normalize_manager(manager),
                 "domain": domain, "user": user, "app_id": app_id,
                 "app": app_name, "ptype": ptype, "target": target,
                 "actions": actions, "phase": phase}
        if stack is not None:
            entry["stack"] = tuple(stack)
        records = self._records
        if records.maxlen is not None and len(records) == records.maxlen:
            self.dropped += 1
        records.append(entry)
        if granted:
            self.grants += 1
        else:
            self.denies += 1
        for listener in self._listeners:
            try:
                listener(entry)
            except Exception:
                pass
        return entry

    # -- read side -------------------------------------------------------------

    def records(self, app_id: Optional[int] = None,
                granted: Optional[bool] = None,
                user: Optional[str] = None) -> list[dict]:
        """A filtered snapshot, oldest first."""
        out = list(self._records)
        if app_id is not None:
            out = [r for r in out if r["app_id"] == app_id]
        if granted is not None:
            out = [r for r in out if r["granted"] is granted]
        if user is not None:
            out = [r for r in out if r["user"] == user]
        return out

    def denials(self, **filters) -> list[dict]:
        return self.records(granted=False, **filters)

    def tail(self, count: int = 20, **filters) -> list[dict]:
        return self.records(**filters)[-count:]

    def export_jsonl(self, target, **filters) -> int:
        """Write records to a path or file-like object; returns the count."""
        records = self.records(**filters)
        if hasattr(target, "write"):
            for record in records:
                target.write(json.dumps(record, default=str) + "\n")
            return len(records)
        with open(target, "w", encoding="utf-8") as sink:
            return self.export_jsonl(sink, **filters)

    def collect(self) -> dict:
        """The decision counts, for the VM's metrics registry."""
        return {"security.checks": self.grants + self.denies,
                "security.grants": self.grants,
                "security.denies": self.denies,
                "security.audit.dropped": self.dropped}

    def collect_labelled(self, match: dict,
                         skip: Collection[int] = ()) -> list[dict]:
        """``security.checks{app,decision}`` counted over the ring for
        records whose ``app_id`` is not in ``skip`` (the applications
        that count their own): the breakdown of the other decisions, as
        far back as the ring reaches."""
        if not match.keys() <= {"app", "decision"}:
            return []
        app = match.get("app")
        counts: dict = {}
        for record in list(self._records):
            name = record["app"] or ""
            if (app is None or name == app) \
                    and record["app_id"] not in skip:
                key = (name, "grant" if record["granted"] else "deny")
                counts[key] = counts.get(key, 0) + 1
        return [{"kind": "counter", "name": "security.checks",
                 "labels": {"app": name, "decision": decision},
                 "value": count}
                for (name, decision), count in counts.items()]

    def __len__(self) -> int:
        return len(self._records)
