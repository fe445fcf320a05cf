"""A ``/proc``-style introspection surface over the application table.

Mounted read-only at ``/proc`` by the multi-processing launcher.  Where
each file's lines come from::

    /proc/vmstat              every series name in the VM's metrics
                              registry, one ``name<TAB>total`` line each
    /proc/sched               the registry's ``sched.*`` totals
    /proc/ipc/ring            its ``ipc.ring.*`` totals
    /proc/dist/transport      its ``dist.*`` totals
    /proc/security/cache      its ``security.cache.*`` totals
    /proc/cluster/nodes       the cluster's membership table (controller
                              VMs only)
    /proc/cluster/placements  the cluster's recent placement decisions
    /proc/super/services      each supervisor's services table
    /proc/super/admission     the admission controller's queue and bounds
    /proc/policy/<app-id>     an application's phase and inferred-vs-live
                              policy delta
    /proc/<app-id>/status     one application's identity and accounting
    /proc/<app-id>/metrics    its labelled slice of the registry: the
                              application's own figures, its
                              ``security.checks`` included
    /proc/<app-id>/audit      its tail of the security audit log (JSONL)

The five counter files name no counter here: each is
:meth:`~repro.telemetry.metrics.MetricsRegistry.render_totals` given a
name prefix (stripped from the lines; ``vmstat`` takes every name).  The
registry totals each series name over its label sets and adds the values
its subsystems publish through collect callbacks: the scheduler's
``stats()``, the ring-pipe totals, the channel pool's idle depth, the
audit log's decision counts, the policy's epoch.  So a counter a subsystem
adds shows up here without an edit to this module.

Gating is by the *Java-level* user model, not OS uids: every Java file
operation runs as the JVM process's OS user (Feature 3), so mode bits
cannot distinguish Alice's application from Bob's.  Instead the provider
resolves the *current application* (the injected ``current_app`` callable)
and allows a per-application directory to be read when the reader is a
host thread, runs as the same :class:`~repro.security.auth.JavaUser`, or
is an ancestor application (the same ancestry rule the system security
manager applies to threads, Section 5.6).  Denials surface as
:class:`~repro.unixfs.vfs.VfsPermissionDenied`, which the Java file layer
translates to ``FileNotFoundException`` — deliberately the same Feature 3
asymmetry as OS-level permission denials: other users' telemetry simply
looks absent.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from repro.unixfs.vfs import (
    VfsIsADirectory,
    VfsNotADirectory,
    VfsNotFound,
    VfsPermissionDenied,
    VfsStat,
)

#: How many audit records the per-application audit file shows.
AUDIT_TAIL = 100


def _ino(rel: str) -> int:
    """Stable synthetic inode number for a /proc path."""
    return 0x70000000 | (hash(rel) & 0x0FFFFFFF)


def _counters(prefix: str) -> Callable:
    """A counter file: the registry's totals under ``prefix``."""
    return lambda fs: fs.vm.telemetry.metrics.render_totals(prefix)


class ProcFileSystem:
    """The synthetic provider mounted at ``/proc``."""

    def __init__(self, vm, current_app: Optional[Callable] = None):
        self.vm = vm
        self._current_app = current_app

    # -- resolution ------------------------------------------------------------

    def _application(self, app_id: int):
        registry = self.vm.application_registry
        application = registry.find(app_id) if registry is not None else None
        if application is None:
            raise VfsNotFound(f"/proc/{app_id}")
        return application

    def _gate(self, application, rel: str) -> None:
        """Owning-user gate: host, same user, or ancestor application."""
        current = self._current_app() if self._current_app is not None \
            else None
        if current is None:
            return  # host threads play the native launcher and are trusted
        if current is application:
            return
        if current.user == application.user:
            return
        if current.thread_group.parent_of(application.thread_group):
            return
        raise VfsPermissionDenied(f"/proc{rel}")

    def _split(self, rel: str) -> list[str]:
        return [part for part in rel.split("/") if part]

    # -- content ---------------------------------------------------------------

    def _status_text(self, application) -> str:
        stats = application.stats
        limits = application.limits
        lines = [
            f"Name:\t{application.name}",
            f"Id:\t{application.app_id}",
            f"Class:\t{application.class_name or '-'}",
            f"State:\t{application.state}",
            f"User:\t{application.user.name}",
            f"Parent:\t{application.parent.app_id}"
            if application.parent is not None else "Parent:\t-",
            f"Cwd:\t{application.cwd}",
            f"ThreadsLive:\t{len(application.live_threads())}",
            f"NonDaemon:\t{application.non_daemon_count}",
            f"ThreadsEver:\t{stats['threads']}",
            f"StreamsEver:\t{stats['streams']}",
            f"WindowsEver:\t{stats['windows']}",
            f"ChildrenEver:\t{stats['children']}",
            f"LimitThreads:\t{limits.max_threads or '-'}",
            f"LimitWindows:\t{limits.max_windows or '-'}",
            f"LimitChildren:\t{limits.max_children or '-'}",
            f"LimitStreams:\t{limits.max_open_streams or '-'}",
        ]
        return "\n".join(lines) + "\n"

    def _metrics_text(self, application) -> str:
        return self.vm.telemetry.metrics.render_text(app=application.name)

    def _audit_text(self, application) -> str:
        records = self.vm.telemetry.audit.tail(AUDIT_TAIL,
                                               app_id=application.app_id)
        return "".join(json.dumps(r, default=str) + "\n" for r in records)

    def _policy_text(self, application) -> str:
        """``/proc/policy/<app-id>``: phase, recording status, and the
        inferred-vs-live grant delta for one application."""
        from repro.policytool.diff import diff_policies
        from repro.policytool.infer import infer_policy
        recorder = getattr(self.vm, "policy_recorder", None)
        slice_ = recorder.slice_for(application.app_id) \
            if recorder is not None else None
        if slice_ is not None:
            records = slice_.snapshot()
            recording = "on" if slice_.active else "done"
        else:
            records = self.vm.telemetry.audit.records(
                app_id=application.app_id)
            recording = "off"
        inferred = infer_policy(records, phase_aware=True)
        grant_count = sum(len(entry.permissions)
                          for entry in inferred.entries())
        lines = [
            f"Phase:\t{application.phase}",
            f"Recording:\t{recording}",
            f"Records:\t{len(records)}",
            f"InferredGrants:\t{grant_count}",
        ]
        live = self.vm.policy
        if live is not None:
            delta = diff_policies(live, inferred)
            lines.append(f"MissingGrants:\t{len(delta.missing)}")
            lines.append(f"UnusedGrants:\t{len(delta.unused)}")
        return "\n".join(lines) + "\n"

    def _has_super(self) -> bool:
        return bool(self.vm.supervisors) or self.vm.admission is not None

    def _super_services_text(self) -> str:
        chunks = []
        for name in sorted(self.vm.supervisors):
            chunks.append(self.vm.supervisors[name].render_services())
        if not chunks:
            return "SERVICE\tSTATE\tPOLICY\tRESTARTS\tAPP\tCLASS\tLAST\n"
        return "".join(chunks)

    def _super_admission_text(self) -> str:
        admission = self.vm.admission
        if admission is None:
            return "admission\toff\n"
        return admission.render_text()

    # -- the tree --------------------------------------------------------------

    #: The fixed directories: name -> (exists on this VM?, {file: render}).
    #: ``""`` is /proc itself.  Application ids (``/proc/<id>``,
    #: ``/proc/policy/<id>``) are resolved beside it.
    _TREE = {
        "": (None, {"sched": _counters("sched."), "vmstat": _counters("")}),
        "cluster": (lambda fs: fs.vm.cluster is not None,
                    {"nodes": lambda fs: fs.vm.cluster.render_nodes(),
                     "placements":
                         lambda fs: fs.vm.cluster.render_placements()}),
        "dist": (None, {"transport": _counters("dist.")}),
        "ipc": (None, {"ring": _counters("ipc.ring.")}),
        "policy": (None, {}),
        "security": (None, {"cache": _counters("security.cache.")}),
        "super": (_has_super, {"admission": _super_admission_text,
                               "services": _super_services_text}),
    }

    #: The files of one application's (gated) directory.
    _APP_FILES = {"audit": _audit_text, "metrics": _metrics_text,
                  "status": _status_text}

    def _files(self, directory: str) -> Optional[dict]:
        """A fixed directory's files, or None where it does not exist."""
        entry = self._TREE.get(directory)
        if entry is None:
            return None
        exists, files = entry
        return files if exists is None or exists(self) else None

    def _is_dir(self, parts: list[str]) -> bool:
        if len(parts) != 1:
            return not parts
        return parts[0].isdigit() or self._files(parts[0]) is not None

    def _app_ids(self) -> list[str]:
        registry = self.vm.application_registry
        applications = registry.applications(check=False) \
            if registry is not None else []
        return sorted([str(a.app_id) for a in applications], key=int)

    def _file_payload(self, rel: str) -> bytes:
        parts = self._split(rel)
        if len(parts) == 2 and parts[0].isdigit():
            application = self._application(int(parts[0]))
            self._gate(application, rel)
            render = self._APP_FILES.get(parts[1])
            if render is not None:
                return render(self, application).encode("utf-8")
        elif len(parts) == 2 and parts[0] == "policy" \
                and parts[1].isdigit():
            application = self._application(int(parts[1]))
            self._gate(application, rel)
            return self._policy_text(application).encode("utf-8")
        elif len(parts) in (1, 2):
            files = self._files(parts[0] if len(parts) == 2 else "")
            render = files.get(parts[-1]) if files is not None else None
            if render is not None:
                return render(self).encode("utf-8")
        raise VfsNotFound(f"/proc{rel}")

    # -- the provider protocol (stat / listdir / read) -------------------------

    def stat(self, rel: str, user) -> VfsStat:
        parts = self._split(rel)
        if self._is_dir(parts):
            if parts and parts[0].isdigit():
                self._application(int(parts[0]))
            return VfsStat(_ino(rel), "dir", 0o555, 0, 0, 0, 0, 1)
        payload = self._file_payload(rel)
        return VfsStat(_ino(rel), "file", 0o444, 0, 0, len(payload), 0, 1)

    def listdir(self, rel: str, user) -> list[str]:
        parts = self._split(rel)
        if not parts:
            names = [name for name in self._TREE
                     if name and self._files(name) is not None]
            return self._app_ids() + sorted(names + list(self._files("")))
        if parts == ["policy"]:
            return self._app_ids()
        if len(parts) == 1 and parts[0].isdigit():
            application = self._application(int(parts[0]))
            self._gate(application, rel)
            return sorted(self._APP_FILES)
        if self._is_dir(parts):
            return sorted(self._files(parts[0]))
        if len(parts) == 1:
            raise VfsNotFound(f"/proc{rel}")
        raise VfsNotADirectory(f"/proc{rel}")

    def read(self, rel: str, user) -> bytes:
        if self._is_dir(self._split(rel)):
            raise VfsIsADirectory(f"/proc{rel}")
        return self._file_payload(rel)
