"""A ``/proc``-style introspection surface over the application table.

Mounted read-only at ``/proc`` by the multi-processing launcher::

    /proc/vmstat              VM-wide telemetry rollup (world-readable)
    /proc/sched               the event-loop scheduler: live tasks, queue
                              depths, switch/timer/error counters
    /proc/security/cache      permission-cache hit/miss/invalidation stats
    /proc/dist/transport      dist-fabric transport stats: frames, bytes,
                              coalescing, and the channel pool
    /proc/cluster/nodes       cluster membership table (controller VMs only)
    /proc/cluster/placements  recent placement decisions
    /proc/super/services      supervised services: state, policy, restarts
    /proc/super/admission     the admission controller's counters and queue
    /proc/<app-id>/status     one application's identity and accounting
    /proc/<app-id>/metrics    its slice of the metrics registry
    /proc/<app-id>/audit      its tail of the security audit log (JSONL)

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

    def _vmstat_text(self) -> str:
        telemetry = self.vm.telemetry
        metrics = telemetry.metrics
        audit = telemetry.audit
        lines = [
            f"apps.live\t{int(metrics.total('apps.live'))}",
            f"apps.launched\t{int(metrics.total('apps.launched'))}",
            f"apps.reaped\t{int(metrics.total('apps.reaped'))}",
            f"threads.live\t{int(metrics.total('app.threads.live'))}",
            f"threads.started\t{int(metrics.total('app.threads.started'))}",
            f"classload.defined\t"
            f"{int(metrics.total('classload.defined'))}",
            f"reload.classes\t{int(metrics.total('reload.classes'))}",
            f"reload.bytes\t{int(metrics.total('reload.bytes'))}",
            f"awt.events.dispatched\t"
            f"{int(metrics.total('awt.events.dispatched'))}",
            f"awt.dispatch.batched\t"
            f"{int(metrics.total('awt.dispatch.batched'))}",
            f"awt.repaint.coalesced\t"
            f"{int(metrics.total('awt.repaint.coalesced'))}",
            f"limits.rejected\t{int(metrics.total('limits.rejected'))}",
            f"dist.frames.sent\t{int(metrics.total('dist.frames.sent'))}",
            f"dist.frames.received\t"
            f"{int(metrics.total('dist.frames.received'))}",
            f"dist.frames.coalesced\t"
            f"{int(metrics.total('dist.frames.coalesced'))}",
            f"security.checks\t{audit.grants + audit.denies}",
            f"security.grants\t{audit.grants}",
            f"security.denies\t{audit.denies}",
            f"security.audit.dropped\t{audit.dropped}",
            f"security.cache.hits\t"
            f"{int(metrics.total('security.cache.hit'))}",
            f"security.cache.misses\t"
            f"{int(metrics.total('security.cache.miss'))}",
            f"security.cache.invalidations\t"
            f"{int(metrics.total('security.cache.invalidation'))}",
            f"security.cache.interned_domains\t"
            f"{self._interned_domain_count()}",
            f"security.auth.derive\t"
            f"{int(metrics.total('security.auth.derive'))}",
            f"security.auth.cache_hit\t"
            f"{int(metrics.total('security.auth.cache_hit'))}",
        ]
        ring = self._ring_snapshot()
        lines.extend([
            f"ipc.ring.wakeups\t{ring['wakeups']}",
            f"ipc.ring.suppressed_wakeups\t{ring['suppressed_wakeups']}",
            f"ipc.ring.zero_copy_bytes\t{ring['zero_copy_bytes']}",
        ])
        sched = self._sched_stats()
        lines.extend([
            f"sched.tasks.live\t{sched['live']}",
            f"sched.tasks.spawned\t{sched['spawned']}",
            f"sched.tasks.completed\t{sched['completed']}",
            f"sched.switches\t{sched['switches']}",
        ])
        if self.vm.cluster is not None:
            lines.extend([
                f"cluster.nodes.live\t"
                f"{int(metrics.total('cluster.nodes.live'))}",
                f"cluster.placements\t"
                f"{int(metrics.total('cluster.placements'))}",
                f"cluster.failovers\t"
                f"{int(metrics.total('cluster.failovers'))}",
            ])
        if self._has_super():
            lines.extend([
                f"super.restarts\t{int(metrics.total('super.restarts'))}",
                f"super.escalations\t"
                f"{int(metrics.total('super.escalations'))}",
                f"admission.admitted\t"
                f"{int(metrics.total('admission.admitted'))}",
                f"admission.rejected\t"
                f"{int(metrics.total('admission.rejected'))}",
            ])
        return "\n".join(lines) + "\n"

    def _interned_domain_count(self) -> int:
        counter = getattr(self.vm.policy, "interned_domain_count", None)
        return counter() if counter is not None else 0

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

    def _security_cache_text(self) -> str:
        """The epoch-invalidated permission cache, layer by layer."""
        metrics = self.vm.telemetry.metrics

        def total(name: str, **match) -> int:
            return int(metrics.total(name, **match))

        lines = [
            f"hits.policy\t{total('security.cache.hit', layer='policy')}",
            f"misses.policy\t"
            f"{total('security.cache.miss', layer='policy')}",
            f"hits.domain\t{total('security.cache.hit', layer='domain')}",
            f"misses.domain\t"
            f"{total('security.cache.miss', layer='domain')}",
            f"invalidations\t{total('security.cache.invalidation')}",
            f"interned_domains\t{self._interned_domain_count()}",
        ]
        epoch = getattr(self.vm.policy, "epoch", None)
        if epoch is not None:
            lines.append(f"policy_epoch\t{epoch}")
        return "\n".join(lines) + "\n"

    def _sched_stats(self) -> dict:
        scheduler = getattr(self.vm, "scheduler", None)
        if scheduler is None:
            return {"live": 0, "ready": 0, "timers": 0, "spawned": 0,
                    "completed": 0, "switches": 0, "timer_fires": 0,
                    "task_errors": 0, "running": False}
        return scheduler.stats()

    def _sched_text(self) -> str:
        """``/proc/sched``: the VM's event-loop scheduler, in numbers."""
        stats = self._sched_stats()
        lines = [
            f"running\t{1 if stats['running'] else 0}",
            f"tasks.live\t{stats['live']}",
            f"tasks.ready\t{stats['ready']}",
            f"tasks.timers\t{stats['timers']}",
            f"tasks.spawned\t{stats['spawned']}",
            f"tasks.completed\t{stats['completed']}",
            f"tasks.errors\t{stats['task_errors']}",
            f"switches\t{stats['switches']}",
            f"timer_fires\t{stats['timer_fires']}",
        ]
        return "\n".join(lines) + "\n"

    def _ring_snapshot(self) -> dict:
        from repro.io.streams import RING_STATS
        return RING_STATS.snapshot()

    def _ipc_ring_text(self) -> str:
        """The ring-pipe data plane in numbers.

        Totals are folded in when a pipe endpoint closes (the hot paths
        keep pipe-local counters), so a long-lived pipe's traffic shows
        up here once it is torn down.
        """
        ring = self._ring_snapshot()
        lines = [
            f"wakeups\t{ring['wakeups']}",
            f"suppressed_wakeups\t{ring['suppressed_wakeups']}",
            f"zero_copy_bytes\t{ring['zero_copy_bytes']}",
            f"copies\t{ring['copies']}",
        ]
        return "\n".join(lines) + "\n"

    def _dist_transport_text(self) -> str:
        """The transport fast path, in numbers: framing and the pool."""
        from repro.dist.pool import existing_pool
        metrics = self.vm.telemetry.metrics

        def total(name: str, **match) -> int:
            return int(metrics.total(name, **match))

        lines = [
            f"frames.sent\t{total('dist.frames.sent')}",
            f"frames.received\t{total('dist.frames.received')}",
            f"frames.sent.stdout\t{total('dist.frames.sent', type='o')}",
            f"frames.sent.stderr\t{total('dist.frames.sent', type='e')}",
            f"frames.coalesced\t{total('dist.frames.coalesced')}",
            f"bytes.sent\t{total('dist.bytes.sent')}",
            f"bytes.received\t{total('dist.bytes.received')}",
        ]
        pool = existing_pool(self.vm)
        stats = pool.stats() if pool is not None else {
            "hits": 0, "misses": 0, "evicted": 0, "released": 0, "idle": 0}
        lines.extend([
            f"pool.hits\t{stats['hits']}",
            f"pool.misses\t{stats['misses']}",
            f"pool.evicted\t{stats['evicted']}",
            f"pool.released\t{stats['released']}",
            f"pool.idle\t{stats['idle']}",
        ])
        if pool is not None:
            for endpoint, count in pool.idle_counts().items():
                lines.append(f"pool.idle.{endpoint}\t{count}")
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

    def _file_payload(self, rel: str) -> bytes:
        parts = self._split(rel)
        if parts == ["vmstat"]:
            return self._vmstat_text().encode("utf-8")
        if parts == ["sched"]:
            return self._sched_text().encode("utf-8")
        if parts == ["security", "cache"]:
            return self._security_cache_text().encode("utf-8")
        if parts and parts[0] == "security":
            raise VfsNotFound(f"/proc{rel}")
        if len(parts) == 2 and parts[0] == "policy" and parts[1].isdigit():
            application = self._application(int(parts[1]))
            self._gate(application, rel)
            return self._policy_text(application).encode("utf-8")
        if parts and parts[0] == "policy":
            raise VfsNotFound(f"/proc{rel}")
        if parts == ["dist", "transport"]:
            return self._dist_transport_text().encode("utf-8")
        if parts and parts[0] == "dist":
            raise VfsNotFound(f"/proc{rel}")
        if parts == ["ipc", "ring"]:
            return self._ipc_ring_text().encode("utf-8")
        if parts and parts[0] == "ipc":
            raise VfsNotFound(f"/proc{rel}")
        if parts and parts[0] == "super":
            if not self._has_super():
                raise VfsNotFound(f"/proc{rel}")
            if parts == ["super", "services"]:
                return self._super_services_text().encode("utf-8")
            if parts == ["super", "admission"]:
                return self._super_admission_text().encode("utf-8")
            raise VfsNotFound(f"/proc{rel}")
        if parts and parts[0] == "cluster":
            cluster = self.vm.cluster
            if cluster is None:
                raise VfsNotFound(f"/proc{rel}")
            if parts == ["cluster", "nodes"]:
                return cluster.render_nodes().encode("utf-8")
            if parts == ["cluster", "placements"]:
                return cluster.render_placements().encode("utf-8")
            raise VfsNotFound(f"/proc{rel}")
        if len(parts) == 2 and parts[0].isdigit():
            application = self._application(int(parts[0]))
            self._gate(application, rel)
            if parts[1] == "status":
                return self._status_text(application).encode("utf-8")
            if parts[1] == "metrics":
                return self._metrics_text(application).encode("utf-8")
            if parts[1] == "audit":
                return self._audit_text(application).encode("utf-8")
        raise VfsNotFound(f"/proc{rel}")

    # -- the provider protocol (stat / listdir / read) -------------------------

    def stat(self, rel: str, user) -> VfsStat:
        parts = self._split(rel)
        if not parts:
            return VfsStat(_ino(rel), "dir", 0o555, 0, 0, 0, 0, 1)
        if len(parts) == 1 and parts[0].isdigit():
            self._application(int(parts[0]))
            return VfsStat(_ino(rel), "dir", 0o555, 0, 0, 0, 0, 1)
        if parts == ["cluster"]:
            if self.vm.cluster is None:
                raise VfsNotFound(f"/proc{rel}")
            return VfsStat(_ino(rel), "dir", 0o555, 0, 0, 0, 0, 1)
        if parts == ["super"]:
            if not self._has_super():
                raise VfsNotFound(f"/proc{rel}")
            return VfsStat(_ino(rel), "dir", 0o555, 0, 0, 0, 0, 1)
        if parts == ["security"] or parts == ["dist"] \
                or parts == ["ipc"] or parts == ["policy"]:
            return VfsStat(_ino(rel), "dir", 0o555, 0, 0, 0, 0, 1)
        payload = self._file_payload(rel)
        return VfsStat(_ino(rel), "file", 0o444, 0, 0, len(payload), 0, 1)

    def listdir(self, rel: str, user) -> list[str]:
        parts = self._split(rel)
        if not parts:
            registry = self.vm.application_registry
            applications = registry.applications(check=False) \
                if registry is not None else []
            entries = sorted([str(a.app_id) for a in applications], key=int)
            if self.vm.cluster is not None:
                entries.append("cluster")
            entries.extend(["dist", "ipc", "policy", "sched", "security"])
            if self._has_super():
                entries.append("super")
            return entries + ["vmstat"]
        if parts == ["cluster"]:
            if self.vm.cluster is None:
                raise VfsNotFound(f"/proc{rel}")
            return ["nodes", "placements"]
        if parts == ["super"]:
            if not self._has_super():
                raise VfsNotFound(f"/proc{rel}")
            return ["admission", "services"]
        if parts == ["security"]:
            return ["cache"]
        if parts == ["dist"]:
            return ["transport"]
        if parts == ["ipc"]:
            return ["ring"]
        if parts == ["policy"]:
            registry = self.vm.application_registry
            applications = registry.applications(check=False) \
                if registry is not None else []
            return sorted([str(a.app_id) for a in applications], key=int)
        if len(parts) == 1 and parts[0].isdigit():
            application = self._application(int(parts[0]))
            self._gate(application, rel)
            return ["audit", "metrics", "status"]
        if len(parts) == 1:
            raise VfsNotFound(f"/proc{rel}")
        raise VfsNotADirectory(f"/proc{rel}")

    def read(self, rel: str, user) -> bytes:
        parts = self._split(rel)
        if not parts or (len(parts) == 1 and parts[0].isdigit()) \
                or parts == ["security"] or parts == ["dist"] \
                or parts == ["ipc"] or parts == ["policy"] \
                or (parts == ["cluster"] and self.vm.cluster is not None) \
                or (parts == ["super"] and self._has_super()):
            from repro.unixfs.vfs import VfsIsADirectory
            raise VfsIsADirectory(f"/proc{rel}")
        return self._file_payload(rel)
