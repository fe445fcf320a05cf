"""Cluster membership: the node registry, its agent, and the server.

Section 8 of the paper imagines "an application as a set of threads ...
extended to include threads of other JVM's, possibly on other hosts"; the
``dist`` package reproduces one hop of that.  This module turns N such
JVMs into a *pool* with observable membership:

* :class:`NodeRegistry` — the controller-side table of worker nodes.  A
  node is ``live`` while its heartbeats arrive, ``suspect`` after
  ``suspect_after`` seconds of silence, and ``dead`` after ``dead_after``
  (at which point ``on_node_dead`` callbacks fire, which is what drives
  re-placement of launches in :mod:`repro.cluster.spawn`).  The clock is
  injectable so membership tests are deterministic.
* ``cluster.ClusterAgent`` — an ordinary application run on every worker
  VM.  It connects to the registry over :mod:`repro.net.fabric`, sends a
  ``reg`` frame, then ``hb`` heartbeats (both JSON frames of
  :mod:`repro.dist.protocol`) carrying live load gauges from the
  worker's own :class:`~repro.telemetry.TelemetryHub` (``apps.live`` and
  AWT queue depth) plus the class material its host publishes (feeding
  the locality placement policy).
* ``cluster.RegistryServer`` — the controller-side application that
  accepts agent connections and feeds their frames into the registry.

The credential model is unchanged from Section 5.2: the registry tracks
*where* work can run; identity still never travels — every spawn
has its credentials verified by the target VM's own user database.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.cluster.retry import retry_call
from repro.dist.pool import pool_for
from repro.dist.protocol import FrameChannel
from repro.jvm.classloading import ClassMaterial
from repro.jvm.errors import (
    IOException,
    SocketException,
    UnknownHostException,
)
from repro.jvm.threads import JThread, checkpoint
from repro.net.sockets import ServerSocket
from repro.security import access
from repro.security.codesource import CodeSource

#: Node states, in order of decay.
LIVE = "live"
SUSPECT = "suspect"
DEAD = "dead"

#: Default registry port (inside the 7000-7999 cluster port range).
DEFAULT_REGISTRY_PORT = 7210

AGENT_CLASS_NAME = "cluster.ClusterAgent"
AGENT_CODE_SOURCE = CodeSource(
    "file:/usr/local/java/tools/clusterd/ClusterAgent.class")

SERVER_CLASS_NAME = "cluster.RegistryServer"
SERVER_CODE_SOURCE = CodeSource(
    "file:/usr/local/java/tools/clusterd/RegistryServer.class")


class NodeInfo:
    """One worker VM as the controller sees it."""

    def __init__(self, name: str, port: int, playground: bool,
                 registered_at: float):
        self.name = name
        self.port = port
        self.playground = playground
        self.state = LIVE
        self.registered_at = registered_at
        self.last_beat = registered_at
        self.beats = 0
        #: Last reported load gauges (``apps``, ``awt``), from the worker's
        #: own telemetry hub.
        self.load: dict = {}
        #: Class names the worker's host publishes (locality policy input).
        self.classes: set[str] = set()

    def load_score(self) -> int:
        """The least-loaded ordering key: live apps + AWT queue depth."""
        return int(self.load.get("apps", 0)) + int(self.load.get("awt", 0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        role = "playground" if self.playground else "worker"
        return (f"NodeInfo({self.name!r}, {self.state}, port={self.port}, "
                f"{role}, beats={self.beats})")


class NodeRegistry:
    """The controller's membership table and failure detector.

    Pure bookkeeping — no threads of its own.  The registry server drives
    :meth:`sweep` periodically; tests drive it directly with an injected
    clock.  All telemetry lands in the supplied metrics registry
    (``cluster.nodes.live``, ``cluster.heartbeats``, and the
    ``cluster.heartbeat.latency`` inter-beat histogram).
    """

    def __init__(self, metrics=None, suspect_after: float = 1.5,
                 dead_after: float = 3.0,
                 clock: Optional[Callable[[], float]] = None):
        if metrics is None:
            from repro.telemetry import GLOBAL_HUB
            metrics = GLOBAL_HUB.metrics
        self.metrics = metrics
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self._clock = clock if clock is not None else time.monotonic
        self._nodes: dict[str, NodeInfo] = {}
        self._lock = threading.RLock()
        #: Fired (outside the lock) with the NodeInfo each time a node
        #: transitions to dead — the spawn layer's re-placement trigger.
        self.on_node_dead: list[Callable[[NodeInfo], None]] = []

    # -- writes (registration and heartbeats) ---------------------------------

    def register(self, name: str, port: int = 7100,
                 playground: bool = False, load: Optional[dict] = None,
                 classes=None) -> NodeInfo:
        """Add (or revive) a node.  Re-registration resets it to live."""
        now = self._clock()
        with self._lock:
            node = self._nodes.get(name)
            if node is None:
                node = NodeInfo(name, port, playground, now)
                self._nodes[name] = node
            node.port = port
            node.playground = playground
            node.state = LIVE
            node.last_beat = now
            if load:
                node.load.update(load)
            if classes is not None:
                node.classes = set(classes)
        self.metrics.counter("cluster.registrations").inc()
        self._update_gauges()
        return node

    def heartbeat(self, name: str, load: Optional[dict] = None,
                  classes=None) -> bool:
        """Record one beat; returns False for unknown or dead nodes
        (the agent should re-register)."""
        now = self._clock()
        with self._lock:
            node = self._nodes.get(name)
            if node is None or node.state == DEAD:
                return False
            gap = now - node.last_beat
            node.last_beat = now
            node.beats += 1
            if load:
                node.load.update(load)
            if classes is not None:
                node.classes = set(classes)
            revived = node.state == SUSPECT
            if revived:
                node.state = LIVE
        self.metrics.counter("cluster.heartbeats").inc()
        self.metrics.histogram("cluster.heartbeat.latency").observe(gap)
        if revived:
            self._update_gauges()
        return True

    # -- the failure detector -------------------------------------------------

    def sweep(self, now: Optional[float] = None) -> list[NodeInfo]:
        """Age every node; returns the nodes that just died."""
        now = now if now is not None else self._clock()
        newly_dead: list[NodeInfo] = []
        changed = False
        with self._lock:
            for node in self._nodes.values():
                if node.state == DEAD:
                    continue
                silence = now - node.last_beat
                if silence > self.dead_after:
                    node.state = DEAD
                    newly_dead.append(node)
                    changed = True
                elif silence > self.suspect_after:
                    if node.state != SUSPECT:
                        node.state = SUSPECT
                        changed = True
        if changed:
            self._update_gauges()
        for node in newly_dead:
            self._node_died(node)
        return newly_dead

    def mark_dead(self, name: str, reason: str = "") -> None:
        """Declare a node dead out-of-band (a failed spawn connect)."""
        with self._lock:
            node = self._nodes.get(name)
            if node is None or node.state == DEAD:
                return
            node.state = DEAD
        self._update_gauges()
        self._node_died(node, reason)

    def _node_died(self, node: NodeInfo, reason: str = "") -> None:
        self.metrics.counter("cluster.node.deaths").inc()
        for callback in list(self.on_node_dead):
            try:
                callback(node)
            except Exception:  # noqa: BLE001 - detector survives callbacks
                pass

    # -- reads ----------------------------------------------------------------

    def find(self, name: str) -> Optional[NodeInfo]:
        with self._lock:
            return self._nodes.get(name)

    def nodes(self) -> list[NodeInfo]:
        with self._lock:
            return sorted(self._nodes.values(), key=lambda n: n.name)

    def live_nodes(self) -> list[NodeInfo]:
        with self._lock:
            return sorted((n for n in self._nodes.values()
                           if n.state == LIVE), key=lambda n: n.name)

    def counts(self) -> dict[str, int]:
        with self._lock:
            totals = {LIVE: 0, SUSPECT: 0, DEAD: 0}
            for node in self._nodes.values():
                totals[node.state] += 1
            return totals

    def _update_gauges(self) -> None:
        with self._lock:
            live = sum(1 for n in self._nodes.values() if n.state == LIVE)
            known = len(self._nodes)
        self.metrics.gauge("cluster.nodes.live").set(live)
        self.metrics.gauge("cluster.nodes.known").set(known)

    def __len__(self) -> int:
        with self._lock:
            return len(self._nodes)


# --------------------------------------------------------------------------
# cluster.ClusterAgent — runs on every worker VM
# --------------------------------------------------------------------------

def build_agent_material() -> ClassMaterial:
    material = ClassMaterial(
        AGENT_CLASS_NAME, code_source=AGENT_CODE_SOURCE,
        doc="Cluster membership agent: registers this VM with the "
            "controller and heartbeats its load gauges.")

    @material.member
    def main(jclass, ctx, args):
        if not args:
            ctx.stderr.println(
                "usage: clusteragent registry-host [-P registry-port] "
                "[-r rexec-port] [-i interval] [--playground]")
            return 2
        registry_host = args[0]
        registry_port = DEFAULT_REGISTRY_PORT
        rexec_port = 7100
        interval = 0.5
        playground = False
        rest = list(args[1:])
        while rest:
            flag = rest.pop(0)
            if flag == "-P" and rest:
                registry_port = int(rest.pop(0))
            elif flag == "-r" and rest:
                rexec_port = int(rest.pop(0))
            elif flag == "-i" and rest:
                interval = float(rest.pop(0))
            elif flag == "--playground":
                playground = True
            else:
                ctx.stderr.println(f"clusteragent: unknown option {flag}")
                return 2

        hostname = ctx.vm.machine.hostname
        metrics = ctx.vm.telemetry.metrics

        def load_report() -> dict:
            return {"apps": int(metrics.total("apps.live")),
                    "awt": int(metrics.total("awt.queue.depth"))}

        def published() -> list[str]:
            try:
                return ctx.vm.network.resolve(hostname).published_names()
            except UnknownHostException:
                return []

        pool = pool_for(ctx.vm)

        def connect_and_register():
            # The agent asserts its own connect grant (checked on pool
            # hits too); registration waits out a controller that is
            # still booting (bounded backoff).  Heartbeats ride the
            # VM-wide channel pool, so a reconnecting agent reuses a
            # parked registry connection instead of redialling.
            pooled = retry_call(
                lambda: access.do_privileged(
                    lambda: pool.acquire(ctx, registry_host,
                                         registry_port)),
                retry_on=(SocketException, UnknownHostException),
                attempts=6, initial=0.05, maximum=0.5)
            try:
                pooled.channel.send({
                    "t": "reg", "node": hostname, "port": rexec_port,
                    "playground": playground, "load": load_report(),
                    "classes": published()})
            except IOException as exc:
                pooled.close()
                raise SocketException(f"registration failed: {exc}")
            return pooled

        try:
            pooled = connect_and_register()
        except (SocketException, UnknownHostException) as exc:
            ctx.stderr.println(f"clusteragent: cannot reach registry: {exc}")
            return 1
        ctx.stdout.println(
            f"clusteragent: {hostname} joined {registry_host}:"
            f"{registry_port} (rexec {rexec_port}"
            f"{', playground' if playground else ''})")
        seq = 0
        try:
            while True:
                checkpoint()
                JThread.sleep(interval)
                seq += 1
                frame = {"t": "hb", "node": hostname, "seq": seq,
                         "load": load_report(), "classes": published()}
                try:
                    pooled.channel.send(frame)
                except IOException:
                    # Registry connection lost: drop every pooled channel
                    # to the registry, then try one reconnect round (same
                    # bounded backoff), else report and exit — the sweep
                    # will declare this node dead.
                    pooled.close()
                    pool.invalidate(registry_host, registry_port)
                    try:
                        pooled = connect_and_register()
                    except (SocketException, UnknownHostException) as exc:
                        ctx.stderr.println(
                            f"clusteragent: registry lost: {exc}")
                        return 1
        finally:
            pooled.release()

    return material


# --------------------------------------------------------------------------
# cluster.RegistryServer — runs on the controller VM
# --------------------------------------------------------------------------

def build_server_material() -> ClassMaterial:
    material = ClassMaterial(
        SERVER_CLASS_NAME, code_source=SERVER_CODE_SOURCE,
        doc="Cluster registry server: accepts agent heartbeats and drives "
            "the membership sweep.")

    @material.member
    def main(jclass, ctx, args):
        port = int(args[0]) if args else DEFAULT_REGISTRY_PORT
        sweep_interval = float(args[1]) if len(args) > 1 else 0.2
        cluster = ctx.vm.cluster
        if cluster is None:
            ctx.stderr.println("clusterd: no cluster attached to this VM")
            return 1
        registry = cluster.registry
        server = access.do_privileged(lambda: ServerSocket(ctx, port))
        ctx.stdout.println(f"clusterd: registry listening on port {port}")

        def sweeper() -> None:
            while True:
                JThread.sleep(sweep_interval)
                registry.sweep()

        JThread(target=sweeper, name="cluster-sweeper",
                daemon=True).start()

        def serve(socket) -> None:
            # A FrameChannel per agent connection: bulk buffered reads
            # (one pipe lock per chunk of heartbeats, not per byte).
            channel = FrameChannel(socket.input, socket.output)
            try:
                while True:
                    frame = channel.recv()
                    if frame is None:
                        return
                    kind = frame.get("t")
                    node = str(frame.get("node", ""))
                    if kind == "reg" and node:
                        registry.register(
                            node, port=int(frame.get("port", 7100)),
                            playground=bool(frame.get("playground")),
                            load=frame.get("load"),
                            classes=frame.get("classes"))
                    elif kind == "hb" and node:
                        registry.heartbeat(node, load=frame.get("load"),
                                           classes=frame.get("classes"))
            except IOException:
                pass  # a dropped agent is the sweep's business, not ours
            finally:
                socket.close()

        try:
            while True:
                checkpoint()
                try:
                    socket = server.accept(timeout=0.2)
                except SocketException:
                    continue  # accept timeout: poll the stop flag
                JThread(target=lambda s=socket: serve(s),
                        name="cluster-reg-conn", daemon=True).start()
        finally:
            server.close()

    return material
