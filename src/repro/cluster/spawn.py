"""The cluster spawn API: place, launch, relay — and re-place on death.

:class:`Cluster` is the controller-side object tying the subsystem
together: it owns the :class:`~repro.cluster.registry.NodeRegistry` and
:class:`~repro.cluster.scheduler.Scheduler`, runs the registry server on
its own VM, and enrols worker VMs (:meth:`Cluster.join` starts the rexec
daemon and the cluster agent over there).

A launch with ``Placement.cluster(...)`` is the paper's
``Application.exec`` lifted one level up: pick a node per policy, launch
through the existing ``dist`` protocol (credentials travel with the
request and are re-checked by the *target* VM's user database —
identity never travels, Section 5.2), and return a
:class:`ClusterApplication` that honours the local ``Application``
lifecycle surface (``wait_for``, ``destroy``, exit code, output relay).

Failover lives in the proxy, not the scheduler: ``wait_for`` uses the
registry as its failure detector.  While the remote side is silent it
waits in short slices and checks the target node's membership state
between slices; a node declared dead — or a transport loss, or a
suspicious kill-code during node death — triggers re-placement of the
launch on a surviving node (bounded by ``failover_attempts``).
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Optional

from repro.cluster.registry import (
    DEAD,
    DEFAULT_REGISTRY_PORT,
    AGENT_CLASS_NAME,
    SERVER_CLASS_NAME,
    NodeRegistry,
)
from repro.cluster.retry import retry_call
from repro.cluster.scheduler import PlacementError, Scheduler
from repro.core.application import KILLED_EXIT_CODE, ExitStatus
from repro.core.execspec import ExecSpec, launch
from repro.dist.client import RemoteApplication
from repro.jvm.errors import (
    IllegalStateException,
    NodeUnavailableException,
    RemoteException,
    UnknownHostException,
)
from repro.jvm.threads import JThread


class ClusterApplication:
    """A cluster launch: an ``Application``-shaped handle whose remote
    part may move between nodes.

    ``placements`` lists every node the launch ran on, in order; a length
    greater than one means failover happened.
    """

    def __init__(self, cluster: "Cluster", ctx, class_name: str,
                 args: Optional[list[str]], user: str, password: str,
                 policy: str, untrusted: bool, stdout, stderr,
                 limits=None, record: bool = False,
                 phase: Optional[str] = None):
        self._cluster = cluster
        self._ctx = ctx
        self.class_name = class_name
        self.args = list(args or [])
        self._user = user
        self._password = password
        self.policy = policy
        self.untrusted = untrusted
        self._stdout = stdout
        self._stderr = stderr
        #: ResourceLimits shipped with every (re)placement and enforced
        #: by the target VM — the fix for limits silently dropping on
        #: the cluster path.
        self.limits = limits
        #: Learning mode / launch-phase override, shipped with every
        #: (re)placement just like limits.
        self.record = record
        self.phase = phase
        #: Node names this launch has been placed on, in order.
        self.placements: list[str] = []
        self._past_output: list[str] = []
        self._destroy_requested = False
        self._completed = False
        self._in_failover = False
        self._remote: Optional[RemoteApplication] = None
        # Failover can be triggered by a waiter's slice loop AND by the
        # registry's death callback; the lock (plus the incarnation check
        # in _failover_from) makes sure exactly one of them relaunches.
        self._lock = threading.RLock()
        self._launch()

    # -- placement + launch ---------------------------------------------------

    def _launch(self) -> None:
        """Place and connect, trying further nodes while targets are dead.

        Placement itself retries with backoff (a "queued" launch waiting
        for the pool to gain a node); a placed-but-unreachable node is
        marked dead and excluded, then placement runs again.
        """
        cluster = self._cluster
        last_error: Optional[Exception] = None
        for _ in range(max(1, cluster.failover_attempts)):
            try:
                node = retry_call(
                    lambda: cluster.scheduler.place(
                        self.class_name, policy=self.policy,
                        untrusted=self.untrusted, user=self._user),
                    retry_on=PlacementError,
                    attempts=cluster.placement_attempts,
                    initial=cluster.placement_backoff,
                    maximum=cluster.placement_backoff * 4)
            except PlacementError:
                raise
            try:
                with cluster.mvm.host_session("cluster-spawn"):
                    self._remote = RemoteApplication(
                        self._ctx, node.name, node.port, self._user,
                        self._password, self.class_name, self.args,
                        stdout=self._stdout, stderr=self._stderr,
                        limits=self.limits, record=self.record,
                        phase=self.phase)
                self.placements.append(node.name)
                return
            except NodeUnavailableException as exc:
                # The registry believed in this node but the fabric does
                # not: declare it dead and let placement try the rest.
                last_error = exc
                cluster.registry.mark_dead(node.name, reason=str(exc))
                cluster.metrics.counter("cluster.failovers").inc()
        raise NodeUnavailableException(
            f"no node could run {self.class_name} "
            f"(tried {self.placements or 'none'}): {last_error}")

    def _failover_from(self, remote: RemoteApplication,
                       mark_dead_reason: Optional[str] = None) -> bool:
        """Re-place the launch iff ``remote`` is still the live incarnation.

        Every failover trigger — a waiter's slice loop, the transport-lost
        path, the registry's death callback — funnels through here, so a
        race between them relaunches exactly once: the loser sees a newer
        ``self._remote`` (or the in-progress flag, since ``mark_dead``
        fires the death callbacks synchronously on this very thread) and
        backs off.
        """
        with self._lock:
            if (self._remote is not remote or self._destroy_requested
                    or self._completed or self._in_failover):
                return False
            self._in_failover = True
            try:
                if mark_dead_reason is not None:
                    self._cluster.registry.mark_dead(
                        self.node, reason=mark_dead_reason)
                self._past_output.append(remote.output_text())
                remote.close()
                self._cluster.metrics.counter("cluster.failovers").inc()
                self._launch()
            finally:
                self._in_failover = False
            return True

    def _on_node_dead(self, node_name: str) -> None:
        """Registry death callback: our node is gone — move, proactively.

        Runs even when nobody is blocked in ``wait_for``, so a fire-and-
        forget launch still migrates off a dead node.
        """
        remote = self._remote
        if remote is None or self.node != node_name:
            return
        if (remote.terminated and not remote.transport_lost
                and remote.error is None
                and remote.exit_code is not None
                and remote.exit_code != KILLED_EXIT_CODE):
            return  # finished for real before the node died
        self._failover_from(remote)

    def _node_looks_dead(self, node_name: str) -> bool:
        node = self._cluster.registry.find(node_name)
        return node is None or node.state == DEAD

    def _node_dies_within(self, node_name: str, grace: float) -> bool:
        """Poll the registry briefly: did that node leave the living?"""
        deadline = time.monotonic() + grace
        while True:
            if self._node_looks_dead(node_name):
                return True
            if time.monotonic() >= deadline:
                return False
            JThread.sleep(0.05)

    # -- the Application lifecycle surface ------------------------------------

    @property
    def node(self) -> Optional[str]:
        """Where the launch currently runs (the last placement)."""
        return self.placements[-1] if self.placements else None

    def wait_for(self, timeout: Optional[float] = None) -> Optional[int]:
        """Wait out the launch wherever it ends up running.

        Returns the exit code, or None on timeout.  Transport loss and
        node death re-place the launch transparently (the clock keeps
        running across failovers); genuine remote errors — bad
        credentials, unknown class — raise :class:`RemoteException` as
        the plain ``dist`` client does.
        """
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        while True:
            remaining = None if deadline is None \
                else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                return None
            wait_slice = 0.2 if remaining is None \
                else min(0.2, max(remaining, 0.01))
            remote = self._remote
            node_name = self.node
            try:
                code = remote.wait_for(wait_slice)
            except RemoteException:
                if remote.transport_lost and not self._destroy_requested:
                    # The connection died under us — the dist layer's
                    # typed signal that the node (not the request) failed.
                    self._failover_from(remote,
                                        mark_dead_reason="transport lost")
                    continue
                raise
            if self._remote is not remote:
                continue  # the death callback moved us mid-slice
            if code is not None:
                if (code == KILLED_EXIT_CODE
                        and not self._destroy_requested
                        and self._node_dies_within(
                            node_name, self._cluster.failover_grace)):
                    # A dying worker VM destroys its applications on the
                    # way down, so the daemon reports "killed" just before
                    # the heartbeats stop.  Nobody here asked for a kill:
                    # treat it as node death, not a result.
                    self._failover_from(remote)
                    continue
                if self._remote is remote:
                    self._completed = True
                    return code
                continue
            # Slice elapsed with the remote silent: consult the failure
            # detector before waiting more.
            if self._node_looks_dead(node_name) \
                    and not self._destroy_requested:
                self._failover_from(remote)

    def wait(self, timeout: Optional[float] = None) -> Optional[ExitStatus]:
        """Typed wait: exit code, cause, and the failover count.

        ``restarts`` counts re-placements (the cluster's analogue of a
        supervisor respawn); an
        :class:`~repro.super.admission.AdmissionRejected` from the
        target VM propagates typed — a saturated node is alive, so it
        never triggers failover.
        """
        code = self.wait_for(timeout)
        if code is None:
            return None
        cause = "killed" if code == KILLED_EXIT_CODE else None
        return ExitStatus(code=code, signal_like_cause=cause,
                          restarts=max(0, len(self.placements) - 1))

    def destroy(self) -> None:
        """Ask the current node to destroy the application."""
        self._destroy_requested = True
        if self._remote is not None:
            self._remote.destroy()

    @property
    def terminated(self) -> bool:
        return self._remote is not None and self._remote.terminated

    @property
    def exit_code(self) -> Optional[int]:
        return self._remote.exit_code if self._remote is not None else None

    def output_text(self) -> str:
        """Everything the launch wrote, across all placements."""
        current = self._remote.output_text() if self._remote else ""
        return "".join(self._past_output) + current

    def close(self) -> None:
        self._completed = True  # a closed handle never fails over
        self._cluster._active.discard(self)
        if self._remote is not None:
            self._remote.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ClusterApplication({self.class_name!r}, "
                f"node={self.node!r}, placements={len(self.placements)})")


class Cluster:
    """N VMs, one pool.  The controller-side face of the subsystem.

    The controller VM runs the registry server; each worker VM (booted on
    the *same* :class:`~repro.net.fabric.NetworkFabric`) is enrolled with
    :meth:`join`, which starts the rexec daemon and the heartbeat agent
    over there.  After that, a launch with ``Placement.cluster()``
    places work anywhere.
    """

    def __init__(self, mvm, registry_port: int = DEFAULT_REGISTRY_PORT,
                 suspect_after: float = 1.5, dead_after: float = 3.0,
                 failover_attempts: int = 3, failover_grace: float = 1.0,
                 placement_attempts: int = 4,
                 placement_backoff: float = 0.1, clock=None):
        self.mvm = mvm
        self.vm = mvm.vm
        self.metrics = self.vm.telemetry.metrics
        self.registry_port = registry_port
        self.registry = NodeRegistry(metrics=self.metrics,
                                     suspect_after=suspect_after,
                                     dead_after=dead_after, clock=clock)
        self.scheduler = Scheduler(self.registry, metrics=self.metrics)
        self.failover_attempts = failover_attempts
        self.failover_grace = failover_grace
        self.placement_attempts = placement_attempts
        self.placement_backoff = placement_backoff
        self._server_app = None
        self._workers: list = []
        #: Launch handles eligible for proactive re-placement.
        self._active: "weakref.WeakSet[ClusterApplication]" = \
            weakref.WeakSet()
        self.registry.on_node_dead.append(self._invalidate_pooled_channels)
        self.registry.on_node_dead.append(self._replace_orphans)
        self.vm.cluster = self

    def _invalidate_pooled_channels(self, node) -> None:
        """Death callback: drop idle pooled channels to the dead node.

        Runs before the re-placement callback so a failover launch never
        draws a parked connection to the very node that just died.
        """
        from repro.dist.pool import existing_pool
        pool = existing_pool(self.vm)
        if pool is not None:
            pool.invalidate(node.name)

    def _replace_orphans(self, node) -> None:
        """Death callback: move every launch stranded on ``node``.

        Relaunching involves placement backoff and socket work, so each
        orphan moves on its own (plain host) thread — the failure
        detector's sweep must never block behind a relaunch.
        """
        for application in list(self._active):
            if application.node == node.name:
                threading.Thread(
                    target=application._on_node_dead, args=(node.name,),
                    name=f"cluster-failover-{node.name}",
                    daemon=True).start()

    # -- membership -----------------------------------------------------------

    def start(self, sweep_interval: float = 0.2) -> "Cluster":
        """Run the registry server on the controller VM."""
        if self._server_app is not None:
            return self
        self._server_app = launch(
            ExecSpec(SERVER_CLASS_NAME,
                     (str(self.registry_port), str(sweep_interval))),
            vm=self.vm, parent=self.mvm.initial)
        self._await_listener(self.vm.machine.hostname, self.registry_port)
        return self

    def join(self, worker_mvm, rexec_port: int = 7100,
             playground: bool = False, interval: float = 0.3,
             timeout: float = 5.0) -> None:
        """Enrol a worker VM: rexec daemon + heartbeat agent.

        The worker must share the controller's network fabric (boot it
        with ``network=controller_fabric``).
        """
        if self._server_app is None:
            raise IllegalStateException(
                "start() the cluster before join()ing workers")
        hostname = worker_mvm.vm.machine.hostname
        daemon = launch(
            ExecSpec("dist.RexecDaemon", (str(rexec_port),)),
            vm=worker_mvm.vm, parent=worker_mvm.initial)
        self._await_listener(hostname, rexec_port, timeout=timeout)
        agent_args = [self.vm.machine.hostname,
                      "-P", str(self.registry_port),
                      "-r", str(rexec_port), "-i", str(interval)]
        if playground:
            agent_args.append("--playground")
        agent = launch(
            ExecSpec(AGENT_CLASS_NAME, tuple(agent_args)),
            vm=worker_mvm.vm, parent=worker_mvm.initial)
        self._workers.append((worker_mvm, daemon, agent))
        from repro.sched.timers import poll_until
        if not poll_until(lambda: self.registry.find(hostname) is not None,
                          timeout=timeout):
            raise IllegalStateException(
                f"worker {hostname} never registered")

    def _await_listener(self, host: str, port: int,
                        timeout: float = 5.0) -> None:
        fabric = self.vm.network

        def ready() -> bool:
            try:
                return fabric.resolve(host)._listener(port) is not None
            except UnknownHostException:
                return False

        from repro.sched.timers import poll_until
        if not poll_until(ready, timeout=timeout):
            raise IllegalStateException(f"no listener on {host}:{port}")

    # -- spawning -------------------------------------------------------------

    def _exec_spec(self, spec: ExecSpec, ctx=None) -> ClusterApplication:
        """The cluster launch choke point ``launch()`` routes through.

        ``spec.user``/``spec.password`` are re-authenticated by the
        target VM — credentials travel, identity does not (Section 5.2).
        ``Placement.cluster(untrusted=True)`` confines the launch to
        playground nodes.
        """
        context = ctx if ctx is not None else self.mvm.initial.context()
        placement = spec.placement
        application = ClusterApplication(
            self, context, spec.class_name, list(spec.args),
            spec.user_name(), spec.password, placement.policy,
            placement.untrusted, spec.stdout, spec.stderr,
            limits=spec.limits, record=spec.record_policy,
            phase=spec.phase)
        self._active.add(application)
        return application

    # -- introspection (procfs and the coreutil read these) -------------------

    def render_nodes(self) -> str:
        lines = ["NODE\tSTATE\tPORT\tROLE\tBEATS\tAPPS\tAWT"]
        for node in self.registry.nodes():
            lines.append("\t".join([
                node.name, node.state, str(node.port),
                "playground" if node.playground else "worker",
                str(node.beats), str(node.load.get("apps", "-")),
                str(node.load.get("awt", "-"))]))
        return "\n".join(lines) + "\n"

    def render_placements(self) -> str:
        lines = ["SEQ\tCLASS\tPOLICY\tNODE\tUSER"]
        for entry in self.scheduler.placements():
            lines.append("\t".join([
                str(entry["seq"]), entry["class"], entry["policy"],
                entry["node"], entry["user"]]))
        return "\n".join(lines) + "\n"

    def shutdown_worker(self, worker_mvm) -> None:
        """Shut a worker VM down (the demo's node-kill switch)."""
        for index, (mvm, _daemon, _agent) in enumerate(self._workers):
            if mvm is worker_mvm:
                del self._workers[index]
                break
        worker_mvm.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        counts = self.registry.counts()
        return (f"Cluster(port={self.registry_port}, live={counts['live']}, "
                f"suspect={counts['suspect']}, dead={counts['dead']})")
