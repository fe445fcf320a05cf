"""Client side of distributed applications (Section 8, future work).

``launch(ExecSpec(..., placement=Placement.remote(host, port)))`` starts a
class on *another JVM* (over the simulated network) and returns a
:class:`RemoteApplication` that behaves like a local
:class:`~repro.core.application.Application` handle: ``wait_for``,
``destroy``, captured output, an exit code.

:class:`DistributedApplication` is the paper's extended application notion
made concrete — "a set of threads" that spans JVMs: one local application
plus any number of remote parts, with collective wait and destroy.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.dist import protocol
from repro.dist.pool import PooledChannel, pool_for
from repro.jvm.errors import (
    ConnectException,
    IOException,
    NodeUnavailableException,
    RemoteException,
    StreamClosedException,
    UnknownHostException,
)
from repro.jvm.threads import JThread
from repro.sched.timers import wait_until
from repro.super.admission import AdmissionRejected


class RemoteApplication:
    """A handle on an application running in another JVM.

    The connection comes from the VM's ``(host, port)``-keyed channel
    pool and returns to it after the exit (or ``err``) frame.
    """

    def __init__(self, ctx, host: str, port: int, user: str, password: str,
                 class_name: str, args: Optional[list[str]] = None,
                 stdout=None, stderr=None, limits=None,
                 record: bool = False, phase: Optional[str] = None):
        self.host = host
        self.port = port
        self.class_name = class_name
        self._stdout = stdout
        self._stderr = stderr
        self._cond = threading.Condition()
        self.exit_code: Optional[int] = None
        self.error: Optional[str] = None
        #: Machine-readable error class from a typed ``err`` frame (e.g.
        #: ``"admission"`` when the target VM shed the launch).
        self.error_kind: Optional[str] = None
        self._finished = False
        self._started_monotonic = time.monotonic()
        self._ended_monotonic: Optional[float] = None
        #: True when the handle ended because the transport died (connection
        #: lost, stream error) rather than a remote launch/auth error — the
        #: cluster failover trigger.
        self.transport_lost = False
        self._output_chunks: list[bytes] = []
        self._pool = pool_for(ctx.vm)
        self._released = False
        self._closed = False
        request = {"user": user, "password": password,
                   "class_name": class_name, "args": list(args or [])}
        # ResourceLimits travel with the request (and are enforced by
        # the target VM).
        wire_limits = protocol.limits_to_wire(limits)
        if wire_limits is not None:
            request["limits"] = wire_limits
        # Policy learning mode and a launch-phase override travel the
        # same way as limits: optional keys.
        if record:
            request["record"] = True
        if phase is not None:
            request["phase"] = phase
        # SM checkConnect applies here — on pool hits too: reaching out
        # over the network is a policy decision of *this* VM.  An
        # unreachable host is a typed NodeUnavailableException so
        # schedulers can tell "dead node" from "protocol error" (a
        # SecurityException still propagates as itself).
        try:
            self._conn = self._open_and_send(ctx, request)
        except (UnknownHostException, ConnectException) as exc:
            raise NodeUnavailableException(
                f"{host}:{port} unavailable: {exc}") from exc
        self._channel = self._conn.channel
        self._reader = JThread(target=self._read_loop,
                               name=f"rexec-client-{class_name}",
                               daemon=True)
        self._reader.start()

    def _open_and_send(self, ctx, request: dict) -> PooledChannel:
        """Acquire a pooled channel and ship the request frame.

        A pooled channel whose daemon hung up since it was parked raises
        on the send — that one retries once on a guaranteed-fresh
        connection, preserving fresh-connect failure semantics.
        """
        conn = self._pool.acquire(ctx, self.host, self.port)
        try:
            conn.channel.send(request)
        except StreamClosedException:
            stale_was_reused = conn.reused
            conn.close()
            if not stale_was_reused:
                raise
            conn = self._pool.acquire(ctx, self.host, self.port, fresh=True)
            conn.channel.send(request)
        return conn

    def _read_loop(self) -> None:
        try:
            while True:
                frame = self._channel.recv()
                if frame is None:
                    self._finish(None, "connection lost", transport=True)
                    return
                kind = frame.get("t")
                if kind == "o":
                    self._on_output(frame.get("d", b""), self._stdout)
                elif kind == "e":
                    self._on_output(frame.get("d", b""), self._stderr)
                elif kind == "x":
                    self._finish(int(frame.get("code", -1)), None)
                    return
                elif kind == "err":
                    self._finish(None, str(frame.get("msg", "error")),
                                 error_kind=frame.get("kind"))
                    return
        except IOException as exc:
            self._finish(None, str(exc), transport=True)

    def _on_output(self, data, sink) -> None:
        # Data frames carry raw bytes; a JSON-tagged data frame carries text.
        chunk = data.encode("utf-8") if isinstance(data, str) else bytes(data)
        with self._cond:
            self._output_chunks.append(chunk)
        if sink is not None:
            sink.write(chunk)

    def _finish(self, code: Optional[int], error: Optional[str],
                transport: bool = False,
                error_kind: Optional[str] = None) -> None:
        # Settle the channel before waking waiters: a caller returning
        # from wait_for() must find it parked in (or purged from) the
        # pool, or its next launch dials afresh.
        if transport:
            # The node (not the request) failed: drop every idle pooled
            # channel to it so retries never dial the corpse again.
            self._pool.invalidate(self.host, self.port)
            self.close()
        else:
            self._park_connection()
        with self._cond:
            self.exit_code = code
            self.error = error
            self.error_kind = error_kind
            self.transport_lost = transport
            self._finished = True
            self._ended_monotonic = time.monotonic()
            self._cond.notify_all()

    def _park_connection(self) -> None:
        """After a clean exit, return the connection to the pool."""
        with self._cond:
            if self._released or self._closed:
                return
            self._released = True
        self._conn.release()

    # -- the Application-like surface ------------------------------------------

    def wait_for(self, timeout: Optional[float] = None) -> Optional[int]:
        """Block until the remote application ends; returns its exit code.

        Raises :class:`RemoteException` if the remote side reported a
        launch or authentication error, or a typed
        :class:`~repro.super.admission.AdmissionRejected` when the
        target VM shed the launch at admission — backpressure survives
        the network.

        Soft-deprecated in favour of :meth:`wait` (typed result).
        """
        with self._cond:
            done = wait_until(self._cond,
                              lambda: self._finished,
                              timeout=timeout)
            if not done:
                return None
            if self.error is not None:
                if self.error_kind == "admission":
                    raise AdmissionRejected(self.error, reason="remote")
                raise RemoteException(self.error)
            return self.exit_code

    def wait(self, timeout: Optional[float] = None):
        """Block like :meth:`wait_for` but return a typed ``ExitStatus``."""
        code = self.wait_for(timeout)
        if code is None:
            return None
        from repro.core.application import KILLED_EXIT_CODE, ExitStatus
        with self._cond:
            ended = self._ended_monotonic
            duration = (ended - self._started_monotonic) \
                if ended is not None else 0.0
        cause = "killed" if code == KILLED_EXIT_CODE else None
        return ExitStatus(code=code, signal_like_cause=cause,
                          duration=duration)

    def destroy(self) -> None:
        """Ask the remote JVM to destroy the remote application."""
        with self._cond:
            if self._released or self._closed:
                return  # already finished; the channel belongs to the pool
        try:
            self._channel.send({"t": "kill"})
        except IOException:
            pass

    @property
    def terminated(self) -> bool:
        with self._cond:
            return self._finished

    def output_bytes(self) -> bytes:
        """Everything the remote application wrote, byte-exact."""
        with self._cond:
            return b"".join(self._output_chunks)

    def output_text(self) -> str:
        return self.output_bytes().decode("utf-8", errors="replace")

    def close(self) -> None:
        with self._cond:
            if self._released or self._closed:
                self._closed = True
                return
            self._closed = True
        self._conn.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RemoteApplication({self.class_name!r}@{self.host!r}, "
                f"code={self.exit_code})")


class DistributedApplication:
    """An application whose threads span several JVMs (Section 8).

    Wraps the local :class:`~repro.core.application.Application` and its
    remote parts; waiting and destroying act on the whole set.
    """

    def __init__(self, local=None):
        self.local = local
        self.remote_parts: list[RemoteApplication] = []

    def add_remote(self, part: RemoteApplication) -> RemoteApplication:
        self.remote_parts.append(part)
        return part

    def wait_all(self, timeout: Optional[float] = None) -> list:
        """Wait every part out; returns the exit codes (local first)."""
        codes = []
        if self.local is not None:
            codes.append(self.local.wait_for(timeout))
        for part in self.remote_parts:
            codes.append(part.wait_for(timeout))
        return codes

    def destroy_all(self) -> None:
        """Tear the whole distributed application down, everywhere."""
        for part in self.remote_parts:
            part.destroy()
        if self.local is not None:
            self.local.destroy()

    @property
    def terminated(self) -> bool:
        local_done = self.local is None or self.local.terminated
        return local_done and all(p.terminated for p in self.remote_parts)
