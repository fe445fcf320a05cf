"""The simulated network: named hosts, ports, and downloadable code.

The paper's mobile-code experiments (Sections 3.3 and 6.3) need a network
origin for applets ("foreign code that is downloaded over the network") and
a way for sandboxed applets to "connect back" to their own host.  The
fabric provides both without touching a real network:

* :class:`Host` — a named machine that can *publish class material* (the
  HTTP server an applet is downloaded from) and *listen on ports*.
* :class:`NetworkFabric` — name resolution and connection establishment.

Connections are symmetric byte channels built from two in-memory pipes.
Java-side socket objects with security-manager checks live in
:mod:`repro.net.sockets`; the fabric itself is OS-level machinery and does
no Java security checks.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.io.streams import (
    InputStream,
    OutputStream,
    make_pipe,
)
from repro.jvm.classloading import ClassMaterial
from repro.jvm.errors import (
    BindException,
    ClassNotFoundException,
    ConnectException,
    UnknownHostException,
)
from repro.sched.timers import wait_until
from repro.sched.waitobj import WaitPoint


class Endpoint:
    """One side of an established connection."""

    def __init__(self, local_host: str, remote_host: str, remote_port: int,
                 reader: InputStream, writer: OutputStream):
        self.local_host = local_host
        self.remote_host = remote_host
        self.remote_port = remote_port
        self.input = reader
        self.output = writer

    def close(self) -> None:
        self.output.close()
        self.input.close()


class Listener:
    """A bound port: a queue of not-yet-accepted endpoints."""

    def __init__(self, host: "Host", port: int, backlog: int = 16):
        self.host = host
        self.port = port
        self.backlog = backlog
        self._pending: list[Endpoint] = []
        self._cond = WaitPoint()
        self.closed = False

    def _offer(self, endpoint: Endpoint) -> bool:
        with self._cond:
            if self.closed or len(self._pending) >= self.backlog:
                return False
            self._pending.append(endpoint)
            self._cond.notify_all()
            return True

    def accept(self, timeout: Optional[float] = None) -> Optional[Endpoint]:
        """Block for the next incoming connection (a stop point)."""
        with self._cond:
            got = wait_until(self._cond,
                             lambda: self._pending or self.closed,
                             timeout=timeout)
            if not got or self.closed and not self._pending:
                return None
            return self._pending.pop(0)

    def try_accept(self) -> Optional[Endpoint]:
        """Non-blocking accept; None when no connection is pending.

        Task-side servers loop on this plus :meth:`wait_point` (via
        ``repro.sched.ops.accept``) instead of blocking the event loop.
        """
        with self._cond:
            if self._pending:
                return self._pending.pop(0)
            return None

    def acceptable_hint(self) -> bool:
        """True when ``accept`` would not block (pending or closed)."""
        return bool(self._pending) or self.closed

    def wait_point(self) -> WaitPoint:
        return self._cond

    def close(self) -> None:
        with self._cond:
            self.closed = True
            self._cond.notify_all()
        self.host._unbind(self.port)


class Host:
    """A machine on the simulated network."""

    def __init__(self, fabric: "NetworkFabric", name: str):
        self.fabric = fabric
        self.name = name
        self._published: dict[str, ClassMaterial] = {}
        self._listeners: dict[int, Listener] = {}
        self._lock = threading.RLock()
        #: Per-host request log: every class fetch and connection attempt,
        #: so tests can assert what actually crossed the "network".
        self.request_log: list[tuple] = []

    # -- serving code (the applet HTTP server) -----------------------------------

    def publish_class(self, material: ClassMaterial) -> ClassMaterial:
        """Make class material downloadable from this host (Section 6.3)."""
        with self._lock:
            self._published[material.name] = material
        return material

    def published_names(self) -> list[str]:
        """The class names this host serves (the cluster locality signal)."""
        with self._lock:
            return sorted(self._published)

    def fetch_class(self, name: str) -> ClassMaterial:
        """Download class material (what an AppletClassLoader does)."""
        with self._lock:
            self.request_log.append(("fetch", name))
            material = self._published.get(name)
        if material is None:
            raise ClassNotFoundException(f"http://{self.name}/{name}")
        return material

    def code_base(self) -> str:
        """The code-base URL applets from this host carry."""
        return f"http://{self.name}/classes/"

    # -- listening -----------------------------------------------------------------

    def listen(self, port: int, backlog: int = 16) -> Listener:
        with self._lock:
            if port in self._listeners:
                raise BindException(f"{self.name}:{port} already bound")
            listener = Listener(self, port, backlog)
            self._listeners[port] = listener
            return listener

    def _unbind(self, port: int) -> None:
        with self._lock:
            self._listeners.pop(port, None)

    def _listener(self, port: int) -> Optional[Listener]:
        with self._lock:
            return self._listeners.get(port)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Host({self.name!r})"


class NetworkFabric:
    """All hosts, plus name resolution and connection establishment."""

    def __init__(self):
        self._hosts: dict[str, Host] = {}
        self._lock = threading.RLock()

    def add_host(self, name: str) -> Host:
        with self._lock:
            if name in self._hosts:
                return self._hosts[name]
            host = Host(self, name)
            self._hosts[name] = host
            return host

    def resolve(self, name: str) -> Host:
        with self._lock:
            host = self._hosts.get(name)
        if host is None:
            raise UnknownHostException(name)
        return host

    def hosts(self) -> list[str]:
        with self._lock:
            return sorted(self._hosts)

    def connect(self, from_host: str, to_host: str, port: int) -> Endpoint:
        """Establish a connection; returns the *client* endpoint."""
        target = self.resolve(to_host)
        listener = target._listener(port)
        target.request_log.append(("connect", from_host, port))
        if listener is None:
            raise ConnectException(f"{to_host}:{port} connection refused")
        client_to_server_r, client_to_server_w = make_pipe()
        server_to_client_r, server_to_client_w = make_pipe()
        server_side = Endpoint(to_host, from_host, port,
                               client_to_server_r, server_to_client_w)
        if not listener._offer(server_side):
            # A closed listener is "refused", a full accept queue is
            # "backlog full" — callers back off differently (a dead
            # server vs. an overloaded one).
            reason = "connection refused" if listener.closed \
                else "backlog full"
            raise ConnectException(f"{to_host}:{port} {reason}")
        return Endpoint(from_host, to_host, port,
                        server_to_client_r, client_to_server_w)
