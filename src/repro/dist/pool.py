"""Keyed connection pool for the dist/cluster fabric.

The rexec daemon keeps a connection open after the exit frame, so the
next remote launch / ``Cluster.exec`` / heartbeat to the same
``host:port`` can skip connection establishment entirely.  The pool is
per-VM (``vm.dist_pool``, created at boot) and keyed by ``(host, port)``.
It counts into the VM's registry: ``dist.pool.{hit,miss,released,
evicted}`` as counters and the idle depth as the collected
``dist.pool.idle``.

Security and ownership semantics are deliberately unchanged:

* **Every** acquire — pool hit or miss — runs the security manager's
  ``checkConnect``, exactly as opening a fresh :class:`~repro.net.sockets.
  Socket` would.  A pooled channel never launders another application's
  connect permission.
* Pooled channels are VM infrastructure, not application streams: they
  carry no owner and are not registered against the acquiring
  application's stream table, so an application exiting does not tear
  down connections the pool may hand to someone else.

Invalidation is the failure-semantics glue: a ``transport_lost`` on any
channel to a node, or the cluster registry declaring the node dead,
drops every idle channel for that key (``dist.pool.evicted``), so
retry/re-placement never dials a corpse twice.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional

from repro.dist.protocol import FRAME_COUNTERS, FrameChannel
from repro.jvm.errors import IllegalStateException
from repro.super import faults

#: Idle channels kept per (host, port) key; the rest are closed on release.
MAX_IDLE_PER_KEY = 4


class PooledChannel:
    """One connection checked out of (or destined for) the pool."""

    def __init__(self, pool: "ChannelPool", host: str, port: int,
                 endpoint, channel: FrameChannel, reused: bool):
        self._pool = pool
        self.host = host
        self.port = port
        self.endpoint = endpoint
        self.channel = channel
        #: True when this channel came out of the idle set (a pool hit).
        self.reused = reused
        self.uses = 1

    def release(self) -> None:
        """Return the connection for reuse (or close it, pool's choice)."""
        self._pool.release(self)

    def close(self) -> None:
        self.channel.close()
        try:
            self.endpoint.close()
        except Exception:  # noqa: BLE001 - teardown is best-effort
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PooledChannel({self.host}:{self.port}, "
                f"reused={self.reused}, uses={self.uses})")


class ChannelPool:
    """``(host, port)`` → reusable framed channels, per VM."""

    def __init__(self, vm, max_idle_per_key: int = MAX_IDLE_PER_KEY):
        self.vm = vm
        self.max_idle_per_key = max_idle_per_key
        self._idle: dict[tuple[str, int], deque[PooledChannel]] = {}
        self._lock = threading.Lock()
        metrics = vm.telemetry.metrics
        self._hits = metrics.counter("dist.pool.hit")
        self._misses = metrics.counter("dist.pool.miss")
        self._released = metrics.counter("dist.pool.released")
        self._evicted = metrics.counter("dist.pool.evicted")
        # The frame counters live in the protocol; creating them with the
        # pool lists them (at 0) in /proc/dist/transport from boot.
        for name in FRAME_COUNTERS:
            metrics.counter(name)
        metrics.collect(self.collect)

    # -- checkout --------------------------------------------------------------

    def acquire(self, ctx, host: str, port: int,
                fresh: bool = False) -> PooledChannel:
        """A healthy channel to ``host:port`` — pooled if possible.

        Runs ``checkConnect`` unconditionally; raises the same
        :class:`~repro.jvm.errors.UnknownHostException` /
        :class:`~repro.jvm.errors.ConnectException` a fresh socket would.
        ``fresh=True`` skips the idle set (a caller retrying after a
        pooled channel turned out to be stale mid-send).
        """
        sm = ctx.vm.security_manager
        if sm is not None:
            sm.check_connect(host, port)
        # Fault point: "the next acquire to this host fails/stalls" —
        # free when no injector is installed.
        faults.hit(faults.POINT_DIST_ACQUIRE, host=host, port=port)
        key = (host, port)
        if not fresh:
            while True:
                with self._lock:
                    idle = self._idle.get(key)
                    pooled = idle.popleft() if idle else None
                    if idle is not None and not idle:
                        del self._idle[key]
                if pooled is None:
                    break
                if pooled.channel.healthy():
                    self._hits.inc()
                    pooled.uses += 1
                    pooled.reused = True
                    return pooled
                self._evict(pooled)
        self._misses.inc()
        return self._connect(ctx, host, port)

    def _connect(self, ctx, host: str, port: int) -> PooledChannel:
        fabric = ctx.vm.network
        if fabric is None:
            raise IllegalStateException("this VM has no network attached")
        endpoint = fabric.connect(ctx.vm.machine.hostname, host, port)
        channel = FrameChannel(endpoint.input, endpoint.output)
        return PooledChannel(self, host, port, endpoint, channel,
                             reused=False)

    # -- checkin ---------------------------------------------------------------

    def release(self, pooled: PooledChannel) -> None:
        if not pooled.channel.healthy():
            self._evict(pooled)
            return
        key = (pooled.host, pooled.port)
        with self._lock:
            idle = self._idle.setdefault(key, deque())
            if len(idle) >= self.max_idle_per_key:
                overflow = True
            else:
                idle.append(pooled)
                overflow = False
        if overflow:
            self._evict(pooled)
        else:
            self._released.inc()

    def _evict(self, pooled: PooledChannel) -> None:
        self._evicted.inc()
        pooled.close()

    # -- invalidation ----------------------------------------------------------

    def invalidate(self, host: str, port: Optional[int] = None) -> int:
        """Drop every idle channel to ``host`` (``:port`` if given).

        Called on ``transport_lost`` and on cluster node death, so a
        failing node's pooled connections never serve another launch.
        Returns how many channels were dropped.
        """
        dropped: list[PooledChannel] = []
        with self._lock:
            for key in list(self._idle):
                if key[0] == host and (port is None or key[1] == port):
                    dropped.extend(self._idle.pop(key))
        for pooled in dropped:
            self._evict(pooled)
        return len(dropped)

    # -- introspection ---------------------------------------------------------

    def collect(self) -> dict:
        """The idle depth, for the VM's metrics registry."""
        with self._lock:
            return {"dist.pool.idle":
                    sum(len(idle) for idle in self._idle.values())}


def pool_for(vm) -> ChannelPool:
    """The VM's channel pool, created on first use."""
    pool = vm.dist_pool
    if pool is None:
        pool = vm.dist_pool = ChannelPool(vm)
    return pool
