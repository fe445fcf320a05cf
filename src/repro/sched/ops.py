"""Task-side blocking operations, as delegating generators.

Where :mod:`repro.sched.timers` is the OS-thread half of the blocking
API, this module is the task half: each helper is a generator meant for
``yield from`` inside a task body, and each yield is a scheduler request
(and therefore an interrupt/stop delivery point — the same per-thread
wait/interrupt contract the OS-thread primitives honor).

The pattern throughout is the condition-variable loop, transplanted:
take the wait-point lock, check the predicate, park a single-shot
:class:`~repro.sched.waitobj.TaskWaiter` if it is false, yield a
``WaitRequest``, and re-check on wakeup.  Because the predicate check
and the parking happen under the same lock the blocking primitives
``notify_all`` under, no wakeup can be lost; because a timed-out
waiter's park token has been consumed, no wakeup can be delivered
twice.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.sched.core import (
    JoinRequest,
    SleepRequest,
    WaitRequest,
    sched_yield,
)
from repro.sched.waitobj import TaskWaiter


def sleep(seconds: float):
    """Task sleep: ``yield from ops.sleep(0.5)`` (a stop point)."""
    yield SleepRequest(seconds)


def join(target, timeout: Optional[float] = None):
    """Join a Task or JThread: ``ok = yield from ops.join(t)``."""
    finished = yield JoinRequest(target, timeout)
    return bool(finished)


def wait_on(waitpoint, predicate: Callable[[], bool],
            timeout: Optional[float] = None):
    """Park until ``predicate()`` holds on ``waitpoint`` — the task-side
    twin of :func:`repro.sched.timers.wait_until`.

    Returns True when the predicate became true, False on timeout.  The
    waitpoint lock is *not* held across the yield; the predicate is
    re-evaluated under the lock after every wakeup, so spurious and
    broadcast wakeups are safe.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
        with waitpoint:
            if predicate():
                return True
            if remaining is not None and remaining <= 0:
                return False
            waiter = TaskWaiter()
            waitpoint.add_task_waiter(waiter)
        yield WaitRequest(waiter, remaining)


def read(stream, max_bytes: int, timeout: Optional[float] = None):
    """Read from a piped/buffered input stream without blocking the loop.

    ``stream`` must expose the non-blocking trio ``try_read(n)`` (bytes,
    or None when it would block), ``readable_hint()`` and
    ``wait_point()`` — :class:`~repro.io.streams.PipedInputStream` and
    :class:`~repro.io.streams.BufferedInputStream` do.  Returns the
    bytes read (b"" at end-of-stream), or None on timeout.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        chunk = stream.try_read(max_bytes)
        if chunk is not None:
            return chunk
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
        ok = yield from wait_on(stream.wait_point(), stream.readable_hint,
                                timeout=remaining)
        if not ok:
            return None


def accept(listener, timeout: Optional[float] = None):
    """Accept on a :class:`~repro.net.fabric.Listener` from a task.

    Returns the accepted endpoint, or None on timeout.  Closure of the
    listener surfaces as the same exception ``accept`` raises.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        endpoint = listener.try_accept()
        if endpoint is not None:
            return endpoint
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
        ok = yield from wait_on(listener.wait_point(),
                                listener.acceptable_hint,
                                timeout=remaining)
        if not ok:
            return None


def next_event(queue, timeout: Optional[float] = None):
    """Take one event from an AWT :class:`~repro.awt.events.EventQueue`.

    Returns the event, or None on timeout/shutdown.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        event, closed = queue.try_next_event()
        if event is not None or closed:
            return event
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
        ok = yield from wait_on(queue.wait_point(), queue.pending_hint,
                                timeout=remaining)
        if not ok:
            return None


def drain_events(queue, timeout: Optional[float] = None):
    """Take the whole backlog from an AWT event queue (batch dispatch).

    Returns a (possibly empty) list; empty means timeout or shutdown.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        batch, closed = queue.try_drain_events()
        if batch or closed:
            return batch
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return []
        ok = yield from wait_on(queue.wait_point(), queue.pending_hint,
                                timeout=remaining)
        if not ok:
            return []


def wait_app(application, timeout: Optional[float] = None):
    """Park until ``application`` reaches a terminal state.

    Returns the exit code, or None on timeout (mirrors
    ``Application.wait_for``).
    """
    ok = yield from wait_on(application._cond, application._is_terminal,
                            timeout=timeout)
    if not ok:
        return None
    return application.exit_code
