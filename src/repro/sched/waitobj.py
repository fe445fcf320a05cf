"""Scheduler wait-objects: one parking abstraction for threads *and* tasks.

The pre-scheduler codebase parked every blocked thread on a raw
``threading.Condition`` — pipes, listeners, event queues, application
waits each owned one.  That worked because every waiter *was* an OS
thread.  With the event-loop scheduler (:mod:`repro.sched.core`) a waiter
may instead be a continuation task that must not block its loop thread,
so the blocking surface needed one object both kinds of waiter can park
on.

:class:`WaitPoint` is that object.  It is condition-variable compatible
(``with wp:``, ``wp.wait(t)``, ``wp.notify_all()``) so the existing
OS-thread code paths — including :func:`repro.sched.timers.wait_until`
— keep working unchanged, and it
additionally carries a list of parked :class:`TaskWaiter` continuations
that ``notify_all`` fires.  A fired task waiter does not run anything
inline; it hands the parked task back to its scheduler's ready queue
(thread-safe), exactly like a condvar wakeup hands a thread back to the
OS run queue.

:class:`SchedEvent` is the smallest useful composite: a one-way latch an
OS thread can ``wait()`` on and a task can ``yield from
event.wait_task()`` on — the building block the 10k-idle-application
smoke test parks its whole fleet on.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional


class TaskWaiter:
    """One parked continuation on a :class:`WaitPoint`.

    A waiter is single-shot: the first :meth:`fire` wins, later fires are
    no-ops.  The scheduler binds a callback that re-enqueues the parked
    task.  Binding after the fire delivers immediately, so the
    check-predicate-then-park race resolves safely on either side.
    """

    __slots__ = ("_lock", "_fired", "_callback")

    def __init__(self):
        self._lock = threading.Lock()
        self._fired = False
        self._callback: Optional[Callable[[], None]] = None

    @property
    def fired(self) -> bool:
        with self._lock:
            return self._fired

    def fire(self) -> None:
        """Deliver the wakeup exactly once (any thread may call this)."""
        with self._lock:
            if self._fired:
                return
            self._fired = True
            callback = self._callback
            self._callback = None
        if callback is not None:
            callback()

    def bind_callback(self, callback: Callable[[], None]) -> None:
        """Scheduler-side binding: run ``callback`` on fire (or now)."""
        run_now = False
        with self._lock:
            if self._fired:
                run_now = True
            else:
                self._callback = callback
        if run_now:
            callback()


class WaitPoint:
    """A condition variable whose waiters may be OS threads *or* tasks.

    Drop-in for the ``threading.Condition`` idioms this library uses:

    * ``with waitpoint:`` — take the underlying lock (pass ``lock=`` to
      share a plain ``Lock`` exactly as ``RingPipe`` does);
    * ``waitpoint.wait(timeout)`` — OS-thread park (caller holds the
      lock; used via :func:`repro.sched.timers.wait_until`);
    * ``waitpoint.notify_all()`` — wakes blocked OS threads **and**
      fires every parked task continuation.

    Task-side parking goes through :meth:`add_task_waiter` (lock held),
    normally via the :func:`repro.sched.ops.wait_on` generator, which
    re-checks its predicate on every wakeup just like a condvar loop.
    Waiters are fired (not run) under the lock; firing only flips the
    single-shot latch and posts to a scheduler ready queue, so no user
    code runs with the wait-point lock held.
    """

    __slots__ = ("_cond", "_task_waiters")

    def __init__(self, lock=None):
        self._cond = threading.Condition(lock)
        self._task_waiters: list[TaskWaiter] = []

    # -- lock protocol ------------------------------------------------------

    def acquire(self, *args, **kwargs):
        return self._cond.acquire(*args, **kwargs)

    def release(self) -> None:
        self._cond.release()

    def __enter__(self):
        self._cond.__enter__()
        return self

    def __exit__(self, *exc_info):
        return self._cond.__exit__(*exc_info)

    # -- waiting ------------------------------------------------------------

    def wait(self, timeout: Optional[float] = None) -> bool:
        """OS-thread wait (caller holds the lock), condvar semantics."""
        return self._cond.wait(timeout)

    def add_task_waiter(self, waiter: TaskWaiter) -> None:
        """Park a task continuation; the caller must hold the lock."""
        self._task_waiters.append(waiter)

    # -- signalling ---------------------------------------------------------

    def notify_all(self) -> None:
        self._cond.notify_all()
        if self._task_waiters:
            waiters = self._task_waiters
            self._task_waiters = []
            for waiter in waiters:
                waiter.fire()

    # Task waiters re-check their predicate on wakeup (condvar-loop
    # style), so waking every parked continuation is always correct;
    # notify(n) therefore deliberately broadcasts to the task side.
    def notify(self, n: int = 1) -> None:
        self._cond.notify(n)
        if self._task_waiters:
            waiters = self._task_waiters
            self._task_waiters = []
            for waiter in waiters:
                waiter.fire()

    def task_waiter_count(self) -> int:
        """Parked continuations (diagnostics; caller should hold lock)."""
        return len(self._task_waiters)


class SchedEvent:
    """A one-way latch both OS threads and tasks can wait on.

    ``set()`` may be called from any thread (or from a task step); it
    wakes every OS thread blocked in :meth:`wait` and resumes every task
    parked in :meth:`wait_task`.
    """

    def __init__(self):
        self._wp = WaitPoint()
        self._flag = False

    @property
    def is_set(self) -> bool:
        with self._wp:
            return self._flag

    def set(self) -> None:
        with self._wp:
            self._flag = True
            self._wp.notify_all()

    def clear(self) -> None:
        with self._wp:
            self._flag = False

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Interruptible OS-thread wait (a stop point)."""
        from repro.sched.timers import wait_until
        with self._wp:
            return wait_until(self._wp, lambda: self._flag, timeout=timeout)

    def wait_task(self, timeout: Optional[float] = None):
        """Task-side wait: ``ok = yield from event.wait_task()``."""
        from repro.sched.ops import wait_on
        result = yield from wait_on(self._wp, lambda: self._flag,
                                    timeout=timeout)
        return result

    def wait_point(self) -> WaitPoint:
        return self._wp


def _monotonic() -> float:
    return time.monotonic()
