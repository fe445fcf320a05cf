"""One scheduler-aware timing API for every OS-thread blocking path.

Before this module the codebase had three ad-hoc sleep/timeout idioms:
raw ``time.sleep`` in polling loops, hand-rolled ``Condition.wait``
deadline loops, and the supervisor's backoff
timer.  They all become one surface here, with two properties the
scheduler relies on:

* every wait is an interruptible *stop point* (``ThreadDeath`` /
  ``InterruptedException`` delivered at :data:`POLL_INTERVAL`
  granularity, Section 5.1's reaper guarantee), and
* none of them may ever run on a scheduler loop thread — tasks park by
  yielding requests (:mod:`repro.sched.ops`), and blocking the loop
  would stall every task on the VM, so these helpers refuse loudly
  (:func:`repro.sched.core.assert_not_loop_thread`) instead of
  deadlocking quietly.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.sched.core import assert_not_loop_thread

#: Granularity (seconds) at which blocking waits re-check interruption.
#: Mirrors (and must stay equal to) ``repro.jvm.threads.POLL_INTERVAL``.
POLL_INTERVAL = 0.01


def sleep(seconds: float) -> None:
    """Interruptible sleep — a stop point on attached threads.

    The single replacement for both ``JThread.sleep`` call sites and the
    raw ``time.sleep`` idiom in supervision/cluster polling loops: an
    attached thread sleeps interruptibly; an unattached host thread
    falls back to a plain sleep.
    """
    assert_not_loop_thread("timers.sleep")
    from repro.jvm.threads import JThread
    JThread.sleep(seconds)


def wait_until(condition, predicate: Callable[[], bool],
               timeout: Optional[float] = None) -> bool:
    """Wait on ``condition`` until ``predicate()`` — a stop point.

    The caller must hold ``condition`` (a ``threading.Condition`` or a
    :class:`~repro.sched.waitobj.WaitPoint`; both expose ``wait``).
    Returns True when the predicate became true, False on timeout.
    Raises ``InterruptedException`` / ``ThreadDeath`` if the calling
    thread is interrupted or stopped while waiting.  Every OS-thread
    blocking primitive in this library (pipes, event queues, listener
    accepts, application waits) is built on this helper so the reaper of
    Section 5.1 can always make progress.  Tasks use the generator
    equivalent, :func:`repro.sched.ops.wait_on`.
    """
    assert_not_loop_thread("timers.wait_until")
    from repro.jvm.threads import JThread
    thread = JThread.current_or_none()
    deadline = None if timeout is None else time.monotonic() + timeout
    while not predicate():
        if thread is not None:
            thread._check_stop_point()
        wait_for = POLL_INTERVAL
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            wait_for = min(wait_for, remaining)
        condition.wait(wait_for)
    return True


def poll_until(predicate: Callable[[], bool],
               timeout: Optional[float] = None,
               interval: float = POLL_INTERVAL) -> bool:
    """Interruptible polling loop for conditions with no wait object.

    Replaces the bare ``while not done: time.sleep(x)`` idiom (cluster
    spawn readiness, test harness waits).  Returns True when the
    predicate became true, False on timeout; interruption semantics as
    :func:`sleep`.
    """
    assert_not_loop_thread("timers.poll_until")
    deadline = None if timeout is None else time.monotonic() + timeout
    while not predicate():
        wait_for = interval
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            wait_for = min(wait_for, remaining)
        sleep(wait_for)
    return True
