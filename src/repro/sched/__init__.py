"""repro.sched — the per-VM event-loop scheduler (continuation tasks).

Public surface:

* :class:`Scheduler` / :class:`Task` — the engine (:mod:`repro.sched.core`);
* :func:`spawn` — run a function (generator functions become true
  continuations) on the calling VM's scheduler, or the process-wide
  default scheduler off-VM;
* :func:`sched_yield` / :func:`sleep` — yieldable requests for task
  bodies (``yield sched_yield()``, ``yield sleep(0.5)``);
* :class:`WaitPoint` / :class:`TaskWaiter` / :class:`SchedEvent` — the
  wait objects the blocking surface parks on
  (:mod:`repro.sched.waitobj`);
* :mod:`repro.sched.ops` — task-side blocking operations (``yield
  from ops.wait_on(...)`` etc.);
* :mod:`repro.sched.timers` — the OS-thread half of the same API
  (``timers.sleep``, ``timers.wait_until``, ``timers.poll_until``).

A ``JThread`` whose body is a generator runs as a task here; a
plain-callable body gets an OS thread (``JThread.start`` decides from
the body's type alone).
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.sched import ops, timers
from repro.sched.core import (
    LOOP_IDENTS,
    JoinRequest,
    Scheduler,
    SleepRequest,
    Task,
    WaitRequest,
    YIELD,
    assert_not_loop_thread,
    sched_yield,
    sleep,
)
from repro.sched.waitobj import SchedEvent, TaskWaiter, WaitPoint

__all__ = [
    "Scheduler", "Task", "spawn", "sched_yield", "sleep",
    "SleepRequest", "WaitRequest", "JoinRequest", "YIELD",
    "WaitPoint", "TaskWaiter", "SchedEvent",
    "default_scheduler", "current_scheduler",
    "assert_not_loop_thread", "LOOP_IDENTS", "ops", "timers",
]

_default_scheduler: Optional[Scheduler] = None
_default_lock = threading.Lock()


def default_scheduler() -> Scheduler:
    """The process-wide scheduler for tasks spawned outside any VM."""
    global _default_scheduler
    with _default_lock:
        if _default_scheduler is None:
            _default_scheduler = Scheduler(name="sched-default")
        return _default_scheduler.start()


def current_scheduler() -> Scheduler:
    """The scheduler for the calling context.

    An attached thread (or a task being stepped) resolves to its VM's
    scheduler; unattached host threads share the process-wide default.
    """
    from repro.jvm.threads import JThread
    thread = JThread.current_or_none()
    if thread is not None:
        vm = thread.group.vm
        if vm is not None:
            return vm.ensure_scheduler()
    return default_scheduler()


def spawn(fn, *args, name: Optional[str] = None,
          scheduler: Optional[Scheduler] = None) -> Task:
    """Spawn ``fn(*args)`` as a task on the contextual scheduler.

    Generator functions become continuations whose every ``yield`` is a
    scheduling (and interrupt-delivery) point; plain callables run in a
    single step.  The spawner's access-control context is snapshotted
    into the task (Section 5.6 inheritance).
    """
    if scheduler is None:
        scheduler = current_scheduler()
    return scheduler.spawn(fn, *args, name=name)
