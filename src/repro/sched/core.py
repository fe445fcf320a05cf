"""The event-loop scheduler: continuation tasks instead of OS threads.

The paper's VM gives every ``JThread`` a real OS thread, which caps how
many live applications one VM can hold.  This module supplies the
alternative the ROADMAP calls for: a per-VM event loop in the style of
VIFF's Twisted runtime — each unit of concurrency is a :class:`Task`
whose "program counter" is a Python generator frame, and one OS thread
(the loop) multiplexes all of them.  Switching between tasks is a
``deque`` rotation plus a ``generator.send``, not a kernel context
switch, which is where the order-of-magnitude win on
``bench_context_switch.py`` comes from.

A task *blocks* by yielding a request object instead of calling a
blocking primitive:

``yield sched_yield()`` (or bare ``yield``)
    Give up the loop for one turn (stays runnable).
``yield SleepRequest(seconds)`` — via :func:`repro.sched.sleep`
    Park on the timer heap.
``yield WaitRequest(waiter, timeout)`` — via :func:`repro.sched.ops.wait_on`
    Park on a :class:`~repro.sched.waitobj.WaitPoint` until notified.
``yield JoinRequest(target, timeout)`` — via :func:`repro.sched.ops.join`
    Park until another task or ``JThread`` finishes.

Every yield is a *stop point* in the Section 5.1 sense: ``interrupt()``
and ``stop()`` on the owning ``JThread`` (or on the task itself) are
delivered by throwing ``InterruptedException`` / ``ThreadDeath`` into
the generator at its next resumption, so the reaper can always make
progress — the same contract the OS-thread path honors, formalized the
same way per-thread interrupt/wait permissions are in the
permission-based separation logic literature.

Security survives the move to continuations (Section 5.6): a task
carries the access-control context snapshot its creator had (via its
facade ``JThread`` or its own ``inherited_context``), and because
protection-domain frames are pushed *per resumption* by the
generator-aware ``JMethod`` invoke, the access-control stack seen inside
a task step is exactly what an OS thread running the same code would
see.  A generator body on the loop and a plain-callable body on its
own OS thread therefore make identical security decisions — which
``tests/jvm/test_sched_security.py`` pins scenario by scenario.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from typing import Callable, Iterable, Optional

from repro.jvm.errors import (
    IllegalStateException,
    InterruptedException,
    ThreadDeath,
)
from repro.sched.waitobj import TaskWaiter

#: OS-thread idents of live scheduler loops.  Blocking primitives consult
#: this to refuse to park the loop itself (a task must yield a request
#: instead); the set is almost always empty or tiny, so the check is one
#: set lookup on the slow (about-to-block) path only.
LOOP_IDENTS: set[int] = set()


def assert_not_loop_thread(what: str) -> None:
    """Refuse to block a scheduler loop thread.

    Called by the OS-thread parking paths (``timers.sleep``,
    ``timers.wait_until``, ``JThread.sleep``/``join``).  A task that
    needs to wait must yield a scheduler request; blocking the loop
    would stall every other task on this VM, so it is an error, not a
    deadlock.
    """
    if threading.get_ident() in LOOP_IDENTS:
        raise IllegalStateException(
            f"cannot block the scheduler loop in {what}; tasks must "
            f"yield a wait request (see repro.sched.ops) instead")


class _Yield:
    """Singleton request: reschedule me at the back of the ready queue."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "YIELD"


YIELD = _Yield()


def sched_yield() -> _Yield:
    """The cooperative yield request: ``yield sched_yield()``."""
    return YIELD


class SleepRequest:
    """Park the task on the timer heap for ``seconds``."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        self.seconds = max(0.0, float(seconds))


def sleep(seconds: float) -> SleepRequest:
    """Task-side sleep: ``yield sched.sleep(0.5)`` (a stop point)."""
    return SleepRequest(seconds)


class WaitRequest:
    """Park until ``waiter`` fires; resumes ``True`` (fired) or
    ``False`` (timed out)."""

    __slots__ = ("waiter", "timeout")

    def __init__(self, waiter: TaskWaiter, timeout: Optional[float] = None):
        self.waiter = waiter
        self.timeout = timeout


class JoinRequest:
    """Park until ``target`` (a Task or JThread) finishes; resumes
    ``True`` (finished) or ``False`` (timed out)."""

    __slots__ = ("target", "timeout")

    def __init__(self, target, timeout: Optional[float] = None):
        self.target = target
        self.timeout = timeout


# Task states (informational; transitions are guarded by the scheduler
# lock where cross-thread visibility matters).
T_NEW = "new"
T_READY = "ready"
T_RUNNING = "running"
T_PARKED = "parked"
T_FINISHED = "finished"


class Task:
    """One continuation: a generator frame plus scheduling state.

    Tasks are normally created through :meth:`Scheduler.spawn` (or the
    ``JThread`` facade, which owns a task when its body is a generator
    function).  ``jthread`` links back to the facade thread, which
    carries group membership, interrupt flags, and the inherited
    access-control context; standalone tasks keep their own copies of
    the last two.
    """

    _ids = itertools.count(1)

    __slots__ = ("task_id", "name", "gen", "scheduler", "jthread",
                 "inherited_context", "state", "result", "exception",
                 "_park_token", "_parked", "_interrupted",
                 "_stop_requested", "_done_event", "_done_callbacks",
                 "_fast")

    def __init__(self, gen, scheduler: "Scheduler",
                 name: Optional[str] = None, jthread=None,
                 inherited_context=None):
        self.task_id = next(Task._ids)
        self.name = name or f"task-{self.task_id}"
        self.gen = gen
        self.scheduler = scheduler
        self.jthread = jthread
        self.inherited_context = inherited_context
        self.state = T_NEW
        self.result = None
        self.exception: Optional[BaseException] = None
        #: Consumed on every resume: at most one wakeup per park wins.
        self._park_token = 0
        self._parked = False
        self._interrupted = False
        self._stop_requested = False
        self._done_event = threading.Event()
        self._done_callbacks: list[Callable[["Task"], None]] = []
        #: True while the loop may take the inlined resume path: no
        #: facade JThread, no inherited context, no pending flags, not
        #: finished.  Cleared (never re-set) by interrupt/stop/finish;
        #: the GIL makes the unlocked read in the loop safe.
        self._fast = jthread is None and inherited_context is None

    # -- lifecycle ----------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._done_event.is_set()

    def join(self, timeout: Optional[float] = None) -> bool:
        """OS-thread-side join (a stop point for the waiting thread)."""
        assert_not_loop_thread("Task.join")
        from repro.jvm.threads import JThread, POLL_INTERVAL
        waiter = JThread.current_or_none()
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if waiter is not None:
                waiter._check_stop_point()
            remaining = POLL_INTERVAL
            if deadline is not None:
                remaining = min(remaining, deadline - time.monotonic())
                if remaining <= 0:
                    return self._done_event.is_set()
            if self._done_event.wait(remaining):
                return True

    def add_done_callback(self, callback: Callable[["Task"], None]) -> None:
        """Run ``callback(task)`` on the loop thread when the task ends
        (immediately, on the calling thread, if it already has)."""
        run_now = False
        with self.scheduler._lock:
            if self._done_event.is_set():
                run_now = True
            else:
                self._done_callbacks.append(callback)
        if run_now:
            callback(self)

    # -- interruption (mirrors JThread semantics) ---------------------------

    def interrupt(self) -> None:
        """Interrupt: raises ``InterruptedException`` at the next yield."""
        jthread = self.jthread
        if jthread is not None:
            jthread.interrupt()
            return
        self._fast = False
        self._interrupted = True
        self.scheduler._kick(self)

    def stop(self) -> None:
        """Cooperative stop: ``ThreadDeath`` at the next yield."""
        jthread = self.jthread
        if jthread is not None:
            jthread.stop()
            return
        self._fast = False
        self._stop_requested = True
        self._interrupted = True
        self.scheduler._kick(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task({self.name!r}, {self.state})"


def _one_shot(fn: Callable, args: tuple):
    """Wrap a plain callable as a single-step task body."""
    return fn(*args)
    yield  # pragma: no cover - makes this a generator function


class Scheduler:
    """A per-VM event loop running continuation tasks on one OS thread.

    Three queues drive it (the classic event-loop trio):

    * the **ready** deque — tasks runnable right now;
    * the **timer** heap — ``SleepRequest`` deadlines and wait/join
      timeouts (lazily cancelled: stale entries are skipped by the
      park-token check when they fire);
    * the **external** queue — thread-safe submissions from other OS
      threads (spawns, :class:`~repro.sched.waitobj.WaitPoint`
      notifications, interrupts), drained into the ready deque at the
      top of every loop iteration.  This is the IO queue: every
      blocking primitive's ``notify_all`` lands here.

    The loop steps tasks in batches; between batches it re-checks
    externals and timers, and when nothing is runnable it sleeps on one
    ``threading.Event`` until the next timer deadline or submission.
    """

    def __init__(self, name: str = "sched"):
        self.name = name
        self._ready: deque = deque()
        self._timers: list = []
        self._timer_seq = itertools.count()
        self._external: deque = deque()
        self._wakeup = threading.Event()
        self._lock = threading.Lock()
        self._live: set[Task] = set()
        self._loop_thread: Optional[threading.Thread] = None
        self._ident: Optional[int] = None
        self._stopping = False
        self._stopped = threading.Event()
        self._current: Optional[Task] = None
        # Plain-int hot-path counters: the VM's metrics registry reads
        # them through stats() (``sched.*`` in /proc/sched and vmstat).
        self.switches = 0
        self.spawned = 0
        self.completed = 0
        self.timer_fires = 0
        self.task_errors = 0

    # -- starting and stopping ----------------------------------------------

    def start(self) -> "Scheduler":
        """Start the loop thread (idempotent).

        A loop that has been shut down starts again on a new thread;
        this object and its counters carry on, so ``stats()`` never goes
        backwards across a restart.
        """
        with self._lock:
            if self._loop_thread is not None:
                if not self._stopped.is_set():
                    return self
                self._ready.clear()
                self._timers.clear()
                self._external.clear()
                self._stopping = False
                self._stopped.clear()
                self._wakeup.clear()
            # A plain Python daemon thread, not a JThread: the loop hosts
            # many tasks and registers *their* JThread identities per
            # step; VM lifetime accounting tracks the tasks, not the loop.
            self._loop_thread = threading.Thread(
                target=self._run, name=f"{self.name}-loop", daemon=True)
            self._loop_thread.start()
        return self

    @property
    def running(self) -> bool:
        return (self._loop_thread is not None
                and not self._stopped.is_set())

    def shutdown(self, timeout: float = 2.0) -> None:
        """Stop the loop; remaining tasks die at their next stop point.

        Each live task gets ``ThreadDeath`` thrown into its frame, so
        ``finally`` blocks and ``JThread`` finish hooks run exactly once
        — the same teardown contract the application reaper relies on
        for OS threads.  Safe to call from any thread, including a task
        (the loop then winds itself down after the current step).
        """
        with self._lock:
            if self._loop_thread is None:
                self._stopping = True
                return
            self._stopping = True
        self._wakeup.set()
        if threading.get_ident() != self._ident:
            self._stopped.wait(timeout)

    # -- spawning ------------------------------------------------------------

    def spawn(self, fn: Callable, *args, name: Optional[str] = None) -> Task:
        """Run ``fn(*args)`` as a task.

        Generator functions become true continuations (each ``yield`` a
        scheduling point); plain callables run to completion in a single
        step — callback-style tasks that must not block.  The spawner's
        access-control context is snapshotted so a task can never hold
        more privilege than the code that created it (the Arbiter-style
        invariant: privilege state stays per-task inside the shared
        loop).
        """
        import inspect

        if inspect.isgeneratorfunction(fn):
            gen = fn(*args)
        elif inspect.isgenerator(fn):
            gen = fn
        else:
            gen = _one_shot(fn, args)
        from repro.security import access
        inherited = access.snapshot_inherited_context()
        task = Task(gen, self, name=name, inherited_context=inherited)
        return self._launch(task)

    def spawn_task(self, gen, name: Optional[str] = None,
                   jthread=None) -> Task:
        """Spawn an already-created generator (the JThread facade path)."""
        task = Task(gen, self, name=name, jthread=jthread)
        return self._launch(task)

    def _launch(self, task: Task) -> Task:
        if self._loop_thread is None:
            self.start()
        with self._lock:
            if self._stopping:
                raise IllegalStateException(
                    f"scheduler {self.name} is shutting down")
            self._live.add(task)
            task.state = T_READY
            self._external.append((task, None, None))
            self.spawned += 1
        self._wakeup.set()
        return task

    # -- cross-thread wakeups ------------------------------------------------

    def _submit(self, task: Task, value=None, exc=None,
                token: Optional[int] = None) -> bool:
        """Thread-safe resume; the park token makes wakeups single-shot
        (a notify and a timeout racing for the same park deliver once)."""
        with self._lock:
            if token is not None and token != task._park_token:
                return False
            task._park_token += 1
            task._parked = False
            if task._done_event.is_set():
                return False
            task.state = T_READY
            self._external.append((task, value, exc))
        self._wakeup.set()
        return True

    def _kick(self, task: Task) -> None:
        """Wake a parked task so a pending interrupt/stop gets delivered."""
        with self._lock:
            if not task._parked or task._done_event.is_set():
                return
            task._park_token += 1
            task._parked = False
            task.state = T_READY
            self._external.append((task, None, None))
        self._wakeup.set()

    # -- the loop ------------------------------------------------------------

    def _run(self) -> None:
        self._ident = threading.get_ident()
        LOOP_IDENTS.add(self._ident)
        try:
            ready = self._ready
            while True:
                if self._external:
                    with self._lock:
                        while self._external:
                            ready.append(self._external.popleft())
                if self._timers:
                    self._fire_due_timers()
                if self._stopping:
                    break
                if not ready:
                    delay = self._next_timer_delay()
                    self._wakeup.wait(delay)
                    self._wakeup.clear()
                    continue
                # Step the present batch; new externals and due timers
                # are picked up between batches.  The common case — a
                # flag-free, facade-less task resuming from a plain
                # yield — is inlined here: one ``send``, one deque
                # append, no function call.  This is what makes a task
                # switch an order of magnitude cheaper than an OS-thread
                # hand-off (``bench_context_switch.py``).
                stepped = 0
                for _ in range(len(ready)):
                    item = ready.popleft()
                    task = item[0]
                    if task._fast and item[1] is None and item[2] is None:
                        stepped += 1
                        self._current = task
                        try:
                            out = task.gen.send(None)
                        except BaseException as raised:  # noqa: BLE001
                            if isinstance(raised, StopIteration):
                                self._finish(task, result=raised.value)
                            else:
                                self._finish(task, exc=raised)
                            if self._stopping:
                                break
                            continue
                        if out is None or out is YIELD:
                            # Still runnable: the popped entry is already
                            # (task, None, None) — reuse it, no allocation.
                            ready.append(item)
                        else:
                            self._handle_request(task, out)
                    else:
                        self._step(task, item[1], item[2])
                    if self._stopping:
                        break
                self._current = None
                if stepped:
                    self.switches += stepped
            self._cancel_all()
        finally:
            LOOP_IDENTS.discard(self._ident)
            self._stopped.set()

    def _next_timer_delay(self) -> Optional[float]:
        if not self._timers:
            return None
        return max(0.0, self._timers[0][0] - time.monotonic())

    def _fire_due_timers(self) -> None:
        now = time.monotonic()
        timers = self._timers
        while timers and timers[0][0] <= now:
            _, _, task, token, value = heapq.heappop(timers)
            self.timer_fires += 1
            # Lazy cancellation: a stale token means the park this timer
            # guarded was already resumed by its waiter.
            self._submit(task, value=value, token=token)

    def _add_timer(self, deadline: float, task: Task, token: int,
                   value) -> None:
        heapq.heappush(self._timers,
                       (deadline, next(self._timer_seq), task, token, value))

    def _park(self, task: Task) -> int:
        with self._lock:
            task._park_token += 1
            task._parked = True
            task.state = T_PARKED
            token = task._park_token
        # An interrupt or stop raised while the task was running found
        # it unparked, so its kick did nothing; deliver it now.  The
        # kick consumes this park's token, so the caller's timer and
        # waiter callback go stale.
        flags = task.jthread if task.jthread is not None else task
        if flags._interrupted or flags._stop_requested:
            self._kick(task)
        return token

    # -- stepping ------------------------------------------------------------

    def _step(self, task: Task, value, exc) -> None:
        if task._done_event.is_set():
            return
        jthread = task.jthread
        # Deliver pending interrupt/stop at this resumption (stop wins),
        # mirroring JThread._check_stop_point.  Flag reads are unlocked
        # (GIL-atomic); the locked resolution only runs when flagged.
        if jthread is not None:
            if jthread._stop_requested or jthread._interrupted:
                with jthread._wake:
                    if jthread._stop_requested:
                        exc = ThreadDeath(f"thread {jthread.name} stopped")
                    elif jthread._interrupted:
                        jthread._interrupted = False
                        exc = InterruptedException(
                            f"thread {jthread.name} interrupted")
            # The loop thread *is* this JThread for the duration of the
            # step: security checks, group lookups and Application
            # resolution all go through JThread.current_or_none().
            # Unlocked dict write: item assignment is GIL-atomic and
            # this key is only ever touched by this loop thread.
            from repro.jvm.threads import _current_jthreads
            _current_jthreads[self._ident] = jthread
        else:
            if task._stop_requested:
                exc = ThreadDeath(f"task {task.name} stopped")
                task._stop_requested = False
            elif task._interrupted:
                task._interrupted = False
                exc = InterruptedException(f"task {task.name} interrupted")
            if task.inherited_context is not None:
                from repro.security import access
                access.set_task_floor(task.inherited_context)
        self._current = task
        task.state = T_RUNNING
        self.switches += 1
        try:
            if exc is not None:
                out = task.gen.throw(exc)
            else:
                out = task.gen.send(value)
        except StopIteration as stop:
            self._finish(task, result=stop.value)
            return
        except BaseException as raised:  # noqa: BLE001 - loop survives
            self._finish(task, exc=raised)
            return
        finally:
            self._current = None
            if jthread is not None:
                from repro.jvm.threads import _current_jthreads
                _current_jthreads.pop(self._ident, None)
            elif task.inherited_context is not None:
                from repro.security import access
                access.set_task_floor(None)
        self._handle_request(task, out)

    def _handle_request(self, task: Task, out) -> None:
        if out is None or out is YIELD:
            task.state = T_READY
            self._ready.append((task, None, None))
            return
        if type(out) is SleepRequest:
            token = self._park(task)
            self._add_timer(time.monotonic() + out.seconds, task, token,
                            None)
            return
        if type(out) is WaitRequest:
            token = self._park(task)
            if out.timeout is not None:
                self._add_timer(time.monotonic() + out.timeout, task,
                                token, False)
            out.waiter.bind_callback(
                lambda: self._submit(task, value=True, token=token))
            return
        if type(out) is JoinRequest:
            self._handle_join(task, out)
            return
        # Unknown yields are a programming error in the task; deliver it
        # there instead of killing the loop.
        self._ready.append((task, None, IllegalStateException(
            f"task {task.name} yielded {out!r}; expected a scheduler "
            f"request (sched_yield/sleep/WaitRequest/JoinRequest)")))

    def _handle_join(self, task: Task, request: JoinRequest) -> None:
        target = request.target
        token = self._park(task)
        if request.timeout is not None:
            self._add_timer(time.monotonic() + request.timeout, task,
                            token, False)
        if isinstance(target, Task):
            self._submit_on_done(target, task, token)
            return
        # A JThread (either backing): watch its finish atomically.
        already = target._add_finish_watch(
            lambda _t: self._submit(task, value=True, token=token))
        if already:
            self._submit(task, value=True, token=token)

    def _submit_on_done(self, target: Task, task: Task, token: int) -> None:
        target.add_done_callback(
            lambda _t: self._submit(task, value=True, token=token))

    def _finish(self, task: Task, result=None,
                exc: Optional[BaseException] = None) -> None:
        task.result = result
        if exc is not None and not isinstance(exc, ThreadDeath):
            task.exception = exc
        callbacks: list = []
        with self._lock:
            self._live.discard(task)
            task.state = T_FINISHED
            task._fast = False
            self.completed += 1
            callbacks, task._done_callbacks = task._done_callbacks, []
        jthread = task.jthread
        if jthread is not None:
            # The facade's common end-of-life path: finish hooks exactly
            # once, uncaught-exception reporting, VM accounting.
            from repro.jvm.threads import _current_jthreads
            _current_jthreads[self._ident] = jthread
            try:
                jthread._finish(exc)
            finally:
                _current_jthreads.pop(self._ident, None)
        elif task.exception is not None:
            self.task_errors += 1
        task._done_event.set()
        for callback in callbacks:
            try:
                callback(task)
            except BaseException:  # noqa: BLE001 - loop survives
                self.task_errors += 1

    def _cancel_all(self) -> None:
        """Teardown: ThreadDeath into every remaining frame, hooks run."""
        with self._lock:
            remaining = list(self._live)
        for task in remaining:
            if task._done_event.is_set():
                continue
            try:
                task.gen.throw(ThreadDeath(
                    f"scheduler {self.name} shut down"))
                # A frame that survives ThreadDeath and yields again is
                # beyond cooperation; drop it.
                task.gen.close()
                self._finish(task)
            except (StopIteration, ThreadDeath):
                self._finish(task, exc=ThreadDeath("stopped"))
            except BaseException as raised:  # noqa: BLE001
                self._finish(task, exc=raised)

    # -- introspection -------------------------------------------------------

    def current_task(self) -> Optional[Task]:
        """The task being stepped (meaningful on the loop thread only)."""
        return self._current

    def stats(self) -> dict:
        with self._lock:
            live = len(self._live)
            ready = len(self._ready) + len(self._external)
            timers = len(self._timers)
        return {"live": live, "ready": ready, "timers": timers,
                "spawned": self.spawned, "completed": self.completed,
                "switches": self.switches, "timer_fires": self.timer_fires,
                "task_errors": self.task_errors,
                "running": self.running}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Scheduler({self.name!r}, live={len(self._live)})"

