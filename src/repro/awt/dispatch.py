"""Event dispatching: centralized (Figure 2) vs per-application (Figure 4).

The paper's Feature 7 problem: in the classic JVM "a centralized event
dispatcher thread will pick up events from that queue and call the
appropriate methods", so when Alice and Bob run the same editor "the very
same thread will execute the very same code.  Thus, there is no way of
distinguishing between the two cases."

* :class:`CentralizedDispatcher` reproduces the classic design, including
  footnote 5's quirk: "Whichever application happens to open a window first
  would implicitly start the event dispatcher" — the dispatcher thread is
  created on demand **in whatever thread group is current**.
* :class:`PerApplicationDispatcher` is the paper's redesign (Section 5.4):
  one event queue per application, dispatched by a *non-daemon* thread
  created inside that application's own thread group — so the code that
  runs in response to Alice's click runs as one of Alice's threads, and
  "each application's event dispatching is now independent from other
  applications".
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.awt.events import (
    AWTEvent,
    EventQueue,
    InvocationEvent,
    PaintEvent,
)
from repro.jvm.threads import JThread, ThreadGroup
from repro.security.policy import PHASE_STEADY


def coalesce_repaints(batch: list) -> tuple:
    """Last-writer-wins repaint coalescing within one dispatch batch.

    For each component, only the batch's *final* :class:`PaintEvent`
    survives (keyed by event type and source identity, so a subclassed
    paint event never swallows a plain one).  Dropping the superseded
    repaints is safe because painting is idempotent and the last request
    already reflects the component's final state; everything that is not
    a paint event keeps its exact position and ordering.

    Returns ``(events_to_dispatch, dropped_count)``.
    """
    last: dict = {}
    paints = 0
    for index, event in enumerate(batch):
        if isinstance(event, PaintEvent):
            paints += 1
            last[(type(event), id(event.source))] = index
    if paints <= len(last):
        return batch, 0
    kept = [event for index, event in enumerate(batch)
            if not isinstance(event, PaintEvent)
            or last[(type(event), id(event.source))] == index]
    return kept, len(batch) - len(kept)


class EventDispatchThread:
    """A thread that drains one event queue until the queue closes.

    When a telemetry ``hub`` is supplied, every drained event feeds the
    per-application ``awt.dispatch.latency_s`` histogram (post-to-dispatch
    time, via the ``_posted_ns`` stamp the dispatchers set) and the
    ``awt.events.dispatched`` counter; with tracing on, each dispatch is
    an ``awt.dispatch`` span.
    """

    def __init__(self, queue: EventQueue, group: ThreadGroup, name: str,
                 daemon: bool = False, error_sink=None,
                 hub=None, app_label: Optional[str] = None):
        self.queue = queue
        self._error_sink = error_sink
        self._hub = hub
        self._app_label = app_label
        #: label -> (latency histogram, dispatched counter); the dispatch
        #: loop must not pay a registry lookup per event.
        self._instruments: dict = {}
        self.thread = JThread(target=self._loop, name=name, group=group,
                              daemon=daemon)

    def start(self) -> "EventDispatchThread":
        self.thread.start()
        return self

    def _label_for(self, event: AWTEvent) -> str:
        application = event.application
        if application is not None:
            return application.name
        return self._app_label or "system"

    def _instruments_for(self, label: str):
        pair = self._instruments.get(label)
        if pair is None:
            metrics = self._hub.metrics
            pair = (metrics.histogram("awt.dispatch.latency_s", app=label),
                    metrics.counter("awt.events.dispatched", app=label))
            self._instruments[label] = pair
        return pair

    def _batch_counters(self):
        hub = self._hub
        if hub is None:
            return None, None
        label = self._app_label or "system"
        return (hub.metrics.counter("awt.dispatch.batched", app=label),
                hub.metrics.counter("awt.repaint.coalesced", app=label))

    def _dispatch_batch(self, batch, batched, coalesced) -> None:
        hub = self._hub
        tracer = hub.tracer if hub is not None else None
        batch, dropped = coalesce_repaints(batch)
        if hub is not None:
            if len(batch) > 1:
                # Events beyond the first rode along on one wakeup.
                batched.inc(len(batch) - 1)
            if dropped:
                coalesced.inc(dropped)
        for event in batch:
            span = None
            if hub is not None:
                label = self._label_for(event)
                latency, dispatched = self._instruments_for(label)
                posted = event._posted_ns
                if posted is not None:
                    latency.observe(
                        (time.monotonic_ns() - posted) / 1e9)
                dispatched.inc()
                if tracer.recording:
                    span = tracer.span("awt.dispatch", app=label,
                                       event=type(event).__name__)
            try:
                event.dispatch()
            except BaseException as exc:  # noqa: BLE001 - EDT survives
                if span is not None:
                    span.set(error=type(exc).__name__)
                if self._error_sink is not None:
                    self._error_sink(event, exc)
            finally:
                if span is not None:
                    span.end()

    def _loop(self) -> None:
        batched, coalesced = self._batch_counters()
        while True:
            batch = self.queue.drain_events()
            if batch is None:
                return
            self._dispatch_batch(batch, batched, coalesced)

    def shutdown(self) -> None:
        self.queue.close()

    def join(self, timeout: Optional[float] = None) -> None:
        self.thread.join(timeout)


class Dispatcher:
    """Common dispatcher interface used by the toolkit."""

    def post(self, event: AWTEvent) -> None:
        raise NotImplementedError

    def invoke_later(self, runnable, application=None) -> InvocationEvent:
        event = InvocationEvent(runnable)
        event.application = application
        self.post(event)
        return event

    def invoke_and_wait(self, runnable, application=None,
                        timeout: float = 5.0) -> None:
        event = self.invoke_later(runnable, application)
        event.await_completion(timeout)
        if event.exception is not None:
            raise event.exception

    def shutdown(self) -> None:
        raise NotImplementedError


class CentralizedDispatcher(Dispatcher):
    """One queue, one dispatcher thread for *all* applications (Figure 2)."""

    def __init__(self, vm, error_sink=None):
        self.vm = vm
        self.queue = EventQueue("awt-global")
        self._edt: Optional[EventDispatchThread] = None
        self._lock = threading.Lock()
        self._error_sink = error_sink
        self._depth_gauge = vm.telemetry.metrics.gauge(
            "awt.queue.depth", app="global")
        #: The group the EDT ended up in (observable footnote-5 behaviour).
        self.edt_group: Optional[ThreadGroup] = None

    def _ensure_edt(self) -> None:
        with self._lock:
            if self._edt is not None:
                return
            # Footnote 5: the dispatcher starts in whatever group happens
            # to be current when the first window is opened.
            current = JThread.current_or_none()
            group = current.group if current is not None else \
                self.vm.main_group
            self.edt_group = group
            self._edt = EventDispatchThread(
                self.queue, group, "AWT-EventDispatch", daemon=False,
                error_sink=self._error_sink, hub=self.vm.telemetry,
                app_label="global").start()

    def post(self, event: AWTEvent) -> None:
        self._ensure_edt()
        event._posted_ns = time.monotonic_ns()
        # Depth of the single shared queue (Figure 2's bottleneck).
        self._depth_gauge.set(self.queue.post_event(event))

    @property
    def started(self) -> bool:
        return self._edt is not None

    def shutdown(self) -> None:
        with self._lock:
            edt = self._edt
        if edt is not None:
            edt.shutdown()
            edt.join(2.0)


class PerApplicationDispatcher(Dispatcher):
    """One queue and one dispatcher thread per application (Figure 4)."""

    def __init__(self, vm, error_sink=None):
        self.vm = vm
        self._lock = threading.Lock()
        self._error_sink = error_sink
        #: label -> queue-depth gauge (one per application + "system").
        self._depth_gauges: dict = {}
        #: Events whose application cannot be determined fall back to a
        #: system queue drained by a daemon thread in the system group.
        self._system_queue: Optional[EventQueue] = None
        self._system_edt: Optional[EventDispatchThread] = None

    def ensure_application_dispatcher(self, application) -> EventQueue:
        """Create the application's queue + EDT on first use (Section 5.4).

        "The per-application event dispatcher threads ... are created on
        demand.  Whenever an application first opens a window, we create an
        event dispatcher thread for this application.  Since that thread is
        a non-daemon thread, we now have the same semantics for
        application-exit that we had before."
        """
        with self._lock:
            if application.event_queue is None:
                queue = EventQueue(f"awt-{application.name}")
                # Per-application EDTs keep dedicated OS threads even when
                # the application's main runs as a scheduler task: event
                # handlers are arbitrary code that may block, and the
                # Section 5.4 responsiveness claim (one app's blocked
                # callback must not delay another's clicks) needs
                # preemptive isolation between applications.  The queue
                # itself is a scheduler wait-object, so task code can
                # still consume it via ops.next_event/drain_events.
                edt = EventDispatchThread(
                    queue, application.thread_group,
                    f"AWT-EventDispatch-{application.name}", daemon=False,
                    error_sink=self._error_sink, hub=self.vm.telemetry,
                    app_label=application.name)
                application.event_queue = queue
                application.event_dispatch_thread = edt
                edt.start()
                # First dispatch marks the end of startup: the kernel's
                # init → steady transition for the execution-state MAC.
                application._advance_phase(PHASE_STEADY, strict=False)
            return application.event_queue

    def _ensure_system_edt(self) -> EventQueue:
        with self._lock:
            if self._system_queue is None:
                self._system_queue = EventQueue("awt-system")
                self._system_edt = EventDispatchThread(
                    self._system_queue, self.vm.root_group,
                    "AWT-EventDispatch-system", daemon=True,
                    error_sink=self._error_sink, hub=self.vm.telemetry,
                    app_label="system").start()
            return self._system_queue

    def post(self, event: AWTEvent) -> None:
        application = event.application
        if application is not None and not application.terminated:
            queue = self.ensure_application_dispatcher(application)
            label = application.name
        else:
            queue = self._ensure_system_edt()
            label = "system"
        gauge = self._depth_gauges.get(label)
        if gauge is None:
            gauge = self.vm.telemetry.metrics.gauge("awt.queue.depth",
                                                    app=label)
            self._depth_gauges[label] = gauge
        event._posted_ns = time.monotonic_ns()
        # Per-application queue depth (Figure 4: independent queues).
        gauge.set(queue.post_event(event))

    def shutdown_application(self, application) -> None:
        """Close an application's queue (reaper teardown path)."""
        edt = application.event_dispatch_thread
        if edt is not None:
            edt.shutdown()

    def shutdown(self) -> None:
        with self._lock:
            edt = self._system_edt
        if edt is not None:
            edt.shutdown()
            edt.join(2.0)
