"""The AWT toolkit: the JVM's connection to the (simulated) X server.

Two behaviours of the classic JVM are reproduced and then fixed, following
Sections 3.2, 4 (Features 6/7) and 5.4:

* **X connection thread placement.**  Classic mode starts the thread that
  communicates with the X server "in whatever thread group happens to be
  current when the need for them arises"; the multi-processing mode places
  it in the *system* thread group, since it "does not belong to any
  application".
* **Event routing.**  Classic (``CENTRALIZED``) mode funnels every event
  into one global queue drained by one dispatcher thread (Figure 2);
  multi-processing (``PER_APPLICATION``) mode looks up the window's owning
  application and posts to that application's own queue (Figure 4).
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.awt.components import Window
from repro.awt.dispatch import (
    DISPATCH_COUNTERS,
    CentralizedDispatcher,
    Dispatcher,
    PerApplicationDispatcher,
)
from repro.awt.events import (
    ActionEvent,
    AWTEvent,
    KeyEvent,
    MouseEvent,
    WindowEvent,
)
from repro.awt.xserver import XConnection, XServer
from repro.jvm.errors import IllegalArgumentException
from repro.jvm.threads import JThread

CENTRALIZED = "centralized"
PER_APPLICATION = "per-application"


class Toolkit:
    """One JVM's windowing toolkit.

    Created by the launcher; ``dispatch_mode`` selects between the paper's
    baseline (Figure 2) and its redesign (Figure 4), and
    ``legacy_thread_placement`` selects where the X-connection thread is
    created (the Feature 6 bug vs. the Section 5.4 fix).
    """

    def __init__(self, vm, xserver: Optional[XServer] = None,
                 dispatch_mode: str = PER_APPLICATION,
                 legacy_thread_placement: bool = False):
        if dispatch_mode not in (CENTRALIZED, PER_APPLICATION):
            raise IllegalArgumentException(
                f"unknown dispatch mode {dispatch_mode!r}")
        self.vm = vm
        self.xserver = xserver if xserver is not None else XServer()
        self.dispatch_mode = dispatch_mode
        self.legacy_thread_placement = legacy_thread_placement
        self.connection = XConnection(f"jvm-{vm.os_context.pid}")
        self.dispatcher: Dispatcher = (
            CentralizedDispatcher(vm, error_sink=self._dispatch_error)
            if dispatch_mode == CENTRALIZED
            else PerApplicationDispatcher(
                vm, error_sink=self._dispatch_error))
        self._windows: dict[int, Window] = {}
        self._x_thread: Optional[JThread] = None
        self._lock = threading.RLock()
        #: Where the X thread was created (observable for the F6 tests).
        self.x_thread_group = None
        for name in DISPATCH_COUNTERS:
            vm.telemetry.metrics.counter(name)
        vm.toolkit = self

    # -- the X connection thread (started on demand, Section 5.4) --------------------

    def _ensure_x_thread(self) -> None:
        with self._lock:
            if self._x_thread is not None:
                return
            if self.legacy_thread_placement:
                # Feature 6 bug: "certain threads that the runtime system
                # creates on behalf of the user (e.g., the thread that
                # communicates with the X server) are created in whatever
                # thread group happens to be current".
                current = JThread.current_or_none()
                group = current.group if current is not None \
                    else self.vm.root_group
            else:
                # Section 5.4 fix: "we changed the runtime system so that
                # these threads are created in a special system thread
                # group, which does not belong to any application."
                group = self.vm.root_group
            self.x_thread_group = group
            # System code placing its thread into the system group acts
            # with its own (full) privileges, like toolkit doPrivileged.
            from repro.security import access

            def spawn():
                thread = JThread(target=self._x_loop,
                                 name="AWT-XConnection", group=group,
                                 daemon=True)
                thread.start()
                return thread

            self._x_thread = access.do_privileged_system(spawn)

    def _x_loop(self) -> None:
        """Receive wire messages from the X server, translate, route."""
        while True:
            message = self.connection.receive()
            if message is None:
                return
            try:
                event = self._translate(message)
            except IllegalArgumentException:
                continue  # window vanished; drop the event like X does
            if event is not None:
                self.dispatcher.post(event)

    def _translate(self, message: dict) -> Optional[AWTEvent]:
        with self._lock:
            window = self._windows.get(message["window"])
        if window is None:
            return None
        component = window
        component_name = message.get("component")
        if component_name is not None:
            found = window.find(component_name)
            if found is None:
                return None
            component = found
        kind = message["type"]
        if kind == "key":
            event: AWTEvent = KeyEvent(component, message["char"])
        elif kind == "mouse":
            event = MouseEvent(component, message.get("x", 0),
                               message.get("y", 0))
        elif kind == "action":
            event = ActionEvent(component, message["command"])
        elif kind == "window-closing":
            event = WindowEvent(window, WindowEvent.CLOSING)
        else:
            return None
        # Section 5.4: "When an event occurs in a GUI element, the enclosing
        # window and its application are found."
        event.application = window.application
        return event

    def _dispatch_error(self, event: AWTEvent, exc: BaseException) -> None:
        self.vm.report_uncaught(JThread.current_or_none(), exc)

    # -- window registry -----------------------------------------------------------

    def register_window(self, window: Window) -> None:
        """A window is shown: note its owning application (Section 5.4)."""
        sm = self.vm.security_manager
        if sm is not None:
            sm.check_top_level_window(window)
        self._ensure_x_thread()
        from repro.core.context import current_application_or_none
        application = current_application_or_none()
        window_id = self.xserver.create_window(self.connection, window.title)
        with self._lock:
            window.toolkit = self
            window.window_id = window_id
            window.application = application
            self._windows[window_id] = window
        if application is not None:
            application.register_window(window)
            # Section 5.4: "Whenever an application first opens a window,
            # we create an event dispatcher thread for this application."
            if isinstance(self.dispatcher, PerApplicationDispatcher):
                self.dispatcher.ensure_application_dispatcher(application)

    def unregister_window(self, window: Window) -> None:
        with self._lock:
            if window.window_id is not None:
                self._windows.pop(window.window_id, None)
        if window.window_id is not None:
            self.xserver.destroy_window(window.window_id)
        if window.application is not None:
            window.application.unregister_window(window)

    def record_draw(self, window: Window, op: dict) -> None:
        if window.window_id is not None:
            self.xserver.record_draw(window.window_id, op)

    def windows_of(self, application) -> list[Window]:
        with self._lock:
            return [w for w in self._windows.values()
                    if w.application is application]

    def close_windows_of(self, application) -> None:
        """Reaper path (Section 5.1): "close all windows that are
        associated with the application"."""
        for window in self.windows_of(application):
            window.dispose()
        if isinstance(self.dispatcher, PerApplicationDispatcher):
            self.dispatcher.shutdown_application(application)

    # -- conveniences -------------------------------------------------------------------

    def invoke_later(self, runnable, application=None):
        return self.dispatcher.invoke_later(runnable, application)

    def invoke_and_wait(self, runnable, application=None,
                        timeout: float = 5.0) -> None:
        self.dispatcher.invoke_and_wait(runnable, application, timeout)

    def window_id_by_title(self, title: str) -> Optional[int]:
        return self.xserver.find_window(title)

    def shutdown(self) -> None:
        self.dispatcher.shutdown()
        self.connection.close()
        if self._x_thread is not None:
            self._x_thread.join(2.0)
