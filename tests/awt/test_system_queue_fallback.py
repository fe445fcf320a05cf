"""Events without a resolvable application fall back to the system EDT."""

import threading
import time

from repro.awt.events import AWTEvent, InvocationEvent
from repro.core.execspec import ExecSpec


def test_invoke_later_without_application_uses_system_queue(mvm):
    done = threading.Event()
    names = []

    def runnable():
        from repro.jvm.threads import JThread
        names.append(JThread.current().name)
        done.set()

    mvm.toolkit.invoke_later(runnable, application=None)
    assert done.wait(5)
    assert names == ["AWT-EventDispatch-system"]


def test_events_for_terminated_application_rerouted(host, register_app):
    """An event that races an application's death must not be lost in a
    closed queue — it lands on the system dispatcher instead."""
    from repro.jvm.threads import JThread

    def main(jclass, ctx, args):
        JThread.sleep(30.0)
        return 0

    app = host.launch(ExecSpec(register_app("DyingApp", main)))
    app.destroy()
    app.wait_for(5)
    event = InvocationEvent(lambda: None)
    event.application = app  # stale reference, already terminated
    host.toolkit.dispatcher.post(event)
    assert event.await_completion(5)


def test_invoke_and_wait_timeout_does_not_raise(mvm):
    import threading as _threading
    blocker = _threading.Event()
    mvm.toolkit.invoke_later(lambda: blocker.wait(0.3), application=None)
    # A second invocation queued behind it still completes.
    done = _threading.Event()
    mvm.toolkit.invoke_and_wait(done.set, application=None, timeout=5.0)
    assert done.is_set()
    blocker.set()
