"""Experiment F4/C3: per-application event dispatching (Section 5.4).

"When an event occurs in a GUI element, the enclosing window and its
application are found.  Then, the AWT event is put on the particular event
queue of that application, where it will be picked up and dispatched by a
thread that belongs to that application."
"""

import time

from repro.awt.components import Button, Frame
from repro.core.context import current_application_or_none
from repro.core.execspec import ExecSpec
from repro.jvm.threads import JThread


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def gui_app(name, on_click=None, exits_itself=True):
    """App material: a frame + button; records the callback's identity."""
    record = {"commands": [], "threads": [], "apps": []}

    def main(jclass, ctx, args):
        frame = Frame(f"win-{name}", name=f"frame-{name}")
        button = Button("Go", name=f"button-{name}")

        def handler(event):
            record["commands"].append(event.command)
            record["threads"].append(JThread.current())
            record["apps"].append(current_application_or_none())
            if on_click is not None:
                on_click(event)

        button.add_action_listener(handler)
        frame.add(button)
        frame.show(ctx.vm.toolkit)
        if exits_itself:
            while not record["commands"]:
                JThread.sleep(0.01)
            frame.dispose()
            # Section 5.4: "An application that does use the AWT has to
            # call Application.exit() in order to finish" — the per-app
            # EDT is non-daemon and would keep the application alive.
            from repro.core.application import Application
            Application.exit(0)
        return 0

    return record, main


def test_callback_runs_in_owning_application(host, register_app):
    record, main = gui_app("a")
    class_name = register_app("GuiA", main)
    app = host.launch(ExecSpec(class_name))
    xserver = host.toolkit.xserver
    assert wait_for(lambda: xserver.find_window("win-a") is not None)
    xserver.click_component(xserver.find_window("win-a"), "button-a")
    assert app.wait_for(5) == 0
    assert record["apps"] == [app]
    thread = record["threads"][0]
    assert thread.group is app.thread_group
    assert thread.name == f"AWT-EventDispatch-{app.name}"


def test_each_application_has_its_own_dispatcher(host, register_app):
    record_a, main_a = gui_app("a")
    record_b, main_b = gui_app("b")
    app_a = host.launch(ExecSpec(register_app("GuiA", main_a)))
    app_b = host.launch(ExecSpec(register_app("GuiB", main_b)))
    xserver = host.toolkit.xserver
    assert wait_for(lambda: xserver.find_window("win-a") is not None)
    assert wait_for(lambda: xserver.find_window("win-b") is not None)
    xserver.click_component(xserver.find_window("win-a"), "button-a")
    xserver.click_component(xserver.find_window("win-b"), "button-b")
    assert app_a.wait_for(5) == 0
    assert app_b.wait_for(5) == 0
    assert record_a["threads"][0] is not record_b["threads"][0]
    assert record_a["apps"] == [app_a]
    assert record_b["apps"] == [app_b]


def test_responsiveness_isolation(host, register_app):
    """"This redesign also improves responsiveness, as each application's
    event dispatching is now independent from other applications" — a
    blocking callback in A must not delay B's events."""
    block = {"held": True}

    def slow_click(event):
        while block["held"]:
            JThread.sleep(0.01)

    record_a, main_a = gui_app("a", on_click=slow_click)
    record_b, main_b = gui_app("b")
    app_a = host.launch(ExecSpec(register_app("SlowGui", main_a)))
    app_b = host.launch(ExecSpec(register_app("FastGui", main_b)))
    xserver = host.toolkit.xserver
    assert wait_for(lambda: xserver.find_window("win-a") is not None)
    assert wait_for(lambda: xserver.find_window("win-b") is not None)
    # A's callback blocks...
    xserver.click_component(xserver.find_window("win-a"), "button-a")
    assert wait_for(lambda: record_a["commands"])
    # ... while B's event is still dispatched promptly.
    xserver.click_component(xserver.find_window("win-b"), "button-b")
    assert wait_for(lambda: record_b["commands"], timeout=2.0), \
        "B's dispatching must be independent of A's blocked callback"
    block["held"] = False
    assert app_a.wait_for(5) == 0
    assert app_b.wait_for(5) == 0


def test_edt_is_non_daemon_so_gui_app_needs_explicit_exit(host,
                                                          register_app):
    """Section 5.4: "An application that does use the AWT has to call
    Application.exit() in order to finish" — the per-app EDT is a
    non-daemon thread in the app's group."""
    def main(jclass, ctx, args):
        frame = Frame("win-gui", name="frame-gui")
        frame.show(ctx.vm.toolkit)
        return 0  # main returns, but the EDT keeps the app alive

    app = host.launch(ExecSpec(register_app("StickyGui", main)))
    xserver = host.toolkit.xserver
    assert wait_for(lambda: xserver.find_window("win-gui") is not None)
    # Posting any event creates the EDT; the window registration already
    # did.  The app must NOT terminate on its own...
    assert app.wait_for(0.4) is None
    assert app.state == "running"
    # ... until destroyed explicitly (the Application.exit analogue).
    app.destroy(0)
    assert app.wait_for(5) == 0


def test_window_closed_by_reaper_on_exit(host, register_app):
    """Section 5.1: the reaper closes "all windows that are associated
    with the application"."""
    def main(jclass, ctx, args):
        frame = Frame("win-reaped", name="frame-reaped")
        frame.show(ctx.vm.toolkit)
        JThread.sleep(30.0)
        return 0

    app = host.launch(ExecSpec(register_app("Reaped", main)))
    xserver = host.toolkit.xserver
    assert wait_for(lambda: xserver.find_window("win-reaped") is not None)
    app.destroy()
    app.wait_for(5)
    assert wait_for(lambda: xserver.find_window("win-reaped") is None)


def test_application_of_window_recorded_at_show(host, register_app):
    """Section 5.4: "When an application opens a window, the system makes
    note about which application the window belongs to"."""
    def main(jclass, ctx, args):
        frame = Frame("win-owner", name="frame-owner")
        frame.show(ctx.vm.toolkit)
        JThread.sleep(30.0)
        return 0

    app = host.launch(ExecSpec(register_app("Owner", main)))
    assert wait_for(
        lambda: host.toolkit.window_id_by_title("win-owner") is not None)
    windows = host.toolkit.windows_of(app)
    assert len(windows) == 1
    assert windows[0].application is app
    app.destroy()
    app.wait_for(5)
