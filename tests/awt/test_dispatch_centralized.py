"""Experiment F2: the classic centralized event dispatching of Figure 2.

"Note that all callbacks are called from a single event dispatcher
thread." — including callbacks belonging to *different* applications,
which is exactly the Feature 7 problem.
"""

import pytest

from repro.awt.components import Button, Frame
from repro.awt.toolkit import CENTRALIZED
from repro.core.execspec import ExecSpec
from repro.core.launcher import MultiProcVM
from repro.jvm.threads import JThread
from repro.tools.terminal import TerminalDevice  # noqa: F401


@pytest.fixture
def mvm_central():
    booted = MultiProcVM.boot(dispatch_mode=CENTRALIZED)
    yield booted
    booted.shutdown()


def gui_app(register, name):
    """An app that opens a window with a button and records callbacks."""
    record = {"events": [], "threads": [], "apps": []}

    def main(jclass, ctx, args):
        frame = Frame(f"win-{name}", name=f"frame-{name}")
        button = Button("Go", name=f"button-{name}")

        def on_action(event):
            from repro.core.context import current_application_or_none
            record["events"].append(event.command)
            record["threads"].append(JThread.current())
            record["apps"].append(current_application_or_none())

        button.add_action_listener(on_action)
        frame.add(button)
        frame.show(ctx.vm.toolkit)
        while not record["events"] or len(record["events"]) < 1:
            JThread.sleep(0.01)
        frame.dispose()
        return 0

    return record, main


def wait_for(predicate, timeout=5.0):
    import time
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def test_single_thread_dispatches_all_applications(mvm_central):
    from tests.conftest import make_app
    with mvm_central.host_session():
        record_a, main_a = gui_app(None, "a")
        record_b, main_b = gui_app(None, "b")
        class_a = make_app(mvm_central.vm, "GuiA", main_a)
        class_b = make_app(mvm_central.vm, "GuiB", main_b)
        app_a = mvm_central.launch(ExecSpec(class_a))
        app_b = mvm_central.launch(ExecSpec(class_b))
        xserver = mvm_central.toolkit.xserver
        assert wait_for(lambda: xserver.find_window("win-a") is not None)
        assert wait_for(lambda: xserver.find_window("win-b") is not None)
        xserver.click_component(xserver.find_window("win-a"), "button-a")
        xserver.click_component(xserver.find_window("win-b"), "button-b")
        assert app_a.wait_for(5) == 0
        assert app_b.wait_for(5) == 0
        # Figure 2: the very same thread executed both callbacks.
        assert record_a["threads"][0] is record_b["threads"][0]
        assert record_a["threads"][0].name == "AWT-EventDispatch"


def test_feature7_dispatcher_thread_belongs_to_no_application(mvm_central):
    """Feature 7: with centralized dispatch, "code that is executed as the
    result of user input is executed by a thread that does not belong to
    any particular application" — so there is no way to attribute Alice's
    Save-File callback to Alice."""
    from tests.conftest import make_app
    with mvm_central.host_session():
        record_b, main_b = gui_app(None, "b")
        class_b = make_app(mvm_central.vm, "GuiB", main_b)
        app_b = mvm_central.launch(ExecSpec(class_b))
        xserver = mvm_central.toolkit.xserver
        assert wait_for(lambda: xserver.find_window("win-b") is not None)
        xserver.click_component(xserver.find_window("win-b"), "button-b")
        assert app_b.wait_for(5) == 0
        callback_app = record_b["apps"][0]
        assert callback_app is not app_b, \
            "the bug: B's callback did not run as application B"
        assert callback_app is None, \
            "the dispatcher thread belongs to no application at all"


def test_centralized_edt_started_on_demand(mvm_central):
    from repro.awt.dispatch import CentralizedDispatcher
    dispatcher = mvm_central.toolkit.dispatcher
    assert isinstance(dispatcher, CentralizedDispatcher)
    assert not dispatcher.started
