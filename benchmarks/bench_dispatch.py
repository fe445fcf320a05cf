"""Experiment C3 / F2 / F4 — event dispatching: centralized vs per-app.

Section 5.4: "This redesign also improves responsiveness, as each
application's event dispatching is now independent from other
applications."

Two measurements per dispatch mode:

* round-trip latency of a click (X server -> toolkit -> queue ->
  dispatcher -> listener) with an idle system;
* **responsiveness under load**: application A's callback blocks for
  ``BLOCK_S`` seconds; we measure how long application B's click takes to
  be delivered.  Centralized: ~BLOCK_S (head-of-line blocking).
  Per-application: unaffected.
"""

import os
import sys
import threading
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

import pytest  # noqa: E402

from _common import banner, record_bench, register_main  # noqa: E402

from repro.awt.components import Button, Frame  # noqa: E402
from repro.awt.dispatch import EventDispatchThread  # noqa: E402
from repro.awt.events import (  # noqa: E402
    ActionEvent,
    EventQueue,
    PaintEvent,
)
from repro.awt.toolkit import CENTRALIZED, PER_APPLICATION  # noqa: E402
from repro.core.execspec import ExecSpec  # noqa: E402
from repro.core.launcher import MultiProcVM  # noqa: E402
from repro.jvm.threads import JThread, ThreadGroup  # noqa: E402

#: REPRO_BENCH_N scales every series (smoke runs force it tiny).
BENCH_N = int(os.environ.get("REPRO_BENCH_N", "0"))
SMOKE = bool(BENCH_N)

BLOCK_S = 0.25
BURST_EVENTS = (BENCH_N * 20) if BENCH_N else 10000


class GuiProbe:
    """A GUI application exposing a clickable button to the bench."""

    def __init__(self, mvm, name, on_click=None):
        self.name = name
        self.clicked = threading.Event()
        self.on_click = on_click
        class_name = register_main(mvm.vm, f"Gui{name}", self._main)
        self.app = mvm.launch(ExecSpec(class_name))
        deadline = time.monotonic() + 5
        self.window_id = None
        while time.monotonic() < deadline and self.window_id is None:
            self.window_id = mvm.toolkit.xserver.find_window(
                f"win-{name}")
            time.sleep(0.005)
        assert self.window_id is not None
        self.xserver = mvm.toolkit.xserver

    def _main(self, jclass, ctx, args):
        frame = Frame(f"win-{self.name}", name=f"frame-{self.name}")
        button = Button("Go", name=f"button-{self.name}")

        def handler(event):
            if self.on_click is not None:
                self.on_click(event)
            self.clicked.set()

        button.add_action_listener(handler)
        frame.add(button)
        frame.show(ctx.vm.toolkit)
        JThread.sleep(3600.0)
        return 0

    def click_and_wait(self, timeout=10.0) -> float:
        self.clicked.clear()
        start = time.perf_counter()
        self.xserver.click_component(self.window_id, f"button-{self.name}")
        assert self.clicked.wait(timeout)
        return time.perf_counter() - start

    def close(self):
        self.app.destroy()
        self.app.wait_for(5)


def _measure_blocked_latency(mode: str) -> tuple[float, float]:
    """(idle latency, latency while the other app's callback blocks)."""
    mvm = MultiProcVM.boot(dispatch_mode=mode)
    try:
        with mvm.host_session():
            blocker = GuiProbe(mvm, "blocker",
                               on_click=lambda e: time.sleep(BLOCK_S))
            victim = GuiProbe(mvm, "victim")
            idle = victim.click_and_wait()
            # Fire the blocking callback, then immediately click B.
            blocker.clicked.clear()
            blocker.xserver.click_component(blocker.window_id,
                                            "button-blocker")
            time.sleep(0.02)  # let A's dispatcher pick the event up
            blocked = victim.click_and_wait()
            blocker.clicked.wait(10)
            blocker.close()
            victim.close()
            return idle, blocked
    finally:
        mvm.shutdown()


class _CountingComponent:
    """A bare event sink: counts deliveries, flags the sentinel event."""

    def __init__(self):
        self.dispatched = 0
        self.paints = 0
        self.done = threading.Event()

    def process_event(self, event):
        self.dispatched += 1
        if isinstance(event, PaintEvent):
            self.paints += 1
        if getattr(event, "command", None) == "sentinel":
            self.done.set()


def _burst_dispatch() -> tuple[float, int, int]:
    """Post a BURST_EVENTS storm straight at one EDT.

    Mixed burst: three repaints per action event, all aimed at a handful
    of components — the shape of a remote-playground paint storm.
    Returns (events/s wall-clock, repaints posted, repaints executed).
    """
    root = ThreadGroup(None, "system")
    queue = EventQueue("bench-burst")
    components = [_CountingComponent() for _ in range(4)]
    edt = EventDispatchThread(queue, root, "bench-edt", daemon=True)
    edt.start()
    repaints = 0
    start = time.perf_counter()
    for index in range(BURST_EVENTS):
        component = components[index % len(components)]
        if index % 4:
            queue.post_event(PaintEvent(component))
            repaints += 1
        else:
            queue.post_event(ActionEvent(component, "go"))
    sentinel = components[0]
    queue.post_event(ActionEvent(sentinel, "sentinel"))
    assert sentinel.done.wait(30)
    elapsed = time.perf_counter() - start
    edt.shutdown()
    edt.join(5)
    executed = sum(component.paints for component in components)
    return (BURST_EVENTS + 1) / elapsed, repaints, executed


def test_bench_event_burst_dispatch(benchmark):
    """C3-burst: batched drain + repaint coalescing under a paint storm."""
    benchmark.pedantic(_burst_dispatch, rounds=5, iterations=1,
                       warmup_rounds=1)
    events_s, posted, executed = _burst_dispatch()
    for _ in range(4):  # best-of, same as the other series
        candidate = _burst_dispatch()
        if candidate[0] > events_s:
            events_s, posted, executed = candidate
    coalesce_ratio = executed / posted if posted else 1.0
    print(banner("C3-burst: event storm through one dispatcher"))
    print(f"events dispatched:            {events_s:10.0f} events/s")
    print(f"repaints executed/posted:     {executed}/{posted} "
          f"({coalesce_ratio:0.3f})")
    record_bench("dispatch", {
        "bench": "burst_dispatch", "events": BURST_EVENTS, "smoke": SMOKE,
        "events_s": events_s, "repaints_posted": posted,
        "repaints_executed": executed,
        "paint_coalesce_ratio": coalesce_ratio})
    if not SMOKE:
        assert coalesce_ratio < 1.0, (
            "a paint storm at 4 components must coalesce some repaints")


@pytest.mark.parametrize("mode", [CENTRALIZED, PER_APPLICATION])
def test_bench_dispatch_round_trip(benchmark, mode):
    mvm = MultiProcVM.boot(dispatch_mode=mode)
    try:
        with mvm.host_session():
            probe = GuiProbe(mvm, "latency")
            benchmark.pedantic(probe.click_and_wait, rounds=50,
                               iterations=1, warmup_rounds=5)
            probe.close()
    finally:
        mvm.shutdown()
    print(banner(f"C3: idle event round-trip, {mode}"))
    print(f"mean: {benchmark.stats.stats.mean * 1e6:8.1f} us")


def test_bench_responsiveness_isolation(benchmark):
    """The headline C3 comparison (printed table + shape assertions)."""
    def measure_both():
        central = _measure_blocked_latency(CENTRALIZED)
        per_app = _measure_blocked_latency(PER_APPLICATION)
        return central, per_app

    (central_idle, central_blocked), (per_idle, per_blocked) = \
        benchmark.pedantic(measure_both, rounds=3, iterations=1)
    print(banner("C3: B's event latency while A's callback blocks "
                 f"for {BLOCK_S * 1000:.0f} ms"))
    print(f"{'mode':<18s}{'idle':>12s}{'under load':>14s}")
    print(f"{'centralized':<18s}{central_idle * 1000:>10.1f} ms"
          f"{central_blocked * 1000:>12.1f} ms")
    print(f"{'per-application':<18s}{per_idle * 1000:>10.1f} ms"
          f"{per_blocked * 1000:>12.1f} ms")
    print(f"responsiveness advantage under load: "
          f"x{central_blocked / max(per_blocked, 1e-9):0.0f}")
    # Shape assertions, per the paper's claim.
    assert central_blocked >= BLOCK_S * 0.8, \
        "centralized dispatch must suffer head-of-line blocking"
    assert per_blocked < BLOCK_S / 2, \
        "per-application dispatch must be unaffected by A's block"
