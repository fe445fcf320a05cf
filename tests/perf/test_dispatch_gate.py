"""Perf gates for batched AWT dispatch (the ``perf`` marker).

* a within-run gate — a paint storm aimed at a handful of components
  must coalesce repaints (last-writer-wins per component), the directly
  observable effect of batched drain;
* a cross-run gate — burst dispatch throughput must stay within a
  generous factor of the best non-smoke ``events_s`` recorded in
  ``BENCH_dispatch.json`` by full benchmark runs.  Skipped until a full
  run has seeded a baseline.
"""

import sys
import threading
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from _common import bench_baseline  # noqa: E402

from repro.awt.dispatch import EventDispatchThread  # noqa: E402
from repro.awt.events import (  # noqa: E402
    ActionEvent,
    EventQueue,
    PaintEvent,
)
from repro.jvm.threads import ThreadGroup  # noqa: E402

pytestmark = pytest.mark.perf

BURST_EVENTS = 2000
RETRIES = 3


class _CountingComponent:
    def __init__(self):
        self.paints = 0
        self.done = threading.Event()

    def process_event(self, event):
        if isinstance(event, PaintEvent):
            self.paints += 1
        if getattr(event, "command", None) == "sentinel":
            self.done.set()


def _burst() -> tuple[float, int, int]:
    """(events/s, repaints posted, repaints executed) for one storm."""
    root = ThreadGroup(None, "system")
    queue = EventQueue("gate-burst")
    components = [_CountingComponent() for _ in range(4)]
    edt = EventDispatchThread(queue, root, "gate-edt", daemon=True)
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


def test_paint_storm_coalesces():
    """Within-run gate: batched drain must drop superseded repaints."""
    for _ in range(RETRIES):
        _, posted, executed = _burst()
        if executed < posted:
            return
    pytest.fail(
        f"no repaint coalescing observed: {executed}/{posted} executed "
        f"across {RETRIES} paint storms at 4 components")


def test_burst_dispatch_vs_recorded_baseline():
    """Cross-run gate: today's events/s vs the best full-run record."""
    baseline = bench_baseline("dispatch", "burst_dispatch", "events_s",
                              best="max")
    if baseline is None:
        pytest.skip("no non-smoke baseline in BENCH_dispatch.json yet "
                    "(run benchmarks/bench_dispatch.py once)")
    measured = max(_burst()[0] for _ in range(RETRIES))
    # 0.4x of the best-ever record: same rationale as the ipc gate.
    assert measured >= baseline * 0.4, (
        f"burst dispatch throughput collapsed: {measured:.0f} events/s "
        f"vs recorded best {baseline:.0f} events/s (0.4x gate)")
