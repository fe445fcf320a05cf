"""Perf gates for the event-loop scheduler (the ``perf`` marker).

Two gates keep the continuation-task fast path honest:

* a within-run ratio gate — task switches on one scheduler must clearly
  beat OS-thread condvar hand-offs at the same worker count, measured
  back to back in this very process;
* a cross-run gate — task-switch throughput must stay within a generous
  factor of the best non-smoke ``task_switches_per_s`` recorded in
  ``BENCH_sched.json`` by full benchmark runs.  Skipped until a full
  run has seeded a baseline.

Margins are loose on purpose (the bench itself asserts the x10 claim;
these gates watch for integer-factor collapses like a lost fast path or
an accidental lock in the switch loop).
"""

import sys
import threading
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from _common import bench_baseline  # noqa: E402

from repro.jvm.threads import JThread, ThreadGroup  # noqa: E402
from repro.sched import Scheduler, sched_yield  # noqa: E402

pytestmark = pytest.mark.perf

WORKERS = 8
ROUNDS = 500
RETRIES = 3


def _task_switches_per_s() -> float:
    """WORKERS tasks round-robining ROUNDS yields each; switches/s."""
    scheduler = Scheduler(name="gate-sched")
    scheduler.start()
    try:
        def body():
            for _ in range(ROUNDS):
                yield sched_yield()

        start = time.perf_counter()
        tasks = [scheduler.spawn(body) for _ in range(WORKERS)]
        assert all(task.join(30) for task in tasks)
        elapsed = time.perf_counter() - start
    finally:
        scheduler.shutdown()
    return WORKERS * ROUNDS / elapsed


def _thread_switches_per_s() -> float:
    """WORKERS/2 condvar ping-pong pairs doing the same switch count."""
    root = ThreadGroup(None, "system")

    class Game:
        def __init__(self):
            self.cond = threading.Condition()
            self.turn = 0
            self.rounds = 0

        def run(self, me, other):
            with self.cond:
                while self.rounds < ROUNDS:
                    while self.turn != me and self.rounds < ROUNDS:
                        self.cond.wait(1.0)
                    if self.rounds >= ROUNDS:
                        break
                    self.turn = other
                    self.rounds += 1
                    self.cond.notify_all()

    games = [Game() for _ in range(WORKERS // 2)]
    threads = []
    for game in games:
        threads.append(JThread(target=game.run, args=(0, 1), group=root))
        threads.append(JThread(target=game.run, args=(1, 0), group=root))
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    elapsed = time.perf_counter() - start
    assert all(game.rounds >= ROUNDS for game in games)
    return (WORKERS // 2) * ROUNDS * 2 / elapsed


def test_task_vs_thread_switch_within_ratio():
    """Within-run gate: task switching >= 4x OS-thread hand-offs."""
    best_ratio = 0.0
    for _ in range(RETRIES):
        thread_rate = _thread_switches_per_s()
        task_rate = _task_switches_per_s()
        best_ratio = max(best_ratio, task_rate / thread_rate)
        if best_ratio >= 4.0:
            break
    assert best_ratio >= 4.0, (
        f"the scheduler no longer clearly beats OS-thread hand-offs: "
        f"x{best_ratio:.2f} < 4x")


def test_task_switch_throughput_vs_recorded_baseline():
    """Cross-run gate: today's switches/s vs the best full-run record."""
    baseline = bench_baseline("sched", "context_switch",
                              "task_switches_per_s", best="max")
    if baseline is None:
        pytest.skip("no non-smoke baseline in BENCH_sched.json yet "
                    "(run benchmarks/bench_context_switch.py once)")
    measured = max(_task_switches_per_s() for _ in range(RETRIES))
    # 0.4x of the best-ever record: gate batches are 4x smaller than the
    # bench's and share the suite's scheduler noise.
    assert measured >= baseline * 0.4, (
        f"task-switch throughput collapsed: {measured:.0f}/s vs "
        f"recorded best {baseline:.0f}/s (0.4x gate)")
