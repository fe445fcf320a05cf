"""The unified timing API (timers) and its deprecation shims."""

import threading
import time

import pytest

from repro.jvm.errors import IllegalStateException, InterruptedException
from repro.jvm.threads import JThread, ThreadGroup
from repro.sched import Scheduler, WaitPoint, timers

pytestmark = pytest.mark.sched


@pytest.fixture
def root():
    return ThreadGroup(None, "system")


class TestWaitUntil:
    def test_on_plain_condition(self):
        cond = threading.Condition()
        flag = []

        def release():
            time.sleep(0.05)
            with cond:
                flag.append(1)
                cond.notify_all()

        threading.Thread(target=release, daemon=True).start()
        with cond:
            assert timers.wait_until(cond, lambda: bool(flag), timeout=5)

    def test_on_waitpoint(self):
        wp = WaitPoint()
        flag = []

        def release():
            time.sleep(0.05)
            with wp:
                flag.append(1)
                wp.notify_all()

        threading.Thread(target=release, daemon=True).start()
        with wp:
            assert timers.wait_until(wp, lambda: bool(flag), timeout=5)

    def test_timeout_false(self):
        cond = threading.Condition()
        with cond:
            assert not timers.wait_until(cond, lambda: False, timeout=0.05)

    def test_interruptible(self, root):
        cond = threading.Condition()
        outcome = []

        def body():
            try:
                with cond:
                    timers.wait_until(cond, lambda: False, timeout=30)
            except InterruptedException:
                outcome.append("interrupted")

        thread = JThread(target=body, group=root)
        thread.start()
        time.sleep(0.1)
        thread.interrupt()
        thread.join(5)
        assert outcome == ["interrupted"]


class TestPollUntil:
    def test_polls_to_true(self):
        flag = []
        threading.Timer(0.05, lambda: flag.append(1)).start()
        assert timers.poll_until(lambda: bool(flag), timeout=5)

    def test_timeout(self):
        start = time.monotonic()
        assert not timers.poll_until(lambda: False, timeout=0.05)
        assert time.monotonic() - start < 2


class TestSleep:
    def test_sleeps(self):
        start = time.monotonic()
        timers.sleep(0.05)
        assert time.monotonic() - start >= 0.04


class TestLoopThreadGuard:
    """Blocking an event-loop thread would deadlock every task on it."""

    def test_sleep_refused_on_loop_thread(self):
        sched = Scheduler(name="guard")
        sched.start()
        try:
            def body():
                try:
                    timers.sleep(0.01)
                except IllegalStateException:
                    return "refused"
                yield

            task = sched.spawn(body)
            assert task.join(5)
            assert task.result == "refused"
        finally:
            sched.shutdown()

    def test_jthread_join_refused_on_loop_thread(self, root):
        sched = Scheduler(name="guard-join")
        sched.start()
        try:
            victim = JThread(target=lambda: time.sleep(0.2), group=root)
            victim.start()

            def body():
                try:
                    victim.join(1.0)
                except IllegalStateException:
                    return "refused"
                yield

            task = sched.spawn(body)
            assert task.join(5)
            assert task.result == "refused"
            victim.join(5)
        finally:
            sched.shutdown()


class TestDeprecationShim:
    def test_poll_interval_consistency(self):
        from repro.jvm.threads import POLL_INTERVAL as thread_poll
        assert timers.POLL_INTERVAL == thread_poll
