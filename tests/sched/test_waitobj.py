"""WaitPoint / TaskWaiter / SchedEvent: one parking abstraction."""

import threading
import time

import pytest

from repro.sched import SchedEvent, Scheduler, TaskWaiter, WaitPoint, ops

pytestmark = pytest.mark.sched


class TestTaskWaiter:
    def test_single_shot(self):
        waiter = TaskWaiter()
        hits = []
        waiter.bind_callback(lambda: hits.append(1))
        waiter.fire()
        waiter.fire()
        assert hits == [1]
        assert waiter.fired

    def test_bind_after_fire_delivers_immediately(self):
        waiter = TaskWaiter()
        waiter.fire()
        hits = []
        waiter.bind_callback(lambda: hits.append(1))
        assert hits == [1]


class TestWaitPoint:
    def test_condition_compatibility(self):
        wp = WaitPoint()
        results = []

        def os_waiter():
            with wp:
                while not results:
                    wp.wait(1.0)
                results.append("woke")

        thread = threading.Thread(target=os_waiter, daemon=True)
        thread.start()
        time.sleep(0.05)
        with wp:
            results.append("go")
            wp.notify_all()
        thread.join(5)
        assert results == ["go", "woke"]

    def test_shared_plain_lock(self):
        lock = threading.Lock()
        wp = WaitPoint(lock)
        with wp:
            assert lock.locked()
        assert not lock.locked()

    def test_notify_all_fires_task_waiters(self):
        wp = WaitPoint()
        waiter = TaskWaiter()
        with wp:
            wp.add_task_waiter(waiter)
            assert wp.task_waiter_count() == 1
        with wp:
            wp.notify_all()
        assert waiter.fired
        with wp:
            assert wp.task_waiter_count() == 0

    def test_notify_n_broadcasts_to_tasks(self):
        wp = WaitPoint()
        waiters = [TaskWaiter() for _ in range(3)]
        with wp:
            for waiter in waiters:
                wp.add_task_waiter(waiter)
        with wp:
            wp.notify(1)
        # Task waiters re-check predicates, so broadcasting is correct.
        assert all(waiter.fired for waiter in waiters)


class TestSchedEvent:
    @pytest.fixture
    def scheduler(self):
        sched = Scheduler(name="test-waitobj")
        sched.start()
        yield sched
        sched.shutdown()

    def test_os_thread_wait(self):
        event = SchedEvent()
        assert not event.is_set
        threading.Timer(0.05, event.set).start()
        assert event.wait(5)
        assert event.is_set

    def test_wait_timeout(self):
        event = SchedEvent()
        start = time.monotonic()
        assert not event.wait(0.05)
        assert time.monotonic() - start < 2

    def test_task_wait(self, scheduler):
        event = SchedEvent()

        def body():
            ok = yield from event.wait_task()
            return ok

        task = scheduler.spawn(body)
        time.sleep(0.05)
        event.set()
        assert task.join(5)
        assert task.result is True

    def test_task_wait_timeout(self, scheduler):
        event = SchedEvent()

        def body():
            ok = yield from event.wait_task(timeout=0.05)
            return ok

        task = scheduler.spawn(body)
        assert task.join(5)
        assert task.result is False

    def test_set_before_wait_returns_immediately(self, scheduler):
        event = SchedEvent()
        event.set()

        def body():
            ok = yield from event.wait_task()
            return ok

        task = scheduler.spawn(body)
        assert task.join(5)
        assert task.result is True

    def test_clear(self):
        event = SchedEvent()
        event.set()
        event.clear()
        assert not event.is_set


class TestMixedWaiters:
    def test_one_notify_wakes_thread_and_task(self):
        scheduler = Scheduler(name="mixed")
        scheduler.start()
        try:
            wp = WaitPoint()
            ready = []
            woken = []

            def os_side():
                from repro.sched.timers import wait_until
                with wp:
                    wait_until(wp, lambda: bool(ready), timeout=5)
                woken.append("thread")

            def task_side():
                yield from ops.wait_on(wp, lambda: bool(ready))
                woken.append("task")

            thread = threading.Thread(target=os_side, daemon=True)
            thread.start()
            task = scheduler.spawn(task_side)
            time.sleep(0.1)
            with wp:
                ready.append(1)
                wp.notify_all()
            thread.join(5)
            assert task.join(5)
            assert sorted(woken) == ["task", "thread"]
        finally:
            scheduler.shutdown()
