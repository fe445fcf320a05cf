"""The scheduler engine: tasks, requests, interruption, teardown."""

import time

import pytest

from repro.jvm.errors import (
    IllegalStateException,
    InterruptedException,
)
from repro.sched import (
    Scheduler,
    SleepRequest,
    Task,
    sched_yield,
    sleep,
)

pytestmark = pytest.mark.sched


@pytest.fixture
def scheduler():
    sched = Scheduler(name="test-core")
    sched.start()
    yield sched
    sched.shutdown()


class TestSpawn:
    def test_generator_function_becomes_continuation(self, scheduler):
        def body(n):
            total = 0
            for i in range(n):
                total += i
                yield sched_yield()
            return total

        task = scheduler.spawn(body, 10)
        assert task.join(5)
        assert task.result == 45
        assert task.exception is None

    def test_plain_callable_runs_in_one_step(self, scheduler):
        task = scheduler.spawn(lambda: 41 + 1)
        assert task.join(5)
        assert task.result == 42

    def test_generator_object_accepted(self, scheduler):
        def body():
            yield sched_yield()
            return "made"

        task = scheduler.spawn(body())
        assert task.join(5)
        assert task.result == "made"

    def test_task_exception_recorded_not_raised(self, scheduler):
        def body():
            yield sched_yield()
            raise ValueError("task boom")

        task = scheduler.spawn(body)
        assert task.join(5)
        assert isinstance(task.exception, ValueError)
        assert scheduler.running  # the loop survived

    def test_names_default_and_explicit(self, scheduler):
        anon = scheduler.spawn(lambda: None)
        named = scheduler.spawn(lambda: None, name="worker")
        assert anon.join(5) and named.join(5)
        assert named.name == "worker"
        assert anon.name.startswith("task-")


class TestRequests:
    def test_sleep_parks_on_timer_heap(self, scheduler):
        def body():
            yield sleep(0.05)
            return "woke"

        start = time.monotonic()
        task = scheduler.spawn(body)
        assert task.join(5)
        assert task.result == "woke"
        assert time.monotonic() - start >= 0.04

    def test_sleep_request_yield_form(self, scheduler):
        def body():
            yield SleepRequest(0.01)
            return 1

        task = scheduler.spawn(body)
        assert task.join(5) and task.result == 1

    def test_yield_none_round_robins(self, scheduler):
        order = []

        def body(tag):
            for _ in range(3):
                order.append(tag)
                yield

        task_a = scheduler.spawn(body, "a")
        task_b = scheduler.spawn(body, "b")
        assert task_a.join(5) and task_b.join(5)
        # Strict alternation once both are in the ready deque.
        assert order.count("a") == 3 and order.count("b") == 3
        assert order != ["a", "a", "a", "b", "b", "b"]

    def test_unknown_yield_delivered_as_error(self, scheduler):
        def body():
            yield object()

        task = scheduler.spawn(body)
        assert task.join(5)
        assert isinstance(task.exception, IllegalStateException)

    def test_task_join_task(self, scheduler):
        from repro.sched import ops

        def child():
            yield sleep(0.02)
            return "child-done"

        def parent():
            kid = scheduler.spawn(child)
            finished = yield from ops.join(kid)
            return (finished, kid.result)

        task = scheduler.spawn(parent)
        assert task.join(5)
        assert task.result == (True, "child-done")

    def test_task_join_timeout(self, scheduler):
        from repro.sched import ops

        def slow():
            yield sleep(5.0)

        def parent():
            kid = scheduler.spawn(slow)
            finished = yield from ops.join(kid, timeout=0.05)
            kid.stop()
            return finished

        task = scheduler.spawn(parent)
        assert task.join(5)
        assert task.result is False


class TestInterruption:
    def test_interrupt_delivered_at_next_yield(self, scheduler):
        def body():
            while True:
                yield

        task = scheduler.spawn(body)
        time.sleep(0.05)
        task.interrupt()
        assert task.join(5)
        assert isinstance(task.exception, InterruptedException)

    def test_interrupt_wakes_sleeping_task(self, scheduler):
        def body():
            yield sleep(30.0)

        task = scheduler.spawn(body)
        time.sleep(0.05)
        start = time.monotonic()
        task.interrupt()
        assert task.join(5)
        assert time.monotonic() - start < 5
        assert isinstance(task.exception, InterruptedException)

    def test_stop_is_silent_threaddeath(self, scheduler):
        def body():
            while True:
                yield

        task = scheduler.spawn(body)
        time.sleep(0.05)
        task.stop()
        assert task.join(5)
        assert task.exception is None  # ThreadDeath is not an error

    def test_task_catches_interrupt(self, scheduler):
        def body():
            try:
                while True:
                    yield
            except InterruptedException:
                return "caught"

        task = scheduler.spawn(body)
        time.sleep(0.05)
        task.interrupt()
        assert task.join(5)
        assert task.result == "caught"


class TestLifecycle:
    def test_stats_counters(self, scheduler):
        def body():
            yield
            yield

        tasks = [scheduler.spawn(body) for _ in range(4)]
        assert all(task.join(5) for task in tasks)
        stats = scheduler.stats()
        assert stats["spawned"] >= 4
        assert stats["completed"] >= 4
        assert stats["switches"] >= 8
        assert stats["live"] == 0

    def test_shutdown_cancels_parked_tasks(self):
        sched = Scheduler(name="teardown")
        sched.start()
        cleaned = []

        def body():
            try:
                yield sleep(3600.0)
            finally:
                cleaned.append(True)

        task = sched.spawn(body)
        time.sleep(0.05)
        sched.shutdown()
        assert task.finished
        assert cleaned == [True]

    def test_shutdown_idempotent_and_restartable(self):
        sched = Scheduler(name="restart")
        sched.start()
        sched.shutdown()
        sched.shutdown()
        assert not sched.running

    def test_restart_keeps_the_object_and_its_counters(self):
        sched = Scheduler(name="restart-counters")
        sched.start()
        assert sched.spawn(lambda: None).join(5)
        sched.shutdown()
        assert not sched.running
        assert sched.start() is sched and sched.running
        assert sched.stats()["spawned"] == 1
        assert sched.spawn(lambda: 7).join(5)
        assert sched.stats()["spawned"] == 2
        sched.shutdown()

    def test_vm_keeps_one_scheduler_across_shutdown(self, vm):
        scheduler = vm.ensure_scheduler()
        assert scheduler.spawn(lambda: None).join(5)
        assert vm.telemetry.metrics.total("sched.spawned") == 1
        scheduler.shutdown()
        again = vm.ensure_scheduler()
        assert again is scheduler and again.running
        assert vm.telemetry.metrics.total("sched.spawned") == 1
        assert again.spawn(lambda: None).join(5)
        assert vm.telemetry.metrics.total("sched.spawned") == 2

    def test_add_done_callback_after_finish_runs_now(self, scheduler):
        task = scheduler.spawn(lambda: "x")
        assert task.join(5)
        seen = []
        task.add_done_callback(lambda t: seen.append(t.result))
        assert seen == ["x"]

    def test_current_task_none_off_loop(self, scheduler):
        assert scheduler.current_task() is None

    def test_task_repr_and_type(self, scheduler):
        task = scheduler.spawn(lambda: None)
        assert isinstance(task, Task)
        assert task.join(5)
        assert "Task(" in repr(task)
