"""JThread as a facade over scheduler tasks — byte-compatible surface."""

import threading
import time

import pytest

from repro.jvm.errors import (
    IllegalThreadStateException,
    InterruptedException,
)
from repro.jvm.threads import JThread, ThreadGroup
from repro.sched import sched_yield, sleep

pytestmark = pytest.mark.sched


@pytest.fixture
def root():
    return ThreadGroup(None, "system")


def _settle():
    """Let daemon worker threads from prior tests wind down."""
    time.sleep(0.05)


class TestSchedBacking:
    def test_generator_target_needs_no_os_thread(self, root):
        _settle()
        before = threading.active_count()
        done = []

        def body():
            yield sched_yield()
            done.append("ran")

        threads = [JThread(target=body, group=root) for _ in range(50)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5)
            assert not thread.is_alive()
        # 50 JThreads, at most the one shared loop thread added.
        assert threading.active_count() <= before + 1
        assert done == ["ran"] * 50

    def test_args_forwarded(self, root):
        seen = []

        def body(a, b):
            yield
            seen.append((a, b))

        thread = JThread(target=body, group=root, args=(1, "x"))
        thread.start()
        thread.join(5)
        assert not thread.is_alive()
        assert seen == [(1, "x")]

    def test_interrupt_delivered_into_body(self, root):
        caught = []
        running = threading.Event()

        def body():
            try:
                while True:
                    running.set()
                    yield
            except InterruptedException:
                caught.append(True)

        thread = JThread(target=body, group=root)
        thread.start()
        assert running.wait(5)
        thread.interrupt()
        thread.join(5)
        assert not thread.is_alive()
        assert caught == [True]

    def test_interrupt_wakes_sleeping_body(self, root):
        sleeping = threading.Event()

        def body():
            sleeping.set()
            yield sleep(30.0)

        thread = JThread(target=body, group=root)
        thread.start()
        # The interrupt may land just before the body parks or after;
        # either way it must cut the 30 s sleep short.
        assert sleeping.wait(5)
        start = time.monotonic()
        thread.interrupt()
        thread.join(5)
        assert not thread.is_alive()
        assert time.monotonic() - start < 5

    def test_interrupt_before_park_is_not_lost(self, root):
        caught = []

        def body():
            # Lands while the task is running, before it parks.
            JThread.current().interrupt()
            try:
                yield sleep(30.0)
            except InterruptedException:
                caught.append(True)

        thread = JThread(target=body, group=root)
        thread.start()
        thread.join(5)
        assert not thread.is_alive()
        assert caught == [True]

    def test_is_interrupted_flag(self, root):
        def body():
            yield sleep(0.2)

        thread = JThread(target=body, group=root)
        thread.start()
        thread.interrupt()
        # The flag is observable from outside before delivery consumes it
        # (same contract as the OS backing).
        assert thread.is_interrupted() is True
        thread.join(5)

    def test_stop_is_silent(self, root):
        running = threading.Event()

        def body():
            while True:
                running.set()
                yield

        thread = JThread(target=body, group=root)
        thread.start()
        assert running.wait(5)
        thread.stop()
        thread.join(5)
        assert not thread.is_alive()

    def test_group_membership_lifecycle(self, root):
        def body():
            yield sleep(0.2)

        thread = JThread(target=body, group=root)
        assert thread.group is root
        thread.start()
        assert thread in root.enumerate_threads()
        thread.join(5)
        assert not thread.is_alive()
        assert thread not in root.enumerate_threads()

    def test_double_start_raises(self, root):
        def body():
            yield

        thread = JThread(target=body, group=root)
        thread.start()
        with pytest.raises(IllegalThreadStateException):
            thread.start()
        thread.join(5)

    def test_join_timeout_then_completion(self, root):
        def body():
            yield sleep(0.2)

        thread = JThread(target=body, group=root)
        thread.start()
        thread.join(0.02)
        assert thread.is_alive()
        thread.join(5)
        assert not thread.is_alive()

    def test_run_override_generator(self, root):
        ran = []

        class Worker(JThread):
            def run(self):
                yield sched_yield()
                ran.append("override")

        worker = Worker(group=root)
        worker.start()
        worker.join(5)
        assert not worker.is_alive()
        assert ran == ["override"]


class TestBackingSelection:
    """JThread.start picks the backing from the body's type alone."""

    def test_plain_callable_still_gets_os_thread(self, root):
        done = []
        thread = JThread(target=lambda: done.append(1), group=root)
        thread.start()
        thread.join(5)
        assert not thread.is_alive()
        assert done == [1]
        assert thread._task is None
        assert thread._python_thread is not None

    def test_sched_backing_rejects_plain_callable(self, root):
        """A plain callable cannot be asked onto the loop: JThread has
        no backing keyword, and the callable gets an OS thread."""
        with pytest.raises(TypeError):
            JThread(target=lambda: None, group=root, **{"backing": "sched"})
        thread = JThread(target=lambda: None, group=root)
        thread.start()
        thread.join(5)
        assert not thread.is_alive()
        assert thread._task is None

    def test_bad_backing_value_rejected(self, root):
        def body():
            yield

        for value in ("sched", "os", "green"):
            with pytest.raises(TypeError):
                JThread(target=body, group=root, **{"backing": value})

    def test_same_body_same_result_both_backings(self, root):
        """The same steps as a generator body (a task) and as a plain
        callable (an OS thread) give the same result."""
        def make(results):
            def body():
                total = 0
                for i in range(5):
                    total += i
                    yield sched_yield()
                results.append(total)
            return body

        def plain(results):
            def run():
                for _ in make(results)():
                    pass
            return run

        for wrap, on_loop in ((make, True), (plain, False)):
            results = []
            thread = JThread(target=wrap(results), group=root)
            thread.start()
            thread.join(5)
            assert not thread.is_alive()
            assert results == [10], wrap.__name__
            assert (thread._task is not None) is on_loop
            assert (thread._python_thread is None) is on_loop


class TestFinishHooks:
    def test_hooks_run_exactly_once_sched(self, root):
        hits = []
        hooked = threading.Event()

        def body():
            yield

        thread = JThread(target=body, group=root)
        thread.finish_hooks.append(lambda t: hits.append(t.name))
        thread.finish_hooks.append(lambda t: hooked.set())
        thread.start()
        thread.join(5)
        assert not thread.is_alive()
        # join returns once the thread is marked finished; its hooks
        # run just after.
        assert hooked.wait(5)
        assert hits == [thread.name]

    def test_hooks_run_exactly_once_under_stop_race(self, root):
        hits = []
        running = threading.Event()
        hooked = threading.Event()

        def body():
            while True:
                running.set()
                yield

        thread = JThread(target=body, group=root)
        thread.finish_hooks.append(lambda t: hits.append(1))
        thread.finish_hooks.append(lambda t: hooked.set())
        thread.start()
        assert running.wait(5)
        # Two racing stop requests from different threads.
        stoppers = [threading.Thread(target=thread.stop) for _ in range(2)]
        for s in stoppers:
            s.start()
        for s in stoppers:
            s.join(5)
        thread.join(5)
        assert not thread.is_alive()
        assert hooked.wait(5)
        assert hits == [1]

    def test_hooks_run_exactly_once_on_detach(self, root):
        hits = []
        errors = []

        def host():
            try:
                thread = JThread.attach("guest", root)
                thread.finish_hooks.append(lambda t: hits.append(1))
                thread.detach()
                # A second finish attempt (e.g. reaper racing detach)
                # must be a no-op.
                thread._finish(None)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        worker = threading.Thread(target=host)
        worker.start()
        worker.join(5)
        assert errors == []
        assert hits == [1]

    def test_hooks_run_once_on_scheduler_teardown(self):
        from repro.sched import Scheduler
        sched = Scheduler(name="facade-teardown")
        sched.start()
        group = ThreadGroup(None, "system")
        hits = []
        parked = threading.Event()

        def body():
            parked.set()
            yield sleep(3600.0)

        thread = JThread(target=body, group=group)
        thread.finish_hooks.append(lambda t: hits.append(1))
        thread._continuation = thread._make_continuation()
        thread._started = True
        thread._task = sched.spawn_task(
            thread._continuation, name=thread.name, jthread=thread)
        assert parked.wait(5)
        sched.shutdown()
        thread.join(5)
        assert not thread.is_alive()
        assert hits == [1]
