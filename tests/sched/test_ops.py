"""Task-side blocking operations against the real blocking surface."""

import time

import pytest

from repro.awt.events import ActionEvent, EventQueue
from repro.io.streams import BufferedInputStream, make_pipe
from repro.net.fabric import NetworkFabric
from repro.sched import Scheduler, WaitPoint, ops

pytestmark = pytest.mark.sched


@pytest.fixture
def scheduler():
    sched = Scheduler(name="test-ops")
    sched.start()
    yield sched
    sched.shutdown()


class TestWaitOn:
    def test_predicate_already_true(self, scheduler):
        wp = WaitPoint()

        def body():
            ok = yield from ops.wait_on(wp, lambda: True)
            return ok

        task = scheduler.spawn(body)
        assert task.join(5) and task.result is True

    def test_timeout_returns_false(self, scheduler):
        wp = WaitPoint()

        def body():
            ok = yield from ops.wait_on(wp, lambda: False, timeout=0.05)
            return ok

        task = scheduler.spawn(body)
        assert task.join(5) and task.result is False

    def test_notify_then_timeout_delivers_once(self, scheduler):
        """The park-token race: a notify and a timeout for the same park
        must resume the task exactly once (no double-step corruption)."""
        wp = WaitPoint()
        flag = []

        def body():
            ok = yield from ops.wait_on(wp, lambda: bool(flag),
                                        timeout=0.06)
            yield  # a further resumption would blow up if double-queued
            return ok

        task = scheduler.spawn(body)
        time.sleep(0.05)  # land the notify right at the timeout edge
        with wp:
            flag.append(1)
            wp.notify_all()
        assert task.join(5)
        assert task.exception is None


class TestPipeRead:
    def test_read_waits_for_writer(self, scheduler):
        reader, writer = make_pipe()

        def body():
            data = yield from ops.read(reader, 1024)
            return data

        task = scheduler.spawn(body)
        time.sleep(0.05)
        writer.write(b"hello")
        assert task.join(5)
        assert task.result == b"hello"
        writer.close()

    def test_read_eof_is_empty_bytes(self, scheduler):
        reader, writer = make_pipe()
        writer.close()

        def body():
            data = yield from ops.read(reader, 1024)
            return data

        task = scheduler.spawn(body)
        assert task.join(5)
        assert task.result == b""

    def test_read_timeout_is_none(self, scheduler):
        reader, writer = make_pipe()

        def body():
            data = yield from ops.read(reader, 1024, timeout=0.05)
            return data

        task = scheduler.spawn(body)
        assert task.join(5)
        assert task.result is None
        writer.close()

    def test_buffered_stream_read(self, scheduler):
        reader, writer = make_pipe()
        buffered = BufferedInputStream(reader)

        def body():
            data = yield from ops.read(buffered, 5)
            return data

        task = scheduler.spawn(body)
        time.sleep(0.05)
        writer.write(b"0123456789")
        assert task.join(5)
        assert task.result == b"01234"
        # The rest is buffered and readable without blocking.
        assert buffered.try_read(5) == b"56789"
        writer.close()


class TestAccept:
    def test_accept_from_task(self, scheduler):
        fabric = NetworkFabric()
        server = fabric.add_host("server")
        fabric.add_host("client")
        listener = server.listen(7001)

        def body():
            endpoint = yield from ops.accept(listener)
            return endpoint

        task = scheduler.spawn(body)
        time.sleep(0.05)
        client_end = fabric.connect("client", "server", 7001)
        assert task.join(5)
        assert task.result is not None
        assert task.result.remote_host == "client"
        client_end.close()
        listener.close()

    def test_accept_timeout(self, scheduler):
        fabric = NetworkFabric()
        server = fabric.add_host("server")
        listener = server.listen(7002)

        def body():
            endpoint = yield from ops.accept(listener, timeout=0.05)
            return endpoint

        task = scheduler.spawn(body)
        assert task.join(5)
        assert task.result is None
        listener.close()


class TestEventQueue:
    def test_next_event_from_task(self, scheduler):
        queue = EventQueue("test-ops")

        def body():
            event = yield from ops.next_event(queue)
            return event

        task = scheduler.spawn(body)
        time.sleep(0.05)
        posted = ActionEvent(None, "go")
        queue.post_event(posted)
        assert task.join(5)
        assert task.result is posted
        queue.close()

    def test_drain_events_batches(self, scheduler):
        queue = EventQueue("test-ops-drain")
        for i in range(5):
            queue.post_event(ActionEvent(None, f"cmd-{i}"))

        def body():
            batch = yield from ops.drain_events(queue)
            return batch

        task = scheduler.spawn(body)
        assert task.join(5)
        assert [e.command for e in task.result] == [
            f"cmd-{i}" for i in range(5)]
        queue.close()

    def test_drain_after_close_is_empty(self, scheduler):
        queue = EventQueue("test-ops-closed")
        queue.close()

        def body():
            batch = yield from ops.drain_events(queue)
            return batch

        task = scheduler.spawn(body)
        assert task.join(5)
        assert task.result == []

