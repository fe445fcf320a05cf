"""RingPipe semantics: wrap-around, edges, closes, and copy accounting.

The data-plane contract the shell's ``|``, the dist transport, and
BufferedInputStream all rely on: ring wrap-around is invisible, closes
from either side behave like EPIPE/EOF, blocked waits stay
interruptible, and reads cost at most one copy (zero via
:meth:`drain_into`).
"""

import random
import time

import pytest

from repro.io.streams import (
    RING_STATS,
    RingPipe,
    StreamClosedException,
    make_pipe,
)
from repro.jvm.errors import InterruptedException
from repro.jvm.threads import JThread, ThreadGroup


@pytest.fixture
def root():
    return ThreadGroup(None, "system")


class TestWrapAround:
    def test_data_survives_the_seam(self, root):
        """Interleaved writes/reads force the ring through many wraps."""
        reader, writer = make_pipe(capacity=8)
        out = []

        def consume():
            while True:
                chunk = reader.read(3)
                if not chunk:
                    break
                out.append(chunk)

        consumer = JThread(target=consume, group=root)
        consumer.start()
        payload = bytes(range(256)) * 4
        for offset in range(0, len(payload), 5):
            writer.write(payload[offset:offset + 5])
        writer.close()
        consumer.join(10)
        assert b"".join(out) == payload

    def test_available_at_the_seam(self):
        """``available()`` counts logical bytes, not contiguous ones."""
        reader, writer = make_pipe(capacity=8)
        writer.write(b"abcdef")
        assert reader.read(4) == b"abcd"
        writer.write(b"ghij")  # wraps: two physical segments
        assert reader.available() == 6
        assert reader.read(-1) == b"efghij"
        assert reader.available() == 0

    def test_segmented_read_joins_the_seam(self):
        """A read spanning the seam returns one contiguous bytes object."""
        pipe = RingPipe(8)
        # Drive the ring directly to pin the seam position.
        with pipe.cond:
            assert pipe._put(b"abcdef", 0) == 6
            assert pipe._take(4) == b"abcd"
            assert pipe._put(b"ghij", 0) == 4
            segments = pipe._segments(6)
            assert [bytes(segment) for segment in segments] == \
                [b"efgh", b"ij"]
            for segment in segments:
                segment.release()
            assert pipe._take(6) == b"efghij"

    def test_drain_into_hands_both_segments(self):
        reader, writer = make_pipe(capacity=8)
        writer.write(b"abcdef")
        assert reader.read(4) == b"abcd"
        writer.write(b"ghij")
        seen = []
        drained = reader.drain_into(
            lambda segments: seen.extend(bytes(s) for s in segments))
        assert drained == 6
        assert seen == [b"efgh", b"ij"]


class TestConcurrentStress:
    def test_patterned_transfer_arbitrary_chunks(self, root):
        """Random write/read sizes through a small ring keep byte order."""
        rng = random.Random(20260808)
        payload = bytes(rng.randrange(256) for _ in range(64 * 1024))
        reader, writer = make_pipe(capacity=1024)
        received = []

        def consume():
            while True:
                chunk = reader.read(rng.randrange(1, 1500))
                if not chunk:
                    break
                received.append(chunk)

        consumer = JThread(target=consume, group=root)
        consumer.start()
        offset = 0
        while offset < len(payload):
            size = rng.randrange(1, 3000)
            writer.write(payload[offset:offset + size])
            offset += size
        writer.close()
        consumer.join(30)
        assert b"".join(received) == payload

    def test_two_writer_threads_interleave_whole_chunks(self, root):
        """The pipe lock keeps each write atomic even under contention."""
        reader, writer = make_pipe(capacity=64)
        markers = {b"A": 0, b"B": 0}

        def produce(marker):
            def body():
                for _ in range(200):
                    writer.write(marker * 8)
            return body

        writers = [JThread(target=produce(m), group=root)
                   for m in (b"A", b"B")]
        for thread in writers:
            thread.start()
        total = bytearray()
        while len(total) < 400 * 8:
            total.extend(reader.read(8))
        for thread in writers:
            thread.join(10)
        # Every 8-byte cell is one writer's chunk, never a mix.
        for base in range(0, len(total), 8):
            cell = total[base:base + 8]
            assert cell in (b"A" * 8, b"B" * 8)
            markers[bytes(cell[:1])] += 1
        assert markers == {b"A": 200, b"B": 200}


class TestCloseEdges:
    def test_writer_close_mid_read_yields_eof(self, root):
        reader, writer = make_pipe()
        results = []

        def consume():
            results.append(reader.read(16))

        consumer = JThread(target=consume, group=root)
        consumer.start()
        time.sleep(0.05)  # the reader is parked on an empty ring
        writer.close()
        consumer.join(5)
        assert results == [b""]

    def test_reader_close_mid_write_raises(self, root):
        reader, writer = make_pipe(capacity=4)
        outcome = []

        def produce():
            try:
                writer.write(b"123456789")  # blocks at capacity 4
                outcome.append("wrote")
            except StreamClosedException:
                outcome.append("epipe")

        producer = JThread(target=produce, group=root)
        producer.start()
        time.sleep(0.05)  # the writer is parked on a full ring
        reader.close()
        producer.join(5)
        assert outcome == ["epipe"]

    def test_read_after_own_close_raises(self, root):
        reader, writer = make_pipe()
        outcome = []

        def consume():
            try:
                reader.read(1)
                outcome.append("read")
            except StreamClosedException:
                outcome.append("closed")

        consumer = JThread(target=consume, group=root)
        consumer.start()
        time.sleep(0.05)
        reader.close()
        consumer.join(5)
        assert outcome == ["closed"]

    def test_interrupt_cancels_blocked_read(self, root):
        reader, _writer = make_pipe()
        outcome = []

        def consume():
            try:
                reader.read(1)
                outcome.append("read")
            except InterruptedException:
                outcome.append("interrupted")

        consumer = JThread(target=consume, group=root)
        consumer.start()
        time.sleep(0.05)
        consumer.interrupt()
        consumer.join(5)
        assert outcome == ["interrupted"]

    def test_interrupt_cancels_blocked_write(self, root):
        _reader, writer = make_pipe(capacity=4)
        outcome = []

        def produce():
            try:
                writer.write(b"123456789")
                outcome.append("wrote")
            except InterruptedException:
                outcome.append("interrupted")

        producer = JThread(target=produce, group=root)
        producer.start()
        time.sleep(0.05)
        producer.interrupt()
        producer.join(5)
        assert outcome == ["interrupted"]

    def test_hints(self):
        reader, writer = make_pipe()
        assert not reader.at_eof_hint()
        assert not writer.reader_gone_hint()
        writer.write(b"x")
        writer.close()
        assert not reader.at_eof_hint()  # one byte still buffered
        assert reader.read(-1) == b"x"
        assert reader.at_eof_hint()
        other_reader, other_writer = make_pipe()
        other_reader.close()
        assert other_writer.reader_gone_hint()


class TestCopyAccounting:
    def test_one_copy_per_read(self):
        """The old channel copied twice per read (slice + bytes); the
        ring must materialize exactly one bytes object per read."""
        reader, writer = make_pipe()
        pipe = reader._pipe
        writer.write(b"x" * 1000)
        after_write = pipe.copies
        for _ in range(10):
            assert len(reader.read(100)) == 100
        assert pipe.copies - after_write == 10

    def test_drain_into_copies_nothing(self):
        reader, writer = make_pipe()
        pipe = reader._pipe
        writer.write(b"x" * 4096)
        after_write = pipe.copies
        drained = reader.drain_into(lambda segments: None)
        assert drained == 4096
        assert pipe.copies == after_write
        assert pipe.zero_copy_bytes == 4096

    def test_plain_reads_are_not_zero_copy(self):
        reader, writer = make_pipe()
        pipe = reader._pipe
        writer.write(b"line one\nline two\n" + b"z" * 300)
        assert reader.read_line() == b"line one"
        assert reader.read_line() == b"line two"
        assert len(reader.read(100)) == 100
        assert pipe.zero_copy_bytes == 0
        reader.drain_into(lambda segments: None)
        assert pipe.zero_copy_bytes == 200

    def test_stats_fold_into_module_totals_at_close(self):
        RING_STATS.reset()
        reader, writer = make_pipe()
        writer.write(b"y" * 100)
        reader.drain_into(lambda segments: None)
        writer.close()
        reader.close()
        snapshot = RING_STATS.snapshot()
        assert snapshot["zero_copy_bytes"] >= 100
        assert snapshot["wakeups"] >= 0
        assert snapshot["copies"] >= 1

    def test_physical_store_grows_lazily(self):
        reader, writer = make_pipe(capacity=512 * 1024)
        pipe = reader._pipe
        assert pipe._size == RingPipe.INITIAL_SIZE
        writer.write(b"z" * 4096)  # fits the initial store
        assert pipe._size == RingPipe.INITIAL_SIZE
        writer.write(b"z" * (64 * 1024))  # outgrows it: one-shot grow
        assert pipe._size == pipe._limit
        assert reader.read(-1) == b"z" * (4096 + 64 * 1024)


class TestLineReads:
    """``PipedInputStream.read_line``: one lock session per line, and
    never a byte past the newline (stdin is shared, §5.1)."""

    def test_no_read_ahead_between_line_and_byte_reads(self):
        reader, writer = make_pipe()
        writer.write(b"first\nsecond\nthird")
        writer.close()
        assert reader.read_line() == b"first"
        assert reader.read(3) == b"sec"
        assert reader.read_line() == b"ond"
        assert reader.read(1) == b"t"
        assert reader.read_line() == b"hird"
        assert reader.read_line() is None

    def test_line_longer_than_capacity(self, root):
        reader, writer = make_pipe(capacity=16)
        line = bytes(range(65, 91)) * 3 + b"0123456789" * 2 + b"xx"
        assert len(line) == 100

        def produce():
            writer.write(line + b"\ntail\n")
            writer.close()

        producer = JThread(target=produce, group=root)
        producer.start()
        assert reader.read_line() == line
        assert reader.read_line() == b"tail"
        assert reader.read_line() is None
        producer.join(5)
        assert not producer.is_alive()

    def test_newline_exactly_at_the_seam(self):
        reader, writer = make_pipe(capacity=8)
        writer.write(b"abcdef")
        assert reader.read(6) == b"abcdef"
        # Physical slots 6, 7 then 0: the newline is the last byte
        # before the seam, the next line straddles it.
        writer.write(b"g\nhij\n")
        assert reader.read_line() == b"g"
        assert reader.read_line() == b"hij"

    def test_line_straddling_the_seam(self):
        reader, writer = make_pipe(capacity=8)
        writer.write(b"abcde")
        assert reader.read(5) == b"abcde"
        writer.write(b"xyzw\n")  # slots 5, 6, 7 | 0, 1
        with reader._pipe.cond:
            segments = reader._pipe._segments(5)
            assert [len(segment) for segment in segments] == [3, 2]
            for segment in segments:
                segment.release()
        assert reader.read_line() == b"xyzw"
        assert reader.available() == 0

    def test_unterminated_last_line_then_none(self):
        reader, writer = make_pipe()
        writer.write(b"done\nno newline")
        writer.close()
        assert reader.read_line() == b"done"
        assert reader.read_line() == b"no newline"
        assert reader.read_line() is None

    def test_close_while_parked_raises(self, root):
        reader, writer = make_pipe()
        writer.write(b"partial")  # no newline: the reader parks
        outcome = []

        def consume():
            try:
                reader.read_line()
                outcome.append("line")
            except StreamClosedException:
                outcome.append("closed")

        consumer = JThread(target=consume, group=root)
        consumer.start()
        time.sleep(0.05)
        reader.close()
        consumer.join(5)
        assert outcome == ["closed"]

    def test_partial_line_wakes_on_the_rest(self, root):
        """The writer only signals the empty→non-empty edge, so a reader
        parked mid-line must have emptied the ring first."""
        reader, writer = make_pipe()
        lines = []

        def consume():
            lines.append(reader.read_line())

        consumer = JThread(target=consume, group=root)
        consumer.start()
        for piece in (b"one ", b"two "):
            writer.write(piece)
            time.sleep(0.05)
            assert reader.available() == 0  # parked on an empty ring
        writer.write(b"three\n")
        consumer.join(5)
        assert lines == [b"one two three"]

    def test_copies_grow_per_line_not_per_byte(self):
        reader, writer = make_pipe()
        pipe = reader._pipe
        line = b"x" * 99 + b"\n"
        writer.write(line * 10)
        after_write = pipe.copies
        for _ in range(10):
            assert reader.read_line() == line[:-1]
        assert pipe.copies - after_write == 10


class TestReaderCloseRelease:
    def test_reader_close_releases_the_store(self):
        reader, writer = make_pipe()
        pipe = reader._pipe
        writer.write(b"z" * (64 * 1024))  # grown past the initial store
        assert pipe._size == pipe._limit
        reader.close()
        assert pipe._buf is None and pipe._view is None
        with pytest.raises(StreamClosedException):
            writer.write(b"more")

    def test_stats_answer_after_reader_close(self):
        reader, writer = make_pipe()
        writer.write(b"line\nunread")
        assert reader.read_line() == b"line"
        reader.close()
        stats = reader._pipe.stats()
        assert stats["buffered"] == 0
        assert stats["capacity"] == reader._pipe.capacity
        assert stats["copies"] >= 2
        writer.close()  # folding the writer's side still works
