"""Buffered stream wrappers: bulk reads, write combining, pipe races.

The transport fast path's first layer — ``BufferedInputStream`` turns
line reads into one source read per chunk (the generic ``read_line``
loop costs a read per byte; a raw pipe's own ``read_line`` one lock per
line, without the read-ahead), and ``BufferedOutputStream`` combines
small writes.  The race tests pin down
the close/EPIPE semantics the connection pool depends on: a peer can
vanish while the other side is mid-``read_line`` or mid-flush, and the
wrappers must surface exactly what the raw pipes would.
"""

import pytest

from repro.io.streams import (
    BufferedInputStream,
    BufferedOutputStream,
    ByteArrayInputStream,
    ByteArrayOutputStream,
    CountingOutputStream,
    make_pipe,
)
from repro.jvm.errors import EOFException, StreamClosedException
from repro.jvm.threads import JThread, ThreadGroup


class CountingInputStream(ByteArrayInputStream):
    """A byte source that counts underlying ``read`` calls."""

    def __init__(self, payload: bytes):
        super().__init__(payload)
        self.reads = 0

    def read(self, size: int = -1) -> bytes:
        self.reads += 1
        return super().read(size)


class TestBufferedInputStream:
    def test_read_line(self):
        source = BufferedInputStream(
            ByteArrayInputStream(b"one\ntwo\nunterminated"))
        assert source.read_line() == b"one"
        assert source.read_line() == b"two"
        assert source.read_line() == b"unterminated"
        assert source.read_line() is None

    def test_line_reads_are_bulk_reads(self):
        # The whole point: 100 lines must not cost 100+ source reads.
        counting = CountingInputStream(b"x" * 9 + b"\n" * 1 + b"y\n" * 99)
        source = BufferedInputStream(counting, buffer_size=4096)
        lines = 0
        while source.read_line() is not None:
            lines += 1
        assert lines == 100
        assert counting.reads <= 2  # one fill + the EOF probe

    def test_read_byte_and_peek(self):
        source = BufferedInputStream(ByteArrayInputStream(b"ab"))
        assert source.peek_byte() == ord("a")
        assert source.read_byte() == ord("a")  # peek did not consume
        assert source.read_byte() == ord("b")
        assert source.peek_byte() == -1
        assert source.read_byte() == -1

    def test_read_exactly(self):
        source = BufferedInputStream(ByteArrayInputStream(b"abcdef"))
        assert source.read_exactly(4) == b"abcd"
        assert source.read_exactly(2) == b"ef"

    def test_read_exactly_eof_raises(self):
        source = BufferedInputStream(ByteArrayInputStream(b"abc"))
        with pytest.raises(EOFException):
            source.read_exactly(10)

    def test_read_exactly_spans_buffer_refills(self):
        source = BufferedInputStream(ByteArrayInputStream(b"abcdefgh"),
                                     buffer_size=3)
        assert source.read_exactly(7) == b"abcdefg"

    def test_large_read_bypasses_buffer(self):
        counting = CountingInputStream(b"z" * 10000)
        source = BufferedInputStream(counting, buffer_size=64)
        assert len(source.read(10000)) == 10000
        assert counting.reads == 1

    def test_small_reads_served_from_buffer(self):
        counting = CountingInputStream(b"abcdefgh")
        source = BufferedInputStream(counting, buffer_size=4096)
        assert source.read(2) == b"ab"
        assert source.read(2) == b"cd"
        assert counting.reads == 1

    def test_available_counts_buffered_bytes(self):
        source = BufferedInputStream(ByteArrayInputStream(b"abcd"))
        source.read_byte()
        assert source.available() == 3

    def test_close_closes_source(self):
        inner = ByteArrayInputStream(b"x")
        source = BufferedInputStream(inner)
        source.close()
        assert inner.closed

    def test_over_a_pipe(self):
        reader, writer = make_pipe()
        buffered = BufferedInputStream(reader)
        writer.write(b"line one\nline two\n")
        writer.close()
        assert buffered.read_line() == b"line one"
        assert buffered.read_line() == b"line two"
        assert buffered.read_line() is None


class TestBufferedOutputStream:
    def test_small_writes_combine(self):
        counting = CountingOutputStream()
        sink = BufferedOutputStream(counting, buffer_size=1024)
        for _ in range(100):
            sink.write(b"ab")
        assert counting.count == 0  # nothing drained yet
        assert sink.buffered_count() == 200
        sink.flush()
        assert counting.count == 200
        assert sink.buffered_count() == 0

    def test_buffer_full_drains(self):
        counting = CountingOutputStream()
        sink = BufferedOutputStream(counting, buffer_size=8)
        sink.write(b"12345")
        sink.write(b"6789")  # crosses the threshold
        assert counting.count == 9

    def test_large_write_bypasses_buffer(self):
        counting = CountingOutputStream()
        sink = BufferedOutputStream(counting, buffer_size=8)
        sink.write(b"0123456789")
        assert counting.count == 10
        assert sink.buffered_count() == 0

    def test_close_drains_and_closes_sink(self):
        inner = ByteArrayOutputStream()
        sink = BufferedOutputStream(inner)
        sink.write(b"tail bytes")
        sink.close()
        assert inner.to_bytes() == b"tail bytes"
        assert inner.closed

    def test_over_a_pipe_one_lock_per_flush(self):
        reader, writer = make_pipe()
        sink = BufferedOutputStream(writer)
        for byte in b"byte at a time\n":
            sink.write(bytes([byte]))
        assert reader.available() == 0  # nothing reached the pipe yet
        sink.flush()
        assert reader.read(100) == b"byte at a time\n"

    def test_bypass_preserves_pending_order(self):
        inner = ByteArrayOutputStream()
        sink = BufferedOutputStream(inner, buffer_size=8)
        sink.write(b"abc")  # pending in the chunk
        sink.write(b"0123456789")  # bypass: must land after "abc"
        assert inner.to_bytes() == b"abc0123456789"


class TestPipeCloseRaces:
    """Close/EPIPE races under the buffered wrappers (pool semantics)."""

    def test_writer_closes_mid_read_line(self):
        # The reader is parked inside read_line on an unterminated line
        # when the writer hangs up: the partial line must come back, then
        # clean EOF — never a hang, never a lost prefix.
        root = ThreadGroup(None, "system")
        reader, writer = make_pipe()
        buffered = BufferedInputStream(reader)
        lines = []

        def consume():
            lines.append(buffered.read_line())
            lines.append(buffered.read_line())

        thread = JThread(target=consume, group=root)
        thread.start()
        writer.write(b"partial line without newline")
        thread.join(0.2)
        assert lines == []  # still blocked waiting for the newline
        writer.close()
        thread.join(5)
        assert lines == [b"partial line without newline", None]

    def test_reader_closes_mid_coalesced_flush(self):
        # The writer's flush is blocked on a full pipe when the reader
        # hangs up: the drain must raise the pipe's EPIPE, not hang.
        root = ThreadGroup(None, "system")
        reader, writer = make_pipe(capacity=4)
        sink = BufferedOutputStream(writer, buffer_size=1024)
        sink.write(b"more than four bytes of coalesced output")
        outcome = []

        def drain():
            try:
                sink.flush()
                outcome.append("flushed")
            except StreamClosedException:
                outcome.append("epipe")

        thread = JThread(target=drain, group=root)
        thread.start()
        thread.join(0.2)
        assert outcome == []  # blocked: pipe full, reader not draining
        reader.close()
        thread.join(5)
        assert outcome == ["epipe"]

    def test_closing_reader_wakes_a_blocked_read(self):
        # Closing your own read end while blocked must raise, not hang —
        # the transport-lost path when a client abandons a connection.
        root = ThreadGroup(None, "system")
        reader, writer = make_pipe()
        buffered = BufferedInputStream(reader)
        outcome = []

        def consume():
            try:
                buffered.read_line()
                outcome.append("line")
            except StreamClosedException:
                outcome.append("closed")

        thread = JThread(target=consume, group=root)
        thread.start()
        thread.join(0.2)
        assert outcome == []  # blocked: nothing written yet
        reader.close()
        thread.join(5)
        assert outcome == ["closed"]

    def test_buffered_write_after_reader_close_raises(self):
        reader, writer = make_pipe()
        sink = BufferedOutputStream(writer, buffer_size=4)
        reader.close()
        with pytest.raises(StreamClosedException):
            sink.write(b"longer than the buffer")

    def test_eof_hint_propagates_through_buffering(self):
        reader, writer = make_pipe()
        buffered = BufferedInputStream(reader)
        assert not buffered.at_eof_hint()
        writer.write(b"x")
        writer.close()
        assert not buffered.at_eof_hint()  # a byte is still readable
        assert buffered.read(1) == b"x"
        assert buffered.at_eof_hint()

    def test_reader_gone_hint_propagates_through_buffering(self):
        reader, writer = make_pipe()
        sink = BufferedOutputStream(writer)
        assert not sink.reader_gone_hint()
        reader.close()
        assert sink.reader_gone_hint()
