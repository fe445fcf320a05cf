"""Byte streams, pipes, and the PrintStream no-throw discipline."""

import pytest

from repro.io.streams import (
    BufferedOutputStream,
    ByteArrayInputStream,
    ByteArrayOutputStream,
    CountingOutputStream,
    HostOutputStream,
    LineReader,
    NullInputStream,
    NullOutputStream,
    PipedOutputStream,
    PrintStream,
    TeeOutputStream,
    make_pipe,
)
from repro.jvm.errors import (
    EOFException,
    StreamClosedException,
)
from repro.jvm.threads import JThread, ThreadGroup


class TestByteArrayStreams:
    def test_roundtrip(self):
        sink = ByteArrayOutputStream()
        sink.write(b"hello ")
        sink.write(b"world")
        assert sink.to_bytes() == b"hello world"
        assert sink.to_text() == "hello world"
        assert sink.size() == 11
        sink.reset()
        assert sink.size() == 0

    def test_input_read_chunks(self):
        source = ByteArrayInputStream(b"abcdef")
        assert source.available() == 6
        assert source.read(2) == b"ab"
        assert source.read(100) == b"cdef"
        assert source.read(1) == b""

    def test_read_all_and_negative_size(self):
        assert ByteArrayInputStream(b"xyz").read(-1) == b"xyz"
        assert ByteArrayInputStream(b"xyz").read_all() == b"xyz"

    def test_read_byte_and_eof(self):
        source = ByteArrayInputStream(b"A")
        assert source.read_byte() == 65
        assert source.read_byte() == -1

    def test_read_exactly(self):
        source = ByteArrayInputStream(b"abcd")
        assert source.read_exactly(3) == b"abc"
        with pytest.raises(EOFException):
            source.read_exactly(5)

    def test_read_line_variants(self):
        source = ByteArrayInputStream(b"one\ntwo\nunterminated")
        assert source.read_line() == b"one"
        assert source.read_line() == b"two"
        assert source.read_line() == b"unterminated"
        assert source.read_line() is None

    def test_closed_stream_raises(self):
        source = ByteArrayInputStream(b"x")
        source.close()
        with pytest.raises(StreamClosedException):
            source.read(1)
        sink = ByteArrayOutputStream()
        sink.close()
        with pytest.raises(StreamClosedException):
            sink.write(b"x")

    def test_double_close_is_noop(self):
        sink = ByteArrayOutputStream()
        sink.close()
        sink.close()

    def test_context_manager(self):
        with ByteArrayOutputStream() as sink:
            sink.write(b"x")
        assert sink.closed


class TestNullStreams:
    def test_null_input_always_eof(self):
        assert NullInputStream().read(10) == b""
        assert NullInputStream().read_byte() == -1

    def test_null_output_discards(self):
        NullOutputStream().write(b"whatever")


class TestPipes:
    def test_transfer_and_eof_on_writer_close(self):
        reader, writer = make_pipe()
        writer.write(b"payload")
        assert reader.read(3) == b"pay"
        writer.close()
        assert reader.read(100) == b"load"
        assert reader.read(1) == b""  # EOF

    def test_available(self):
        reader, writer = make_pipe()
        assert reader.available() == 0
        writer.write(b"abc")
        assert reader.available() == 3

    def test_broken_pipe(self):
        reader, writer = make_pipe()
        reader.close()
        with pytest.raises(StreamClosedException):
            writer.write(b"data")

    def test_blocking_read_across_threads(self):
        root = ThreadGroup(None, "system")
        reader, writer = make_pipe()
        received = []

        def consumer():
            received.append(reader.read_all())

        thread = JThread(target=consumer, group=root)
        thread.start()
        writer.write(b"hello ")
        writer.write(b"pipe")
        writer.close()
        thread.join(5)
        assert received == [b"hello pipe"]

    def test_bounded_capacity_blocks_writer(self):
        root = ThreadGroup(None, "system")
        reader, writer = make_pipe(capacity=4)
        progress = []

        def producer():
            writer.write(b"123456789")  # must block at capacity 4
            progress.append("done")
            writer.close()

        thread = JThread(target=producer, group=root)
        thread.start()
        thread.join(0.2)
        assert progress == []  # still blocked
        assert reader.read_all() == b"123456789"
        thread.join(5)
        assert progress == ["done"]

    def test_owner_recorded(self):
        marker = object()
        reader, writer = make_pipe(owner=marker)
        assert reader.owner is marker
        assert writer.owner is marker


class TestPrintStream:
    def test_print_println_printf(self):
        sink = ByteArrayOutputStream()
        stream = PrintStream(sink)
        stream.print("a")
        stream.println("b")
        stream.printf("%s=%d", "x", 1)
        stream.write("raw")
        stream.write(b" bytes")
        assert sink.to_text() == "ab\nx=1raw bytes"

    def test_never_raises_sets_error_flag(self):
        reader, writer = make_pipe()
        stream = PrintStream(writer)
        reader.close()  # break the pipe
        stream.println("this must not raise")
        assert stream.check_error()

    def test_peek_error_reads_the_flag_without_a_flush(self):
        reader, writer = make_pipe()
        stream = PrintStream(writer)
        assert not stream.peek_error()
        reader.close()
        stream.println("lost")
        assert stream.peek_error()
        sink = ByteArrayOutputStream()
        buffered = PrintStream(BufferedOutputStream(sink), auto_flush=False)
        buffered.print("held")
        assert not buffered.peek_error()
        assert sink.to_bytes() == b""

    def test_error_flag_clean_on_healthy_stream(self):
        stream = PrintStream(ByteArrayOutputStream())
        stream.println("ok")
        assert not stream.check_error()

    def test_close_closes_target(self):
        sink = ByteArrayOutputStream()
        stream = PrintStream(sink)
        stream.close()
        assert sink.closed

    def test_target_accessor(self):
        sink = ByteArrayOutputStream()
        assert PrintStream(sink).target is sink


class TestLineReader:
    def test_lines_and_eof(self):
        reader = LineReader(ByteArrayInputStream(b"a\nb\n"))
        assert reader.read_line() == "a"
        assert reader.read_line() == "b"
        assert reader.read_line() is None

    def test_read_all(self):
        reader = LineReader(ByteArrayInputStream("héllo".encode()))
        assert reader.read_all() == "héllo"

    def test_line_blocks_split_on_newline_only(self):
        reader = LineReader(ByteArrayInputStream(b"a\r\nb\x0cc\n\nlast"))
        assert list(reader.line_blocks()) == [["a\r", "b\x0cc", ""],
                                              ["last"]]

    def test_line_blocks_pass_a_2_mib_line_through_a_pipe_whole(self):
        """A line with no newline, far over one block and the ring's
        512 KiB ceiling, arrives as one line once the writer closes."""
        line = b"x" * (2 * 1024 * 1024)
        reader, writer = make_pipe()

        def producer():
            for offset in range(0, len(line), 65536):
                writer.write(line[offset:offset + 65536])
            writer.close()

        thread = JThread(target=producer, group=ThreadGroup(None, "system"))
        thread.start()
        blocks = list(LineReader(reader).line_blocks())
        thread.join(10)
        assert len(blocks) == 1 and len(blocks[0]) == 1
        assert blocks[0][0] == line.decode()


class TestCombinators:
    def test_tee_duplicates(self):
        a, b = ByteArrayOutputStream(), ByteArrayOutputStream()
        tee = TeeOutputStream(a, b)
        tee.write(b"xy")
        tee.flush()
        assert a.to_bytes() == b.to_bytes() == b"xy"

    def test_counting(self):
        counter = CountingOutputStream()
        counter.write(b"12345")
        counter.write(b"67")
        assert counter.count == 7

    def test_host_output_stream_never_closes_host(self):
        import io
        fake = io.StringIO()
        stream = HostOutputStream(fake)
        stream.write(b"text")
        stream.close()
        assert fake.getvalue() == "text"
        assert not fake.closed
