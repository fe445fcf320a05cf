"""Property-based tests: pipes preserve arbitrary byte streams."""

from hypothesis import given, settings, strategies as st

from repro.io.streams import (
    ByteArrayInputStream,
    ByteArrayOutputStream,
    make_pipe,
)
from repro.jvm.threads import JThread, ThreadGroup

payloads = st.lists(st.binary(min_size=0, max_size=200), max_size=20)


@given(chunks=payloads)
@settings(max_examples=50, deadline=None)
def test_pipe_preserves_content_and_order_across_threads(chunks):
    root = ThreadGroup(None, "system")
    reader, writer = make_pipe(capacity=64)
    received: list[bytes] = []

    def consumer():
        received.append(reader.read_all())

    thread = JThread(target=consumer, group=root)
    thread.start()
    for chunk in chunks:
        writer.write(chunk)
    writer.close()
    thread.join(10)
    assert received[0] == b"".join(chunks)


@given(payload=st.binary(max_size=500),
       chunk_size=st.integers(min_value=1, max_value=64))
@settings(max_examples=50, deadline=None)
def test_chunked_reads_reassemble_exactly(payload, chunk_size):
    source = ByteArrayInputStream(payload)
    pieces = []
    while True:
        chunk = source.read(chunk_size)
        if not chunk:
            break
        assert len(chunk) <= chunk_size
        pieces.append(chunk)
    assert b"".join(pieces) == payload


@given(lines=st.lists(st.text(
    alphabet=st.characters(blacklist_characters="\n\r\x00",
                           blacklist_categories=("Cs",)),
    max_size=40), max_size=20))
@settings(max_examples=50, deadline=None)
def test_read_line_splits_exactly_on_newlines(lines):
    payload = "".join(line + "\n" for line in lines).encode("utf-8")
    source = ByteArrayInputStream(payload)
    recovered = []
    while True:
        line = source.read_line()
        if line is None:
            break
        recovered.append(line.decode("utf-8"))
    assert recovered == lines


@given(writes=st.lists(st.binary(min_size=0, max_size=100), max_size=30))
@settings(max_examples=50, deadline=None)
def test_byte_array_output_accumulates(writes):
    sink = ByteArrayOutputStream()
    for chunk in writes:
        sink.write(chunk)
    assert sink.to_bytes() == b"".join(writes)
    assert sink.size() == sum(len(c) for c in writes)


@given(lines=st.lists(st.binary(max_size=40).map(
    lambda raw: raw.replace(b"\n", b"")), max_size=20),
    chunk_size=st.integers(min_value=1, max_value=24),
    capacity=st.integers(min_value=1, max_value=16))
@settings(max_examples=50, deadline=None)
def test_pipe_read_line_recovers_chunked_lines(lines, chunk_size, capacity):
    """Lines written in arbitrary chunks through a small ring (often
    shorter than a line) come back whole from ``read_line``."""
    root = ThreadGroup(None, "system")
    reader, writer = make_pipe(capacity=capacity)
    payload = b"".join(line + b"\n" for line in lines)

    def producer():
        for offset in range(0, len(payload), chunk_size):
            writer.write(payload[offset:offset + chunk_size])
        writer.close()

    thread = JThread(target=producer, group=root)
    thread.start()
    recovered = []
    while True:
        line = reader.read_line()
        if line is None:
            break
        recovered.append(line)
    thread.join(10)
    assert recovered == lines
