"""Property-based tests: pipes preserve arbitrary byte streams."""

from hypothesis import given, settings, strategies as st

from repro.io.streams import (
    DEFAULT_BUFFER_SIZE,
    ByteArrayInputStream,
    ByteArrayOutputStream,
    InputStream,
    LineReader,
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


class _SmallReads(InputStream):
    """Caps each ``read`` at the next of ``sizes`` (cycled), so a block
    boundary can fall anywhere: inside a line, a multi-byte sequence or
    right after a newline."""

    def __init__(self, source: InputStream, sizes: list[int]):
        super().__init__()
        self._source, self._sizes, self._turn = source, sizes, 0

    def read(self, size: int = -1) -> bytes:
        cap = self._sizes[self._turn % len(self._sizes)]
        self._turn += 1
        return self._source.read(cap if size < 0 else min(size, cap))


def _pipe_holding(payload: bytes, write_sizes: list[int]):
    """The read end of a closed pipe holding ``payload``, written in
    ``write_sizes`` pieces (cycled)."""
    reader, writer = make_pipe()
    offset, turn = 0, 0
    while offset < len(payload):
        step = write_sizes[turn % len(write_sizes)]
        writer.write(payload[offset:offset + step])
        offset, turn = offset + step, turn + 1
    writer.close()
    return reader


#: Pieces a line stream is built from: ASCII, a whole and a split
#: three-byte sequence, bytes that are never valid UTF-8, a bare ``\r``
#: and newlines, so empty lines and lines of replacement characters
#: come up often.
_PIECES = st.sampled_from([b"a", b"xyz", b"\xe2\x82\xac", b"\xe2", b"\x82\xac",
                           b"\xff", b"\xc3", b"\r", b"\n", b"\n\n"])


@given(pieces=st.lists(_PIECES, max_size=60),
       long_line_at=st.none() | st.integers(min_value=0, max_value=60),
       write_sizes=st.lists(st.integers(min_value=1, max_value=97),
                            min_size=1, max_size=5),
       read_sizes=st.lists(st.integers(min_value=1, max_value=53),
                           min_size=1, max_size=5),
       small_reads=st.booleans())
@settings(max_examples=100, deadline=None)
def test_line_blocks_flatten_to_read_line(pieces, long_line_at, write_sizes,
                                          read_sizes, small_reads):
    """Whatever the bytes and however writes and reads cut them,
    ``line_blocks`` yields exactly the lines ``read_line`` would."""
    if long_line_at is not None:
        # A line longer than one block, so it crosses several reads.
        pieces.insert(min(long_line_at, len(pieces)),
                      b"L" * (DEFAULT_BUFFER_SIZE + 123))
    payload = b"".join(pieces)

    expected = []
    by_line = LineReader(_pipe_holding(payload, write_sizes))
    while (line := by_line.read_line()) is not None:
        expected.append(line)

    source = _pipe_holding(payload, write_sizes)
    if small_reads:
        source = _SmallReads(source, read_sizes)
    blocks = list(LineReader(source).line_blocks())
    assert all(blocks)
    assert [line for block in blocks for line in block] == expected
