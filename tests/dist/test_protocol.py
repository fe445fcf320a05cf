"""Unit tests for the distributed-execution wire protocol."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.protocol import (
    MAX_FRAME_PAYLOAD,
    TAG_JSON,
    TAG_STDERR,
    TAG_STDOUT,
    FrameChannel,
    FrameOutputStream,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.io.streams import (
    BufferedInputStream,
    ByteArrayInputStream,
    ByteArrayOutputStream,
)
from repro.jvm.errors import IOException


def source_of(data: bytes) -> BufferedInputStream:
    return BufferedInputStream(ByteArrayInputStream(data))


def read_all(data: bytes) -> list:
    source = source_of(data)
    received = []
    while True:
        frame = read_frame(source)
        if frame is None:
            return received
        received.append(frame)


def roundtrip(*frames):
    sink = ByteArrayOutputStream()
    for frame in frames:
        write_frame(sink, frame)
    return read_all(sink.to_bytes())


def json_frame(payload: bytes) -> bytes:
    return struct.pack(">BI", TAG_JSON, len(payload)) + payload


class TestFrames:
    def test_single_frame(self):
        assert roundtrip({"t": "x", "code": 0}) == [{"t": "x", "code": 0}]

    def test_multiple_frames_in_order(self):
        frames = [{"t": "o", "d": b"one"}, {"t": "o", "d": b"two"},
                  {"t": "x", "code": 3}]
        assert roundtrip(*frames) == frames

    def test_newlines_inside_payload_survive(self):
        frames = [{"t": "o", "d": b"line1\nline2\n"},
                  {"t": "err", "msg": "first\nsecond"}]
        assert roundtrip(*frames) == frames

    def test_unicode_payload(self):
        text = "héllo — ünïcode"
        frames = [{"t": "o", "d": text.encode("utf-8")},
                  {"t": "err", "msg": text}]
        assert roundtrip(*frames) == frames

    def test_eof_returns_none(self):
        assert read_frame(source_of(b"")) is None

    def test_malformed_json_raises(self):
        with pytest.raises(IOException):
            read_frame(source_of(json_frame(b"not json")))

    def test_non_object_frame_raises(self):
        with pytest.raises(IOException):
            read_frame(source_of(json_frame(b"[1,2,3]")))

    def test_json_line_is_not_a_frame(self):
        with pytest.raises(IOException, match="unknown tag 0x7b"):
            read_frame(source_of(b'{"t":"x","code":0}\n'))

    def test_unknown_json_keys_are_kept(self):
        frame = {"user": "alice", "class_name": "tools.Echo",
                 "future_field": [1, 2]}
        assert roundtrip(frame) == [frame]


class TestBinaryFrames:
    def test_stdout_frame_carries_raw_bytes(self):
        payload = b"\x00\xff raw \n bytes \xfe"
        encoded = encode_frame({"t": "o", "d": payload})
        assert encoded[0] == TAG_STDOUT
        assert read_all(encoded) == [{"t": "o", "d": payload}]

    def test_stderr_frame_tag(self):
        encoded = encode_frame({"t": "e", "d": b"oops"})
        assert encoded[0] == TAG_STDERR
        assert read_all(encoded)[0]["t"] == "e"

    def test_control_frames_travel_as_json_payload(self):
        encoded = encode_frame({"t": "x", "code": 7})
        assert encoded[0] == TAG_JSON
        assert read_all(encoded) == [{"t": "x", "code": 7}]

    def test_request_frames_travel_as_json_payload(self):
        encoded = encode_frame({"user": "alice", "class_name": "tools.Echo"})
        assert encoded[0] == TAG_JSON

    def test_back_to_back_frames(self):
        kinds = [frame["t"] for frame in roundtrip(
            {"t": "o", "d": b"one\n"}, {"t": "e", "d": b"two"},
            {"t": "x", "code": 0})]
        assert kinds == ["o", "e", "x"]

    def test_unknown_tag_raises(self):
        with pytest.raises(IOException, match="unknown tag"):
            read_frame(source_of(b"\x42\x00\x00\x00\x01x"))

    def test_oversized_length_raises(self):
        header = struct.pack(">BI", TAG_STDOUT, MAX_FRAME_PAYLOAD + 1)
        with pytest.raises(IOException, match="payload"):
            read_frame(source_of(header))

    def test_truncated_frame_raises(self):
        encoded = encode_frame({"t": "o", "d": b"full payload"})
        with pytest.raises(IOException):
            read_frame(source_of(encoded[:-3]))


class TestFrameChannel:
    def test_data_frames_carry_their_tag(self):
        sink = ByteArrayOutputStream()
        FrameChannel(None, sink).send({"t": "o", "d": b"hello"})
        assert sink.to_bytes()[0] == TAG_STDOUT

    def test_recv_reads_what_send_wrote(self):
        sink = ByteArrayOutputStream()
        FrameChannel(None, sink).send({"t": "x", "code": 0})
        channel = FrameChannel(ByteArrayInputStream(sink.to_bytes()), None)
        assert channel.recv() == {"t": "x", "code": 0}
        assert channel.recv() is None

    def test_unflushed_send_stays_buffered(self):
        sink = ByteArrayOutputStream()
        channel = FrameChannel(None, sink)
        channel.send({"t": "o", "d": b"later"}, flush=False)
        assert sink.to_bytes() == b""
        channel.flush()
        assert read_all(sink.to_bytes()) == [{"t": "o", "d": b"later"}]

    def test_concurrent_sends_never_split_a_frame(self):
        from repro.io.streams import make_pipe
        from repro.jvm.threads import JThread, ThreadGroup

        root = ThreadGroup(None, "system")
        reader, writer = make_pipe()
        channel = FrameChannel(None, writer)

        def sender(kind, payload):
            def run():
                for _ in range(200):
                    channel.send({"t": kind, "d": payload}, flush=False)
                channel.flush()
            return run

        threads = [JThread(target=sender("o", b"out"), group=root),
                   JThread(target=sender("e", b"err!"), group=root)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        channel.flush()
        writer.close()
        received = FrameChannel(reader, None)
        counts = {"o": 0, "e": 0}
        while True:
            frame = received.recv()
            if frame is None:
                break
            counts[frame["t"]] += 1
            assert frame["d"] in (b"out", b"err!")
        assert counts == {"o": 200, "e": 200}


def frames_on(sink: ByteArrayOutputStream) -> list:
    return read_all(sink.to_bytes())


def frame_stream(kind="o", **kwargs):
    sink = ByteArrayOutputStream()
    return sink, FrameOutputStream(FrameChannel(None, sink), kind, **kwargs)


class TestFrameOutputStream:
    def test_line_writes_become_one_frame_each(self):
        sink, stream = frame_stream()
        stream.write(b"line one\n")
        stream.write(b"line two\n")
        assert frames_on(sink) == [{"t": "o", "d": b"line one\n"},
                                   {"t": "o", "d": b"line two\n"}]

    def test_small_writes_coalesce_until_flush(self):
        sink, stream = frame_stream()
        stream.write(b"payload ")
        stream.write(b"bytes")
        assert sink.to_bytes() == b""  # nothing on the wire yet
        stream.flush()
        # One frame, not two.
        assert frames_on(sink) == [{"t": "o", "d": b"payload bytes"}]

    def test_byte_at_a_time_costs_one_frame_per_line(self):
        sink, stream = frame_stream()
        for byte in b"abc\n":
            stream.write(bytes([byte]))
        assert frames_on(sink) == [{"t": "o", "d": b"abc\n"}]

    def test_size_threshold_forces_emit(self):
        sink, stream = frame_stream(coalesce_bytes=8)
        stream.write(b"0123456789")  # >= threshold, no newline
        assert frames_on(sink) == [{"t": "o", "d": b"0123456789"}]

    def test_stderr_kind(self):
        sink, stream = frame_stream("e")
        stream.write(b"oops")
        stream.flush()
        assert frames_on(sink) == [{"t": "e", "d": b"oops"}]

    def test_close_flushes_but_does_not_close_transport(self):
        sink, stream = frame_stream()
        stream.write(b"tail")
        stream.close()
        assert not sink.closed  # shared with the exit frame
        assert frames_on(sink) == [{"t": "o", "d": b"tail"}]

    def test_print_stream_over_frames(self):
        from repro.io.streams import PrintStream
        sink, stream = frame_stream()
        PrintStream(stream).println("hello")
        assert frames_on(sink) == [{"t": "o", "d": b"hello\n"}]

    def test_channel_frames_raw_bytes(self):
        sink, stream = frame_stream()
        raw = b"\xde\xad\xbe\xef"
        stream.write(raw)
        stream.flush()
        assert frames_on(sink)[0]["d"] == raw


json_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60)


@given(frames=st.lists(st.one_of(
    st.fixed_dictionaries({"t": st.sampled_from(["o", "e"]),
                           "d": st.binary(max_size=60)}),
    st.fixed_dictionaries({"t": st.sampled_from(["err", "x"]),
                           "msg": json_text})), max_size=10))
@settings(max_examples=80, deadline=None)
def test_arbitrary_frame_sequences_roundtrip(frames):
    assert roundtrip(*frames) == frames


@given(payload=st.binary(min_size=1, max_size=120))
@settings(max_examples=80, deadline=None)
def test_frame_stream_is_lossless_for_utf8_payloads(payload):
    text = payload.decode("utf-8", errors="replace")
    sink, stream = frame_stream()
    stream.write(text.encode("utf-8"))
    stream.flush()
    assert frames_on(sink)[0]["d"].decode("utf-8") == text


@given(payload=st.binary(min_size=1, max_size=200))
@settings(max_examples=80, deadline=None)
def test_binary_framing_is_lossless_for_arbitrary_bytes(payload):
    sink, stream = frame_stream()
    stream.write(payload)
    stream.flush()
    assert frames_on(sink)[0]["d"] == payload
