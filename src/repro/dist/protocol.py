"""Wire protocol for distributed applications (Section 8, future work).

Every frame, in both directions, is ``tag | length | payload``: one tag
byte, a 4-byte big-endian length, then the payload.

* ``TAG_STDOUT`` / ``TAG_STDERR`` frames carry the remote application's
  output as *raw bytes* (no UTF-8 round trip, so non-UTF-8 program output
  survives).  They are received as ``{"t": "o"|"e", "d": bytes}``.
* ``TAG_JSON`` frames carry one JSON object.  The client's request is
  ``{"user": ..., "password": ..., "class_name": ..., "args": [...]}``;
  control messages are ``{"t": "kill"}``; the daemon reports
  ``{"t": "x", "code": n}`` (exit) or ``{"t": "err", "msg": ...}``
  (launch/authentication failure); cluster agents send ``reg`` and
  ``hb`` frames to the registry the same way.

A daemon keeps the connection open after the exit frame, so the client's
channel pool can reuse it for the next request.  Receivers ignore
unknown JSON keys, but reject unknown tags and payloads larger than
:data:`MAX_FRAME_PAYLOAD`.

:class:`FrameChannel` bundles a buffered reader and a write-locked
buffered writer; :class:`FrameOutputStream` turns an application's
stdout/stderr writes into data frames, *coalescing* small writes into one
frame per newline / size threshold / latency bound.
"""

from __future__ import annotations

import json
import struct
import threading
import time
from typing import Optional

from repro.io.streams import (
    BufferedInputStream,
    BufferedOutputStream,
    InputStream,
    OutputStream,
)
from repro.jvm.errors import IOException
from repro.telemetry import current_hub

#: Frame tags.
TAG_STDOUT = 0x01
TAG_STDERR = 0x02
TAG_JSON = 0x03

_DATA_TAGS = {TAG_STDOUT: "o", TAG_STDERR: "e"}
_KIND_TAGS = {"o": TAG_STDOUT, "e": TAG_STDERR}

#: Sanity bound on a single frame (malformed-length guard).
MAX_FRAME_PAYLOAD = 16 * 1024 * 1024

_HEADER = struct.Struct(">BI")

#: Coalescing defaults for :class:`FrameOutputStream`.
COALESCE_THRESHOLD = 4096
COALESCE_MAX_LATENCY = 0.05


#: The transport's VM-wide counters (``dist.frames.sent`` and
#: ``.received`` carry a ``type`` label per frame kind).
FRAME_COUNTERS = ("dist.frames.sent", "dist.frames.received",
                  "dist.frames.coalesced", "dist.bytes.sent",
                  "dist.bytes.received")


def _count_sent(frame_type: str, nbytes: int) -> None:
    metrics = current_hub().metrics
    metrics.counter("dist.frames.sent", type=frame_type).inc()
    metrics.counter("dist.bytes.sent").inc(nbytes)


def _count_received(frame_type: str, nbytes: int) -> None:
    metrics = current_hub().metrics
    metrics.counter("dist.frames.received", type=frame_type).inc()
    metrics.counter("dist.bytes.received").inc(nbytes)


def ensure_buffered(source: InputStream) -> BufferedInputStream:
    """Wrap ``source`` for bulk reads (idempotent)."""
    if isinstance(source, BufferedInputStream):
        return source
    return BufferedInputStream(source)


# --------------------------------------------------------------------------
# ResourceLimits on the wire
# --------------------------------------------------------------------------

#: ResourceLimits fields carried in a request's ``"limits"`` object.
_LIMIT_FIELDS = ("max_threads", "max_windows", "max_children",
                 "max_open_streams")


def limits_to_wire(limits) -> Optional[dict]:
    """A request-embeddable dict of the set ceilings, or None."""
    if limits is None:
        return None
    wire = {name: getattr(limits, name, None) for name in _LIMIT_FIELDS}
    wire = {name: int(value) for name, value in wire.items()
            if value is not None}
    return wire or None


def limits_from_wire(wire):
    """Rebuild :class:`~repro.core.application.ResourceLimits` (or None).

    Unknown keys and junk values are dropped, never fatal: a malformed
    limits object must not take down the daemon serving it.
    """
    if not isinstance(wire, dict):
        return None
    fields = {}
    for name in _LIMIT_FIELDS:
        value = wire.get(name)
        if isinstance(value, int) and not isinstance(value, bool) \
                and value >= 0:
            fields[name] = value
    if not fields:
        return None
    from repro.core.application import ResourceLimits
    return ResourceLimits(**fields)


# --------------------------------------------------------------------------
# Framing
# --------------------------------------------------------------------------

def encode_frame(frame: dict) -> bytes:
    """One frame as ``tag | length | payload`` bytes."""
    kind = frame.get("t")
    data = frame.get("d")
    if kind in _KIND_TAGS and isinstance(data, (bytes, bytearray,
                                                memoryview)):
        payload = bytes(data)
        tag = _KIND_TAGS[kind]
    else:
        payload = json.dumps(frame, separators=(",", ":")).encode("utf-8")
        tag = TAG_JSON
    return _HEADER.pack(tag, len(payload)) + payload


def write_frame(output: OutputStream, frame: dict) -> None:
    encoded = encode_frame(frame)
    output.write(encoded)
    _count_sent(str(frame.get("t", "req")), len(encoded))


def read_frame(source: BufferedInputStream) -> Optional[dict]:
    """Read one frame; None at end of stream.

    Data frames carry ``bytes`` in ``"d"``.  Raises :class:`IOException`
    on an unknown tag, an oversized length, a truncated frame, or a JSON
    payload that is not an object.
    """
    first = source.peek_byte()
    if first < 0:
        return None
    if first not in _DATA_TAGS and first != TAG_JSON:
        raise IOException(f"malformed frame: unknown tag 0x{first:02x}")
    tag, length = _HEADER.unpack(source.read_exactly(_HEADER.size))
    if length > MAX_FRAME_PAYLOAD:
        raise IOException(f"malformed frame: payload of {length} bytes")
    payload = source.read_exactly(length)
    if tag in _DATA_TAGS:
        frame: dict = {"t": _DATA_TAGS[tag], "d": payload}
    else:
        try:
            frame = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise IOException(f"malformed frame: {exc}") from exc
        if not isinstance(frame, dict):
            raise IOException("malformed frame: not an object")
    _count_received(str(frame.get("t", "req")), _HEADER.size + length)
    return frame


# --------------------------------------------------------------------------
# FrameChannel — one framed connection
# --------------------------------------------------------------------------

class FrameChannel:
    """A framed connection: buffered reader, locked buffered writer.

    The write lock makes each frame atomic on the wire even when several
    streams — remote stdout, stderr, and the exit frame — share the
    transport.
    """

    def __init__(self, input_stream: Optional[InputStream] = None,
                 output_stream: Optional[OutputStream] = None):
        self.input: Optional[BufferedInputStream] = \
            ensure_buffered(input_stream) if input_stream is not None \
            else None
        if output_stream is None:
            self.output: Optional[BufferedOutputStream] = None
        elif isinstance(output_stream, BufferedOutputStream):
            self.output = output_stream
        else:
            self.output = BufferedOutputStream(output_stream)
        self.closed = False
        self._lock = threading.RLock()

    def send(self, frame: dict, flush: bool = True) -> None:
        with self._lock:
            write_frame(self.output, frame)
            if flush:
                self.output.flush()

    def flush(self) -> None:
        with self._lock:
            if self.output is not None:
                self.output.flush()

    def recv(self) -> Optional[dict]:
        return read_frame(self.input)

    def healthy(self) -> bool:
        """Best-effort, non-blocking liveness probe for pooled reuse."""
        if self.closed:
            return False
        if self.input is not None and self.input.at_eof_hint():
            return False
        if self.output is not None and self.output.reader_gone_hint():
            return False
        return True

    def close(self) -> None:
        with self._lock:
            if self.closed:
                return
            self.closed = True
        for stream in (self.output, self.input):
            if stream is not None:
                try:
                    stream.close()
                except IOException:
                    pass


# --------------------------------------------------------------------------
# FrameOutputStream — remote stdout/stderr with write coalescing
# --------------------------------------------------------------------------

class FrameOutputStream(OutputStream):
    """An OutputStream whose writes become ``o``/``e`` data frames.

    Handed to the remote application as its stdout/stderr: everything it
    prints travels back to the requesting JVM.  Small writes coalesce
    into one frame, emitted when the buffered data contains a newline,
    reaches ``coalesce_bytes``, or has been sitting for longer than
    ``max_latency`` — so chatty byte-at-a-time writers cost one frame
    per line, not one frame per write, while interactive output still
    appears promptly.
    """

    def __init__(self, channel: FrameChannel, kind: str = "o",
                 coalesce_bytes: int = COALESCE_THRESHOLD,
                 max_latency: float = COALESCE_MAX_LATENCY):
        super().__init__()
        self._channel = channel
        self._kind = kind
        self._coalesce_bytes = coalesce_bytes
        self._max_latency = max_latency
        self._buffer = bytearray()
        self._writes_in_buffer = 0
        self._first_write_at = 0.0
        self._lock = threading.RLock()

    @property
    def channel(self) -> FrameChannel:
        return self._channel

    def _emit(self, flush_transport: bool) -> None:
        """Ship the coalesced buffer as one frame (lock held)."""
        if not self._buffer:
            if flush_transport:
                self._channel.flush()
            return
        if self._writes_in_buffer > 1:
            current_hub().metrics.counter("dist.frames.coalesced").inc(
                self._writes_in_buffer - 1)
        payload = bytes(self._buffer)
        del self._buffer[:]
        self._writes_in_buffer = 0
        self._channel.send({"t": self._kind, "d": payload},
                           flush=flush_transport)

    def write(self, payload: bytes) -> None:
        self._ensure_open()
        if isinstance(payload, str):  # PrintStream hands us bytes; be lenient
            payload = payload.encode("utf-8")
        with self._lock:
            now = time.monotonic()
            if not self._buffer:
                self._first_write_at = now
            self._buffer.extend(payload)
            self._writes_in_buffer += 1
            if (b"\n" in payload
                    or len(self._buffer) >= self._coalesce_bytes
                    or now - self._first_write_at >= self._max_latency):
                self._emit(flush_transport=True)

    def flush(self) -> None:
        with self._lock:
            self._emit(flush_transport=True)

    def _close_impl(self) -> None:
        # The transport is shared with the exit frame; flush what we
        # buffered but never close the channel here.
        with self._lock:
            try:
                self._emit(flush_transport=True)
            except IOException:
                pass
