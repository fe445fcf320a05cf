"""Perf gate for the frame transport (the ``perf`` marker).

A cross-run gate: per-frame ``FrameChannel.send`` throughput must stay
within a generous factor of the best non-smoke ``sequential_frames_s``
recorded in ``BENCH_transport.json`` by full benchmark runs.  Skipped
until a full run has seeded a baseline.
"""

import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from _common import bench_baseline  # noqa: E402

from repro.dist.protocol import FrameChannel  # noqa: E402
from repro.io.streams import make_pipe  # noqa: E402
from repro.jvm.threads import JThread, ThreadGroup  # noqa: E402

pytestmark = pytest.mark.perf

FRAMES = 1000
FRAME_DATA = b"f" * 100
RETRIES = 3


def _frame_burst() -> float:
    """Ship FRAMES data frames through a pipe; returns frames/s."""
    root = ThreadGroup(None, "system")
    reader, writer = make_pipe()
    channel = FrameChannel(output_stream=writer)
    done = []

    def consume():
        total = 0
        while True:
            drained = reader.drain_into(lambda segments: None)
            if not drained:
                break
            total += drained
        done.append(total)

    consumer = JThread(target=consume, group=root)
    consumer.start()
    frame = {"t": "o", "d": FRAME_DATA}
    start = time.perf_counter()
    for _ in range(FRAMES):
        channel.send(frame, flush=False)
    channel.flush()
    elapsed = time.perf_counter() - start
    channel.close()
    consumer.join(30)
    reader.close()
    assert done and done[0] == FRAMES * (5 + len(FRAME_DATA))
    return FRAMES / elapsed


def test_frame_send_vs_recorded_baseline():
    """Cross-run gate: today's frames/s vs the best full-run record."""
    # The series was recorded as "vectored_send" before the bench was
    # renamed "frame_send"; both labels are the same measurement.
    baseline = bench_baseline("transport", ("vectored_send", "frame_send"),
                              "sequential_frames_s", best="max")
    if baseline is None:
        pytest.skip("no non-smoke baseline in BENCH_transport.json yet "
                    "(run benchmarks/bench_sharing_and_dist.py once)")
    measured = max(_frame_burst() for _ in range(RETRIES))
    # 0.4x of the best-ever record: same rationale as the ipc gate.
    assert measured >= baseline * 0.4, (
        f"frame send throughput collapsed: {measured:.0f} frames/s "
        f"vs recorded best {baseline:.0f} frames/s (0.4x gate)")
