"""Perf gate for the ring-pipe data plane (the ``perf`` marker).

A cross-run gate keeps the zero-copy IPC fast path honest: ring
throughput must stay within a generous factor of the best non-smoke
``ring_mb_s`` recorded in ``BENCH_ipc.json`` by full benchmark runs.
Skipped until a full run has seeded a baseline.

The margin is loose on purpose: throughput through two Python threads is
at the mercy of the scheduler, and a perf gate that cries wolf gets
deleted.  Real regressions (a lost wakeup edge, a reintroduced copy)
are integer-factor events, not 20% events.
"""

import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from _common import bench_baseline  # noqa: E402

from repro.io.streams import make_pipe  # noqa: E402
from repro.jvm.threads import JThread, ThreadGroup  # noqa: E402

pytestmark = pytest.mark.perf

PAYLOAD = b"x" * 8192
CHUNKS = 128  # 1 MiB per transfer: quick, but past the setup costs
RETRIES = 3


def _transfer_mb_s() -> float:
    """One 8 KiB-chunk transfer between two JThreads; returns MB/s."""
    root = ThreadGroup(None, "system")
    reader, writer = make_pipe()
    received = []

    def consume():
        total = 0
        while True:
            drained = reader.drain_into(lambda segments: None)
            if not drained:
                break
            total += drained
        received.append(total)

    consumer = JThread(target=consume, group=root)
    consumer.start()
    start = time.perf_counter()
    for _ in range(CHUNKS):
        writer.write(PAYLOAD)
    writer.close()
    consumer.join(30)
    elapsed = time.perf_counter() - start
    assert received == [len(PAYLOAD) * CHUNKS]
    return len(PAYLOAD) * CHUNKS / (1024 * 1024) / elapsed


def test_ring_throughput_vs_recorded_baseline():
    """Cross-run gate: today's ring MB/s vs the best full-run record."""
    baseline_mb_s = bench_baseline("ipc", "chunk_throughput", "ring_mb_s",
                                  best="max")
    if baseline_mb_s is None:
        pytest.skip("no non-smoke baseline in BENCH_ipc.json yet "
                    "(run benchmarks/bench_ipc_pipes.py once)")
    measured_mb_s = max(_transfer_mb_s() for _ in range(RETRIES))
    # 0.4x of the best-ever record: in-process gate transfers are 8x
    # smaller than the bench's and share the suite's scheduler noise.
    assert measured_mb_s >= baseline_mb_s * 0.4, (
        f"ring pipe throughput collapsed: {measured_mb_s:.0f} MB/s vs "
        f"recorded best {baseline_mb_s:.0f} MB/s (0.4x gate)")
