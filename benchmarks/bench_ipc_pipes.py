"""Experiment C2b — IPC cost in one address space.

Section 2: "Inter-process communication is also much cheaper in a single
address space."

Measured side: bytes/second through an in-VM pipe between two JThreads
(the same pipes the shell's ``|`` uses).  Model side: a cross-process
Unix pipe with its two kernel copies.
"""

import os
import sys
import time
from functools import partial
from itertools import chain

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _common import (  # noqa: E402,F401
    banner,
    bench_mvm,
    record_bench,
    register_main,
)

from repro.core.execspec import ExecSpec  # noqa: E402
from repro.io.streams import (  # noqa: E402
    BufferedInputStream,
    InputStream,
    LineReader,
    make_pipe,
)
from repro.jvm.threads import JThread, ThreadGroup  # noqa: E402
from repro.procsim.model import ProcessCostModel  # noqa: E402

#: REPRO_BENCH_N scales every series (smoke runs force it tiny).
BENCH_N = int(os.environ.get("REPRO_BENCH_N", "0"))
SMOKE = bool(BENCH_N)

PAYLOAD = b"x" * 8192
CHUNKS = BENCH_N or 512  # 4 MiB per call at the default
LINES = (BENCH_N * 4) if BENCH_N else 2000
LINE = b"pipeline payload, about a hundred bytes of typical line-oriented "\
    b"program output padding.........\n"
BLOB_LINES = (BENCH_N * 40) if BENCH_N else 20000


def _chunk_transfer() -> float:
    """One 8 KiB-chunk transfer through the ring pipe; returns MB/s.

    Default capacity and the zero-copy ``drain_into`` read path.
    """
    root = ThreadGroup(None, "system")
    reader, writer = make_pipe()
    received = []

    def consume():
        total = 0
        sink = lambda segments: None  # noqa: E731 - borrow-and-drop
        while True:
            drained = reader.drain_into(sink)
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


def test_bench_in_vm_pipe_throughput(benchmark):
    benchmark.pedantic(_chunk_transfer, rounds=7, iterations=1,
                       warmup_rounds=2)
    transferred_mb = len(PAYLOAD) * CHUNKS / (1024 * 1024)
    measured_mb_s = transferred_mb / benchmark.stats.stats.min

    model = ProcessCostModel()
    print(banner("C2b: IPC bandwidth — ring pipe vs OS pipe"))
    print(f"ring pipe (drain_into):       {measured_mb_s:10.1f} MB/s")
    print(f"cross-process pipe (model):   "
          f"{model.process_pipe_mb_s:10.1f} MB/s")
    print(f"advantage: x{model.ipc_speedup(measured_mb_s):0.1f}")
    record_bench("ipc", {
        "bench": "chunk_throughput", "chunks": CHUNKS,
        "chunk_bytes": len(PAYLOAD), "smoke": SMOKE,
        "ring_mb_s": measured_mb_s})
    assert measured_mb_s > model.process_pipe_mb_s, \
        "paper claim: in-address-space IPC must beat OS pipes"


def test_bench_line_read_buffered_vs_unbuffered(benchmark):
    """Transport fast path, layer 1: ``read_line`` through a pipe.

    Four paths, each timed explicitly:

    * lock per byte: the generic ``InputStream.read_line`` loop
      (``read_byte`` → ``read(1)``, one pipe condition acquisition per
      byte) — what every raw pipe paid before the ring scanned lines;
    * lock per line: ``PipedInputStream.read_line``, one lock session
      per line and no read-ahead (the shell's shared stdin);
    * buffered: ``BufferedInputStream``, lock traffic scales with 8 KB
      chunks.  The dist protocol reads every frame through it;
    * line blocks: ``LineReader.line_blocks``, one 8 KB read and one
      decode per block of lines — how ``grep`` and ``uniq`` read.
    """
    root = ThreadGroup(None, "system")

    def feed(writer):
        def produce():
            try:
                for _ in range(LINES):
                    writer.write(LINE)
            finally:
                writer.close()

        producer = JThread(target=produce, group=root)
        producer.start()
        return producer

    def piped_run(line_reader):
        """Read every fed line with ``line_reader(pipe_reader)()``."""
        reader, writer = make_pipe(capacity=64 * 1024)
        producer = feed(writer)
        read_line = line_reader(reader)
        count = 0
        while read_line() is not None:
            count += 1
        assert count == LINES
        producer.join(30)

    def buffered_run():
        piped_run(lambda reader: BufferedInputStream(reader).read_line)

    def inline_lines_s(line_reader) -> float:
        start = time.perf_counter()
        piped_run(line_reader)
        return LINES / (time.perf_counter() - start)

    benchmark.pedantic(buffered_run, rounds=5, iterations=1,
                       warmup_rounds=1)
    buffered_lines_s = LINES / benchmark.stats.stats.mean

    # The comparison points, measured inline.
    unbuffered_lines_s = inline_lines_s(
        lambda reader: lambda: InputStream.read_line(reader))
    lock_per_line_lines_s = inline_lines_s(
        lambda reader: reader.read_line)
    line_blocks_lines_s = inline_lines_s(
        lambda reader: partial(next, chain.from_iterable(
            LineReader(reader).line_blocks()), None))

    print(banner("C2b-line: pipe line reads — per byte, per line, "
                 "buffered, blocks"))
    print(f"unbuffered (lock per byte):   {unbuffered_lines_s:10.0f} "
          f"lines/s")
    print(f"ring scan (lock per line):    {lock_per_line_lines_s:10.0f} "
          f"lines/s")
    print(f"buffered (lock per chunk):    {buffered_lines_s:10.0f} "
          f"lines/s")
    print(f"line blocks (decode per read):{line_blocks_lines_s:10.0f} "
          f"lines/s")
    print(f"advantage over per byte: per line "
          f"x{lock_per_line_lines_s / unbuffered_lines_s:0.1f}, "
          f"buffered x{buffered_lines_s / unbuffered_lines_s:0.1f}, "
          f"blocks x{line_blocks_lines_s / unbuffered_lines_s:0.1f}")
    record_bench("ipc", {
        "bench": "line_read", "lines": LINES, "smoke": SMOKE,
        "buffered_lines_s": buffered_lines_s,
        "unbuffered_lines_s": unbuffered_lines_s,
        "lock_per_line_lines_s": lock_per_line_lines_s,
        "line_blocks_lines_s": line_blocks_lines_s})
    assert buffered_lines_s > unbuffered_lines_s, \
        "buffered line reads must beat one-lock-per-byte reads"
    assert lock_per_line_lines_s > unbuffered_lines_s, \
        "ring line scans must beat one-lock-per-byte reads"


def test_bench_shell_pipe_end_to_end(benchmark, bench_mvm):
    """The same channel, through real applications: cat /big | wc."""
    from repro.io.file import write_text
    ctx = bench_mvm.initial.context()
    blob = "payload-line\n" * BLOB_LINES  # ~260 KB at the default
    write_text(ctx, "/tmp/blob.txt", blob)

    with bench_mvm.host_session():
        from repro.io.streams import ByteArrayOutputStream, PrintStream

        def pipeline():
            sink = ByteArrayOutputStream()
            app = bench_mvm.launch(ExecSpec(
                "tools.Shell", ["-c", "cat /tmp/blob.txt | wc -l"],
                stdout=PrintStream(sink), stderr=PrintStream(sink)))
            assert app.wait_for(30) == 0
            assert sink.to_text().strip() == str(BLOB_LINES)

        benchmark.pedantic(pipeline, rounds=5, iterations=1,
                           warmup_rounds=1)
    blob_mb = len(blob) / (1024 * 1024)
    app_level_mb_s = blob_mb / benchmark.stats.stats.mean
    print(banner("C2b-app: application-level pipe (cat | wc)"))
    print(f"end-to-end through two applications: "
          f"{app_level_mb_s:10.2f} MB/s")
    record_bench("ipc", {
        "bench": "shell_pipe", "blob_bytes": len(blob), "smoke": SMOKE,
        "shell_mb_s": app_level_mb_s})
