"""Ablation benches for the Section 8 future-work subsystems.

* Shared-object IPC vs pipe IPC: the paper calls object sharing "very
  appealing ... as an inter-application communication mechanism" — we
  quantify the appeal by comparing a shared-object round trip (bind +
  lookup with the type-safety check) against pushing the same payload
  through a pipe.
* Distributed execution: latency of launching an application on another
  JVM over the simulated network, vs launching it locally.
"""

import os
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _common import banner, record_bench, register_main  # noqa: E402

from repro.core.execspec import ExecSpec, Placement, launch  # noqa: E402
from repro.core.launcher import MultiProcVM  # noqa: E402
from repro.dist.pool import pool_for  # noqa: E402
from repro.dist.protocol import FrameChannel  # noqa: E402
from repro.io.streams import make_pipe  # noqa: E402
from repro.jvm.threads import JThread, ThreadGroup  # noqa: E402
from repro.net.fabric import NetworkFabric  # noqa: E402
from repro.unixfs.machine import standard_process  # noqa: E402

#: REPRO_BENCH_N scales every series (smoke runs force it tiny).
BENCH_N = int(os.environ.get("REPRO_BENCH_N", "0"))
SMOKE = bool(BENCH_N)

PAYLOAD = "x" * 1024
STDOUT_LINES = (BENCH_N * 4) if BENCH_N else 2000
FRAMES = (BENCH_N * 8) if BENCH_N else 4000
FRAME_DATA = b"f" * 100
REMOTE_HOST = "bench-b.example.com"


def remote_launch(ctx, class_name, args=()):
    """Launch ``class_name`` on JVM B as alice."""
    return launch(ExecSpec(class_name, tuple(args), user="alice",
                           password="wonderland",
                           placement=Placement.remote(REMOTE_HOST)),
                  ctx=ctx)


def boot_pair():
    """Two MPJVMs on one fabric; B runs the rexec daemon on 7100."""
    fabric = NetworkFabric()
    mvm_a = MultiProcVM.boot(
        os_context=standard_process(hostname="bench-a.example.com"),
        network=fabric)
    mvm_b = MultiProcVM.boot(
        os_context=standard_process(hostname=REMOTE_HOST),
        network=fabric)
    with mvm_b.host_session():
        mvm_b.exec("dist.RexecDaemon", ["7100"])
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        if fabric.resolve(REMOTE_HOST)._listener(7100):
            break
        time.sleep(0.01)
    return mvm_a, mvm_b


def test_bench_shared_object_round_trip(benchmark):
    mvm = MultiProcVM.boot()
    try:
        with mvm.host_session():
            space = mvm.vm.shared_objects
            counter = [0]

            def round_trip():
                counter[0] += 1
                name = "bench-slot"
                space.bind(name, PAYLOAD, replace=True)
                assert space.lookup(name) == PAYLOAD

            benchmark(round_trip)
    finally:
        mvm.shutdown()
    shared_us = benchmark.stats.stats.mean * 1e6
    print(banner("§8a: shared-object bind+lookup (1 KB payload)"))
    print(f"mean: {shared_us:8.2f} us")


def test_bench_pipe_round_trip_same_payload(benchmark):
    """The comparison point: the same 1 KB through an in-VM pipe."""
    def round_trip():
        reader, writer = make_pipe()
        writer.write(PAYLOAD.encode())
        writer.close()
        assert len(reader.read_all()) == len(PAYLOAD)
        reader.close()

    benchmark(round_trip)
    pipe_us = benchmark.stats.stats.mean * 1e6
    print(banner("§8a: pipe write+read (1 KB payload, no threads)"))
    print(f"mean: {pipe_us:8.2f} us")


def test_bench_remote_vs_local_exec(benchmark):
    """§8b: launching on another JVM vs locally, same trivial app."""
    mvm_a, mvm_b = boot_pair()
    try:
        register_main(mvm_b.vm, "RemoteNoop", lambda j, c, a: 0)

        with mvm_a.host_session():
            ctx = mvm_a.initial.context()

            def remote_round_trip():
                remote = remote_launch(ctx, "bench.RemoteNoop")
                assert remote.wait_for(10) == 0
                remote.close()

            benchmark.pedantic(remote_round_trip, rounds=15, iterations=1,
                               warmup_rounds=2)
        remote_ms = benchmark.stats.stats.mean * 1000

        # Local comparison, measured inline.
        register_main(mvm_a.vm, "LocalNoop", lambda j, c, a: 0)
        with mvm_a.host_session():
            loops = 30
            start = time.perf_counter()
            for _ in range(loops):
                app = mvm_a.exec("bench.LocalNoop")
                assert app.wait_for(10) == 0
            local_ms = (time.perf_counter() - start) / loops * 1000
    finally:
        mvm_a.shutdown()
        mvm_b.shutdown()
    print(banner("§8b: remote exec vs local exec"))
    print(f"local application launch+exit:  {local_ms:8.2f} ms")
    print(f"remote (auth + wire + launch):  {remote_ms:8.2f} ms")
    print(f"network/auth overhead factor:   x{remote_ms / local_ms:0.1f}")
    assert remote_ms > local_ms, "remote exec cannot be cheaper than local"


def _frame_burst() -> float:
    """Ship FRAMES data frames through a pipe; returns frames/s.

    A consumer thread drains the pipe with the zero-copy path so the
    writer's cost — one ``send`` per frame — is what dominates.
    """
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
    channel.close()  # EOF for the consumer; reader closes after it exits
    consumer.join(30)
    reader.close()
    assert done and done[0] == FRAMES * (5 + len(FRAME_DATA))
    return FRAMES / elapsed


def test_bench_frame_send(benchmark):
    """§8e: a burst of data frames, one ``send`` per frame."""
    benchmark.pedantic(_frame_burst, rounds=7, iterations=1,
                       warmup_rounds=2)
    sequential_frames_s = FRAMES / benchmark.stats.stats.min
    print(banner("§8e: frame burst — per-frame send"))
    print(f"send():                       {sequential_frames_s:10.0f} "
          f"frames/s")
    record_bench("transport", {
        "bench": "frame_send", "frames": FRAMES, "smoke": SMOKE,
        "sequential_frames_s": sequential_frames_s})


def _register_spammer(mvm):
    line = "y" * 100

    def spam(jclass, ctx, args):
        for _ in range(int(args[0])):
            ctx.stdout.println(line)
        return 0

    return register_main(mvm.vm, "StdoutSpam", spam)


def test_bench_remote_stdout_throughput(benchmark):
    """§8c: streaming remote stdout over a pooled connection.

    The frame-heavy series: one ~100-byte line per frame, buffered frame
    I/O, write coalescing and raw data frames.
    """
    mvm_a, mvm_b = boot_pair()
    try:
        class_name = _register_spammer(mvm_b)

        def stream():
            remote = remote_launch(mvm_a.initial.context(), class_name,
                                   [str(STDOUT_LINES)])
            assert remote.wait_for(60) == 0
            assert len(remote.output_bytes()) == STDOUT_LINES * 101
            remote.close()

        with mvm_a.host_session():
            benchmark.pedantic(stream, rounds=5, iterations=1,
                               warmup_rounds=1)
            binary_lines_s = STDOUT_LINES / benchmark.stats.stats.mean
    finally:
        mvm_a.shutdown()
        mvm_b.shutdown()
    print(banner("§8c: remote stdout streaming"))
    print(f"data frames:                  {binary_lines_s:10.0f} lines/s")
    record_bench("transport", {
        "bench": "remote_stdout", "lines": STDOUT_LINES, "smoke": SMOKE,
        "binary_lines_s": binary_lines_s})


def test_bench_pooled_vs_fresh_connection_exec(benchmark):
    """§8d: exec latency with connection reuse vs a fresh dial each time."""
    mvm_a, mvm_b = boot_pair()
    try:
        register_main(mvm_b.vm, "PoolNoop", lambda j, c, a: 0)
        pool = pool_for(mvm_a.vm)

        def exec_once():
            remote = remote_launch(mvm_a.initial.context(), "bench.PoolNoop")
            assert remote.wait_for(10) == 0
            remote.close()

        with mvm_a.host_session():
            benchmark.pedantic(exec_once, rounds=15, iterations=1,
                               warmup_rounds=2)
            pooled_ms = benchmark.stats.stats.mean * 1000

            loops = 15
            start = time.perf_counter()
            for _ in range(loops):
                # Drop the parked connection so this exec dials afresh.
                pool.invalidate(REMOTE_HOST, 7100)
                exec_once()
            fresh_ms = (time.perf_counter() - start) / loops * 1000
    finally:
        mvm_a.shutdown()
        mvm_b.shutdown()
    print(banner("§8d: remote exec — pooled connection vs fresh dial"))
    print(f"fresh connection per exec:    {fresh_ms:10.2f} ms")
    print(f"pooled connection:            {pooled_ms:10.2f} ms")
    print(f"advantage: x{fresh_ms / pooled_ms:0.1f}")
