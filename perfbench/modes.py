"""Pairs each op's latency with the host's speed just before it.

    python3 perfbench/modes.py WORKLOAD SEED OPS

Boots the workload once, then for each op times a fixed pure-Python loop
(``layertrace.host_loop_ms``, in ms per million turns) and right after it
one verified op.  Prints one ``loop_ms op_ms`` pair per line and, at the
end, the op latencies split by whether the loop before them ran in the
host's faster or slower half.  If the op's slow mode is the host's, the
two columns move together and each half holds mostly one mode; if it is
the program's, both modes show within either half.  Nothing here is part
of a benchmark run."""

from __future__ import annotations

import pathlib
import random
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layertrace  # noqa: E402
import round as round_  # noqa: E402
import workloads  # noqa: E402


def main(argv) -> int:
    name, seed, ops = argv[0], int(argv[1]), int(argv[2])
    workload = workloads.WORKLOADS[name]()
    client = round_.Client(workload, None)
    workload.setup(random.Random(f"perfbench/modes/{name}/{seed}"), ops)
    pairs = []
    try:
        for k in range(ops):
            loop_ms = layertrace.host_loop_ms(200_000)
            began = time.perf_counter()
            if client.op(k, workload.expect(k)) is None:
                print("op failed:\n" + "".join(client.errors[-1:]),
                      file=sys.stderr)
                return 1
            op_ms = (time.perf_counter() - began) * 1e3
            pairs.append((loop_ms, op_ms))
            print(f"{loop_ms:8.2f} {op_ms:10.3f}", flush=True)
    finally:
        workload.teardown()
    cut = statistics.median(loop for loop, _ in pairs)
    for label, half in (("faster", [op for loop, op in pairs if loop <= cut]),
                        ("slower", [op for loop, op in pairs if loop > cut])):
        p10, p50, p90 = (statistics.quantiles(half, n=10)[i]
                         for i in (0, 4, 8))
        print(f"host {label} half: {len(half)} ops, op p10/p50/p90 "
              f"{p10:.3f} / {p50:.3f} / {p90:.3f} ms")
    loops, op_times = zip(*pairs)
    print(f"correlation(loop_ms, op_ms) = "
          f"{statistics.correlation(loops, op_times):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
