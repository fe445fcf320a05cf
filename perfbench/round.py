"""One round of a workload, in a fresh interpreter.

    python3 perfbench/round.py WORKLOAD SEED ROUND TRACE

Boots the workload's VMs, runs its warm-up ops and the failure self-check,
then times a fixed number of verified ops in a closed loop, and prints what
it measured as one JSON line.  ``run.py`` starts one such process per round,
so every round begins from the same interpreter state: the heap the
previous round left behind (reaped applications are never freed) cannot
change this round's garbage-collection cost.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import pathlib
import random
import sys
import time
import traceback

_began = time.perf_counter()

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layertrace  # noqa: E402
import workloads  # noqa: E402

#: How many op failures are reported with their traceback.
MAX_REPORTED = 5


class Client:
    """Runs ops of one workload and keeps the failures it saw."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.errors: list[str] = []

    def op(self, k, expected, traced=False):
        """One verified op; returns the output size, or None on failure."""
        workload = self.workload
        span = self.tracer.span if traced else _untraced
        root = self.tracer.begin_op() if traced else None
        try:
            with span("core.launch"):
                handle = workload.launch(k)
            with span("core.wait"):
                code = workload.wait(handle)
            return workload.check(handle, code, expected)
        except Exception:  # noqa: BLE001 - a failed op counts, the run goes on
            if len(self.errors) < MAX_REPORTED:
                self.errors.append(traceback.format_exc())
            return None
        finally:
            if root is not None:
                self.tracer.end_op(root)


def _untraced(name):
    return contextlib.nullcontext()


def run_round(name: str, seed: int, index: int, traced: bool) -> dict:
    watch, gc_watch = layertrace.ThreadWatch(), layertrace.GcWatch()
    tracer = layertrace.Tracer() if traced else None
    undo = layertrace.install_wrappers(tracer) if traced else []
    workload = workloads.WORKLOADS[name]()
    client = Client(workload, tracer)
    ops = workload.ops_per_round
    first_timed = workload.warmup_ops + 1
    workload.setup(random.Random(f"perfbench/{name}/{seed}/{index}"),
                   first_timed + ops)
    try:
        warmup_failures = sum(
            client.op(k, workload.expect(k)) is None
            for k in range(workload.warmup_ops))
        # Self-check: an op checked against a deliberately wrong
        # expectation must be counted as failed.
        k = workload.warmup_ops
        self_check_ok = client.op(k, workload.expect(k) + b"!") is None
        gc.collect()
        heap_before = layertrace.heap_bytes()
        if traced:
            counters_before = layertrace.snapshot(workload.vms)
            tracer.discard()
        setup_s = time.perf_counter() - _began

        latencies, verified_bytes, failed = [], 0, 0
        gen2_passes, gen2_seconds = gc_watch.passes, gc_watch.seconds
        threads_started = watch.started
        watch.reset_peak()
        cpu_began = time.process_time()
        timed_began = time.perf_counter()
        for k in range(first_timed, first_timed + ops):
            expected = workload.expect(k)
            op_began = time.perf_counter()
            size = client.op(k, expected, traced)
            latencies.append(time.perf_counter() - op_began)
            if size is None:
                failed += 1
            else:
                verified_bytes += size
        wall = time.perf_counter() - timed_began
        cpu = time.process_time() - cpu_began
        host_loop_ms = layertrace.host_loop_ms(250_000)
        result = {
            "setup_s": setup_s, "wall": wall, "cpu": cpu,
            "attempted": ops, "failed": failed,
            "warmup_failures": warmup_failures,
            "self_check_ok": self_check_ok,
            "latencies": latencies, "bytes": verified_bytes,
            "threads_peak": watch.peak,
            "threads_started": watch.started - threads_started,
            "gen2_passes": gc_watch.passes - gen2_passes,
            "gen2_seconds": gc_watch.seconds - gen2_seconds,
            "host_loop_ms": host_loop_ms,
            "errors": client.errors,
        }
        if traced:
            after = layertrace.snapshot(workload.vms)
            result["counters"] = {key: after[key] - counters_before[key]
                                  for key in after}
            result["trace"] = tracer.totals()
        gc.collect()
        result["heap_growth"] = layertrace.heap_bytes() - heap_before
    finally:
        workload.teardown()
        layertrace.remove_wrappers(undo)
    if traced:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"{name}-seed{seed}.spans.jsonl"))
    return result


if __name__ == "__main__":
    name, seed, index, traced = sys.argv[1:5]
    print(json.dumps(run_round(name, int(seed), int(index), traced == "1")),
          flush=True)
    # Everything is measured and the VMs are shut down.  Skip interpreter
    # finalization: over launch_storm's retained heap it takes about 2 s,
    # which no metric covers.
    os._exit(0)
