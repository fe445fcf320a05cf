"""End-to-end benchmark of the multi-processing VM.

Usage (from the repository root)::

    python3 perfbench/run.py --workload launch_storm --seed 1 \
        --seconds 36 --trace 0

A run is a number of *rounds*, each in a fresh interpreter (``round.py``):
boot fresh VMs, warm up, run a fixed number of verified ops in a closed
loop, shut down.  The work per round is fixed, so the cost of heap growth
(every reaped application stays reachable) is the same in every round;
``--seconds`` sets how many rounds a run makes.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds
and prints the per-layer metrics.  The last line of standard output is one
JSON object.  README.md in this directory defines every metric.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

from layertrace import host_loop_ms

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Nominal seconds of one whole round of each workload on a fast host,
#: set-up included; a run plans ``--seconds`` / this many rounds.
ROUND_SECONDS = {"launch_storm": 1.1, "shell_pipeline": 1.7,
                 "remote_exec": 1.6}
WORKLOADS = tuple(ROUND_SECONDS)
#: Every run makes at least this many rounds; a traced run makes at least
#: two traced and two untraced ones.
MIN_ROUNDS = 4
#: A round that takes longer than this is killed and the run fails.
ROUND_TIMEOUT_S = 45.0

#: Wrappers that must record calls on a workload, or the traced run errors:
#: a zero means a caller bound the function before the wrapper went in.
MUST_FIRE = {
    "launch_storm": ("jvm.load_class",),
    "shell_pipeline": ("unixfs.open", "tools.shell.run_line",
                       "tools.shell.parse", "security.check"),
    "remote_exec": ("security.auth", "dist.pool.acquire"),
}

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "op_p90_ms": "ms", "payload_mb_per_s": "MB/s", "cpu_ms_per_op": "ms",
    "retained_kb_per_op": "KB", "os_threads_peak": "count",
    "ok_ratio": "ratio",
}

#: Layers that have spans, for the self-time shares.
SPAN_LAYERS = ("core", "jvm", "security", "unixfs", "tools", "dist", "net")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def cpu_ticks() -> tuple:
    """(stolen, total) CPU ticks of the machine from ``/proc/stat``: time
    the hypervisor ran someone else while this VM had work."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_round(workload: str, seed: int, index: int, traced: bool) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "round.py"), workload, str(seed),
         str(index), "1" if traced else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=ROUND_TIMEOUT_S)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"round {index} of {workload} exited with "
                           f"code {done.returncode}")
    return json.loads(lines[-1])


def rate(r: dict) -> float:
    """A round's verified ops per second."""
    return (r["attempted"] - r["failed"]) / r["wall"]


def end_to_end(rounds: list[dict]) -> dict:
    """The end-to-end metrics, over every round of the run.

    Every round does the same fixed work, so everything the program does,
    the retained heap's collections and the pipeline's slow streaks
    included, weighs the same in every run; no round is left out.
    ``op_p50_ms`` is the mean of the rounds' medians, not the median of
    the pooled ops: the host's fast and slow streaks split per-op latency
    into two clusters about 1.5x apart, and a pooled median jumps from one
    to the other when their shares cross a half.
    """
    def median(fn):
        return statistics.median(fn(r) for r in rounds)

    wall = sum(r["wall"] for r in rounds)
    attempted = sum(r["attempted"] for r in rounds)
    verified = attempted - sum(r["failed"] for r in rounds)
    latencies = [x for r in rounds for x in r["latencies"]]
    return {
        "setup_s": median(lambda r: r["setup_s"]),
        "ops_per_s": verified / wall,
        "op_p50_ms": statistics.mean(
            percentile(r["latencies"], 0.50) for r in rounds) * 1e3,
        "op_p90_ms": percentile(latencies, 0.90) * 1e3,
        "payload_mb_per_s": sum(r["bytes"] for r in rounds) / wall / 1e6,
        "cpu_ms_per_op": sum(r["cpu"] for r in rounds) / attempted * 1e3,
        "retained_kb_per_op": median(
            lambda r: r["heap_growth"] / r["attempted"] / 1024),
        "os_threads_peak": median(lambda r: r["threads_peak"]),
        "ok_ratio": verified / attempted,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple:
    """The per-layer metrics, summed over the traced rounds, and the
    per-wrapper call counts."""
    ops = sum(r["attempted"] for r in traced)
    counters = collections.Counter()
    calls = collections.Counter()
    incl = collections.Counter()
    self_time = collections.Counter()
    unattributed = op_seconds = 0.0
    for r in traced:
        counters.update(r["counters"])
        calls.update(r["trace"]["calls"])
        incl.update(r["trace"]["inclusive"])
        self_time.update(r["trace"]["self_time"])
        unattributed += r["trace"]["unattributed"]
        op_seconds += r["trace"]["op_seconds"]

    def per_op(value, scale=1.0):
        return value / ops * scale

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def median_rate(rounds):
        return statistics.median(rate(r) for r in rounds)

    values = {
        "core.launch.ms_per_op": (per_op(incl["core.launch"], 1e3), "ms"),
        "core.wait.ms_per_op": (per_op(incl["core.wait"], 1e3), "ms"),
        "core.apps_per_op": (per_op(counters["apps.launched"]), "count"),
        "core.reload.classes_per_op": (
            per_op(counters["reload.classes"]), "count"),
        "jvm.load_class.calls_per_op": (
            per_op(calls["jvm.load_class"]), "count"),
        "jvm.load_class.us_per_op": (
            per_op(incl["jvm.load_class"], 1e6), "us"),
        "jvm.classes_defined_per_op": (
            per_op(counters["classload.defined"]), "count"),
        "jvm.threads_started_per_op": (
            per_op(counters["app.threads.started"]), "count"),
        "jvm.os_threads_started_per_op": (
            per_op(sum(r["threads_started"] for r in traced)), "count"),
        "jvm.groups_retained_per_op": (per_op(counters["groups"]), "count"),
        "sched.tasks_spawned_per_op": (
            per_op(counters["sched.spawned"]), "count"),
        "sched.switches_per_op": (per_op(counters["sched.switches"]), "count"),
        "security.checks_per_op": (
            per_op(counters["security.checks"]), "count"),
        "security.check.us_per_op": (
            per_op(incl["security.check"], 1e6), "us"),
        "security.cache.hit_ratio": (ratio(
            counters["security.cache.hit"],
            counters["security.cache.hit"] + counters["security.cache.miss"]),
            "ratio"),
        "security.auth.calls_per_op": (
            per_op(calls["security.auth"]), "count"),
        "security.auth.ms_per_op": (per_op(incl["security.auth"], 1e3), "ms"),
        "io.ring.copies_per_op": (per_op(counters["ring.copies"]), "count"),
        "io.ring.bytes_per_op": (
            per_op(counters["ring.zero_copy_bytes"]), "B"),
        "io.ring.wakeups_per_op": (per_op(counters["ring.wakeups"]), "count"),
        "io.ring.suppressed_per_op": (
            per_op(counters["ring.suppressed_wakeups"]), "count"),
        "unixfs.open.calls_per_op": (per_op(calls["unixfs.open"]), "count"),
        "unixfs.open.us_per_op": (per_op(incl["unixfs.open"], 1e6), "us"),
        "tools.shell.run_line.ms_per_op": (
            per_op(incl["tools.shell.run_line"], 1e3), "ms"),
        "tools.shell.parse.us_per_op": (
            per_op(incl["tools.shell.parse"], 1e6), "us"),
        "dist.pool.hit_ratio": (ratio(
            counters["dist.pool.hit"],
            counters["dist.pool.hit"] + counters["dist.pool.miss"]), "ratio"),
        "dist.pool.acquire.ms_per_op": (
            per_op(incl["dist.pool.acquire"], 1e3), "ms"),
        "dist.frames_per_op": (per_op(counters["dist.frames.sent"]), "count"),
        "dist.bytes_per_frame": (ratio(
            counters["dist.bytes.sent"], counters["dist.frames.sent"]), "B"),
        "dist.frames.coalesced_per_op": (
            per_op(counters["dist.frames.coalesced"]), "count"),
        "net.connects_per_op": (per_op(calls["net.connect"]), "count"),
        "telemetry.series_per_op": (per_op(counters["series"]), "count"),
        "runtime.gc_gen2_passes_per_kop": (
            per_op(sum(r["gen2_passes"] for r in traced), 1e3), "count"),
        "runtime.gc_gen2_ms_per_op": (
            per_op(sum(r["gen2_seconds"] for r in traced), 1e3), "ms"),
        "trace.unattributed_share": (ratio(unattributed, op_seconds),
                                     "ratio"),
        "trace.overhead_ratio": (median_rate(traced) / median_rate(untraced),
                                 "ratio"),
    }
    for layer in SPAN_LAYERS:
        values[f"{layer}.self_share"] = (
            ratio(self_time[layer], op_seconds), "ratio")
    return values, calls


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    ticks_before = cpu_ticks()
    loop_before = host_loop_ms()
    rounds = max(MIN_ROUNDS,
                 int(args.seconds / ROUND_SECONDS[args.workload]))
    # In a traced run untraced and traced rounds alternate.
    plan = [(index, bool(args.trace) and index % 2 == 1)
            for index in range(rounds + rounds % 2 * args.trace)]
    untraced, traced = [], []
    try:
        for index, tracing in plan:
            # The work per round is fixed; a slow host makes fewer rounds
            # rather than a longer run.
            if index >= MIN_ROUNDS and \
                    time.perf_counter() - started > args.seconds:
                break
            (traced if tracing else untraced).append(
                run_round(args.workload, args.seed, index, tracing))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    loop_after = host_loop_ms()
    stolen, total = (after - before
                     for after, before in zip(cpu_ticks(), ticks_before))

    everything = untraced + traced
    measured = traced or untraced
    attempted = sum(r["attempted"] for r in measured)
    failed = sum(r["failed"] for r in measured)
    correct = all(r["failed"] == 0 and r["warmup_failures"] == 0
                  and r["self_check_ok"] for r in everything)
    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(everything),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "git_sha": git_sha(),
        "gc_gen2_passes": [r["gen2_passes"] for r in everything],
        "gc_gen2_pause_ms": [round(r["gen2_seconds"] * 1e3, 1)
                             for r in everything],
        "host_loop_ms": [round(loop_before, 1), round(loop_after, 1)],
        "round_ops_per_s": [round(rate(r), 2) for r in everything],
        "round_host_loop_ms": [round(r["host_loop_ms"], 1)
                               for r in everything],
        "cpu_steal_share": round(stolen / total, 4) if total else None,
        "run_s": round(time.perf_counter() - started, 2),
    }
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for r in everything:
        for error in r["errors"]:
            print("op error: " + error.rstrip(), file=sys.stderr)
        if not r["self_check_ok"]:
            print("self-check failed: an op checked against a wrong "
                  "expectation was counted as verified", file=sys.stderr)

    if args.trace:
        metrics, calls = per_layer(traced, untraced)
        silent = [name for name in MUST_FIRE[args.workload]
                  if calls[name] == 0]
        if silent:
            print(f"perfbench: wrappers recorded no calls on "
                  f"{args.workload}: {', '.join(silent)}", file=sys.stderr)
            return 3
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(untraced).items()}
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
