"""Shared helpers for the benchmark suite."""

from __future__ import annotations

import functools
import json
import os
import pathlib
import platform
import subprocess
import time

import pytest

from repro.core.launcher import MultiProcVM
from repro.jvm.classloading import ClassMaterial
from repro.security.codesource import CodeSource

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Runs kept per area file — enough history for trend gates, bounded size.
BENCH_HISTORY = 200


@functools.lru_cache(maxsize=None)
def _git_sha(root: pathlib.Path) -> str | None:
    """The checked-out commit of ``root``, or None without git."""
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else None


def _cpu_ranges(cpus) -> str:
    """``{0, 1, 2, 5}`` as ``"0-2,5"`` (the ``taskset -c`` form)."""
    spans: list[list[int]] = []
    for cpu in sorted(cpus):
        if spans and cpu == spans[-1][1] + 1:
            spans[-1][1] = cpu
        else:
            spans.append([cpu, cpu])
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def host_stamp(root: pathlib.Path) -> dict:
    """The host a bench row was measured on.

    Python version, usable CPUs (``nproc``, i.e. the affinity mask's
    size, and the mask itself), the machine's CPU count, the platform
    string, and the git sha of the checkout (None without git).  Rows
    compare fairly only between equal stamps.
    """
    try:
        affinity = os.sched_getaffinity(0)
    except AttributeError:  # not Linux: no affinity API
        affinity = set(range(os.cpu_count() or 1))
    return {"python": platform.python_version(),
            "nproc": len(affinity),
            "affinity": _cpu_ranges(affinity),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "git_sha": _git_sha(root)}


def record_bench(area: str, entry: dict) -> pathlib.Path:
    """Append one benchmark result to ``BENCH_<area>.json`` at repo root.

    The file holds ``{"area": ..., "runs": [...]}`` with the newest run
    last; each entry is stamped with the wall-clock time and the
    :func:`host_stamp` (as ``host``) so regression gates (``tests/perf``)
    can compare against the recorded baseline.
    Failures to write (read-only checkout) are swallowed: persistence is
    an observability feature, never a reason to fail a bench.  Smoke
    entries (``entry["smoke"]`` true) are not written at all: tiny-N
    runs are no baseline, and the tests that make them must leave the
    tracked trajectory files untouched.
    """
    path = REPO_ROOT / f"BENCH_{area}.json"
    if entry.get("smoke"):
        return path
    try:
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            payload = {"area": area, "runs": []}
        stamped = dict(entry)
        stamped["unix_time"] = time.time()
        stamped["host"] = host_stamp(REPO_ROOT)
        runs = payload.get("runs", [])
        runs.append(stamped)
        payload["runs"] = runs[-BENCH_HISTORY:]
        path.write_text(json.dumps(payload, indent=2) + "\n")
    except OSError:
        pass
    return path


def bench_baseline(area: str, bench: str | tuple[str, ...], metric: str,
                   smoke_key: str = "smoke",
                   best: str = "min") -> float | None:
    """The best non-smoke value of ``metric`` on record for ``bench``.

    Only rows whose ``bench`` label is ``bench`` (or one of a tuple of
    labels, for a series that was renamed) count, so another series that
    records the same key never becomes this gate's baseline.  ``best``
    picks the sense of "best": ``"min"`` for latency-style metrics
    (seconds, allocations), ``"max"`` for throughput-style ones (MB/s,
    lines/s, events/s) — regression gates compare new runs against the
    strongest recorded baseline in the metric's own direction.
    """
    labels = (bench,) if isinstance(bench, str) else bench
    path = REPO_ROOT / f"BENCH_{area}.json"
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    values = [run[metric] for run in payload.get("runs", [])
              if run.get("bench") in labels and metric in run
              and not run.get(smoke_key)]
    if not values:
        return None
    return max(values) if best == "max" else min(values)


def register_main(vm, name: str, main_fn) -> str:
    class_name = f"bench.{name}"
    material = ClassMaterial(
        class_name,
        code_source=CodeSource(
            f"file:/usr/local/java/apps/{name.lower()}/{name}.class"))
    material.members["main"] = main_fn
    vm.registry.register(material, replace=True)
    return class_name


@pytest.fixture(scope="module")
def bench_mvm():
    mvm = MultiProcVM.boot()
    yield mvm
    mvm.shutdown()


def banner(title: str) -> str:
    line = "=" * max(8, len(title))
    return f"\n{line}\n{title}\n{line}"


def install_trace_exporter(path: str):
    """Install a process-global trace collector; returns an export closure.

    Backs the suite's ``--trace-out`` option: the collector sees spans from
    every VM booted during the run (the tracer's guarded fast path only
    pays when a collector is installed).  Calling the returned closure
    writes the JSONL file, uninstalls the collector, and returns the
    record count.
    """
    from repro.telemetry import TraceCollector, install_collector

    collector = TraceCollector()
    install_collector(collector)

    def export() -> int:
        install_collector(None)
        return collector.export_jsonl(path)

    return export
