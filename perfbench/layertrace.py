"""Per-layer measurement from outside the program.

The traced run wraps public functions of each layer (``install_wrappers``)
so every call records a span: name, start, end, parent and op.  Only one op
is ever in flight, so the op is simply the client's current one.  A span
opened on a thread that has no open span of its own (an application
thread, the daemon on VM B) takes the op's root span as its parent.

Spans are folded into per-name totals at the end of each op; the spans of
the last ``KEEP_OPS`` ops are kept and written out when the round ends.
Counters the program already publishes are read as deltas around the
timed phase (``snapshot``).

``ThreadWatch`` and ``GcWatch`` are installed in every run, traced or not:
the OS-thread peak and the gen-2 pauses are end-to-end figures and stamp
data.  Each costs one short call per thread start or per collection.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import gc
import json
import os
import re
import sys
import threading
import time

#: Ops whose raw spans are kept for the span file.
KEEP_OPS = 64

#: Client-loop spans that only wait: time they cover is no layer's work.
WAITING = ("op", "core.wait")


class Span:
    __slots__ = ("name", "start", "end", "parent", "nested")

    def __init__(self, name, start, parent, nested):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.nested = nested


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Span recorder plus per-op folding into per-name and per-layer totals."""

    def __init__(self):
        self._local = threading.local()
        self._spans: list[Span] = []
        self._root = None
        self.ops = 0
        self.op_seconds = 0.0
        self.unattributed = 0.0
        self.calls = collections.Counter()
        self.inclusive = collections.defaultdict(float)
        self.self_time = collections.defaultdict(float)
        self.recent = collections.deque(maxlen=KEEP_OPS)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        nested = any(open_span.name == name for open_span in stack)
        span = Span(name, time.perf_counter(), parent, nested)
        stack.append(span)
        self._spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return wrapper

    def discard(self) -> None:
        """Drop spans recorded so far (warm-up ops are not measured)."""
        self._spans = []

    def begin_op(self) -> Span:
        self._root = self.begin("op")
        return self._root

    def end_op(self, root: Span) -> None:
        """End the op rooted at ``root`` and fold its spans into the totals.

        Spans recorded between two ops count toward the next one; every
        interval is clipped to the op's own.
        """
        self.end(root)
        self._root = None
        spans, self._spans = self._spans, []
        children = collections.defaultdict(list)
        for span in spans:
            if span.end is None or span.end > root.end:
                span.end = root.end
            if span is not root:
                span.start = min(max(span.start, root.start), root.end)
                span.end = max(span.end, span.start)
                parent = span.parent if span.parent is not None else root
                children[id(parent)].append(span)
        for span in spans:
            start, end = span.start, span.end
            if not span.nested:
                self.calls[span.name] += 1
                self.inclusive[span.name] += end - start
            if span.name in WAITING:
                continue
            covered = _covered(
                (max(c.start, start), min(c.end, end))
                for c in children.get(id(span), ()))
            self.self_time[span.name.split(".", 1)[0]] += \
                (end - start) - covered
        working = _covered(
            (max(s.start, root.start), min(s.end, root.end))
            for s in spans if s.name not in WAITING)
        self.unattributed += (root.end - root.start) - working
        self.ops += 1
        self.op_seconds += root.end - root.start
        self.recent.append([(s.name, s.start - root.start, s.end - root.start,
                             s.parent.name if s.parent is not None else None)
                            for s in spans])

    def totals(self) -> dict:
        return {"ops": self.ops, "op_seconds": self.op_seconds,
                "unattributed": self.unattributed, "calls": self.calls,
                "inclusive": self.inclusive, "self_time": self.self_time}

    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines, one op per line."""
        with open(path, "w") as out:
            for op_index, spans in enumerate(self.recent):
                out.write(json.dumps({"op": op_index, "spans": [
                    {"name": name, "start_us": round(start * 1e6, 1),
                     "end_us": round(end * 1e6, 1), "parent": parent}
                    for name, start, end, parent in spans]}) + "\n")


def install_wrappers(tracer: Tracer) -> list:
    """Wrap each layer's public entry points; returns the undo list."""
    from repro.core.reload import ApplicationClassLoader
    from repro.dist.pool import ChannelPool
    from repro.jvm.classloading import ClassLoader
    from repro.net.fabric import NetworkFabric
    from repro.security import access
    from repro.security.auth import UserDatabase
    from repro.tools import shell
    from repro.unixfs.vfs import VirtualFileSystem

    targets = [
        (ClassLoader, "load_class", "jvm.load_class"),
        (ApplicationClassLoader, "load_class", "jvm.load_class"),
        (access, "check_permission", "security.check"),
        (UserDatabase, "authenticate", "security.auth"),
        (VirtualFileSystem, "open", "unixfs.open"),
        (shell.Shell, "run_line", "tools.shell.run_line"),
        (shell, "tokenize", "tools.shell.parse"),
        (shell, "parse", "tools.shell.parse"),
        (ChannelPool, "acquire", "dist.pool.acquire"),
        (NetworkFabric, "connect", "net.connect"),
    ]
    undo = []
    for owner, attr, name in targets:
        original = owner.__dict__[attr]
        setattr(owner, attr, tracer.wrap(name, original))
        undo.append((owner, attr, original))
    return undo


def remove_wrappers(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def host_loop_ms(iterations: int = 1_000_000) -> float:
    """Milliseconds per million turns of a plain Python loop, timed over
    ``iterations`` turns: tells host drift apart from regressions."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i
    return (time.perf_counter() - start) * 1e9 / iterations


class ThreadWatch:
    """Counts OS thread starts and the peak number of live OS threads."""

    def __init__(self):
        self.started = 0
        self.peak = 0
        original = threading.Thread.start

        @functools.wraps(original)
        def start(thread):
            original(thread)
            self.started += 1
            self.peak = max(self.peak, threading.active_count())

        threading.Thread.start = start

    def reset_peak(self) -> None:
        self.peak = threading.active_count()


class GcWatch:
    """Counts gen-2 collections and their pause time via ``gc.callbacks``."""

    def __init__(self):
        self.passes = 0
        self.seconds = 0.0
        self._began = 0.0
        gc.callbacks.append(self._callback)

    def _callback(self, phase, info):
        if info["generation"] != 2:
            return
        if phase == "start":
            self._began = time.perf_counter()
        else:
            self.passes += 1
            self.seconds += time.perf_counter() - self._began


class _MallInfo2(ctypes.Structure):
    _fields_ = [(field, ctypes.c_size_t) for field in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


_mallinfo2 = getattr(ctypes.CDLL(None), "mallinfo2", None)  # glibc >= 2.33
if _mallinfo2 is not None:
    _mallinfo2.restype = _MallInfo2
_PYMALLOC_IN_USE = re.compile(rb"# bytes in allocated blocks\s*=\s*([\d,]+)")


def _pymalloc_bytes() -> int:
    """Bytes in allocated pymalloc blocks, from ``sys._debugmallocstats``
    (which writes to C-level stderr, so fd 2 is pointed at a pipe)."""
    read_fd, write_fd = os.pipe()
    saved = os.dup(2)
    sys.stderr.flush()
    os.dup2(write_fd, 2)
    try:
        sys._debugmallocstats()
    finally:
        os.dup2(saved, 2)
        os.close(saved)
        os.close(write_fd)
    chunks = []
    while chunk := os.read(read_fd, 65536):
        chunks.append(chunk)
    os.close(read_fd)
    match = _PYMALLOC_IN_USE.search(b"".join(chunks))
    return int(match.group(1).replace(b",", b"")) if match else 0


def heap_bytes() -> int:
    """Live heap: pymalloc blocks in use plus malloc'd and mmapped chunks.

    Unlike RSS, this does not depend on how much freed memory an earlier
    round left for the allocator to reuse.
    """
    total = _pymalloc_bytes()
    if _mallinfo2 is not None:
        info = _mallinfo2()
        total += info.uordblks + info.hblkhd
    return total


def snapshot(vms) -> dict:
    """Counters the program publishes, summed over ``vms`` and the global
    hub (code running outside any application counts there)."""
    from repro.io.streams import RING_STATS
    from repro.telemetry import GLOBAL_HUB

    registries = [vm.telemetry.metrics for vm in vms] + [GLOBAL_HUB.metrics]
    names = ("apps.launched", "classload.defined", "app.threads.started",
             "reload.classes", "security.checks", "security.cache.hit",
             "security.cache.miss", "dist.pool.hit", "dist.pool.miss",
             "dist.frames.sent", "dist.bytes.sent", "dist.frames.coalesced")
    values = {name: sum(registry.total(name) for registry in registries)
              for name in names}
    for key, value in RING_STATS.snapshot().items():
        values[f"ring.{key}"] = value
    values["sched.spawned"] = values["sched.switches"] = 0
    for vm in vms:
        if vm.scheduler is not None:
            stats = vm.scheduler.stats()
            values["sched.spawned"] += stats["spawned"]
            values["sched.switches"] += stats["switches"]
    values["groups"] = sum(len(vm.main_group.enumerate_groups())
                           for vm in vms)
    values["series"] = sum(len(registry) for registry in registries)
    return values
