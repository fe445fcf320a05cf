"""Lock-cheap counters, gauges, and histograms with per-application labels.

The observability layer every later performance PR measures itself against.
Design constraints, in order:

1. **Near-free on the hot path.**  Call sites cache the metric object (one
   dict lookup to obtain it, attribute bumps afterwards) and the update
   methods take no locks: under the GIL a lost increment requires a
   preemption between the load and the store of ``+=``, which is rare and
   acceptable for statistics (these are gauges of system health, not
   ledgers — the security *audit log* in :mod:`repro.telemetry.audit` is
   the reliable record).
2. **Labels, but no series per application.**  Every metric is keyed by
   its name plus a sorted label tuple.  A series that every launch would
   bump per application is kept unlabelled instead (``app.threads.started``,
   ``reload.classes``): the per-application figure lives on the
   application and is freed with it.  The owner publishes that breakdown
   through :meth:`MetricsRegistry.collect_labelled`, which is what still
   lets ``/proc/<app-id>/metrics`` show the owning application's slice.
3. **Readable anywhere.**  :meth:`MetricsRegistry.snapshot`,
   :meth:`MetricsRegistry.render_text` and
   :meth:`MetricsRegistry.render_totals` produce stable, sorted output for
   the ``/proc`` files and the ``vmstat`` coreutil.
4. **One copy of each fact.**  A subsystem that already keeps a hot
   counter as a plain int (the scheduler's switches, the audit log's
   grant count) does not mirror it into a series: it registers a collect
   callback once per VM (:meth:`MetricsRegistry.collect`), and every read
   asks it for ``{name: value}``.  The owner's hot path pays nothing.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

#: Default histogram bucket upper bounds, in seconds (latency-oriented).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.00001, 0.0001, 0.001, 0.01, 0.1, 1.0, 10.0)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def describe(self) -> dict:
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Gauge:
    """A value that can go up and down (live threads, queue depth)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount

    def describe(self) -> dict:
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Histogram:
    """Fixed-bucket distribution (dispatch latency, span durations)."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count",
                 "total", "minimum", "maximum")
    kind = "histogram"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...],
                 bounds: Optional[Sequence[float]] = None):
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds) if bounds is not None else DEFAULT_BUCKETS
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.bucket_counts[index] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def describe(self) -> dict:
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "count": self.count,
                "sum": self.total, "min": self.minimum, "max": self.maximum,
                "buckets": dict(zip([*map(str, self.bounds), "+Inf"],
                                    self.bucket_counts))}


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


class MetricsRegistry:
    """All metrics of one VM, keyed by (name, sorted label items).

    ``counter``/``gauge``/``histogram`` are get-or-create and return stable
    objects, so hot call sites may cache the result and skip even the dict
    lookup.  Collected values (:meth:`collect`) are read alongside the
    series; they carry no labels and are not series (``len`` counts only
    series).
    """

    def __init__(self):
        self._metrics: dict = {}
        self._collectors: tuple = ()
        self._labelled: tuple = ()
        self._lock = threading.Lock()

    def _get(self, cls, name: str, labels: dict, extra=None):
        key = (name, tuple(sorted(labels.items())) if labels else ())
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    if extra is not None:
                        metric = cls(name, key[1], extra)
                    else:
                        metric = cls(name, key[1])
                    self._metrics[key] = metric
        if not isinstance(metric, cls):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{metric.kind}")
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None,
                  **labels) -> Histogram:
        return self._get(Histogram, name, labels, extra=bounds)

    def collect(self, callback: Callable[[], dict]) -> None:
        """Publish values an owner keeps itself: ``callback()`` returns
        ``{name: value}`` and runs on every read, never on the owner's
        hot path.  Register once per owner and VM, not per app or task."""
        with self._lock:
            self._collectors = self._collectors + (callback,)

    def collect_labelled(self, names: Sequence[str],
                         callback: Callable[[dict], list]) -> None:
        """Publish a per-label breakdown of ``names`` that an owner keeps
        itself (each live application's thread counts and security
        decisions): ``callback(match)`` returns described entries
        (``{"kind", "name", "labels", "value"}``), and those whose labels
        include ``match`` join every read that names labels (a
        :meth:`total` only when it asks for one of ``names``).  They
        break down a total an unlabelled series or collected value
        already carries, so reads without labels and ``len`` never see
        them.  Register once per owner and VM."""
        with self._lock:
            self._labelled = self._labelled + ((frozenset(names), callback),)

    # -- read side -----------------------------------------------------------

    def _collected(self) -> dict:
        values: dict = {}
        for callback in self._collectors:
            values.update(callback())
        return values

    def _breakdown(self, match: dict, name: Optional[str] = None) -> list:
        """The published entries matching ``match`` (of ``name`` alone, if
        given); entries with the same name and labels (two live
        applications of one name) are summed, as a labelled series would
        have counted them."""
        wanted = set(match.items())
        merged: dict = {}
        for names, callback in self._labelled:
            if name is not None and name not in names:
                continue
            for entry in callback(match):
                if wanted.issubset(entry["labels"].items()):
                    labels = tuple(sorted(entry["labels"].items()))
                    key = (entry["name"], labels)
                    if key in merged:
                        merged[key]["value"] += entry["value"]
                    else:
                        merged[key] = entry
        return list(merged.values())

    def _matching(self, match: dict) -> list:
        with self._lock:
            metrics = list(self._metrics.values())
        if not match:
            return metrics
        wanted = set(match.items())
        return [m for m in metrics if wanted.issubset(m.labels)]

    def snapshot(self, **match) -> list[dict]:
        """Describe all metrics whose labels are a superset of ``match``;
        collected values (no labels) match only an empty ``match``, and
        labelled breakdowns only a non-empty one."""
        described = [m.describe() for m in self._matching(match)]
        if match:
            described.extend(self._breakdown(match))
        else:
            described.extend(
                {"kind": "collected", "name": name, "labels": {},
                 "value": value}
                for name, value in self._collected().items())
        described.sort(key=lambda d: (d["name"], sorted(d["labels"].items())))
        return described

    def render_text(self, **match) -> str:
        """``name{k=v,...} value`` lines, sorted — the /proc format."""
        lines = []
        for metric in self.snapshot(**match):
            label_text = ",".join(f"{k}={v}" for k, v in
                                  sorted(metric["labels"].items()))
            prefix = (f"{metric['name']}{{{label_text}}}" if label_text
                      else metric["name"])
            if metric["kind"] == "histogram":
                lines.append(f"{prefix} count={metric['count']} "
                             f"sum={_format_value(metric['sum'])} "
                             f"min={_format_value(metric['min'])} "
                             f"max={_format_value(metric['max'])}")
            else:
                lines.append(f"{prefix} {_format_value(metric['value'])}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render_totals(self, prefix: str = "") -> str:
        """``name\\ttotal`` lines, one per counter, gauge or collected name
        under ``prefix`` (stripped), sorted — the /proc counter files.

        Label sets are summed, so the line count grows with the names in
        use, never with the applications that use them.
        """
        totals: dict = {}
        for metric in self._matching({}):
            if metric.kind != "histogram" and metric.name.startswith(prefix):
                totals[metric.name] = totals.get(metric.name, 0) + metric.value
        for name, value in self._collected().items():
            if name.startswith(prefix):
                totals[name] = totals.get(name, 0) + value
        return "".join(f"{name[len(prefix):]}\t{_format_value(value)}\n"
                       for name, value in sorted(totals.items()))

    def total(self, name: str, **match) -> float:
        """Sum of a counter/gauge across matching label sets (rollups),
        plus the collected value of that name when ``match`` is empty, or
        its labelled breakdown when it is not."""
        value = sum(m.value for m in self._matching(match)
                    if m.name == name and m.kind in ("counter", "gauge"))
        if match:
            value += sum(entry["value"]
                         for entry in self._breakdown(match, name)
                         if entry["name"] == name
                         and entry["kind"] in ("counter", "gauge"))
        else:
            value += self._collected().get(name, 0)
        return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)
