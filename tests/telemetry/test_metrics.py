"""The metrics registry: counters, gauges, histograms, label filtering."""

import pytest

from repro.core.application import ResourceLimitExceeded, ResourceLimits
from repro.core.execspec import ExecSpec
from repro.jvm.threads import JThread
from repro.telemetry.metrics import MetricsRegistry

pytestmark = pytest.mark.telemetry


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("requests", app="a").inc()
        registry.counter("requests", app="a").inc(2)
        assert registry.counter("requests", app="a").value == 3

    def test_label_sets_are_independent(self):
        registry = MetricsRegistry()
        registry.counter("requests", app="a").inc()
        registry.counter("requests", app="b").inc(5)
        assert registry.counter("requests", app="a").value == 1
        assert registry.counter("requests", app="b").value == 5
        assert registry.total("requests") == 6
        assert registry.total("requests", app="b") == 5

    def test_gauge_sets_and_moves(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(7)
        gauge.dec()
        assert gauge.value == 6

    def test_histogram_observes(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        for value in (0.001, 0.002, 0.004):
            histogram.observe(value)
        description = histogram.describe()
        assert description["count"] == 3
        assert description["min"] == pytest.approx(0.001)
        assert description["max"] == pytest.approx(0.004)

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")


class TestReadSide:
    def test_snapshot_filters_by_label_superset(self):
        registry = MetricsRegistry()
        registry.counter("c", app="a", op="read").inc()
        registry.counter("c", app="b", op="read").inc()
        assert len(registry.snapshot(app="a")) == 1
        assert len(registry.snapshot(op="read")) == 2
        # A label *value* must match exactly, not merely share the key.
        assert registry.snapshot(app="nope") == []

    def test_render_text_format(self):
        registry = MetricsRegistry()
        registry.counter("hits", app="a").inc(2)
        text = registry.render_text()
        assert "hits{app=a} 2" in text


class TestLimitsRejectedCounter:
    def test_typed_error_and_counter(self, host, register_app):
        """Satellite: a limit rejection raises a *typed* error naming the
        limit, and bumps ``limits.rejected{app,limit}``."""
        outcome = {}

        def main(jclass, ctx, args):
            try:
                for _ in range(10):
                    JThread(target=lambda: JThread.sleep(2.0),
                            daemon=False).start()
            except ResourceLimitExceeded as exc:
                outcome["limit"] = exc.limit
                outcome["maximum"] = exc.maximum
            return 0

        class_name = register_app("LimitProbe", main)
        app = host.launch(ExecSpec(class_name, [], name="limitprobe",
                                   limits=ResourceLimits(max_threads=2)))
        assert app.wait_for(10) == 0
        assert outcome["limit"] == "max_threads"
        assert outcome["maximum"] == 2
        metrics = host.vm.telemetry.metrics
        assert metrics.total("limits.rejected", app="limitprobe",
                             limit="max_threads") >= 1
        app.destroy()
        app.wait_for(5)
